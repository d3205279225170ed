"""Experiment configuration: YAML schema, validation, and construction of
the simulation objects a config describes.

All lengths are in carrier wavelengths (suffix _wl, areas _wl2) with the
carrier frequency given separately, so a config is frequency-portable.
Validation is strict: unknown keys, wrong types (a boolean is never a
number, in a list either), out-of-range values and violated cross-field
constraints are rejected with the offending key named. The section
dataclasses are the schema and the one place a value is checked: each states
its fields' names, types, defaults and ranges once and checks them on
construction, and `ExperimentConfig` checks the rules that span sections. So
a config built or `replace`d in code is checked exactly as a loaded one. The
loader maps keys onto constructors and errors onto config errors, by four
rules: a missing section is an empty one, null is never a value (nor a
section), a key may appear once in a mapping, and a number must fit a float.
Any YAML that is not a config raises a ConfigError naming its section or key.
The geometry, device, training and fitting sections are `geometry.SimGeometry`,
`device.DeviceConfig`, `training.TrainingConfig` and `design.FitConfig`.
"""

import json
import math
from collections.abc import Hashable
from dataclasses import MISSING, asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

import yaml

from .design import FitConfig
from .device import DeviceConfig
from .geometry import (SchemaError, SimGeometry, _at_least, _check_fields, _float,
                       _names, _positive, _shown, _typed)
from .linklevel import MODULATIONS
from .training import TrainingConfig

METHODS = ("no_sim", "model_based", "data_driven")
SNAPSHOT_DIR = "snapshots"    # directory of per-trial parameter snapshots


def bundled_config_path():
    return resources.files("simstack").joinpath("data/reference.yaml")


class ConfigError(Exception):
    pass


class ConfigFileError(ConfigError):
    """Missing or unreadable config file."""


class ConfigSchemaError(ConfigError):
    """Structurally invalid config: unknown/missing keys or wrong types."""


class ConfigConstraintError(ConfigError):
    """Out-of-range value or violated cross-field constraint in an otherwise
    well-formed config."""


def _unknown(keys):
    """The unknown `keys` of a mapping for a message, in text order; never raises."""
    return _shown(sorted(keys, key=lambda k: _shown(k, str)))


# Reader of `curves`; each tuple field names its reader in
# field(metadata={"read": ...}), and a SchemaError names the key.

def _curves(value, where):
    out = []
    for i, entry in enumerate(value):
        loc = f"{where}[{i}]"
        # `replace` passes the parsed CurveSpecs back in
        entry = dict(vars(entry) if isinstance(entry, CurveSpec) else _typed(entry, loc, dict))
        mod = _typed(entry.pop("modulation", None), f"{loc}.modulation", str)
        if mod not in MODULATIONS:
            raise SchemaError(f"{loc}.modulation: unknown modulation {mod!r}")
        grid = _typed(entry.pop("ebn0_db", None), f"{loc}.ebn0_db", list, tuple)
        if not grid:
            raise SchemaError(f"{loc}.ebn0_db: expected a nonempty list of numbers")
        if entry:
            raise SchemaError(f"{loc}: unknown keys {_unknown(entry)}")
        out.append(CurveSpec(mod, tuple(_float(v, f"{loc}.ebn0_db") for v in grid)))
    if not out:
        raise SchemaError(f"{where}: at least one curve required")
    return tuple(out)


def _has_separator(name):
    return "/" in name or "\\" in name


@dataclass(frozen=True)
class CurveSpec:
    modulation: str
    ebn0_db: tuple


@dataclass(frozen=True)
class SimulationSection:
    n_users: int
    curves: tuple = field(metadata={"read": _curves})
    total_power: float = None     # resolved to n_users when omitted
    bits_per_user: int = 1000
    n_trials: int = 100
    master_seed: int = 0
    methods: tuple = field(default=METHODS, metadata={"read": _names(METHODS, "methods")})
    max_failed_fraction: float = 0.05

    def __post_init__(self):
        if self.total_power is None:      # omitted: n_users, as a float
            object.__setattr__(self, "total_power", _float(self.n_users, "n_users"))
        _check_fields(self)
        _at_least(self, 1, "n_users", "bits_per_user", "n_trials")
        _at_least(self, 0, "master_seed")
        _positive(self, "total_power")
        if not (0.0 <= self.max_failed_fraction <= 1.0):
            raise ValueError(f"max_failed_fraction must lie in [0, 1], "
                             f"got {self.max_failed_fraction}")


@dataclass(frozen=True)
class OutputSection:
    csv_prefix: str = "ber"
    manifest: str = "manifest.json"
    snapshots: bool = False

    def __post_init__(self):
        _check_fields(self)
        # both name files inside the result directory
        if _has_separator(self.csv_prefix):
            raise ValueError(f"csv_prefix must not contain a path separator, "
                             f"got {self.csv_prefix!r}")
        if self.manifest in ("", ".", "..") or _has_separator(self.manifest):
            raise ValueError(f"manifest must be a plain file name, got {self.manifest!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: SimGeometry
    device: DeviceConfig
    training: TrainingConfig
    fitting: FitConfig
    simulation: SimulationSection
    output: OutputSection

    def __post_init__(self):
        g, d, s = self.geometry, self.device, self.simulation
        if len(d.layer_kinds) != g.n_layers:
            raise ConfigConstraintError(
                f"device.layer_kinds has {len(d.layer_kinds)} entries but "
                f"geometry.n_layers = {g.n_layers}")
        if not (g.n_cells >= g.n_antennas >= s.n_users):
            raise ConfigConstraintError(
                f"need layer cells >= geometry.n_antennas >= simulation.n_users, "
                f"got {g.n_cells} >= {g.n_antennas} >= {s.n_users}")
        if self.training.pilot_symbols < s.n_users:
            raise ConfigConstraintError(
                f"training.pilot_symbols = {self.training.pilot_symbols} is fewer than "
                f"simulation.n_users = {s.n_users}")
        o = self.output
        taken = list(self.csv_names().values()) + ([SNAPSHOT_DIR] if o.snapshots else [])
        if o.manifest in taken:
            raise ConfigConstraintError(f"output.manifest = {o.manifest!r} names another "
                                        f"output of the result directory")
        seen = set()     # a trial counts each (modulation, Eb/N0) point once
        for i, curve in enumerate(s.curves):
            bps = int(math.log2(MODULATIONS[curve.modulation]))
            if s.bits_per_user % bps:
                raise ConfigConstraintError(
                    f"simulation.bits_per_user = {s.bits_per_user} does not pack into "
                    f"{bps}-bit symbols of simulation.curves[{i}] ({curve.modulation})")
            for ebn0 in curve.ebn0_db:
                if not math.isfinite(ebn0) or (curve.modulation, ebn0) in seen:
                    raise ConfigConstraintError(f"simulation.curves[{i}].ebn0_db: {ebn0} is not "
                                                f"finite or repeats a {curve.modulation} point")
                seen.add((curve.modulation, ebn0))

    def to_dict(self):
        return json.loads(json.dumps(asdict(self)))      # tuples become lists

    def csv_names(self):
        """Result CSV file name per modulation, in curve order."""
        return {m: f"{self.output.csv_prefix}_{m}.csv"
                for m in dict.fromkeys(c.modulation for c in self.simulation.curves)}

    def sha256(self):
        import hashlib    # out of start-up only: numpy.random loads it at the first draw
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def build_geometry(self):
        """The geometry section itself; the benchmark harness still calls this."""
        return self.geometry


def _mapping(raw, where):
    try:
        return dict(_typed(raw, where, dict))
    except SchemaError as exc:
        raise ConfigSchemaError(str(exc)) from exc


def _build_section(raw, section, cls):
    """Map one section's keys onto its dataclass `cls`, whose constructor
    checks every value. A field without a default is required; an unknown key
    or a null is rejected. The constructor's SchemaError becomes a
    ConfigSchemaError, any other ValueError a ConfigConstraintError."""
    raw = _mapping(raw, section)
    kwargs = {}
    for f in fields(cls):
        where = f"{section}.{f.name}"
        if f.name in raw:
            kwargs[f.name] = raw.pop(f.name)
            if kwargs[f.name] is None:
                raise ConfigSchemaError(f"{where}: null is not a value; omit the key instead")
        elif f.default is MISSING:
            raise ConfigSchemaError(f"{where}: required key missing")
    if raw:
        raise ConfigSchemaError(f"{section}: unknown keys {_unknown(raw)}")
    try:
        return cls(**kwargs)
    except SchemaError as exc:
        raise ConfigSchemaError(f"{section}.{exc}") from exc
    except ValueError as exc:
        raise ConfigConstraintError(f"{section}.{exc}") from exc


def parse_config(raw):
    """Map a mapping onto an ExperimentConfig, which checks it. A missing
    section is an empty one, so its required keys are reported by name."""
    raw = _mapping(raw, "config")
    sections = {f.name: _build_section(raw.pop(f.name, {}), f.name, f.type)
                for f in fields(ExperimentConfig)}
    if raw:
        raise ConfigSchemaError(f"config: unknown sections {_unknown(raw)}")
    return ExperimentConfig(**sections)


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, except that a key may appear once in a mapping
    and a value it cannot build (an integer past Python's 4300-digit limit)
    names its key. Keys merged in with `<<` still give way to the mapping's
    own. Values are built depth first, so a key also names a bad list item."""

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):     # else SafeLoader raises
            seen = set()
            for key_node, value_node in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node)
                if isinstance(key, Hashable):      # else SafeLoader raises
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"found duplicate key {key!r}", key_node.start_mark)
                    seen.add(key)
                try:
                    self.construct_object(value_node, deep=True)
                except ValueError as exc:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"{key!r}: {exc}", value_node.start_mark) from exc
        return super().construct_mapping(node, deep)


def load_config(path):
    """Load and validate a YAML experiment config; any failure is a one-line ConfigError."""
    path = Path(path)
    try:
        with path.open("rb") as stream:
            raw = yaml.load(stream, _Loader)
    except OSError as exc:
        raise ConfigFileError(f"cannot read config {path}: {exc}") from exc
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ConfigSchemaError(f"{path} is not valid YAML: {' '.join(str(exc).split())}") \
            from exc
    if raw is None:
        raise ConfigSchemaError(f"{path}: empty config (geometry section required)")
    return parse_config(raw)


def dump_config(cfg):
    """Serialize back to YAML; load(dump(load(x))) == load(x)."""
    return yaml.safe_dump(cfg.to_dict(), sort_keys=False)
