"""Experiment configuration: YAML schema, validation, and construction of
the simulation objects a config describes.

All lengths are in carrier wavelengths (suffix _wl, areas _wl2) with the
carrier frequency given separately, so a config is frequency-portable.
Validation is strict: unknown keys, wrong types, out-of-range values and
violated cross-field constraints are rejected with the offending key named.
The section dataclasses are the schema: each states its fields' names,
types, defaults and ranges once. The geometry, device, training and
fitting sections are `geometry.SimGeometry`, `device.DeviceConfig`,
`training.TrainingConfig` and `design.FitConfig` themselves.
"""

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

import yaml

from .design import FitConfig
from .device import DeviceConfig
from .geometry import SimGeometry, _at_least, _positive
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


def _typed(value, types, key):
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ConfigSchemaError(f"{key}: expected {'/'.join(t.__name__ for t in types)}, "
                                f"got {type(value).__name__} ({value!r})")
    return value


# Readers of the list-valued keys; each tuple field names its own in
# field(metadata={"read": ...}).

def _methods(value, where):
    methods = tuple(_typed(v, str, where) for v in value)
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ConfigSchemaError(f"{where}: unknown methods {bad}; "
                                f"choose from {list(METHODS)}")
    if not methods:
        raise ConfigSchemaError(f"{where}: at least one method required")
    return methods


def _curves(value, where):
    out = []
    for i, entry in enumerate(value):
        loc = f"{where}[{i}]"
        entry = dict(_typed(entry, dict, loc))
        mod = _typed(entry.pop("modulation", None), str, f"{loc}.modulation")
        if mod not in MODULATIONS:
            raise ConfigSchemaError(f"{loc}.modulation: unknown modulation {mod!r}")
        grid = _typed(entry.pop("ebn0_db", None), list, f"{loc}.ebn0_db")
        if not grid or not all(isinstance(v, (int, float)) for v in grid):
            raise ConfigSchemaError(f"{loc}.ebn0_db: expected a nonempty list of numbers")
        if entry:
            raise ConfigSchemaError(f"{loc}: unknown keys {sorted(entry)}")
        out.append(CurveSpec(mod, tuple(float(v) for v in grid)))
    if not out:
        raise ConfigSchemaError(f"{where}: at least one curve required")
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
    methods: tuple = field(default=METHODS, metadata={"read": _methods})
    max_failed_fraction: float = 0.05

    def __post_init__(self):
        if self.total_power is None:
            object.__setattr__(self, "total_power", float(self.n_users))
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

    def to_dict(self):
        return _plain(asdict(self))

    def csv_names(self):
        """Result CSV file name per modulation, in curve order."""
        return {m: f"{self.output.csv_prefix}_{m}.csv"
                for m in dict.fromkeys(c.modulation for c in self.simulation.curves)}

    def sha256(self):
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def build_geometry(self):
        """The geometry section itself; the benchmark harness still calls this."""
        return self.geometry


def _plain(obj):
    """Tuples to lists, recursively, for YAML/JSON serialization."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _build_section(raw, section, cls):
    """The dataclass `cls` is the schema: a field without a default is
    required, `float` takes an int or a float, `int`, `str` and `bool` take
    exactly their type, and a `tuple` field takes a list that its
    metadata["read"] reader parses. A ValueError from a reader becomes a
    ConfigSchemaError, one from the dataclass's range checks a
    ConfigConstraintError."""
    raw = dict(_typed(raw, dict, section))
    kwargs = {}
    for f in fields(cls):
        where = f"{section}.{f.name}"
        if f.name not in raw:
            if f.default is MISSING:
                raise ConfigSchemaError(f"{where}: required key missing")
            continue
        value = raw.pop(f.name)
        if f.type is tuple:
            try:
                value = f.metadata["read"](_typed(value, list, where), where)
            except ValueError as exc:
                raise ConfigSchemaError(str(exc)) from exc
        elif f.type is float:
            value = float(_typed(value, (int, float), where))
        else:
            value = _typed(value, f.type, where)
        kwargs[f.name] = value
    if raw:
        raise ConfigSchemaError(f"{section}: unknown keys {sorted(raw)}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigConstraintError(f"{section}.{exc}") from exc


def _check_constraints(cfg):
    g, d, s = cfg.geometry, cfg.device, cfg.simulation
    if len(d.layer_kinds) != g.n_layers:
        raise ConfigConstraintError(
            f"device.layer_kinds has {len(d.layer_kinds)} entries but "
            f"geometry.n_layers = {g.n_layers}")
    if not (g.n_cells >= g.n_antennas >= s.n_users):
        raise ConfigConstraintError(
            f"need layer cells >= geometry.n_antennas >= simulation.n_users, "
            f"got {g.n_cells} >= {g.n_antennas} >= {s.n_users}")
    if cfg.training.pilot_symbols < s.n_users:
        raise ConfigConstraintError(
            f"training.pilot_symbols = {cfg.training.pilot_symbols} is fewer than "
            f"simulation.n_users = {s.n_users}")
    o = cfg.output
    taken = list(cfg.csv_names().values()) + ([SNAPSHOT_DIR] if o.snapshots else [])
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


def parse_config(raw):
    """Validate a mapping into an ExperimentConfig. A section is required
    when its dataclass has a required field."""
    raw = dict(_typed(raw, dict, "config"))
    sections = {}
    for f in fields(ExperimentConfig):
        block = raw.pop(f.name, None)
        if block is None:
            if any(g.default is MISSING for g in fields(f.type)):
                raise ConfigSchemaError(f"{f.name}: required section missing")
            block = {}
        sections[f.name] = _build_section(block, f.name, f.type)
    if raw:
        raise ConfigSchemaError(f"config: unknown sections {sorted(raw)}")
    cfg = ExperimentConfig(**sections)
    _check_constraints(cfg)
    return cfg


def load_config(path):
    """Load and validate a YAML experiment config."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigFileError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigSchemaError(f"{path} is not valid YAML: {exc}") from exc
    if raw is None:
        raise ConfigSchemaError(f"{path}: empty config (geometry section required)")
    return parse_config(raw)


def dump_config(cfg):
    """Serialize back to YAML; load(dump(load(x))) == load(x)."""
    return yaml.safe_dump(cfg.to_dict(), sort_keys=False)
