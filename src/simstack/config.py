"""Experiment configuration: YAML schema, validation, and construction of
the simulation objects a config describes.

All lengths are in carrier wavelengths (suffix _wl, areas _wl2) with the
carrier frequency given separately, so a config is frequency-portable.
Validation is strict: unknown keys, wrong types, out-of-range values and
violated cross-field constraints are rejected with the offending key named.
The section dataclasses are the schema: each states its fields' names,
types, defaults and ranges once.
"""

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .device import LAYER_KINDS, SimDevice
from .geometry import C0, make_geometry
from .linklevel import MODULATIONS
from .training import TrainingConfig

METHODS = ("no_sim", "model_based", "data_driven")
SNAPSHOT_DIR = "snapshots"    # directory of per-trial parameter snapshots


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

def _int_pair(value, where):
    if len(value) != 2 or not all(isinstance(v, int) and not isinstance(v, bool)
                                  and v > 0 for v in value):
        raise ConfigSchemaError(f"{where}: expected a pair of positive integers")
    return tuple(value)


def _number_pair(value, where):
    if len(value) != 2 or not all(isinstance(v, (int, float)) for v in value):
        raise ConfigSchemaError(f"{where}: expected a pair of numbers")
    return tuple(float(v) for v in value)


def _kinds(value, where):
    kinds = tuple(_typed(v, str, where) for v in value)
    bad = [k for k in kinds if k not in LAYER_KINDS]
    if bad:
        raise ConfigSchemaError(f"{where}: unknown layer kinds {bad}")
    return kinds


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


# Range checks for __post_init__. A ValueError names the key; parsing
# prefixes the section.

def _positive(section, *keys):
    for key in keys:
        value = getattr(section, key)
        if not value > 0:
            raise ValueError(f"{key} must be positive, got {value}")


def _has_separator(name):
    return "/" in name or "\\" in name


def _at_least(section, low, *keys):
    for key in keys:
        value = getattr(section, key)
        if not value >= low:
            raise ValueError(f"{key} must be at least {low}, got {value}")


@dataclass(frozen=True)
class GeometrySection:
    n_antennas: int
    n_layers: int
    layer_cells: tuple = field(metadata={"read": _int_pair})     # (qx, qy)
    carrier_frequency_hz: float
    antenna_spacing_wl: float = 0.5
    array_to_first_layer_wl: float = 14.0
    inter_layer_spacing_wl: float = 0.5
    cell_spacing_wl: float = 0.5
    antenna_area_wl2: float = 0.25
    meta_atom_area_wl2: float = 0.25

    def __post_init__(self):
        _at_least(self, 1, "n_antennas", "n_layers")
        _positive(self, "carrier_frequency_hz", "antenna_spacing_wl",
                  "array_to_first_layer_wl", "inter_layer_spacing_wl", "cell_spacing_wl",
                  "antenna_area_wl2", "meta_atom_area_wl2")


@dataclass(frozen=True)
class DeviceSection:
    layer_kinds: tuple = field(metadata={"read": _kinds})
    gain_bounds_db: tuple = field(default=(-22.0, 13.0), metadata={"read": _number_pair})
    pc_amplitude: float = 0.9

    def __post_init__(self):
        if self.gain_bounds_db[1] <= self.gain_bounds_db[0]:
            raise ValueError(f"gain_bounds_db upper bound must exceed lower, "
                             f"got {self.gain_bounds_db}")
        _positive(self, "pc_amplitude")


@dataclass(frozen=True)
class FittingSection:
    iterations: int = 1000
    step_size: float = 0.05
    tolerance: float = 1e-3

    def __post_init__(self):
        _at_least(self, 0, "iterations", "tolerance")
        _positive(self, "step_size")


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
    geometry: GeometrySection
    device: DeviceSection
    training: TrainingConfig
    fitting: FittingSection
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
        g = self.geometry
        wavelength = C0 / g.carrier_frequency_hz
        return make_geometry(
            n_antennas=g.n_antennas,
            antenna_spacing=g.antenna_spacing_wl * wavelength,
            array_to_first_layer=g.array_to_first_layer_wl * wavelength,
            inter_layer_spacing=g.inter_layer_spacing_wl * wavelength,
            n_layers=g.n_layers,
            layer_cells=g.layer_cells,
            cell_spacing=g.cell_spacing_wl * wavelength,
            carrier_frequency=g.carrier_frequency_hz,
            antenna_effective_area=g.antenna_area_wl2 * wavelength ** 2,
            meta_atom_area=g.meta_atom_area_wl2 * wavelength ** 2)

    def build_device(self, rng=None):
        return SimDevice(self.geometry.layer_cells[0] * self.geometry.layer_cells[1],
                         self.device.layer_kinds,
                         pc_amplitude=self.device.pc_amplitude,
                         ac_gain_bounds_db=self.device.gain_bounds_db,
                         rng=rng)


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
    metadata["read"] reader parses. A ValueError from the dataclass's range
    checks becomes a ConfigConstraintError."""
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
            value = f.metadata["read"](_typed(value, list, where), where)
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
    q = g.layer_cells[0] * g.layer_cells[1]
    if not (q >= g.n_antennas >= s.n_users):
        raise ConfigConstraintError(
            f"need layer cells >= geometry.n_antennas >= simulation.n_users, "
            f"got {q} >= {g.n_antennas} >= {s.n_users}")
    if cfg.training.pilot_symbols < s.n_users:
        raise ConfigConstraintError(
            f"training.pilot_symbols = {cfg.training.pilot_symbols} is fewer than "
            f"simulation.n_users = {s.n_users}")
    o = cfg.output
    taken = list(cfg.csv_names().values()) + ([SNAPSHOT_DIR] if o.snapshots else [])
    if o.manifest in taken:
        raise ConfigConstraintError(f"output.manifest = {o.manifest!r} names another "
                                    f"output of the result directory")
    for i, curve in enumerate(s.curves):
        bps = int(math.log2(MODULATIONS[curve.modulation]))
        if s.bits_per_user % bps:
            raise ConfigConstraintError(
                f"simulation.bits_per_user = {s.bits_per_user} does not pack into "
                f"{bps}-bit symbols of simulation.curves[{i}] ({curve.modulation})")


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
