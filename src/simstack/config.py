"""Experiment configuration: YAML schema, validation, and construction of
the simulation objects a config describes.

All lengths are in carrier wavelengths (suffix _wl, areas _wl2) with the
carrier frequency given separately, so a config is frequency-portable.
Validation is strict: unknown keys, wrong types, and violated cross-field
constraints are rejected with the offending key named.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import yaml

from .device import SimDevice
from .geometry import make_geometry
from .linklevel import MODULATIONS
from .optim import OPTIMIZERS
from .training import TrainingConfig

METHODS = ("no_sim", "model_based", "data_driven")


class ConfigError(Exception):
    pass


class ConfigFileError(ConfigError):
    """Missing or unreadable config file."""


class ConfigSchemaError(ConfigError):
    """Structurally invalid config: unknown/missing keys or wrong types."""


class ConfigConstraintError(ConfigError):
    """Cross-field constraint violated by an otherwise well-formed config."""


@dataclass(frozen=True)
class GeometrySection:
    n_antennas: int
    n_layers: int
    layer_cells: tuple            # (qx, qy)
    carrier_frequency_hz: float
    antenna_spacing_wl: float = 0.5
    array_to_first_layer_wl: float = 14.0
    inter_layer_spacing_wl: float = 0.5
    cell_spacing_wl: float = 0.5
    antenna_area_wl2: float = 0.25
    meta_atom_area_wl2: float = 0.25


@dataclass(frozen=True)
class DeviceSection:
    layer_kinds: tuple
    gain_bounds_db: tuple = (-22.0, 13.0)
    pc_amplitude: float = 0.9


@dataclass(frozen=True)
class TrainingSection:
    pilot_symbols: int = 100
    iterations: int = 500
    step_size: float = 1e-2
    optimizer: str = "adam"


@dataclass(frozen=True)
class FittingSection:
    iterations: int = 1000
    step_size: float = 0.05
    tolerance: float = 1e-3


@dataclass(frozen=True)
class CurveSpec:
    modulation: str
    ebn0_db: tuple


@dataclass(frozen=True)
class SimulationSection:
    n_users: int
    curves: tuple
    total_power: float = None     # resolved to n_users when omitted
    bits_per_user: int = 1000
    n_trials: int = 100
    master_seed: int = 0
    methods: tuple = METHODS
    max_failed_fraction: float = 0.05


@dataclass(frozen=True)
class OutputSection:
    csv_prefix: str = "ber"
    manifest: str = "manifest.json"
    snapshots: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: GeometrySection
    device: DeviceSection
    training: TrainingSection
    fitting: FittingSection
    simulation: SimulationSection
    output: OutputSection

    def to_dict(self):
        return _plain(asdict(self))

    def sha256(self):
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def build_geometry(self):
        g = self.geometry
        wavelength = 3.0e8 / g.carrier_frequency_hz
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
        return SimDevice([self.geometry.layer_cells[0] * self.geometry.layer_cells[1]]
                         * self.geometry.n_layers,
                         self.device.layer_kinds,
                         pc_amplitude=self.device.pc_amplitude,
                         ac_gain_bounds_db=self.device.gain_bounds_db,
                         rng=rng)

    def training_config(self, snr, seed):
        t = self.training
        return TrainingConfig(snr=snr, pilot_symbols=t.pilot_symbols,
                              iterations=t.iterations, step_size=t.step_size,
                              optimizer=t.optimizer, seed=seed)


def _plain(obj):
    """Tuples to lists, recursively, for YAML/JSON serialization."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _typed(value, types, key):
    if isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise ConfigSchemaError(f"{key}: expected {types}, got bool")
    if not isinstance(value, types):
        raise ConfigSchemaError(f"{key}: expected {_type_names(types)}, "
                                f"got {type(value).__name__} ({value!r})")
    return value


def _type_names(types):
    if isinstance(types, tuple):
        return "/".join(t.__name__ for t in types)
    return types.__name__


_REQUIRED = object()


def _build_section(raw, section, spec, cls):
    """spec: key -> (types, default, postprocess)."""
    raw = dict(_typed(raw, dict, section))
    kwargs = {}
    for key, (types, default, post) in spec.items():
        where = f"{section}.{key}"
        if key in raw:
            value = _typed(raw.pop(key), types, where)
            kwargs[key] = post(value, where) if post else value
        elif default is _REQUIRED:
            raise ConfigSchemaError(f"{where}: required key missing")
    if raw:
        raise ConfigSchemaError(f"{section}: unknown keys {sorted(raw)}")
    return cls(**kwargs)


def _int_pair(value, where):
    value = list(value)
    if len(value) != 2 or not all(isinstance(v, int) and not isinstance(v, bool)
                                  and v > 0 for v in value):
        raise ConfigSchemaError(f"{where}: expected a pair of positive integers")
    return tuple(value)


def _number_pair(value, where):
    value = list(value)
    if len(value) != 2 or not all(isinstance(v, (int, float)) for v in value):
        raise ConfigSchemaError(f"{where}: expected a pair of numbers")
    return tuple(float(v) for v in value)


def _kinds(value, where):
    kinds = tuple(_typed(v, str, where) for v in value)
    bad = [k for k in kinds if k not in ("ac", "pc")]
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
    for i, entry in enumerate(_typed(value, list, where)):
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


_NUM = (int, float)

_GEOMETRY_SPEC = {
    "n_antennas": (int, _REQUIRED, None),
    "n_layers": (int, _REQUIRED, None),
    "layer_cells": (list, _REQUIRED, _int_pair),
    "carrier_frequency_hz": (_NUM, _REQUIRED, lambda v, w: float(v)),
    "antenna_spacing_wl": (_NUM, 0.5, lambda v, w: float(v)),
    "array_to_first_layer_wl": (_NUM, 14.0, lambda v, w: float(v)),
    "inter_layer_spacing_wl": (_NUM, 0.5, lambda v, w: float(v)),
    "cell_spacing_wl": (_NUM, 0.5, lambda v, w: float(v)),
    "antenna_area_wl2": (_NUM, 0.25, lambda v, w: float(v)),
    "meta_atom_area_wl2": (_NUM, 0.25, lambda v, w: float(v)),
}

_DEVICE_SPEC = {
    "layer_kinds": (list, _REQUIRED, _kinds),
    "gain_bounds_db": (list, (-22.0, 13.0), _number_pair),
    "pc_amplitude": (_NUM, 0.9, lambda v, w: float(v)),
}

_TRAINING_SPEC = {
    "pilot_symbols": (int, 100, None),
    "iterations": (int, 500, None),
    "step_size": (_NUM, 1e-2, lambda v, w: float(v)),
    "optimizer": (str, "adam", None),
}

_FITTING_SPEC = {
    "iterations": (int, 1000, None),
    "step_size": (_NUM, 0.05, lambda v, w: float(v)),
    "tolerance": (_NUM, 1e-3, lambda v, w: float(v)),
}

_SIMULATION_SPEC = {
    "n_users": (int, _REQUIRED, None),
    "curves": (list, _REQUIRED, _curves),
    "total_power": (_NUM, None, lambda v, w: float(v)),
    "bits_per_user": (int, 1000, None),
    "n_trials": (int, 100, None),
    "master_seed": (int, 0, None),
    "methods": (list, METHODS, _methods),
    "max_failed_fraction": (_NUM, 0.05, lambda v, w: float(v)),
}

_OUTPUT_SPEC = {
    "csv_prefix": (str, "ber", None),
    "manifest": (str, "manifest.json", None),
    "snapshots": (bool, False, None),
}


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
    if d.gain_bounds_db[1] <= d.gain_bounds_db[0]:
        raise ConfigConstraintError(
            f"device.gain_bounds_db upper bound must exceed lower, got {d.gain_bounds_db}")
    if cfg.training.pilot_symbols < s.n_users:
        raise ConfigConstraintError(
            f"training.pilot_symbols = {cfg.training.pilot_symbols} is fewer than "
            f"simulation.n_users = {s.n_users}")
    if cfg.training.optimizer not in OPTIMIZERS:
        raise ConfigConstraintError(
            f"training.optimizer {cfg.training.optimizer!r} is not one of {sorted(OPTIMIZERS)}")
    for i, curve in enumerate(s.curves):
        bps = int(math.log2(MODULATIONS[curve.modulation]))
        if s.bits_per_user % bps:
            raise ConfigConstraintError(
                f"simulation.bits_per_user = {s.bits_per_user} does not pack into "
                f"{bps}-bit symbols of simulation.curves[{i}] ({curve.modulation})")
    if not (0.0 <= s.max_failed_fraction <= 1.0):
        raise ConfigConstraintError(
            f"simulation.max_failed_fraction must lie in [0, 1], got {s.max_failed_fraction}")
    if s.total_power <= 0:
        raise ConfigConstraintError(
            f"simulation.total_power must be positive, got {s.total_power}")


def parse_config(raw):
    """Validate a mapping into an ExperimentConfig."""
    raw = dict(_typed(raw, dict, "config"))
    sections = {}
    for name, spec, cls in (("geometry", _GEOMETRY_SPEC, GeometrySection),
                            ("device", _DEVICE_SPEC, DeviceSection),
                            ("training", _TRAINING_SPEC, TrainingSection),
                            ("fitting", _FITTING_SPEC, FittingSection),
                            ("simulation", _SIMULATION_SPEC, SimulationSection),
                            ("output", _OUTPUT_SPEC, OutputSection)):
        block = raw.pop(name, None)
        if block is None:
            if name in ("geometry", "device", "simulation"):
                raise ConfigSchemaError(f"{name}: required section missing")
            block = {}
        sections[name] = _build_section(block, name, spec, cls)
    if raw:
        raise ConfigSchemaError(f"config: unknown sections {sorted(raw)}")
    sim = sections["simulation"]
    if sim.total_power is None:
        sections["simulation"] = replace(sim, total_power=float(sim.n_users))
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
