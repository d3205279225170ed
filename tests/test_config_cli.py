import functools
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from simstack import cli, experiment
from simstack.cli import bundled_config_path, main
from simstack.config import (ConfigConstraintError, ConfigError, ConfigFileError,
                             ConfigSchemaError, CurveSpec, ExperimentConfig,
                             OutputSection, SimulationSection, dump_config,
                             load_config, parse_config)
from simstack.design import FitConfig
from simstack.device import DeviceConfig, SimDevice
from simstack.experiment import read_ber_csv
from simstack.geometry import SimGeometry
from simstack.training import TrainingConfig


_HUGE = 10 ** 5000     # more digits than Python prints


@pytest.fixture
def tiny_raw(tiny_config_text):
    return yaml.safe_load(tiny_config_text)


class TestBundledConfig:
    def test_loads_and_resolves(self, reference_config):
        cfg = reference_config
        assert cfg.geometry.n_antennas == 4
        assert cfg.geometry.n_layers == 8
        assert cfg.geometry.layer_cells == (12, 12)
        assert cfg.geometry.carrier_frequency_hz == 28.0e9
        assert cfg.device.layer_kinds == ("ac", "ac") + ("pc",) * 6
        assert cfg.simulation.n_users == 4
        assert cfg.simulation.total_power == 4.0
        assert cfg.simulation.master_seed == 20260817
        assert cfg.simulation.methods == ("no_sim", "model_based", "data_driven")
        assert len(cfg.simulation.curves) == 2
        assert cfg.fitting.iterations == 1200

    def test_geometry_in_wavelengths(self, reference_config, reference_geometry):
        lam = 3.0e8 / 28.0e9
        g = reference_geometry
        assert g.wavelength == pytest.approx(lam)
        assert g.array_to_first_layer_wl * g.wavelength == pytest.approx(14.0 * lam)
        assert g.inter_layer_spacing_wl * g.wavelength == pytest.approx(0.5 * lam)
        assert g.meta_atom_area_wl2 * g.wavelength ** 2 == pytest.approx(0.25 * lam ** 2)
        assert g.n_cells == 144
        assert reference_geometry.n_layers == 8

    def test_build_device(self, reference_config):
        import numpy as np
        dev = SimDevice(reference_config.geometry.n_cells, reference_config.device,
                        np.random.default_rng(0))
        assert dev.params.shape == (8, 144)
        assert dev.pc.tolist() == [False, False] + [True] * 6

    def test_training_config_mapping(self, reference_config):
        assert reference_config.training == TrainingConfig(
            pilot_symbols=100, iterations=1200, step_size=0.02, optimizer="adam")


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigFileError):
            load_config(tmp_path / "nope.yaml")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        with pytest.raises(ConfigSchemaError, match="empty"):
            load_config(p)

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "broken.yaml"
        p.write_text("geometry: [unclosed")
        with pytest.raises(ConfigSchemaError):
            load_config(p)

    def test_total_power_defaults_to_user_count(self, tiny_raw):
        del tiny_raw["simulation"]["bits_per_user"]
        cfg = parse_config(tiny_raw)
        assert cfg.simulation.total_power == 2.0

    def test_unknown_section(self, tiny_raw):
        tiny_raw["extras"] = {}
        with pytest.raises(ConfigSchemaError, match="extras"):
            parse_config(tiny_raw)

    def test_unknown_key(self, tiny_raw):
        tiny_raw["geometry"]["n_atennas"] = 4
        with pytest.raises(ConfigSchemaError, match="n_atennas"):
            parse_config(tiny_raw)

    # a boolean is never a number, in a list either
    @pytest.mark.parametrize("section, key, value, where", [
        ("geometry", "n_antennas", "four", "geometry.n_antennas"),
        ("simulation", "curves", [{"modulation": "qpsk", "ebn0_db": [True, 2.0]}],
         "simulation.curves[0].ebn0_db"),
        ("device", "gain_bounds_db", [False, True], "device.gain_bounds_db"),
    ], ids=["n_antennas", "ebn0_db", "gain_bounds_db"])
    def test_wrong_type(self, tiny_raw, section, key, value, where):
        tiny_raw[section][key] = value
        with pytest.raises(ConfigSchemaError, match=re.escape(where)):
            parse_config(tiny_raw)

    def test_missing_required_section(self, tiny_raw):
        del tiny_raw["geometry"]
        with pytest.raises(ConfigSchemaError, match="geometry"):
            parse_config(tiny_raw)

    def test_missing_required_key(self, tiny_raw):
        del tiny_raw["simulation"]["curves"]
        with pytest.raises(ConfigSchemaError, match="curves"):
            parse_config(tiny_raw)

    # a curve entry follows the key rules of a section
    @pytest.mark.parametrize("key", ["modulation", "ebn0_db"])
    def test_missing_required_curve_key(self, tiny_raw, key):
        del tiny_raw["simulation"]["curves"][0][key]
        with pytest.raises(ConfigSchemaError,
                           match=re.escape(f"simulation.curves[0].{key}: required key missing")):
            parse_config(tiny_raw)

    def test_kind_count_mismatch_names_both_keys(self, tiny_raw):
        tiny_raw["device"]["layer_kinds"] = ["pc"]
        with pytest.raises(ConfigConstraintError) as err:
            parse_config(tiny_raw)
        assert "layer_kinds" in str(err.value)
        assert "n_layers" in str(err.value)

    @pytest.mark.parametrize("cells", [[4], [4, 4, 4], [0, 4], [4, -1], [4.0, 4], [True, 4]])
    def test_bad_layer_cells(self, tiny_raw, cells):
        tiny_raw["geometry"]["layer_cells"] = cells
        with pytest.raises(ConfigSchemaError) as err:
            parse_config(tiny_raw)
        assert str(err.value) == "geometry.layer_cells: expected a pair of positive integers"

    def test_bad_layer_kind(self, tiny_raw):
        tiny_raw["device"]["layer_kinds"] = ["ac", "rc"]
        with pytest.raises(ConfigSchemaError, match="rc"):
            parse_config(tiny_raw)

    def test_antenna_user_ordering(self, tiny_raw):
        tiny_raw["simulation"]["n_users"] = 3
        with pytest.raises(ConfigConstraintError, match="n_users"):
            parse_config(tiny_raw)

    def test_pilots_fewer_than_users(self, tiny_raw):
        tiny_raw["training"]["pilot_symbols"] = 1
        with pytest.raises(ConfigConstraintError, match="pilot_symbols"):
            parse_config(tiny_raw)

    def test_bit_packing(self, tiny_raw):
        tiny_raw["simulation"]["curves"][0]["modulation"] = "qam16"
        tiny_raw["simulation"]["bits_per_user"] = 402
        with pytest.raises(ConfigConstraintError, match="bits_per_user"):
            parse_config(tiny_raw)

    def test_bad_optimizer(self, tiny_raw):
        tiny_raw["training"]["optimizer"] = "lbfgs"
        with pytest.raises(ConfigConstraintError, match="optimizer"):
            parse_config(tiny_raw)

    def test_bad_method(self, tiny_raw):
        tiny_raw["simulation"]["methods"] = ["no_sim", "psychic"]
        with pytest.raises(ConfigSchemaError, match="psychic"):
            parse_config(tiny_raw)

    def test_bad_modulation(self, tiny_raw):
        tiny_raw["simulation"]["curves"][0]["modulation"] = "qam64"
        with pytest.raises(ConfigSchemaError, match="qam64"):
            parse_config(tiny_raw)

    def test_gain_bounds_ordering(self, tiny_raw):
        tiny_raw["device"]["gain_bounds_db"] = [13.0, -22.0]
        with pytest.raises(ConfigConstraintError, match="gain_bounds_db"):
            parse_config(tiny_raw)

    def test_negative_power(self, tiny_raw):
        tiny_raw["simulation"]["total_power"] = -1.0
        with pytest.raises(ConfigConstraintError, match="total_power"):
            parse_config(tiny_raw)

    def test_failed_fraction_range(self, tiny_raw):
        tiny_raw["simulation"]["max_failed_fraction"] = 1.5
        with pytest.raises(ConfigConstraintError, match="max_failed_fraction"):
            parse_config(tiny_raw)

    # values that validation used to accept and the run then failed on
    @pytest.mark.parametrize("section, key, value", [
        ("training", "step_size", -1),
        ("geometry", "carrier_frequency_hz", -1),
        ("geometry", "cell_spacing_wl", 0),
        ("simulation", "n_trials", 0),
        ("simulation", "n_trials", -1),
        ("simulation", "bits_per_user", 0),
        ("simulation", "master_seed", -1),
        ("fitting", "iterations", -1),
        ("fitting", "step_size", math.inf),
        ("training", "step_size", math.inf),
        ("device", "gain_bounds_db", [math.nan, 13.0]),
        ("device", "gain_bounds_db", [-22.0, math.inf]),
        ("device", "pc_amplitude", math.inf),
        ("output", "manifest", ""),
        ("output", "manifest", "."),
        ("output", "manifest", ".."),
        ("output", "manifest", "results/manifest.json"),
        ("output", "manifest", "..\\manifest.json"),
        ("output", "csv_prefix", "results/ber"),
        ("simulation", "curves", [{"modulation": "qpsk", "ebn0_db": [math.nan, 2.0]}]),
        ("simulation", "curves", [{"modulation": "qpsk", "ebn0_db": [math.inf]}]),
    ])
    def test_out_of_range_value(self, tiny_raw, section, key, value):
        tiny_raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigConstraintError, match=f"{section}.{key}"):
            parse_config(tiny_raw)

    # a manifest name that another output of the run also writes
    @pytest.mark.parametrize("output", [
        {"manifest": "snapshots", "snapshots": True},
        {"manifest": "ber_qpsk.csv"},
        {"manifest": "res_qpsk.csv", "csv_prefix": "res"},
    ])
    def test_manifest_collides_with_another_output(self, tiny_raw, output):
        tiny_raw["output"] = output
        with pytest.raises(ConfigConstraintError, match="output.manifest"):
            parse_config(tiny_raw)

    # a repeated point would overwrite another's error counts in each trial
    @pytest.mark.parametrize("grids, index", [
        ([[4.0, 4.0], [4.0]], 0),
        ([[4.0], [2.0, 4]], 1),
    ])
    def test_repeated_operating_point(self, tiny_raw, grids, index):
        tiny_raw["simulation"]["curves"] = [{"modulation": "qpsk", "ebn0_db": grid}
                                            for grid in grids]
        with pytest.raises(ConfigConstraintError,
                           match=rf"simulation\.curves\[{index}\]\.ebn0_db"):
            parse_config(tiny_raw)

    @pytest.mark.parametrize("edit, where", [
        (lambda sim: sim["curves"][0].update(ebn0_db=[]), "simulation.curves[0].ebn0_db"),
        (lambda sim: sim.update(curves=[]), "simulation.curves"),
    ], ids=["empty_grid", "no_curves"])
    def test_empty_curve_lists(self, tiny_raw, edit, where):
        edit(tiny_raw["simulation"])
        with pytest.raises(ConfigSchemaError, match=re.escape(where) + ":"):
            parse_config(tiny_raw)

    def test_manifest_may_take_a_free_output_name(self, tiny_raw):
        tiny_raw["output"] = {"manifest": "snapshots", "csv_prefix": "res"}
        tiny_raw["simulation"]["curves"].append({"modulation": "qam16", "ebn0_db": [4.0]})
        assert parse_config(tiny_raw).csv_names() == {"qpsk": "res_qpsk.csv",
                                                      "qam16": "res_qam16.csv"}

    # each edit of the tiny config's text, and the section or key its error names
    @pytest.mark.parametrize("old, new, where", [
        ("device:\n", "output:\ndevice:\n", "output: expected dict"),
        ("3.0e+8", "1" + "0" * 400, "geometry.carrier_frequency_hz"),
        ("[4.0]", "[1" + "0" * 400 + "]", "simulation.curves[0].ebn0_db"),
        ("[ac, pc]", "[ac, pc]\n  gain_bounds_db: [-1, 1" + "0" * 400 + "]",
         "device.gain_bounds_db"),
        ("[ac, pc]", "[ac, pc]\n  foo: 1\n  2: 3", "device: unknown keys [2, 'foo']"),
        ("device:", "foo: 1\n2: 3\ndevice:", "config: unknown sections [2, 'foo']"),
        ("[4.0]", "[4.0]\n      foo: 1\n      2: 3",
         "simulation.curves[0]: unknown keys [2, 'foo']"),
        ("master_seed: 7", "master_seed: 1" + "0" * 4400, "'master_seed': Exceeds the limit"),
        ("[4.0]", "[1" + "0" * 4400 + "]", "'ebn0_db': Exceeds the limit"),
        ("n_trials: 2", "n_trials: 100\n  n_trials: 3", "duplicate key 'n_trials'"),
        # total_power is omitted, so it takes n_users, which is too large for it
        ("n_users: 2", "n_users: 1" + "0" * 400,
         "simulation.n_users: integer too large for a float"),
    ], ids=["null_section", "huge_float", "huge_ebn0_db", "huge_gain_bounds_db",
            "mixed_unknown_keys", "mixed_unknown_sections", "mixed_curve_keys",
            "long_int", "long_int_in_list", "duplicate_key", "huge_n_users"])
    def test_malformed_text_names_its_key(self, tmp_path, capsys, tiny_config_text,
                                          old, new, where):
        p = tmp_path / "bad.yaml"
        p.write_text(tiny_config_text.replace(old, new, 1))
        with pytest.raises(ConfigSchemaError, match=re.escape(where)):
            load_config(p)
        assert main(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and where in err

    def test_duplicate_key_names_its_line(self, tmp_path, tiny_config_text):
        p = tmp_path / "bad.yaml"
        p.write_text(tiny_config_text.replace("  n_users: 2\n", "  n_users: 2\n  n_users: 2\n"))
        line = p.read_text().splitlines().index("  n_users: 2") + 2
        with pytest.raises(ConfigSchemaError, match=f"duplicate key 'n_users'.* line {line},"):
            load_config(p)

    def test_merge_key_keeps_its_override(self, tmp_path, tiny_config_text):
        p = tmp_path / "merge.yaml"
        p.write_text(tiny_config_text.replace(
            "    - modulation: qpsk\n", "    - &qpsk\n      modulation: qpsk\n") +
            "    - <<: *qpsk\n      modulation: qam16\n")
        assert load_config(p).simulation.curves == (CurveSpec("qpsk", (4.0,)),
                                                     CurveSpec("qam16", (4.0,)))

    @pytest.mark.parametrize("text, message", [
        ("geometry:\n  ? [a, b]\n  : 1\n", "found unhashable key"),
        (b"geometry:\n  n_antennas: \xff\n", "invalid start byte"),
        ("[" * 3000, "recursion"),
    ], ids=["unhashable_key", "not_utf8", "deep_nesting"])
    def test_unparsable_file(self, tmp_path, text, message):
        p = tmp_path / "bad.yaml"
        (p.write_bytes if isinstance(text, bytes) else p.write_text)(text)
        with pytest.raises(ConfigSchemaError, match=message):
            load_config(p)


# Any value in place of one to three sections, keys or curve fields of the
# tiny config, or the key deleted: parse_config returns a config that hashes,
# or raises a ConfigError. Ints reach past Python's 4300-digit print limit,
# as values and as keys.
_HUGE_INTS = st.integers(10 ** 4300, 10 ** 4400) | st.integers(-10 ** 4400, -10 ** 4300)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.integers(2 ** 1024, 10 ** 400), st.integers(-10 ** 400, -2 ** 1024),
                     _HUGE_INTS, st.text(max_size=4))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
    st.one_of(st.text(max_size=4), st.integers(), _HUGE_INTS, st.none()), inner, max_size=3),
    max_leaves=6)
_PATHS = ([(f.name,) for f in fields(ExperimentConfig)]
          + [(f.name, g.name) for f in fields(ExperimentConfig) for g in fields(f.type)]
          + [("simulation", "curves", 0, key) for key in ("modulation", "ebn0_db")])
_DELETE = object()      # an edit that deletes its key


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(_PATHS), _VALUES | st.just(_DELETE)),
                      min_size=1, max_size=3))
def test_parse_config_only_raises_config_errors(tiny_config_text, edits):
    raw = yaml.safe_load(tiny_config_text)
    for path, value in sorted(edits, key=lambda e: -len(e[0])):   # deepest first
        node = raw
        for step in path[:-1]:
            node = node.setdefault(step, {}) if isinstance(node, dict) else node[step]
        if value is _DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    assert len(cfg.sha256()) == 64       # a config that loads can be written out


class TestSchema:
    def test_omitted_keys_take_dataclass_defaults(self):
        raw = {"geometry": {"n_antennas": 2, "n_layers": 2, "layer_cells": [4, 4],
                            "carrier_frequency_hz": 3.0e8},
               "device": {"layer_kinds": ["ac", "pc"]},
               "simulation": {"n_users": 2,
                              "curves": [{"modulation": "qpsk", "ebn0_db": [4.0]}]}}
        cfg = parse_config(raw)
        assert cfg.geometry == SimGeometry(n_antennas=2, n_layers=2, layer_cells=(4, 4),
                                           carrier_frequency_hz=3.0e8)
        assert cfg.device == DeviceConfig(layer_kinds=("ac", "pc"))
        assert cfg.training == TrainingConfig()
        assert cfg.fitting == FitConfig()
        assert cfg.simulation == SimulationSection(
            n_users=2, curves=(CurveSpec("qpsk", (4.0,)),))
        assert cfg.output == OutputSection()

    def test_dump_lists_dataclass_fields(self, reference_config):
        dumped = yaml.safe_load(dump_config(reference_config))
        assert list(dumped) == [f.name for f in fields(ExperimentConfig)]
        for section in fields(ExperimentConfig):
            assert list(dumped[section.name]) == [f.name for f in fields(section.type)]


class TestBuiltInCode:
    """A config built or replaced in code is checked exactly as loading checks it."""

    @pytest.mark.parametrize("build, error, key", [
        (lambda c: replace(c, simulation=replace(c.simulation, methods=("no_sim", "bogus"))),
         ValueError, "methods"),
        (lambda c: replace(c, simulation=replace(c.simulation, bits_per_user=1001)),
         ConfigConstraintError, "simulation.bits_per_user"),
        (lambda c: replace(c, device=replace(c.device, layer_kinds=("pc",) * 3)),
         ConfigConstraintError, "device.layer_kinds"),
        (lambda c: replace(c, simulation=replace(c.simulation, n_users=5)),
         ConfigConstraintError, "simulation.n_users"),
        (lambda c: SimGeometry(4, 2, 12, 3e8), ValueError, "layer_cells"),
        (lambda c: DeviceConfig(["pc"], gain_bounds_db=13.0), ValueError, "gain_bounds_db"),
        (lambda c: CurveSpec("qam64", (4.0,)), ValueError, "modulation: unknown modulation"),
        (lambda c: CurveSpec("qpsk", ()), ValueError, "ebn0_db: expected a nonempty list"),
        (lambda c: CurveSpec("qpsk", (True, 2.0)), ValueError, "ebn0_db: expected int/float"),
    ], ids=["methods", "bits_per_user", "layer_kinds", "n_users", "layer_cells",
            "gain_bounds_db", "curve_modulation", "curve_empty_grid", "curve_bool_in_grid"])
    def test_rejected_at_construction(self, tiny_config, build, error, key):
        with pytest.raises(error, match=re.escape(key)):
            build(tiny_config)

    def test_int_for_float_stores_a_float(self, tiny_config, tiny_raw):
        geometry = replace(tiny_config.geometry, antenna_spacing_wl=1)
        assert type(geometry.antenna_spacing_wl) is float
        tiny_raw["geometry"]["antenna_spacing_wl"] = 1.0
        assert replace(tiny_config, geometry=geometry).sha256() == \
            parse_config(tiny_raw).sha256()

    # Python prints no int of more than 4300 digits, nor a list nested
    # 100000 deep; YAML refuses such a literal, a dict built in code can hold one
    @pytest.mark.parametrize("edit, where", [
        (lambda raw: raw.update(output=_HUGE), "output: expected dict"),
        (lambda raw: raw.update(output={_HUGE: 1}), "output: unknown keys"),
        (lambda raw: raw.update({_HUGE: 1}), "config: unknown sections"),
        (lambda raw: raw.update(output={"csv_prefix": _HUGE}), "output.csv_prefix:"),
        (lambda raw: raw["simulation"].update(n_trials=-_HUGE), "simulation.n_trials:"),
        (lambda raw: raw["device"].update(layer_kinds=[_HUGE, "pc"]), "device.layer_kinds:"),
        (lambda raw: raw["simulation"].update(methods=[_HUGE]), "simulation.methods:"),
        (lambda raw: raw["simulation"].update(n_users=_HUGE), "simulation.n_users:"),
        (lambda raw: raw["simulation"].update(master_seed=_HUGE), "simulation.master_seed:"),
        (lambda raw: raw["geometry"].update(layer_cells=[_HUGE, 4]), "geometry.layer_cells:"),
        (lambda raw: raw["simulation"]["curves"][0].update({_HUGE: 1}),
         "simulation.curves[0]: unknown keys"),
        (lambda raw: raw.update(output=functools.reduce(lambda d, _: [d], range(10 ** 5), [])),
         "output: expected dict"),
    ], ids=["section", "key_in_section", "top_level_key", "str_key", "negative_int",
            "layer_kind", "method", "n_users", "master_seed", "layer_cells", "curve_key",
            "deep_list"])
    def test_unprintable_value_names_its_key(self, tiny_raw, edit, where):
        edit(tiny_raw)
        with pytest.raises(ConfigSchemaError, match=re.escape(where)):
            parse_config(tiny_raw)

    # a null is not a value, not even where omitting the key takes a default;
    # a curve entry follows the key rules of a section
    @pytest.mark.parametrize("section, key", [
        ("simulation", "total_power"), ("simulation", "n_users"),
        ("device", "gain_bounds_db"), ("output", "snapshots"),
        ("simulation.curves[0]", "modulation"),
    ])
    def test_explicit_null_rejected(self, tiny_raw, section, key):
        node = (tiny_raw["simulation"]["curves"][0] if section == "simulation.curves[0]"
                else tiny_raw.setdefault(section, {}))
        node[key] = None
        with pytest.raises(ConfigSchemaError,
                           match=re.escape(f"{section}.{key}: null is not a value")):
            parse_config(tiny_raw)


class TestRoundTrip:
    def test_dump_load_fixed_point(self, reference_config):
        text = dump_config(reference_config)
        again = parse_config(yaml.safe_load(text))
        assert again == reference_config
        assert dump_config(again) == text

    def test_sha_is_stable_and_sensitive(self, reference_config, tiny_config):
        assert reference_config.sha256() == reference_config.sha256()
        assert len(reference_config.sha256()) == 64
        assert reference_config.sha256() != tiny_config.sha256()


class TestCli:
    def test_validate_ok(self, capsys):
        rc = main(["validate", str(bundled_config_path())])
        assert rc == 0
        out = capsys.readouterr().out
        assert "master_seed: 20260817" in out
        assert "# sha256:" in out

    def test_module_entry_point_runs_without_warning(self):
        # `python -m simstack.cli` warns if importing the package already
        # imported the cli module
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["simstack"].__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "simstack.cli", "validate", str(bundled_config_path())],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "# sha256:" in proc.stdout

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("geometry: {}\n")
        rc = main(["validate", str(p)])
        assert rc == 2
        assert "invalid" in capsys.readouterr().err

    def test_run_missing_config(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.yaml"), "--workers", "1",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["run", "demo"])
    def test_run_rejects_out_dir_that_is_a_file(self, tmp_path, tiny_config_text, capsys,
                                                command):
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(tiny_config_text)
        taken = tmp_path / "taken"
        taken.write_text("")
        args = [command] + ([str(cfg_path)] if command == "run" else [])
        rc = main(args + ["--workers", "1", "--trials", "1", "--out-dir", str(taken)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write results to {taken}: ") and err.count("\n") == 1
        assert taken.read_text() == ""

    @pytest.mark.parametrize("flag, value, key", [
        ("--trials", "0", "simulation.n_trials"),
        ("--seed", "-1", "simulation.master_seed"),
    ])
    def test_run_rejects_out_of_range_override(self, tmp_path, tiny_config_text, capsys,
                                               flag, value, key):
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(tiny_config_text)
        rc = main(["run", str(cfg_path), "--workers", "1",
                   "--out-dir", str(tmp_path / "out"), flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err

    @pytest.mark.parametrize("command", ["run", "demo"])
    @pytest.mark.parametrize("affinity, workers", [({1}, 1), (None, 64)])
    def test_worker_default_counts_usable_cpus(self, tmp_path, tiny_config_text,
                                               monkeypatch, command, affinity, workers):
        # cpu_count() counts CPUs the affinity mask may exclude
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        seen = []

        def fake_run(cfg, out_dir, workers):
            seen.append(workers)
            return {"outputs": [], "manifest": "manifest.json", "n_failed": 0}
        monkeypatch.setattr(cli, "run_experiment", fake_run)
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(tiny_config_text)
        args = [command] + ([str(cfg_path)] if command == "run" else [])
        assert main(args + ["--out-dir", str(tmp_path / "out")]) == 0
        assert seen == [workers]

    @pytest.mark.parametrize("command, out_dir", [("run", "runs/tiny"), ("demo", "runs/demo")],
                             ids=["run", "demo"])
    def test_run_defaults(self, tmp_path, tiny_config_text, monkeypatch, command, out_dir):
        # demo runs 2 of the bundled config's 100 trials; run keeps the tiny
        # config's 2 and names its directory after the config
        seen = []

        def fake_run(cfg, out_dir, workers):
            seen.append((cfg.simulation.n_trials, out_dir))
            return {"outputs": [], "manifest": "manifest.json", "n_failed": 0}
        monkeypatch.setattr(cli, "run_experiment", fake_run)
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(tiny_config_text)
        args = [command] + ([str(cfg_path)] if command == "run" else [])
        assert main(args + ["--workers", "1"]) == 0
        assert seen == [(2, out_dir)]

    @pytest.mark.parametrize("command", ["run", "demo"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_run_rejects_bad_worker_count(self, tmp_path, tiny_config_text, capsys,
                                          command, workers):
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(tiny_config_text)
        args = [command] + ([str(cfg_path)] if command == "run" else [])
        rc = main(args + ["--workers", workers, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--workers" in err and workers in err
        assert not (tmp_path / "out").exists()

    def test_gradcheck_passes(self, capsys):
        rc = main(["gradcheck"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    @pytest.mark.parametrize("argv, seed", [([], 7), (["--seed", "0"], 0),
                                            (["--seed", "3"], 3)])
    def test_gradcheck_runs_the_given_seed(self, monkeypatch, capsys, argv, seed):
        seen = []

        def check(step, seed):
            seen.append(seed)
            return {"n_parameters": 1, "device": 0.0, "precoder": 0.0}

        monkeypatch.setattr(cli, "finite_difference_check", check)
        assert main(["gradcheck"] + argv) == 0
        assert seen == [seed]

    def test_gradcheck_rejects_negative_seed(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "finite_difference_check", None)   # must not run
        assert main(["gradcheck", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "--seed" in err and "-1" in err

    @pytest.mark.parametrize("step", ["0", "-0.5", "inf", "nan"])
    def test_gradcheck_rejects_bad_step(self, monkeypatch, capsys, step):
        monkeypatch.setattr(cli, "finite_difference_check", None)   # must not run
        assert main(["gradcheck", "--step", step]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "--step" in err

    def test_gradcheck_fails_above_tolerance(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "finite_difference_check", lambda step, seed: {
            "n_parameters": 1, "device": 1e-3, "precoder": 0.0})
        assert main(["gradcheck"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL (tolerance 1e-05)"

    def test_run_whose_trials_all_fail_exits_1(self, tmp_path, tiny_config_text, capsys,
                                              monkeypatch):
        def boom(cfg, index, seed):
            raise FloatingPointError("non-finite loss at evaluation 0")
        monkeypatch.setattr(experiment, "run_trial", boom)
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(tiny_config_text)
        rc = main(["run", str(cfg_path), "--workers", "1", "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("experiment failed: all 2 trials failed") and err.count("\n") == 1

    def test_run_notes_a_tolerated_failure(self, tmp_path, tiny_config_text, capsys,
                                           monkeypatch):
        real = experiment.run_trial

        def flaky(cfg, index, seed):
            if index == 0:
                raise FloatingPointError("non-finite loss at evaluation 0")
            return real(cfg, index, seed)
        monkeypatch.setattr(experiment, "run_trial", flaky)
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(tiny_config_text.replace(
            "  n_trials: 2\n", "  n_trials: 2\n  max_failed_fraction: 0.5\n"))
        rc = main(["run", str(cfg_path), "--workers", "1", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "note: 1 trial(s) failed and were excluded"

    def test_run_tiny_config(self, tmp_path, tiny_config_text, capsys):
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(tiny_config_text)
        out_dir = tmp_path / "results"
        rc = main(["run", str(cfg_path), "--workers", "1",
                   "--out-dir", str(out_dir), "--trials", "1"])
        assert rc == 0
        csv = out_dir / "ber_qpsk.csv"
        assert csv.exists()
        assert (out_dir / "manifest.json").exists()
        rows = read_ber_csv(csv)
        assert {r["method"] for r in rows} == {"no_sim", "model_based",
                                               "data_driven"}
        # 1 trial x 2 users x 400 bits
        assert all(r["bits"] == 800 for r in rows)
        out = capsys.readouterr().out
        assert "ber_qpsk.csv" in out

    def test_seed_override_changes_output(self, tmp_path, tiny_config_text):
        cfg_path = tmp_path / "tiny.yaml"
        cfg_path.write_text(tiny_config_text)
        counts = {}
        for seed in ("7", "8"):
            out_dir = tmp_path / f"run{seed}"
            rc = main(["run", str(cfg_path), "--workers", "1", "--seed", seed,
                       "--out-dir", str(out_dir), "--trials", "1"])
            assert rc == 0
            rows = read_ber_csv(out_dir / "ber_qpsk.csv")
            counts[seed] = [(r["method"], r["errors"]) for r in rows]
        assert counts["7"] != counts["8"]
