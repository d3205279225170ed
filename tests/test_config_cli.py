import math
import os
import subprocess
import sys
from dataclasses import fields

import pytest
import yaml

from simstack import cli
from simstack.cli import bundled_config_path, main
from simstack.config import (ConfigConstraintError, ConfigFileError,
                             ConfigSchemaError, CurveSpec, ExperimentConfig,
                             OutputSection, SimulationSection, dump_config,
                             load_config, parse_config)
from simstack.design import FitConfig
from simstack.device import DeviceConfig, SimDevice
from simstack.experiment import read_ber_csv
from simstack.geometry import SimGeometry
from simstack.training import TrainingConfig


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

    def test_wrong_type(self, tiny_raw):
        tiny_raw["geometry"]["n_antennas"] = "four"
        with pytest.raises(ConfigSchemaError, match="n_antennas"):
            parse_config(tiny_raw)

    def test_missing_required_section(self, tiny_raw):
        del tiny_raw["geometry"]
        with pytest.raises(ConfigSchemaError, match="geometry"):
            parse_config(tiny_raw)

    def test_missing_required_key(self, tiny_raw):
        del tiny_raw["simulation"]["curves"]
        with pytest.raises(ConfigSchemaError, match="curves"):
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

    def test_manifest_may_take_a_free_output_name(self, tiny_raw):
        tiny_raw["output"] = {"manifest": "snapshots", "csv_prefix": "res"}
        tiny_raw["simulation"]["curves"].append({"modulation": "qam16", "ebn0_db": [4.0]})
        assert parse_config(tiny_raw).csv_names() == {"qpsk": "res_qpsk.csv",
                                                      "qam16": "res_qam16.csv"}


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
