import json

import numpy as np
import pytest

import simstack.experiment as experiment
from simstack.experiment import (ExperimentError, TrialRecord, aggregate,
                                 ber_rows, read_ber_csv, run_experiment,
                                 run_trial, run_trials, write_ber_csv)
from simstack.training import TrainingDivergenceError


def _seed(master, n=1):
    return np.random.SeedSequence(master).spawn(n)


class TestRunTrial:
    def test_counts_cover_all_points_and_methods(self, tiny_config):
        rec = run_trial(tiny_config, 0, _seed(1)[0])
        assert not rec.failed
        keys = set(rec.counts)
        assert keys == {(m, "qpsk", 4.0) for m in ("no_sim", "model_based",
                                                   "data_driven")}
        for errors, bits in rec.counts.values():
            assert bits == 800
            assert 0 <= errors <= bits
        assert 0 < rec.fit_residual < 1.0
        assert rec.fit_converged is False

    def test_deterministic(self, tiny_config):
        a = run_trial(tiny_config, 0, _seed(5)[0])
        b = run_trial(tiny_config, 0, _seed(5)[0])
        assert a.counts == b.counts
        assert a.fit_residual == b.fit_residual

    def test_seed_sensitivity(self, tiny_config):
        a = run_trial(tiny_config, 0, _seed(5)[0])
        b = run_trial(tiny_config, 0, _seed(6)[0])
        assert a.counts != b.counts

    def test_method_subset(self, tiny_config):
        import dataclasses
        sim = dataclasses.replace(tiny_config.simulation, methods=("no_sim",))
        cfg = dataclasses.replace(tiny_config, simulation=sim)
        rec = run_trial(cfg, 0, _seed(1)[0])
        assert set(rec.counts) == {("no_sim", "qpsk", 4.0)}
        assert rec.fit_residual is None
        assert rec.fit_converged is None


class TestAggregate:
    def test_pools_counts(self):
        key = ("no_sim", "qpsk", 4.0)
        records = [TrialRecord(0, counts={key: (3, 100)}),
                   TrialRecord(1, counts={key: (5, 100)}),
                   TrialRecord(2, failed=True, note="x")]
        totals = aggregate(records)
        assert totals == {key: (8, 200)}

    def test_all_failed_raises(self):
        with pytest.raises(ValueError):
            aggregate([TrialRecord(0, failed=True)])


class TestCsv:
    def test_rows_order_and_stderr(self, tiny_config):
        key = lambda m: (m, "qpsk", 4.0)
        totals = {key("no_sim"): (10, 1000), key("model_based"): (5, 1000),
                  key("data_driven"): (1, 1000)}
        rows = ber_rows(tiny_config, totals, "qpsk")
        assert [r[0] for r in rows] == ["no_sim", "model_based", "data_driven"]
        method, ebn0, ber, stderr, bits, errors = rows[0]
        assert (ebn0, bits, errors) == (4.0, 1000, 10)
        assert ber == pytest.approx(0.01)
        assert stderr == pytest.approx(np.sqrt(0.01 * 0.99 / 1000))

    def test_write_read_exact_round_trip(self, tmp_path):
        rows = [("no_sim", 4.0, 1.0 / 3.0, np.sqrt(2.0) / 977.0, 977, 326)]
        path = tmp_path / "x.csv"
        write_ber_csv(path, rows, master_seed=42, config_sha256="ab" * 32)
        text = path.read_text()
        assert text.startswith("# master_seed: 42\n# config_sha256: " + "ab" * 32)
        back = read_ber_csv(path)
        assert len(back) == 1
        assert back[0]["ber"] == rows[0][2]          # bit-exact through repr
        assert back[0]["stderr"] == rows[0][3]
        assert back[0]["bits"] == 977
        assert back[0]["errors"] == 326


class TestRunExperiment:
    def test_outputs_and_manifest(self, tiny_config, tmp_path):
        summary = run_experiment(tiny_config, tmp_path / "out", workers=1)
        assert summary["n_failed"] == 0
        rows = read_ber_csv(summary["outputs"][0])
        # 2 trials x 2 users x 400 bits pooled
        assert all(r["bits"] == 1600 for r in rows)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert manifest["n_trials"] == 2
        assert manifest["config_sha256"] == tiny_config.sha256()
        assert manifest["outputs"] == ["ber_qpsk.csv"]
        assert 0 < manifest["fit_residual_mean"] <= manifest["fit_residual_max"]
        assert manifest["config"]["simulation"]["master_seed"] == 7

    @pytest.mark.parametrize("tolerance, not_converged", [(0.0, 2), (1e3, 0)])
    def test_manifest_counts_fits_short_of_tolerance(self, tiny_config, tmp_path,
                                                     tolerance, not_converged):
        import dataclasses
        fitting = dataclasses.replace(tiny_config.fitting, iterations=5,
                                      tolerance=tolerance)
        cfg = dataclasses.replace(tiny_config, fitting=fitting)
        run_experiment(cfg, tmp_path / "out", workers=1)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["n_fit_not_converged"] == not_converged

    def test_worker_count_is_immaterial(self, tiny_config, tmp_path):
        serial = run_experiment(tiny_config, tmp_path / "serial", workers=1)
        pooled = run_experiment(tiny_config, tmp_path / "pooled", workers=2)
        assert serial["totals"] == pooled["totals"]

    def test_snapshots_written(self, tiny_config, tmp_path, monkeypatch):
        import dataclasses
        cfg = dataclasses.replace(
            tiny_config,
            simulation=dataclasses.replace(tiny_config.simulation, n_trials=1),
            output=dataclasses.replace(tiny_config.output, snapshots=True))
        returned = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                returned.append(fn(*args, **kwargs))
                return returned[-1]
            return wrapped
        monkeypatch.setattr(experiment, "fit_sim_to_target",
                            recording(experiment.fit_sim_to_target))
        monkeypatch.setattr(experiment, "train", recording(experiment.train))
        run_experiment(cfg, tmp_path / "out", workers=1)
        snap = np.load(tmp_path / "out" / "snapshots" / "trial_0000.npz")
        assert sorted(snap.files) == ["data_driven|qpsk|4.0", "model_based"]
        assert snap["model_based"].shape == (32,)
        fit, (trained, _, _) = returned
        assert np.array_equal(snap["model_based"], fit.params)
        assert np.array_equal(snap["data_driven|qpsk|4.0"], trained)

    def test_all_failures_raise(self, tiny_config, tmp_path, monkeypatch):
        def boom(cfg, index, seed):
            raise TrainingDivergenceError("boom")
        monkeypatch.setattr(experiment, "run_trial", boom)
        with pytest.raises(ExperimentError, match="boom"):
            run_experiment(tiny_config, tmp_path / "out", workers=1)

    def test_partial_failures_exceeding_tolerance_raise(self, tiny_config,
                                                        tmp_path, monkeypatch):
        real = run_trial

        def flaky(cfg, index, seed):
            if index == 0:
                raise TrainingDivergenceError("flaky")
            return real(cfg, index, seed)
        monkeypatch.setattr(experiment, "run_trial", flaky)
        import dataclasses
        sim = dataclasses.replace(tiny_config.simulation, max_failed_fraction=0.0)
        cfg = dataclasses.replace(tiny_config, simulation=sim)
        with pytest.raises(ExperimentError, match="1/2"):
            run_experiment(cfg, tmp_path / "out", workers=1)
        # the surviving trial's results were still written out
        rows = read_ber_csv(tmp_path / "out" / "ber_qpsk.csv")
        assert all(r["bits"] == 800 for r in rows)

    def test_tolerated_failure_recorded_in_manifest(self, tiny_config, tmp_path,
                                                    monkeypatch):
        real = run_trial

        def flaky(cfg, index, seed):
            if index == 0:
                raise TrainingDivergenceError("flaky")
            return real(cfg, index, seed)
        monkeypatch.setattr(experiment, "run_trial", flaky)
        import dataclasses
        sim = dataclasses.replace(tiny_config.simulation, max_failed_fraction=0.5)
        cfg = dataclasses.replace(tiny_config, simulation=sim)
        summary = run_experiment(cfg, tmp_path / "out", workers=1)
        assert summary["n_failed"] == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["n_failed"] == 1
        assert manifest["failed_notes"] == ["TrainingDivergenceError: flaky"]

    def test_any_trial_exception_is_recorded(self, tiny_config, tmp_path, monkeypatch):
        # a zero channel draw makes the SVD target raise DegenerateChannelError
        clean = run_trials(tiny_config, workers=1)
        real = experiment.generate_channel
        draws = []

        def first_draw_zero(q, k, rng):
            draws.append(real(q, k, rng))
            return np.zeros_like(draws[-1]) if len(draws) == 1 else draws[-1]
        monkeypatch.setattr(experiment, "generate_channel", first_draw_zero)
        records = run_trials(tiny_config, workers=1)
        assert records[0].failed
        assert records[0].note.startswith("DegenerateChannelError")
        assert not records[1].failed
        assert records[1].counts == clean[1].counts
        assert records[1].fit_residual == clean[1].fit_residual
        # the failure still counts against the tolerance
        import dataclasses
        sim = dataclasses.replace(tiny_config.simulation, max_failed_fraction=0.0)
        draws.clear()
        with pytest.raises(ExperimentError, match="1/2"):
            run_experiment(dataclasses.replace(tiny_config, simulation=sim),
                           tmp_path / "out", workers=1)

    def test_precoder_linalg_error_is_recorded(self, tiny_config, tmp_path, monkeypatch):
        # the MMSE solve of trial 0 gets a matrix that is not positive
        # definite, so its Cholesky factorisation fails
        import dataclasses
        import scipy.linalg
        clean = run_trials(tiny_config, workers=1)
        real = scipy.linalg.solve
        calls = []

        def indefinite_first(a, b, **kwargs):
            calls.append(kwargs)
            return real(-a if len(calls) == 1 else a, b, **kwargs)
        monkeypatch.setattr(scipy.linalg, "solve", indefinite_first)
        records = run_trials(tiny_config, workers=1)
        assert calls[0] == {"assume_a": "pos"}
        assert records[0].failed
        assert records[0].note.startswith("LinAlgError: ")
        assert records[1].counts == clean[1].counts
        sim = dataclasses.replace(tiny_config.simulation, max_failed_fraction=0.0)
        calls.clear()
        with pytest.raises(ExperimentError, match="1/2"):
            run_experiment(dataclasses.replace(tiny_config, simulation=sim),
                           tmp_path / "out", workers=1)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["n_failed"] == 1
        assert manifest["failed_notes"][0].startswith("LinAlgError: ")


def test_run_trials_spawns_independent_seeds(tiny_config):
    records = run_trials(tiny_config, workers=1)
    assert [r.index for r in records] == [0, 1]
    assert records[0].counts != records[1].counts
