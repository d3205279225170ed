import json
import os
import platform
import subprocess
import sys
from pathlib import Path

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

    def test_reuses_its_seed_unchanged(self, tiny_config):
        # run_trial derives its streams without spawning from the caller's seed
        seed = _seed(5)[0]
        a = run_trial(tiny_config, 0, seed)
        b = run_trial(tiny_config, 0, seed)
        assert seed.n_children_spawned == 0
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
        for workers in (2, 8):
            pooled = run_experiment(tiny_config, tmp_path / f"pooled{workers}",
                                    workers=workers)
            assert serial["totals"] == pooled["totals"]
            assert [Path(p).read_bytes() for p in serial["outputs"]] == \
                [Path(p).read_bytes() for p in pooled["outputs"]]
            # the pool never outnumbers the 2 trials
            manifest = json.loads(Path(pooled["manifest"]).read_text())
            assert manifest["environment"]["workers"] == 2

    def test_one_trial_runs_without_a_pool(self, tiny_config, tmp_path, monkeypatch):
        import dataclasses
        cfg = dataclasses.replace(
            tiny_config, simulation=dataclasses.replace(tiny_config.simulation, n_trials=1))
        # a pool would fail to import
        monkeypatch.setitem(sys.modules, "concurrent.futures", None)
        summary = run_experiment(cfg, tmp_path / "out", workers=4)
        manifest = json.loads(Path(summary["manifest"]).read_text())
        assert summary["n_failed"] == 0
        assert manifest["environment"]["workers"] == 1

    def test_manifest_records_environment(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        summary = run_experiment(tiny_config, tmp_path / "out", workers=2)
        env = json.loads(Path(summary["manifest"]).read_text())["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env == {"python": platform.python_version(), "numpy": np.__version__,
                       "blas": f"{blas['name']} {blas['version']}",
                       "blas_core": env["blas_core"],
                       "threads": {**env["threads"], "OMP_NUM_THREADS": "1"},
                       "cpus": experiment.usable_cpus(), "workers": 2}
        assert "OPENBLAS_NUM_THREADS" not in env["threads"]
        # the OpenBLAS kernel is recorded exactly when numpy bundles OpenBLAS
        if experiment._openblas("get_num_threads") is None:
            assert env["blas_core"] is None
        else:
            assert isinstance(env["blas_core"], str) and env["blas_core"]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected_before_writing(self, tiny_config, tmp_path,
                                                             workers):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            run_experiment(tiny_config, out, workers=workers)
        assert not out.exists()

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
        # the first MMSE solve of trial 0 gets a singular system
        import dataclasses
        clean = run_trials(tiny_config, workers=1)
        real = np.linalg.solve
        calls = []

        def singular_first(a, b):
            calls.append(a.shape)
            return real(np.zeros_like(a) if len(calls) == 1 else a, b)
        monkeypatch.setattr(np.linalg, "solve", singular_first)
        records = run_trials(tiny_config, workers=1)
        assert calls[0] == (2, 2)
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


def test_every_trial_runs_on_one_blas_thread(tiny_config, monkeypatch):
    # with the caller at 2 OpenBLAS threads, each trial sees 1, in-process and
    # in each of 2 pool workers; the caller is back at 2 afterwards
    import multiprocessing
    get = experiment._openblas("get_num_threads")
    if get is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("a patched run_trial reaches pool workers only through fork")
    real = run_trial
    barrier = None

    def counting(cfg, index, seed):
        if barrier is not None:
            barrier.wait(timeout=60)     # holds each trial until the other has a worker
        record = real(cfg, index, seed)
        record.note = (os.getpid(), get())
        return record
    monkeypatch.setattr(experiment, "run_trial", counting)
    before = experiment._set_blas_threads(2)
    try:
        serial = run_trials(tiny_config, workers=1)
        after_serial = get()
        barrier = multiprocessing.Barrier(2)
        pooled = run_trials(tiny_config, workers=2)
        after_pooled = get()
    finally:
        experiment._set_blas_threads(before)
    assert not any(r.failed for r in serial + pooled)
    assert [r.note for r in serial] == [(os.getpid(), 1)] * 2
    pids, threads = zip(*(r.note for r in pooled))
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert threads == (1, 1)
    assert (after_serial, after_pooled) == (2, 2)


def test_runtime_imports_no_scipy(tiny_config_text, tmp_path):
    # scipy is a test dependency only: a run and the gradient check in a
    # fresh interpreter must not load it. Start-up (the import, the config
    # load and a coupling chain) loads none of the watched modules; the
    # process-pool stack loads only for a pool run.
    (tmp_path / "tiny.yaml").write_text(tiny_config_text)
    script = """
import json, sys
WATCHED = ("scipy", "concurrent.futures", "multiprocessing", "hashlib", "numpy.random")
def loaded():
    return [w for w in WATCHED if any(m == w or m.startswith(w + ".") for m in sys.modules)]
import simstack
after_import = loaded()
cfg = simstack.load_config("tiny.yaml")
simstack.coupling_chain(cfg.geometry)
after_startup = loaded()
from simstack.training import finite_difference_check
simstack.run_experiment(cfg, "out", workers=1)
finite_difference_check()
print(json.dumps([after_import, after_startup, loaded()]))
"""
    src = Path(experiment.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    after_import, after_startup, after_run = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == after_startup == []
    # the first draw imports numpy.random, whose `secrets` import pulls in
    # hashlib, so the lazy hashlib import keeps OpenSSL out of start-up only
    assert after_run == ["hashlib", "numpy.random"]
