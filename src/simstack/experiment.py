"""Monte Carlo experiment driver: seeded independent trials, aggregation,
and result serialization.

Seed discipline: one master SeedSequence is split into per-trial sequences
(counter-based, parallel-safe); each trial splits again into fixed-order
streams — channel, direct channel, device init for the fit, then one
(training, noise) pair per operating point. A config therefore pins every
random draw in the run, independent of worker count.

Per trial: one channel realization; the target fit runs once (its target
depends only on the channel); the data-driven system is retrained at every
operating point, whose SNR it tracks. Every method is evaluated on the
same transmitted blocks per point.
"""

import contextlib
import copy
import ctypes
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import SNAPSHOT_DIR
from .design import fit_sim_to_target, svd_target
from .device import SimDevice
from .linklevel import (constellation_for, ebn0_to_noise_variance,
                        generate_channel, link_snr, simulate_block)
from .precoding import effective_channel, mmse_precoder
from .propagation import ForwardOperator, coupling_chain
from .training import train


class ExperimentError(RuntimeError):
    """Too many failed trials for the configured tolerance."""


@dataclass
class TrialRecord:
    index: int
    counts: dict = field(default_factory=dict)   # (method, mod, ebn0) -> (errors, bits)
    fit_residual: float = None
    fit_converged: bool = None
    snapshots: dict = None                       # label -> trained flat parameters
    failed: bool = False
    note: str = ""


def _points(cfg):
    return [(curve.modulation, ebn0)
            for curve in cfg.simulation.curves for ebn0 in curve.ebn0_db]


def run_trial(cfg, index, trial_seed):
    """One channel realization across all methods and operating points."""
    sim = cfg.simulation
    geometry = cfg.geometry
    ws = coupling_chain(geometry)
    k, n = sim.n_users, geometry.n_antennas
    points = _points(cfg)
    streams = copy.copy(trial_seed).spawn(3 + 2 * len(points))    # trial_seed stays as given

    h = generate_channel(geometry.n_cells, k, np.random.default_rng(streams[0]))
    h_direct = generate_channel(n, k, np.random.default_rng(streams[1]))

    record = TrialRecord(index, snapshots={} if cfg.output.snapshots else None)
    # every link is a precoder through a stack response over a channel;
    # no_sim (G = I) and model_based keep one response for the whole trial
    responses = {}
    if "no_sim" in sim.methods:
        responses["no_sim"] = (np.eye(n), h_direct)
    if "model_based" in sim.methods:
        device = SimDevice(geometry.n_cells, cfg.device, np.random.default_rng(streams[2]))
        fit = fit_sim_to_target(ws, device, svd_target(h, n), cfg.fitting)
        record.fit_residual = fit.residual
        record.fit_converged = fit.converged
        responses["model_based"] = (ForwardOperator(ws, device.taus(fit.params)).matrix, h)
        if record.snapshots is not None:
            record.snapshots["model_based"] = fit.params

    for i, (modulation, ebn0) in enumerate(points):
        constellation = constellation_for(modulation)
        sigma2 = ebn0_to_noise_variance(ebn0, constellation)
        snr = link_snr(sim.total_power, k, sigma2)
        links = {method: (mmse_precoder(g, channel, snr, sim.total_power), g, channel)
                 for method, (g, channel) in responses.items()}
        if "data_driven" in sim.methods:
            dd_rng = np.random.default_rng(streams[3 + 2 * i])
            device = SimDevice(geometry.n_cells, cfg.device, dd_rng)
            trained, pre, _ = train(ws, device, h, cfg.training, constellation,
                                    sim.total_power, snr=snr, seed=dd_rng)
            links["data_driven"] = (pre, ForwardOperator(ws, device.taus(trained)).matrix, h)
            if record.snapshots is not None:
                record.snapshots[f"data_driven|{modulation}|{ebn0}"] = trained

        noise_rng = np.random.default_rng(streams[4 + 2 * i])
        for method in sim.methods:
            pre, g, channel = links[method]
            f = effective_channel(pre.matrix, g, channel)
            errors, bits = simulate_block(f, pre.beta, sigma2, constellation,
                                          sim.bits_per_user, noise_rng)
            record.counts[(method, modulation, ebn0)] = (errors, bits)
    return record


def _trial_task(args):
    cfg, index, trial_seed = args
    try:
        return run_trial(cfg, index, trial_seed)
    except Exception as exc:      # a failed trial is recorded, never raised
        return TrialRecord(index, failed=True, note=f"{type(exc).__name__}: {exc}")


def usable_cpus():
    """CPUs this process may run on; os.cpu_count() also counts the rest."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas(stem, restype=ctypes.c_int, argtypes=()):
    """numpy's bundled OpenBLAS function `stem`, under whichever name the
    build exports it, or None when numpy's BLAS is not such a build. Looked
    up once per process: a forked pool worker reuses its parent's lookup
    instead of faulting in the library's symbol tables again (1.1 MB
    resident per worker with scipy-openblas 0.3.31)."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                     f"openblas_{stem}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, list(argtypes)
                return fn
    return None


def _set_blas_threads(n):
    """Set numpy's OpenBLAS to n threads. Returns the count it had, or None
    when numpy's BLAS is not a bundled OpenBLAS."""
    get = _openblas("get_num_threads")
    set_ = _openblas("set_num_threads", None, (ctypes.c_int,))
    if get is None or set_ is None:
        return None
    before = get()
    set_(n)
    return before


@contextlib.contextmanager
def one_blas_thread():
    """Run on one OpenBLAS thread: how a product is split across threads
    changes its summation order, and the reference fit's residual with it.
    Does nothing when numpy's BLAS is not a bundled OpenBLAS."""
    before = _set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            _set_blas_threads(before)


def environment(workers):
    """What a run's bits and speed depend on besides its config."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas("get_corename", ctypes.c_char_p)
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_core": core().decode() if core else None,
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
            "cpus": usable_cpus(), "workers": workers}


def _pool_size(workers, n_trials):
    """The worker count a run uses: at least 1, at most one per trial."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    return min(workers, n_trials)


@one_blas_thread()
def run_trials(cfg, workers=1):
    """Records of every trial, in index order. The pool has at most one
    worker per trial; a single worker runs the trials in-process. Every
    trial runs on one BLAS thread, so the pool is the only parallelism and,
    on numpy's bundled OpenBLAS, the bits do not depend on *_NUM_THREADS."""
    n = cfg.simulation.n_trials
    seeds = np.random.SeedSequence(cfg.simulation.master_seed).spawn(n)
    tasks = [(cfg, i, seeds[i]) for i in range(n)]
    workers = _pool_size(workers, n)
    if workers == 1:
        return [_trial_task(t) for t in tasks]
    # only a pool run loads the multiprocessing stack; a forked pool starts
    # all its workers at the first submit. Each worker pins itself, whatever
    # the start method.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=_set_blas_threads,
                             initargs=(1,)) as pool:
        return list(pool.map(_trial_task, tasks))


def aggregate(records):
    """Pooled error counts: (method, modulation, ebn0) -> (errors, bits).
    Failed trials are excluded."""
    used = [r for r in records if not r.failed]
    if not used:
        raise ValueError("no successful trials to aggregate")
    totals = {}
    for rec in used:
        for key, (errors, bits) in rec.counts.items():
            e0, b0 = totals.get(key, (0, 0))
            totals[key] = (e0 + errors, b0 + bits)
    return totals


def ber_rows(cfg, totals, modulation):
    """CSV rows for one modulation, methods in config order."""
    rows = []
    for curve in cfg.simulation.curves:
        if curve.modulation != modulation:
            continue
        for method in cfg.simulation.methods:
            for ebn0 in curve.ebn0_db:
                errors, bits = totals[(method, modulation, ebn0)]
                ber = errors / bits
                stderr = float(np.sqrt(ber * (1.0 - ber) / bits))
                rows.append((method, float(ebn0), ber, stderr, bits, errors))
    return rows


def write_ber_csv(path, rows, master_seed, config_sha256):
    lines = [f"# master_seed: {master_seed}",
             f"# config_sha256: {config_sha256}",
             "method,ebn0_db,ber,stderr,bits,errors"]
    for method, ebn0, ber, stderr, bits, errors in rows:
        # repr of a builtin float round-trips exactly
        lines.append(f"{method},{float(ebn0)!r},{float(ber)!r},"
                     f"{float(stderr)!r},{int(bits)},{int(errors)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_ber_csv(path):
    """Rows of a results CSV as dicts with numeric fields parsed."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or line.startswith("method,") or not line:
            continue
        method, ebn0, ber, stderr, bits, errors = line.split(",")
        rows.append({"method": method, "ebn0_db": float(ebn0), "ber": float(ber),
                     "stderr": float(stderr), "bits": int(bits), "errors": int(errors)})
    return rows


def run_experiment(cfg, out_dir, workers=1):
    """Run all trials, write one BER CSV per modulation plus a JSON
    manifest. Returns a summary dict; raises ExperimentError when the
    failed-trial fraction exceeds the configured tolerance."""
    workers = _pool_size(workers, cfg.simulation.n_trials)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = run_trials(cfg, workers=workers)
    failed = [r for r in records if r.failed]
    if len(failed) == len(records):
        raise ExperimentError(
            f"all {len(records)} trials failed; first failure: {failed[0].note}")
    totals = aggregate(records)

    sha = cfg.sha256()
    seed = cfg.simulation.master_seed
    outputs = cfg.csv_names()
    for modulation, name in outputs.items():
        write_ber_csv(out_dir / name, ber_rows(cfg, totals, modulation), seed, sha)

    fits = [r for r in records if r.fit_residual is not None]
    residuals = [r.fit_residual for r in fits]
    from . import __version__
    manifest = {
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "master_seed": seed,
        "config_sha256": sha,
        "n_trials": cfg.simulation.n_trials,
        "n_failed": len(failed),
        "failed_notes": [r.note for r in failed],
        "outputs": list(outputs.values()),
        "fit_residual_mean": float(np.mean(residuals)) if residuals else None,
        "fit_residual_max": float(np.max(residuals)) if residuals else None,
        "n_fit_not_converged": sum(not r.fit_converged for r in fits),
        "environment": environment(workers),
        "config": cfg.to_dict(),
    }
    (out_dir / cfg.output.manifest).write_text(json.dumps(manifest, indent=2) + "\n")

    if cfg.output.snapshots:
        _write_snapshots(cfg, out_dir, records)

    frac = len(failed) / cfg.simulation.n_trials
    if frac > cfg.simulation.max_failed_fraction:
        raise ExperimentError(
            f"{len(failed)}/{cfg.simulation.n_trials} trials failed "
            f"(tolerance {cfg.simulation.max_failed_fraction})")
    return {"outputs": [str(out_dir / name) for name in outputs.values()],
            "manifest": str(out_dir / cfg.output.manifest),
            "n_failed": len(failed), "totals": totals}


def _write_snapshots(cfg, out_dir, records):
    snap_dir = out_dir / SNAPSHOT_DIR
    snap_dir.mkdir(exist_ok=True)
    for rec in records:
        if rec.failed or not rec.snapshots:
            continue
        np.savez(snap_dir / f"trial_{rec.index:04d}.npz", **rec.snapshots)
