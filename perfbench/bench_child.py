"""Fresh-process half of the benchmark; `run.py` starts it with the BLAS and
OpenMP thread variables pinned, so they take effect before numpy loads.

    python3 perfbench/bench_child.py setup <workload.yaml>
        import simstack, load the config, build the geometry and a cold
        coupling chain; print time.monotonic() when the first trial could
        start.

    python3 perfbench/bench_child.py measure --workload W --seed S
            --seconds T --trace 0|1 --out DIR [--tiny]
        write the workload's YAML, run rounds of `load_config` +
        `run_experiment` (the path of `simstack run`), check every round's
        outputs and print one JSON line of results.

A round is one `run_experiment` call over the workload's trial count.
Round r runs master seed S + r * ROUND_SEED_STRIDE, so a seed fixes every
input of a run; the reference workload keeps its config's master seed in
every round (see WORKLOADS). Untraced runs repeat rounds until the next
one would end after T seconds (at least one round). Traced runs make one
untraced round and then the same round traced, so the per-layer counts
are exact for a seed and the overhead of tracing is measured on identical
work.
"""

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

ROUND_SEED_STRIDE = 1_000_003
# Rounds stop once the next one would end later than this, whatever T is,
# so a run stays well inside its time limit.
MAX_MEASURE_S = 120.0


def _nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


class Workload(NamedTuple):
    trials: int           # trials per round
    workers: int          # pool workers
    sim: dict             # simulation-section overrides
    seeded: bool          # inputs follow --seed; else the config's master_seed


WORKLOADS = {
    # The bundled reference experiment, train ~92 % of a trial. Its inputs
    # stay at the config's master_seed: on other seeds some trials abort
    # the run (a trained precoder with a negative receiver scale, see
    # CHANGES.md), and a benchmark cannot keep a failure that comes and
    # goes with the seed.
    "reference": Workload(1, 1, {}, False),
    # no training: the SVD fit drives propagation through a single device
    "synthesis": Workload(3, 1, {"methods": ("no_sim", "model_based")}, True),
    # link-level Monte Carlo through the process pool; propagation idle
    "ber_sweep": Workload(20, min(2, _nproc()),
                          {"methods": ("no_sim",), "bits_per_user": 100000}, True),
}
# more trials than pool workers, so some worker runs several
TINY_TRIALS = 4

# The tiny test geometry (2 antennas, 2 layers of 4x4 cells) with short
# optimisations and both modulations, for the benchmark's self-test.
TINY_YAML = """\
geometry:
  n_antennas: 2
  n_layers: 2
  layer_cells: [4, 4]
  carrier_frequency_hz: 3.0e+8
  array_to_first_layer_wl: 0.5
device:
  layer_kinds: [ac, pc]
training:
  pilot_symbols: 16
  iterations: 40
  step_size: 0.02
fitting:
  iterations: 60
  step_size: 0.05
simulation:
  n_users: 2
  bits_per_user: 400
  n_trials: 2
  master_seed: 7
  curves:
    - modulation: qpsk
      ebn0_db: [0.0, 4.0]
    - modulation: qam16
      ebn0_db: [0.0, 6.0, 12.0]
"""


def workload_config(name, seed, tiny):
    """The workload's ExperimentConfig: the bundled reference config (or
    the tiny one) with the workload's methods, bit count and trial count."""
    import yaml
    from simstack import cli, config
    if tiny:
        base = config.parse_config(yaml.safe_load(TINY_YAML))
    else:
        base = config.load_config(cli.bundled_config_path())
    w = WORKLOADS[name]
    sim = dataclasses.replace(base.simulation, n_trials=TINY_TRIALS if tiny else w.trials,
                              **w.sim)
    if w.seeded:
        sim = dataclasses.replace(sim, master_seed=seed)
    return dataclasses.replace(base, simulation=sim)


def setup(yaml_path):
    from simstack import config, propagation
    cfg = config.load_config(yaml_path)
    propagation.coupling_chain(cfg.build_geometry())
    print(repr(time.monotonic()))


def _cpu_s():
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                   resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_round(yaml_path, seed, workers, out_dir):
    """`simstack run --seed`: load the YAML, override the seed, run."""
    from simstack import config, experiment
    cfg = config.load_config(yaml_path)
    cfg = dataclasses.replace(cfg, simulation=dataclasses.replace(cfg.simulation,
                                                                  master_seed=seed))
    cpu0, t0 = _cpu_s(), time.perf_counter()
    experiment.run_experiment(cfg, out_dir, workers=workers)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    return {"dir": str(out_dir), "trials": cfg.simulation.n_trials, "wall_s": wall,
            "cpu_s": cpu}


def check_round(workload, out_dir):
    """Output checks of one round: [(name, ok, detail)]."""
    import bench_checks as bc
    from simstack.experiment import read_ber_csv
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    conf, sim = manifest["config"], manifest["config"]["simulation"]
    rows = {name: read_ber_csv(out_dir / name) for name in manifest["outputs"]}
    results = [("no_failed_trials",) + bc.check_no_failures(manifest)]
    for name, rs in rows.items():
        results.append((f"bits[{name}]",) + bc.check_bits(rs, sim["n_trials"], sim["n_users"],
                                                         sim["bits_per_user"]))
    if "model_based" in sim["methods"]:
        results.append(("fit_residual_mean_max",) + bc.check_fit_residuals(
            [manifest["fit_residual_mean"], manifest["fit_residual_max"]]))
    if workload == "ber_sweep":
        prefix = conf["output"]["csv_prefix"]
        expected = bc.qpsk_expectations(conf, bc.direct_channels(conf))
        results.append(("qpsk_exact_ber",) + bc.check_qpsk_exact(
            rows[f"{prefix}_qpsk.csv"], expected))
        results.append(("qam16_ber_falls",) + bc.check_falls(
            rows[f"{prefix}_qam16.csv"], "no_sim", "16-QAM"))
    return results


def environment(workers):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "threads": {k: os.environ.get(k) for k in sorted(os.environ)
                        if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
            "nproc": _nproc(), "workers": workers}


def measure(args):
    from simstack import config, propagation
    import bench_checks as bc
    import bench_trace

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    workers = workload.workers
    cfg = workload_config(args.workload, args.seed, args.tiny)
    seed, stride = cfg.simulation.master_seed, ROUND_SEED_STRIDE if workload.seeded else 0
    yaml_path = out / f"{args.workload}.yaml"
    yaml_path.write_text(config.dump_config(cfg))
    tracer = bench_trace.start() if args.trace else None
    propagation.coupling_chain(config.load_config(yaml_path).build_geometry())

    rounds, checks, info = [], [], {}
    if tracer is None:
        limit = min(args.seconds, MAX_MEASURE_S)
        begin = time.perf_counter()
        while True:
            r = len(rounds)
            rounds.append(run_round(yaml_path, seed + r * stride, workers, out / f"round_{r}"))
            elapsed = time.perf_counter() - begin
            if elapsed * (len(rounds) + 1) / len(rounds) > limit:
                break
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "trials_per_s": statistics.median(r["trials"] / r["wall_s"] for r in rounds),
            "cpu_s_per_trial": statistics.median(r["cpu_s"] / r["trials"] for r in rounds),
            # ru_maxrss is in KiB; pool workers run side by side, so each
            # counts with the largest worker's peak
            "peak_rss_mb": (self_kb + (workers * child_kb if workers > 1 else 0)) / 1024.0,
        }
    else:
        tracer.uninstall()
        rounds.append(run_round(yaml_path, seed, workers, out / "round_0"))
        tracer.install()
        rounds.append(run_round(yaml_path, seed, workers, out / "round_0_traced"))
        tracer.uninstall()
        tracer.write_csv(out / "spans.csv")
        metrics = bench_trace.layer_metrics(tracer.spans)
        untraced, traced = rounds[0]["wall_s"], rounds[1]["wall_s"]
        metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
        info = bench_trace.trace_info(tracer.spans, untraced)
        fits = [s[8]["residual"] for s in tracer.spans if s[3] == "design.fit"]
        if fits:
            checks.append(("fit_residuals",) + bc.check_fit_residuals(fits))
        if args.workload == "reference":
            checks.append(("train_best_below_first",) + bc.check_training_improves(
                [(s[8]["first_loss"], s[8]["best_loss"]) for s in tracer.spans
                 if s[3] == "training.train"]))

    manifests = [json.loads((Path(r["dir"]) / "manifest.json").read_text()) for r in rounds]
    for r in rounds:
        checks.extend(check_round(args.workload, r["dir"]))
    if args.workload in ("reference", "synthesis"):
        from simstack import finite_difference_check
        checks.append(("finite_difference_check",)
                      + bc.check_gradients(finite_difference_check()))
    print(json.dumps({
        "attempted": sum(r["trials"] for r in rounds),
        "failed": sum(m["n_failed"] for m in manifests),
        "rounds": [{k: v for k, v in r.items() if k != "dir"} for r in rounds],
        "metrics": metrics, "checks": checks, "info": info,
        "env": environment(workers)}))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench_child")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("config")
    p_meas = sub.add_parser("measure")
    p_meas.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p_meas.add_argument("--seed", type=int, required=True)
    p_meas.add_argument("--seconds", type=float, required=True)
    p_meas.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_meas.add_argument("--out", required=True)
    p_meas.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.config)
    else:
        measure(args)


if __name__ == "__main__":
    main()
