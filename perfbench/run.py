"""simstack benchmark: one command, every workload.

    python3 perfbench/run.py --workload reference|synthesis|ber_sweep
                             [--seed S] [--seconds T] [--trace 0|1] [--tiny]

Run from anywhere; the checkout is the parent of this directory, and the
package is imported from its `src/`. Each run is a fresh process with the
BLAS and OpenMP thread variables pinned to 1 (set here, before numpy is
imported in the child). `--trace 0` measures the end-to-end metrics and
reports `setup_s` as the median of SETUP_PROBES fresh processes; `--trace 1`
is the separate traced run and reports the per-layer metrics. `--tiny`
runs the same paths on the tiny test geometry (self-test only).

The metrics and units printed are those listed in BENCHMARK.json. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Outputs of the last run of each workload stay in .perfbench-out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_child import WORKLOADS  # noqa: E402  (stdlib only at import)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEFAULT_SEED = 20260817       # master_seed of the bundled reference.yaml
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 160.0


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    # no bytecode written into the checkout, so every run compiles the same
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_child(args, env, timeout):
    proc = subprocess.run([sys.executable, str(HERE / "bench_child.py")] + args, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"child {args[0]} exited with {proc.returncode}")
    return lines[-1]


def setup_seconds(yaml_path, env):
    """Spawn to ready of one fresh process; the child reports its ready
    time on the same system-wide monotonic clock."""
    t0 = time.monotonic()
    return float(run_child(["setup", str(yaml_path)], env, 60)) - t0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny test geometry (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "simstack" / "__init__.py").is_file():
        fail(f"no simstack sources under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    name = f"tiny-{args.workload}" if args.tiny else args.workload
    out = ROOT / ".perfbench-out" / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()
    begin = time.monotonic()
    child = ["measure", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    result = json.loads(run_child(child + (["--tiny"] if args.tiny else []), env,
                                  CHILD_TIMEOUT_S))
    values = result["metrics"]
    if not args.trace:
        yaml_path = out / f"{args.workload}.yaml"
        probes = [setup_seconds(yaml_path, env) for _ in range(SETUP_PROBES)]
        values["setup_s"] = statistics.median(probes)
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")

    e = result["env"]
    print(f"workload {args.workload}{' (tiny)' if args.tiny else ''}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  "
          f"wall {time.monotonic() - begin:.1f} s")
    print(f"env: python {e['python']}, numpy {e['numpy']}, scipy {e['scipy']}, "
          f"BLAS {e['blas']}, nproc {e['nproc']}, workers {e['workers']}, "
          + " ".join(f"{k}={v}" for k, v in e["threads"].items()))
    walls = sorted(r["wall_s"] for r in result["rounds"])
    print(f"rounds {len(walls)} of {result['rounds'][0]['trials']} trials, "
          f"run_experiment wall min {walls[0]:.3f} s, median {statistics.median(walls):.3f} s, "
          f"max {walls[-1]:.3f} s")
    print(f"trials attempted {result['attempted']}, failed {result['failed']}")
    checks = {}
    for check, ok, detail in result["checks"]:
        n, all_ok, shown = checks.get(check, (0, True, detail))
        # show the first failure, else the last round's detail
        checks[check] = (n + 1, all_ok and ok, detail if all_ok else shown)
    for check, (n, ok, detail) in checks.items():
        print(f"check {check}: {'PASS' if ok else 'FAIL'} ({n}x)  {detail}")
    for key, value in result["info"].items():
        print(f"info {key} = {value:.6g}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    correct = all(ok for _, ok, _ in result["checks"]) and result["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
