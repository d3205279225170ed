"""Command-line entry point.

Subcommands:
  run <config>     run the experiment a config describes
  validate <config>  load and validate, print the resolved config
  gradcheck        finite-difference check of every trainable gradient
  demo             bundled reference config at a reduced trial count

Flags --seed / --trials override the config's master seed and trial count;
--workers sizes the process pool (default: the CPUs this process may use),
capped at the trial count; one worker runs in-process without a pool, and
every trial runs on one BLAS thread; --out-dir picks the result directory.
"""

import argparse
import math
import sys
from importlib import resources
from pathlib import Path

from .config import ConfigError, bundled_config_path, dump_config, load_config, parse_config
from .experiment import ExperimentError, read_ber_csv, run_experiment, usable_cpus
from .training import finite_difference_check

GRADCHECK_TOLERANCE = 1e-5


def _apply_overrides(cfg, seed=None, trials=None):
    raw = cfg.to_dict()
    for key, value in (("master_seed", seed), ("n_trials", trials)):
        if value is not None:
            raw["simulation"][key] = value
    return parse_config(raw)


def _print_results(summary):
    for path in summary["outputs"]:
        print(f"wrote {path}")
        for row in read_ber_csv(path):
            print(f"  {row['method']:>12s}  Eb/N0 {row['ebn0_db']:5.1f} dB   "
                  f"BER {row['ber']:.3e}  ({row['errors']}/{row['bits']})")
    print(f"wrote {summary['manifest']}")
    if summary["n_failed"]:
        print(f"note: {summary['n_failed']} trial(s) failed and were excluded")


def _cmd_run(args, config_path, default_out, trials_default=None):
    if args.workers < 1:
        print(f"usage error: --workers must be at least 1, got {args.workers}",
              file=sys.stderr)
        return 2
    trials = args.trials if args.trials is not None else trials_default
    try:
        cfg = _apply_overrides(load_config(config_path), seed=args.seed, trials=trials)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out_dir or default_out
    try:
        summary = run_experiment(cfg, out_dir, workers=args.workers)
    except ExperimentError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:            # the result directory cannot be made or written
        print(f"cannot write results to {out_dir}: {exc}", file=sys.stderr)
        return 2
    _print_results(summary)
    return 0


def _cmd_validate(args):
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print(dump_config(cfg), end="")
    print(f"# sha256: {cfg.sha256()}")
    return 0


def _cmd_gradcheck(args):
    if args.seed < 0:
        print(f"usage error: --seed must be at least 0, got {args.seed}", file=sys.stderr)
        return 2
    if not 0 < args.step < math.inf:
        print(f"usage error: --step must be positive and finite, got {args.step}",
              file=sys.stderr)
        return 2
    result = finite_difference_check(step=args.step, seed=args.seed)
    print(f"parameters checked: {result['n_parameters']}")
    print(f"max relative error, device params:   {result['device']:.3e}")
    print(f"max relative error, precoder params: {result['precoder']:.3e}")
    worst = max(result["device"], result["precoder"])
    if worst < GRADCHECK_TOLERANCE:
        print(f"PASS (tolerance {GRADCHECK_TOLERANCE:g})")
        return 0
    print(f"FAIL (tolerance {GRADCHECK_TOLERANCE:g})")
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="simstack",
        description="Multi-user MIMO downlink through a trainable stacked "
                    "metasurface: BER experiments, synthesis, training.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--workers", type=int, default=usable_cpus(),
                       help="parallel trial workers, at most one per trial, each trial on "
                            "one BLAS thread; 1 runs in-process (default: the CPUs this "
                            "process may use)")
        p.add_argument("--out-dir", default=None, help="result directory")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    add_common(p_run)

    p_val = sub.add_parser("validate", help="validate a config and print it resolved")
    p_val.add_argument("config")

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference check of analytic gradients")
    p_grad.add_argument("--step", type=float, default=1e-4, help="positive and finite")
    p_grad.add_argument("--seed", type=int, default=7)

    p_demo = sub.add_parser("demo",
                            help="run the bundled reference config (few trials)")
    add_common(p_demo)

    args = parser.parse_args(argv)
    if args.command == "run":
        stem = Path(args.config).stem
        return _cmd_run(args, args.config, default_out=f"runs/{stem}")
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "gradcheck":
        return _cmd_gradcheck(args)
    if args.command == "demo":
        with resources.as_file(bundled_config_path()) as path:
            return _cmd_run(args, path, default_out="runs/demo", trials_default=2)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
