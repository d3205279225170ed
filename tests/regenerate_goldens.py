"""Regenerate the golden outputs in tests/goldens/ and print which files
changed.

    python3 tests/regenerate_goldens.py

It writes, each from a fresh computation in one process:
  <name>/ber_*.csv, <name>/fit.json
      the BER CSVs and the manifest's fit fields of a run of each golden
      config <name>.yaml: tiny6 (the tiny test geometry, 6 trials) and
      reference1 (one trial at the reference geometry, 150 training and
      fit iterations);
  reference1/train.json
      the first, best and last loss and beta of one `train` call at the
      reference geometry;
  gradcheck.json
      the values `finite_difference_check()` returns;
  build.json
      the numpy and BLAS build they came from.
Everything runs on one BLAS thread. Floats are written by json, that is
as their `repr`, so they round-trip exactly. tests/test_goldens.py compares fresh outputs with these files
byte for byte.

Run it only in a change that is meant to move results, and record in
CHANGES.md which numbers moved and why.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from simstack.config import load_config
from simstack.device import SimDevice
from simstack.experiment import environment, one_blas_thread, run_experiment
from simstack.linklevel import generate_channel, make_constellation
from simstack.propagation import coupling_chain
from simstack.training import finite_difference_check, train

GOLDEN_DIR = HERE / "goldens"
RUN_CONFIGS = ("tiny6", "reference1")
FIT_FIELDS = ("fit_residual_mean", "fit_residual_max", "n_fit_not_converged")
TRAIN_SEED, TRAIN_SNR = 0, 10.0


def blas_build():
    """numpy version and BLAS build: the bits of a result depend on them."""
    env = environment(workers=1)
    return {key: env[key] for key in ("numpy", "blas", "blas_core")}


def _json(obj):
    return (json.dumps(obj, indent=2) + "\n").encode()


def run_outputs(name, out_dir):
    """Golden path -> bytes of the BER CSVs and the manifest's fit fields,
    from a fresh run of goldens/<name>.yaml into out_dir. The run pins
    itself to one BLAS thread."""
    summary = run_experiment(load_config(GOLDEN_DIR / f"{name}.yaml"), out_dir, workers=1)
    files = {f"{name}/{Path(p).name}": Path(p).read_bytes() for p in summary["outputs"]}
    manifest = json.loads(Path(summary["manifest"]).read_text())
    files[f"{name}/fit.json"] = _json({key: manifest[key] for key in FIT_FIELDS})
    return files


@one_blas_thread()
def train_outputs():
    """Golden path -> bytes of one `train` call at the reference geometry:
    a seeded channel and device, the reference1 training section, QPSK at
    link SNR 10."""
    cfg = load_config(GOLDEN_DIR / "reference1.yaml")
    geometry = cfg.geometry
    rng = np.random.default_rng(TRAIN_SEED)
    h = generate_channel(geometry.n_cells, cfg.simulation.n_users, rng)
    device = SimDevice(geometry.n_cells, cfg.device, rng)
    _, pre, report = train(coupling_chain(geometry), device, h, cfg.training,
                           make_constellation(4), cfg.simulation.total_power,
                           snr=TRAIN_SNR, seed=rng)
    losses = report.losses
    return {"reference1/train.json": _json({
        "first_loss": losses[0], "best_loss": min(losses), "last_loss": losses[-1],
        "beta": pre.beta})}


@one_blas_thread()
def gradcheck_outputs():
    return {"gradcheck.json": _json(finite_difference_check())}


def golden_outputs(tmp_dir):
    """Golden path -> bytes of every compared golden file, runs written
    under tmp_dir."""
    files = {}
    for name in RUN_CONFIGS:
        files.update(run_outputs(name, Path(tmp_dir) / name))
    files.update(train_outputs())
    files.update(gradcheck_outputs())
    return files


def main():
    with tempfile.TemporaryDirectory() as tmp:
        files = golden_outputs(tmp)
    files["build.json"] = _json(blas_build())
    changed = []
    for name, data in files.items():
        path = GOLDEN_DIR / name
        if not path.exists() or path.read_bytes() != data:
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(data)
            changed.append(name)
    print("changed: " + ", ".join(changed) if changed else "no golden file changed")


if __name__ == "__main__":
    main()
