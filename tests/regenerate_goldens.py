"""Regenerate the golden outputs in tests/goldens/ and print which files
changed.

    python3 tests/regenerate_goldens.py

It runs tests/goldens/tiny6.yaml in one process and writes the BER CSVs,
the manifest's fit fields (fit.json) and the numpy and BLAS build they
came from (build.json). tests/test_goldens.py compares a fresh run with
these files byte for byte.

Run it only in a change that is meant to move results, and record in
CHANGES.md which numbers moved and why.
"""

import ctypes
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "goldens"
CONFIG = GOLDEN_DIR / "tiny6.yaml"
FIT_FIELDS = ("fit_residual_mean", "fit_residual_max", "n_fit_not_converged")


def _openblas_core():
    """The kernel family OpenBLAS picked for this CPU, or None when numpy's
    BLAS is not a bundled OpenBLAS that reports one."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                return getter().decode()
    return None


def blas_build():
    """numpy version and BLAS build: the bits of a result depend on them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_core": _openblas_core()}


def golden_outputs(out_dir):
    """File name -> bytes of every compared golden file, from a fresh run of
    the golden config into out_dir."""
    from simstack.config import load_config
    from simstack.experiment import run_experiment
    summary = run_experiment(load_config(CONFIG), out_dir, workers=1)
    files = {Path(p).name: Path(p).read_bytes() for p in summary["outputs"]}
    manifest = json.loads(Path(summary["manifest"]).read_text())
    fit = {name: manifest[name] for name in FIT_FIELDS}
    files["fit.json"] = (json.dumps(fit, indent=2) + "\n").encode()
    return files


def main():
    with tempfile.TemporaryDirectory() as tmp:
        files = golden_outputs(tmp)
    files["build.json"] = (json.dumps(blas_build(), indent=2) + "\n").encode()
    changed = []
    for name, data in files.items():
        path = GOLDEN_DIR / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            changed.append(name)
    print("changed: " + ", ".join(changed) if changed else "no golden file changed")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    main()
