"""Byte-for-byte comparison with the committed golden outputs of
tests/goldens/tiny6.yaml: both BER CSVs and the manifest's fit fields.

The bits depend on the numpy and BLAS build (summation order differs
between BLAS kernels), so the goldens are compared only on the build
recorded in tests/goldens/build.json. On any other build the test is
skipped with a message that names both builds; regenerating the goldens
there with tests/regenerate_goldens.py makes it compare again.
"""

import json

import pytest

from regenerate_goldens import GOLDEN_DIR, blas_build, golden_outputs


def test_tiny_config_matches_goldens(tmp_path):
    recorded = json.loads((GOLDEN_DIR / "build.json").read_text())
    here = blas_build()
    if here != recorded:
        pytest.skip(f"goldens were made on {recorded}, this build is {here}")
    files = golden_outputs(tmp_path)
    assert sorted(files) == ["ber_qam16.csv", "ber_qpsk.csv", "fit.json"]
    for name, data in files.items():
        assert data == (GOLDEN_DIR / name).read_bytes(), f"{name} moved"
