"""Byte-for-byte comparison with the committed golden outputs in
tests/goldens/: the BER CSVs and the manifest's fit fields of the tiny6
and reference1 configs, one `train` call at the reference geometry, and
`finite_difference_check()`. tests/regenerate_goldens.py says what each
file holds.

The bits depend on the numpy and BLAS build (summation order differs
between BLAS kernels), so the goldens are compared only on the build
recorded in tests/goldens/build.json. On any other build the tests are
skipped with a message that names both builds; regenerating the goldens
there with tests/regenerate_goldens.py makes them compare again.
"""

import json

import pytest

from regenerate_goldens import (GOLDEN_DIR, blas_build, gradcheck_outputs, run_outputs,
                                train_outputs)


@pytest.fixture(autouse=True)
def recorded_build():
    recorded = json.loads((GOLDEN_DIR / "build.json").read_text())
    here = blas_build()
    if here != recorded:
        pytest.skip(f"goldens were made on {recorded}, this build is {here}")


def _assert_golden(files, expected):
    assert sorted(files) == expected
    for name, data in files.items():
        assert data == (GOLDEN_DIR / name).read_bytes(), f"{name} moved"


def test_tiny_config_matches_goldens(tmp_path):
    _assert_golden(run_outputs("tiny6", tmp_path),
                   ["tiny6/ber_qam16.csv", "tiny6/ber_qpsk.csv", "tiny6/fit.json"])


def test_reference_trial_matches_goldens(tmp_path):
    _assert_golden(run_outputs("reference1", tmp_path),
                   ["reference1/ber_qam16.csv", "reference1/ber_qpsk.csv",
                    "reference1/fit.json"])


def test_reference_training_matches_goldens():
    _assert_golden(train_outputs(), ["reference1/train.json"])


def test_finite_difference_check_matches_goldens():
    _assert_golden(gradcheck_outputs(), ["gradcheck.json"])
