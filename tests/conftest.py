import numpy as np
import pytest

from simstack.config import bundled_config_path, load_config
from simstack.geometry import SimGeometry

TINY_CONFIG = """\
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
      ebn0_db: [4.0]
"""


@pytest.fixture(scope="session")
def small_geometry():
    # unit wavelength, half-wavelength spacings, three 4x4 layers
    return SimGeometry(n_antennas=2, n_layers=3, layer_cells=(4, 4),
                       carrier_frequency_hz=3.0e8, array_to_first_layer_wl=0.5)


@pytest.fixture(scope="session")
def reference_config():
    return load_config(bundled_config_path())


@pytest.fixture(scope="session")
def reference_geometry(reference_config):
    return reference_config.geometry


@pytest.fixture(scope="session")
def tiny_config_text():
    return TINY_CONFIG


@pytest.fixture(scope="session")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.yaml"
    path.write_text(TINY_CONFIG)
    return load_config(path)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
