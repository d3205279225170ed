"""simstack: multi-user MIMO downlink through a stacked programmable
metasurface — scalar-diffraction propagation, MMSE precoding, SVD-matched
and data-driven stack synthesis, and seeded Monte Carlo BER experiments.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, bundled_config_path, load_config, parse_config
from .design import FitConfig, FitResult, fit_sim_to_target, svd_target
from .device import DeviceConfig, SimDevice
from .experiment import aggregate, run_experiment, run_trial
from .geometry import SimGeometry
from .linklevel import (Constellation, constellation_for, generate_channel,
                        make_constellation, simulate_block)
from .precoding import (Precoder, TrainablePrecoder, effective_channel,
                        mmse_precoder)
from .propagation import ForwardOperator, coupling_chain, radiated_power
from .training import (LossReport, TrainingConfig, TrainingDivergenceError,
                       empirical_mse, finite_difference_check, train)

__all__ = [
    "Constellation", "DeviceConfig", "ExperimentConfig", "FitConfig", "FitResult",
    "ForwardOperator", "LossReport", "Precoder", "SimDevice", "SimGeometry",
    "TrainablePrecoder", "TrainingConfig", "TrainingDivergenceError",
    "aggregate", "bundled_config_path",
    "constellation_for", "coupling_chain", "effective_channel",
    "empirical_mse", "finite_difference_check", "fit_sim_to_target",
    "generate_channel", "load_config", "make_constellation",
    "mmse_precoder", "parse_config",
    "radiated_power", "run_experiment", "run_trial", "simulate_block",
    "svd_target", "train",
]
