"""bohmctx: de Broglie-Bohm trajectory simulation of measurement scenarios
where the outcome is decided by the measured system's position, by the
apparatus positions, or by a compromise between them."""

__version__ = "0.1.0"

from .grids import SpatialGrid
from .fields import (ComplexField, SpinorField, GaussianPacketSpec,
                     make_gaussian, norm, overlap)
from .propagation import PotentialSpec, propagate
from .sampling import sample_equilibrium
from .trajectories import Trajectory
from .pointer import system_overlap, predictor_system
from .report import EnsembleReport
from .errors import (BohmctxError, ConfigError, NumericalFailure,
                     SupportGuardViolation, SeparationError)

__all__ = [
    "SpatialGrid", "ComplexField", "SpinorField", "GaussianPacketSpec",
    "make_gaussian", "norm", "overlap", "PotentialSpec", "propagate",
    "sample_equilibrium", "Trajectory", "system_overlap", "predictor_system",
    "EnsembleReport", "BohmctxError", "ConfigError", "NumericalFailure",
    "SupportGuardViolation", "SeparationError",
]
