"""Random pilot-and-data access in a single-cell massive MIMO uplink.

Library layout:

* :mod:`pilothop.access`   -- activation / pilot-collision probability laws
* :mod:`pilothop.channels` -- large-scale gain models and Rayleigh channels
* :mod:`pilothop.bounds`   -- the sum-rate lower-bound hierarchy
* :mod:`pilothop.optimize` -- pilot-length / activation optimization methods
* :mod:`pilothop.scaling`  -- closed-form scaling laws and their verification
* :mod:`pilothop.protocol` -- slot-level receiver simulation
* :mod:`pilothop.cli`      -- experiment runner emitting CSV curves
"""

from .access import ActivationLaw
from .bounds import BoundResult, McConfig
from .channels import (
    BetaMoments,
    LogNormalShadowing,
    RingPathLoss,
    UniformPowerError,
    analytic_moments,
)
from .config import SystemConfig
from .optimize import OptimizationResult, S0

__version__ = "0.1.0"

__all__ = [
    "ActivationLaw",
    "BoundResult",
    "McConfig",
    "BetaMoments",
    "LogNormalShadowing",
    "RingPathLoss",
    "UniformPowerError",
    "analytic_moments",
    "SystemConfig",
    "OptimizationResult",
    "S0",
    "__version__",
]
