"""Matter-vacuum matching for relativistic polytropes.

Core pieces: a barotropic EOS with truncated relativistic corrections (eos),
hydrostatic shooting in both directions with a four-case classification of
inward shots (tov), matching-curve scans and almost-everywhere failure sweeps
(matching), the classic polytrope profile (lane_emden), its slow-rotation
distortion and surface curve (distortion), and ellipsoid fits with residual
scaling (surface_fit).  The cli module exposes the batch commands.
"""

__version__ = "0.1.0"

from .eos import EosSpec
from .errors import (AdmissibilityError, ConfigError, EosValidityError,
                     FitConvergenceError, NonTerminationError,
                     ShootFailureError, StellarMatchError)

__all__ = [
    "EosSpec",
    "StellarMatchError",
    "EosValidityError",
    "NonTerminationError",
    "ShootFailureError",
    "AdmissibilityError",
    "FitConvergenceError",
    "ConfigError",
    "__version__",
]
