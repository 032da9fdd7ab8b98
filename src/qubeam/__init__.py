"""Two co-propagating photon modes, indirectly coupled through a
magnetized electron medium, exchange polarization correlations.  This
package solves the quasiphoton dispersion relation, builds the mode
transformation block, forms the post-interaction two-qubit state, and
evaluates its entanglement measures over parameter sweeps.
"""
__version__ = "0.1.0"

from .bogoliubov import BogoliubovBlock, build_block, identity_defect
from .dispersion import ModeRoots, exact_roots, perturbative_roots
from .entangle import EntanglementReport, full_report, phi_closed
from .errors import (
    ComputationError,
    ParseError,
    QubeamError,
    ValidationError,
)
from .params import ModelParams, make_params
from .qstate import PolarizationConfig
from .sweep import SweepConfig, parse_config, run_sweep
from .verify import verify_point

__all__ = [
    "__version__",
    "BogoliubovBlock", "build_block", "identity_defect",
    "ModeRoots", "exact_roots", "perturbative_roots",
    "EntanglementReport", "full_report", "phi_closed",
    "ComputationError", "ParseError", "QubeamError", "ValidationError",
    "ModelParams", "make_params",
    "PolarizationConfig",
    "SweepConfig", "parse_config", "run_sweep", "verify_point",
]
