"""Reduced rotation-group dynamics for rotating and meandering waves on a sphere.

The package integrates ``Adot = A hat(X^G(t, lambda))`` on SO(3) through the
algebra-valued Z-equation with closed-form BCH chaining, extracts primary and
lifted frequency vectors after a Hopf bifurcation, classifies the resulting
motion (rigid rotation, meander, resonant drift), locates orthogonal-drift
parameter branches, and generates tip trajectories with circle verification.
"""
import sys as _sys

# each submodule lists its public names in __all__, and the package re-exports them
from .bch import *  # noqa: F403
from .errors import *  # noqa: F403
from .flow import *  # noqa: F403
from .hopf import *  # noqa: F403
from .scenarios import *  # noqa: F403
from .so3 import *  # noqa: F403
from .tip import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in ("bch", "errors", "flow", "hopf", "scenarios", "so3", "tip")
    for name in _sys.modules[f"{__name__}.{module}"].__all__
)
