"""Contour dynamics for confined two-phase interfaces over a flat bottom."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .errors import (
    BottomContact,
    ConfigError,
    ContourError,
    DegenerateParametrization,
    FitFailure,
    NoConvergence,
    OutOfRegime,
    ParseError,
    SelfIntersection,
    StabilityFailure,
    ValidationError,
)
from .geometry import (
    Grid,
    InterfaceCurve,
    Model,
    PhysicalParams,
    chord_arc_constant,
    curvature,
    holder_norms,
    min_depth,
)
from .kernels import VorticityStrength
from .analysis import (
    BoundFit,
    DepthDiagnostics,
    continuation_report,
    depth_rate,
    fit_double_exponential,
    identity_defect,
    log_bound_ratio,
)
from .evolve import RunSummary, SimConfig, SimState, run, step
from .muskat import (
    solve_vorticity,
    solve_vorticity_equal,
    solve_vorticity_general,
    vorticity_rhs,
)
from .profiles import InitialSpec, build_initial
from .waterwaves import bracket_term, omega_rhs

# the names imported above: not the submodules their imports bind
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))]
