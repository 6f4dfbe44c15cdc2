"""Contour dynamics for confined two-phase interfaces over a flat bottom."""

from __future__ import annotations

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
    TooCloseToCurve,
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
from .kernels import (
    Velocity2,
    VorticityStrength,
    plemelj_velocity,
    pv_boundary_integral,
    velocity_at_point,
)
from .analysis import (
    BoundFit,
    DepthDiagnostics,
    continuation_report,
    depth_rate,
    fit_double_exponential,
    identity_I,
    identity_Itilde,
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
from .waterwaves import WaveState, bracket_term, omega_rhs

__all__ = [name for name in dir() if not name.startswith("_")]
