"""Vorticity closure for porous-medium (Darcy) flow.

Dotting the Darcy law with the tangent on both sides of the interface and
using the one-sided velocity limits gives the linear relation

    (mu_+ + mu_-)/2 * omega
        = gamma * d(kappa)/dalpha + (rho_+ - rho_-) g * d(z2)/dalpha
          + (mu_+ - mu_-) * (V(z, omega) . dz/dalpha),

where V is the mean (principal-value) sheet velocity.  With equal viscosities
the nonlocal term drops and omega is explicit; otherwise the relation is a
second-kind integral equation solved here by Picard iteration, whose natural
contraction factor is |mu_+ - mu_-| / (mu_+ + mu_-) times the norm of the
velocity operator.  Only V . dz/dalpha enters, which needs no derivative of
omega (kernels.tangential_velocity): an iteration is one apply of the curve's
held operator plus O(N) work.

The interior mask keeps omega exactly zero on the decay bands, consistent with
the truncated-domain far-field closure; the Picard iteration solves this masked
discrete equation, one tangential_velocity apply and one masked update per
iteration, and stops when successive iterates agree to tol in the sup norm.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, ValidationError
from .geometry import (
    FloatArray,
    InterfaceCurve,
    Model,
    PhysicalParams,
    curvature,
    far_field_mask,
    fd_derivative,
)
from .kernels import VorticityStrength, node_operator, tangential_velocity

PICARD_TOL = 1e-10
PICARD_MAX_ITER = 200


def _require_muskat(params: PhysicalParams) -> None:
    if params.model is not Model.MUSKAT:
        raise ValidationError("operation requires Muskat physics")


def vorticity_rhs(curve: InterfaceCurve, params: PhysicalParams) -> FloatArray:
    """Driving term gamma * d(kappa) + [rho] g * d(z2), nodewise.

    With gamma > 0 the curvature samples are differentiated by the same
    fourth-order stencil used everywhere else, so the curve needs four
    discrete derivatives' worth of smoothness.
    """
    _require_muskat(params)
    _, d1z2 = curve.d1
    rhs = params.density_jump * params.g * d1z2
    if params.gamma > 0.0:
        kap = curvature(curve)
        rhs = rhs + params.gamma * fd_derivative(kap, curve.grid.spacing, 1, edge_value=0.0)
    else:
        curve.require_resolved()
    return rhs


def equal_viscosity(params: PhysicalParams) -> bool:
    """Whether the closure is explicit: mu_+ == mu_- to roundoff."""
    return abs(params.viscosity_jump) <= 1e-14 * params.viscosity_mean


def solve_vorticity_equal(curve: InterfaceCurve, params: PhysicalParams) -> VorticityStrength:
    """Closed-form strength mu * omega = rhs for equal viscosities."""
    _require_muskat(params)
    if not equal_viscosity(params):
        raise ValidationError(
            f"equal-viscosity solve requires mu_plus == mu_minus, got "
            f"{params.mu_plus} and {params.mu_minus}"
        )
    rhs = vorticity_rhs(curve, params)
    return VorticityStrength(curve.grid, rhs / params.mu_plus)


def solve_vorticity_general(
    curve: InterfaceCurve,
    params: PhysicalParams,
    tol: float = PICARD_TOL,
    operator: np.ndarray | None = None,
) -> VorticityStrength:
    """Picard solve of the viscosity-contrast integral equation.

    Starts from the equal-viscosity formula with the mean viscosity and
    iterates the fixed-point map, one apply of ``operator`` (the curve's
    node_operator, built here if not given) each, until successive sup-norm
    change <= tol.  NoConvergence after PICARD_MAX_ITER iterations signals an
    under-resolved or extreme-contrast configuration rather than a bug.
    The iteration count is attached to the result as ``.iterations``.
    """
    _require_muskat(params)
    if tol <= 0.0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    rhs = vorticity_rhs(curve, params)
    weight = far_field_mask(curve.grid) / params.viscosity_mean
    omega_arr = weight * rhs
    if operator is None:
        operator = node_operator(curve)
    diff = np.inf
    for iteration in range(1, PICARD_MAX_ITER + 1):
        v_dot_t = tangential_velocity(curve, omega_arr, operator)
        new = weight * (rhs + params.viscosity_jump * v_dot_t)
        diff = float(np.max(np.abs(new - omega_arr)))
        omega_arr = new
        if diff <= tol:
            result = VorticityStrength(curve.grid, omega_arr)
            result.iterations = iteration
            return result
    raise NoConvergence(PICARD_MAX_ITER, diff, what="viscosity-contrast Picard iteration")


def solve_vorticity(
    curve: InterfaceCurve, params: PhysicalParams, operator: np.ndarray | None = None
) -> VorticityStrength:
    """Strength from the closure: explicit for equal viscosities, Picard otherwise."""
    if equal_viscosity(params):
        return solve_vorticity_equal(curve, params)
    return solve_vorticity_general(curve, params, operator=operator)
