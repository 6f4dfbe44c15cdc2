"""Vorticity closure for porous-medium (Darcy) flow.

Dotting the Darcy law with the tangent on both sides of the interface and
using the one-sided velocity limits gives the linear relation

    (mu_+ + mu_-)/2 * omega
        = gamma * d(kappa)/dalpha + (rho_+ - rho_-) g * d(z2)/dalpha
          + (mu_+ - mu_-) * (V(z, omega) . dz/dalpha),

where V is the mean (principal-value) sheet velocity.  The far-field mask M
keeps omega exactly zero on the decay bands, consistent with the
truncated-domain far-field closure, so the equation solved is the masked one,
omega = r + g V(omega) . dz/dalpha, with r = M rhs / mu_mean the explicit
strength and g = M (mu_+ - mu_-) / mu_mean.  With equal viscosities g is zero
and omega is r (solve_vorticity_equal), with no operator: the viscosity ratio
decides the cost of the solve, not its answer.  Otherwise it is a second-kind
integral equation solved by Picard iteration from r (kernels.solve_tangential,
one apply and one update per iteration, until successive iterates agree to
tol in the sup norm), whose natural contraction factor is
|mu_+ - mu_-| / (mu_+ + mu_-) times the norm of the velocity operator.  Only
V . dz/dalpha enters, which needs no derivative of omega
(kernels.tangential_velocity): an iteration is one apply of the curve's held
operator plus O(N) work.  solve_vorticity decides whether the closure holds an
operator, and returns it with omega, so a caller's velocity is one more apply
of it (kernels.pv_all_nodes).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .geometry import (
    FloatArray,
    InterfaceCurve,
    Model,
    PhysicalParams,
    curvature,
    far_field_mask,
)
from .kernels import FIXED_POINT_TOL, VorticityStrength, node_operator, solve_tangential


def _require_muskat(params: PhysicalParams) -> None:
    if params.model is not Model.MUSKAT:
        raise ValidationError("operation requires Muskat physics")


def vorticity_rhs(curve: InterfaceCurve, params: PhysicalParams) -> FloatArray:
    """Driving term gamma * d(kappa) + [rho] g * d(z2), nodewise.

    With gamma > 0 the curvature samples are differentiated by the same
    fourth-order stencil as everywhere else, Grid.derivative, so the curve
    needs four discrete derivatives' worth of smoothness.
    """
    _require_muskat(params)
    _, d1z2 = curve.d1
    rhs = params.density_jump * params.g * d1z2
    if params.gamma > 0.0:
        kap = curvature(curve)
        rhs = rhs + params.gamma * curve.grid.derivative(kap, 1)
    else:
        curve.require_resolved()
    return rhs


def _explicit_strength(curve: InterfaceCurve, params: PhysicalParams) -> FloatArray:
    """r = M rhs / mu_mean: the strength at equal viscosities, the Picard start otherwise."""
    return far_field_mask(curve.grid) * vorticity_rhs(curve, params) / params.viscosity_mean


def solve_vorticity_equal(curve: InterfaceCurve, params: PhysicalParams) -> VorticityStrength:
    """The masked equation's solution at equal viscosities: omega = M rhs / mu."""
    _require_muskat(params)
    if params.viscosity_jump != 0.0:
        raise ValidationError(
            f"equal-viscosity solve requires mu_plus == mu_minus, got "
            f"{params.mu_plus} and {params.mu_minus}"
        )
    return VorticityStrength(curve.grid, _explicit_strength(curve, params))


def solve_vorticity_general(
    curve: InterfaceCurve,
    params: PhysicalParams,
    tol: float = FIXED_POINT_TOL,
    operator: np.ndarray | None = None,
    guess: FloatArray | None = None,
) -> VorticityStrength:
    """Picard solve of the viscosity-contrast integral equation.

    Starts from ``guess`` (a nearby curve's strength) or else the explicit
    strength M rhs / mu_mean, and iterates the fixed-point map, one apply
    of ``operator`` (the curve's node_operator, built here if not given) each,
    until successive sup-norm change <= tol.  NoConvergence after
    kernels.MAX_FIXED_POINT_ITER iterations signals an under-resolved or
    extreme-contrast configuration rather than a bug.  The iteration count is attached as ``.iterations``.
    """
    _require_muskat(params)
    operator = node_operator(curve) if operator is None else operator
    gain = far_field_mask(curve.grid) * params.viscosity_jump / params.viscosity_mean
    omega_arr, iterations = solve_tangential(
        curve, operator, _explicit_strength(curve, params), gain,
        tol=tol, what="viscosity-contrast Picard iteration", guess=guess,
    )
    result = VorticityStrength(curve.grid, omega_arr)
    result.iterations = iterations
    return result


def solve_vorticity(
    curve: InterfaceCurve, params: PhysicalParams, guess: FloatArray | None = None
) -> tuple[VorticityStrength, np.ndarray | None]:
    """(omega, operator) from the closure: the operator the velocity can apply.

    Explicit with no operator for equal viscosities; else a Picard solve from
    ``guess`` on the curve's node_operator, which comes back with omega.
    """
    if params.viscosity_jump == 0.0:
        return solve_vorticity_equal(curve, params), None
    operator = node_operator(curve)
    return solve_vorticity_general(curve, params, operator=operator, guess=guess), operator
