"""Vorticity evolution for two-phase irrotational flow under gravity.

With A the density contrast (Atwood number), V the mean sheet velocity and
T = dz/dalpha, the sheet strength evolves as

    d(omega)/dt = -d/dalpha [ A |V|^2 - (A/4) omega^2 / |T|^2
                              - 2 gamma kappa / (rho_+ + rho_-)
                              - 2 A g z2 ]
                  + 2 A d/dt [ V . T ].

The last term holds the rate being solved for.  V . T is linear in omega
through the curve's operator T.K, so along the unmasked velocity zdot = u + iv
it is d/dt [ V . T ] = (T.K) omega_t + d_zdot(V . T)[omega], the last term
moving the nodes at fixed omega.  Each evaluation solves

    (I - 2A T.K) omega_t = explicit + 2A d_zdot(V . T)[omega]

on the curve's operator, which omega_rhs builds unless A = 0 and which also
gives the velocity (kernels.pv_all_nodes): the shape derivative in closed form
from the operator's rows (kernels.tangential_velocity_rate), then the
fixed-point loop of kernels.solve_tangential, one apply per iteration, from the
previous RK stage's rate; the vortex-sheet form of Baker, Meiron and Orszag
(JFM 123, 1982).  The rate depends on no step size, so RK4 stays fourth order
in time.
"""

from __future__ import annotations

import logging

from .errors import ValidationError
from .geometry import (
    FloatArray,
    InterfaceCurve,
    Model,
    PhysicalParams,
    curvature,
    fd_derivative,
)
from .kernels import (
    FIXED_POINT_TOL,
    VorticityStrength,
    node_operator,
    pv_all_nodes,
    solve_tangential,
    tangential_velocity_rate,
)

logger = logging.getLogger(__name__)

MAX_IMPLICIT_ITER = 50


def _require_waves(params: PhysicalParams) -> None:
    if params.model is not Model.WATER_WAVES:
        raise ValidationError("operation requires water-wave physics")


def bracket_term(
    curve: InterfaceCurve, omega: VorticityStrength, velocity, params: PhysicalParams
) -> FloatArray:
    """The quantity differentiated in the transport part of the omega equation.

    ``velocity`` is the principal-value velocity (u, v) of omega on the curve.
    """
    _require_waves(params)
    a = params.atwood
    u, v = velocity
    rho_total = params.rho_plus + params.rho_minus
    bracket = (
        a * (u * u + v * v)
        - 0.25 * a * omega.omega**2 / curve.speed_squared
        - 2.0 * a * params.g * curve.z2
    )
    if params.gamma != 0.0:
        bracket = bracket - 2.0 * params.gamma * curvature(curve) / rho_total
    return bracket


def omega_rhs(
    curve: InterfaceCurve, omega: VorticityStrength, params: PhysicalParams,
    tol: float = FIXED_POINT_TOL, guess=None,
) -> tuple[FloatArray, tuple[FloatArray, FloatArray]]:
    """(rate, velocity): the sheet strength's time derivative and the pv velocity (u, v).

    Unless A = 0 the curve's operator is built first, the velocity is one apply
    of it, and the implicit term is resolved on it, iterating from ``guess``
    (a nearby state's rate) or its right side.  At A = 0 the rate is explicit
    and the velocity one fused pass.
    """
    _require_waves(params)
    a = params.atwood
    operator = None if a == 0.0 else node_operator(curve)
    velocity = pv_all_nodes(curve, omega, operator)
    bracket = bracket_term(curve, omega, velocity, params)
    explicit = -fd_derivative(bracket, curve.grid.spacing, 1, edge_value=0.0)
    if operator is None:
        return explicit, velocity
    moving = tangential_velocity_rate(curve, omega.omega, velocity, operator)
    rate, iterations = solve_tangential(
        curve, operator, explicit + 2.0 * a * moving, 2.0 * a,
        tol=tol, max_iter=MAX_IMPLICIT_ITER, what="implicit omega-rate iteration", guess=guess,
    )
    logger.debug("implicit omega rate converged in %d iterations", iterations)
    return rate, velocity
