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

on the stage curve's held operator: the shape derivative in closed form from
the operator's rows (kernels.tangential_velocity_rate), then the fixed-point
loop of kernels.solve_tangential, one apply per iteration; the vortex-sheet
form of Baker, Meiron and Orszag (JFM 123, 1982).  The rate depends on no
step size, so RK4 stays fourth order in time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


@dataclass(frozen=True)
class WaveState:
    """Curve and sheet strength of the wave system."""

    curve: InterfaceCurve
    omega: VorticityStrength

    def __post_init__(self) -> None:
        if self.curve.grid != self.omega.grid:
            raise ValidationError("curve and omega must share the same grid")

    @cached_property
    def operator(self) -> np.ndarray:
        """The curve's node_operator, held by the implicit rate."""
        return node_operator(self.curve)

    @cached_property
    def velocity(self) -> tuple[FloatArray, FloatArray]:
        """Principal-value velocity (u, v) at every node, once per state.

        One apply of the operator if the state already holds it, else one fused pass.
        """
        return pv_all_nodes(self.curve, self.omega, vars(self).get("operator"))


def _require_waves(params: PhysicalParams) -> None:
    if params.model is not Model.WATER_WAVES:
        raise ValidationError("operation requires water-wave physics")


def bracket_term(state: WaveState, params: PhysicalParams) -> FloatArray:
    """The quantity differentiated in the transport part of the omega equation."""
    _require_waves(params)
    curve, omega = state.curve, state.omega
    a = params.atwood
    u, v = state.velocity
    rho_total = params.rho_plus + params.rho_minus
    bracket = (
        a * (u * u + v * v)
        - 0.25 * a * omega.omega**2 / curve.speed_squared
        - 2.0 * a * params.g * curve.z2
    )
    if params.gamma != 0.0:
        bracket = bracket - 2.0 * params.gamma * curvature(curve) / rho_total
    return bracket


def omega_rhs(state: WaveState, params: PhysicalParams, tol: float = FIXED_POINT_TOL) -> FloatArray:
    """Time derivative of the sheet strength, implicit term resolved on the state's operator.

    Unless A = 0 the state's operator is built first, so its velocity is an apply of it.
    """
    _require_waves(params)
    curve, omega = state.curve, state.omega
    a = params.atwood
    operator = None if a == 0.0 else state.operator
    explicit = -fd_derivative(bracket_term(state, params), curve.grid.spacing, 1, edge_value=0.0)
    if a == 0.0:
        return explicit
    moving = tangential_velocity_rate(curve, omega.omega, state.velocity, operator)
    rate, iterations = solve_tangential(
        curve, operator, explicit + 2.0 * a * moving, 2.0 * a,
        tol=tol, max_iter=MAX_IMPLICIT_ITER, what="implicit omega-rate iteration",
    )
    logger.debug("implicit omega rate converged in %d iterations", iterations)
    return rate
