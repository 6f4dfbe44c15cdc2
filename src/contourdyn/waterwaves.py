"""Vorticity evolution for two-phase irrotational flow under gravity.

With A the density contrast (Atwood number), V the mean sheet velocity and
T = dz/dalpha, the sheet strength evolves as

    d(omega)/dt = -d/dalpha [ A |V|^2 - (A/4) omega^2 / |T|^2
                              - 2 gamma kappa / (rho_+ + rho_-)
                              - 2 A g z2 ]
                  + 2 A d/dt [ V . T ].

The last term contains the time derivative being solved for, so each
evaluation resolves it by fixed-point iteration: the state is advanced by a
virtual step dt_probe with the current rate guess, V . T is re-evaluated
there, and the forward difference feeds back until the rate stops changing.
Each probe iteration is one apply of the probe curve's held operator in the
omega'-free tangential form (kernels.tangential_velocity).  The probe
difference carries an O(dt_probe) bias, which is the price of keeping the
implicit term purely evaluative.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConvergence, ValidationError
from .geometry import (
    FloatArray,
    InterfaceCurve,
    Model,
    PhysicalParams,
    curvature,
    fd_derivative,
)
from .kernels import VorticityStrength, node_operator, pv_all_nodes, tangential_velocity

logger = logging.getLogger(__name__)

IMPLICIT_TOL = 1e-10
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
    def velocity(self) -> tuple[FloatArray, FloatArray]:
        """Principal-value velocity (u, v) at every node, one pass per state."""
        return pv_all_nodes(self.curve, self.omega)


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


def omega_rhs(
    state: WaveState,
    params: PhysicalParams,
    dt_probe: float,
    tol: float = IMPLICIT_TOL,
) -> FloatArray:
    """Time derivative of the sheet strength, implicit term resolved.

    ``dt_probe`` is the virtual step used to difference V . T along the flow;
    a time integrator passes its own step size.
    """
    _require_waves(params)
    if dt_probe <= 0.0:
        raise ValidationError(f"dt_probe must be positive, got {dt_probe}")
    curve, omega = state.curve, state.omega
    a = params.atwood
    h = curve.grid.spacing

    explicit = -fd_derivative(bracket_term(state, params), h, 1, edge_value=0.0)
    if a == 0.0:
        return explicit

    u, v = state.velocity
    d1x, d1y = curve.d1
    b0 = u * d1x + v * d1y
    probe_curve = InterfaceCurve(
        curve.grid, curve.z1 + dt_probe * u, curve.z2 + dt_probe * v, validate=False
    )
    probe_curve.require_resolved()
    probe_operator = node_operator(probe_curve)

    gain = 2.0 * a / dt_probe
    rate = explicit
    diff = np.inf
    for iteration in range(1, MAX_IMPLICIT_ITER + 1):
        b_probe = tangential_velocity(probe_curve, omega.omega + dt_probe * rate, probe_operator)
        new_rate = explicit + gain * (b_probe - b0)
        diff = float(np.max(np.abs(new_rate - rate)))
        rate = new_rate
        if diff <= tol:
            logger.debug("implicit omega rate converged in %d iterations", iteration)
            return rate
    raise NoConvergence(MAX_IMPLICIT_ITER, diff, what="implicit omega-rate iteration")
