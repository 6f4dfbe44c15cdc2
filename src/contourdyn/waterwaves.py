"""Sheet-strength evolution for two-phase irrotational flow under gravity.

With A the density contrast (Atwood number), V the mean sheet velocity,
T = dz/dalpha and M the far-field mask, a wave state carries

    chi = omega - 2 A M V . T,

the surface-potential form of the strength (Zakharov 1968; the vortex-sheet
form of Baker, Meiron and Orszag, JFM 123, 1982), whose rate is explicit:

    d(chi)/dt = -M d/dalpha [ A |V|^2 - (A/4) omega^2 / |T|^2
                              - 2 gamma kappa / (rho_+ + rho_-)
                              - 2 A g z2 ].

M is constant in time, so this is the masked omega equation in other
variables; evolve applies the mask.  omega_rhs is the closure.  omega solves
omega = chi + 2A M V(omega) . T, the masked second-kind equation that the
Muskat closure solves with other coefficients, on the curve's operator in the
fixed-point loop of kernels.solve_tangential, from a nearby state's omega.
The velocity is one more apply of that operator (kernels.pv_all_nodes), and
the rate the derivative of the bracket.  A state that enters from its omega
gets its chi on the same operator, at every A.  The rate depends on no step
size, so RK4 stays fourth order in time.
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
)
from .kernels import (
    FIXED_POINT_TOL,
    VorticityStrength,
    _require_shared_grid,
    node_operator,
    pv_all_nodes,
    solve_tangential,
    tangential_velocity,
)

logger = logging.getLogger(__name__)


def _require_waves(params: PhysicalParams) -> None:
    if params.model is not Model.WATER_WAVES:
        raise ValidationError("operation requires water-wave physics")


def bracket_term(
    curve: InterfaceCurve, omega: VorticityStrength, velocity, params: PhysicalParams
) -> FloatArray:
    """The quantity differentiated in the transport part of the chi equation.

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
    curve: InterfaceCurve, params: PhysicalParams, chi: FloatArray | None = None,
    omega: VorticityStrength | None = None, tol: float = FIXED_POINT_TOL, guess=None,
) -> tuple[VorticityStrength, FloatArray, FloatArray, tuple[FloatArray, FloatArray]]:
    """(omega, chi, rate, velocity): the wave closure of ``curve``, from ``chi`` or else ``omega``.

    The curve's operator is built first.  Given chi, omega solves
    omega = chi + 2A M V(omega) . T on it, iterating from ``guess`` (a nearby
    state's omega) or chi; otherwise chi = omega - 2A M V(omega) . T.  The
    velocity (u, v) is one apply of the operator; the rate of chi is unmasked.
    """
    _require_waves(params)
    gain = 2.0 * params.atwood * curve.grid.far_field_mask
    operator = node_operator(curve)
    if omega is None:
        strength, iterations = solve_tangential(
            curve, operator, chi, gain, tol=tol, what="wave closure iteration", guess=guess,
        )
        logger.debug("wave closure converged in %d iterations", iterations)
        # on the bands omega is chi, which the mask holds at its entering values
        omega = VorticityStrength(curve.grid, strength, validate=False)
    else:
        _require_shared_grid(curve, omega)
        chi = omega.omega - gain * tangential_velocity(curve, omega.omega, operator)
    velocity = pv_all_nodes(curve, omega, operator)
    bracket = bracket_term(curve, omega, velocity, params)
    return omega, chi, -curve.grid.derivative(bracket, 1), velocity
