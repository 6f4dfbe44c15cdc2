"""Time integration of the coupled contour system for either closure.

The semi-discrete system advanced here is the masked vector field

    dy/dt = M(alpha) * F(y),

where F collects the principal-value velocity (plus the vorticity rate for
water waves) and M is the smooth far-field cutoff from the geometry module.
The mask pins the decay bands to the exact flat state, which is the truncated
domain's far-field closure; the suppressed motion is the O(1/distance^2) tail
the truncation drops anyway.  Classical RK4 does the stepping; for Muskat the
sheet strength is re-solved from the curve at every stage, for water waves the
pair (z, omega) advances jointly.  A stage solves the closure from the previous
stage's solution: muskat.solve_vorticity or waterwaves.omega_rhs, each of which
decides whether it holds the curve's operator (a viscosity contrast's Picard
solve, the wave rate at A != 0) and gives the velocity from it.  closure_state
is the one place that gives a state its strength, for an initial state, an
accepted step and a stored snapshot alike; a contrast state also carries its
field from the held operator: the next k1.

Bottom contact is detected and reported, never clamped: a step that drives the
minimum depth to the contact tolerance terminates the run with BottomContact.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from . import muskat, waterwaves
from .analysis import BLOWUP_CAP, CHORD_ARC_CAP, DepthDiagnostics, depth_rate
from .errors import BottomContact, ContourError, NoConvergence, StabilityFailure, ValidationError
from .geometry import (
    FloatArray,
    Grid,
    InterfaceCurve,
    Model,
    PhysicalParams,
    far_field_mask,
    holder_norms,
    min_depth,
)
from .kernels import VorticityStrength, pv_all_nodes

logger = logging.getLogger(__name__)

CONTACT_TOL = 1e-4
# 0.125 puts the capped step inside the RK4 stability region for the
# stiffest resolved curvature mode (|lambda| dt = 0.125 * pi^3 / 2 < 2.79).
CFL_SAFETY = 0.125


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs besides the initial state."""

    params: PhysicalParams
    grid: Grid
    dt: float
    t_end: float
    snapshot_every: int = 10
    contact_tol: float = CONTACT_TOL

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError(f"dt must be finite and positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValidationError(f"t_end must be finite and non-negative, got {self.t_end}")
        if not (np.isfinite(self.contact_tol) and self.contact_tol >= 0.0):
            raise ValidationError(
                f"contact_tol must be finite and non-negative, got {self.contact_tol}"
            )

    @property
    def model(self) -> Model:
        return self.params.model

    def capped_dt(self) -> float:
        """Step size respecting the stiff surface-tension scale when gamma > 0."""
        if self.params.gamma <= 0.0:
            return self.dt
        h = self.grid.spacing
        if self.model is Model.MUSKAT:
            cap = CFL_SAFETY * h**3 * self.params.viscosity_mean / self.params.gamma
        else:
            rho_total = self.params.rho_plus + self.params.rho_minus
            cap = CFL_SAFETY * h**1.5 * np.sqrt(rho_total / self.params.gamma)
        return min(self.dt, float(cap))


@dataclass(frozen=True)
class SimState:
    """Accepted state of a run; omega always matches the model closure."""

    curve: InterfaceCurve
    omega: VorticityStrength
    t: float = 0.0
    # a contrast state's masked velocity (closure_state): the next k1 under that config only
    field: FloatArray | None = dataclasses.field(default=None, compare=False, repr=False)
    accepted_under: SimConfig | None = dataclasses.field(default=None, compare=False, repr=False)


class DiagnosticsSink(Protocol):
    def on_diagnostics(self, diag: DepthDiagnostics) -> None: ...

    def on_snapshot(self, t: float, curve: InterfaceCurve, omega: VorticityStrength) -> None: ...


@dataclass
class RunSummary:
    """Outcome of a run; terminal events are recorded here, not raised."""

    status: str
    t_final: float
    steps_completed: int
    final_min_depth: float
    diagnostics_rows: int
    message: str = ""


def _stage_field(curve: InterfaceCurve, y: FloatArray, config: SimConfig, mask: FloatArray, guess):
    """(closure x, masked field) of one stage curve; ``y`` carries a wave state's omega.

    x is Muskat's omega or the unmasked wave rate, iterated from ``guess``.  The
    velocity is one apply of the operator the closure held, else one fused pass.
    """
    params = config.params
    if config.model is Model.WATER_WAVES:
        omega = VorticityStrength(config.grid, y[2], validate=False)
        rate, (u, v) = waterwaves.omega_rhs(curve, omega, params, guess=guess)
        return rate, np.stack((mask * u, mask * v, mask * rate))
    omega, operator = muskat.solve_vorticity(curve, params, guess)
    u, v = pv_all_nodes(curve, omega, operator)
    return omega.omega, np.stack((mask * u, mask * v))


def _check_accept(y: FloatArray, t_new: float, config: SimConfig, guess: FloatArray) -> SimState:
    """Validity checks on a proposed step; returns the accepted state."""
    if not np.all(np.isfinite(y)):
        raise StabilityFailure(t_new, "state", float("nan"))
    curve = InterfaceCurve(config.grid, y[0], y[1], validate=False)
    md = min_depth(curve)
    if md.m <= config.contact_tol:
        raise BottomContact(t_new, md.m)
    worst = max(holder_norms(curve))
    if worst > BLOWUP_CAP:
        raise StabilityFailure(t_new, "curve C2 norm", worst)
    if curve.chord_arc > CHORD_ARC_CAP:
        raise StabilityFailure(t_new, "chord-arc constant", curve.chord_arc)
    curve.check_invariants()
    omega = VorticityStrength(config.grid, y[2]) if config.model is Model.WATER_WAVES else None
    return closure_state(curve, t_new, config, omega, guess)


def closure_state(
    curve: InterfaceCurve, t: float, config: SimConfig,
    omega: VorticityStrength | None = None, guess: FloatArray | None = None,
) -> SimState:
    """The state of ``curve`` at ``t`` with the strength its model gives it.

    A wave state takes its prognostic ``omega`` (zero if none is given).  A
    Muskat state's strength is the closure's, solved from ``guess``; when that
    solve held the operator, one more apply of it gives the state's field, the
    next step's k1 under ``config``.
    """
    if config.model is Model.WATER_WAVES:
        if omega is None:  # a snapshot stores no strength
            omega = VorticityStrength(curve.grid, np.zeros(curve.grid.node_count))
        return SimState(curve, omega, t)
    omega, operator = muskat.solve_vorticity(curve, config.params, guess)
    if operator is None:  # here the field would cost one more pass
        return SimState(curve, omega, t)
    field = far_field_mask(curve.grid) * np.stack(pv_all_nodes(curve, omega, operator))
    return SimState(curve, omega, t, field, config)


def step(state: SimState, config: SimConfig, dt: float | None = None) -> SimState:
    """One classical RK4 step of the masked system, with post-step checks.

    A stage's closure iterates from stage i-1's x, stage 4's from 2 x3 - x1 (linear
    in stage time), the acceptance's from x4.  A contrast state made under ``config``
    (initial or accepted) holds its x1, so k1 solves nothing; the wave k1 starts cold.
    """
    dt = config.dt if dt is None else float(dt)
    mask = far_field_mask(config.grid)
    waves = config.model is Model.WATER_WAVES
    y0 = np.stack((state.curve.z1, state.curve.z2, state.omega.omega)[: 3 if waves else 2])

    def stage(y: FloatArray, guess: FloatArray | None):
        curve = InterfaceCurve(config.grid, y[0], y[1], validate=False)
        return _stage_field(curve, y, config, mask, guess)

    x1, k1 = state.omega.omega, state.field
    if state.accepted_under != config:
        x1, k1 = stage(y0, None if waves else x1)
    x2, k2 = stage(y0 + 0.5 * dt * k1, x1)
    x3, k3 = stage(y0 + 0.5 * dt * k2, x2)
    x4, k4 = stage(y0 + dt * k3, 2.0 * x3 - x1)
    y1 = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _check_accept(y1, state.t + dt, config, x4)


def run(config: SimConfig, initial: SimState, sinks: Iterable[DiagnosticsSink] = ()) -> RunSummary:
    """Advance to t_end, streaming per-step diagnostics and snapshots.

    The step size is constant (the surface-tension cap applies once, up
    front), so the final time may overshoot t_end by less than one step.
    Terminal events (bottom contact, stability failure, solver stall) end the
    run and are recorded in the summary instead of propagating.
    """
    sinks = tuple(sinks)
    dt = config.capped_dt()
    if dt < config.dt:
        logger.info("surface tension cap active: dt %.3e -> %.3e", config.dt, dt)
    n_steps = 0 if config.t_end == 0.0 else int(np.ceil(config.t_end / dt - 1e-12))

    state = initial
    last_snapshot_t: float | None = None

    def snapshot(state: SimState) -> None:
        nonlocal last_snapshot_t
        # the samples alone: a sink that keeps snapshots pins no derived arrays
        curve = InterfaceCurve(config.grid, state.curve.z1, state.curve.z2, validate=False)
        omega = VorticityStrength(config.grid, state.omega.omega, validate=False)
        for sink in sinks:
            sink.on_snapshot(state.t, curve, omega)
        last_snapshot_t = state.t

    def emit(state: SimState, step_index: int, force_snapshot: bool = False) -> None:
        _, diag = depth_rate(state.curve, state.omega, t=state.t)
        for sink in sinks:
            sink.on_diagnostics(diag)
        every = config.snapshot_every
        if force_snapshot or (every > 0 and step_index % every == 0):
            snapshot(state)

    emit(state, 0, force_snapshot=True)
    status, message = "completed", ""
    steps_done = 0
    for i in range(1, n_steps + 1):
        try:
            state = step(state, config, dt=dt)
        except ContourError as exc:
            status = {
                BottomContact: "bottom_contact",
                StabilityFailure: "stability_failure",
                NoConvergence: "no_convergence",
            }.get(type(exc), "terminal_error")
            message = str(exc)
            logger.warning("run terminated at step %d: %s", i, message)
            break
        steps_done = i
        emit(state, i, force_snapshot=(i == n_steps))
    if last_snapshot_t != state.t:  # terminated early: keep the last accepted state
        snapshot(state)

    return RunSummary(
        status=status,
        t_final=state.t,
        steps_completed=steps_done,
        final_min_depth=min_depth(state.curve).m,
        diagnostics_rows=steps_done + 1,  # the initial state and every accepted step
        message=message,
    )
