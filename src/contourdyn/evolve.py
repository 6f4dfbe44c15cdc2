"""Time integration of the coupled contour system for either closure.

The semi-discrete system advanced here is the masked vector field

    dy/dt = M(alpha) * F(y),

where F collects the principal-value velocity (plus, for water waves, the
rate of chi = omega - 2A M V.T, the surface-potential form of the strength)
and M is the smooth far-field cutoff from the geometry module.
The mask pins the decay bands to the exact flat state, which is the truncated
domain's far-field closure; the suppressed motion is the O(1/distance^2) tail
the truncation drops anyway.  Classical RK4 does the stepping; for Muskat the
sheet strength is re-solved from the curve at every stage, for water waves the
pair (z, chi) advances jointly and the strength is re-solved from it.
_evaluate is the one closure dispatch: muskat.solve_vorticity or
waterwaves.omega_rhs, iterated from a nearby omega, gives omega (and the wave
chi) and the velocity from the operator the closure held.  closure_state is
the one definition of a run state and the only way into step and run: it
checks the curve against the continuation hypotheses, then gives it its omega
(a wave state entering from omega its chi) and masked field, its own k1; an
equal-viscosity closure holds no operator, so its k1 is one fused pass.

Bottom contact is detected and reported, never clamped: a curve at the contact
tolerance is no run state (BottomContact), at set-up or at a step.
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
from .geometry import FloatArray, Grid, InterfaceCurve, Model, PhysicalParams
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
    """A run state: closure_state's, checked; step and run send a bare one through it first."""

    curve: InterfaceCurve
    omega: VorticityStrength
    t: float = 0.0
    # closure_state's wave chi and masked field (None: explicit closure's), under accepted_under
    chi: FloatArray | None = dataclasses.field(default=None, compare=False, repr=False)
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


def _evaluate(curve: InterfaceCurve, config: SimConfig, omega, chi, guess):
    """(strength, chi, masked field) of ``curve`` under ``config``'s closure, from ``guess``.

    A wave curve's strength solves from its ``chi``, or where chi is None gives
    it from ``omega``; a Muskat curve's strength is the closure's, with no chi.
    The velocity is one apply of the held operator; an equal-viscosity closure
    holds none, and its field, which would cost one more pass, is None.
    """
    mask = curve.grid.far_field_mask
    if config.model is Model.WATER_WAVES:
        omega, chi, rate, (u, v) = waterwaves.omega_rhs(curve, config.params, chi, omega,
                                                        guess=guess)
        return omega, chi, mask * np.stack((u, v, rate))
    omega, operator = muskat.solve_vorticity(curve, config.params, guess)
    field = None if operator is None else mask * np.stack(pv_all_nodes(curve, omega, operator))
    return omega, None, field


def closure_state(
    curve: InterfaceCurve, t: float, config: SimConfig,
    omega: VorticityStrength | None, guess: FloatArray | None = None,
    chi: FloatArray | None = None,
) -> SimState:
    """The run state of ``curve`` at ``t`` under ``config``: checked, then evaluated from ``guess``.

    Initial, accepted or entered, every state passes: the config's grid, min depth
    above contact_tol, C2 norm and chord-arc constant under their caps, flatness, the closure.
    The checks read what the curve caches for its diagnostics row.  A wave state
    takes its strength from ``chi``, or else its chi from ``omega``; a Muskat
    state takes the closure's strength.  An equal-viscosity state
    carries no field (one more fused pass, about 18 ms at N = 2048, in every set-up).
    """
    if curve.grid != config.grid:
        raise ValidationError(f"state's grid {curve.grid} is not the config's {config.grid}")
    m = curve.min_depth.m
    if m <= config.contact_tol:
        raise BottomContact(t, m)
    worst = max(curve.holder_norms)
    if worst > BLOWUP_CAP:
        raise StabilityFailure(t, "curve C2 norm", worst)
    if curve.chord_arc > CHORD_ARC_CAP:
        raise StabilityFailure(t, "chord-arc constant", curve.chord_arc)
    curve.check_invariants()
    omega, chi, field = _evaluate(curve, config, omega, chi, guess)
    return SimState(curve, omega, t, chi, field, config)


def _entered(state: SimState, config: SimConfig) -> SimState:
    """``state`` if closure_state made it under ``config``, else closure_state's, from its omega."""
    if state.accepted_under == config:
        return state
    return closure_state(state.curve, state.t, config, state.omega, state.omega.omega)


def _velocity(curve: InterfaceCurve, omega: VorticityStrength, field: FloatArray | None):
    """``field``, or where the explicit closure left none, one fused pass of ``omega``, masked."""
    if field is None:
        field = curve.grid.far_field_mask * np.stack(pv_all_nodes(curve, omega))
    return field


def step(state: SimState, config: SimConfig, dt: float | None = None) -> SimState:
    """One classical RK4 step of the masked system; the new state is closure_state's.

    ``dt``, finite and positive, defaults to config.capped_dt(), the step run takes.
    A state not made under ``config`` enters through closure_state; x1 and k1 are
    its own omega and velocity.  Stage i's closure iterates from omega x(i-1),
    stage 4's from 2 x3 - x1 (linear in stage time), and the new state's, which
    a failed check rejects, from x4.
    """
    dt = config.capped_dt() if dt is None else float(dt)
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValidationError(f"dt must be finite and positive, got {dt}")
    state = _entered(state, config)
    waves = config.model is Model.WATER_WAVES  # the state vector's rows: (z1, z2[, chi])
    y0 = np.stack((state.curve.z1, state.curve.z2, state.chi)[: 3 if waves else 2])

    def stage(y: FloatArray, guess: FloatArray):
        curve = InterfaceCurve(config.grid, y[0], y[1], validate=False)
        omega, _, field = _evaluate(curve, config, None, y[2] if waves else None, guess)
        return omega.omega, _velocity(curve, omega, field)

    x1, k1 = state.omega.omega, _velocity(state.curve, state.omega, state.field)
    x2, k2 = stage(y0 + 0.5 * dt * k1, x1)
    x3, k3 = stage(y0 + 0.5 * dt * k2, x2)
    x4, k4 = stage(y0 + dt * k3, 2.0 * x3 - x1)
    y1, t = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), state.t + dt
    if not np.all(np.isfinite(y1)):
        raise StabilityFailure(t, "state", float("nan"))
    # a row apiece: a snapshot of the new state pins no chi
    rows = [row.copy() for row in y1]
    curve = InterfaceCurve(config.grid, rows[0], rows[1], validate=False)
    return closure_state(curve, t, config, None, x4, rows[2] if waves else None)


def run(config: SimConfig, initial: SimState, sinks: Iterable[DiagnosticsSink] = ()) -> RunSummary:
    """Advance to t_end, streaming per-step diagnostics and snapshots.

    The step size is constant (the surface-tension cap applies once, up
    front), so the final time may overshoot t_end by less than one step.
    Every accepted state gets a diagnostics row; the snapshots are step 0,
    every ``snapshot_every``-th step and the last accepted state.  The initial
    state enters as in step (a failed check raises, before any sink call); a
    terminal event after it ends the run and is recorded in the summary.
    """
    initial = _entered(initial, config)
    sinks = tuple(sinks)
    dt = config.capped_dt()
    if dt < config.dt:
        logger.info("surface tension cap active: dt %.3e -> %.3e", config.dt, dt)
    n_steps = int(np.ceil(config.t_end / dt - 1e-12))

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

    def emit(state: SimState, step_index: int) -> None:
        diag = depth_rate(state.curve, state.omega, t=state.t)
        for sink in sinks:
            sink.on_diagnostics(diag)
        every = config.snapshot_every
        if step_index == 0 or (every > 0 and step_index % every == 0):
            snapshot(state)

    emit(state, 0)
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
        emit(state, i)
    if last_snapshot_t != state.t:  # the last accepted state, whether or not the run completed
        snapshot(state)

    return RunSummary(
        status=status,
        t_final=state.t,
        steps_completed=steps_done,
        final_min_depth=state.curve.min_depth.m,
        diagnostics_rows=steps_done + 1,  # the initial state and every accepted step
        message=message,
    )
