"""Time integration of the coupled contour system for either closure.

The semi-discrete system advanced here is the masked vector field

    dy/dt = M(alpha) * F(y),

where F collects the principal-value velocity (plus the vorticity rate for
water waves) and M is the smooth far-field cutoff from the geometry module.
The mask pins the decay bands to the exact flat state, which is the truncated
domain's far-field closure; the suppressed motion is the O(1/distance^2) tail
the truncation drops anyway.  Classical RK4 does the stepping; for Muskat the
sheet strength is re-solved from the curve at every stage, for water waves the
pair (z, omega) advances jointly.

Bottom contact is detected and reported, never clamped: a step that drives the
minimum depth to the contact tolerance terminates the run with BottomContact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from . import muskat, waterwaves
from .analysis import DepthDiagnostics, depth_rate
from .errors import (
    BottomContact,
    ContourError,
    NoConvergence,
    StabilityFailure,
)
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
from .kernels import VorticityStrength, node_operator, pv_all_nodes

logger = logging.getLogger(__name__)

CONTACT_TOL = 1e-4
BLOWUP_CAP = 1e3
CHORD_ARC_CAP = 1e3


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs besides the initial state."""

    params: PhysicalParams
    grid: Grid
    dt: float
    t_end: float
    snapshot_every: int = 10
    # 0.125 puts the capped step inside the RK4 stability region for the
    # stiffest resolved curvature mode (|lambda| dt = 0.125 * pi^3 / 2 < 2.79).
    cfl_safety: float = 0.125
    picard_tol: float = muskat.PICARD_TOL
    picard_max_iter: int = muskat.PICARD_MAX_ITER
    implicit_tol: float = waterwaves.IMPLICIT_TOL
    implicit_max_iter: int = waterwaves.MAX_IMPLICIT_ITER
    contact_tol: float = CONTACT_TOL
    blowup_cap: float = BLOWUP_CAP
    chord_arc_cap: float = CHORD_ARC_CAP

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be non-negative, got {self.t_end}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")

    @property
    def model(self) -> Model:
        return self.params.model

    def capped_dt(self) -> float:
        """Step size respecting the stiff surface-tension scale when gamma > 0."""
        if self.params.gamma <= 0.0:
            return self.dt
        h = self.grid.spacing
        if self.model is Model.MUSKAT:
            cap = self.cfl_safety * h**3 * self.params.viscosity_mean / self.params.gamma
        else:
            rho_total = self.params.rho_plus + self.params.rho_minus
            cap = self.cfl_safety * h**1.5 * np.sqrt(rho_total / self.params.gamma)
        return min(self.dt, float(cap))


@dataclass(frozen=True)
class SimState:
    """Accepted state of a run; omega always matches the model closure."""

    curve: InterfaceCurve
    omega: VorticityStrength
    t: float = 0.0


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


def contour_rhs(
    curve: InterfaceCurve, omega: VorticityStrength, c: FloatArray | None = None, operator=None
) -> tuple[FloatArray, FloatArray]:
    """Curve velocity: principal-value integral plus tangential redistribution."""
    u, v = pv_all_nodes(curve, omega, operator)
    if c is not None:
        c = np.asarray(c, dtype=np.float64)
        d1x, d1y = curve.d1
        u = u + c * d1x
        v = v + c * d1y
    return u, v


def _muskat_field(y: FloatArray, config: SimConfig, mask: FloatArray) -> FloatArray:
    curve = InterfaceCurve(config.grid, y[0], y[1], validate=False)
    curve.require_resolved()
    # a viscosity contrast's Picard solve and the stage velocity share one operator
    operator = None if muskat.equal_viscosity(config.params) else node_operator(curve)
    omega = muskat.solve_vorticity(
        curve, config.params, config.picard_tol, config.picard_max_iter, operator
    )
    u, v = contour_rhs(curve, omega, operator=operator)
    return np.stack((mask * u, mask * v))


def _waves_field(y: FloatArray, config: SimConfig, mask: FloatArray, dt_probe: float) -> FloatArray:
    curve = InterfaceCurve(config.grid, y[0], y[1], validate=False)
    curve.require_resolved()
    omega = VorticityStrength(config.grid, y[2], validate=False)
    state = waterwaves.WaveState(curve, omega)
    u, v = state.velocity
    om_rate = waterwaves.omega_rhs(
        state,
        config.params,
        dt_probe=dt_probe,
        tol=config.implicit_tol,
        max_iter=config.implicit_max_iter,
    )
    return np.stack((mask * u, mask * v, mask * om_rate))


def _pack(state: SimState, model: Model) -> FloatArray:
    if model is Model.MUSKAT:
        return np.stack((state.curve.z1, state.curve.z2))
    return np.stack((state.curve.z1, state.curve.z2, state.omega.omega))


def _check_accept(y: FloatArray, t_new: float, config: SimConfig) -> SimState:
    """Validity checks on a proposed step; returns the accepted state."""
    if not np.all(np.isfinite(y)):
        raise StabilityFailure(t_new, "state", float("nan"))
    curve = InterfaceCurve(config.grid, y[0], y[1], validate=False)
    md = min_depth(curve)
    if md.m <= config.contact_tol:
        raise BottomContact(t_new, md.m)
    c0, c1, c2 = holder_norms(curve)
    worst = max(c0, c1, c2)
    if worst > config.blowup_cap:
        raise StabilityFailure(t_new, "curve C2 norm", worst)
    if curve.chord_arc > config.chord_arc_cap:
        raise StabilityFailure(t_new, "chord-arc constant", curve.chord_arc)
    curve.check_invariants()
    if config.model is Model.MUSKAT:
        omega = muskat.solve_vorticity(curve, config.params, config.picard_tol, config.picard_max_iter)
    else:
        omega = VorticityStrength(config.grid, y[2])
    return SimState(curve=curve, omega=omega, t=t_new)


def step(state: SimState, config: SimConfig, dt: float | None = None) -> SimState:
    """One classical RK4 step of the masked system, with post-step checks."""
    dt = config.dt if dt is None else float(dt)
    mask = far_field_mask(config.grid)
    model = config.model
    y0 = _pack(state, model)

    if model is Model.MUSKAT:
        def field(y: FloatArray) -> FloatArray:
            return _muskat_field(y, config, mask)
    else:
        def field(y: FloatArray) -> FloatArray:
            return _waves_field(y, config, mask, dt_probe=dt)

    k1 = field(y0)
    k2 = field(y0 + 0.5 * dt * k1)
    k3 = field(y0 + 0.5 * dt * k2)
    k4 = field(y0 + dt * k3)
    y1 = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _check_accept(y1, state.t + dt, config)


def run(
    config: SimConfig,
    initial: SimState,
    sinks: Iterable[DiagnosticsSink] = (),
) -> RunSummary:
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
    rows = 0
    last_snapshot_t: float | None = None

    def emit(state: SimState, step_index: int, force_snapshot: bool = False) -> None:
        nonlocal rows, last_snapshot_t
        _, diag = depth_rate(state.curve, state.omega, t=state.t)
        for sink in sinks:
            sink.on_diagnostics(diag)
        rows += 1
        every = config.snapshot_every
        due = every > 0 and step_index % every == 0
        if due or force_snapshot:
            for sink in sinks:
                sink.on_snapshot(state.t, state.curve, state.omega)
            last_snapshot_t = state.t

    emit(state, 0, force_snapshot=True)
    status, message = "completed", ""
    steps_done = 0
    for i in range(1, n_steps + 1):
        try:
            state = step(state, config, dt=dt)
        except (BottomContact, StabilityFailure, NoConvergence, ContourError) as exc:
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
    if last_snapshot_t != state.t:
        # terminated early: keep the last accepted state for post-mortem work
        for sink in sinks:
            sink.on_snapshot(state.t, state.curve, state.omega)

    return RunSummary(
        status=status,
        t_final=state.t,
        steps_completed=steps_done,
        final_min_depth=min_depth(state.curve).m,
        diagnostics_rows=rows,
        message=message,
    )
