"""The four workloads: seeded inputs, set-up, one timed round, output checks.

A round is the unit of timed work that repeats until the run's time is up.
For the run workloads it is ``evolve.run`` over a fixed number of steps with
the CSV and JSONL sinks writing real files, as ``contourdyn run`` does; one
op is one accepted step.  For ``verify_n2048`` it is what ``contourdyn
analyze`` does for each stored pinch state, plus one double-exponential fit;
one op is one analysed state.

Seeds: seed 0 gives the shipped values.  Other seeds draw the initial
amplitude uniformly from AMPLITUDE_FACTOR times the shipped value, the pinch
depths log-uniformly from DEPTH_RANGE and the fit constant from FIT_C_RANGE.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from checks import Check
from contourdyn import __version__, analysis, cli, config, evolve, io, muskat
from contourdyn.errors import ContourError
from contourdyn.profiles import build_initial
from program import CONFIGS

WORKLOADS = ("relax_n2048", "contrast_n256", "wave_n256", "verify_n2048")
AMPLITUDE_FACTOR = (0.9, 1.1)
DEPTH_RANGE = (0.02, 0.3)
FIT_C_RANGE = (0.5, 1.5)
VERIFY_STATES = 24
FIT_TIMES = np.linspace(0.0, 2.0, 50)


@dataclass(frozen=True)
class Plan:
    config: str  # shipped configuration the workload starts from
    node_count: int = 0  # 0 keeps the shipped grid
    physics: dict = field(default_factory=dict)  # PhysicalParams fields to replace
    steps: int = 0  # accepted steps per round (run workloads)


PLANS = {
    "relax_n2048": Plan("stable_relaxation.cfg", node_count=2048, steps=4),
    "contrast_n256": Plan("stable_relaxation.cfg", physics={"mu_plus": 2.0, "mu_minus": 0.5}, steps=10),
    "wave_n256": Plan("internal_wave.cfg", steps=25),
    "verify_n2048": Plan("unstable_pinch.cfg", node_count=2048),
}


@dataclass
class Inputs:
    config_path: Path
    deltas: np.ndarray = field(default_factory=lambda: np.empty(0))
    state_paths: list[Path] = field(default_factory=list)
    fit_c: float = 1.0


def generate(name: str, seed: int, workdir: Path) -> Inputs:
    """Write the workload's input files; nothing here is timed."""
    rng = np.random.default_rng(seed)
    plan = PLANS[name]
    shipped = config.parse_config(str(CONFIGS / plan.config))
    if plan.node_count:
        shipped = config.with_grid(shipped, plan.node_count)
    sim = dataclasses.replace(shipped.sim, params=dataclasses.replace(shipped.sim.params, **plan.physics))
    initial = shipped.initial
    if plan.steps:
        factor = 1.0 if seed == 0 else float(rng.uniform(*AMPLITUDE_FACTOR))
        initial = dataclasses.replace(initial, amplitude=initial.amplitude * factor)
        sim = dataclasses.replace(sim, t_end=plan.steps * sim.dt)
    config_path = workdir / f"{name}.cfg"
    config_path.write_text(config.serialize_config(sim, initial), encoding="utf-8")
    parsed = config.parse_config(str(config_path))
    if plan.steps:
        if _planned_steps(parsed) != plan.steps:
            raise RuntimeError(f"{name}: configuration plans {_planned_steps(parsed)} steps")
        return Inputs(config_path)

    if seed == 0:
        deltas = np.geomspace(DEPTH_RANGE[1], DEPTH_RANGE[0], VERIFY_STATES)
        fit_c = 1.0
    else:
        deltas = np.sort(np.exp(rng.uniform(*np.log(DEPTH_RANGE), VERIFY_STATES)))[::-1]
        fit_c = float(rng.uniform(*FIT_C_RANGE))
    paths = []
    for k, delta in enumerate(deltas):
        spec = dataclasses.replace(parsed.initial, delta=float(delta))
        curve, omega = build_initial(spec, parsed.sim.grid)
        path = workdir / f"state_{k:02d}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            io.SnapshotJsonlSink(fh, parsed.sha256, __version__).on_snapshot(0.0, curve, omega)
        paths.append(path)
    return Inputs(config_path, deltas, paths, fit_c)


def _planned_steps(parsed) -> int:
    return math.ceil(parsed.sim.t_end / parsed.sim.capped_dt() - 1e-12)


def setup(name: str, config_path) -> tuple:
    """What a user's process does before the first step: parse, build the initial state."""
    parsed = config.parse_config(str(config_path))
    state = None if name == "verify_n2048" else cli.initial_state(parsed)
    return parsed, state


@dataclass
class Round:
    wall: float
    op_ms: list[float]
    planned: int
    done: int
    window: tuple[float, float]  # first to last op, for per-op span counts
    bytes_written: int = 0
    bytes_read: int = 0
    outputs: object = None


class _StepClock:
    """Benchmark-owned sink: stamps every diagnostics row, keeps outputs for the checks."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.rows: list = []
        self.snapshots: list = []

    def on_diagnostics(self, diag) -> None:
        self.stamps.append(perf_counter())
        self.rows.append(diag)

    def on_snapshot(self, t, curve, omega) -> None:
        self.snapshots.append((t, curve, omega))


def run_round(name: str, parsed, state, inputs: Inputs, workdir: Path) -> Round:
    if name == "verify_n2048":
        return _verify_round(parsed, inputs)
    clock = _StepClock()
    diag_path, snap_path = workdir / "diagnostics.csv", workdir / "snapshots.jsonl"
    start = perf_counter()
    with open(diag_path, "w", encoding="utf-8") as diag_fh, open(snap_path, "w", encoding="utf-8") as snap_fh:
        sinks = (
            io.DiagnosticsCsvSink(diag_fh, parsed.sha256, __version__),
            io.SnapshotJsonlSink(snap_fh, parsed.sha256, __version__),
            clock,
        )
        summary = evolve.run(parsed.sim, state, sinks)
    wall = perf_counter() - start
    return Round(
        wall=wall,
        op_ms=list(1e3 * np.diff(clock.stamps)),
        planned=PLANS[name].steps,
        done=summary.steps_completed,
        window=(clock.stamps[0], clock.stamps[-1]),
        bytes_written=diag_path.stat().st_size + snap_path.stat().st_size,
        outputs=clock,
    )


def _verify_round(parsed, inputs: Inputs) -> Round:
    params = parsed.sim.params
    op_ms, results = [], []
    start = perf_counter()
    for path in inputs.state_paths:
        t0 = perf_counter()
        try:
            t, curve = io.read_snapshots(str(path))[-1]
            omega = muskat.solve_vorticity_equal(curve, params)
            report = analysis.continuation_report(curve, omega, params, t=t)
            value_i, value_it, _ = analysis.identity_defect(curve)
        except ContourError:
            continue
        op_ms.append(1e3 * (perf_counter() - t0))
        results.append((report.m, report.bound_ratio, value_i, value_it))
    window = (start, perf_counter())
    fit_m = np.exp(-inputs.fit_c * np.exp(inputs.fit_c * FIT_TIMES))
    fit = analysis.fit_double_exponential(FIT_TIMES, fit_m)
    wall = perf_counter() - start
    return Round(
        wall=wall,
        op_ms=op_ms,
        planned=len(inputs.state_paths),
        done=len(results),
        window=window,
        bytes_read=sum(p.stat().st_size for p in inputs.state_paths),
        outputs=(results, fit_m, fit),
    )


def check_round(name: str, parsed, inputs: Inputs, result: Round) -> list[Check]:
    """Output checks for one round; see checks.py for the properties."""
    out = [checks.all_ops_completed(result.planned, result.done)]
    if name == "verify_n2048":
        results, fit_m, fit = result.outputs
        if not out[0].ok:
            return out
        m, ratio, value_i, value_it = (np.array(col, dtype=float) for col in zip(*results))
        out.append(checks.pinch_depth(m, inputs.deltas))
        out.append(checks.worst([checks.flux_identity(i, it) for i, it in zip(value_i, value_it)]))
        out.append(checks.bound_ratio_trend(inputs.deltas, ratio))
        out.append(checks.double_exponential_fit(FIT_TIMES, fit_m, fit, inputs.fit_c))
        return out

    clock = result.outputs
    sim = parsed.sim
    _, final_curve, final_omega = clock.snapshots[-1]
    value_i, value_it, _ = analysis.identity_defect(final_curve)
    out.append(checks.flux_identity(value_i, value_it))
    if name == "wave_n256":
        centre = sim.grid.node_count // 2
        t = np.array([s[0] for s in clock.snapshots])
        eta = np.array([s[1].z2[centre] - 1.0 for s in clock.snapshots])
        sigma = checks.internal_wave_sigma(sim.params.g, sim.params.rho_plus, sim.params.rho_minus)
        out.append(checks.wave_frequency(t, eta / eta[0], sigma))
        return out

    m = np.array([d.m for d in clock.rows])
    out.append(checks.depth_non_decreasing(m))
    if name == "contrast_n256":
        oracle = checks.dense_closure_solve(final_curve, sim.params)
        out.append(checks.closure_matches_oracle(final_omega.omega, oracle))
        return out
    first_curve = clock.snapshots[0][1]
    out.append(
        checks.volume_drift(
            checks.enclosed_volume(first_curve.z1, first_curve.z2),
            checks.enclosed_volume(final_curve.z1, final_curve.z2),
        )
    )
    scale = max(max(d.c2_norm for d in clock.rows), max(d.omega_c1_norm for d in clock.rows))
    out.append(
        checks.depth_rate_consistency(
            np.array([d.t for d in clock.rows]),
            m,
            np.array([d.dmdt for d in clock.rows]),
            scale,
            sim.capped_dt(),
            sim.grid.spacing,
        )
    )
    return out
