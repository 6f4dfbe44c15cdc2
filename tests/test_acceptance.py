"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from contourdyn.analysis import (
    depth_rate,
    fit_double_exponential,
    identity_defect,
    log_bound_ratio,
)
from contourdyn.cli import initial_state
from contourdyn.config import parse_config, with_grid
from contourdyn.evolve import SimConfig, SimState, run, step
from contourdyn.geometry import Grid, InterfaceCurve, Model, PhysicalParams
from contourdyn.io import MemorySink
from contourdyn.kernels import (
    VorticityStrength,
    plemelj_velocity,
    velocity_at_point,
)
from contourdyn.muskat import solve_vorticity_equal, solve_vorticity_general
from contourdyn.profiles import InitialSpec, build_initial, plateau_window

from support import gaussian_strength, random_smooth_pair

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def stable_params(**kw) -> PhysicalParams:
    defaults = dict(mu_plus=1.0, mu_minus=1.0, rho_plus=1.0, rho_minus=2.0, g=1.0, gamma=0.0)
    defaults.update(kw)
    return PhysicalParams(model=Model.MUSKAT, **defaults)


@pytest.fixture(scope="module")
def rt_stable_run():
    """200-step equal-viscosity gravity-stable reference run (criteria 5, 8)."""
    grid = Grid(20.0, 256)
    params = stable_params()
    w = plateau_window(grid.alpha, 5.0, 5.0)
    curve = InterfaceCurve(grid, grid.alpha.copy(), 1.0 - 0.3 * np.cos(grid.alpha) * w)
    omega = solve_vorticity_equal(curve, params)
    dt = 0.005
    cfg = SimConfig(params=params, grid=grid, dt=dt, t_end=200 * dt, snapshot_every=0)
    sink = MemorySink()
    summary = run(cfg, SimState(curve, omega, 0.0), [sink])
    assert summary.status == "completed" and summary.steps_completed == 200
    return cfg, sink


def test_criterion_1_flux_identity():
    t0 = time.time()
    L = 40.0
    amplitudes = (None, 0.1, 0.3, 0.5)  # None = flat curve

    def defect(n: int, amp) -> float:
        g = Grid(L, n)
        if amp is None:
            curve = InterfaceCurve(g, g.alpha.copy(), np.ones(g.node_count))
        else:
            w = plateau_window(g.alpha, 6.0, 6.0)
            curve = InterfaceCurve(g, g.alpha.copy(), 1.0 + amp * np.cos(g.alpha) * w)
        return identity_defect(curve)[2]

    finals = [defect(4096, amp) for amp in amplitudes]
    orders = []
    for amp in amplitudes[1:]:
        sweep = [defect(n, amp) for n in (512, 1024, 2048)]
        orders.append(np.log2(sweep[0] / sweep[1]))
        orders.append(np.log2(sweep[1] / sweep[2]))
    elapsed = time.time() - t0
    ok = max(finals) <= 1e-4 and min(orders) >= 2.0 and elapsed <= 60.0
    assert report(
        1,
        ok,
        f"|Itilde - I - pi| <= {max(finals):.2e} at N=4096 (budget 1e-4), "
        f"refinement order >= {min(orders):.2f} (budget 2.0), {elapsed:.1f}s",
    )


def test_criterion_2_bottom_impermeability():
    grid = Grid(20.0, 512)
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        curve, omega = random_smooth_pair(grid, rng)
        for x in rng.uniform(-12.0, 12.0, size=10):
            vel = velocity_at_point(curve, omega, (float(x), 0.0))
            worst = max(worst, abs(vel.v))
    ok = worst <= 1e-13
    assert report(2, ok, f"max |vertical velocity on bottom| = {worst:.2e} (budget 1e-13)")


def test_criterion_3_plemelj_consistency():
    n, L = 65536, 10.0
    grid = Grid(L, n)
    w = plateau_window(grid.alpha, 3.0, 3.0)
    curve = InterfaceCurve(grid, grid.alpha.copy(), 1.0 + 0.2 * np.cos(grid.alpha) * w)
    omega = VorticityStrength(grid, np.exp(-(grid.alpha**2)) * w)
    j = n // 2 + n // 8
    d1x, d1y = curve.d1
    nx, ny = -d1y[j], d1x[j]
    norm = np.hypot(nx, ny)
    nx, ny = nx / norm, ny / norm
    limit = np.array(plemelj_velocity(curve, omega, j, "plus"))
    eps_list = np.geomspace(1e-3, 1e-1, 9)
    errs = []
    for eps in eps_list:
        p = (curve.z1[j] + eps * nx, curve.z2[j] + eps * ny)
        errs.append(
            float(np.max(np.abs(np.array(velocity_at_point(curve, omega, p)) - limit)))
        )
    slope = float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0])
    ok = slope >= 0.9
    assert report(3, ok, f"one-sided limit error slope = {slope:.3f} (budget >= 0.9)")


def test_criterion_4_viscosity_contrast_solve():
    grid = Grid(20.0, 512)
    w = plateau_window(grid.alpha, 5.0, 5.0)
    curve = InterfaceCurve(grid, grid.alpha.copy(), 1.0 + 0.1 * np.cos(grid.alpha) * w)
    from test_muskat import dense_oracle, muskat_params

    worst_gap, worst_iters = 0.0, 0
    for mu_plus, mu_minus in ((1.1, 0.9), (2.0, 1.0)):
        params = muskat_params(mu_plus=mu_plus, mu_minus=mu_minus)
        got = solve_vorticity_general(curve, params, tol=1e-12)
        expect = dense_oracle(curve, params)
        worst_gap = max(worst_gap, float(np.max(np.abs(got.omega - expect))))
        worst_iters = max(worst_iters, got.iterations)
    ok = worst_gap <= 1e-8 and worst_iters <= 60
    assert report(
        4,
        ok,
        f"sup gap vs dense solve = {worst_gap:.2e} (budget 1e-8), "
        f"picard iterations = {worst_iters} (budget 60)",
    )


def test_criterion_5_depth_rate_consistency(rt_stable_run):
    cfg, sink = rt_stable_run
    diags = sink.diagnostics
    t = np.array([d.t for d in diags])
    m = np.array([d.m for d in diags])
    dmdt = np.array([d.dmdt for d in diags])
    centered = (m[2:] - m[:-2]) / (t[2:] - t[:-2])
    mismatch = float(np.max(np.abs(dmdt[1:-1] - centered)))
    scale = max(
        1.0,
        float(np.max([d.c2_norm for d in diags])),
        float(np.max([d.omega_c1_norm for d in diags])),
    )
    h = cfg.grid.spacing
    budget = 5.0 * (cfg.dt**2 + h**2) * scale
    worst_partition = max(
        abs(d.J - (d.J_m + d.J_1 + d.J_inf)) / (1.0 + abs(d.J)) for d in diags
    )
    ok = mismatch <= budget and worst_partition <= 1e-12
    assert report(
        5,
        ok,
        f"|dmdt - centered dm/dt| = {mismatch:.2e} (budget {budget:.2e}), "
        f"band partition defect = {worst_partition:.2e} (budget 1e-12)",
    )


def test_criterion_6_bound_ratio_trend():
    grid = Grid(20.0, 4096)
    omega = gaussian_strength(grid)
    ratios = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        curve, _ = build_initial(
            InitialSpec(profile="pinch", delta=delta, window_ramp=4.0), grid
        )
        _, diag = depth_rate(curve, omega)
        ratios.append(log_bound_ratio(diag))
    ok = ratios[-1] <= 1.5 * max(ratios[0], ratios[1])
    assert report(
        6,
        ok,
        "|J| / (m log 1/m) over the pinch family = "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + " (no increasing trend)",
    )


def test_criterion_7_gravity_unstable_decay():
    grid = Grid(20.0, 256)
    params = stable_params(rho_plus=2.0 * np.pi, rho_minus=0.0, g=1.0)  # [rho] g = 2 pi
    spec = InitialSpec(profile="monotone", amplitude=-0.4, z1_wiggle=0.3)
    curve, _ = build_initial(spec, grid)
    d1x, _ = curve.d1
    assert float(np.min(d1x)) >= 0.0  # monotone hypothesis holds
    omega = solve_vorticity_equal(curve, params)
    dt = 0.002
    cfg = SimConfig(params=params, grid=grid, dt=dt, t_end=100 * dt, snapshot_every=0)
    sink = MemorySink()
    summary = run(cfg, SimState(curve, omega, 0.0), [sink])
    rates = np.array([d.dmdt for d in sink.diagnostics])
    ok = summary.status == "completed" and float(np.max(rates)) <= 1e-6
    assert report(
        7,
        ok,
        f"max dm/dt over 100 unstable steps = {float(np.max(rates)):.2e} (budget 1e-6)",
    )


def test_criterion_8_double_exponential_fit(rt_stable_run):
    t = np.linspace(0.0, 2.0, 50)
    synthetic = fit_double_exponential(t, np.exp(-np.exp(t)))
    gap = abs(synthetic.C_fit - 1.0)

    _, sink = rt_stable_run
    ts = np.array([d.t for d in sink.diagnostics])
    ms = np.array([d.m for d in sink.diagnostics])
    own = fit_double_exponential(ts, ms, fit_slack=1e-2)
    bound = np.exp(-own.C_fit * np.exp(own.C_fit * ts))
    certified = own.certified and bool(np.all(ms >= bound * (1.0 - 1e-2) - 1e-12))
    ok = gap <= 1e-3 and certified
    assert report(
        8,
        ok,
        f"synthetic C_fit error = {gap:.2e} (budget 1e-3); "
        f"run series certified with C = {own.C_fit:.3f}, slack 1e-2: {certified}",
    )


@pytest.mark.parametrize("c_true", [0.5, 0.75, 1.0, 1.25, 1.5])
def test_double_exponential_fit_recovers_synthetic_constant(c_true):
    t = np.linspace(0.0, 2.0, 50)
    fit = fit_double_exponential(t, np.exp(-c_true * np.exp(c_true * t)))
    assert abs(fit.C_fit - c_true) <= 1e-9
    assert fit.certified


def test_double_exponential_certificate_is_minimal(rt_stable_run):
    # the relaxing series is certified by the gap's root, not the least-squares C
    _, sink = rt_stable_run
    ts = np.array([d.t for d in sink.diagnostics])
    ms = np.array([d.m for d in sink.diagnostics])
    slack = 1e-2
    fit = fit_double_exponential(ts, ms, fit_slack=slack)
    assert fit.certified
    below = fit.C_fit * (1.0 - 1e-9)
    bound = np.exp(-below * np.exp(below * ts))
    active = ms < 1.0 - slack
    assert np.any(active & (ms < bound * (1.0 - slack)))


def test_criterion_9_equilibria_and_order():
    grid = Grid(20.0, 128)
    worst_drift = 0.0
    cases = [
        stable_params(),
        stable_params(gamma=0.5),
        stable_params(mu_plus=2.0, mu_minus=0.5),
        PhysicalParams(model=Model.WATER_WAVES, rho_plus=3.0, rho_minus=1.0, g=1.0),
    ]
    for params in cases:
        curve = InterfaceCurve(grid, grid.alpha.copy(), np.ones(grid.node_count))
        omega = VorticityStrength(grid, np.zeros(grid.node_count))
        state = SimState(curve, omega, 0.0)
        cfg = SimConfig(params=params, grid=grid, dt=0.01, t_end=1.0, snapshot_every=0)
        for _ in range(100):
            state = step(state, cfg)
        drift = max(
            float(np.max(np.abs(state.curve.z2 - 1.0))),
            float(np.max(np.abs(state.curve.z1 - grid.alpha))),
            float(np.max(np.abs(state.omega.omega))),
        )
        worst_drift = max(worst_drift, drift)

    # step-halving order on a smooth gravity-stable run
    grid = Grid(20.0, 256)
    params = stable_params()
    w = plateau_window(grid.alpha, 5.0, 5.0)
    curve = InterfaceCurve(grid, grid.alpha.copy(), 1.0 - 0.3 * np.cos(grid.alpha) * w)
    s0 = SimState(curve, solve_vorticity_equal(curve, params), 0.0)

    def advance(dt, n):
        cfg = SimConfig(params=params, grid=grid, dt=dt, t_end=n * dt, snapshot_every=0)
        s = s0
        for _ in range(n):
            s = step(s, cfg, dt=dt)
        return np.stack([s.curve.z1, s.curve.z2])

    y1, y2, y3 = advance(0.08, 5), advance(0.04, 10), advance(0.02, 20)
    order = float(np.log2(np.max(np.abs(y1 - y2)) / np.max(np.abs(y2 - y3))))
    ok = worst_drift <= 1e-12 and 3.8 <= order <= 4.2
    assert report(
        9,
        ok,
        f"flat-state drift over 100 steps = {worst_drift:.2e} (budget 1e-12); "
        f"step-halving order = {order:.2f} (budget [3.8, 4.2])",
    )


def test_criterion_9_wave_order():
    # the implicit omega rate carries no step-size bias, so RK4 stays fourth order
    parsed = with_grid(parse_config(str(CONFIGS / "internal_wave.cfg")), 128)
    s0 = initial_state(parsed)

    def advance(dt, n):
        s = s0
        for _ in range(n):
            s = step(s, parsed.sim, dt=dt)
        return np.stack([s.curve.z1, s.curve.z2, s.omega.omega])

    y1, y2, y3 = advance(0.1, 4), advance(0.05, 8), advance(0.025, 16)
    order = float(np.log2(np.max(np.abs(y1 - y2)) / np.max(np.abs(y2 - y3))))
    assert report(
        9, 3.8 <= order <= 4.2, f"internal wave step-halving order = {order:.2f} (budget [3.8, 4.2])"
    )
