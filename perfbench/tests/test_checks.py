"""Each output check passes on a right answer and fails on a known-wrong one.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import json

import numpy as np

import checks
import spans
from contourdyn import evolve, kernels
from contourdyn.analysis import fit_double_exponential, identity_defect
from contourdyn.geometry import Grid, InterfaceCurve, Model, PhysicalParams, min_depth
from contourdyn.muskat import solve_vorticity_equal, solve_vorticity_general
from contourdyn.profiles import InitialSpec, build_initial, plateau_window

WAVE_TIMES = np.array([0.0, 0.2, 0.4, 0.5])  # snapshot times of one wave_n256 round


def contrast_curve(n: int = 256) -> InterfaceCurve:
    grid = Grid(20.0, n)
    z2 = 1.0 - 0.3 * np.cos(grid.alpha) * plateau_window(grid.alpha, 6.0, 6.0)
    return InterfaceCurve(grid, grid.alpha.copy(), z2)


def pinch_curves(deltas, n: int = 2048):
    grid = Grid(20.0, n)
    return [build_initial(InitialSpec(profile="pinch", delta=d, window_ramp=4.0), grid)[0] for d in deltas]


def test_wave_check_rejects_sigma_shifted_by_5_percent():
    sigma = checks.internal_wave_sigma(1.0, 1.0, 2.0)
    eta_ratio = np.cos(sigma * WAVE_TIMES)
    assert checks.wave_frequency(WAVE_TIMES, eta_ratio, sigma).ok
    assert not checks.wave_frequency(WAVE_TIMES, eta_ratio, 1.05 * sigma).ok


def test_oracle_check_rejects_loose_picard_solve():
    curve = contrast_curve()
    params = PhysicalParams(model=Model.MUSKAT, mu_plus=2.0, mu_minus=0.5, rho_plus=1.0, rho_minus=2.0)
    oracle = checks.dense_closure_solve(curve, params)
    tight = solve_vorticity_general(curve, params, tol=1e-12)
    loose = solve_vorticity_general(curve, params, tol=1e-3)
    assert checks.closure_matches_oracle(tight.omega, oracle).ok
    assert not checks.closure_matches_oracle(loose.omega, oracle).ok


def test_pinch_depth_check_rejects_offset_of_one_cell():
    deltas = np.array([0.3, 0.1, 0.02])
    curves = pinch_curves(deltas)
    m = np.array([min_depth(c).m for c in curves])
    assert checks.pinch_depth(m, deltas).ok
    assert not checks.pinch_depth(m + curves[0].grid.spacing, deltas).ok


def test_identity_check_rejects_replaced_pi():
    (curve,) = pinch_curves([0.1])
    value_i, value_it, _ = identity_defect(curve)
    assert checks.flux_identity(value_i, value_it).ok
    assert not checks.flux_identity(value_i, value_it + 22.0 / 7.0 - np.pi).ok


def test_fit_check_rejects_series_below_the_bound():
    t = np.linspace(0.0, 2.0, 50)
    m = np.exp(-np.exp(t))
    fit = fit_double_exponential(t, m)
    assert checks.double_exponential_fit(t, m, fit, 1.0).ok
    broken = m.copy()
    broken[-1] *= 0.5
    assert not checks.double_exponential_fit(t, broken, fit, 1.0).ok


def test_trend_check_rejects_growing_ratio():
    deltas = np.array([0.3, 0.2, 0.1, 0.05])
    assert checks.bound_ratio_trend(deltas, np.array([2.9, 2.4, 1.6, 1.1])).ok
    assert not checks.bound_ratio_trend(deltas, np.array([1.0, 1.1, 2.0, 4.0])).ok


def test_monotone_and_volume_checks_reject_a_falling_depth():
    assert checks.depth_non_decreasing(np.array([0.7, 0.701, 0.702])).ok
    assert not checks.depth_non_decreasing(np.array([0.7, 0.699, 0.702])).ok
    curve = contrast_curve()
    before = checks.enclosed_volume(curve.z1, curve.z2)
    assert checks.volume_drift(before, before).ok
    assert not checks.volume_drift(before, checks.enclosed_volume(curve.z1, curve.z2 - 1e-3)).ok


def test_depth_rate_check_rejects_rate_offset_beyond_budget():
    dt, h = 0.005, 20.0 / 2048
    t = dt * np.arange(5)
    m = 0.7 + 0.1 * (1.0 - np.exp(-t))
    dmdt = 0.1 * np.exp(-t)
    good = checks.depth_rate_consistency(t, m, dmdt, 1.0, dt, h)
    assert good.ok
    assert not checks.depth_rate_consistency(t, m, dmdt + 2.0 * good.bound, 1.0, dt, h).ok


def test_completion_check_rejects_a_missing_step():
    assert checks.all_ops_completed(4, 4).ok
    assert not checks.all_ops_completed(4, 3).ok


def test_instrument_counts_calls_and_restores_names(tmp_path):
    curve = contrast_curve(128)
    params = PhysicalParams(model=Model.MUSKAT, rho_plus=1.0, rho_minus=2.0)
    config = evolve.SimConfig(params=params, grid=curve.grid, dt=0.005, t_end=0.005)
    state = evolve.SimState(curve, solve_vorticity_equal(curve, params))
    original = kernels.pv_all_nodes
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        with tracer.span(spans.ROUND):
            evolve.step(state, config)
    names = [s.name for s in tracer.spans]
    assert names.count("kernels.pv_all_nodes") == 4  # one per RK stage
    assert names.count("muskat.solve") == 5  # four stages plus the accepted state
    assert evolve.pv_all_nodes is original
    tracer.dump(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans)
    assert json.loads(lines[1])["parent"] == 0  # evolve.step inside the round
