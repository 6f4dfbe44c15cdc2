"""Integration study: an unstable pinch driven to bottom contact.

Heavy fluid above, no tension, equal viscosities, graph parametrization: the
depth must decay monotonically, the contact monitor must catch the touchdown
without ever emitting an invalid state, the recorded depth series must admit
a certified double-exponential lower bound, and the |J| / (m log 1/m) ratio
may grow only together with the curve norms that enter its constant.
"""

import numpy as np
import pytest

from contourdyn.analysis import fit_double_exponential, log_bound_ratio
from contourdyn.evolve import SimConfig, SimState, run
from contourdyn.geometry import Grid, Model, PhysicalParams
from contourdyn.muskat import solve_vorticity_equal
from contourdyn.profiles import InitialSpec, build_initial

from support import MemorySink, scipy_double_exponential


@pytest.fixture(scope="module")
def contact_run():
    grid = Grid(20.0, 256)
    params = PhysicalParams(model=Model.MUSKAT, rho_plus=2.0 * np.pi, rho_minus=0.0, g=1.0)
    curve, _ = build_initial(InitialSpec(profile="pinch", delta=0.3, window_ramp=4.0), grid)
    state = SimState(curve, solve_vorticity_equal(curve, params), 0.0)
    cfg = SimConfig(params=params, grid=grid, dt=0.002, t_end=0.4, snapshot_every=0)
    sink = MemorySink()
    summary = run(cfg, state, [sink])
    return cfg, sink, summary


def test_touchdown_detected_and_reported(contact_run):
    cfg, sink, summary = contact_run
    assert summary.status == "bottom_contact"
    assert "bottom" in summary.message
    # the monitor never lets an invalid state out
    assert all(d.m > cfg.contact_tol for d in sink.diagnostics)


def test_depth_decays_monotonically(contact_run):
    _, sink, _ = contact_run
    m = np.array([d.m for d in sink.diagnostics])
    dmdt = np.array([d.dmdt for d in sink.diagnostics])
    assert np.all(np.diff(m) < 0.0)
    assert float(np.max(dmdt)) <= 1e-6
    assert m[-1] < 0.05  # the run genuinely approaches the bottom


def test_recorded_series_is_certified(contact_run):
    _, sink, _ = contact_run
    t = np.array([d.t for d in sink.diagnostics])
    m = np.array([d.m for d in sink.diagnostics])
    fit = fit_double_exponential(t, m, fit_slack=1e-2)
    assert fit.certified
    bound = np.exp(-fit.C_fit * np.exp(fit.C_fit * t))
    assert np.all(m >= bound * (1.0 - 1e-2) - 1e-12)


def test_fit_matches_scipy_oracle(contact_run):
    # the run of configs/unstable_pinch.cfg
    _, sink, _ = contact_run
    t = np.array([d.t for d in sink.diagnostics])
    m = np.array([d.m for d in sink.diagnostics])
    fit = fit_double_exponential(t, m, fit_slack=1e-2)
    c_oracle, certified = scipy_double_exponential(t, m, fit_slack=1e-2)
    assert fit.C_fit == pytest.approx(c_oracle, rel=1e-8)
    assert fit.certified == certified


def test_ratio_growth_tracks_norm_growth(contact_run):
    # the depth estimate's constant depends on the curve and strength norms;
    # while those stay near their initial size the ratio must stay put, and
    # it may only blow up if they do
    _, sink, _ = contact_run
    diags = [d for d in sink.diagnostics if d.m < 1.0 / np.e]
    assert diags, "the run must enter the small-depth regime"
    ratios = np.array([log_bound_ratio(d) for d in diags])
    c2 = np.array([d.c2_norm for d in diags])
    calm = c2 <= 3.0 * c2[0]
    assert np.all(ratios[calm] <= 10.0 * ratios[0])
    assert np.all(np.isfinite(ratios))
