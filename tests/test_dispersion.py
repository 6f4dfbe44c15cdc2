"""Linear response of both models against closed-form dispersion relations.

Small perturbations of the flat state obey textbook two-layer results for a
lower layer of depth 1 under a rigid bottom and an infinitely deep upper
layer.  These end-to-end checks exercise the kernel, its mirror term, the
boundary limits, both closures and the time integrator at once; the
confinement factors (1 - exp(-2k)) and coth(k) are specifically sensitive to
the mirror term and, for the wave model, to the closure's 2A M V . T term
(dropping it would shift sigma^2 by several percent here).
"""

import numpy as np
import pytest

from contourdyn.evolve import SimConfig, SimState, step
from contourdyn.geometry import Grid, InterfaceCurve, Model, PhysicalParams
from contourdyn.kernels import VorticityStrength
from contourdyn.muskat import solve_vorticity_equal
from contourdyn.profiles import plateau_window

AMPLITUDE = 0.01


def seeded_curve(grid: Grid, k: float) -> InterfaceCurve:
    w = plateau_window(grid.alpha, 12.0, 4.0)
    return InterfaceCurve(grid, grid.alpha.copy(), 1.0 + AMPLITUDE * np.cos(k * grid.alpha) * w)


@pytest.mark.parametrize("k", [1.0, 2.0])
def test_darcy_decay_rate(k):
    # lambda(k) = (rho_+ - rho_-) g k (1 - exp(-2k)) / (mu_+ + mu_-)
    grid = Grid(20.0, 256)
    params = PhysicalParams(model=Model.MUSKAT, rho_plus=1.0, rho_minus=2.0, g=1.0)
    curve = seeded_curve(grid, k)
    state = SimState(curve, solve_vorticity_equal(curve, params), 0.0)
    cfg = SimConfig(params=params, grid=grid, dt=0.01, t_end=1.0, snapshot_every=0)
    jc = grid.node_count // 2
    eta0 = state.curve.z2[jc] - 1.0
    for _ in range(5):
        state = step(state, cfg)
    eta1 = state.curve.z2[jc] - 1.0
    measured = float(np.log(eta1 / eta0) / state.t)
    theory = (
        (params.rho_plus - params.rho_minus)
        * params.g
        * k
        * (1.0 - np.exp(-2.0 * k))
        / (params.mu_plus + params.mu_minus)
    )
    assert measured == pytest.approx(theory, rel=2e-2)


@pytest.mark.parametrize("k", [1.0, 2.0])
@pytest.mark.parametrize("rho_plus", [1.0, 0.0], ids=["internal", "free-surface"])
def test_internal_wave_frequency(rho_plus, k):
    # sigma^2 = g k (rho_- - rho_+) / (rho_- coth(k) + rho_+), depth 1; at
    # rho_+ = 0, the free surface, g k tanh(k)
    grid = Grid(20.0, 256)
    params = PhysicalParams(model=Model.WATER_WAVES, rho_plus=rho_plus, rho_minus=2.0, g=1.0)
    curve = seeded_curve(grid, k)
    state = SimState(curve, VorticityStrength(grid, np.zeros(grid.node_count)), 0.0)
    cfg = SimConfig(params=params, grid=grid, dt=0.02, t_end=1.0, snapshot_every=0)
    jc = grid.node_count // 2
    ts, etas = [0.0], [state.curve.z2[jc] - 1.0]
    for _ in range(12):
        state = step(state, cfg)
        ts.append(state.t)
        etas.append(state.curve.z2[jc] - 1.0)
    # eta(t) = a cos(sigma t): the curvature of a parabola fit gives sigma^2
    coef = np.polyfit(np.array(ts), np.array(etas), 2)
    sigma2_measured = float(-2.0 * coef[0] / AMPLITUDE)
    sigma2_theory = (
        params.g
        * k
        * (params.rho_minus - params.rho_plus)
        / (params.rho_minus / np.tanh(k) + params.rho_plus)
    )
    assert sigma2_measured == pytest.approx(sigma2_theory, rel=2e-2)
