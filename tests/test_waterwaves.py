"""Sheet-strength evolution for the irrotational two-phase system."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from contourdyn import kernels
from contourdyn.cli import initial_state
from contourdyn.config import parse_config
from contourdyn.errors import ValidationError
from contourdyn.geometry import Grid, InterfaceCurve, Model, PhysicalParams, far_field_mask
from contourdyn.kernels import VorticityStrength, node_operator, pv_all_nodes, tangential_velocity
from contourdyn.evolve import run
from contourdyn.waterwaves import bracket_term, omega_rhs

from support import bump_curve, gaussian_strength, resubstitution_gap

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def wave_params(**kw) -> PhysicalParams:
    defaults = dict(rho_plus=3.0, rho_minus=1.0, g=1.0, gamma=0.0)  # Atwood 0.5
    defaults.update(kw)
    return PhysicalParams(model=Model.WATER_WAVES, **defaults)


def flat_state(grid: Grid) -> tuple[InterfaceCurve, VorticityStrength]:
    curve = InterfaceCurve(grid, grid.alpha.copy(), np.ones(grid.node_count))
    return curve, VorticityStrength(grid, np.zeros(grid.node_count))


def bracket(curve: InterfaceCurve, omega: VorticityStrength, params: PhysicalParams):
    """bracket_term at the velocity of a fused pass."""
    return bracket_term(curve, omega, pv_all_nodes(curve, omega), params)


def wave_state(grid: Grid, amplitude: float = 0.05, omega_amp: float = 0.1):
    return bump_curve(grid, amplitude), gaussian_strength(grid, amplitude=omega_amp)


class TestBracket:
    def test_flat_is_constant(self, grid256):
        params = wave_params()
        value = bracket(*flat_state(grid256), params)
        expect = -2.0 * params.atwood * params.g * 1.0
        assert np.allclose(value, expect, atol=1e-13)

    def test_gravity_term_closed_form(self, grid256):
        params = wave_params()
        curve = bump_curve(grid256, 0.1)
        value = bracket(curve, VorticityStrength(grid256, np.zeros(grid256.node_count)), params)
        # omega = 0 kills every velocity term: only -2 A g z2 remains
        expect = -2.0 * params.atwood * params.g * curve.z2
        assert np.allclose(value, expect, atol=1e-13)

    def test_quadratic_scaling_in_omega(self, grid256):
        params = wave_params(g=0.0)
        curve = bump_curve(grid256, 0.1)
        om1 = gaussian_strength(grid256, amplitude=0.4)
        om2 = gaussian_strength(grid256, amplitude=0.8)
        b1 = bracket(curve, om1, params)
        b2 = bracket(curve, om2, params)
        # with g = gamma = 0 and c = 0 every surviving term is quadratic
        assert np.allclose(b2, 4.0 * b1, rtol=1e-10, atol=1e-14)

    def test_requires_wave_params(self, grid256):
        with pytest.raises(ValidationError):
            bracket(*flat_state(grid256), PhysicalParams(model=Model.MUSKAT))


class TestOmegaRhs:
    def test_flat_equilibrium(self, grid256):
        curve, omega = flat_state(grid256)
        _, chi, rate, _ = omega_rhs(curve, wave_params(), omega=omega)
        assert np.all(chi == 0.0) and np.all(rate == 0.0)

    def test_gravity_dominated_rate(self, grid256):
        # omega = 0, amplitude a: chi's rate is 2 A g d(z2)/dalpha, as every
        # other term vanishes with omega
        params = wave_params()
        curve = bump_curve(grid256, 0.1)
        rest = VorticityStrength(grid256, np.zeros(grid256.node_count))
        _, _, rate, _ = omega_rhs(curve, params, omega=rest)
        inner = np.abs(grid256.alpha) <= 4.0
        expect = -0.1 * np.sin(grid256.alpha)
        assert np.max(np.abs(rate[inner] - expect[inner])) <= 2e-2

    def test_zero_atwood(self, grid256):
        # A = 0, gamma = 0: the bracket vanishes identically, and chi is omega
        params = wave_params(rho_plus=1.0, rho_minus=1.0, g=2.0)
        curve, omega = wave_state(grid256, 0.2, 0.3)
        _, chi, rate, _ = omega_rhs(curve, params, omega=omega)
        assert np.allclose(rate, 0.0, atol=1e-12)
        assert np.array_equal(chi, omega.omega)
        solved, _, _, _ = omega_rhs(curve, params, chi)
        assert np.array_equal(solved.omega, omega.omega)

    def test_rate_decays_far_out(self, grid256):
        # only the sheet's far velocity reaches the bands, where the
        # integrator's mask suppresses it
        params = wave_params()
        curve, omega = wave_state(grid256, 0.1, 0.2)
        _, _, rate, _ = omega_rhs(curve, params, omega=omega)
        band = grid256.band_mask
        assert np.max(np.abs(rate[band])) <= 1e-2 * np.max(np.abs(rate))

    @pytest.mark.parametrize("given", ["omega", "chi"])
    def test_velocity_is_an_apply_of_the_operator(self, grid256, given):
        # at every A, A = 0 too: one assembly, whether omega is given or solved
        # from chi, and the velocity is that operator's apply, bit for bit
        curve, omega = wave_state(grid256)
        for params in (wave_params(), wave_params(rho_plus=1.0, rho_minus=1.0)):
            chi = omega_rhs(curve, params, omega=omega)[1] if given == "chi" else None
            before = dict(kernels.pair_passes)
            solved, _, _, (u, v) = omega_rhs(curve, params, chi, omega if chi is None else None)
            counts = {k: kernels.pair_passes[k] - before[k] for k in before}
            assert counts == {"fused": 0, "assembly": 1}
            ref_u, ref_v = pv_all_nodes(curve, solved, node_operator(curve))
            assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)

    def test_chi_from_omega(self, grid256):
        # a state entering from omega: chi = omega - 2A M V(omega) . T, on the one operator
        params = wave_params()
        curve, omega = wave_state(grid256)
        same, chi, _, _ = omega_rhs(curve, params, omega=omega)
        assert same is omega
        assert resubstitution_gap(curve, omega, chi, params) == 0.0
        mask = far_field_mask(grid256)
        v_dot_t = tangential_velocity(curve, omega.omega, node_operator(curve))
        assert np.array_equal(chi, omega.omega - 2.0 * params.atwood * mask * v_dot_t)

    def test_omega_from_chi_resubstitutes(self, grid256):
        # the converged omega solves omega = chi + 2A M V(omega) . T, and is the
        # omega that chi was made from
        params = wave_params()
        curve, omega = wave_state(grid256)
        chi = omega_rhs(curve, params, omega=omega)[1]
        solved, same, _, _ = omega_rhs(curve, params, chi, tol=1e-12)
        assert same is chi
        assert resubstitution_gap(curve, solved, chi, params) <= 1e-12
        assert np.max(np.abs(solved.omega - omega.omega)) <= 1e-11

    def test_warm_start(self, grid256):
        # from a nearby state's omega the same stop rule resubstitutes to
        # 10 tol, the Muskat residual bound, and lands on the cold omega
        params = wave_params()
        curve, omega = wave_state(grid256)
        chi = omega_rhs(curve, params, omega=omega)[1]
        tol = 1e-10
        cold = omega_rhs(curve, params, chi, tol=tol)[0]
        guess = gaussian_strength(grid256, amplitude=0.11).omega
        warm = omega_rhs(curve, params, chi, tol=tol, guess=guess)[0]
        assert resubstitution_gap(curve, warm, chi, params) <= 10.0 * tol
        assert np.max(np.abs(warm.omega - cold.omega)) <= 1e-9

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_rejects_bad_tolerance(self, grid256, tol):
        curve, omega = wave_state(grid256)
        with pytest.raises(ValidationError):
            omega_rhs(curve, wave_params(), omega.omega, tol=tol)

    @pytest.mark.parametrize("guess", [np.zeros(255), np.full(256, np.nan), np.full(256, np.inf)])
    def test_rejects_bad_guess(self, grid256, guess):
        curve, omega = wave_state(grid256)
        with pytest.raises(ValidationError):
            omega_rhs(curve, wave_params(), omega.omega, guess=guess)

    def test_rejects_mismatched_grids(self, grid256):
        curve = bump_curve(grid256, 0.05)
        omega = gaussian_strength(Grid(20.0, 128), amplitude=0.1)
        with pytest.raises(ValidationError):
            omega_rhs(curve, wave_params(), omega=omega)


class TestFreeSurface:
    def test_free_surface_runs(self):
        # rho_+ = 0 (A = -1), the classical water wave: the closure's fixed-point
        # map contracts by about 0.9 per iteration, so a cold solve takes up
        # to about 100 of kernels.MAX_FIXED_POINT_ITER iterations
        parsed = parse_config(str(CONFIGS / "internal_wave.cfg"))
        params = dataclasses.replace(parsed.sim.params, rho_plus=0.0)
        sim = dataclasses.replace(parsed.sim, params=params, t_end=25 * parsed.sim.dt)
        state = initial_state(dataclasses.replace(parsed, sim=sim))
        assert params.atwood == -1.0 and sim.grid.node_count == 256
        tol = kernels.FIXED_POINT_TOL
        assert resubstitution_gap(state.curve, state.omega, state.chi, params) <= 10.0 * tol
        summary = run(sim, state)
        assert summary.status == "completed" and summary.steps_completed == 25
