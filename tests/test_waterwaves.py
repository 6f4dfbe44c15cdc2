"""Sheet-strength evolution for the irrotational two-phase system."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from contourdyn import kernels
from contourdyn.cli import initial_state
from contourdyn.config import parse_config
from contourdyn.errors import ValidationError
from contourdyn.geometry import Grid, InterfaceCurve, Model, PhysicalParams
from contourdyn.kernels import (
    VorticityStrength,
    node_operator,
    pv_all_nodes,
    tangential_velocity,
    tangential_velocity_rate,
)
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
        rate, _ = omega_rhs(*flat_state(grid256), wave_params())
        assert np.all(rate == 0.0)

    def test_gravity_dominated_rate(self, grid256):
        # omega = 0, amplitude a: rate = 2 A g d(z2)/dalpha + O(a^2)
        params = wave_params()
        curve = bump_curve(grid256, 0.1)
        rate, _ = omega_rhs(curve, VorticityStrength(grid256, np.zeros(grid256.node_count)), params)
        inner = np.abs(grid256.alpha) <= 4.0
        expect = -0.1 * np.sin(grid256.alpha)
        assert np.max(np.abs(rate[inner] - expect[inner])) <= 2e-2

    def test_zero_atwood(self, grid256):
        params = wave_params(rho_plus=1.0, rho_minus=1.0, g=2.0)
        rate, _ = omega_rhs(*wave_state(grid256, 0.2, 0.3), params)
        # A = 0, gamma = 0, c = 0: the bracket vanishes identically
        assert np.allclose(rate, 0.0, atol=1e-12)

    def test_rate_decays_far_out(self, grid256):
        # the transport part is identically zero on the bands; the implicit
        # term leaves only the O(1/distance^2) far-field residue there, which
        # the integrator's mask suppresses
        params = wave_params()
        rate, _ = omega_rhs(*wave_state(grid256, 0.1, 0.2), params)
        band = grid256.band_mask
        assert np.max(np.abs(rate[band])) <= 1e-2 * np.max(np.abs(rate))

    def test_velocity_is_an_apply_of_the_operator(self, grid256):
        # A != 0: one assembly, and the velocity is that operator's apply, bit
        # for bit; A = 0: no operator, and the velocity is one fused pass
        curve, omega = wave_state(grid256)
        for params, fused, assembled, expect in (
            (wave_params(), 0, 1, lambda: pv_all_nodes(curve, omega, node_operator(curve))),
            (wave_params(rho_plus=1.0, rho_minus=1.0), 1, 0, lambda: pv_all_nodes(curve, omega)),
        ):
            before = dict(kernels.pair_passes)
            _, (u, v) = omega_rhs(curve, omega, params)
            counts = {k: kernels.pair_passes[k] - before[k] for k in before}
            assert counts == {"fused": fused, "assembly": assembled}
            ref_u, ref_v = expect()
            assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)

    def test_rate_resubstitutes(self, grid256):
        # the converged rate solves (I - 2A T.K) rate = explicit + 2A d_zdot(V . T)
        params = wave_params()
        curve, omega = wave_state(grid256)
        rate, velocity = omega_rhs(curve, omega, params, tol=1e-12)
        assert resubstitution_gap(curve, omega, params, rate, velocity) <= 1e-10

    def test_warm_start(self, grid256):
        # from a nearby state's rate the same stop rule resubstitutes to
        # 10 tol, the Muskat residual bound, and lands on the cold rate
        params = wave_params()
        curve, omega = wave_state(grid256)
        nearby = (bump_curve(grid256, 0.045), gaussian_strength(grid256, amplitude=0.11))
        tol = 1e-10
        cold, velocity = omega_rhs(curve, omega, params, tol=tol)
        guess, _ = omega_rhs(*nearby, params, tol=tol)
        warm, _ = omega_rhs(curve, omega, params, tol=tol, guess=guess)
        assert resubstitution_gap(curve, omega, params, warm, velocity) <= 10.0 * tol
        assert np.max(np.abs(warm - cold)) <= 1e-9

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_rejects_bad_tolerance(self, grid256, tol):
        with pytest.raises(ValidationError):
            omega_rhs(*wave_state(grid256), wave_params(), tol=tol)

    @pytest.mark.parametrize("guess", [np.zeros(255), np.full(256, np.nan), np.full(256, np.inf)])
    def test_rejects_bad_guess(self, grid256, guess):
        with pytest.raises(ValidationError):
            omega_rhs(*wave_state(grid256), wave_params(), guess=guess)

    def test_rejects_mismatched_grids(self, grid256):
        curve = bump_curve(grid256, 0.05)
        omega = gaussian_strength(Grid(20.0, 128), amplitude=0.1)
        with pytest.raises(ValidationError):
            omega_rhs(curve, omega, wave_params())


class TestFreeSurface:
    def test_free_surface_runs(self):
        # rho_+ = 0 (A = -1), the classical water wave: the rate's fixed-point
        # map contracts by about 0.9 per iteration, so a cold solve takes up
        # to 96 of kernels.MAX_FIXED_POINT_ITER iterations
        parsed = parse_config(str(CONFIGS / "internal_wave.cfg"))
        params = dataclasses.replace(parsed.sim.params, rho_plus=0.0)
        sim = dataclasses.replace(parsed.sim, params=params, t_end=25 * parsed.sim.dt)
        state = initial_state(dataclasses.replace(parsed, sim=sim))
        assert params.atwood == -1.0 and sim.grid.node_count == 256
        tol = kernels.FIXED_POINT_TOL
        rate, velocity = omega_rhs(state.curve, state.omega, params, tol=tol)
        assert resubstitution_gap(state.curve, state.omega, params, rate, velocity) <= 10.0 * tol
        summary = run(sim, state)
        assert summary.status == "completed" and summary.steps_completed == 25


class TestTangentialVelocityRate:
    @pytest.mark.parametrize("amplitude, omega_amp", [(0.1, 0.3), (-0.4, 0.8)])
    def test_matches_centred_difference(self, grid256, amplitude, omega_amp):
        # d/dt of V . T as the nodes move with the velocity at fixed omega:
        # a centred difference over node_operator(z +/- eps zdot) converges at eps^2
        curve = bump_curve(grid256, amplitude, z1_amp=0.1)
        omega = gaussian_strength(grid256, amplitude=omega_amp, center=0.4)
        op = node_operator(curve)
        u, v = pv_all_nodes(curve, omega, op)
        exact = tangential_velocity_rate(curve, omega.omega, (u, v), op)
        errors = []
        for eps in (1e-2, 1e-3):
            moved = [
                InterfaceCurve(grid256, curve.z1 + s * eps * u, curve.z2 + s * eps * v, validate=False)
                for s in (1.0, -1.0)
            ]
            plus, minus = (tangential_velocity(c, omega.omega, node_operator(c)) for c in moved)
            errors.append(np.max(np.abs((plus - minus) / (2.0 * eps) - exact)) / np.max(np.abs(exact)))
        assert errors[1] <= 1e-8
        assert errors[0] / errors[1] >= 50.0  # second order: 100x per decade

    def test_zero_velocity_or_strength(self, grid256):
        curve = bump_curve(grid256, 0.2)
        omega = gaussian_strength(grid256, amplitude=0.5)
        op = node_operator(curve)
        zero = np.zeros(grid256.node_count)
        assert np.all(tangential_velocity_rate(curve, omega.omega, (zero, zero), op) == 0.0)
        velocity = pv_all_nodes(curve, omega, op)
        assert np.all(tangential_velocity_rate(curve, zero, velocity, op) == 0.0)
