"""Sheet-strength evolution for the irrotational two-phase system."""

import numpy as np
import pytest

from contourdyn.errors import ValidationError
from contourdyn.geometry import Grid, InterfaceCurve, Model, PhysicalParams
from contourdyn.kernels import VorticityStrength, pv_all_nodes
from contourdyn.waterwaves import WaveState, bracket_term, omega_rhs

from support import bump_curve, gaussian_strength


def wave_params(**kw) -> PhysicalParams:
    defaults = dict(rho_plus=3.0, rho_minus=1.0, g=1.0, gamma=0.0)  # Atwood 0.5
    defaults.update(kw)
    return PhysicalParams(model=Model.WATER_WAVES, **defaults)


def flat_state(grid: Grid) -> WaveState:
    curve = InterfaceCurve(grid, grid.alpha.copy(), np.ones(grid.node_count))
    return WaveState(curve, VorticityStrength(grid, np.zeros(grid.node_count)))


class TestBracket:
    def test_flat_is_constant(self, grid256):
        state = flat_state(grid256)
        params = wave_params()
        bracket = bracket_term(state, params)
        expect = -2.0 * params.atwood * params.g * 1.0
        assert np.allclose(bracket, expect, atol=1e-13)

    def test_gravity_term_closed_form(self, grid256):
        params = wave_params()
        curve = bump_curve(grid256, 0.1)
        state = WaveState(curve, VorticityStrength(grid256, np.zeros(grid256.node_count)))
        bracket = bracket_term(state, params)
        # omega = 0 kills every velocity term: only -2 A g z2 remains
        expect = -2.0 * params.atwood * params.g * curve.z2
        assert np.allclose(bracket, expect, atol=1e-13)

    def test_quadratic_scaling_in_omega(self, grid256):
        params = wave_params(g=0.0)
        curve = bump_curve(grid256, 0.1)
        om1 = gaussian_strength(grid256, amplitude=0.4)
        om2 = gaussian_strength(grid256, amplitude=0.8)
        b1 = bracket_term(WaveState(curve, om1), params)
        b2 = bracket_term(WaveState(curve, om2), params)
        # with g = gamma = 0 and c = 0 every surviving term is quadratic
        assert np.allclose(b2, 4.0 * b1, rtol=1e-10, atol=1e-14)

    def test_requires_wave_params(self, grid256):
        state = flat_state(grid256)
        with pytest.raises(ValidationError):
            bracket_term(state, PhysicalParams(model=Model.MUSKAT))


class TestOmegaRhs:
    def test_flat_equilibrium(self, grid256):
        rate = omega_rhs(flat_state(grid256), wave_params(), dt_probe=0.01)
        assert np.all(rate == 0.0)

    def test_gravity_dominated_rate(self, grid256):
        # omega = 0, amplitude a: rate = 2 A g d(z2)/dalpha + O(a^2)
        params = wave_params()
        curve = bump_curve(grid256, 0.1)
        state = WaveState(curve, VorticityStrength(grid256, np.zeros(grid256.node_count)))
        rate = omega_rhs(state, params, dt_probe=0.01)
        inner = np.abs(grid256.alpha) <= 4.0
        expect = -0.1 * np.sin(grid256.alpha)
        assert np.max(np.abs(rate[inner] - expect[inner])) <= 2e-2

    def test_zero_atwood(self, grid256):
        params = wave_params(rho_plus=1.0, rho_minus=1.0, g=2.0)
        curve = bump_curve(grid256, 0.2)
        state = WaveState(curve, gaussian_strength(grid256, amplitude=0.3))
        rate = omega_rhs(state, params, dt_probe=0.01)
        # A = 0, gamma = 0, c = 0: the bracket vanishes identically
        assert np.allclose(rate, 0.0, atol=1e-12)

    def test_rate_decays_far_out(self, grid256):
        # the transport part is identically zero on the bands; the implicit
        # term leaves only the O(1/distance^2) far-field residue there, which
        # the integrator's mask suppresses
        params = wave_params()
        curve = bump_curve(grid256, 0.1)
        state = WaveState(curve, gaussian_strength(grid256, amplitude=0.2))
        rate = omega_rhs(state, params, dt_probe=0.01)
        band = grid256.band_mask
        assert np.max(np.abs(rate[band])) <= 1e-2 * np.max(np.abs(rate))

    def test_bad_probe(self, grid256):
        with pytest.raises(ValidationError):
            omega_rhs(flat_state(grid256), wave_params(), dt_probe=0.0)

    def test_implicit_iteration_contracts(self, grid256):
        # the converged rate reproduces itself under one more substitution
        params = wave_params()
        curve = bump_curve(grid256, 0.05)
        omega = gaussian_strength(grid256, amplitude=0.1)
        state = WaveState(curve, omega)
        dt_probe = 0.01
        rate = omega_rhs(state, params, dt_probe=dt_probe, tol=1e-12)
        u, v = pv_all_nodes(curve, omega)
        d1x, d1y = curve.d1
        b0 = u * d1x + v * d1y
        probe_curve = InterfaceCurve(
            grid256, curve.z1 + dt_probe * u, curve.z2 + dt_probe * v, validate=False
        )
        probe_omega = VorticityStrength(grid256, omega.omega + dt_probe * rate, validate=False)
        up, vp = pv_all_nodes(probe_curve, probe_omega)
        d1xp, d1yp = probe_curve.d1
        bp = up * d1xp + vp * d1yp
        from contourdyn.geometry import fd_derivative
        from contourdyn.waterwaves import bracket_term as bt

        explicit = -fd_derivative(bt(state, params), grid256.spacing, 1)
        resub = explicit + 2.0 * params.atwood * (bp - b0) / dt_probe
        assert np.max(np.abs(resub - rate)) <= 1e-10
