"""Darcy vorticity closure: closed forms, Picard solve, dense oracle."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from contourdyn.cli import initial_state
from contourdyn.config import parse_config, with_grid
from contourdyn.errors import ValidationError
from contourdyn.geometry import (
    Grid,
    InterfaceCurve,
    Model,
    PhysicalParams,
    far_field_mask,
)
from contourdyn.kernels import node_operator
from contourdyn.muskat import (
    solve_vorticity,
    solve_vorticity_equal,
    solve_vorticity_general,
    vorticity_rhs,
)
from contourdyn.profiles import plateau_window

from support import full_velocity_map

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def trig_curve(n: int, amplitude: float = 0.1) -> InterfaceCurve:
    g = Grid(half_width=8.0 * np.pi, node_count=n)
    w = plateau_window(g.alpha, 6.0, 6.0)
    return InterfaceCurve(g, g.alpha.copy(), 1.0 + amplitude * np.cos(g.alpha) * w)


def muskat_params(**kw) -> PhysicalParams:
    defaults = dict(mu_plus=1.0, mu_minus=1.0, rho_plus=1.0, rho_minus=2.0, g=1.0, gamma=0.0)
    defaults.update(kw)
    return PhysicalParams(model=Model.MUSKAT, **defaults)


def dense_oracle(curve: InterfaceCurve, params: PhysicalParams) -> np.ndarray:
    """Direct dense solve of the masked discrete closure, assembled from scratch.

    Writes the punctured-trapezoid velocity (with its diagonal limit term) as
    an explicit matrix acting on omega and solves the resulting linear system,
    independently of the package's Picard iteration.
    """
    g = curve.grid
    n = g.node_count
    z1, z2 = curve.z1, curve.z2
    d1x, d1y = curve.d1
    d2x, d2y = curve.d2
    w = g.trapezoid_weights
    dx = z1[:, None] - z1[None, :]
    dy = z2[:, None] - z2[None, :]
    r2 = dx**2 + dy**2
    np.fill_diagonal(r2, 1.0)
    sy = z2[:, None] + z2[None, :]
    r2_im = dx**2 + sy**2
    ku = -dy / r2
    kv = dx / r2
    np.fill_diagonal(ku, 0.0)
    np.fill_diagonal(kv, 0.0)
    ku_im = -sy / r2_im
    kv_im = dx / r2_im
    # V . T as a matrix on omega samples, including the diagonal limits
    q0 = d1x**2 + d1y**2
    q1 = d1x * d2x + d1y * d2y
    dom_stencil = np.zeros((n, n))
    h = g.spacing
    for j in range(2, n - 2):
        dom_stencil[j, j - 2 : j + 3] = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    band = min(8, n // 2)
    dom_stencil[:band, :] = 0.0
    dom_stencil[n - band :, :] = 0.0
    mat_u = (ku - ku_im) * w[None, :]
    mat_v = (kv - kv_im) * w[None, :]
    # diagonal limit: R = (-om' dzperp + om (dzperp q1/q0 - d2zperp/2)) / q0
    for j in range(n):
        coef_u = ((-d1y[j]) * q1[j] / q0[j] - 0.5 * (-d2y[j])) / q0[j]
        coef_v = (d1x[j] * q1[j] / q0[j] - 0.5 * d2x[j]) / q0[j]
        mat_u[j, j] += w[j] * coef_u
        mat_v[j, j] += w[j] * coef_v
        mat_u[j, :] += w[j] * (-(-d1y[j]) / q0[j]) * dom_stencil[j, :]
        mat_v[j, :] += w[j] * (-(d1x[j]) / q0[j]) * dom_stencil[j, :]
    v_dot_t = (d1x[:, None] * mat_u + d1y[:, None] * mat_v) / (2.0 * np.pi)
    mask = far_field_mask(g)
    rhs = mask * vorticity_rhs(curve, params)
    system = params.viscosity_mean * np.eye(n) - params.viscosity_jump * (
        mask[:, None] * v_dot_t
    )
    return np.linalg.solve(system, rhs)


class TestVorticityRhs:
    def test_flat_zero(self):
        g = Grid(20.0, 256)
        flat = InterfaceCurve(g, g.alpha.copy(), np.ones(g.node_count))
        assert np.allclose(vorticity_rhs(flat, muskat_params(gamma=0.5)), 0.0, atol=1e-13)

    def test_gravity_term_closed_form(self):
        curve = trig_curve(512)
        params = muskat_params(rho_plus=2.0, rho_minus=1.0, g=1.0)  # [rho] g = 1
        rhs = vorticity_rhs(curve, params)
        g = curve.grid
        inner = np.abs(g.alpha) <= 5.0
        expect = -0.1 * np.sin(g.alpha)
        assert np.allclose(rhs[inner], expect[inner], atol=1e-8)

    def test_curvature_term_hand_derivative(self):
        # gamma = 1, g = 0: rhs = d(kappa)/dalpha with
        # kappa = -0.1 cos(a) (1 + 0.01 sin^2 a)^(-3/2)
        curve = trig_curve(512)
        params = muskat_params(rho_plus=1.0, rho_minus=1.0, g=0.0, gamma=1.0)
        rhs = vorticity_rhs(curve, params)
        g = curve.grid
        s, c = np.sin(g.alpha), np.cos(g.alpha)
        q = 1.0 + 0.01 * s**2
        expect = 0.1 * s * q**-1.5 + 0.003 * s * c**2 * q**-2.5
        inner = np.abs(g.alpha) <= 5.0
        h = g.spacing
        assert np.max(np.abs(rhs[inner] - expect[inner])) <= 50.0 * h**3


class TestEqualViscosity:
    def test_flat_zero(self):
        g = Grid(20.0, 256)
        flat = InterfaceCurve(g, g.alpha.copy(), np.ones(g.node_count))
        omega = solve_vorticity_equal(flat, muskat_params())
        assert np.all(omega.omega == 0.0)

    def test_closed_form(self):
        curve = trig_curve(512)
        params = muskat_params(mu_plus=2.0, mu_minus=2.0, rho_plus=2.0, rho_minus=1.0)
        omega = solve_vorticity_equal(curve, params)
        g = curve.grid
        inner = np.abs(g.alpha) <= 5.0
        expect = -0.05 * np.sin(g.alpha)  # rhs / mu with [rho] g = 1, mu = 2
        assert np.allclose(omega.omega[inner], expect[inner], atol=1e-8)

    def test_linearity(self):
        curve = trig_curve(512)
        p1 = muskat_params(rho_plus=2.0, rho_minus=1.0)
        p2 = muskat_params(rho_plus=3.0, rho_minus=1.0)  # doubled [rho] g
        om1 = solve_vorticity_equal(curve, p1)
        om2 = solve_vorticity_equal(curve, p2)
        assert np.allclose(om2.omega, 2.0 * om1.omega, rtol=1e-12, atol=1e-15)

    def test_rejects_contrast(self):
        curve = trig_curve(512)
        with pytest.raises(ValidationError):
            solve_vorticity_equal(curve, muskat_params(mu_plus=2.0))


class TestGeneralViscosity:
    def test_zero_jump_matches_equal(self):
        curve = trig_curve(256)
        params = muskat_params()
        om_eq = solve_vorticity_equal(curve, params)
        om_gen = solve_vorticity_general(curve, params)
        assert np.allclose(om_gen.omega, om_eq.omega, atol=1e-14)
        assert om_gen.iterations == 1  # a zero jump makes the first update exact

    def test_flat_any_contrast(self):
        g = Grid(20.0, 256)
        flat = InterfaceCurve(g, g.alpha.copy(), np.ones(g.node_count))
        omega = solve_vorticity_general(flat, muskat_params(mu_plus=5.0, mu_minus=0.5))
        assert np.all(omega.omega == 0.0)

    @pytest.mark.parametrize("mu_plus,mu_minus", [(1.1, 0.9), (2.0, 1.0)])
    def test_against_dense_oracle(self, mu_plus, mu_minus):
        g = Grid(20.0, 256)
        w = plateau_window(g.alpha, 5.0, 5.0)
        curve = InterfaceCurve(g, g.alpha.copy(), 1.0 + 0.1 * np.cos(g.alpha) * w)
        params = muskat_params(mu_plus=mu_plus, mu_minus=mu_minus)
        got = solve_vorticity_general(curve, params, tol=1e-12)
        expect = dense_oracle(curve, params)
        assert np.max(np.abs(got.omega - expect)) <= 1e-8

    @staticmethod
    def trough(amplitude: float) -> InterfaceCurve:
        g = Grid(20.0, 256)
        w = plateau_window(g.alpha, 5.0, 5.0)
        return InterfaceCurve(g, g.alpha.copy(), 1.0 + amplitude * np.cos(g.alpha) * w)

    def test_residual_bound(self):
        curve = self.trough(0.2)
        params = muskat_params(mu_plus=1.5, mu_minus=0.75)
        tol = 1e-10
        omega = solve_vorticity_general(curve, params, tol=tol)
        residual = np.max(np.abs(omega.omega - full_velocity_map(curve, params, omega.omega)))
        assert residual <= 10.0 * tol

    def test_warm_start(self):
        # from a nearby curve's strength the same stop rule meets the same
        # bound in fewer iterations and lands on the cold solution
        curve = self.trough(0.2)
        params = muskat_params(mu_plus=1.5, mu_minus=0.75)
        tol = 1e-10
        cold = solve_vorticity_general(curve, params, tol=tol)
        guess = solve_vorticity_general(self.trough(0.19), params, tol=tol).omega
        warm = solve_vorticity_general(curve, params, tol=tol, guess=guess)
        residual = np.max(np.abs(warm.omega - full_velocity_map(curve, params, warm.omega)))
        assert residual <= 10.0 * tol
        assert np.max(np.abs(warm.omega - cold.omega)) <= 1e-9
        assert warm.iterations < cold.iterations

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValidationError):
            solve_vorticity_general(self.trough(0.2), muskat_params(mu_plus=2.0), tol=tol)

    @pytest.mark.parametrize("guess", [np.zeros(255), np.full(256, np.nan), np.full(256, np.inf)])
    def test_rejects_bad_guess(self, guess):
        with pytest.raises(ValidationError):
            solve_vorticity_general(self.trough(0.2), muskat_params(mu_plus=2.0), guess=guess)

    def test_contraction_observed(self):
        # successive Picard updates decay roughly geometrically with ratio
        # below the viscosity contrast
        g = Grid(20.0, 256)
        w = plateau_window(g.alpha, 5.0, 5.0)
        curve = InterfaceCurve(g, g.alpha.copy(), 1.0 + 0.1 * np.cos(g.alpha) * w)
        params = muskat_params(mu_plus=2.0, mu_minus=1.0)
        om = far_field_mask(g) * vorticity_rhs(curve, params) / params.viscosity_mean
        diffs = []
        for _ in range(6):
            new = full_velocity_map(curve, params, om)
            diffs.append(float(np.max(np.abs(new - om))))
            om = new
        contrast = abs(params.viscosity_jump) / (2.0 * params.viscosity_mean)
        ratios = [diffs[k + 1] / diffs[k] for k in range(len(diffs) - 1) if diffs[k] > 0]
        assert max(ratios) <= contrast + 0.1

    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("mu_plus,mu_minus", [(2.0, 0.5), (1.1, 0.9), (5.0, 0.5)])
    def test_iterations_match_full_velocity_map(self, mu_plus, mu_minus, n):
        # the tangential form changes the map's roundoff only: the iteration
        # count equals that of a loop dotting the full velocity with the tangent
        parsed = with_grid(parse_config(str(CONFIGS / "stable_relaxation.cfg")), n)
        curve = initial_state(parsed).curve
        params = dataclasses.replace(parsed.sim.params, mu_plus=mu_plus, mu_minus=mu_minus)
        op = node_operator(curve)
        om = far_field_mask(curve.grid) * vorticity_rhs(curve, params) / params.viscosity_mean
        for reference in range(1, 201):
            new = full_velocity_map(curve, params, om, op)
            diff = float(np.max(np.abs(new - om)))
            om = new
            if diff <= 1e-10:
                break
        omega = solve_vorticity_general(curve, params, operator=op)
        assert omega.iterations == reference
        assert np.max(np.abs(omega.omega - om)) <= 1e-13 * np.max(np.abs(om))

    def test_omega_inherits_decay(self):
        g = Grid(20.0, 256)
        w = plateau_window(g.alpha, 5.0, 5.0)
        curve = InterfaceCurve(g, g.alpha.copy(), 1.0 + 0.2 * np.cos(g.alpha) * w)
        omega = solve_vorticity_general(curve, muskat_params(mu_plus=2.0, mu_minus=1.0))
        band = g.band_mask
        assert np.max(np.abs(omega.omega[band])) <= 1e-10


class TestSolveVorticity:
    def test_equal_viscosity_holds_no_operator(self):
        curve = trig_curve(256)
        params = muskat_params()
        omega, operator = solve_vorticity(curve, params)
        assert operator is None
        assert np.array_equal(omega.omega, solve_vorticity_equal(curve, params).omega)

    def test_contrast_returns_the_curves_operator(self):
        # the operator the Picard solve built comes back, bit for bit node_operator's
        curve = TestGeneralViscosity.trough(0.2)
        params = muskat_params(mu_plus=2.0, mu_minus=0.5)
        omega, operator = solve_vorticity(curve, params)
        assert np.array_equal(operator, node_operator(curve))
        reference = solve_vorticity_general(curve, params, operator=operator)
        assert np.array_equal(omega.omega, reference.omega)
