"""Singular-integral core: mirror kernel, principal values, the off-curve oracle."""

import ast
import dataclasses
import os
import signal
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from contourdyn import kernels
from contourdyn.analysis import identity_defect
from contourdyn.cli import initial_state
from contourdyn.config import parse_config, with_grid
from contourdyn.errors import ValidationError
from contourdyn.evolve import step
from contourdyn.geometry import Grid, InterfaceCurve, Model, PhysicalParams
from contourdyn.kernels import VorticityStrength, pv_all_nodes
from contourdyn.muskat import solve_vorticity_equal
from contourdyn.profiles import InitialSpec, build_initial, plateau_window

from support import (
    bump_curve,
    gaussian_strength,
    node_limit,
    one_sided_limits,
    pv_at_node,
    random_smooth_pair,
    traced_peak,
    velocity_at_point,
)


def flat_curve(grid: Grid) -> InterfaceCurve:
    return InterfaceCurve(grid, grid.alpha.copy(), np.ones(grid.node_count))


class TestVelocityAtPoint:
    def test_zero_circulation(self, grid256):
        curve = bump_curve(grid256, 0.2)
        omega = VorticityStrength(grid256, np.zeros(grid256.node_count))
        vel = velocity_at_point(curve, omega, (0.3, 0.2))
        assert np.all(vel == 0.0)

    def test_bottom_impermeability_exact(self, grid256):
        rng = np.random.default_rng(7)
        for _ in range(10):
            curve, omega = random_smooth_pair(grid256, rng)
            for x in rng.uniform(-10.0, 10.0, size=5):
                vel = velocity_at_point(curve, omega, (float(x), 0.0))
                assert abs(vel[1]) <= 1e-14

    def test_point_vortex_with_mirror_limit(self):
        # unit-mass strength shrinking to a point reproduces the closed-form
        # field of a point vortex at (0, 1) plus its mirror at (0, -1)
        g = Grid(10.0, 4096)
        curve = flat_curve(g)
        p = np.array([0.5, 0.3])

        def closed_form():
            out = np.zeros(2)
            for source, sign in (((0.0, 1.0), 1.0), ((0.0, -1.0), -1.0)):
                d = p - np.asarray(source)
                out += sign * np.array([-d[1], d[0]]) / np.dot(d, d)
            return out / (2.0 * np.pi)

        expect = closed_form()
        errs = []
        for sigma in (0.2, 0.1, 0.05):
            om = np.exp(-g.alpha**2 / (2.0 * sigma**2)) / (sigma * np.sqrt(2.0 * np.pi))
            om = np.where(g.band_mask, 0.0, om)
            vel = velocity_at_point(curve, VorticityStrength(g, om), p)
            errs.append(float(np.max(np.abs(vel - expect))))
        assert errs[-1] < 1e-3
        assert errs[0] > errs[-1]

    def test_near_field_refused(self, grid256):
        curve = bump_curve(grid256, 0.2)
        omega = gaussian_strength(grid256)
        with pytest.raises(ValueError, match="inside the collar"):
            velocity_at_point(curve, omega, (0.0, float(curve.z2[grid256.node_count // 2])))

    def test_translation_equivariance(self, grid256):
        curve = bump_curve(grid256, 0.2)
        omega = gaussian_strength(grid256)
        d = 4.4
        shifted = InterfaceCurve(grid256, curve.z1 + d, curve.z2, validate=False)
        v0 = velocity_at_point(curve, omega, (1.0, 0.4))
        v1 = velocity_at_point(shifted, omega, (1.0 + d, 0.4))
        assert np.allclose(v0, v1, rtol=0.0, atol=1e-12)


class TestPvBoundaryIntegral:
    def test_zero_omega(self, grid256):
        curve = bump_curve(grid256, 0.3)
        omega = VorticityStrength(grid256, np.zeros(grid256.node_count))
        u, v = pv_all_nodes(curve, omega)
        assert u[100] == 0.0 and v[100] == 0.0

    def test_flat_constant_window_vertical_vanishes(self, grid512):
        # constant strength on the window: the singular (first) kernel is odd
        # around the evaluation node, and the mirror kernel's vertical part is
        # odd too, so the vertical component cancels to the window tails
        g = grid512
        curve = flat_curve(g)
        w = plateau_window(g.alpha, 6.0, 6.0)
        omega = VorticityStrength(g, 0.7 * w)
        _, v = pv_all_nodes(curve, omega)
        assert abs(v[g.node_count // 2]) <= 1e-10

    def test_against_cauchy_quadrature_oracle(self):
        # flat curve: vertical = (1/2pi) [ PV int om/(a-s) ds - mirror part ],
        # both computable by adaptive quadrature with the Cauchy weight
        g = Grid(20.0, 2048)
        curve = flat_curve(g)
        sigma = 1.3
        om_fun = lambda s: np.exp(-(s**2) / (2.0 * sigma**2))
        om = om_fun(g.alpha)
        om = np.where(g.band_mask, 0.0, om)
        omega = VorticityStrength(g, om)
        j = g.node_count // 2 + 37
        a = float(g.alpha[j])
        pv_part, _ = quad(om_fun, -20.0, 20.0, weight="cauchy", wvar=a, limit=400)
        mirror_v, _ = quad(
            lambda s: (a - s) / ((a - s) ** 2 + 4.0) * om_fun(s), -20.0, 20.0, limit=400
        )
        mirror_u, _ = quad(
            lambda s: 2.0 / ((a - s) ** 2 + 4.0) * om_fun(s), -20.0, 20.0, limit=400
        )
        expect_v = (-pv_part - mirror_v) / (2.0 * np.pi)
        expect_u = mirror_u / (2.0 * np.pi)
        u, v = pv_all_nodes(curve, omega)
        assert v[j] == pytest.approx(expect_v, abs=5e-9)
        assert u[j] == pytest.approx(expect_u, abs=5e-9)

    def test_fine_grid_oracle_perturbed_curve(self):
        # same rule on a 16x refined grid as the reference value
        L = 20.0
        coarse_n, fine_n = 512, 8192
        vals = {}
        for n in (coarse_n, fine_n):
            g = Grid(L, n)
            w = plateau_window(g.alpha, 6.0, 6.0)
            curve = InterfaceCurve(g, g.alpha.copy(), 1.0 + 0.1 * np.cos(g.alpha) * w)
            om = np.exp(-g.alpha**2) * w
            omega = VorticityStrength(g, om)
            j = n // 2 + n // 16  # same alpha on both grids
            vals[n] = np.array(pv_all_nodes(curve, omega))[:, j]
        scale = max(1e-3, float(np.max(np.abs(vals[fine_n]))))
        rel = float(np.max(np.abs(vals[coarse_n] - vals[fine_n]))) / scale
        assert rel <= 1e-4

    def test_self_convergence_order(self):
        vals = {}
        for n in (256, 512, 1024, 4096):
            g = Grid(20.0, n)
            w = plateau_window(g.alpha, 5.0, 5.0)
            curve = InterfaceCurve(g, g.alpha.copy(), 1.0 + 0.1 * np.cos(g.alpha) * w)
            omega = VorticityStrength(g, np.exp(-((g.alpha - 0.4) ** 2)) * w)
            vals[n] = np.array(pv_all_nodes(curve, omega))[:, n // 2 + n // 16]
        ref = vals[4096]
        e1 = float(np.max(np.abs(vals[256] - ref)))
        e2 = float(np.max(np.abs(vals[512] - ref)))
        order = np.log2(e1 / e2)
        assert order >= 2.0

    def test_matches_batched_evaluation(self, grid256):
        # the single-node oracle of the one-sided limits is the program's pv
        curve = bump_curve(grid256, 0.25)
        omega = gaussian_strength(grid256, amplitude=0.8, center=0.7)
        u, v = pv_all_nodes(curve, omega)
        for j in (10, 64, 128, 200):
            vel = pv_at_node(curve, omega, j)
            assert vel[0] == pytest.approx(u[j], rel=1e-13, abs=1e-15)
            assert vel[1] == pytest.approx(v[j], rel=1e-13, abs=1e-15)

    def test_out_of_range_node_rejected(self, grid256):
        curve = bump_curve(grid256, 0.3)
        omega = gaussian_strength(grid256)
        for j in (-1, grid256.node_count):
            with pytest.raises(IndexError):
                pv_at_node(curve, omega, j)
            with pytest.raises(IndexError):
                identity_defect(curve, j)

    def test_grid_mismatch_rejected(self, grid256, grid512):
        curve = bump_curve(grid256, 0.2)
        omega = VorticityStrength(grid512, np.zeros(grid512.node_count))
        with pytest.raises(ValidationError):
            pv_all_nodes(curve, omega)


class TestPlemelj:
    def test_one_sided_limit_consistency(self):
        # off-curve velocity approaches the plus limit at first order in the
        # offset; the grid is fine enough that quadrature error stays beneath
        # the smallest offset
        n, L = 65536, 10.0
        g = Grid(L, n)
        w = plateau_window(g.alpha, 3.0, 3.0)
        curve = InterfaceCurve(g, g.alpha.copy(), 1.0 + 0.2 * np.cos(g.alpha) * w)
        omega = VorticityStrength(g, np.exp(-(g.alpha**2)) * w)
        j = n // 2 + n // 8
        d1x, d1y = curve.d1
        nx, ny = -d1y[j], d1x[j]
        norm = np.hypot(nx, ny)
        nx, ny = nx / norm, ny / norm
        limit, _ = one_sided_limits(curve, omega, j)
        eps_list = np.geomspace(1e-3, 1e-1, 7)
        errs = []
        for eps in eps_list:
            p = (curve.z1[j] + eps * nx, curve.z2[j] + eps * ny)
            vel = velocity_at_point(curve, omega, p)
            errs.append(float(np.max(np.abs(vel - limit))))
        slope = float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0])
        assert slope >= 0.9


@settings(max_examples=15, deadline=None)
@given(shift=st.floats(min_value=-5.0, max_value=5.0))
def test_pv_translation_equivariance(shift):
    g = Grid(20.0, 128)
    w = plateau_window(g.alpha, 5.0, 5.0)
    curve = InterfaceCurve(g, g.alpha.copy(), 1.0 + 0.2 * np.cos(g.alpha) * w)
    omega = VorticityStrength(g, np.exp(-(g.alpha**2)) * w)
    shifted = InterfaceCurve(g, curve.z1 + shift, curve.z2, validate=False)
    v0 = np.array(pv_all_nodes(curve, omega))[:, 64]
    v1 = np.array(pv_all_nodes(shifted, omega))[:, 64]
    assert np.allclose(v0, v1, rtol=0.0, atol=1e-11)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONTRAST = {"mu_plus": 2.0, "mu_minus": 0.5}


def sheet_scale(curve):
    """w z2 / pi, the factor of each source row of the sheet velocity."""
    return curve.grid.trapezoid_weights * curve.z2 / np.pi


def assert_fused_matches_held(curve, omega):
    """The fused pass and the held operator's apply differ only by summation
    order: per node, within sqrt(N) eps of the sum of the absolute terms."""
    op = kernels.node_operator(curve)
    u, v = pv_all_nodes(curve, omega)
    held_u, held_v = pv_all_nodes(curve, omega, op)
    terms = np.abs(omega.omega * sheet_scale(curve)) @ np.abs(op)
    tol = np.sqrt(curve.grid.node_count) * np.finfo(np.float64).eps * terms
    assert np.all(np.abs((u - held_u) - 1j * (v - held_v)) <= tol)
    return np.array((u, v))


class TestOneOperator:
    @pytest.mark.parametrize(
        "config, physics, n, fused, assembled",
        [
            pytest.param("stable_relaxation.cfg", {}, 128, 4, 0, id="equal"),
            pytest.param("stable_relaxation.cfg", CONTRAST, 128, 0, 4, id="contrast"),
            pytest.param("internal_wave.cfg", {}, 128, 0, 4, id="waves"),
            # equal densities (A = 0): the wave closure holds its operator too
            pytest.param("internal_wave.cfg", {"rho_plus": 2.0}, 128, 0, 4, id="waves-equal"),
            # from SPLIT_NODES on each pass runs as two halves, still one pass
            pytest.param("stable_relaxation.cfg", {}, 1024, 4, 0, id="equal-split"),
            pytest.param("stable_relaxation.cfg", CONTRAST, 1024, 0, 4, id="contrast-split"),
        ],
    )
    def test_assemblies_per_step(self, config, physics, n, fused, assembled):
        # one pair pass per distinct curve: a fused pass for each RK stage's
        # one-shot velocity; an operator for each repeatedly applied curve,
        # the Picard solve or the wave closure's omega and velocity (any A)
        # of stages 2-4 and the accepted curve (the initial state holds its k1)
        parsed = with_grid(parse_config(str(CONFIGS / config)), n)
        if physics:
            params = dataclasses.replace(parsed.sim.params, **physics)
            parsed = dataclasses.replace(
                parsed, sim=dataclasses.replace(parsed.sim, params=params)
            )
        state = initial_state(parsed)
        before = dict(kernels.pair_passes)
        step(state, parsed.sim)
        counts = {k: kernels.pair_passes[k] - before[k] for k in before}
        assert counts == {"fused": fused, "assembly": assembled}

    @pytest.mark.parametrize(
        "config, physics, fused, assembled",
        [
            pytest.param("stable_relaxation.cfg", {}, 0, 0, id="equal"),
            pytest.param("stable_relaxation.cfg", CONTRAST, 0, 1, id="contrast"),
            pytest.param("internal_wave.cfg", {}, 0, 1, id="waves"),
            pytest.param("internal_wave.cfg", {"rho_plus": 2.0}, 0, 1, id="waves-equal"),
        ],
    )
    def test_passes_per_initial_state(self, config, physics, fused, assembled):
        # set-up evaluates the initial curve once: a wave state's chi, omega's
        # velocity and chi's rate share one operator
        parsed = with_grid(parse_config(str(CONFIGS / config)), 128)
        params = dataclasses.replace(parsed.sim.params, **physics)
        parsed = dataclasses.replace(parsed, sim=dataclasses.replace(parsed.sim, params=params))
        before = dict(kernels.pair_passes)
        initial_state(parsed)
        counts = {k: kernels.pair_passes[k] - before[k] for k in before}
        assert counts == {"fused": fused, "assembly": assembled}

    def test_held_operator_agrees_with_fused_pass(self, grid256):
        # an operator serves only the curve it was built for: A, B, A
        curve_a = bump_curve(grid256, 0.25)
        curve_b = bump_curve(grid256, -0.2, z1_amp=0.1)
        omega = gaussian_strength(grid256, amplitude=0.8, center=0.7)
        results = [assert_fused_matches_held(c, omega) for c in (curve_a, curve_b, curve_a)]
        assert not np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("config", ["stable_relaxation", "internal_wave", "unstable_pinch"])
    def test_fused_pass_matches_held_operator(self, config, n):
        state = initial_state(with_grid(parse_config(str(CONFIGS / f"{config}.cfg")), n))
        curve, omega = state.curve, state.omega
        if not np.any(omega.omega):  # the wave config starts from rest
            omega = gaussian_strength(curve.grid, amplitude=0.3)
        assert_fused_matches_held(curve, omega)

    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize("config", ["stable_relaxation", "internal_wave", "unstable_pinch"])
    def test_tangential_velocity_matches_pv_dot_tangent(self, config, n):
        # the omega'-free form equals the full velocity dotted with dz/dalpha:
        # per node within sqrt(N) eps of the sum of the absolute terms
        state = initial_state(with_grid(parse_config(str(CONFIGS / f"{config}.cfg")), n))
        curve, omega = state.curve, state.omega
        if not np.any(omega.omega):  # the wave config starts from rest
            omega = gaussian_strength(curve.grid, amplitude=0.3)
        op = kernels.node_operator(curve)
        u, v = pv_all_nodes(curve, omega, op)
        d1x, d1y = curve.d1
        v_dot_t = kernels.tangential_velocity(curve, omega.omega, op)
        limit = node_limit(curve, omega.omega, omega.d1)
        w = curve.grid.trapezoid_weights
        terms = np.abs(omega.omega * sheet_scale(curve)) @ np.abs(op)
        terms += w * np.abs(limit) / (2 * np.pi)
        tol = np.sqrt(n) * np.finfo(np.float64).eps * terms * np.sqrt(curve.speed_squared)
        assert np.all(np.abs(v_dot_t - (u * d1x + v * d1y)) <= tol)

    @pytest.mark.parametrize(
        "config, physics, fused, assembled",
        [
            pytest.param("stable_relaxation.cfg", CONTRAST, 0, 4, id="contrast"),
            pytest.param("internal_wave.cfg", {}, 0, 4, id="waves"),
            pytest.param("internal_wave.cfg", {"rho_plus": 2.0}, 0, 4, id="waves-equal"),
        ],
    )
    def test_second_contrast_step_reuses_accepted_field(self, config, physics, fused, assembled):
        # the accepted state's closure gives its velocity, the next step's k1:
        # three stage passes and the accepted one, operators at every A
        parsed = with_grid(parse_config(str(CONFIGS / config)), 128)
        params = dataclasses.replace(parsed.sim.params, **physics)
        parsed = dataclasses.replace(parsed, sim=dataclasses.replace(parsed.sim, params=params))
        state = step(initial_state(parsed), parsed.sim)
        before = dict(kernels.pair_passes)
        step(state, parsed.sim)
        counts = {k: kernels.pair_passes[k] - before[k] for k in before}
        assert counts == {"fused": fused, "assembly": assembled}

    def test_no_runtime_warnings(self, grid256):
        curve = bump_curve(grid256, 0.3)
        omega = gaussian_strength(grid256, amplitude=0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pv_all_nodes(curve, omega)
            pv_all_nodes(curve, omega, kernels.node_operator(curve))
            kernels.tangential_velocity(curve, omega.omega, kernels.node_operator(curve))
            identity_defect(curve)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double is float64 on this platform",
    )
    @pytest.mark.parametrize("n", [512, 2048])  # two-factor pass; rank-3 far field
    def test_operator_against_long_double_near_bottom(self, n):
        # the two kernels nearly cancel where the curve nears the bottom; the
        # product form R keeps every entry to roundoff, held or fused
        grid = Grid(20.0, n)
        curve, _ = build_initial(InitialSpec(profile="pinch", delta=1e-3, window_ramp=4.0), grid)
        op = kernels.node_operator(curve)
        omega = solve_vorticity_equal(curve, PhysicalParams(model=Model.MUSKAT))
        z = curve.z.astype(np.clongdouble)
        w = grid.trapezoid_weights.astype(np.longdouble)
        density = omega.omega * w * z.imag / np.longdouble(np.pi)
        rel, ref_sum, scale = 0.0, w * node_limit(curve, omega.omega, omega.d1) * kernels.INV_2PI_I, 0.0
        for rows in np.array_split(np.arange(n), n // 256):  # source rows, 256 at a time
            first = z - z[rows, None]
            first[np.arange(rows.size), rows] = np.inf  # punctured: the reciprocal gives 0
            pair = 1.0 / first - 1.0 / (z - np.conj(z)[rows, None])
            ref = pair / (z - np.conj(z))[rows, None]  # R = the kernel difference over z_k - zbar_k
            rel = max(rel, float(np.max(np.abs(op[rows] - ref) / np.abs(ref))))
            ref_sum = ref_sum + density[rows] @ ref
            scale = scale + np.abs(density[rows]) @ np.abs(ref)
        assert rel <= 1e-14
        # the fused pass against the summed reference, per node relative to
        # the sum of its absolute terms; both add the same diagonal limit
        u, v = pv_all_nodes(curve, omega)
        assert float(np.max(np.abs((u - 1j * v) - ref_sum) / scale)) <= 1e-14

    def test_far_field_pass_peak(self):
        # from FAR_NODES on a fused pass holds one row buffer per half and a
        # mirror as wide as the near band: 1.53 MB here.  The two-factor pass,
        # with two full-width planes per half, peaked at 1.76 MB on this curve
        n = 2048
        curve = bump_curve(Grid(20.0, n), 0.3)
        omega = gaussian_strength(curve.grid, amplitude=0.8)
        pv_all_nodes(curve, omega)  # the curve's cached geometry and the helper thread
        assert traced_peak(pv_all_nodes, curve, omega) <= 1.76e6

    def test_assembly_peak_is_one_operator(self):
        n = 1024
        curve = bump_curve(Grid(20.0, n), 0.3)
        peak = traced_peak(kernels.node_operator, curve)
        assert peak < 1.1 * 16 * n * n

    def test_step_peak_is_one_operator(self):
        # a viscosity contrast holds one operator at a time, never two
        n = 1024
        parsed = with_grid(parse_config(str(CONFIGS / "stable_relaxation.cfg")), n)
        params = dataclasses.replace(parsed.sim.params, mu_plus=2.0, mu_minus=0.5)
        parsed = dataclasses.replace(parsed, sim=dataclasses.replace(parsed.sim, params=params))
        state = initial_state(parsed)
        peak = traced_peak(step, state, parsed.sim)
        assert peak < 1.25 * 16 * n * n

    def test_equal_viscosity_step_memory_is_linear(self):
        # no operator is stored: a step's peak is a few (block, N) buffers
        n = 4096
        parsed = with_grid(parse_config(str(CONFIGS / "stable_relaxation.cfg")), n)
        state = initial_state(parsed)
        peak = traced_peak(step, state, parsed.sim)
        assert peak < 16 * n * n / 16


def off_main_thread(fn):
    """kernels._sheet_rows that first calls fn() when run off the main thread."""
    sheet_rows = kernels._sheet_rows

    def wrapped(*args):
        if threading.current_thread() is not threading.main_thread():
            fn()
        return sheet_rows(*args)

    return wrapped


class TestSplitPass:
    # from SPLIT_NODES on, a pair pass runs the upper half of its target
    # columns on a helper thread, cut at a multiple of the block height: 64
    # rows at N = 256, 32 from 512 on; 2056 / 2 is not a multiple of 32
    @pytest.mark.parametrize("n", [256, 512, 1024, 2048, 2056])
    @pytest.mark.parametrize("config", ["stable_relaxation", "internal_wave", "unstable_pinch"])
    def test_bit_identical_to_one_thread(self, config, n, monkeypatch):
        state = initial_state(with_grid(parse_config(str(CONFIGS / f"{config}.cfg")), n))
        curve, omega = state.curve, state.omega
        if not np.any(omega.omega):  # the wave config starts from rest
            omega = gaussian_strength(curve.grid, amplitude=0.3)
        passes = {}
        for split_nodes in (0, 10**9):  # split at any N, then never
            monkeypatch.setattr(kernels, "SPLIT_NODES", split_nodes)
            op = kernels.node_operator(curve)
            passes[split_nodes] = (op, pv_all_nodes(curve, omega), pv_all_nodes(curve, omega, op))
        (split_op, *split), (op, *one) = passes.values()
        assert np.array_equal(split_op, op)
        assert all(np.array_equal(a, b) for a, b in zip(split, one))

    @pytest.mark.parametrize("kind", ["fused", "assembly"])
    def test_helper_error_reaches_the_caller(self, kind, monkeypatch):
        # a RuntimeWarning promoted to an error in the helper's half only
        def warn():
            warnings.warn("raised in the helper's half", RuntimeWarning)

        monkeypatch.setattr(kernels, "_sheet_rows", off_main_thread(warn))
        curve = bump_curve(Grid(20.0, 1024), 0.3)
        omega = gaussian_strength(curve.grid, amplitude=0.8)
        with warnings.catch_warnings(), pytest.raises(RuntimeWarning, match="helper's half"):
            warnings.simplefilter("error")
            if kind == "fused":
                pv_all_nodes(curve, omega)
            else:
                kernels.node_operator(curve)

    def test_helper_runs_in_the_callers_errstate(self, monkeypatch):
        divide_by_zero = off_main_thread(lambda: np.reciprocal(np.zeros(1)))
        monkeypatch.setattr(kernels, "_sheet_rows", divide_by_zero)
        curve = bump_curve(Grid(20.0, 1024), 0.3)
        omega = gaussian_strength(curve.grid, amplitude=0.8)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            pv_all_nodes(curve, omega)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_helper(self, monkeypatch):
        # the parent's helper thread is not copied into a forked child
        monkeypatch.setattr(kernels, "SPLIT_NODES", 0)
        curve = bump_curve(Grid(20.0, 256), 0.3)
        omega = gaussian_strength(curve.grid, amplitude=0.8)
        expected = pv_all_nodes(curve, omega)  # the helper runs in this process
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with a live thread
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(pv_all_nodes(curve, omega), expected) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


class TestSource:
    def test_pair_pass_is_the_only_block_walk(self):
        # a pair pass and an apply of the held operator are the only O(N^2)
        # walks: no closure reads the operator's rows a block at a time
        package = Path(kernels.__file__).parent
        callers = set()
        for path in package.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for f in ast.walk(tree):
                if isinstance(f, ast.FunctionDef) and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_blocks"
                    for n in ast.walk(f)
                ):
                    callers.add(f"{path.stem}.{f.name}")
        assert callers == {"kernels._pair_pass"}
