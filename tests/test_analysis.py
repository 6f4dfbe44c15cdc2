"""Depth-rate quadrature, band decomposition, flux identity, bound fitting."""

import numpy as np
import pytest
from scipy.integrate import quad

from contourdyn import analysis
from contourdyn.analysis import (
    BLOWUP_CAP,
    continuation_report,
    depth_rate,
    fit_double_exponential,
    identity_defect,
    log_bound_ratio,
)
from contourdyn.errors import FitFailure, OutOfRegime
from contourdyn.geometry import Grid, InterfaceCurve, Model, PhysicalParams, min_depth
from contourdyn.kernels import VorticityStrength
from contourdyn.muskat import solve_vorticity_equal
from contourdyn.profiles import InitialSpec, build_initial, plateau_window

from support import (
    bump_curve,
    gaussian_strength,
    node_limit,
    p_form_depth_rate,
    pair_identity,
    random_smooth_pair,
    scipy_double_exponential,
)


def flat_curve(grid: Grid) -> InterfaceCurve:
    return InterfaceCurve(grid, grid.alpha.copy(), np.ones(grid.node_count))


def pinch_curve(grid: Grid, delta: float) -> InterfaceCurve:
    curve, _ = build_initial(InitialSpec(profile="pinch", delta=delta, window_ramp=4.0), grid)
    return curve


class TestDepthRate:
    def test_flat_constant_window_is_odd(self, grid512):
        curve = flat_curve(grid512)
        w = plateau_window(grid512.alpha, 6.0, 6.0)
        omega = VorticityStrength(grid512, 0.8 * w)
        # evaluate at the window center, where the integrand is odd; the
        # leftover is the O(h^2/L^2) trapezoid floor at the truncation ends
        dmdt, diag = depth_rate(curve, omega, alpha_star=0.0)
        assert abs(diag.J) <= 1e-6
        assert abs(dmdt) <= 1e-6

    def test_partition_exact(self, grid256):
        rng = np.random.default_rng(3)
        for _ in range(5):
            curve = bump_curve(grid256, float(rng.uniform(-0.5, 0.5)))
            omega = gaussian_strength(grid256, amplitude=float(rng.uniform(-2, 2)),
                                      center=float(rng.uniform(-2, 2)))
            _, diag = depth_rate(curve, omega)
            assert abs(diag.J - (diag.J_m + diag.J_1 + diag.J_inf)) <= 1e-12 * (1.0 + abs(diag.J))

    def test_matches_p_form_oracle(self):
        # the shared product-form row and diagonal limit against the real
        # P form with its hand-derived limit: 26 pinch depths with alpha* at
        # the argmin (a node), at the node, a sliver past it and between
        # nodes, and random bumps at N = 256-4096 with alpha* at the argmin
        # or at its node, where the limit of an asymmetric strength is complex
        params = PhysicalParams(model=Model.MUSKAT, rho_plus=2.0 * np.pi, rho_minus=0.0)
        cases = []
        for delta in np.geomspace(0.3, 1e-3, 26):
            curve = pinch_curve(Grid(20.0, 2048), float(delta))
            omega = solve_vorticity_equal(curve, params)
            md = min_depth(curve)
            h = curve.grid.spacing
            node = float(curve.grid.alpha[md.index])
            stars = (md.alpha_star, node, node + 4e-4 * h, md.alpha_star + 0.37 * h)
            cases += [(curve, omega, a_star) for a_star in stars]
        rng = np.random.default_rng(13)
        for n in (256, 512, 1024, 2048, 4096):
            for k in range(8):
                curve, omega = random_smooth_pair(Grid(20.0, n), rng)
                node = float(curve.grid.alpha[min_depth(curve).index])
                cases.append((curve, omega, node if k % 2 else None))
        assert len(cases) == 144
        for curve, omega, a_star in cases:
            _, diag = depth_rate(curve, omega, alpha_star=a_star)
            expect, scale = p_form_depth_rate(curve, omega, a_star)
            got = np.array([diag.J, diag.J_m, diag.J_1, diag.J_inf])
            assert np.max(np.abs(got - expect)) <= 2e-15 * scale

    def test_dmdt_is_j_over_two_pi(self, grid256):
        curve = bump_curve(grid256, -0.3)
        omega = gaussian_strength(grid256)
        dmdt, diag = depth_rate(curve, omega)
        assert dmdt == diag.dmdt == diag.J / (2.0 * np.pi)

    def test_against_time_difference(self, grid256):
        # dm/dt from the quadrature tracks the observed depth change of a run
        from contourdyn.evolve import SimConfig, SimState, run
        from contourdyn.io import MemorySink

        params = PhysicalParams(model=Model.MUSKAT, rho_plus=1.0, rho_minus=2.0)
        w = plateau_window(grid256.alpha, 5.0, 5.0)
        curve = InterfaceCurve(grid256, grid256.alpha.copy(), 1.0 - 0.3 * np.cos(grid256.alpha) * w)
        omega = solve_vorticity_equal(curve, params)
        dt = 0.005
        cfg = SimConfig(params=params, grid=grid256, dt=dt, t_end=40 * dt, snapshot_every=0)
        sink = MemorySink()
        run(cfg, SimState(curve, omega, 0.0), [sink])
        m = np.array([d.m for d in sink.diagnostics])
        dmdt = np.array([d.dmdt for d in sink.diagnostics])
        centered = (m[2:] - m[:-2]) / (2.0 * dt)
        h = grid256.spacing
        assert np.max(np.abs(dmdt[1:-1] - centered)) <= 5.0 * (dt**2 + h**2)

    def test_off_node_evaluation_continuous(self, grid256):
        # J is a smooth function of the evaluation point: crossing a node by a
        # sliver must not jump (the singularity subtraction switches branches
        # there), beyond the O(slope * sliver) regular variation
        curve = bump_curve(grid256, -0.4)
        omega = gaussian_strength(grid256, amplitude=1.1, center=1.0, sigma=2.0)
        a0 = float(min_depth(curve).alpha_star)
        h = grid256.spacing
        _, d_on = depth_rate(curve, omega, alpha_star=a0)
        _, d_off = depth_rate(curve, omega, alpha_star=a0 + 1e-7 * h)
        assert abs(d_on.J) > 1e-3  # asymmetric strength: J is genuinely nonzero
        assert abs(d_off.J - d_on.J) <= 1e-6 * (1.0 + abs(d_on.J))

    def test_tail_bound_scales_with_depth(self, grid256):
        omega = gaussian_strength(grid256)
        _, shallow = depth_rate(pinch_curve(grid256, 0.4), omega)
        _, deep = depth_rate(pinch_curve(grid256, 0.1), omega)
        assert deep.tail_bound < shallow.tail_bound
        assert shallow.tail_bound >= 0.0


class TestBoundRatio:
    def test_out_of_regime(self, grid256):
        curve = flat_curve(grid256)
        omega = gaussian_strength(grid256)
        _, diag = depth_rate(curve, omega, alpha_star=0.0)
        with pytest.raises(OutOfRegime):
            log_bound_ratio(diag)

    def test_flat_ratio_zero(self, grid256):
        # a pinch so gentle J still vanishes when omega is zero
        curve = pinch_curve(grid256, 0.2)
        omega = VorticityStrength(grid256, np.zeros(grid256.node_count))
        _, diag = depth_rate(curve, omega)
        assert log_bound_ratio(diag) == 0.0

    def test_pinch_family_bounded(self):
        g = Grid(20.0, 4096)
        omega = gaussian_strength(g)
        ratios = []
        for delta in (0.2, 0.1, 0.05, 0.025):
            _, diag = depth_rate(pinch_curve(g, delta), omega)
            ratios.append(log_bound_ratio(diag))
        assert ratios[-1] <= 1.5 * max(ratios[0], ratios[1])

    def test_translation_invariance(self, grid256):
        omega = gaussian_strength(grid256)
        curve = pinch_curve(grid256, 0.15)
        shifted = InterfaceCurve(grid256, curve.z1 + 2.0, curve.z2, validate=False)
        _, d0 = depth_rate(curve, omega)
        _, d1 = depth_rate(shifted, omega)
        assert log_bound_ratio(d1) == pytest.approx(log_bound_ratio(d0), rel=1e-9)


class TestDecaySign:
    def test_monotone_unstable_rate_nonpositive(self, grid256):
        # heavier fluid above, no tension, equal viscosities, monotone z1:
        # the depth rate evaluated with the model strength cannot be positive
        params = PhysicalParams(
            model=Model.MUSKAT, rho_plus=2.0 * np.pi, rho_minus=0.0, g=1.0
        )
        spec = InitialSpec(profile="monotone", amplitude=-0.4, z1_wiggle=0.3)
        curve, _ = build_initial(spec, grid256)
        omega = solve_vorticity_equal(curve, params)
        dmdt, _ = depth_rate(curve, omega)
        assert dmdt <= 1e-6


class TestIdentity:
    def test_flat_poisson_closed_form(self):
        # I = 0; I-tilde is the Poisson integral of the doubled height = pi
        for height in (1.0,):
            g = Grid(40.0, 2048)
            curve = flat_curve(g)
            j = g.node_count // 2
            assert identity_defect(curve, j)[0] == pytest.approx(0.0, abs=1e-12)
            assert identity_defect(curve, j)[1] == pytest.approx(np.pi, abs=1e-7)

    def test_flat_tail_vs_quadrature(self):
        # grid part + analytic tails equals adaptive quadrature of the full
        # Poisson integrand on the real line
        g = Grid(40.0, 2048)
        curve = flat_curve(g)
        j = g.node_count // 2 + 101
        x = float(curve.z1[j])
        expect, _ = quad(lambda s: 2.0 / ((x - s) ** 2 + 4.0), -np.inf, np.inf)
        assert identity_defect(curve, j)[1] == pytest.approx(expect, abs=1e-7)

    @pytest.mark.parametrize("amplitude", [0.1, 0.3, 0.5])
    def test_bump_defect_small(self, amplitude):
        g = Grid(40.0, 2048)
        w = plateau_window(g.alpha, 6.0, 6.0)
        curve = InterfaceCurve(g, g.alpha.copy(), 1.0 + amplitude * np.cos(g.alpha) * w)
        _, _, defect = identity_defect(curve)
        assert defect <= 1e-4

    def test_matches_two_kernel_oracle(self):
        # the product-form row against the kernels taken apart, on the 24
        # benchmark pinch depths and criterion 1's bump curves
        curves = [pinch_curve(Grid(20.0, 2048), float(d)) for d in np.geomspace(0.3, 0.02, 24)]
        for n in (512, 1024, 2048, 4096):
            g = Grid(40.0, n)
            w = plateau_window(g.alpha, 6.0, 6.0)
            curves += [
                InterfaceCurve(g, g.alpha.copy(), 1.0 + amp * np.cos(g.alpha) * w)
                for amp in (0.1, 0.3, 0.5)
            ]
        for curve in curves:
            expect = pair_identity(curve, min_depth(curve).index)
            assert np.max(np.abs(np.subtract(identity_defect(curve), expect))) <= 2e-15

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double is float64 on this platform",
    )
    @pytest.mark.parametrize("delta", [3e-3, 1e-3])
    def test_I_against_long_double_near_bottom(self, delta):
        # the two kernels nearly cancel near the bottom; the product form
        # keeps I closer to a long double evaluation of the pair
        curve = pinch_curve(Grid(20.0, 2048), delta)
        j = min_depth(curve).index
        z = curve.z.astype(np.clongdouble)
        first = z[j] - z
        first[j] = np.inf  # punctured: the reciprocal gives 0
        pair = 1.0 / first - 1.0 / (z[j] - np.conj(z))
        _, d1y = curve.d1
        _, d2y = curve.d2
        w = curve.grid.trapezoid_weights
        limit = node_limit(curve, d1y, d2y)[j]
        ref = np.real(np.dot((w * d1y).astype(np.longdouble), pair) + w[j] * limit)
        assert abs(identity_defect(curve, j)[0] - ref) < abs(pair_identity(curve, j)[0] - ref)

    def test_defect_refines_at_second_order(self):
        defects = []
        for n in (512, 1024, 2048):
            g = Grid(40.0, n)
            w = plateau_window(g.alpha, 6.0, 6.0)
            curve = InterfaceCurve(g, g.alpha.copy(), 1.0 + 0.5 * np.cos(g.alpha) * w)
            defects.append(identity_defect(curve)[2])
        order = np.log2(defects[0] / defects[1])
        assert order >= 2.0
        assert defects[2] < defects[0]


class TestSharedKernel:
    def test_one_kernel_row_per_call(self, monkeypatch):
        # J and the flux identities each build one row of the kernels
        # module's product form and take the diagonal limit at one point
        calls = []

        def spy(name):
            fn = getattr(analysis, name)

            def wrapped(*args, **kwargs):
                calls.append((name, args))
                return fn(*args, **kwargs)

            monkeypatch.setattr(analysis, name, wrapped)

        for name in ("_sheet_rows", "node_row", "diagonal_limit"):
            spy(name)
        curve = pinch_curve(Grid(20.0, 512), 0.1)
        omega = gaussian_strength(curve.grid, amplitude=0.5, center=0.3)
        for call, row_name in ((lambda: depth_rate(curve, omega), "_sheet_rows"),
                               (lambda: identity_defect(curve), "node_row")):
            calls.clear()
            call()
            rows = [(name, args) for name, args in calls if name != "diagonal_limit"]
            assert [name for name, _ in rows] == [row_name]
            if row_name == "_sheet_rows":
                assert np.size(rows[0][1][1]) == 1  # one target: the point z(alpha*)
            limits = [args for name, args in calls if name == "diagonal_limit"]
            assert limits and all(np.ndim(arg) == 0 for args in limits for arg in args)


FIT_T = np.linspace(0.0, 2.0, 50)
SINE_T = np.linspace(0.0, 1.0, 12)
# Synthetic double exponentials, and the constant and sine series of the tests below.
ORACLE_SERIES = {
    **{f"C{c}": (FIT_T, np.exp(-c * np.exp(c * FIT_T))) for c in (0.5, 0.75, 1.0, 1.25, 1.5)},
    "constant": (np.linspace(0.0, 2.0, 10), np.full(10, 0.5)),
    "sine": (SINE_T, 0.7 + 0.05 * np.sin(3.0 * SINE_T)),
}


class TestBoundFit:
    def test_synthetic_double_exponential(self):
        t = np.linspace(0.0, 2.0, 40)
        m = np.exp(-np.exp(t))
        fit = fit_double_exponential(t, m)
        assert fit.C_fit == pytest.approx(1.0, abs=1e-3)
        assert fit.residual <= 1e-6
        assert fit.certified

    def test_constant_series_minimal_constant(self):
        t = np.linspace(0.0, 2.0, 10)
        m = np.full(10, 0.5)
        slack = 1e-2
        fit = fit_double_exponential(t, m, fit_slack=slack)
        # minimal certifying constant: C = log((1 - slack) / 0.5), binding at t = 0
        assert fit.C_fit == pytest.approx(np.log((1.0 - slack) / 0.5), rel=1e-9)
        assert fit.certified

    def test_time_shift_keeps_growth_rate(self):
        t = np.linspace(0.0, 2.0, 40)
        m = np.exp(-np.exp(t))
        base = fit_double_exponential(t, m).C_fit
        shifted = fit_double_exponential(t + 0.25, np.exp(-np.exp(t + 0.25))).C_fit
        assert shifted == pytest.approx(base, rel=0.05)

    def test_certificate_holds_on_samples(self):
        t = np.linspace(0.0, 1.0, 12)
        m = 0.7 + 0.05 * np.sin(3.0 * t)
        fit = fit_double_exponential(t, m)
        bound = np.exp(-fit.C_fit * np.exp(fit.C_fit * t))
        assert np.all(m >= bound * (1.0 - fit.fit_slack) - 1e-12)
        assert fit.certified

    @pytest.mark.parametrize("name", ORACLE_SERIES)
    def test_matches_scipy_oracle(self, name):
        t, m = ORACLE_SERIES[name]
        fit = fit_double_exponential(t, m)
        c_oracle, certified = scipy_double_exponential(t, m)
        assert fit.C_fit == pytest.approx(c_oracle, rel=1e-8)
        assert fit.certified == certified

    @pytest.mark.parametrize(
        "t,m",
        [
            (np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.4, 0.3])),  # too few
            (np.linspace(0, 1, 5), np.array([0.5, 0.4, -0.1, 0.3, 0.2])),  # negative
            (np.linspace(0, 1, 5), np.array([0.5, 0.4, 1.2, 0.3, 0.2])),  # >= 1
            (np.array([0.0, 0.5, 0.5, 1.0]), np.full(4, 0.5)),  # non-increasing t
        ],
    )
    def test_failures(self, t, m):
        with pytest.raises(FitFailure):
            fit_double_exponential(t, m)


class TestContinuationReport:
    def test_flat_equilibrium(self, grid256):
        params = PhysicalParams(model=Model.MUSKAT)
        curve = flat_curve(grid256)
        omega = VorticityStrength(grid256, np.zeros(grid256.node_count))
        report = continuation_report(curve, omega, params)
        assert report.verdict == "criteria satisfied"
        assert report.curve_c2 == 0.0
        assert report.omega_c1 == 0.0
        assert report.chord_arc == pytest.approx(1.0, abs=1e-12)
        assert report.bound_ratio is None  # m = 1 is out of the log regime

    def test_pinch_reports_ratio(self, grid256):
        params = PhysicalParams(model=Model.MUSKAT)
        curve = pinch_curve(grid256, 0.05)
        omega = gaussian_strength(grid256)
        report = continuation_report(curve, omega, params)
        assert report.m == pytest.approx(0.05, abs=1e-6)
        assert report.bound_ratio is not None and report.bound_ratio >= 0.0
        assert np.isfinite(report.curve_c2)

    def test_deterministic(self, grid256):
        params = PhysicalParams(model=Model.MUSKAT)
        curve = pinch_curve(grid256, 0.1)
        omega = gaussian_strength(grid256)
        r1 = continuation_report(curve, omega, params)
        r2 = continuation_report(curve, omega, params)
        assert r1 == r2

    def test_cap_flagging(self):
        # past the caps the run itself stops at: C2 norm 1077, omega C0 2000
        params = PhysicalParams(model=Model.MUSKAT)
        g = Grid(20.0, 4096)
        w = plateau_window(g.alpha, 5.0, 5.0)
        curve = InterfaceCurve(g, g.alpha.copy(), 1.0 + 0.05 * np.cos(150.0 * g.alpha) * w)
        omega = VorticityStrength(g, 2000.0 * np.exp(-g.alpha**2) * w)
        report = continuation_report(curve, omega, params)
        assert report.curve_c2 > BLOWUP_CAP and report.omega_c1 > BLOWUP_CAP
        assert report.exceeded == ("curve_c2", "omega_c1")
        assert report.verdict == "exceeded: curve_c2, omega_c1"
