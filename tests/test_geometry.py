"""Geometry operations: derivatives, curvature, chord-arc, minimum depth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contourdyn.errors import SelfIntersection, ValidationError
from contourdyn.geometry import (
    CHORD_ARC_BLOCK,
    Grid,
    InterfaceCurve,
    Model,
    PhysicalParams,
    chord_arc_constant,
    curvature,
    curve_from_record,
    curve_record,
    holder_norms,
    min_depth,
)
from contourdyn.profiles import plateau_window

from support import bump_curve, traced_peak


def loop_curve(n: int, a: int, b: int, turn: float, close: bool = False) -> InterfaceCurve:
    """Flat curve with a loop of radius 1.5 turning through ``turn`` from node a to b.

    With ``close`` node b is put exactly on node a.
    """
    g = Grid(20.0, n)
    theta = turn * np.arange(b - a + 1) / (b - a)
    z1, z2 = g.alpha.copy(), np.ones(n)
    z1[a:b + 1] = g.alpha[a] + 1.5 * np.sin(theta)
    z2[a:b + 1] = 1.0 + 1.5 * (1.0 - np.cos(theta))
    if close:
        z1[b], z2[b] = z1[a], z2[a]
    z1[b + 1:] += z1[b] - g.alpha[b]
    return InterfaceCurve(g, z1, z2, validate=False)


def dense_chord_arc(curve: InterfaceCurve) -> tuple[float, int]:
    """Chord-arc constant over the full pair matrix, and the offset of its worst pair."""
    g = curve.grid
    da = np.abs(g.alpha[:, None] - g.alpha[None, :])
    dist = np.hypot(curve.z1[:, None] - curve.z1[None, :], curve.z2[:, None] - curve.z2[None, :])
    np.fill_diagonal(dist, np.inf)
    np.fill_diagonal(da, 0.0)
    ratio = da / dist
    i, j = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    return float(ratio[i, j]), abs(int(i) - int(j))


def trig_grid(n: int = 512) -> Grid:
    # half width 8*pi so that 0 and pi are exact nodes
    return Grid(half_width=8.0 * np.pi, node_count=n)


def trig_curve(n: int = 512, amplitude: float = 0.1) -> InterfaceCurve:
    g = trig_grid(n)
    w = plateau_window(g.alpha, 6.0, 6.0)
    return InterfaceCurve(g, g.alpha.copy(), 1.0 + amplitude * np.cos(g.alpha) * w)


class TestGrid:
    def test_nodes(self):
        g = Grid(20.0, 256)
        assert g.spacing == pytest.approx(40.0 / 256)
        assert g.alpha[0] == -20.0
        assert g.alpha[-1] == pytest.approx(20.0 - g.spacing)
        assert np.allclose(np.diff(g.alpha), g.spacing)

    @pytest.mark.parametrize("n", [8, 15, 17, 0])
    def test_bad_node_count(self, n):
        with pytest.raises(ValidationError):
            Grid(20.0, n)

    def test_bad_width(self):
        with pytest.raises(ValidationError):
            Grid(-1.0, 256)


class TestPhysicalParams:
    def test_muskat_needs_positive_viscosity(self):
        with pytest.raises(ValidationError):
            PhysicalParams(model=Model.MUSKAT, mu_plus=0.0)

    def test_waves_need_mass(self):
        with pytest.raises(ValidationError):
            PhysicalParams(model=Model.WATER_WAVES, rho_plus=0.0, rho_minus=0.0)

    def test_atwood(self):
        p = PhysicalParams(model=Model.WATER_WAVES, rho_plus=3.0, rho_minus=1.0)
        assert p.atwood == pytest.approx(0.5)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValidationError):
            PhysicalParams(model=Model.MUSKAT, gamma=-0.1)


class TestCurveInvariants:
    def test_below_bottom_rejected(self, grid256):
        z2 = np.ones(grid256.node_count)
        z2[grid256.node_count // 2] = -0.1
        with pytest.raises(ValidationError):
            InterfaceCurve(grid256, grid256.alpha.copy(), z2)

    def test_far_field_flatness_enforced(self, grid256):
        z2 = np.ones(grid256.node_count)
        z2[0] = 1.0 + 1e-6
        with pytest.raises(ValidationError):
            InterfaceCurve(grid256, grid256.alpha.copy(), z2)

    def test_samples_read_only(self, grid256):
        curve = bump_curve(grid256, 0.1)
        with pytest.raises(ValueError):
            curve.z2[0] = 2.0


class TestDerivative:
    def test_flat_curve(self, grid256):
        flat = InterfaceCurve(grid256, grid256.alpha.copy(), np.ones(grid256.node_count))
        d1x, d1y = flat.d1
        d2x, d2y = flat.d2
        assert np.allclose(d1x, 1.0, atol=1e-13)
        assert np.allclose(d1y, 0.0, atol=1e-13)
        assert np.allclose(d2x, 0.0, atol=1e-12)
        assert np.allclose(d2y, 0.0, atol=1e-12)

    def test_cosine_derivative_at_origin(self):
        curve = trig_curve(512)
        _, d1y = curve.d1
        j0 = curve.grid.node_count // 2
        h = curve.grid.spacing
        # d z2 / d alpha = -0.1 sin(alpha) = 0 at alpha = 0, to O(h^4)
        assert abs(d1y[j0]) <= 5.0 * h**4

    def test_order_of_accuracy(self):
        errs = []
        for n in (256, 512):
            curve = trig_curve(n)
            _, d1y = curve.d1
            g = curve.grid
            w = plateau_window(g.alpha, 6.0, 6.0)
            exact = -0.1 * np.sin(g.alpha)
            inner = np.abs(g.alpha) <= 5.0  # plateau: window exactly 1
            errs.append(np.max(np.abs(d1y[inner] - exact[inner])))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0  # 4th order: ~16x per halving


class TestCurvature:
    def test_flat_zero(self, grid256):
        flat = InterfaceCurve(grid256, grid256.alpha.copy(), np.ones(grid256.node_count))
        assert np.allclose(curvature(flat), 0.0, atol=1e-12)

    def test_cosine_values(self):
        curve = trig_curve(1024)
        kap = curvature(curve)
        g = curve.grid
        j0 = g.node_count // 2
        jpi = j0 + int(round(np.pi / g.spacing))
        assert g.alpha[jpi] == pytest.approx(np.pi, abs=1e-12)
        assert kap[j0] == pytest.approx(-0.1, abs=1e-6)
        assert kap[jpi] == pytest.approx(+0.1, abs=1e-6)

    def test_scaling_covariance(self):
        # kappa(lambda z) = kappa(z) / lambda for the pointwise formula
        curve = trig_curve(512, amplitude=0.2)
        lam = 2.5
        scaled = InterfaceCurve(
            curve.grid, lam * curve.z1, lam * curve.z2, validate=False
        )
        k1 = curvature(curve)
        k2 = curvature(scaled)
        assert np.allclose(k2, k1 / lam, atol=1e-12)

    def test_joint_dilation(self):
        # dilating curve and parameter together: kappa scales by 1/lambda and
        # the chord-arc constant is untouched (same ratios at matched nodes)
        lam = 3.0
        g = Grid(half_width=8.0 * np.pi, node_count=256)
        w = plateau_window(g.alpha, 6.0, 6.0)
        z1 = g.alpha - 0.3 * np.sin(g.alpha) * w
        z2 = 1.0 + 0.3 * np.cos(g.alpha) * w
        curve = InterfaceCurve(g, z1, z2)
        g_big = Grid(half_width=lam * g.half_width, node_count=g.node_count)
        big = InterfaceCurve(g_big, lam * z1, lam * z2, validate=False)
        assert np.allclose(curvature(big), curvature(curve) / lam, atol=1e-12)
        assert chord_arc_constant(big) == pytest.approx(
            chord_arc_constant(curve), rel=1e-12
        )

    def test_reparametrization_covariance(self):
        # resampling the same geometric curve through a smooth monotone
        # parameter change reproduces the curvature at matched points
        g = Grid(half_width=8.0 * np.pi, node_count=1024)
        w_flat, w_ramp = 5.0, 5.0

        def height(x):
            return 1.0 + 0.2 * np.cos(x) * plateau_window(x, w_flat, w_ramp)

        def kappa_exact(x):
            wv = plateau_window(x, w_flat, w_ramp)
            inner = np.abs(x) <= w_flat  # closed form valid on the plateau
            d1 = -0.2 * np.sin(x)
            d2 = -0.2 * np.cos(x)
            return np.where(inner, d2 / (1.0 + d1**2) ** 1.5, np.nan), inner

        phi = g.alpha + 0.2 * np.sin(g.alpha) * plateau_window(g.alpha, w_flat, w_ramp)
        assert np.all(np.diff(phi) > 0.0)
        reparam = InterfaceCurve(g, phi, height(phi))
        kap = curvature(reparam)
        expect, inner = kappa_exact(phi)
        assert np.allclose(kap[inner], expect[inner], atol=1e-5)


class TestChordArc:
    def test_flat_is_isometry(self, grid256):
        flat = InterfaceCurve(grid256, grid256.alpha.copy(), np.ones(grid256.node_count))
        assert chord_arc_constant(flat) == pytest.approx(1.0, abs=1e-12)

    def test_against_dense_oracle(self):
        # z1 compression pushes the constant above the graph-curve value 1
        g = Grid(half_width=8.0 * np.pi, node_count=128)
        w = plateau_window(g.alpha, 6.0, 6.0)
        z1 = g.alpha - 0.4 * np.sin(g.alpha) * w
        curve = InterfaceCurve(g, z1, 1.0 + 0.5 * np.cos(g.alpha) * w)
        got = chord_arc_constant(curve)
        expect, _ = dense_chord_arc(curve)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got > 1.0

    def test_against_dense_oracle_at_a_far_offset(self):
        # the worst pair sits hundreds of offsets apart, and N is not a
        # multiple of the offset block
        curve = loop_curve(1000, 300, 700, 2.0 * np.pi - 0.02)
        assert curve.grid.node_count % CHORD_ARC_BLOCK != 0
        expect, offset = dense_chord_arc(curve)
        assert offset > 4 * CHORD_ARC_BLOCK
        assert chord_arc_constant(curve) == pytest.approx(expect, rel=1e-12)

    def test_translation_invariance(self, grid256):
        curve = bump_curve(grid256, 0.4)
        shifted = InterfaceCurve(grid256, curve.z1 + 3.25, curve.z2, validate=False)
        assert chord_arc_constant(shifted) == pytest.approx(
            chord_arc_constant(curve), rel=1e-12
        )

    def test_collision_detected(self, grid256):
        z1 = grid256.alpha.copy()
        z2 = np.ones(grid256.node_count)
        j = grid256.node_count // 2
        z1[j] = z1[j + 1]
        z2[j] = z2[j + 1]
        curve = InterfaceCurve(grid256, z1, z2, validate=False)
        with pytest.raises(SelfIntersection):
            chord_arc_constant(curve)


    def test_far_fold_back_collision_names_both_nodes(self):
        # the loop closes on its first node 400 nodes later in alpha
        curve = loop_curve(1000, 300, 700, 2.0 * np.pi, close=True)
        with pytest.raises(SelfIntersection, match="nodes 300 and 700 "):
            chord_arc_constant(curve)

    def test_peak_memory_is_a_few_rows(self):
        curve = loop_curve(2048, 600, 1400, 2.0 * np.pi - 0.02)
        assert traced_peak(chord_arc_constant, curve) < 8e6

class TestMinDepth:
    def test_flat(self, grid256):
        flat = InterfaceCurve(grid256, grid256.alpha.copy(), np.ones(grid256.node_count))
        md = min_depth(flat)
        assert md.m == 1.0
        assert md.tie_count == grid256.node_count
        assert md.alpha_star == grid256.alpha[0]  # smallest alpha among ties

    def test_cosine_window_minimum(self):
        # z2 = 1 + 0.5 cos(alpha) has its minimum 0.5 at alpha = pi
        curve = trig_curve(1024, amplitude=0.5)
        md = min_depth(curve)
        assert md.m == pytest.approx(0.5, abs=1e-6)
        # minima at both +pi and -pi; ties resolve to the smaller alpha
        assert abs(md.alpha_star) == pytest.approx(np.pi, abs=1e-4)

    def test_refinement_accuracy(self):
        # interpolated minimum converges to the continuum one at least O(h^2)
        errs = []
        for n in (256, 512, 1024):
            g = Grid(half_width=8.0 * np.pi, node_count=n)
            w = plateau_window(g.alpha, 6.0, 6.0)
            # shift so the vertex falls off-node
            z2 = 1.0 + 0.5 * np.cos(g.alpha - 0.123) * w
            curve = InterfaceCurve(g, g.alpha.copy(), z2)
            errs.append(abs(min_depth(curve).m - 0.5))
        assert errs[2] < errs[0]
        assert errs[2] < 1e-6

    def test_below_all_samples_and_in_cell(self):
        curve = trig_curve(256, amplitude=0.5)
        md = min_depth(curve)
        assert md.m <= float(np.min(curve.z2)) + 1e-15
        j = md.index
        assert abs(md.alpha_star - curve.grid.alpha[j]) <= curve.grid.spacing


class TestHolderNorms:
    def test_flat_zero(self, grid256):
        flat = InterfaceCurve(grid256, grid256.alpha.copy(), np.ones(grid256.node_count))
        assert holder_norms(flat) == (0.0, 0.0, 0.0)

    def test_cosine_norms(self):
        curve = trig_curve(1024, amplitude=0.3)
        c0, c1, c2 = holder_norms(curve)
        assert c0 == pytest.approx(0.3, abs=1e-3)
        assert c1 == pytest.approx(0.3, abs=1e-3)
        assert c2 == pytest.approx(0.3, abs=1e-3)

    def test_translation_of_window(self):
        # node-aligned shift: the perturbation samples are identical, so the
        # discrete norms must agree to roundoff
        g = Grid(half_width=8.0 * np.pi, node_count=1024)
        shift = 80 * g.spacing
        w0 = plateau_window(g.alpha, 4.0, 4.0)
        w1 = plateau_window(g.alpha - shift, 4.0, 4.0)
        c_a = InterfaceCurve(g, g.alpha.copy(), 1.0 + 0.2 * np.cos(g.alpha) * w0)
        c_b = InterfaceCurve(g, g.alpha.copy(), 1.0 + 0.2 * np.cos(g.alpha - shift) * w1)
        na, nb = holder_norms(c_a), holder_norms(c_b)
        assert na == pytest.approx(nb, rel=1e-9, abs=1e-12)


class TestRecords:
    def test_round_trip(self, grid256):
        curve = bump_curve(grid256, 0.2)
        t, back = curve_from_record(curve_record(curve, 1.5))
        assert t == 1.5
        assert np.array_equal(back.z1, curve.z1)
        assert np.array_equal(back.z2, curve.z2)
        assert back.grid == curve.grid


@settings(max_examples=25, deadline=None)
@given(
    amplitude=st.floats(min_value=-0.6, max_value=0.6),
    shift=st.floats(min_value=-2.0, max_value=2.0),
)
def test_min_depth_never_exceeds_samples(amplitude, shift):
    g = Grid(half_width=20.0, node_count=128)
    w = plateau_window(g.alpha - shift, 4.0, 4.0)
    z2 = 1.0 + amplitude * np.cos(g.alpha) * w
    curve = InterfaceCurve(g, g.alpha.copy(), z2)
    md = min_depth(curve)
    assert md.m <= float(np.min(z2)) + 1e-15
    assert md.m > 0.0


class TestShapeAndTinyGrids:
    def test_sample_shape_mismatch(self, grid256):
        with pytest.raises(ValidationError):
            InterfaceCurve(grid256, grid256.alpha[:-1].copy(), np.ones(grid256.node_count))

    def test_minimum_grid_is_usable(self):
        # N = 16 makes every node part of the decay bands: only the flat
        # state is representable, and the operations stay finite on it
        g = Grid(1.0, 16)
        curve = InterfaceCurve(g, g.alpha.copy(), np.ones(16))
        assert min_depth(curve).m == 1.0
        assert chord_arc_constant(curve) == pytest.approx(1.0, abs=1e-12)
        assert holder_norms(curve) == (0.0, 0.0, 0.0)
