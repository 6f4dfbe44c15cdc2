"""Shared builders for curve/strength test data, imported by the test modules."""

from __future__ import annotations

import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from contourdyn.analysis import _LIMIT_SWITCH, _flat_tail, _quad_interp
from contourdyn.errors import SelfIntersection
from contourdyn.geometry import (
    CHORD_ARC_BLOCK,
    COLLISION_TOL,
    Grid,
    InterfaceCurve,
    PhysicalParams,
    far_field_mask,
    min_depth,
)
from contourdyn.kernels import VorticityStrength, diagonal_limit, pv_all_nodes
from contourdyn.muskat import vorticity_rhs
from contourdyn.profiles import plateau_window


def bump_curve(grid: Grid, amplitude: float, flat: float = 5.0, ramp: float = 5.0,
               z1_amp: float = 0.0) -> InterfaceCurve:
    """Windowed cosine perturbation of the flat interface."""
    w = plateau_window(grid.alpha, flat, ramp)
    z2 = 1.0 + amplitude * np.cos(grid.alpha) * w
    z1 = grid.alpha + z1_amp * np.sin(grid.alpha) * w
    return InterfaceCurve(grid, z1, z2)


def gaussian_strength(grid: Grid, amplitude: float = 1.0, center: float = 0.0,
                      sigma: float = 1.0) -> VorticityStrength:
    om = amplitude * np.exp(-((grid.alpha - center) ** 2) / (2.0 * sigma**2))
    om = np.where(grid.band_mask, 0.0, om)
    return VorticityStrength(grid, om)


def random_smooth_pair(grid: Grid, rng: np.random.Generator,
                       curve_scale: float = 0.25, omega_scale: float = 0.5):
    """Random low-wavenumber curve and strength, windowed to the grid interior."""
    w = plateau_window(grid.alpha, 0.25 * grid.half_width, 0.25 * grid.half_width)
    z2 = np.ones(grid.node_count)
    z1 = grid.alpha.copy()
    om = np.zeros(grid.node_count)
    for k in range(1, 5):
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        pa, pb, pc = rng.uniform(0.0, 2.0 * np.pi, size=3)
        z2 = z2 + (curve_scale / 4.0) * a * np.cos(0.7 * k * grid.alpha + pa) * w
        z1 = z1 + (curve_scale / 8.0) * b * np.cos(0.5 * k * grid.alpha + pb) * w
        om = om + (omega_scale / 4.0) * c * np.cos(0.9 * k * grid.alpha + pc) * w
    return InterfaceCurve(grid, z1, z2), VorticityStrength(grid, om)


def blocked_chord_arc(curve: InterfaceCurve) -> float:
    """Reference chord-arc pass: fresh sliding windows and temporaries per offset block.

    ``chord_arc_constant`` must equal this bit for bit and raise the same
    SelfIntersection message.
    """
    z1, z2 = curve.z1, curve.z2
    n = z1.size
    # Nodes past the end sit at infinity: their chords never win or collide.
    far = np.full(CHORD_ARC_BLOCK - 1, np.inf)
    z1_far, z2_far = np.concatenate((z1, far)), np.concatenate((z2, far))
    worst = 0.0
    for k0 in range(1, n, CHORD_ARC_BLOCK):
        m = n - k0
        # row r holds the squared chords of the pairs (i, i + k0 + r), i < m
        d2 = sliding_window_view(z1_far[k0:], m) - z1[:m]
        dy = sliding_window_view(z2_far[k0:], m) - z2[:m]
        d2 *= d2
        d2 += dy * dy
        shortest = d2.min(axis=1)
        if float(shortest.min()) < COLLISION_TOL * COLLISION_TOL:
            r = int(np.argmin(shortest))
            i = int(np.argmin(d2[r]))
            raise SelfIntersection(
                f"nodes {i} and {i + k0 + r} are {np.sqrt(d2[r, i]):.3e} apart "
                f"(< {COLLISION_TOL:.1e})"
            )
        offsets = np.arange(k0, k0 + shortest.size, dtype=np.float64)
        worst = max(worst, float(np.max(offsets * offsets / shortest)))
    return curve.grid.spacing * float(np.sqrt(worst))


def node_limit(curve: InterfaceCurve, f: np.ndarray, df: np.ndarray) -> np.ndarray:
    """The diagonal limit R[f] at every node of ``curve``."""
    (d1x, d1y), (d2x, d2y) = curve.d1, curve.d2
    return diagonal_limit(d1x + 1j * d1y, d2x + 1j * d2y, f, df)


def cauchy_pair(
    curve: InterfaceCurve, t: np.ndarray, nodes=None
) -> tuple[np.ndarray, np.ndarray]:
    """The kernels 1/(t - z(s_k)) and 1/(t - zbar(s_k)), shape (N, len(t)).

    Sources run down the first axis, targets ``t`` across the second.  For
    on-curve targets, ``nodes[i]`` is the node that t[i] sits on; the first
    kernel is punctured there (exactly zero).
    """
    z = curve.z[:, None]
    k = t - z
    if nodes is not None:
        k[nodes, np.arange(len(nodes))] = np.inf  # reciprocal gives 0, no warning
    np.reciprocal(k, out=k)
    k_mirror = t - np.conj(z)
    np.reciprocal(k_mirror, out=k_mirror)
    return k, k_mirror


def pair_identity(curve: InterfaceCurve, j_star: int) -> tuple[float, float, float]:
    """Reference (I, I-tilde, defect) from the two kernels taken apart (cauchy_pair).

    ``identity_defect`` reads the product-form row instead and must agree to
    roundoff.
    """
    k, k_mirror = cauchy_pair(curve, curve.z[[j_star]], [j_star])
    k, k_mirror = k[:, 0], k_mirror[:, 0]
    d1x, d1y = curve.d1
    d2x, d2y = curve.d2
    w = curve.grid.trapezoid_weights
    limit_i = node_limit(curve, d1y, d2y)[j_star]
    value_i = float(np.real(np.dot(w * d1y, k - k_mirror) + w[j_star] * limit_i))
    limit_it = node_limit(curve, d1x, d2x)[j_star]
    grid_part = -float(np.imag(np.dot(w * d1x, k + k_mirror) + w[j_star] * limit_it))
    alpha = curve.grid.alpha
    x = float(curve.z1[j_star])
    z2s = float(curve.z2[j_star])
    tail = _flat_tail(z2s - 1.0, x, float(alpha[0]), float(alpha[-1])) + _flat_tail(
        z2s + 1.0, x, float(alpha[0]), float(alpha[-1])
    )
    value_it = grid_part + tail
    return value_i, value_it, abs(value_it - value_i - np.pi)


def p_form_depth_rate(curve: InterfaceCurve, omega: VorticityStrength,
                      alpha_star: float | None = None) -> tuple[np.ndarray, float]:
    """Reference ((J, J_m, J_1, J_inf), scale) from the real form 4 dz1 z2* z2 omega / P.

    P = |t - z|^2 |t - zbar|^2, with the limit at s = alpha* derived by hand;
    ``depth_rate`` reads the shared product-form row and diagonal limit
    instead and must agree to roundoff.  ``scale``, the size of that
    roundoff, is the weighted sum of each term's absolute parts plus the
    absolute logarithm.  The parts, not the terms: near the bottom the
    product form's Im R cancels in the far band by a factor z2 / z2*.
    """
    grid = curve.grid
    alpha = grid.alpha
    h = grid.spacing
    md = min_depth(curve)
    m = md.m
    a_star = md.alpha_star if alpha_star is None else float(alpha_star)
    jc = int(np.clip(round((a_star + grid.half_width) / h), 1, grid.node_count - 2))

    d1x, d1y = curve.d1
    d2x, d2y = curve.d2
    z1s, z2s, d1xs, d1ys, d2xs, d2ys, oms, doms = (
        _quad_interp(values, alpha, h, jc, a_star)
        for values in (curve.z1, curve.z2, d1x, d1y, d2x, d2y, omega.omega, omega.d1)
    )

    u = a_star - alpha
    dz1 = z1s - curve.z1
    dz2 = z2s - curve.z2
    sz2 = z2s + curve.z2
    p = (dz1 * dz1 + dz2 * dz2) * (dz1 * dz1 + sz2 * sz2)

    # Combined kernel: 1/|dz|^2 - 1/|dz_mirror|^2 = 4 z2* z2(s) / P, exact
    # algebra that avoids cancellation when the depth is small.
    small = np.abs(u) < _LIMIT_SWITCH * h
    u_safe = np.where(small, 1.0, u)
    p_safe = np.where(small, 1.0, p)
    integrand = 4.0 * dz1 * z2s * curve.z2 * omega.omega / p_safe

    q0 = d1xs * d1xs + d1ys * d1ys
    sing_coeff = d1xs * oms / q0
    desing = integrand - sing_coeff / u_safe

    if np.any(small):
        # Analytic limit of the desingularized integrand as s -> alpha*.
        q1 = d1xs * d2xs + d1ys * d2ys
        r0 = 4.0 * z2s * z2s
        r1 = -4.0 * z2s * d1ys
        n2 = 4.0 * z2s * (-0.5 * d2xs * z2s * oms - d1xs * d1ys * oms - d1xs * z2s * doms)
        limit = (n2 - sing_coeff * (q0 * r1 - q1 * r0)) / (q0 * r0)
        desing = np.where(small, limit, desing)

    contrib = grid.trapezoid_weights * desing
    # Each term's absolute parts: Im 1/((t - z)(t - zbar)) is
    # -dz1 (sz2 + dz2) / P, and C/u is subtracted from it.
    parts = 2.0 * np.abs(curve.z2 * omega.omega * dz1) * (np.abs(sz2) + np.abs(dz2)) / p_safe
    parts = np.where(small, np.abs(desing), parts + np.abs(sing_coeff / u_safe))

    m_eff = min(m, 1.0)
    au = np.abs(u)
    j_near = float(np.sum(contrib[au < m_eff]))
    j_mid = float(np.sum(contrib[(au >= m_eff) & (au < 1.0)]))
    j_far = float(np.sum(contrib[au >= 1.0]))

    d_minus = a_star + grid.half_width
    d_plus = grid.half_width - h - a_star
    floor = 0.5 * h
    log_part = 0.0
    if abs(sing_coeff) > 0.0:
        log_part = sing_coeff * float(np.log(max(d_minus, floor) / max(d_plus, floor)))
    j_far += log_part
    scale = float(np.sum(grid.trapezoid_weights * parts)) + abs(log_part)
    return np.array([j_near + j_mid + j_far, j_near, j_mid, j_far]), scale


def full_velocity_map(curve: InterfaceCurve, params: PhysicalParams, om: np.ndarray,
                      operator: np.ndarray | None = None) -> np.ndarray:
    """The Picard map mask (rhs + [mu] (u, v) . T) / mu_bar from the full pv velocity.

    A reference for the viscosity-contrast solve, which iterates the same map
    through the tangential form; ``operator`` is passed on to pv_all_nodes.
    """
    rhs = vorticity_rhs(curve, params)
    u, v = pv_all_nodes(curve, VorticityStrength(curve.grid, om, validate=False), operator)
    d1x, d1y = curve.d1
    mask = far_field_mask(curve.grid)
    return mask * (rhs + params.viscosity_jump * (u * d1x + v * d1y)) / params.viscosity_mean


def traced_peak(fn, *args) -> int:
    """Peak bytes traced by tracemalloc while fn(*args) runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scipy_double_exponential(t, m, fit_slack: float = 1e-2) -> tuple[float, bool]:
    """(C_fit, certified) of ``fit_double_exponential`` solved with scipy.optimize.

    The same objective, brackets and certificate, with a bounded Brent
    minimization for the least-squares C and brentq for the certifying C.
    """
    from scipy.optimize import brentq, minimize_scalar

    t, m = np.asarray(t, dtype=np.float64), np.asarray(m, dtype=np.float64)
    y = np.log(np.log(1.0 / m))
    slope = max((y[-1] - y[0]) / (t[-1] - t[0]), 0.0)
    c_hi = max(10.0, 4.0 * slope, 2.0 * float(np.exp(np.max(y))))
    c_lsq = minimize_scalar(lambda c: float(np.sum((y - c * t - np.log(c)) ** 2)),
                            bounds=(1e-8, c_hi), method="bounded", options={"xatol": 1e-12}).x
    q = np.log((1.0 - fit_slack) / m)
    active = q > 0.0

    def gap(c: float) -> float:
        return float(np.min(c * t[active] + np.log(c) - np.log(q[active]))) if np.any(active) else 1.0

    c_cert = 1e-8
    if gap(c_cert) < 0.0:
        hi = max(c_hi, 1.0)
        while gap(hi) < 0.0:
            hi *= 2.0
        c_cert = brentq(gap, 1e-8, hi, xtol=1e-14, rtol=1e-14)
    c_fit = max(float(c_lsq), float(c_cert))
    return c_fit, gap(c_fit) >= -1e-12
