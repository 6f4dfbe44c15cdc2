"""Shared builders for curve/strength test data, imported by the test modules."""

from __future__ import annotations

import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from contourdyn.errors import SelfIntersection
from contourdyn.geometry import CHORD_ARC_BLOCK, COLLISION_TOL, Grid, InterfaceCurve
from contourdyn.kernels import VorticityStrength
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
