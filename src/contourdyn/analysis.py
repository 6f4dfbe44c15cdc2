"""Diagnostics for the no-touching continuation criteria.

This module turns the continuation theory into checkable numbers:

* the minimum-depth rate dm/dt = J / (2 pi), where J is the vertical-velocity
  quadrature evaluated at the refined depth minimum, split exactly into the
  near band |s - alpha*| < m, the middle band m <= |s - alpha*| < 1 and the
  far band |s - alpha*| >= 1;
* the ratio |J| / (m log(1/m)) whose boundedness is the desk-scale form of
  the depth estimate;
* the pair of flux integrals I and I-tilde whose difference equals pi for
  every admissible curve (a closed-contour identity), used as a global
  correctness check of the quadrature machinery;
* a double-exponential lower-bound fit m(t) >= exp(-C exp(C t));
* a continuation report collecting every hypothesis quantity.

Both read one row (kernels.sheet_row) of the product form
R_k = 1 / ((t - z_k)(t - zbar_k)), whose numerators 2i z2_k and 2 (t - z1_k)
give the difference and the sum of the kernel pair.  J reads one row at the
off-grid point t = z(alpha*), the real part of the difference times omega.
Its Cauchy singularity is subtracted analytically: the model singularity C/u
integrates to an exact logarithm over the truncated interval (assigned to the
far band), the remainder is smooth enough for the trapezoid rule, and a node
on alpha* takes the remainder's limit Re R[omega], the shared diagonal limit.
I and I-tilde read node j's row, punctured at j, with densities d(z2)/ds and
d(z1)/ds: the punctured rule plus the diagonal limit at that node.  They
carry analytic flat-state tail corrections; the I-tilde tail is a Poisson
integral that decays only like 1/distance and must not be dropped.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import FitFailure, OutOfRegime
from .geometry import FloatArray, InterfaceCurve, PhysicalParams
from .kernels import VorticityStrength, _require_shared_grid, diagonal_limit, sheet_row

TWO_PI = 2.0 * np.pi

# Caps on the curve's C0-C2 norms (and omega's C1 norm in a report) and on the
# chord-arc constant: a run stops past them, a report flags them.
BLOWUP_CAP = 1e3
CHORD_ARC_CAP = 1e3

# Nodes closer to the evaluation point than this fraction of a cell switch to
# the analytic limit of the desingularized integrand.
_LIMIT_SWITCH = 1e-3


@dataclass(frozen=True)
class DepthDiagnostics:
    """Per-state depth diagnostics; each field is a diagnostics.csv column, in order."""

    t: float
    m: float
    alpha_star: float
    dmdt: float
    J: float
    J_m: float
    J_1: float
    J_inf: float
    chord_arc: float
    c2_norm: float
    omega_c1_norm: float


@dataclass(frozen=True)
class BoundFit:
    """Fitted double-exponential lower bound m(t) >= exp(-C exp(C t))."""

    C_fit: float
    residual: float
    window: tuple[float, float]
    certified: bool
    fit_slack: float


def depth_rate(
    curve: InterfaceCurve,
    omega: VorticityStrength,
    t: float = 0.0,
    alpha_star: float | None = None,
) -> DepthDiagnostics:
    """Minimum-depth rate dm/dt and its band decomposition, as one diagnostics row.

    The quadrature runs at the refined argmin (or at ``alpha_star`` when
    given); curve and omega values there come from Grid.interpolate.
    The exact partition J = J_m + J_1 + J_inf is preserved by assigning the
    analytic logarithm of the subtracted singularity to the far band, where
    the symmetric inner bands contribute zero by parity.
    """
    _require_shared_grid(curve, omega)
    curve.require_resolved()
    grid = curve.grid
    h = grid.spacing
    md = curve.min_depth
    m = md.m
    a_star = md.alpha_star if alpha_star is None else float(alpha_star)

    (d1x, d1y), (d2x, d2y) = curve.d1, curve.d2
    z1s, z2s, d1xs, d1ys, d2xs, d2ys, oms, doms = (
        grid.interpolate(values, a_star)
        for values in (curve.z1, curve.z2, d1x, d1y, d2x, d2y, omega.omega, omega.d1)
    )

    # One row R of the shared product form at t = z(alpha*), punctured where
    # alpha* sits on a node: Re(1/(t - z) - 1/(t - zbar)) = -2 z2 Im R.
    u = a_star - grid.alpha
    au = np.abs(u)
    on_star = au < _LIMIT_SWITCH * h
    row = sheet_row(curve, z1s + 1j * z2s, on_star)
    desing = -2.0 * curve.z2 * omega.omega * row.imag

    sing_coeff = d1xs * oms / (d1xs * d1xs + d1ys * d1ys)
    desing[~on_star] -= sing_coeff / u[~on_star]
    # At alpha* the mirror term omega / (t - zbar) is imaginary, so the
    # desingularized integrand tends to Re R[omega], the Cauchy kernel's limit.
    limit = diagonal_limit(d1xs + 1j * d1ys, d2xs + 1j * d2ys, oms, doms)
    desing[on_star] = limit.real

    contrib = grid.trapezoid_weights * desing

    m_eff = min(m, 1.0)
    near = au < m_eff
    mid = (au >= m_eff) & (au < 1.0)
    far = au >= 1.0
    j_near = float(np.sum(contrib[near]))
    j_mid = float(np.sum(contrib[mid]))
    j_far = float(np.sum(contrib[far]))

    # Exact principal value of the subtracted C/u over the covered interval
    # [-L, L-h]; by parity the symmetric inner bands contribute nothing, so
    # the whole logarithm belongs to the far band.
    d_minus = a_star + grid.half_width
    d_plus = grid.half_width - h - a_star
    floor = 0.5 * h
    if abs(sing_coeff) > 0.0:
        j_far += sing_coeff * float(np.log(max(d_minus, floor) / max(d_plus, floor)))

    j_total = j_near + j_mid + j_far

    c0, c1, c2 = curve.holder_norms
    om_c0 = float(np.max(np.abs(omega.omega)))
    om_c1 = max(om_c0, float(np.max(np.abs(omega.d1))))

    return DepthDiagnostics(
        t=float(t),
        m=m,
        alpha_star=a_star,
        dmdt=j_total / TWO_PI,
        J=j_total,
        J_m=j_near,
        J_1=j_mid,
        J_inf=j_far,
        chord_arc=curve.chord_arc,
        c2_norm=max(c0, c1, c2),
        omega_c1_norm=om_c1,
    )


def log_bound_ratio(diag: DepthDiagnostics) -> float:
    """|J| / (m log(1/m)); defined only for m < 1/e."""
    if not 0.0 < diag.m < 1.0 / np.e:
        raise OutOfRegime(
            f"bound ratio needs 0 < m < 1/e, got m = {diag.m:.6g} (not applicable)"
        )
    return abs(diag.J) / (diag.m * np.log(1.0 / diag.m))


def _flat_tail(a: float, x: float, s_left: float, s_right: float) -> float:
    """Exact integral of a / ((s - x)^2 + a^2) over (-inf, s_left] + [s_right, inf)."""
    if a == 0.0:
        return 0.0
    return float(
        np.sign(a) * np.pi
        - np.arctan((s_right - x) / a)
        + np.arctan((s_left - x) / a)
    )


def identity_defect(curve: InterfaceCurve, j_star: int | None = None) -> tuple[float, float, float]:
    """(I, I-tilde, |I-tilde - I - pi|) at node j_star, the argmin node by default.

    I is the flux integral of d(z2)/ds against the vertical kernel, I-tilde
    that of d(z1)/ds against the depth kernels; both read one node row.
    I-tilde includes the analytic Poisson tails of the exactly-flat far field,
    whose 1/distance decay dominates the truncation error if dropped.
    """
    if j_star is None:
        j_star = curve.min_depth.index
    if not 0 <= j_star < curve.grid.node_count:
        raise IndexError(f"node index {j_star} out of range")
    row = sheet_row(curve, curve.z[j_star], [j_star])
    (d1x, d1y), (d2x, d2y) = curve.d1, curve.d2
    dz, d2z = d1x[j_star] + 1j * d1y[j_star], d2x[j_star] + 1j * d2y[j_star]
    w = curve.grid.trapezoid_weights

    # d(z2)/ds vanishes identically on the flat far field: I has no tail.
    difference = 2j * curve.z2 * row
    limit = diagonal_limit(dz, d2z, d1y[j_star], d2y[j_star])
    value_i = float(np.real(np.dot(w * d1y, difference) + w[j_star] * limit))

    total = 2.0 * (curve.z[j_star] - curve.z1) * row
    total[j_star] = -total[j_star]  # the punctured sum is +1/(z_j - zbar_j)
    limit = diagonal_limit(dz, d2z, d1x[j_star], d2x[j_star])
    grid_part = -float(np.imag(np.dot(w * d1x, total) + w[j_star] * limit))
    ends = float(curve.grid.alpha[0]), float(curve.grid.alpha[-1])
    x, z2s = float(curve.z1[j_star]), float(curve.z2[j_star])
    value_it = grid_part + (_flat_tail(z2s - 1.0, x, *ends) + _flat_tail(z2s + 1.0, x, *ends))
    return value_i, value_it, abs(value_it - value_i - np.pi)


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Sign change of f on [lo, hi] to 1e-14 absolute plus relative: the end with f >= 0."""
    while hi - lo > 1e-14 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)
    return hi


def fit_double_exponential(
    t: FloatArray, m: FloatArray, fit_slack: float = 1e-2
) -> BoundFit:
    """Fit m(t) >= exp(-C exp(C t)) with a single constant C.

    A one-dimensional least-squares fit of log log(1/m) against C t + log C
    gives the growth rate; if the fitted bound fails to lie below the samples
    (within ``fit_slack``), C is raised to the smallest certifying value, so
    the returned fit always certifies the series when one exists.  Both are
    numpy bisections (``_bisect``, 1e-14 absolute plus relative): of the
    objective's derivative on [1e-8, c_hi], and of the certificate's gap.
    """
    t = np.asarray(t, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if t.shape != m.shape or t.ndim != 1:
        raise FitFailure("t and m must be one-dimensional arrays of equal length")
    if t.size < 4:
        raise FitFailure(f"need at least 4 samples, got {t.size}")
    if np.any(~np.isfinite(t)) or np.any(~np.isfinite(m)):
        raise FitFailure("samples must be finite")
    if np.any(np.diff(t) <= 0.0):
        raise FitFailure("times must be strictly increasing")
    if np.any(m <= 0.0) or np.any(m >= 1.0):
        raise FitFailure("depth samples must lie strictly inside (0, 1)")
    if not 0.0 <= fit_slack < 1.0:
        raise FitFailure(f"fit_slack must be in [0, 1), got {fit_slack}")

    y = np.log(np.log(1.0 / m))

    def residual(c: float) -> FloatArray:
        return y - c * t - np.log(c)

    slope = max((y[-1] - y[0]) / (t[-1] - t[0]), 0.0)
    c_hi = max(10.0, 4.0 * slope, 2.0 * float(np.exp(np.max(y))))
    # d/dc |r|^2 = -2 r . (t + 1/c); its sign change is the least-squares C.
    c_lsq = _bisect(lambda c: -float(np.dot(residual(c), t + 1.0 / c)), 1e-8, c_hi)

    # Smallest C whose bound stays below every sample with the given slack.
    q = np.log((1.0 - fit_slack) / m)
    active = q > 0.0

    def gap(c: float) -> float:
        if not np.any(active):
            return 1.0
        return float(np.min(c * t[active] + np.log(c) - np.log(q[active])))

    c_cert = 1e-8
    if np.any(active) and gap(c_cert) < 0.0:
        hi = max(c_hi, 1.0)
        while gap(hi) < 0.0:
            hi *= 2.0
            if hi > 1e12:
                raise FitFailure("no certifying constant below 1e12")
        c_cert = _bisect(gap, 1e-8, hi)

    c_fit = max(c_lsq, c_cert)
    resid = float(np.sqrt(np.mean(residual(c_fit) ** 2)))
    certified = gap(c_fit) >= -1e-12
    return BoundFit(
        C_fit=c_fit,
        residual=resid,
        window=(float(t[0]), float(t[-1])),
        certified=bool(certified),
        fit_slack=float(fit_slack),
    )


@dataclass(frozen=True)
class ContinuationReport:
    """Hypothesis quantities of the continuation criteria plus cap verdicts."""

    t: float
    m: float
    alpha_star: float
    chord_arc: float
    curve_c0: float
    curve_c1: float
    curve_c2: float
    omega_c0: float
    omega_c1: float
    bound_ratio: float | None
    exceeded: tuple[str, ...]
    verdict: str


def continuation_report(
    curve: InterfaceCurve,
    omega: VorticityStrength,
    params: PhysicalParams,
    t: float = 0.0,
) -> ContinuationReport:
    """Collect every continuation-hypothesis quantity and flag exceeded caps."""
    _ = params  # physics currently informs no extra hypothesis quantity
    c0, c1, c2 = curve.holder_norms
    om_c0 = float(np.max(np.abs(omega.omega)))
    diag = depth_rate(curve, omega, t=t)
    try:
        ratio: float | None = log_bound_ratio(diag)
    except OutOfRegime:
        ratio = None
    exceeded = []
    if max(c0, c1, c2) > BLOWUP_CAP:
        exceeded.append("curve_c2")
    if diag.omega_c1_norm > BLOWUP_CAP:
        exceeded.append("omega_c1")
    if diag.chord_arc > CHORD_ARC_CAP:
        exceeded.append("chord_arc")
    verdict = "criteria satisfied" if not exceeded else "exceeded: " + ", ".join(exceeded)
    return ContinuationReport(
        t=float(t),
        m=diag.m,
        alpha_star=diag.alpha_star,
        chord_arc=diag.chord_arc,
        curve_c0=c0,
        curve_c1=c1,
        curve_c2=c2,
        omega_c0=om_c0,
        omega_c1=diag.omega_c1_norm,
        bound_ratio=ratio,
        exceeded=tuple(exceeded),
        verdict=verdict,
    )
