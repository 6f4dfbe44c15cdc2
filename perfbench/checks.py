"""Output checks: independent properties each workload's results must have.

Every check compares against a closed form, an identity the method must keep,
or a solve built here from the kernel formula; none compares against stored
output.  Each returns a ``Check`` whose ``value`` is the measured quantity and
whose ``bound`` is the tolerance it must stay within.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

FLUX_IDENTITY_TOL = 1e-4
MONOTONE_TOL = 1e-12
# Far-field masking lets the enclosed volume drift slightly; measured drift is
# below 1e-5 of the initial L1 displacement over a relax_n2048 round.
VOLUME_DRIFT_TOL = 1e-4
ORACLE_TOL = 1e-8
# Over t <= 0.5 the centre displacement of the shipped internal wave follows
# cos(sigma t) to about 4e-4; a 5% error in sigma moves it by about 3.5e-3.
WAVE_TOL = 1e-3
PINCH_DEPTH_TOL = 1e-12
TREND_FACTOR = 1.5
FIT_C_TOL = 1e-3


class Check(NamedTuple):
    name: str
    ok: bool
    value: float
    bound: float

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"check {self.name}: {verdict} (value {self.value:.3e}, bound {self.bound:.3e})"


def worst(checks: list[Check]) -> Check:
    """Combine repeats of one check: it passes only if every repeat passed."""
    failing = [c for c in checks if not c.ok]
    pick = failing[0] if failing else max(checks, key=lambda c: c.value)
    return pick._replace(ok=not failing)


def all_ops_completed(planned: int, done: int) -> Check:
    """Every planned op of the round completed."""
    missing = planned - done
    return Check("all_ops_completed", missing == 0, float(missing), 0.0)


def flux_identity(value_i: float, value_itilde: float) -> Check:
    """The closed-contour identity I-tilde - I = pi."""
    defect = abs(value_itilde - value_i - np.pi)
    return Check("flux_identity", defect <= FLUX_IDENTITY_TOL, defect, FLUX_IDENTITY_TOL)


def depth_non_decreasing(m: np.ndarray) -> Check:
    """Maximum principle of the gravity-stable Muskat problem: m(t) never falls."""
    drop = float(max(0.0, -np.min(np.diff(m)))) if m.size > 1 else 0.0
    return Check("depth_non_decreasing", drop <= MONOTONE_TOL, drop, MONOTONE_TOL)


def enclosed_volume(z1: np.ndarray, z2: np.ndarray) -> tuple[float, float]:
    """Signed volume int (z2 - 1) dz1 and the L1 displacement int |z2 - 1| dz1 (trapezoid)."""
    dz1 = np.diff(z1)
    f = z2 - 1.0
    return (
        float(np.sum(0.5 * (f[1:] + f[:-1]) * dz1)),
        float(np.sum(0.5 * (np.abs(f[1:]) + np.abs(f[:-1])) * dz1)),
    )


def volume_drift(initial: tuple[float, float], final: tuple[float, float]) -> Check:
    """Volume is conserved up to the far-field mask: drift relative to the L1 displacement."""
    drift = abs(final[0] - initial[0]) / max(initial[1], 1e-300)
    return Check("volume_drift", drift <= VOLUME_DRIFT_TOL, drift, VOLUME_DRIFT_TOL)


def depth_rate_consistency(
    t: np.ndarray, m: np.ndarray, dmdt: np.ndarray, scale: float, dt: float, h: float
) -> Check:
    """Reported dm/dt against the centred difference of m, in criterion 5's budget form."""
    centred = (m[2:] - m[:-2]) / (t[2:] - t[:-2])
    mismatch = float(np.max(np.abs(dmdt[1:-1] - centred)))
    budget = 5.0 * (dt * dt + h * h) * max(1.0, scale)
    return Check("depth_rate_consistency", mismatch <= budget, mismatch, budget)


def dense_closure_solve(curve, params) -> np.ndarray:
    """Direct dense solve of the masked viscosity-contrast closure.

    Writes the punctured-trapezoid mean velocity, with its diagonal-limit term,
    as an explicit matrix on the omega samples, then solves
    (mu_mean I - [mu] M (V . T)) omega = M rhs.  Uses neither the Picard
    iteration nor the program's kernel assembly.
    """
    from contourdyn.geometry import far_field_mask
    from contourdyn.muskat import vorticity_rhs

    grid = curve.grid
    n, h, w = grid.node_count, grid.spacing, grid.trapezoid_weights
    z1, z2 = curve.z1, curve.z2
    d1x, d1y = curve.d1
    d2x, d2y = curve.d2
    q0 = d1x * d1x + d1y * d1y
    q1 = d1x * d2x + d1y * d2y

    dx = z1[:, None] - z1[None, :]
    dy = z2[:, None] - z2[None, :]
    sy = z2[:, None] + z2[None, :]
    r2 = dx * dx + dy * dy
    np.fill_diagonal(r2, np.inf)  # the singular node is omitted from the sum
    r2_image = dx * dx + sy * sy
    # K(p, q) = (p - q)^perp / |p - q|^2 minus its mirror image across y = 0
    ku = (-dy / r2 + sy / r2_image) * w[None, :]
    kv = (dx / r2 - dx / r2_image) * w[None, :]

    # fourth-order d/dalpha of omega, zero on the decay bands
    stencil = np.zeros((n, n))
    rows = np.flatnonzero(~grid.band_mask)
    for offset, coef in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
        stencil[rows, rows + offset] = coef / (12.0 * h)

    # regular part of the kernel at the omitted node, linear in (omega, omega')
    ku += np.diag(w * (0.5 * d2y - d1y * q1 / q0) / q0) + (w * d1y / q0)[:, None] * stencil
    kv += np.diag(w * (d1x * q1 / q0 - 0.5 * d2x) / q0) - (w * d1x / q0)[:, None] * stencil

    v_dot_t = (d1x[:, None] * ku + d1y[:, None] * kv) / (2.0 * np.pi)
    mask = far_field_mask(grid)
    system = params.viscosity_mean * np.eye(n) - params.viscosity_jump * mask[:, None] * v_dot_t
    return np.linalg.solve(system, mask * vorticity_rhs(curve, params))


def closure_matches_oracle(omega: np.ndarray, oracle: np.ndarray) -> Check:
    gap = float(np.max(np.abs(omega - oracle)))
    return Check("closure_matches_dense_solve", gap <= ORACLE_TOL, gap, ORACLE_TOL)


def internal_wave_sigma(g: float, rho_plus: float, rho_minus: float, k: float = 1.0) -> float:
    """Two-layer dispersion relation over a rigid bottom at depth 1, deep upper layer."""
    return float(np.sqrt(g * k * (rho_minus - rho_plus) / (rho_minus / np.tanh(k) + rho_plus)))


def wave_frequency(t: np.ndarray, eta_ratio: np.ndarray, sigma: float) -> Check:
    """Centre displacement eta(t) / eta(0) against cos(sigma t)."""
    deviation = float(np.max(np.abs(eta_ratio - np.cos(sigma * t))))
    return Check("wave_follows_cos_sigma_t", deviation <= WAVE_TOL, deviation, WAVE_TOL)


def pinch_depth(m: np.ndarray, delta: np.ndarray) -> Check:
    """Reported minimum depth equals the closed-form pinch depth delta."""
    gap = float(np.max(np.abs(m - delta)))
    return Check("pinch_depth_equals_delta", gap <= PINCH_DEPTH_TOL, gap, PINCH_DEPTH_TOL)


def bound_ratio_trend(delta: np.ndarray, ratio: np.ndarray) -> Check:
    """|J| / (m log 1/m) shows no increasing trend as delta falls (criterion 6's form).

    The ratio at the smallest depth may not exceed TREND_FACTOR times the
    larger of the ratios at the two largest depths.
    """
    order = np.argsort(delta)[::-1]
    r = ratio[order]
    growth = float(r[-1] / max(r[0], r[1]))
    return Check("bound_ratio_no_increasing_trend", growth <= TREND_FACTOR, growth, TREND_FACTOR)


def double_exponential_fit(t: np.ndarray, m: np.ndarray, fit, c_true: float) -> Check:
    """The fit recovers C of exp(-C exp(C t)) and its bound lies below every sample."""
    gap = abs(fit.C_fit - c_true)
    bound = np.exp(-fit.C_fit * np.exp(fit.C_fit * t))
    below = bool(np.all(m >= bound * (1.0 - fit.fit_slack) - 1e-12))
    ok = gap <= FIT_C_TOL and fit.certified and below
    return Check("double_exponential_fit", ok, gap, FIT_C_TOL)
