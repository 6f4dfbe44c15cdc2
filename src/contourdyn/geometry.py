"""Geometry of sampled free-boundary curves over a flat impervious bottom.

The interface is a planar curve alpha -> (z1(alpha), z2(alpha)) sampled on a
uniform truncated parameter grid.  Away from a central window every curve must
agree with the rest configuration (alpha, 1): the outermost DECAY_BAND nodes on
each side carry the flat state to within DECAY_TOL.  That convention keeps the
truncated quadratures well defined (analytic tail corrections become exact) and
gives the finite-difference stencils known boundary values.

All operations here are pure functions of immutable samples; derived arrays are
cached on the owning object and are safe to share across threads.  The one
O(N^2) pass, chord_arc_constant, reads the node pairs at parameter offset k as
row k of one shifted view of the samples and differences a block of rows at a
time into two reused buffers, so its memory stays O(block N) at any N.  It
walks the offsets in increasing blocks and stops once a bound shows that no
later offset can beat its running maximum by more than a relative 1e-12: a
chord at offset k is at least k h minus the spread of z1 - alpha, so a graph
z1 = alpha at N <= 2048 stops after the first block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateParametrization, SelfIntersection, ValidationError

DECAY_TOL = 1e-10
DECAY_BAND = 8
ARC_FLOOR = 1e-8
COLLISION_TOL = 1e-10
# Parameter offsets per block of the chord-arc pass.
CHORD_ARC_BLOCK = 32
# The chord-arc pass's early stop: the relative slack of its bound on the
# squared ratio, and the rounding allowance of its bound on the chords, in
# units of (L + max |z1 - alpha|).
CHORD_ARC_SLACK = 1e-12
CHORD_ARC_ROUNDING = 16.0 * np.finfo(np.float64).eps

FloatArray = np.ndarray


class Model(enum.Enum):
    """Which closure supplies the vorticity strength."""

    MUSKAT = "muskat"
    WATER_WAVES = "waterwaves"


@dataclass(frozen=True)
class Grid:
    """Uniform parameter grid alpha_j = -L + j*h, j = 0..N-1, with h = 2L/N."""

    half_width: float
    node_count: int

    def __post_init__(self) -> None:
        L, N = self.half_width, self.node_count
        if not np.isfinite(L) or L <= 0.0:
            raise ValidationError(f"grid half width must be positive and finite, got {L}")
        if int(N) != N or N < 16 or N % 2 != 0:
            raise ValidationError(f"node count must be an even integer >= 16, got {N}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.node_count

    @cached_property
    def alpha(self) -> FloatArray:
        nodes = -self.half_width + self.spacing * np.arange(self.node_count, dtype=np.float64)
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def trapezoid_weights(self) -> FloatArray:
        """Composite trapezoid weights on [-L, L-h]: half weight at both end nodes."""
        w = np.full(self.node_count, self.spacing, dtype=np.float64)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.flags.writeable = False
        return w

    @cached_property
    def band_mask(self) -> FloatArray:
        """Boolean mask of the two decay bands (outermost DECAY_BAND nodes per side)."""
        mask = np.zeros(self.node_count, dtype=bool)
        band = min(DECAY_BAND, self.node_count // 2)
        mask[:band] = True
        mask[self.node_count - band:] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def far_field_mask(self) -> FloatArray:
        """Smooth cutoff that is 0 on the decay bands and 1 in the interior.

        Evolution right-hand sides are multiplied by this mask so the truncated
        domain keeps its exact flat far field; the suppressed motion is the
        O(1/distance^2) far tail that the truncation drops anyway.
        """
        n = self.node_count
        band = min(DECAY_BAND, n // 2)
        ramp = max(band, n // 16)
        mask = np.where(self.band_mask, 0.0, 1.0)
        for k in range(ramp):
            s = (k + 1.0) / (ramp + 1.0)
            value = 0.5 - 0.5 * np.cos(np.pi * s)
            left = band + k
            right = n - 1 - band - k
            if left >= right:
                break
            mask[left] = min(mask[left], value)
            mask[right] = min(mask[right], value)
        mask.flags.writeable = False
        return mask


@dataclass(frozen=True)
class PhysicalParams:
    """Fluid parameters for either closure.

    The plus fluid occupies the region above the interface, the minus fluid the
    strip between the interface and the bottom y = 0.
    """

    model: Model
    mu_plus: float = 1.0
    mu_minus: float = 1.0
    rho_plus: float = 1.0
    rho_minus: float = 2.0
    g: float = 1.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.mu_plus, self.mu_minus, self.rho_plus, self.rho_minus, self.g, self.gamma)
        if not all(np.isfinite(v) for v in vals):
            raise ValidationError("physical parameters must be finite")
        if self.rho_plus < 0.0 or self.rho_minus < 0.0:
            raise ValidationError("densities must be non-negative")
        if self.g < 0.0:
            raise ValidationError("gravity must be non-negative")
        if self.gamma < 0.0:
            raise ValidationError("surface tension must be non-negative")
        if self.model is Model.MUSKAT:
            if self.mu_plus <= 0.0 or self.mu_minus <= 0.0:
                raise ValidationError("Muskat viscosities must be positive")
        else:
            if self.rho_plus + self.rho_minus <= 0.0:
                raise ValidationError("water waves require rho_plus + rho_minus > 0")

    @property
    def viscosity_mean(self) -> float:
        return 0.5 * (self.mu_plus + self.mu_minus)

    @property
    def viscosity_jump(self) -> float:
        return self.mu_plus - self.mu_minus

    @property
    def density_jump(self) -> float:
        return self.rho_plus - self.rho_minus

    @property
    def atwood(self) -> float:
        """Density contrast (rho_plus - rho_minus) / (rho_plus + rho_minus)."""
        total = self.rho_plus + self.rho_minus
        if total <= 0.0:
            raise ValidationError("Atwood number undefined for rho_plus + rho_minus <= 0")
        return self.density_jump / total


def fd_derivative(values: FloatArray, h: float, order: int, edge_value: float = 0.0) -> FloatArray:
    """Fourth-order central difference of real or complex samples, flat on the edge bands.

    The outermost DECAY_BAND nodes on each side are set to ``edge_value``; this
    is exact for functions that are constant on the bands, which the far-field
    decay invariant guarantees for every field we differentiate.
    """
    v = np.asarray(values, dtype=np.result_type(values, 1.0))
    out = np.zeros_like(v)
    if order == 1:
        out[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    elif order == 2:
        out[2:-2] = (-v[4:] + 16.0 * v[3:-1] - 30.0 * v[2:-2] + 16.0 * v[1:-3] - v[:-4]) / (
            12.0 * h * h
        )
    else:
        raise ValueError(f"order must be 1 or 2, got {order}")
    band = min(DECAY_BAND, out.size // 2)
    out[:band] = edge_value
    out[out.size - band:] = edge_value
    return out


@dataclass(eq=False)
class InterfaceCurve:
    """Sampled interface (z1, z2) over a grid, strictly above the bottom.

    ``validate=False`` skips the invariant checks; it is reserved for transient
    stage values inside the integrator.
    """

    grid: Grid
    z1: FloatArray
    z2: FloatArray
    validate: bool = True

    def __post_init__(self) -> None:
        z1 = np.ascontiguousarray(self.z1, dtype=np.float64)
        z2 = np.ascontiguousarray(self.z2, dtype=np.float64)
        if z1.shape != (self.grid.node_count,) or z2.shape != (self.grid.node_count,):
            raise ValidationError(
                f"curve samples must have shape ({self.grid.node_count},), "
                f"got {z1.shape} and {z2.shape}"
            )
        z1.flags.writeable = False
        z2.flags.writeable = False
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)
        if self.validate:
            self.check_invariants()

    def check_invariants(self) -> None:
        """Raise ValidationError unless finite, above the bottom and flat far out."""
        if not (np.all(np.isfinite(self.z1)) and np.all(np.isfinite(self.z2))):
            raise ValidationError("curve samples must be finite")
        if np.any(self.z2 <= 0.0):
            j = int(np.argmin(self.z2))
            raise ValidationError(
                f"curve must stay strictly above the bottom: z2[{j}] = {self.z2[j]:.3e}"
            )
        band = self.grid.band_mask
        dev = np.abs(self.z1[band] - self.grid.alpha[band]) + np.abs(self.z2[band] - 1.0)
        worst = float(dev.max()) if dev.size else 0.0
        if worst > DECAY_TOL:
            raise ValidationError(
                f"far-field flatness violated on the decay band (deviation {worst:.3e} "
                f"> {DECAY_TOL:.1e})"
            )

    @cached_property
    def d1(self) -> tuple[FloatArray, FloatArray]:
        h = self.grid.spacing
        return (
            fd_derivative(self.z1, h, 1, edge_value=1.0),
            fd_derivative(self.z2, h, 1, edge_value=0.0),
        )

    @cached_property
    def d2(self) -> tuple[FloatArray, FloatArray]:
        h = self.grid.spacing
        return (
            fd_derivative(self.z1, h, 2, edge_value=0.0),
            fd_derivative(self.z2, h, 2, edge_value=0.0),
        )

    @cached_property
    def z(self) -> np.ndarray:
        """Complex samples z1 + i z2."""
        z = self.z1 + 1j * self.z2
        z.flags.writeable = False
        return z

    @cached_property
    def dz(self) -> np.ndarray:
        """Complex tangent z' = dz/dalpha."""
        d1x, d1y = self.d1
        return d1x + 1j * d1y

    @cached_property
    def chord_arc(self) -> float:
        """chord_arc_constant of this curve, computed once."""
        return chord_arc_constant(self)

    @cached_property
    def speed_squared(self) -> FloatArray:
        d1x, d1y = self.d1
        return d1x * d1x + d1y * d1y

    @cached_property
    def tangential_limit(self) -> FloatArray:
        """w Im(z''/z') / (4 pi): the punctured node's share of V . dz/dalpha per unit omega."""
        (d1x, d1y), (d2x, d2y) = self.d1, self.d2
        turning = (d1x * d2y - d1y * d2x) / self.speed_squared  # Im(z''/z')
        return self.grid.trapezoid_weights * turning / (4.0 * np.pi)

    @cached_property
    def sheet_scale(self) -> FloatArray:
        """w z2 / pi: the real factor of each source's row of the sheet velocity."""
        return self.grid.trapezoid_weights * self.z2 / np.pi

    def require_resolved(self) -> None:
        """Raise if the parametrization is too degenerate for singular quadrature."""
        if float(np.min(self.speed_squared)) < ARC_FLOOR * ARC_FLOOR:
            j = int(np.argmin(self.speed_squared))
            raise DegenerateParametrization(
                f"|dz/dalpha| < {ARC_FLOOR:.1e} at node {j} (alpha = {self.grid.alpha[j]:.6g})"
            )


def curvature(curve: InterfaceCurve) -> FloatArray:
    """Signed curvature (d z1 * d2 z2 - d z2 * d2 z1) / |dz|^3 at every node."""
    curve.require_resolved()
    d1x, d1y = curve.d1
    d2x, d2y = curve.d2
    return (d1x * d2y - d1y * d2x) / curve.speed_squared**1.5


def chord_arc_constant(curve: InterfaceCurve) -> float:
    """Max over node pairs of parameter distance over chord length.

    Every pair at offset k is k h apart in alpha, so only the shortest chord
    per offset matters.  Row k of one shifted view of the samples is the node
    sequence shifted by k; CHORD_ARC_BLOCK rows at a time are differenced
    against the nodes into two reused buffers, in O(block N) memory.

    The offsets run in increasing blocks, and the pass stops once no later
    offset can beat the running maximum.  Every chord at offset k is at least
    |dz1| >= k h - osc, where osc is the spread (max - min) of z1 - alpha plus
    a rounding allowance of CHORD_ARC_ROUNDING (L + max |z1 - alpha|) for the
    grid and the pass; so K / (K h - osc) bounds the ratio at every offset from
    K on, and it falls as K grows.  After each block the pass stops when, at
    the next offset K, K h - osc > COLLISION_TOL (no skipped pair can
    collide) and the squared bound is at most the running maximum times
    1 + CHORD_ARC_SLACK.  The slack lets exact ties stop, as on the flat
    stretches of a graph z1 = alpha, where every offset's ratio is 1 / h up to
    rounding; the result can differ from the full pass's only if a skipped
    offset lies within it of the maximum, by at most CHORD_ARC_SLACK / 2
    relative.

    Raises SelfIntersection if any pair of distinct nodes is closer than
    COLLISION_TOL, naming the closest pair at the shortest offset of the
    first block with one, as the full pass does; that block ends the pass.
    """
    z1, z2 = curve.z1, curve.z2
    n, h = z1.size, curve.grid.spacing
    drift = z1 - curve.grid.alpha
    osc = float(np.ptp(drift)) + CHORD_ARC_ROUNDING * (
        curve.grid.half_width + float(np.max(np.abs(drift)))
    )
    # Nodes past the end sit at infinity: their chords never win or collide.
    far = np.full(n, np.inf)
    shifted1 = sliding_window_view(np.concatenate((z1, far)), n)
    shifted2 = sliding_window_view(np.concatenate((z2, far)), n)
    buf1, buf2 = np.empty(CHORD_ARC_BLOCK * n), np.empty(CHORD_ARC_BLOCK * n)
    worst = 0.0  # largest squared offset over squared chord so far
    for k0 in range(1, n, CHORD_ARC_BLOCK):
        rows, m = min(CHORD_ARC_BLOCK, n - k0), n - k0
        # row r holds the squared chords of the pairs (i, i + k0 + r), i < m
        d2, dy = buf1[: rows * m].reshape(rows, m), buf2[: rows * m].reshape(rows, m)
        np.subtract(shifted1[k0:k0 + rows, :m], z1[:m], out=d2)
        np.subtract(shifted2[k0:k0 + rows, :m], z2[:m], out=dy)
        d2 *= d2
        dy *= dy
        d2 += dy
        shortest = d2.min(axis=1)
        r = int(np.argmin(shortest))
        if shortest[r] < COLLISION_TOL * COLLISION_TOL:
            i = int(np.argmin(d2[r]))
            raise SelfIntersection(
                f"nodes {i} and {i + k0 + r} are {np.sqrt(d2[r, i]):.3e} apart "
                f"(< {COLLISION_TOL:.1e})"
            )
        offsets = np.arange(k0, k0 + rows, dtype=np.float64)
        worst = float(np.maximum(worst, np.max(offsets * offsets / shortest)))  # keeps a NaN
        k = k0 + rows  # the next offset
        gap = k * h - osc
        if gap > COLLISION_TOL and (k / gap) ** 2 <= worst * (1.0 + CHORD_ARC_SLACK):
            break
    return h * float(np.sqrt(worst))


class MinDepth(NamedTuple):
    """Refined minimum depth, its location, the discrete argmin and its tie count."""

    m: float
    alpha_star: float
    index: int
    tie_count: int


def min_depth(curve: InterfaceCurve) -> MinDepth:
    """Minimum height above the bottom, refined by parabolic interpolation.

    The discrete argmin takes the smallest alpha among exact ties; the refined
    location never leaves the bracketing cell.
    """
    z2 = curve.z2
    j = int(np.argmin(z2))
    tie_count = int(np.count_nonzero(z2 == z2[j]))
    alpha = curve.grid.alpha
    h = curve.grid.spacing
    if j == 0 or j == z2.size - 1:
        return MinDepth(float(z2[j]), float(alpha[j]), j, tie_count)
    fm, f0, fp = float(z2[j - 1]), float(z2[j]), float(z2[j + 1])
    denom = fm - 2.0 * f0 + fp
    if denom <= 0.0:
        return MinDepth(f0, float(alpha[j]), j, tie_count)
    offset = 0.5 * h * (fm - fp) / denom
    offset = float(np.clip(offset, -h, h))
    m = f0 - (fp - fm) ** 2 / (8.0 * denom)
    return MinDepth(float(min(m, f0)), float(alpha[j] + offset), j, tie_count)


def holder_norms(curve: InterfaceCurve) -> tuple[float, float, float]:
    """Discrete sup norms of z - (alpha, 1) and its first two derivatives."""
    alpha = curve.grid.alpha
    dev_x = curve.z1 - alpha
    dev_y = curve.z2 - 1.0
    c0 = float(np.max(np.hypot(dev_x, dev_y)))
    d1x, d1y = curve.d1
    c1 = float(np.max(np.hypot(d1x - 1.0, d1y)))
    d2x, d2y = curve.d2
    c2 = float(np.max(np.hypot(d2x, d2y)))
    return c0, c1, c2


def far_field_mask(grid: Grid) -> FloatArray:
    """The grid's read-only far-field mask, built once per Grid (Grid.far_field_mask)."""
    return grid.far_field_mask


def curve_record(curve: InterfaceCurve, t: float) -> dict:
    """JSON-serializable snapshot record {t, alpha, z1, z2} at full precision."""
    return {
        "t": float(t),
        "alpha": curve.grid.alpha.tolist(),
        "z1": curve.z1.tolist(),
        "z2": curve.z2.tolist(),
    }


def curve_from_record(record: dict) -> tuple[float, InterfaceCurve]:
    """Rebuild (t, curve) from a snapshot record, inferring the grid."""
    missing = [key for key in ("t", "alpha", "z1", "z2") if key not in record]
    if missing:
        raise ValidationError(f"snapshot record lacks {', '.join(missing)}")
    try:
        t = float(record["t"])
        alpha, z1, z2 = (np.asarray(record[key], dtype=np.float64) for key in ("alpha", "z1", "z2"))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"snapshot record is not numeric: {exc}") from None
    if not np.isfinite(t):
        raise ValidationError(f"snapshot time must be finite, got {t}")
    if alpha.size < 16:
        raise ValidationError("snapshot record has too few nodes")
    h = alpha[1] - alpha[0]
    if not np.allclose(np.diff(alpha), h, rtol=0.0, atol=1e-12 * max(1.0, abs(h))):
        raise ValidationError("snapshot record nodes are not uniform")
    grid = Grid(half_width=-float(alpha[0]), node_count=alpha.size)
    if not np.allclose(grid.alpha, alpha, rtol=0.0, atol=1e-9):
        raise ValidationError("snapshot record nodes do not match a centered uniform grid")
    return t, InterfaceCurve(grid, z1, z2)
