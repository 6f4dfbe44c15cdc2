"""Half-plane velocity kernel with mirror term and its boundary limits.

In complex form (the Birkhoff-Rott vortex-sheet form of Baker, Meiron and
Orszag), a sheet of strength omega on the curve z(s) = z1(s) + i z2(s)
induces at a point t the conjugate velocity

    u - i v = (1/2 pi i) int [ 1/(t - z(s)) - 1/(t - zbar(s)) ] omega(s) ds.

The mirror source zbar(s) = z1(s) - i z2(s), reflected across the bottom,
makes the vertical velocity vanish identically on y = 0.  Every consumer uses
the exact product form of the pair, R = 1 / ((t - z)(t - zbar)): one complex
reciprocal per pair, and no cancellation between the two kernels near the
bottom.  The sheet velocity is R times the real scale w z2 / pi; the flux
integrals I and I-tilde of the analysis module read one node's row of R
(node_row) with the numerators of the difference and the sum of the kernels,
and the depth rate J one off-grid row at the depth minimum.

On the curve itself the first kernel is Cauchy-singular.  The principal value
is computed by the punctured trapezoid rule (the singular node is omitted, so
the odd 1/u part cancels by symmetry) plus the regular part of the integrand
at the omitted node.  For any density f that regular part is

    R[f] = f z'' / (2 z'^2) - f' / z',

the constant term of f(s) / (z(alpha) - z(s)) as s -> alpha (diagonal_limit);
without it the omitted node costs one full order of accuracy.  The rule is
second order on C^2 data; beyond the grid the integrand is dropped, which the
far-field decay of omega justifies.

Without a held operator, pv_all_nodes forms its punctured sums, u - iv at
every node before the diagonal limit, in one fused pass: it walks the source
nodes a block of rows at a time through two reused buffers, for t - z and
t - zbar, and reduces each block at once against the density omega w z2 / pi;
its memory is O(block N).  A block has max(OPERATOR_BLOCK, BLOCK_PAIRS // N)
rows, which depends on N alone, so a split pass and a one-thread pass walk the
same blocks.  A closure that applies one curve's operator more than once (the
Picard solve, the wave rate) holds its node_operator, the bare rows R, and
passes it to pv_all_nodes, whose sums are then one apply of it to the density,
its scale formed once per curve.  Both closures iterate in solve_tangential on
V . dz/dalpha, where the limit's f' term drops (it is imaginary once
multiplied by z'): tangential_velocity is one apply plus O(N) work.
tangential_velocity_rate, the wave rate's shape derivative, reads the same rows
and their squares, and forms the punctured sums with the apply pv_all_nodes
makes.  pair_passes counts both kinds of pass, process-wide.

From SPLIT_NODES nodes on, the calling thread runs the lower half of the
target columns, cut at a multiple of the block height, and one persistent
helper thread the upper, each through its own half-width buffers.  Each half
adds the source blocks into its own columns in the one-thread order, and a
column's sum over a block does not depend on the width, so the result is
bit-identical.  On 2 cores a fused pass then takes 0.57 of its one-thread time
at N = 2048 and 0.7 at 1536; the two are level at SPLIT_NODES, and below it
the split is slower.
"""

from __future__ import annotations

import os
from contextvars import copy_context
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, TooCloseToCurve, ValidationError
from .geometry import DECAY_TOL, FloatArray, Grid, InterfaceCurve, fd_derivative

INV_2PI_I = 1.0 / (2j * np.pi)

# Off-curve evaluation is refused inside this many grid cells of the curve
# (scaled by max |dz/dalpha|); inside the collar the quadrature is silently
# inaccurate, so callers must switch to the one-sided limits.
NEAR_FIELD_CELLS = 3.0

# Source rows per block of a pair pass: BLOCK_PAIRS // N, 64 at N = 256 and 32
# at 512, but at least OPERATOR_BLOCK, at or near the fastest of 8-64 rows at
# N = 2048 and 4096, split or not.
OPERATOR_BLOCK = 16
BLOCK_PAIRS = 16 * 1024

# Node count from which a pair pass runs half of its targets on a helper thread.
SPLIT_NODES = 1024

# Sup-norm change of successive iterates at which solve_tangential stops.
FIXED_POINT_TOL = 1e-10


class Velocity2(NamedTuple):
    """Planar velocity sample."""

    u: float
    v: float


@dataclass(eq=False)
class VorticityStrength:
    """Sampled sheet strength omega(alpha_j); decays to zero on the edge bands."""

    grid: Grid
    omega: FloatArray
    validate: bool = True

    def __post_init__(self) -> None:
        om = np.ascontiguousarray(self.omega, dtype=np.float64)
        if om.shape != (self.grid.node_count,):
            raise ValidationError(
                f"omega must have shape ({self.grid.node_count},), got {om.shape}"
            )
        om.flags.writeable = False
        object.__setattr__(self, "omega", om)
        if self.validate:
            if not np.all(np.isfinite(om)):
                raise ValidationError("omega samples must be finite")
            band = self.grid.band_mask
            worst = float(np.max(np.abs(om[band]))) if om[band].size else 0.0
            if worst > DECAY_TOL:
                raise ValidationError(
                    f"omega must decay on the edge bands (|omega| = {worst:.3e} "
                    f"> {DECAY_TOL:.1e})"
                )

    @cached_property
    def d1(self) -> FloatArray:
        return fd_derivative(self.omega, self.grid.spacing, 1, edge_value=0.0)


def _require_shared_grid(curve: InterfaceCurve, omega: VorticityStrength) -> None:
    if curve.grid != omega.grid:
        raise ValidationError("curve and omega must share the same grid")


def diagonal_limit(dz, d2z, f, df):
    """R[f] = f z''/(2 z'^2) - f'/z': the punctured node's value.

    Complex z', z'' and real f, f' at one point or at every node alike.
    """
    return (0.5 * f * d2z / dz - df) / dz


def _source_columns(curve: InterfaceCurve) -> np.ndarray:
    """(N, 3): each source's z_k, zbar_k and zbar_k - z_k = -2i z2_k."""
    return np.stack([curve.z, np.conj(curve.z), -2j * curve.z2], axis=1)


def _sheet_rows(sources: np.ndarray, t, puncture=(), out=None, mirror=None):
    """1 / ((t - z_k)(t - zbar_k)), the pair 1/(t - z_k) - 1/(t - zbar_k) over z_k - zbar_k.

    Sources (rows of _source_columns) run down, targets ``t`` across; ``out``
    and ``mirror`` are buffers of that shape for t - z and t - zbar.  At the
    (row, column) positions ``puncture`` the target sits on the source node;
    there t - z_k becomes zbar_k - z_k, which leaves the mirror-only value
    1 / (4 z2_k^2).  Against omega_k w_k z2_k / pi they give u - iv.
    """
    rows = np.subtract(t, sources[:, :1], out=out)
    if puncture:
        rows[puncture] = sources[puncture[0], 2]
    rows *= np.subtract(t, sources[:, 1:2], out=mirror)
    return np.reciprocal(rows, out=rows)


# Whole O(N^2) passes over the node pairs: "assembly" builds an operator,
# "fused" reduces the pairs against a density as it goes.
pair_passes = {"assembly": 0, "fused": 0}


@cache
def _helper():
    """The helper thread of the split passes, imported and started by the first of them."""
    from concurrent.futures import ThreadPoolExecutor
    os.register_at_fork(after_in_child=_helper.cache_clear)  # a forked child starts its own
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="contourdyn-pairs")


def _blocks(n: int):
    """The source blocks of a pass over n nodes: max(OPERATOR_BLOCK, BLOCK_PAIRS // n) rows each."""
    height = max(OPERATOR_BLOCK, BLOCK_PAIRS // n)
    return height, [slice(start, min(start + height, n)) for start in range(0, n, height)]


def _pair_pass(curve: InterfaceCurve, kind: str, use, out=None) -> None:
    """use(block, cols, rows) per source block and target half; rows fill ``out`` if given."""
    pair_passes[kind] += 1
    n = curve.grid.node_count
    height, blocks = _blocks(n)
    sources, index = _source_columns(curve), np.arange(n)
    cut = n // (2 * height) * height if n >= SPLIT_NODES else n
    planes = 1 if out is not None else 2  # an assembly writes its rows straight into ``out``
    halves = [(c, np.empty((planes, height, c.stop - c.start), dtype=np.complex128))
              for c in (slice(0, cut), slice(cut, n)) if c.stop > c.start]

    def half(cols: slice, buffer: np.ndarray) -> None:
        t, width = curve.z[cols], cols.stop - cols.start
        for block in blocks:
            m, offset = block.stop - block.start, block.start - cols.start
            puncture = (index[:m], index[offset : offset + m]) if 0 <= offset < width else ()
            rows = buffer[0, :m] if out is None else out[block, cols]
            use(block, cols, _sheet_rows(sources[block], t, puncture, rows, buffer[-1, :m]))

    # the helper's half runs in a copy of the caller's context, which holds numpy's errstate
    helped = [_helper().submit(copy_context().run, half, *h) for h in halves[1:]]
    try:
        half(*halves[0])
    finally:
        for future in helped:  # re-raises what the helper's half raised
            future.result()


def node_operator(curve: InterfaceCurve) -> np.ndarray:
    """The bare product-form rows R at every node, (N, N), punctured on the diagonal.

    An apply scales the density by the curve's sheet_scale.  For a solve that
    applies one curve's operator more than once: hold it in a local and pass
    it to pv_all_nodes.  It is the only N x N array built.
    """
    curve.require_resolved()
    op = np.empty((curve.grid.node_count,) * 2, dtype=np.complex128)
    _pair_pass(curve, "assembly", lambda *_: None, op)
    op.flags.writeable = False
    return op


def _apply(rows: np.ndarray, omega: FloatArray) -> np.ndarray:
    """omega @ rows as one real product: the complex columns are (re, im) pairs."""
    return (omega @ rows.view(np.float64)).view(np.complex128)


def _conjugate_pv(curve: InterfaceCurve, omega: VorticityStrength, far: np.ndarray, nodes):
    """u - iv at the on-curve targets ``nodes``, given their punctured sums ``far``."""
    d2x, d2y = curve.d2
    dz, d2z = curve.dz[nodes], d2x[nodes] + 1j * d2y[nodes]
    limit = diagonal_limit(dz, d2z, omega.omega[nodes], omega.d1[nodes])
    return far + curve.grid.trapezoid_weights[nodes] * limit * INV_2PI_I


def velocity_at_point(curve: InterfaceCurve, omega: VorticityStrength, p) -> Velocity2:
    """Velocity at a point strictly off the curve (trapezoid quadrature).

    Raises TooCloseToCurve inside the near-field collar, where the caller
    must use plemelj_velocity instead.
    """
    _require_shared_grid(curve, omega)
    t = complex(float(p[0]), float(p[1]))
    dist = float(np.min(np.abs(t - curve.z)))
    tol = NEAR_FIELD_CELLS * curve.grid.spacing * float(np.sqrt(np.max(curve.speed_squared)))
    if dist < tol:
        raise TooCloseToCurve(dist, tol)
    w = _apply(_sheet_rows(_source_columns(curve), [t]), omega.omega * curve.sheet_scale)[0]
    return Velocity2(float(w.real), float(-w.imag))


def node_row(curve: InterfaceCurve, j: int) -> np.ndarray:
    """1 / ((z_j - z_k)(z_j - zbar_k)) over the sources k, punctured at k = j.

    Times 2i z2_k it is the difference 1/(z_j - z_k) - 1/(z_j - zbar_k) of the
    kernels, times 2 (z_j - z1_k) their sum.  At k = j both products give
    -1/(z_j - zbar_j): right for the punctured difference, while the punctured
    sum needs the opposite sign.
    """
    curve.require_resolved()
    if not 0 <= j < curve.grid.node_count:
        raise IndexError(f"node index {j} out of range")
    return _sheet_rows(_source_columns(curve), curve.z[[j]], puncture=([j], [0]))[:, 0]


def pv_boundary_integral(curve: InterfaceCurve, omega: VorticityStrength, j: int) -> Velocity2:
    """Mean (principal-value) velocity on the curve at node j."""
    _require_shared_grid(curve, omega)
    row = node_row(curve, j)[:, None]
    w = _conjugate_pv(curve, omega, _apply(row, omega.omega * curve.sheet_scale), [j])[0]
    return Velocity2(float(w.real), float(-w.imag))


def pv_all_nodes(
    curve: InterfaceCurve, omega: VorticityStrength, operator: np.ndarray | None = None
) -> tuple[FloatArray, FloatArray]:
    """Principal-value velocity (u, v) at every node.

    The punctured sums a R, a = omega w z2 / pi, are one fused O(N^2) pass,
    unless ``operator``, the curve's node_operator held by a solve that applies
    it repeatedly, is given; then they are one apply of it.
    """
    _require_shared_grid(curve, omega)
    curve.require_resolved()
    density = omega.omega * curve.sheet_scale
    if operator is None:  # reduce each block against the density; store no operator
        far = np.zeros(curve.grid.node_count, dtype=np.complex128)

        def reduce(block, cols, rows):
            far[cols] += _apply(rows, density[block])

        _pair_pass(curve, "fused", reduce)
    else:
        far = _apply(operator, density)
    w = _conjugate_pv(curve, omega, far, slice(None))
    return w.real, -w.imag


def tangential_velocity(curve: InterfaceCurve, omega: FloatArray, operator: np.ndarray):
    """V . dz/dalpha = Re((u - iv) z') at every node: one apply of the held node_operator.

    The apply meets omega times the curve's sheet_scale.  Times z', the limit's
    omega' term -w omega' / (2 pi i) is imaginary, so no derivative of omega
    is needed; the rest of the limit is tangential_limit * omega.
    """
    far = _apply(operator, omega * curve.sheet_scale)
    return (far * curve.dz).real + curve.tangential_limit * omega


def tangential_velocity_rate(
    curve: InterfaceCurve, omega: FloatArray, velocity, operator: np.ndarray
) -> FloatArray:
    """d/dt of tangential_velocity as the nodes move with velocity (u, v), omega fixed.

    With a = omega sheet_scale and zdot = u + iv, the punctured sums a R are
    one apply of the held rows R, the one pv_all_nodes makes for the velocity.
    a moves by omega w v / pi (one more apply) and each off-diagonal R_kj by -2 R_kj^2
    [zdot_j (z_j - x_k) - z_j u_k + x_k u_k + y_k v_k]: (a, a x, a u, a (u x + v y))
    against R o R, squared a block of rows at a time into one reused buffer.
    The punctured mirror value a_j / (4 y_j^2) moves by -a_j v_j / (4 y_j^3),
    tangential_limit by w Im((zdot'' z' - z'' zdot') / z'^2) / (4 pi).
    """
    u, v = velocity
    x, y, z, w = curve.z1, curve.z2, curve.z, curve.grid.trapezoid_weights
    a = omega * curve.sheet_scale
    far, moved = _apply(operator, a), _apply(operator, omega * w * v / np.pi)
    weights = np.stack((a, a * x, a * u, a * (u * x + v * y)))
    height, blocks = _blocks(curve.grid.node_count)
    squares = np.empty((height, curve.grid.node_count), dtype=np.complex128)
    sums = 0.0
    for block in blocks:
        held = operator[block]
        rows = np.multiply(held, held, out=squares[: len(held)])
        rows[np.arange(len(rows)), np.arange(block.start, block.stop)] = 0.0
        sums = sums + _apply(rows, weights[:, block])
    zdot = u + 1j * v
    # moved holds the diagonal's a v / (4 y^3); the mirror value moves by minus that
    moved -= 2.0 * (zdot * (z * sums[0] - sums[1]) - z * sums[2] + sums[3]) + a * v / (2.0 * y**3)
    dz, (d2x, d2y), h = curve.dz, curve.d2, curve.grid.spacing
    dzdot, d2zdot = fd_derivative(zdot, h, 1), fd_derivative(zdot, h, 2)
    turning = ((d2zdot * dz - (d2x + 1j * d2y) * dzdot) / (dz * dz)).imag
    return (moved * dz + far * dzdot).real + w * turning * omega / (4.0 * np.pi)


def solve_tangential(curve, operator, rhs, gain, weight=1.0, *, tol, max_iter, what, guess=None):
    """x = weight (rhs + gain V(x) . dz/dalpha) by fixed-point iteration from ``guess``.

    ``guess`` defaults to weight * rhs.  One tangential_velocity apply of the
    held operator and O(N) work per iteration, until successive iterates agree
    to tol in the sup norm.  Returns x and the iteration count; NoConvergence
    after max_iter.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tolerance must be finite and positive, got {tol}")
    if guess is not None and not (np.shape(guess) == np.shape(rhs) and np.all(np.isfinite(guess))):
        raise ValidationError(f"guess must be finite, of the shape {np.shape(rhs)} of rhs")
    x, diff = weight * rhs if guess is None else guess, np.inf
    for iteration in range(1, max_iter + 1):
        new = weight * (rhs + gain * tangential_velocity(curve, x, operator))
        diff, x = float(np.max(np.abs(new - x))), new
        if diff <= tol:
            return x, iteration
    raise NoConvergence(max_iter, diff, what=what)


def plemelj_velocity(
    curve: InterfaceCurve, omega: VorticityStrength, j: int, side: str
) -> Velocity2:
    """One-sided velocity limit at node j: pv -/+ (omega/2) dz/|dz|^2.

    side='plus' is the limit from above the interface, side='minus' from the
    strip below; their difference is the tangential jump -omega dz/|dz|^2.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    mean = pv_boundary_integral(curve, omega, j)
    d1x, d1y = curve.d1
    q0 = curve.speed_squared[j]
    half_jump_u = 0.5 * omega.omega[j] * d1x[j] / q0
    half_jump_v = 0.5 * omega.omega[j] * d1y[j] / q0
    sign = -1.0 if side == "plus" else 1.0
    return Velocity2(mean.u + sign * half_jump_u, mean.v + sign * half_jump_v)
