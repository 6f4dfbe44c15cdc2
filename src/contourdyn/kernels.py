"""Half-plane velocity kernel with mirror term and its principal value on the curve.

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
with the numerators of the difference and the sum of the kernels, and the
depth rate J one off-grid row at the depth minimum: both through sheet_row.

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
nodes a block of rows at a time through one reused row buffer, and reduces
each block at once against the density omega w z2 / pi; its memory is
O(block N).  A closure that applies one curve's operator more than once (the
Muskat Picard solve, the wave closure) holds its node_operator, the bare rows
R, and passes it to pv_all_nodes, whose sums are then one apply of it to the
density, its scale formed once per curve.  Both closures iterate one
equation, x = r + g V(x) . dz/dalpha, in solve_tangential; in V . dz/dalpha
the limit's f' term drops (it is imaginary once multiplied by z'):
tangential_velocity is one apply plus O(N) work.  So a pair pass and an apply
are the only O(N^2) walks; no closure reads the operator's rows.  pair_passes
counts both kinds of pass, process-wide.

A pass forms a block's products P = (t - z_k)(t - zbar_k), then one reciprocal.
From FAR_NODES on only the target columns within NEAR of the block keep the two
factors; the rest are one real (m, 3) x (3, 2w) matrix product about the
block's centre c: P = (t - c)^2 - 2 d_k (t - c) + d_k^2 + y_k^2, d_k = x_k - c.
For X = |x_t - x_k| >= 2 |d_k| and Y = y_t + y_k its terms are at most
8 X^2 + 3 Y^2 against |P| >= X (X^2 + Y^2)^(1/2): it rounds to a few eps
(1 + Y/X), which the band bounds.  Every entry matched long double to 1.4e-15
relative at N = 1024 to 8192, as the two-factor form does.  On 2 cores a split
fused pass took 6.8 / 18 / 52 ms at N = 1024 / 2048 / 4096, against 10.5 / 28
/ 98 for the two-factor pass; the reciprocal, 3 ns a pair, is most of it.

From SPLIT_NODES nodes on, the calling thread runs the lower half of the
target columns, cut at a multiple of the block height, and one persistent
helper thread the upper, each through its own buffers.  Each half adds the
source blocks, whose height depends on N alone (_blocks), into its own columns
in the one-thread order, and a column's value and sum over a block do not
depend on the width: the result is bit-identical.  On 2 cores a split fused
pass takes 0.78 of the one-thread time at N = 2048, 0.52 at 4096, 0.9 at 1024.
"""

from __future__ import annotations

import os
from contextvars import copy_context
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import NoConvergence, ValidationError
from .geometry import DECAY_TOL, FloatArray, Grid, InterfaceCurve

INV_2PI_I = 1.0 / (2j * np.pi)

# Source rows per block of a pair pass: BLOCK_PAIRS // N below FAR_NODES (64 at N = 256,
# 32 at 512), OPERATOR_BLOCK from it on; at N = 2048 24 rows took 1.15x as long.
OPERATOR_BLOCK = 32
BLOCK_PAIRS = 16 * 1024

# Node count from which a pair pass runs half of its targets on a helper thread.
SPLIT_NODES = 1024

# From FAR_NODES nodes on, the products beyond NEAR columns of a block are a rank-3 product.
FAR_NODES = 1024
NEAR = 16

# Sup-norm change of successive iterates at which solve_tangential stops, and
# the iterations it makes before NoConvergence, for both closures.
FIXED_POINT_TOL = 1e-10
MAX_FIXED_POINT_ITER = 200


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
            worst = float(np.max(np.abs(om[band])))
            if worst > DECAY_TOL:
                raise ValidationError(
                    f"omega must decay on the edge bands (|omega| = {worst:.3e} "
                    f"> {DECAY_TOL:.1e})"
                )

    @cached_property
    def d1(self) -> FloatArray:
        return self.grid.derivative(self.omega, 1)


def _require_shared_grid(curve: InterfaceCurve, omega: VorticityStrength) -> None:
    if curve.grid != omega.grid:
        raise ValidationError("curve and omega must share the same grid")


def diagonal_limit(dz, d2z, f, df):
    """R[f] = f z''/(2 z'^2) - f'/z': the punctured node's value.

    Complex z', z'' and real f, f' at one point or at every node alike.
    """
    return (0.5 * f * d2z / dz - df) / dz


def _sheet_rows(z: np.ndarray, t, puncture=(), out=None, mirror=None):
    """(t - z_k)(t - zbar_k), whose reciprocal is 1/(t - z_k) - 1/(t - zbar_k) over z_k - zbar_k.

    Sources z_k run down, targets ``t`` across; ``out`` and ``mirror`` are
    buffers of that shape for t - z and t - zbar.  At the (row, column)
    positions ``puncture`` the target sits on the source node; there t - z_k
    becomes zbar_k - z_k = -2i z2_k, which leaves the mirror-only value
    1 / (4 z2_k^2).  Against omega_k w_k z2_k / pi the reciprocals give u - iv.
    """
    rows = np.subtract(t, z[:, None], out=out)
    if puncture:
        rows[puncture] = -2j * z.imag[puncture[0]]
    rows *= np.subtract(t, z.conj()[:, None], out=mirror)
    return rows


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
    """A pass's source blocks: BLOCK_PAIRS // n rows each, OPERATOR_BLOCK from FAR_NODES on."""
    height = OPERATOR_BLOCK if n >= FAR_NODES else BLOCK_PAIRS // n
    return height, [slice(start, min(start + height, n)) for start in range(0, n, height)]


def _pair_pass(curve: InterfaceCurve, kind: str, use, out=None) -> None:
    """use(block, cols, rows) per source block and target half; rows fill ``out`` if given."""
    pair_passes[kind] += 1
    n = curve.grid.node_count
    height, blocks = _blocks(n)
    z, index, far = curve.z, np.arange(n), n >= FAR_NODES
    band = NEAR if far else n  # below FAR_NODES every column is near
    cut = n // (2 * height) * height if n >= SPLIT_NODES else n
    if far:  # each block's centre c and its sources' [1, -2 d_k, d_k^2 + y_k^2]
        centres = z.real[[(b.start + b.stop) // 2 for b in blocks]]
        d = z.real - np.repeat(centres, height)[:n]
        coeffs = np.stack((np.ones(n), -2.0 * d, d * d + z.imag**2), axis=1)

    def half(cols: slice, buffer, mirror, powers) -> None:
        t, width = z[cols], cols.stop - cols.start
        for i, block in enumerate(blocks):
            m, offset = block.stop - block.start, block.start - cols.start
            rows = buffer[:m] if out is None else out[block, cols]
            if far:  # every column by the rank-3 product; the near band's are replaced
                np.square(np.subtract(t, centres[i], out=powers[1]), out=powers[0])
                np.matmul(coeffs[block], powers.view(np.float64), out=rows.view(np.float64))
            lo, hi = max(offset - band, 0), min(offset + m + band, width)
            if lo < hi:
                puncture = (index[:m], index[offset - lo :][:m]) if 0 <= offset < width else ()
                _sheet_rows(z[block], t[lo:hi], puncture, rows[:, lo:hi], mirror[:m, : hi - lo])
            use(block, cols, np.reciprocal(rows, out=rows))

    # the calling thread makes each half's rows (an assembly's fill ``out``), near-band
    # mirror and powers [(t - c)^2, t - c, 1]: freed in the helper thread, they would stay
    # in its allocator arena.  That half runs in a copy of the caller's context (errstate).
    halves = [(c, np.empty((height, w), dtype=np.complex128) if out is None else None,
               np.empty((height, min(w, height + 2 * band)), dtype=np.complex128),
               np.ones((3, w), dtype=np.complex128) if far else None)
              for c in (slice(0, cut), slice(cut, n)) if (w := c.stop - c.start)]
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


def sheet_row(curve: InterfaceCurve, t: complex, on) -> np.ndarray:
    """1 / ((t - z_k)(t - zbar_k)) over the sources k, punctured at the sources ``on`` t sits on.

    Times 2i z2_k it is the difference 1/(t - z_k) - 1/(t - zbar_k) of the kernels,
    times 2 (t - z1_k) their sum.  At a punctured k both give -1/(t - zbar_k): right
    for the punctured difference, while the punctured sum needs the opposite sign.
    """
    curve.require_resolved()
    return np.reciprocal(_sheet_rows(curve.z, [t], puncture=(on, 0)))[:, 0]


def pv_all_nodes(
    curve: InterfaceCurve, omega: VorticityStrength, operator: np.ndarray | None = None
) -> tuple[FloatArray, FloatArray]:
    """Principal-value velocity (u, v) at every node: punctured sums plus diagonal limits.

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
    d2x, d2y = curve.d2
    limit = diagonal_limit(curve.dz, d2x + 1j * d2y, omega.omega, omega.d1)
    w = far + curve.grid.trapezoid_weights * limit * INV_2PI_I
    return w.real, -w.imag


def tangential_velocity(curve: InterfaceCurve, omega: FloatArray, operator: np.ndarray):
    """V . dz/dalpha = Re((u - iv) z') at every node: one apply of the held node_operator.

    The apply meets omega times the curve's sheet_scale.  Times z', the limit's
    omega' term -w omega' / (2 pi i) is imaginary, so no derivative of omega
    is needed; the rest of the limit is tangential_limit * omega.
    """
    far = _apply(operator, omega * curve.sheet_scale)
    return (far * curve.dz).real + curve.tangential_limit * omega


def solve_tangential(curve, operator, rhs, gain, *, tol, what, guess=None):
    """x = rhs + gain V(x) . dz/dalpha by fixed-point iteration from ``guess``, else rhs.

    ``gain`` is a scalar or a nodewise array.  One tangential_velocity apply of
    the held operator and O(N) work per iteration, until successive iterates
    agree to tol in the sup norm.  Returns x and the iteration count;
    NoConvergence, naming the solve ``what``, after MAX_FIXED_POINT_ITER iterations.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tolerance must be finite and positive, got {tol}")
    if guess is not None and not (np.shape(guess) == np.shape(rhs) and np.all(np.isfinite(guess))):
        raise ValidationError(f"guess must be finite, of the shape {np.shape(rhs)} of rhs")
    x, diff = rhs if guess is None else guess, np.inf
    for iteration in range(1, MAX_FIXED_POINT_ITER + 1):
        new = rhs + gain * tangential_velocity(curve, x, operator)
        diff, x = float(np.max(np.abs(new - x))), new
        if diff <= tol:
            return x, iteration
    raise NoConvergence(MAX_FIXED_POINT_ITER, diff, what=what)
