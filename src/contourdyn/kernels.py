"""Half-plane velocity kernel with mirror term and its boundary limits.

In complex form (the Birkhoff-Rott vortex-sheet form of Baker, Meiron and
Orszag), a sheet of strength omega on the curve z(s) = z1(s) + i z2(s)
induces at a point t the conjugate velocity

    u - i v = (1/2 pi i) int [ 1/(t - z(s)) - 1/(t - zbar(s)) ] omega(s) ds.

The mirror source zbar(s) = z1(s) - i z2(s), reflected across the bottom,
makes the vertical velocity vanish identically on y = 0.  The sheet velocity
uses the exact product form (z - zbar) / ((t - z)(t - zbar)) of the pair: one
complex reciprocal per pair times the real scale w z2 / pi, and no cancellation
between the two kernels near the bottom.  The flux integrals I and I-tilde of
the analysis module need the kernels apart (cauchy_pair, sources down the first
axis, targets across the second).  (The depth rate J keeps its own off-grid
form, which avoids the cancellation between the pair at small depth.)

On the curve itself the first kernel is Cauchy-singular.  The principal value
is computed by the punctured trapezoid rule (the singular node is omitted, so
the odd 1/u part cancels by symmetry) plus the regular part of the integrand
at the omitted node.  For any density f that regular part is

    R[f] = f z'' / (2 z'^2) - f' / z',

the constant term of f(s) / (z(alpha) - z(s)) as s -> alpha (diagonal_limit);
without it the omitted node costs one full order of accuracy.  The rule is
second order on C^2 data; beyond the grid the integrand is dropped, which the
far-field decay of omega justifies.

pv_all_nodes is one fused pass: it walks the source nodes OPERATOR_BLOCK rows
at a time through two reused (block, N) buffers, for t - z and t - zbar, and
reduces each block at once against the density omega w z2 / pi, which carries
the real scale.  It never stores the operator, so its memory is O(block N).  A
solve that applies one curve's operator more than once (a Picard iteration,
the implicit rate's probe loop) builds it with node_operator, the same rows
times the scale, holds it in a local and passes it to pv_all_nodes; peak
memory is then that one operator of 16 N^2 bytes.  pair_passes counts both
kinds of O(N^2) pass.  Single-node and off-curve evaluations form one O(N) row
of the same product form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import TooCloseToCurve, ValidationError
from .geometry import DECAY_TOL, FloatArray, Grid, InterfaceCurve, fd_derivative

INV_2PI_I = 1.0 / (2j * np.pi)

# Off-curve evaluation is refused inside this many grid cells of the curve
# (scaled by max |dz/dalpha|); inside the collar the quadrature is silently
# inaccurate, so callers must switch to the one-sided limits.
NEAR_FIELD_CELLS = 3.0

# Source rows per block of a pass over the node pairs, so the buffers stay in
# cache: 16 is at or near the fastest of 8-64 at N = 2048 and 4096.
OPERATOR_BLOCK = 16


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


def diagonal_limit(curve: InterfaceCurve, f: FloatArray, df: FloatArray) -> np.ndarray:
    """R[f] = f z''/(2 z'^2) - f'/z' at every node: the punctured node's value."""
    d1x, d1y = curve.d1
    d2x, d2y = curve.d2
    dz = d1x + 1j * d1y
    return (0.5 * f * (d2x + 1j * d2y) / dz - df) / dz


def _sheet_rows(curve: InterfaceCurve, t, sources=slice(None), puncture=(), out=None, mirror=None):
    """1 / ((t - z_k)(t - zbar_k)), the pair 1/(t - z_k) - 1/(t - zbar_k) over z_k - zbar_k.

    Sources run down, targets ``t`` across; ``out`` and ``mirror`` are buffers
    of that shape for t - z and t - zbar.  At the (row, column) positions
    ``puncture`` the target sits on the source node; there t - z_k becomes
    zbar_k - z_k, which leaves the mirror-only value 1 / (4 z2_k^2).  Against
    the density omega_k w_k z2_k / pi the rows give the sheet velocity u - iv.
    """
    z = curve.z[sources, None]
    rows = np.subtract(t, z, out=out)
    if puncture:
        rows[puncture] = -2j * curve.z2[sources][puncture[0]]
    rows *= np.subtract(t, np.conj(z), out=mirror)
    return np.reciprocal(rows, out=rows)


def _sheet_scale(curve: InterfaceCurve) -> FloatArray:
    """The real factor w_k z2_k / pi of each source row of the sheet velocity."""
    return curve.grid.trapezoid_weights * curve.z2 / np.pi


# Whole O(N^2) passes over the node pairs: "assembly" builds an operator,
# "fused" reduces the pairs against a density as it goes.
pair_passes = {"assembly": 0, "fused": 0}


def _node_blocks(curve: InterfaceCurve, kind: str, out=None):
    """(block, rows) of the punctured node rows, OPERATOR_BLOCK sources at a time.

    The rows go into ``out[block]`` when given, else into one reused buffer.
    """
    pair_passes[kind] += 1
    n = curve.grid.node_count
    buffers = np.empty((2, OPERATOR_BLOCK, n), dtype=np.complex128)
    for start in range(0, n, OPERATOR_BLOCK):
        block = slice(start, min(start + OPERATOR_BLOCK, n))
        m = block.stop - start
        diag = np.arange(m)
        rows = buffers[0, :m] if out is None else out[block]
        yield block, _sheet_rows(curve, curve.z, block, (diag, diag + start), rows, buffers[1, :m])


def node_operator(curve: InterfaceCurve) -> np.ndarray:
    """The sheet operator at every node, (N, N), punctured on the diagonal.

    For a solve that applies one curve's operator more than once: hold it in
    a local and pass it to pv_all_nodes.  It is the only N x N array built.
    """
    curve.require_resolved()
    op = np.empty((curve.grid.node_count,) * 2, dtype=np.complex128)
    scale = _sheet_scale(curve)
    for block, rows in _node_blocks(curve, "assembly", op):
        rows.view(np.float64)[...] *= scale[block, None]
    op.flags.writeable = False
    return op


def _apply(rows: np.ndarray, omega: FloatArray) -> np.ndarray:
    """omega @ rows as one real product: the complex columns are (re, im) pairs."""
    return (omega @ rows.view(np.float64)).view(np.complex128)


def _conjugate_pv(curve: InterfaceCurve, omega: VorticityStrength, far: np.ndarray, nodes):
    """u - iv at the on-curve targets ``nodes``, given their punctured sums ``far``."""
    limit = diagonal_limit(curve, omega.omega, omega.d1)[nodes]
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
    w = _apply(_sheet_rows(curve, np.array([t])), omega.omega * _sheet_scale(curve))[0]
    return Velocity2(float(w.real), float(-w.imag))


def pv_boundary_integral(curve: InterfaceCurve, omega: VorticityStrength, j: int) -> Velocity2:
    """Mean (principal-value) velocity on the curve at node j."""
    _require_shared_grid(curve, omega)
    curve.require_resolved()
    if not 0 <= j < curve.grid.node_count:
        raise IndexError(f"node index {j} out of range")
    rows = _sheet_rows(curve, curve.z[[j]], puncture=([j], [0]))
    w = _conjugate_pv(curve, omega, _apply(rows, omega.omega * _sheet_scale(curve)), [j])[0]
    return Velocity2(float(w.real), float(-w.imag))


def pv_all_nodes(
    curve: InterfaceCurve, omega: VorticityStrength, operator: np.ndarray | None = None
) -> tuple[FloatArray, FloatArray]:
    """Principal-value velocity (u, v) at every node.

    One fused O(N^2) pass, unless ``operator``, the curve's node_operator held
    by a solve that applies it repeatedly, is given.
    """
    _require_shared_grid(curve, omega)
    curve.require_resolved()
    if operator is None:  # reduce each block against the density; store no operator
        density = omega.omega * _sheet_scale(curve)
        far = np.zeros(curve.grid.node_count, dtype=np.complex128)
        for block, rows in _node_blocks(curve, "fused"):
            far += _apply(rows, density[block])
    else:
        far = _apply(operator, omega.omega)
    w = _conjugate_pv(curve, omega, far, slice(None))
    return w.real, -w.imag


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
