"""Weighted composition operators and their cocycle products.

The operator sends f to w * (f o alpha) for a homeomorphism alpha and a
positive weight w with bounded reciprocal.  Orbit norms are governed by the
weight products along alpha-orbits; those products are accumulated as
compensated (Sum2) sums of base-2 logarithms so that sweeps reaching
2**(+-10^4) neither overflow nor lose the 1e-12 accuracy the oracles
require, and stay bit-exact for dyadic weights, whose TwoSum errors are 0.

The Sum2 passes run on a complex128 view of the (rows, points) block, two
adjacent points per complex column: numpy's sequential scan costs the same
per element for complex128 as for float64, so each step of it covers two
points.  Blocks are therefore held at an even width, an odd point set
padded with one column of zero logs that no caller sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funcspace import (
    GridFunction,
    Homeo,
    PiecewiseMap,
    Translation,
    exit_time,
    homeo_orbit,
    homeo_orbit_blocks,
    homeo_power,
)

__all__ = [
    "CompositionOperator",
    "CocycleSweep",
    "scale_by_exp2",
    "segal_compatible",
]


def _sum2_rows(x: np.ndarray, s: np.ndarray, e: np.ndarray,
               buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite the (rows, |t|) block ``x`` of terms with its running
    totals, continuing the carry (s, e) of the rows before it; return the
    carry after it.  Sum2 (Ogita, Rump & Oishi 2005, "Accurate sum and dot
    product"): s runs the plain sum, E = e + the running sum of its exact
    TwoSum errors, and a row is s + E.  Each pass runs down the rows in
    order, so one call on a block equals one call per row.  ``buf`` is
    scratch of (>= 2*rows + 1, |t|).

    |t| must be even, and the last axis of every array contiguous: the
    passes run on complex128 views that pair adjacent columns.  Complex
    add and subtract are the IEEE double operations on each component
    alone, so every column gets the float64 passes' bits, -0.0, inf and
    NaN included, while each scan step covers two columns."""
    x, s, e, buf = (a.view(np.complex128) for a in (x, s, e, buf))
    r = len(x)
    cs, z = buf[:r + 1], buf[r + 1:2 * r + 1]
    cs[0], cs[1:] = s, x
    np.add.accumulate(cs, out=cs)
    prev, cur = cs[:-1], cs[1:]
    np.subtract(cur, prev, out=z)
    x -= z
    np.subtract(prev, np.subtract(cur, z, out=z), out=z)
    x += z
    x[0] += e
    np.add.accumulate(x, out=x)
    e = x[-1].copy()
    x += cur
    return cur[-1].copy().view(float), e.view(float)


@dataclass(frozen=True)
class CompositionOperator:
    """The pair (alpha, w); w must carry the positivity flag."""

    alpha: Homeo
    weight: PiecewiseMap

    def __post_init__(self):
        if not self.weight.positive:
            raise ValueError("operator weight must be flagged positive")

    def log2_weight(self, t, out=None) -> np.ndarray:
        return np.log2(self.weight(t), out=out)


def _log2_block(op: CompositionOperator, block: np.ndarray,
                width: int) -> np.ndarray:
    """log2 w over the (rows, |t|) ``block`` of orbit points, written into
    a fresh (rows, ``width``) array whose columns past |t| hold 0."""
    logs = np.empty((len(block), width))
    k = block.shape[1]
    op.log2_weight(block, out=logs[:, :k])
    logs[:, k:] = 0.0
    return logs


# Rows of orbit lattice per block, at most _BLOCK_CELLS cells (rows x
# points) in all: bounds a sweep's memory whatever its horizon and width.
_BLOCK_ROWS = 1024
_BLOCK_CELLS = 32768

# How far tau may move under one step of alpha and still count as
# alpha-invariant (the Segal norm's weight is read along orbits).
_SEGAL_TOL = 1e-9


def _block_rows(width: int) -> int:
    """Rows per lattice block for ``width`` points per row."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // max(width, 1)))


class _Lattice:
    """The orbit points t + k*shift of a translation's walks over a point
    set, read as one 1-D table per block.

    When the points and the shift are integer multiples of 2**-e and every
    t + k*shift the walks read is below 2**52 * 2**-e in size, each such
    sum is exact, and so is lo + i*g for a block's least point lo and the
    lattice step g, the gcd of the shift and the points' differences.  The
    table lo + g*arange(size) then holds the very floats of the block's
    position array, each distinct one once: row r of the block reads the
    entries r*d + cols, d = step*shift/g and cols = (t - min t)/g, moved
    by (rows - 1)*|d| when d < 0, so that the block's least point is
    entry 0.  One lattice serves every walk over its points with |k| up to
    the ``kmax`` it was built for."""

    def __init__(self, shift: float, t0: float, g: float, unit: int,
                 span: int, cols, neg_zero: bool):
        self.shift, self.t0, self.g, self.unit = shift, t0, g, unit
        self.span, self.cols, self.neg_zero = span, cols, neg_zero

    @classmethod
    def of(cls, alpha, pts: np.ndarray, kmax: int) -> "_Lattice | None":
        """The lattice of the walks over ``pts`` with |k| <= kmax, or None
        unless alpha is a translation, |t| is positive and those walks are
        exact as above."""
        if not isinstance(alpha, Translation) or pts.size == 0:
            return None
        shift = alpha.shift
        kmax = max(kmax, 1)
        t0, t1 = float(pts.min()), float(pts.max())
        # e is the largest with reach < 2**52 * 2**-e; rounding is monotone
        # and that bound a float, so the float reach is below it iff the
        # exact one is.  NaN and inf fail.
        reach = max(-t0, t1) + kmax * abs(shift)
        e = 52 - math.frexp(reach)[1]
        if (not reach < math.inf or e < 0
                or not math.ldexp(shift, e).is_integer()):
            return None
        scaled = np.ldexp(pts, e)
        if not (scaled == np.rint(scaled)).all():
            return None
        sh = int(math.ldexp(shift, e))
        offsets = (scaled - math.ldexp(t0, e)).astype(np.int64)
        g = int(np.gcd.reduce(offsets, initial=sh))
        offsets //= g
        # evenly spaced points read the table through a strided view
        cols = offsets
        if pts.size > 1:
            dc = int(offsets[1] - offsets[0])
            if dc and (np.diff(offsets) == dc).all():
                cols = slice(int(offsets[0]), None, dc)
        # t + k*shift is -0.0, a float no table holds, only for t = -0.0
        # read at k = 0 under a negative shift
        neg_zero = shift < 0 and bool(np.signbit(pts[pts == 0]).any())
        return cls(shift, t0, math.ldexp(g, -e), sh // g, int(offsets.max()),
                   cols, neg_zero)

    def reads(self, n: int, step: int, start: int) -> bool:
        """Whether the walk of n rows from k = ``start`` by ``step``, with
        |k| <= kmax, may read this lattice: it reads no -0.0 point."""
        ks = start, start + step * (n - 1)
        return not (self.neg_zero and min(ks) <= 0 <= max(ks))

    def log2_block(self, op: CompositionOperator, k1: int, step: int,
                   out: np.ndarray) -> bool:
        """Write log2 w over the block of ``len(out)`` rows from k = ``k1``
        by ``step`` into ``out``, (rows, |t|); False, writing nothing, when
        the table would have more entries than the block has cells."""
        rows, k = out.shape
        d, span = step * self.unit, self.span
        size = abs(d) * (rows - 1) + span + 1
        if size > rows * k:
            return False
        # the least point of the block, in its first row or its last
        low = min(0, d * (rows - 1))
        table = np.arange(size) * self.g
        table += self.t0 + k1 * self.shift + low * self.g
        op.log2_weight(table, out=table)
        out[...] = np.ndarray((rows, span + 1), float, table, -8 * low,
                              (8 * d, 8))[:, self.cols]
        return True


def _orbit_log2_rows(op: CompositionOperator, pts, n: int, step: int = 1,
                     start: int = 0, rows: int | None = None):
    """Yield, in (rows, |t|) blocks, the partial sums
    sum_{j=0}^{i-1} log2 w(alpha^{start + j*step}(t)) for i = 1..n,
    compensated, elementwise in t, summed in walk order.  ``rows``
    defaults to :func:`_block_rows` of |t|.  The one-leg case of
    :func:`_orbit_log2_legs`, every column of every block."""
    for ((block, _),) in _orbit_log2_legs(op, [(pts, step, start)], n, rows):
        yield block


def _orbit_log2_legs(op: CompositionOperator, legs, n: int,
                     rows: int | None = None, choose=None):
    """Yield, block by block, per leg (pts, step, start) of ``legs`` the
    pair (block, cols): the block of ``_orbit_log2_rows(op, pts, n, step,
    start, rows)`` over the point columns ``cols``, every column when
    ``cols`` is None.  ``rows`` defaults to :func:`_block_rows` of the
    widest point set.

    A leg walks only up to its exit time from the weight's hull (see
    :func:`_leg_tail`); its later rows hold the tail's log2 constant, with
    no walk, table or weight call, which are the terms the walk would
    read.  A walked block makes one weight call, on the block's
    :class:`_Lattice` table where it has one, else on its position block;
    legs over the same point set share one lattice, built for the largest
    |k| any leg walks.  The sums run on even-width blocks, and each
    yielded block is the view of its first columns.

    Past the exit every column adds the same constant, so a caller that
    reads only extremes need not sum them all: ``choose``, one callable
    or None per leg, is asked once, at the leg's first block seam at or
    past its exit, as choose(s, e, c, rows_left) with the Sum2 carry
    (s, e) of each column there, the constant c and the rows still to
    come.  It returns the increasing indices of the columns to carry on
    (see :func:`criteria._tail_columns`), or None for all of them.
    Callers that read cells choose all columns."""
    legs = [(np.atleast_1d(np.asarray(p, dtype=float)), step, start)
            for p, step, start in legs]
    rows = rows or _block_rows(max(p.size for p, _, _ in legs))
    tails = [_leg_tail(op, p, n, step, start) for p, step, start in legs]
    kmax = max([max(abs(start), abs(start + step * (walked - 1)))
                for (_, step, start), (walked, _) in zip(legs, tails)
                if walked], default=None)
    lattices: dict = {}
    sums = []
    for (p, step, start), (walked, tail), pick in zip(
            legs, tails, choose or [None] * len(legs)):
        key = p.tobytes()
        if key not in lattices:
            lattices[key] = (None if kmax is None
                             else _Lattice.of(op.alpha, p, kmax))
        lattice = lattices[key]
        if lattice is not None and not lattice.reads(walked, step, start):
            lattice = None
        sums.append(_summed(_log2_blocks(op, p, n, rows, step, start, walked,
                                         tail, lattice),
                            p.size, rows, n, walked, tail, pick))
    return zip(*sums)


def _leg_tail(op: CompositionOperator, pts: np.ndarray, n: int, step: int,
              start: int) -> tuple[int, float]:
    """The rows of the walk over ``pts`` before its exit time from the
    weight's hull, and log2 w beyond the edge it crossed; (n, 0.0) without
    an exit below n.  A weight says where it is constant by its ``hull``;
    one without says nothing, and is walked throughout."""
    hull = getattr(op.weight, "hull", (-math.inf, math.inf))
    crossing = exit_time(op.alpha, pts, hull, n, step, start)
    if crossing is None:
        return n, 0.0
    row, edge = crossing
    return row, float(op.log2_weight(np.array([edge]))[0])


def _summed(heads, k: int, rows: int, n: int, walked: int, tail: float,
            choose):
    """The Sum2 partial sums down a leg of k columns, as (block, cols)
    pairs: first of its even-width walked blocks ``heads``, which cover
    the rows up to the block seam at or past ``walked``, then of the tail
    constant on the later blocks, over the columns ``cols`` that
    ``choose`` picks there (all of them, and cols None, without
    ``choose``).  A block is the view of its first columns."""
    width = k + k % 2
    buf = np.empty((2 * min(rows, n) + 1, width))
    s, e = np.zeros(width), np.zeros(width)
    for logs in heads:
        s, e = _sum2_rows(logs, s, e, buf)
        yield logs[:, :k], None
    first = -(-walked // rows) * rows  # the first seam at or past the exit
    cols = (None if choose is None or first >= n
            else choose(s[:k], e[:k], tail, n - first))
    if cols is not None:
        k, width = len(cols), len(cols) + len(cols) % 2
        s, e = (np.concatenate((a[cols], np.zeros(width - k))) for a in (s, e))
        buf = np.empty((2 * min(rows, n - first) + 1, width))
    for k0 in range(first, n, rows):
        logs = np.empty((min(rows, n - k0), width))
        logs[:, :k] = tail
        logs[:, k:] = 0.0
        s, e = _sum2_rows(logs, s, e, buf)
        yield logs[:, :k], cols


def _log2_blocks(op: CompositionOperator, pts: np.ndarray, n: int,
                 rows: int, step: int, start: int, walked: int, tail: float,
                 lattice: "_Lattice | None"):
    """log2 w over the blocks of ``homeo_orbit_blocks(op.alpha, pts, n,
    rows, step, start)`` that hold walked rows, the first ``walked``, each
    a fresh (rows, even width) array whose columns past |t| hold 0: the
    walked rows read the weight, through ``lattice`` where it has a table
    for the block, and the rest hold ``tail``."""
    k = pts.size
    walk = (homeo_orbit_blocks(op.alpha, pts, walked, rows, step, start)
            if lattice is None else None)
    for k0 in range(0, walked, rows):
        logs = np.empty((min(rows, n - k0), k + k % 2))
        logs[:, k:] = 0.0
        head = logs[:walked - k0, :k]
        k1 = start + step * k0
        if not (lattice is not None
                and lattice.log2_block(op, k1, step, head)):
            if walk is None:
                [block] = homeo_orbit_blocks(op.alpha, pts, len(head),
                                             len(head), step, k1)
            else:
                block = next(walk)
            op.log2_weight(block, out=head)
        logs[len(head):, :k] = tail
        yield logs


class CocycleSweep:
    """Incremental forward/backward log-products over a fixed point set.

    After n calls to :meth:`step`, ``log_forward`` equals the last row
    that ``_orbit_log2_rows(op, pts, n)`` yields, bit for bit: the same
    orbit points, summed by the same block function on one row at a time,
    which is sequential down the rows.  Likewise ``log_backward`` for the
    backward walk ``_orbit_log2_rows(op, pts, n, -1, -1)``;
    ``forward_positions`` holds alpha^n(pts), the argument of f in the
    closed form of T^n.
    """

    def __init__(self, op: CompositionOperator, pts):
        self.op = op
        self.base = np.atleast_1d(np.asarray(pts, dtype=float)).copy()
        self._width = self.base.size + self.base.size % 2
        zero = np.zeros(self._width)
        self.log_forward = self.log_backward = zero[:self.base.size]
        self._fwd = self._bwd = zero, zero  # Sum2 carries (s, e)
        self._buf = np.empty((3, self._width))
        self._fwd_walk = homeo_orbit(op.alpha, self.base)
        self._bwd_walk = homeo_orbit(op.alpha, self.base, -1, -1)
        self._fwd_pos = next(self._fwd_walk)
        self._bwd_pos = self.base

    def step(self):
        k = self.base.size
        fwd = _log2_block(self.op, self._fwd_pos[None], self._width)
        self._fwd = _sum2_rows(fwd, *self._fwd, self._buf)
        self._fwd_pos = next(self._fwd_walk)
        self._bwd_pos = next(self._bwd_walk)
        bwd = _log2_block(self.op, self._bwd_pos[None], self._width)
        self._bwd = _sum2_rows(bwd, *self._bwd, self._buf)
        self.log_forward, self.log_backward = fwd[0, :k], bwd[0, :k]

    @property
    def forward_positions(self) -> np.ndarray:
        return self._fwd_pos

    @property
    def backward_positions(self) -> np.ndarray:
        return self._bwd_pos


def scale_by_exp2(logs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """2**logs * vals with zeros kept exact (no 0 * inf artifacts)."""
    out = np.zeros(vals.shape, dtype=vals.dtype)
    nz = vals != 0
    if nz.any():
        out[nz] = np.exp2(logs[nz]) * vals[nz]
    return out


def _loses_mass(f: GridFunction, images: np.ndarray) -> np.ndarray:
    """Per row of ``images``, True iff f is nonzero at a grid point outside
    [min, max] of the points that row reads it at: for a monotone map that
    interval is the image of the grid, and f's values outside it never
    reach the result.  A 1-d ``images`` gives a 0-d answer."""
    pts = f.grid.points
    outside = ((pts < images.min(axis=-1, keepdims=True))
               | (pts > images.max(axis=-1, keepdims=True)))
    return np.any(outside & (f.values != 0), axis=-1)


def segal_compatible(op: CompositionOperator, tau: PiecewiseMap,
                     grid) -> bool:
    """True iff max over grid points of |tau(alpha(t)) - tau(t)| <=
    ``_SEGAL_TOL``."""
    pts = grid.points
    moved = homeo_power(op.alpha, pts, 1)
    return bool(np.max(np.abs(tau(moved) - tau(pts))) <= _SEGAL_TOL)

