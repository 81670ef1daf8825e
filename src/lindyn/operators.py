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
                 offsets: np.ndarray, cols, neg_zero: bool):
        self.shift, self.t0, self.g, self.unit = shift, t0, g, unit
        self.offsets, self.span = offsets, int(offsets.max())
        self.cols, self.neg_zero = cols, neg_zero

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
        return cls(shift, t0, math.ldexp(g, -e), sh // g, offsets, cols,
                   neg_zero)

    def chains(self, step: int):
        """The chains of the walk by ``step`` over the points: points a
        whole number a of rows apart along it, the later one a*step*shift
        from the earlier, which at row i reads the term the earlier reads
        at row i + a.  Per point, the index of its chain's first point
        along the walk (its leader), its rows a below it, and the point
        indices sorted by chain and, within a chain, by a; None when the
        int64 keys that sort the points by chain would overflow."""
        d = abs(step * self.unit)
        pos, res = np.divmod(self.offsets, d)
        if step * self.unit < 0:
            pos = -pos
        k, low = pos.size, int(pos.min())
        width = int(pos.max()) - low + 1
        if d * width * k >= 2 ** 62:
            return None
        # sort by (residue, position): one np.sort of keys that carry the
        # point index in their low digits
        order = np.sort((res * width + (pos - low)) * k + np.arange(k)) % k
        res = res[order]
        first = np.ones(k, dtype=bool)
        first[1:] = res[1:] != res[:-1]
        leader = np.empty(k, dtype=np.intp)
        leader[order] = order[np.maximum.accumulate(
            np.where(first, np.arange(k), 0))]
        return leader, pos - pos[leader], order

    def reads(self, n: int, step: int, start: int) -> bool:
        """Whether the walk of n rows from k = ``start`` by ``step``, with
        |k| <= kmax, may read this lattice: it reads no -0.0 point."""
        ks = start, start + step * (n - 1)
        return not (self.neg_zero and min(ks) <= 0 <= max(ks))

    def log2_block(self, op: CompositionOperator, k1: int, step: int,
                   out: np.ndarray, cols=None) -> bool:
        """Write log2 w over the block of ``len(out)`` rows from k = ``k1``
        by ``step`` into ``out``, (rows, |t|), or over the points ``cols``
        of |t| only, (rows, |cols|), from a table that spans those points
        alone; False, writing nothing, when the table would have more
        entries than the block has cells."""
        rows, k = out.shape
        t0, span = self.t0, self.span
        if cols is None:
            cols = self.cols
        else:
            # t0 + base*g is a point of the set, so exact
            cols = self.offsets[cols]
            base = int(cols.min())
            cols = cols - base
            t0, span = t0 + base * self.g, int(cols.max())
        d = step * self.unit
        size = abs(d) * (rows - 1) + span + 1
        if size > rows * k:
            return False
        # the least point of the block, in its first row or its last
        low = min(0, d * (rows - 1))
        table = np.arange(size) * self.g
        table += t0 + k1 * self.shift + low * self.g
        op.log2_weight(table, out=table)
        out[...] = np.ndarray((rows, span + 1), float, table, -8 * low,
                              (8 * d, 8))[:, cols]
        return True


def _orbit_log2_rows(op: CompositionOperator, pts, n: int, step: int = 1,
                     start: int = 0, rows: int | None = None):
    """Yield, in (rows, |t|) blocks, the partial sums
    sum_{j=0}^{i-1} log2 w(alpha^{start + j*step}(t)) for i = 1..n,
    compensated, elementwise in t, summed in walk order.  ``rows``
    defaults to :func:`_block_rows` of |t|.  The one-leg case of
    :func:`_orbit_log2_legs`, every column of every block."""
    for block, _ in _orbit_log2_legs(op, [(pts, step, start)], n, rows)[0]:
        yield block


def _orbit_log2_legs(op: CompositionOperator, legs, n: int,
                     rows: int | None = None, reads=None,
                     slices=(slice(None),)) -> list:
    """Per leg (pts, step, start) of ``legs``, a generator of the pairs
    (block, sels): the blocks of ``_orbit_log2_rows(op, pts, n, step,
    start, rows)`` over the point columns the leg keeps, and per slice of
    ``slices`` of its points, the slice's selector among those columns.
    ``rows`` defaults to :func:`_block_rows` of the widest point set.

    A leg walks only up to its exit time from the weight's hull (see
    :func:`_leg_tail`); its later rows hold the tail's log2 constant, with
    no walk, table or weight call, which are the terms the walk would
    read.  A walked block makes one weight call, on the block's
    :class:`_Lattice` table where it has one, else on its position block;
    legs over the same point set share one lattice, built for the largest
    |k| any leg walks.  The sums run on even-width blocks, and each
    yielded block is the view of its first columns.

    A caller that reads only extremes need not sum every column to the
    end: ``reads`` names, per leg, the extremes it reads of each slice as
    the flags (least, greatest), or None for every cell.  Such a leg
    narrows once, to the columns that can still hold those extremes: at
    its exit time, past which every column adds one constant, to those
    :func:`_tail_columns` keeps, and when it walks to the end on a
    lattice and its weight has ``bounds``, at its longest chain offset,
    to those :func:`_chain_columns` keeps.  Its blocks run ``rows`` high
    from row 0 and again from the narrowing row, the block before that
    row ending there.  A leg of one column or of one block, n <= ``rows``,
    does not narrow.  A leg that does not narrow keeps every column, its
    blocks run ``rows`` high from row 0, and its selectors are
    ``slices``."""
    legs = [(np.atleast_1d(np.asarray(p, dtype=float)), step, start)
            for p, step, start in legs]
    rows = rows or _block_rows(max(p.size for p, _, _ in legs))
    tails = [_leg_tail(op, p, n, step, start) for p, step, start in legs]
    kmax = max([max(abs(start), abs(start + step * (walked - 1)))
                for (_, step, start), (walked, _) in zip(legs, tails)
                if walked], default=None)
    lattices: dict = {}
    sums = []
    for (p, step, start), (walked, tail), read in zip(
            legs, tails, reads or [None] * len(legs)):
        key = p.tobytes()
        if key not in lattices:
            lattices[key] = (None if kmax is None
                             else _Lattice.of(op.alpha, p, kmax))
        lattice = lattices[key]
        if lattice is not None and not lattice.reads(walked, step, start):
            lattice = None
        sums.append(_summed(op, p, n, rows, step, start, walked, tail,
                            lattice, read, slices))
    return sums


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


def _walk_hull(pts: np.ndarray, shift: float, step: int, start: int,
               first: int, last: int) -> tuple[float, float]:
    """The least and the greatest orbit point that the translation walks
    over ``pts`` read at rows ``first`` to ``last``."""
    ends = [float(x + (start + step * row) * shift)
            for x in (pts.min(), pts.max()) for row in (first, last)]
    return min(ends), max(ends)


def _summed(op: CompositionOperator, pts: np.ndarray, n: int, rows: int,
            step: int, start: int, walked: int, tail: float,
            lattice: "_Lattice | None", read, slices):
    """The Sum2 partial sums down one leg as (block, sels) pairs: first
    over every column up to the narrowing row ``cut`` (see
    :func:`_orbit_log2_legs`), then over the columns that can still hold
    the extremes ``read`` names, every column without ``read``."""
    k = pts.size
    if k == 1 or n <= rows:
        # one column has nothing to narrow, and a leg of one block would
        # only be cut in two
        read = None
    cut, chains = n, None
    if read is not None and walked < n:
        cut = walked
    elif read is not None:
        if lattice is not None and hasattr(op.weight, "bounds"):
            chains = lattice.chains(step)
        if chains is not None and 0 < chains[1].max() < n:
            cut = int(chains[1].max())
        else:
            chains = None
    width = k + k % 2
    buf = np.empty((2 * min(rows, n) + 1, width))
    s, e = np.zeros(width), np.zeros(width)
    if chains is not None:
        # each column's certificate reads its leader's row a - 1
        leader, steps, order = chains
        need, lead = steps - 1, np.zeros(k)
    k0 = 0
    for logs in _log2_blocks(op, pts, 0, cut, rows, step, start, walked,
                             tail, lattice):
        s, e = _sum2_rows(logs, s, e, buf)
        if chains is not None:
            here = (need >= k0) & (need < k0 + len(logs))
            lead[here] = logs[need[here] - k0, leader[here]]
        k0 += len(logs)
        yield logs[:, :k], slices
    if cut >= n:
        return
    member = np.zeros((len(slices), k), dtype=bool)
    for row, sl in zip(member, slices):
        row[sl] = True
    if chains is None:
        cols = _tail_columns(s[:k], e[:k], tail, n - cut, n, member, *read)
    else:
        later, whole = (op.weight.bounds(*_walk_hull(
            pts, op.alpha.shift, step, start, row, n - 1))
            for row in (cut, 0))
        cols = _chain_columns(leader, steps, order, lead, later, whole, n,
                              member, *read)
    sels = slices
    if cols is not None:
        sels = [sl if sl == slice(None) else row.nonzero()[0]
                for sl, row in zip(slices, member[:, cols])]
        k, width = len(cols), len(cols) + len(cols) % 2
        carry = np.zeros((2, width))
        carry[0, :k], carry[1, :k] = s[cols], e[cols]
        s, e = carry
        buf = np.empty((2 * min(rows, n - cut) + 1, width))
    for logs in _log2_blocks(op, pts, cut, n, rows, step, start, walked,
                             tail, lattice, cols):
        s, e = _sum2_rows(logs, s, e, buf)
        yield logs[:, :k], sels


# A sweep of more rows keeps every column: the margins of the narrowing
# rules are proved for rows * 2**-53 <= 2**-13.
_ROWS_MAX = 2 ** 40

# A weight's float evaluation lies within this share of its sup of its
# exact value, and np.log2 within this share of 1 + |log2 w| of its own:
# np.interp and the telescoping weight's closed form err by a few ulps.
_EVAL_SLACK = 2.0 ** -40


def _log2_range(bounds) -> tuple[float, float]:
    """An interval that holds log2 w as the sweep computes it wherever the
    exact w lies in ``bounds`` = (inf, sup), widened by ``_EVAL_SLACK``;
    (-inf, inf) unless inf > 0 and sup is finite."""
    lo, hi = bounds
    pad = hi * _EVAL_SLACK
    lo, hi = lo - pad, hi + pad
    if not (lo > 0 and hi < math.inf):  # false for NaN too
        return -math.inf, math.inf
    lo, hi = math.log2(lo), math.log2(hi)
    return (lo - _EVAL_SLACK * (1 + abs(lo)),
            hi + _EVAL_SLACK * (1 + abs(hi)))


def _tail_columns(s: np.ndarray, e: np.ndarray, c: float, rows: int,
                  horizon: int, member: np.ndarray, low: bool, high: bool):
    """The exit-time rule: of a leg past its exit time, with each column's
    Sum2 carry (``s``, ``e``) there and ``rows`` rows of its ``horizon``
    to come, each adding the log2 constant ``c``, the columns that can
    hold, at some row to come, the least (``low``) or the greatest
    (``high``) value of a slice, a row of the (slices, columns)
    ``member``; increasing indices, or None for every column.  A column
    goes when a column of the same slice is proved to stay below it at
    every row to come by more than the rounding can undo (above it, for
    the greatest), or when the column just before it lies in the slice
    too and holds the same carry bits.  Either way it never holds the
    slice's extreme alone.

    The rounding.  Let u = 2**-53 and H the horizon; H u <= 2**-13, or
    every column is kept.  Let M = max_j (|s_j| + |e_j|) + rows |c|.
    Row i of a column is fl(s_i + E_i), where s_i = fl(s_{i-1} + c) with
    exact error d_i and E_i = fl(E_{i-1} + d_i), E_0 = e (see
    :func:`_sum2_rows`).  So s_i + E_0 + sum d = R + i*c exactly,
    R = s + e.  Since |s_i| <= (1 + u)**i (|s| + i|c|), each
    |d_i| <= u (1 + u)**i M; E_i is the recursive sum of E_0 and i such
    terms, within gamma_i (|E_0| + i u (1 + u)**i M) of its exact value
    (Higham 2002, (4.4); gamma_i = i u / (1 - i u)), and the final
    rounding adds at most u |s_i + E_i|.  So every row is within
    B = 1.001 (rows + 1) u M of R + i*c.  A column whose R exceeds the
    least R by more than 2B is above the least column at every row, and
    the keys v = fl(s + e) are each within u M of R.  So a column goes
    for the least value only when its v exceeds the slice's least v by
    more than the margin 2**-50 (rows + 2) M = 8 (rows + 2) u M, which
    covers 2B + 2uM and the rounding of the comparison with room to
    spare; likewise for the greatest.  Columns of equal (s, e) bits have
    equal rows, so the first of a run of them speaks for the run.
    Non-finite carries or c keep every column."""
    if horizon > _ROWS_MAX:
        return None
    size = float((np.abs(s) + np.abs(e)).max()) + rows * abs(c)
    if not size < 2.0 ** 1000:  # false for NaN and inf too
        return None
    margin = math.ldexp((rows + 2) * size, -50)
    key = s + e
    keyed = _side_keys(member, low, high, key, key)
    near = keyed <= keyed.min(axis=2, keepdims=True) + margin
    # a column that repeats the carry bits of the near column before it
    # has its rows, so that one speaks for it
    pairs = near[..., 1:] & near[..., :-1]
    if pairs.any():
        sb, eb = s.view(np.int64), e.view(np.int64)
        near[..., 1:] &= ~(pairs & (sb[1:] == sb[:-1]) & (eb[1:] == eb[:-1]))
    return _kept(near, member)


def _chain_columns(chain: np.ndarray, steps: np.ndarray, order: np.ndarray,
                   lead: np.ndarray, later, whole, horizon: int,
                   member: np.ndarray, low: bool, high: bool):
    """The lattice-chain rule: of a leg that walks a translation's
    :class:`_Lattice` to its ``horizon``, at the row max(``steps``), the
    columns that can hold, at some row from there on, the least (``low``)
    or the greatest (``high``) value of a slice, a row of the (slices,
    columns) ``member``; increasing indices, or None for every column.
    Per column (:meth:`_Lattice.chains`) ``chain`` is the column of its
    chain's leader, ``steps`` its a rows below it, and ``lead`` the
    leader's sum of its first a terms (its row a - 1; 0 for a = 0);
    ``order`` lists the columns by chain and each chain's members by
    increasing a.  ``later`` and ``whole`` are the weight's ``bounds``
    over the orbit points the walks read from this row to the last and
    from row 0.  A column goes when a column of the same slice before it
    in its chain is proved to stay below it at every row to come by more
    than the rounding can undo (above it, for the greatest), so it never
    holds the slice's extreme alone.

    Column t' lies a steps down column t's walk on the lattice, whose
    orbit points are exact floats, so its term at row i is t's term at
    row i + a, bit for bit.  With exact sums V*, for every row i
        V*(t', i) - V*(t, i) = sum_{j=i+1}^{i+a} L_j(t) - P_a(t),
    P_a(t) = V*(t, a - 1), L = log2 w.  From this row on both walks read
    only points in ``later``, where lambda_lo <= L <= lambda_hi
    (:func:`_log2_range`), so t' stays above t when
    a lambda_lo - P_a(t) > 0, and below it when a lambda_hi - P_a(t) < 0.
    Relative to the chain's leader, whose sum of its first a terms is
    phi(a) (``lead``), P_{b-a} of the member a rows down is
    phi(b) - phi(a) exactly, so each column's key is a lambda - phi(a),
    and t' goes when its key exceeds the least key of a member before it
    in the slice by more than the margin (less than the greatest, for the
    greatest value).  Rounding: let u = 2**-53 and H the horizon;
    H u <= 2**-13, or every column is kept.  With Lambda >= |L| over
    ``whole``, each computed V and phi is within (u + gamma_H**2) H Lambda
    <= u H Lambda (1 + 1.0004 H**2 u) of its exact sum (Ogita, Rump &
    Oishi 2005, Prop. 4.5), and each key within 3.1 u H Lambda of its
    exact value, so two rows, two phi and two keys cost at most
    u H Lambda (10.3 + 4.01 H**2 u), which the margin
    2**-49 H Lambda (1 + 2**-51 H**2) = 16 u H Lambda (1 + 4 H**2 u)
    covers with the comparison's rounding.  Non-finite keys or bounds
    keep every column."""
    if horizon > _ROWS_MAX:
        return None
    lam_lo, lam_hi = _log2_range(later)
    whole = _log2_range(whole)
    margin = math.ldexp(horizon * max(-whole[0], whole[1])
                        * (1.0 + math.ldexp(horizon * horizon, -51)), -49)
    if not (margin < math.inf and -math.inf < lam_lo <= lam_hi < math.inf):
        return None
    keyed = _side_keys(member, low, high, steps * lam_lo - lead,
                       steps * lam_hi - lead)
    # the least key at or before each column in its chain: a running
    # least along each chain in ``order``, by doubling.  After the pass at
    # distance d each column holds the least of the 2d columns up to it
    # in its chain, so a chain of L members takes about log2 L passes over
    # the keys, and no more memory than they hold
    runs, chain = keyed[..., order], chain[order]
    d = 1
    while d < chain.size:
        same = chain[d:] == chain[:-d]
        if not same.any():
            break
        runs[..., d:] = np.where(same, np.minimum(runs[..., d:],
                                                  runs[..., :-d]),
                                 runs[..., d:])
        d *= 2
    best = np.empty_like(runs)
    best[..., order] = runs
    return _kept(keyed <= best + margin, member)


def _side_keys(member: np.ndarray, low: bool, high: bool, lo_key, hi_key):
    """The (sides, slices, columns) keys of a rule, one side per extreme
    it keeps: the least value's ``lo_key``, and the greatest value's
    ``hi_key`` negated, so that one least serves both; a non-member's key
    is +inf."""
    return np.stack([np.where(member, sign * key, math.inf)
                     for keep, sign, key in ((low, 1.0, lo_key),
                                             (high, -1.0, hi_key)) if keep])


def _kept(near: np.ndarray, member: np.ndarray):
    """The increasing indices of the columns ``near`` on some side in a
    slice they are members of, or None for every column: a non-member's
    +inf key is near where no member comes before it in its chain, and
    does not count."""
    kept = (near & member).any(axis=(0, 1))
    return None if kept.all() else kept.nonzero()[0]


def _log2_blocks(op: CompositionOperator, pts: np.ndarray, first: int,
                 end: int, rows: int, step: int, start: int, walked: int,
                 tail: float, lattice: "_Lattice | None", cols=None):
    """log2 w over the rows ``first`` to ``end`` of the walk over ``pts``
    (over its points ``cols`` only, when given), ``rows`` rows a block,
    the last one possibly shorter, each a fresh (rows, even width) array
    whose columns past the points hold 0: the first ``walked`` rows read
    the weight, through ``lattice`` where it has a table for the block,
    and the rest hold ``tail``, so a block past them makes no weight
    call."""
    if cols is not None:
        pts = pts[cols]
    k = pts.size
    walk = (homeo_orbit_blocks(op.alpha, pts, walked - first, rows, step,
                               start + step * first)
            if lattice is None else None)
    for k0 in range(first, end, rows):
        logs = np.empty((min(rows, end - k0), k + k % 2))
        logs[:, k:] = 0.0
        head = logs[:max(walked - k0, 0), :k]
        k1 = start + step * k0
        if len(head) and not (lattice is not None and lattice.log2_block(
                op, k1, step, head, cols)):
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

