"""Finite-horizon evaluators for the orbit-product criteria.

Every criterion reduces to one scalar q(n) built from suprema of weight
products over a compact window K:

    lf(t, n) = log2 prod_{j=0}^{n-1} w(alpha^j(t))      (forward leg)
    lb(t, n) = log2 prod_{j=1}^{n}   w(alpha^{-j}(t))   (backward leg)

The supremum-norm/weighted-algebra variants are stated with the product
prod_{j=0}^{n-1} w(alpha^{j-n}(t)), which re-indexes (i = n - j) to the
backward leg above for any homeomorphism; the sweep uses that identity,
and the test oracles keep the literal form as an independent route.

A criterion asks for q(n_k) -> 0 along a strictly increasing sequence; the
finite-horizon semidecision reports SATISFIED only in the sense "q reached
tol by the horizon", never as a theorem.
"""

from __future__ import annotations

import json
import math
from enum import Enum

import numpy as np

from .funcspace import Grid
from .operators import CompositionOperator, _block_rows, _orbit_log2_legs

__all__ = [
    "SATISFIED",
    "NOT_SATISFIED",
    "CriterionKind",
    "CompactWindow",
    "CriterionVerdict",
    "evaluate",
    "verdict_from_trace",
]

SATISFIED = "SATISFIED"
NOT_SATISFIED = "NOT_SATISFIED_UP_TO_HORIZON"


class CriterionKind(str, Enum):
    SUPERCYCLIC_SOLID = "SUPERCYCLIC_SOLID"
    CESARO_SOLID = "CESARO_SOLID"
    SUPERCYCLIC_SEGAL = "SUPERCYCLIC_SEGAL"
    CESARO_SEGAL = "CESARO_SEGAL"
    SUPERCYCLIC_C0 = "SUPERCYCLIC_C0"
    CESARO_C0 = "CESARO_C0"
    HYPERCYCLIC_SOLID = "HYPERCYCLIC_SOLID"
    ADJOINT_SUPER = "ADJOINT_SUPER"
    ADJOINT_CESARO = "ADJOINT_CESARO"
    WEDGE = "WEDGE"


_SOLID_KINDS = {
    CriterionKind.SUPERCYCLIC_SOLID,
    CriterionKind.CESARO_SOLID,
    CriterionKind.HYPERCYCLIC_SOLID,
}


class CompactWindow:
    """A symmetric window [-m, m] carried as explicit sample points.

    The degenerate radius 0 (the singleton {0}) is allowed: the exact
    telescoping oracles are stated on it.
    """

    def __init__(self, radius: float, points):
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        if radius < 0:
            raise ValueError("window radius must be >= 0")
        if pts.size == 0:
            raise ValueError("window must contain at least one point")
        if np.any(np.abs(pts) > radius + 1e-9):
            raise ValueError("window points must lie in [-m, m]")
        pts = pts.copy()
        pts.setflags(write=False)
        self.radius = float(radius)
        self.points = pts

    @classmethod
    def from_grid(cls, grid: Grid, m: float) -> "CompactWindow":
        """The grid points in [-m, m].  A window wider than the grid is a
        ValueError: it would hold only the grid's points while its radius
        reported m."""
        if m > grid.half_width:
            raise ValueError(f"window radius {m} exceeds the grid half-width "
                             f"{grid.half_width}: the window must lie on the "
                             "grid")
        pts = grid.points
        return cls(m, pts[np.abs(pts) <= m + 1e-12])


def _exp2(x, out=None):
    """np.exp2(x), into ``out`` when given, without numpy's slow underflow
    path: +0.0 where x <= -1076, to which IEEE rounding takes 2**x there,
    and np.exp2 elsewhere, NaN included.  Masking costs more than it saves
    where nothing underflows, so only an argument with such entries takes
    it."""
    x = np.asarray(x)
    if out is None:
        out = np.empty(x.shape)
    under = x <= -1076.0
    if under.any():
        out[...] = 0.0
        np.exp2(x, out=out, where=~under)
    else:
        np.exp2(x, out=out)
    return out[()]


def _supercyclic(n, x, y):
    log2_q = x + y
    return log2_q, _exp2(log2_q)


def _cesaro(n, x, y):
    # log2 of q itself where q is finite and nonzero, so that log2 q ties
    # where q ties; the log form only where q under- or overflowed.  Each
    # pass writes into one of four buffers of the broadcast shape.
    shape = np.broadcast(n, x, y).shape
    q, low, log2_n, log2_q = (np.empty(shape) for _ in range(4))
    _exp2(x, q)
    q *= n
    _exp2(y, low)
    low /= n
    np.maximum(q, low, out=q)
    with np.errstate(divide="ignore"):
        np.log2(q, out=log2_q)
    np.log2(n, out=log2_n)
    np.add(log2_n, x, out=low)
    np.subtract(y, log2_n, out=log2_n)
    np.maximum(low, log2_n, out=low)
    np.copyto(log2_q, low, where=~((q > 0) & (q < np.inf)))
    return log2_q[()], q[()]


def _hypercyclic(n, x, y):
    log2_q = np.maximum(x, y)
    return log2_q, _exp2(log2_q)


# Each kind is a formula in x = -min lf and y = max lb, vectorised over n,
# giving (log2 q, q); adjoint kinds (True) read the mirrored legs
# x = -min lb, y = max lf.  WEDGE, the scalar condition for supercyclicity
# of the induced conjugation and wedge operators on compact operators, is
# the sup-norm supercyclic quantity on a window of radius m >= 1.  log2 q
# stays finite where q underflows to 0 or overflows to inf.  q combines
# the log2 factors before exponentiating (a vanished leg times a diverged
# one must not give 0 * inf), and applies the integer Cesaro scalings
# outside, which keeps them exact.
# Callers evaluate the formulas under np.errstate(over="ignore"): past the
# exp2 range q = inf is the intended value.
_FORMULA = {
    CriterionKind.SUPERCYCLIC_SOLID: (_supercyclic, False),
    CriterionKind.SUPERCYCLIC_SEGAL: (_supercyclic, False),
    CriterionKind.SUPERCYCLIC_C0: (_supercyclic, False),
    CriterionKind.CESARO_SOLID: (_cesaro, False),
    CriterionKind.CESARO_SEGAL: (_cesaro, False),
    CriterionKind.CESARO_C0: (_cesaro, False),
    CriterionKind.HYPERCYCLIC_SOLID: (_hypercyclic, False),
    CriterionKind.ADJOINT_SUPER: (_supercyclic, True),
    CriterionKind.ADJOINT_CESARO: (_cesaro, True),
    CriterionKind.WEDGE: (_supercyclic, False),
}


def _best_removal(kind: CriterionKind, ns: np.ndarray, lf: np.ndarray,
                  lb: np.ndarray, budget: int):
    """:func:`_best_removals` of the one kind ``kind``."""
    [xy] = _best_removals([kind], ns, lf, lb, budget)
    return xy


def _best_removals(kinds, ns: np.ndarray, lf: np.ndarray, lb: np.ndarray,
                   budget: int) -> list:
    """Per kind in ``kinds`` and row of finite legs at n = ns, the trim's
    formula arguments (x, y), the kept extremes of a removal of at most
    c = min(budget, points - 1) points with the least log2 q.  As each
    formula is nondecreasing in x and y, a removal's q is that of the
    prefixes it holds, A_a of ascending lf and B_b of descending lb (lower
    column first on a tie), so the least over pairs with
    |A_a | B_b| <= c, ties to the least a, then b, is the optimum, reached
    by removing the union.  The prefixes and their overlaps are the
    block's, ordered once for every kind; only the formula and its argmin
    are the kind's."""
    rows, c = np.arange(len(lf)), min(budget, lf.shape[1] - 1)
    up, down = np.empty((2, len(lf), c + 1), dtype=np.intp)
    for order, v in ((up, np.array(lf)), (down, -lb)):
        for j in range(c + 1):
            order[:, j] = v.argmin(axis=1)
            v[rows, order[:, j]] = np.inf
    del v
    x, y = -np.take_along_axis(lf, up, 1), np.take_along_axis(lb, down, 1)
    n, gone = np.repeat(ns, c + 1), np.zeros(lf.shape, dtype=bool)  # A_a
    best = np.full((len(kinds), len(lf)), np.inf)
    pick = np.zeros((len(kinds), 2, len(lf)), np.intp)
    with np.errstate(over="ignore"):
        for a in range(c + 1):  # one pass per a over the c + 1 first
            # B_b spends the budget only on the points A_a lacks
            over = np.cumsum(~gone[rows[:, None], down[:, :c]], axis=1) > c - a
            xa = np.repeat(x[:, a], c + 1)
            for kind, kbest, kpick in zip(kinds, best, pick):
                log2_q = _FORMULA[kind][0](n, xa, y.ravel())[0].reshape(
                    y.shape)
                log2_q[:, 1:][over] = np.inf
                b = log2_q.argmin(axis=1)
                low = log2_q[rows, b]
                better = low < kbest
                kbest[better] = low[better]
                kpick[0, better], kpick[1, better] = a, b[better]
            gone[rows, up[:, a]] = True
    xys = []
    for a, b in pick:
        # gone holds no point outside the prefixes, and becomes A_a | B_b
        gone[rows[:, None], down] = False
        gone[rows[:, None], up] = np.arange(c + 1) < a[:, None]
        gone[rows[:, None], down] |= np.arange(c + 1) < b[:, None]
        xys.append((x[rows, gone[rows[:, None], up].argmin(axis=1)],
                    y[rows, gone[rows[:, None], down].argmin(axis=1)]))
    return xys


class CriterionVerdict:
    """Outcome of one finite-horizon criterion sweep.

    ``trace`` holds q(n) and ``log2_trace`` log2 q(n) for n = 1..horizon.
    ``records`` holds the record minima of log2 q as one read-only index
    array into the traces (0-based, n - 1): a canonical deterministic
    choice of the strictly increasing sequence.  ``witness`` reads it as
    (n, q) pairs and ``record_runs`` as the (first n, last n) of each run
    of consecutive record n, both built on each access.  SATISFIED means
    exactly that the last record's log2 q is <= log2 tol.
    """

    def __init__(self, kind: str, status: str, records, trace, log2_trace,
                 tol: float, params=None):
        self.kind = str(kind)
        self.status = status
        records = np.asarray(records, dtype=np.intp)
        records.setflags(write=False)
        self.records = records
        trace = np.asarray(trace, dtype=float)
        trace.setflags(write=False)
        self.trace = trace
        log2_trace = np.asarray(log2_trace, dtype=float)
        log2_trace.setflags(write=False)
        self.log2_trace = log2_trace
        self.horizon = trace.size
        self.tol = float(tol)
        self.params = dict(params or {})

    @property
    def witness(self) -> tuple[tuple[int, float], ...]:
        """The record-minimum (n, q) pairs."""
        return tuple(zip((self.records + 1).tolist(),
                         self.trace[self.records].tolist()))

    @property
    def record_runs(self) -> tuple[tuple[int, int], ...]:
        """The (first n, last n) of each run of consecutive record n, in
        order: the record set exactly, at the size of its runs."""
        r = self.records
        if not r.size:
            return ()
        cut = np.flatnonzero(np.diff(r) != 1)
        firsts = r[np.concatenate(([0], cut + 1))] + 1
        lasts = r[np.concatenate((cut, [r.size - 1]))] + 1
        return tuple(zip(firsts.tolist(), lasts.tolist()))

    @property
    def best(self) -> tuple[int, float] | None:
        """The last record (n, q), or None when no n gave a finite q."""
        if not self.records.size:
            return None
        i = int(self.records[-1])
        return i + 1, float(self.trace[i])

    @property
    def best_log2_q(self) -> float | None:
        """log2 q of the last record, or None when there is none."""
        if not self.records.size:
            return None
        return float(self.log2_trace[self.records[-1]])

    def jsonl_records(self):
        """Per-n records followed by one summary record: the decoded lines
        of ``to_jsonl(per_n=True)``."""
        return [json.loads(line)
                for line in self.to_jsonl(per_n=True).split("\n")]

    def to_jsonl(self, per_n: bool = False) -> str:
        """The summary line, after one line per n with ``per_n``; keys
        sorted, floats as ``json.dumps`` writes them and non-finite ones as
        strings.

        Without ``per_n`` the summary line is of the size of the record
        runs: ``record_runs`` lists [first n, last n] per run and
        ``witness`` the [n, q] pairs at the run ends only, so only those q
        and the last record's log2 q are formatted.  With ``per_n`` the
        summary has no ``record_runs`` and its ``witness`` holds every
        record; each float is formatted once, and the summary's
        ``best_log2_q`` and witness reuse the text of the per-n lines."""
        if not per_n:
            runs = self.record_runs
            ends = np.unique(np.array(runs, dtype=np.intp)) - 1
            return self._summary_line(
                ends, _json_reprs(self.trace[ends]),
                _json_reprs(self.log2_trace[self.records[-1:]]), runs)
        log2_qs = _json_reprs(self.log2_trace)
        qs = _json_reprs(self.trace)
        head = f'{{"kind": {json.dumps(self.kind)}, "log2_q": '
        record = np.zeros(self.horizon, dtype=bool)
        record[self.records] = True
        flag = ("false}", "true}")
        lines = [f'{head}{lq}, "n": {n}, "q": {q}, "record_min": {flag[r]}'
                 for n, lq, q, r in zip(range(1, self.horizon + 1), log2_qs,
                                        qs, record.tolist())]
        records = self.records.tolist()
        lines.append(self._summary_line(self.records,
                                        [qs[i] for i in records],
                                        [log2_qs[i] for i in records[-1:]]))
        return "\n".join(lines)

    def _summary_line(self, idx: np.ndarray, idx_qs: list[str],
                      last_log2_q: list[str], runs=None) -> str:
        """The summary line from the record indices ``idx`` the witness
        lists, the formatted q at each and the formatted log2 q of the last
        record (an empty list without one); ``runs``, the record runs, adds
        the key ``record_runs``."""
        params = {"horizon": self.horizon, "tol": self.tol}
        params.update(self.params)
        best_log2_q = last_log2_q[0] if last_log2_q else "null"
        pairs = ", ".join([f"[{n}, {q}]" for n, q in
                           zip((idx + 1).tolist(), idx_qs)])
        record_runs = ""
        if runs is not None:
            spans = ", ".join([f"[{a}, {b}]" for a, b in runs])
            record_runs = f'"record_runs": [{spans}], '
        # the key order and separators of json.dumps(..., sort_keys=True)
        return (f'{{"best_log2_q": {best_log2_q}, '
                f'"kind": {json.dumps(self.kind)}, '
                f'"params": {json.dumps(params, sort_keys=True)}, '
                f'{record_runs}'
                f'"status": {json.dumps(self.status)}, '
                f'"witness": [{pairs}]}}')


def _json_float(x: float):
    return float(x) if math.isfinite(x) else repr(x)


def _json_reprs(values: np.ndarray) -> list[str]:
    """``json.dumps(_json_float(x))`` for each x in a float array."""
    out = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        out[i] = json.dumps(out[i])
    return out


def verdict_from_trace(kind: str, trace, tol: float, params=None,
                       log2_trace=None) -> CriterionVerdict:
    """The verdict of a q trace over n = 1..len(trace).

    The witness is the record minima of log2 q (``log2_trace``, log2 of the
    trace when not given) over the n whose q is below inf; NaN sets none.
    SATISFIED iff there is a record and the last one's log2 q is
    <= log2 tol.
    """
    trace = np.asarray(trace, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log2_tol = np.log2(tol)
        if log2_trace is None:
            log2_trace = np.log2(trace)
    log2_trace = np.asarray(log2_trace, dtype=float)
    # low[i] is the least key over n <= i, low[0] the seed +inf, where a
    # key is log2 q at a q below inf and NaN elsewhere, which fmin skips:
    # n is a record iff its key lowers the running minimum
    low = np.empty(trace.size + 1)
    low[0] = math.inf
    low[1:] = log2_trace
    np.copyto(low[1:], math.nan, where=~(trace < math.inf))
    np.fmin.accumulate(low, out=low)
    records = np.flatnonzero(low[1:] < low[:-1])
    met = records.size and low[-1] <= log2_tol
    return CriterionVerdict(kind, SATISFIED if met else NOT_SATISFIED,
                            records, trace, log2_trace, tol, params)


def _leg_extremes(op: CompositionOperator, fwd_pts, bwd_pts, horizon: int,
                  slices=(slice(None),), mirrored: bool = True) -> list:
    """The one cocycle sweep behind every untrimmed criterion of a run:
    per slice in ``slices`` of the point columns (the whole set by
    default), T's table of rows (-min lf, max lb) for n = 1..horizon,
    followed with ``mirrored`` by the rows (-min lb, max lf) the adjoint
    kinds read, with the forward leg over ``fwd_pts`` and the backward leg
    over ``bwd_pts``.  A slice short of the whole set is defined only when
    both legs read the same points.  The inverse S reads the same table
    through :func:`_kind_rows`.

    The legs arrive as blocks of the orbit lattice, one row per n.  Each
    leg value is elementwise in its point, so a slice's table is bit for
    bit the table of a sweep over that slice's points alone.  The
    extremes reduce point-major copies of the blocks, a whole row of n per
    step, not one n's 9-25 points; the copies go into one buffer per leg
    that its blocks reuse.  Each leg is reduced on its own, and names the
    extremes it reads, so that its sweep may narrow to the columns that
    can still hold them (:func:`operators._orbit_log2_legs`)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    exts = [np.empty((4 if mirrored else 2, horizon)) for _ in slices]
    rows = _block_rows(max(np.size(fwd_pts), np.size(bwd_pts)))
    legs = [(fwd_pts, 1, 0), (bwd_pts, -1, -1)]
    # the rows of a table that a leg gives (-min, max) of: the forward
    # leg (-min lf, max lf), the backward leg (-min lb, max lb); the
    # forward leg's max and the backward leg's min only with ``mirrored``
    reads = [(True, mirrored), (mirrored, True)]
    for leg, role, (pts, _, _) in zip(
            _orbit_log2_legs(op, legs, horizon, rows, reads, slices),
            [(0, 3), (2, 1)], legs):
        buf = np.empty((np.size(pts), min(rows, horizon)))
        n0 = 0
        for block, sels in leg:
            n1 = n0 + len(block)
            copy = buf[:block.shape[1], :len(block)]
            copy[...] = block.T
            _reduce(exts, copy, sels, role, n0, n1)
            n0 = n1
    return exts


def _trimmed_xy(kinds, op: CompositionOperator, pts, horizon: int,
                budget: int, inverse: bool) -> dict:
    """Per kind in ``kinds``, its formula arguments (x, y) for
    n = 1..horizon after the best removal of up to ``budget`` points of
    ``pts`` (:func:`_best_removals`), read from every cell of both legs'
    blocks; for the inverse S the legs are lf_S = -lb_T and lb_S = -lf_T."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    xys = {kind: np.empty((2, horizon)) for kind in kinds}
    n0 = 0
    for (lf, _), (lb, _) in zip(*_orbit_log2_legs(
            op, [(pts, 1, 0), (pts, -1, -1)], horizon)):
        if inverse:
            lf, lb = -lb, -lf
        n1 = n0 + len(lf)
        ns = np.arange(n0 + 1, n1 + 1, dtype=float)
        for xy, kept in zip(xys.values(),
                            _best_removals(list(xys), ns, lf, lb, budget)):
            xy[:, n0:n1] = kept
        n0 = n1
    return xys


def _reduce(exts, copy: np.ndarray, sels, role, n0: int, n1: int):
    """Write -min and max over each slice's selector in ``sels`` of the
    point-major ``copy`` into the rows ``role`` of that slice's table, at
    n0..n1 - 1; a row past a table's end (a mirrored row of an unmirrored
    table) is not read, and not made."""
    lo, hi = role
    for ext, sel in zip(exts, sels):
        part = copy[sel]
        if lo < len(ext):
            x = ext[lo, n0:n1]
            np.negative(part.min(axis=0, out=x), out=x)
        if hi < len(ext):
            part.max(axis=0, out=ext[hi, n0:n1])


def _kind_rows(kind: CriterionKind, table: np.ndarray,
               inverse: bool) -> np.ndarray:
    """The formula arguments (x, y) of ``kind`` as a view of T's
    ``table`` from :func:`_leg_extremes`: the mirrored pair for the
    adjoint kinds, and for the inverse S its rows reversed, since
    lf_S = -lb_T and lb_S = -lf_T make S's table T's rows (1, 0, 3, 2)
    (negation is exact)."""
    xy = table[2:] if _FORMULA[kind][1] else table[:2]
    return xy[::-1] if inverse else xy


def _kind_verdict(kind: CriterionKind, xy, tol: float,
                  params=None) -> CriterionVerdict:
    """One kind's verdict from its formula arguments (x, y) over
    n = 1..horizon: the formula vectorised over n, then the record
    minima."""
    if not tol > 0:  # true for NaN too
        raise ValueError("tol must be positive")
    ns = np.arange(1, len(xy[0]) + 1, dtype=float)
    with np.errstate(over="ignore"):
        log2_q, q = _FORMULA[kind][0](ns, *xy)
    return verdict_from_trace(kind.value, q, tol, params, log2_q)


def evaluate(kinds, op: CompositionOperator, window: CompactWindow,
             horizon: int, tol: float, max_drop: int = 0, *,
             inverse: bool = False) -> list[CriterionVerdict]:
    """One verdict per kind, in order: q(n) and log2 q(n) for
    n = 1..horizon and the record-minimum witness.  The untrimmed kinds
    share one cocycle sweep (:func:`_leg_extremes`), then each trace is one
    formula over n, so a verdict is bit-identical whichever other kinds
    ride along.

    ``max_drop`` = k is the exceptional-set budget: per n, up to k window
    points are removed, the best such removal, in a full-width pass of
    its own (:func:`_trimmed_xy`) that an all-trimmed run makes alone.
    Only the solid kinds trim: in sup norm any nonempty removal keeps full
    indicator mass.  WEDGE is stated on windows of radius m >= 1 only."""
    if isinstance(kinds, str):
        raise TypeError("kinds must be a sequence of criterion kinds")
    kinds = [CriterionKind(k) for k in kinds]
    if CriterionKind.WEDGE in kinds and window.radius < 1:
        raise ValueError("WEDGE needs a window radius >= 1")
    trim_kinds = [k for k in kinds if max_drop > 0 and k in _SOLID_KINDS]
    trimmed = (_trimmed_xy(trim_kinds, op, window.points, horizon, max_drop,
                           inverse) if trim_kinds else {})
    if any(k not in trimmed for k in kinds):
        [table] = _leg_extremes(
            op, window.points, window.points, horizon,
            mirrored=any(_FORMULA[k][1] for k in kinds))
    verdicts = []
    for kind in kinds:
        params = {"window_radius": window.radius, "inverse": inverse}
        if kind in trimmed:
            xy = trimmed[kind]
            params["max_drop"] = max_drop
        else:
            xy = _kind_rows(kind, table, inverse)
        verdicts.append(_kind_verdict(kind, xy, tol, params))
    return verdicts
