"""Finite-horizon evaluators for the orbit-product criteria.

Every criterion reduces to one scalar q(n) built from suprema of weight
products over a compact window K:

    lf(t, n) = log2 prod_{j=0}^{n-1} w(alpha^j(t))      (forward leg)
    lb(t, n) = log2 prod_{j=1}^{n}   w(alpha^{-j}(t))   (backward leg)

The supremum-norm/weighted-algebra variants are stated with the product
prod_{j=0}^{n-1} w(alpha^{j-n}(t)), which re-indexes (i = n - j) to the
backward leg above for any homeomorphism; the sweep uses that identity,
and :func:`segal_factors` keeps the literal form as an independent route.

A criterion asks for q(n_k) -> 0 along a strictly increasing sequence; the
finite-horizon semidecision reports SATISFIED only in the sense "q reached
tol by the horizon", never as a theorem.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SegalIncompatibleError
from .funcspace import Grid, PiecewiseMap
from .operators import (
    CompositionOperator,
    _orbit_log2,
    _orbit_log2_rows,
    backward_log2,
    forward_log2,
    segal_compatible,
)

__all__ = [
    "SATISFIED",
    "NOT_SATISFIED",
    "CriterionKind",
    "CompactWindow",
    "TrimPolicy",
    "CriterionVerdict",
    "product_factors",
    "segal_factors",
    "sweep_factors",
    "quantity",
    "evaluate",
    "verdict_from_trace",
    "implication_check",
    "ImplicationReport",
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


_SOLID_KINDS = {
    CriterionKind.SUPERCYCLIC_SOLID,
    CriterionKind.CESARO_SOLID,
    CriterionKind.HYPERCYCLIC_SOLID,
}


class CompactWindow:
    """A symmetric window [-m, m] carried as explicit sample points.

    ``segal_eps`` marks the window as a sublevel window for a profile tau;
    validity (max |tau| <= eps on the points) is checked where tau is known.
    The degenerate radius 0 (the singleton {0}) is allowed: the exact
    telescoping oracles are stated on it.
    """

    def __init__(self, radius: float, points, segal_eps: float | None = None):
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        if radius < 0:
            raise ValueError("window radius must be >= 0")
        if pts.size == 0:
            raise ValueError("window must contain at least one point")
        if np.any(np.abs(pts) > radius + 1e-9):
            raise ValueError("window points must lie in [-m, m]")
        if segal_eps is not None and not (0 < segal_eps < 1):
            raise ValueError("segal_eps must lie in (0, 1)")
        pts = pts.copy()
        pts.setflags(write=False)
        self.radius = float(radius)
        self.points = pts
        self.segal_eps = segal_eps

    @classmethod
    def from_grid(cls, grid: Grid, m: float,
                  segal_eps: float | None = None) -> "CompactWindow":
        pts = grid.points
        return cls(m, pts[np.abs(pts) <= m + 1e-12], segal_eps)

    @classmethod
    def singleton(cls, t: float = 0.0,
                  segal_eps: float | None = None) -> "CompactWindow":
        return cls(abs(t), [t], segal_eps)

    def validate_segal(self, tau: PiecewiseMap):
        if self.segal_eps is None:
            raise SegalIncompatibleError("window carries no segal bound")
        worst = float(np.max(np.abs(np.asarray(tau(self.points),
                                               dtype=complex))))
        if worst > self.segal_eps + 1e-12:
            raise SegalIncompatibleError(
                f"max |tau| = {worst} exceeds the window bound {self.segal_eps}"
            )


@dataclass(frozen=True)
class TrimPolicy:
    """Exceptional-set budget: up to ``max_drop`` worst window points may be
    removed per n.  Meaningful for the quadrature-backed (solid) kinds only;
    in sup norm any nonempty removal keeps full indicator mass, so the other
    kinds ignore it."""

    max_drop: int = 0


def _supercyclic(n, x, y):
    log2_q = x + y
    return log2_q, np.exp2(log2_q)


def _cesaro(n, x, y):
    # log2 of q itself where q is finite and nonzero, so that log2 q ties
    # where q ties; the log form only where q under- or overflowed
    log2_n = np.log2(n)
    q = np.maximum(n * np.exp2(x), np.exp2(y) / n)
    with np.errstate(divide="ignore"):
        return (np.where((q > 0) & (q < np.inf), np.log2(q),
                         np.maximum(log2_n + x, y - log2_n)), q)


def _hypercyclic(n, x, y):
    log2_q = np.maximum(x, y)
    return log2_q, np.exp2(log2_q)


# Each kind is a formula in x = -min lf and y = max lb, at one n or
# vectorised over n, giving (log2 q, q); adjoint kinds (True) read the
# mirrored legs x = -min lb, y = max lf.  log2 q stays finite where q
# underflows to 0 or overflows to inf.  q combines the log2 factors before
# exponentiating (a vanished leg times a diverged one must not give 0 * inf),
# and applies the integer Cesaro scalings outside, which keeps them exact.
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
}


def _xy(kind: CriterionKind, lf: np.ndarray, lb: np.ndarray):
    """The formula arguments (x, y) of one kind from the two legs."""
    if _FORMULA[kind][1]:
        return -lb.min(), lf.max()
    return -lf.min(), lb.max()


def _q_at(kind: CriterionKind, n: int, lf: np.ndarray,
          lb: np.ndarray) -> tuple[float, float]:
    """(log2 q(n), q(n)) of one kind from the two legs over the window
    points."""
    with np.errstate(over="ignore"):
        log2_q, q = _FORMULA[kind][0](n, *_xy(kind, lf, lb))
    return float(log2_q), float(q)


def _trim_greedy(kind: CriterionKind, n: int, lf: np.ndarray, lb: np.ndarray,
                 budget: int):
    """Drop up to ``budget`` points, greedily removing whichever current
    extreme point lowers log2 q the most.  Never empties the window."""
    keep = np.ones(lf.size, dtype=bool)
    dropped = 0
    while dropped < budget and keep.sum() > 1:
        idx = np.flatnonzero(keep)
        q0, _ = _q_at(kind, n, lf[keep], lb[keep])
        candidates = {int(idx[np.argmin(lf[idx])]),
                      int(idx[np.argmax(lb[idx])])}
        best_q, best_i = q0, None
        for i in sorted(candidates):
            trial = keep.copy()
            trial[i] = False
            qt, _ = _q_at(kind, n, lf[trial], lb[trial])
            if qt < best_q:
                best_q, best_i = qt, i
        if best_i is None:
            break
        keep[best_i] = False
        dropped += 1
    return keep, dropped


class CriterionVerdict:
    """Outcome of one finite-horizon criterion sweep.

    ``trace`` holds q(n) and ``log2_trace`` log2 q(n) for n = 1..horizon.
    ``witness`` is the record-minimum sequence of (n, q) pairs, a canonical
    deterministic choice of the strictly increasing sequence, taken on
    log2 q; SATISFIED means exactly that its final log2 q is <= log2 tol.
    """

    def __init__(self, kind: str, status: str, witness, trace, log2_trace,
                 tol: float, trimmed=None, params=None):
        self.kind = str(kind)
        self.status = status
        self.witness = tuple((int(n), float(q)) for n, q in witness)
        trace = np.asarray(trace, dtype=float)
        trace.setflags(write=False)
        self.trace = trace
        log2_trace = np.asarray(log2_trace, dtype=float)
        log2_trace.setflags(write=False)
        self.log2_trace = log2_trace
        self.horizon = trace.size
        self.tol = float(tol)
        self.trimmed = None if trimmed is None else tuple(trimmed)
        self.params = dict(params or {})

    @property
    def satisfied(self) -> bool:
        return self.status == SATISFIED

    @property
    def best(self) -> tuple[int, float] | None:
        """The last record (n, q), or None when no n gave a finite q."""
        return self.witness[-1] if self.witness else None

    @property
    def best_log2_q(self) -> float | None:
        """log2 q of the last record, or None when there is none."""
        if not self.witness:
            return None
        return float(self.log2_trace[self.witness[-1][0] - 1])

    def jsonl_records(self):
        """Per-n records followed by one summary record: the decoded lines
        of :meth:`to_jsonl`."""
        return [json.loads(line) for line in self.to_jsonl().split("\n")]

    def to_jsonl(self) -> str:
        """One line per n, then the summary line; keys sorted, floats as
        ``json.dumps`` writes them and non-finite ones as strings."""
        head = f'{{"kind": {json.dumps(self.kind)}, "log2_q": '
        record = np.zeros(self.horizon, dtype=bool)
        record[[n - 1 for n, _ in self.witness]] = True
        flag = ("false}", "true}")
        lines = [f'{head}{lq}, "n": {n}, "q": {q}, "record_min": {flag[r]}'
                 for n, lq, q, r in zip(range(1, self.horizon + 1),
                                        _json_reprs(self.log2_trace),
                                        _json_reprs(self.trace),
                                        record.tolist())]
        params = {"horizon": self.horizon, "tol": self.tol}
        params.update(self.params)
        best_log2_q = self.best_log2_q
        lines.append(json.dumps({
            "best_log2_q": (None if best_log2_q is None
                            else _json_float(best_log2_q)),
            "kind": self.kind,
            "status": self.status,
            "witness": [[n, _json_float(q)] for n, q in self.witness],
            "params": params,
        }, sort_keys=True))
        return "\n".join(lines)


def _json_float(x: float):
    return float(x) if math.isfinite(x) else repr(x)


def _json_reprs(values: np.ndarray) -> list[str]:
    """``json.dumps(_json_float(x))`` for each x in a float array."""
    out = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        out[i] = json.dumps(out[i])
    return out


def verdict_from_trace(kind: str, trace, tol: float, trimmed=None,
                       params=None, log2_trace=None) -> CriterionVerdict:
    """The verdict of a q trace over n = 1..len(trace).

    The witness is the record minima of log2 q (``log2_trace``, log2 of the
    trace when not given) over the n whose q is below inf; NaN sets none.
    SATISFIED iff the last record's log2 q is <= log2 tol.
    """
    trace = np.asarray(trace, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log2_tol = np.log2(tol)
        if log2_trace is None:
            log2_trace = np.log2(trace)
    log2_trace = np.asarray(log2_trace, dtype=float)
    key = np.where(trace < math.inf, log2_trace, math.nan)
    earlier = np.fmin.accumulate(np.concatenate(([math.inf], key)))[:-1]
    records = np.flatnonzero(key < earlier)
    best = key[records[-1]] if records.size else math.inf
    return CriterionVerdict(kind,
                            SATISFIED if best <= log2_tol else NOT_SATISFIED,
                            zip((records + 1).tolist(),
                                trace[records].tolist()), trace,
                            log2_trace, tol, trimmed, params)


def product_factors(op: CompositionOperator, window: CompactWindow,
                    n: int) -> tuple[float, float]:
    """(P_minus, P_plus): sup over K of the inverse forward product and of
    the backward product."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lf = forward_log2(op, window.points, n)
    lb = backward_log2(op, window.points, n)
    return float(np.exp2(-lf.min())), float(np.exp2(lb.max()))


def segal_factors(op: CompositionOperator, window: CompactWindow, n: int, *,
                  tau: PiecewiseMap | None = None, grid: Grid | None = None,
                  tau_tol: float = 1e-9) -> tuple[float, float]:
    """(Q_back, Q_inv) in the literal form of the sup-norm criteria.

    Q_back walks forward from alpha^{-n}(t) so the product
    prod_{j=0}^{n-1} w(alpha^{j-n}(t)) is computed as displayed, not via
    the backward-leg re-indexing; Q_inv is the inverse forward product.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if tau is not None:
        window.validate_segal(tau)
        if grid is None:
            raise ValueError("grid is required to check tau invariance")
        if not segal_compatible(op, tau, grid, tau_tol):
            raise SegalIncompatibleError(
                "tau is not alpha-invariant within tolerance"
            )
    pts = window.points
    q_back = float(np.exp2(_orbit_log2(op, pts, n, start=-n).max()))
    lf = forward_log2(op, pts, n)
    q_inv = float(np.exp2(-lf.min()))
    return q_back, q_inv


def _leg_extremes(op: CompositionOperator, window: CompactWindow,
                  horizon: int, inverse: bool, trim_kinds=(),
                  max_drop: int = 0):
    """The one cocycle sweep behind every criterion of a run: rows (-min lf,
    max lb, -min lb, max lf) over the window for n = 1..horizon, and per kind
    in ``trim_kinds`` its formula arguments (x, y) over the trimmed window
    and drop counts (trimming picks its points per n, so it cannot be read
    off the extremes).

    The legs arrive as blocks of the orbit lattice, one row per n.  With
    ``inverse`` they encode the inverse operator S, whose weight along
    forward orbits is the reciprocal backward product of T:
    lf_S = -lb_T and lb_S = -lf_T.
    """
    ext = np.empty((4, horizon))
    trimmed = {kind: (np.empty((2, horizon)), []) for kind in trim_kinds}
    pts = window.points
    n0 = 0
    for lf, lb in zip(_orbit_log2_rows(op, pts, horizon),
                      _orbit_log2_rows(op, pts, horizon, -1, -1)):
        if inverse:
            lf, lb = -lb, -lf
        n1 = n0 + len(lf)
        ext[:, n0:n1] = (-lf.min(axis=1), lb.max(axis=1),
                         -lb.min(axis=1), lf.max(axis=1))
        for kind, (xy, drops) in trimmed.items():
            for n, lf_n, lb_n in zip(range(n0 + 1, n1 + 1), lf, lb):
                keep, dropped = _trim_greedy(kind, n, lf_n, lb_n, max_drop)
                drops.append(dropped)
                xy[:, n - 1] = _xy(kind, lf_n[keep], lb_n[keep])
        n0 = n1
    return ext, trimmed


def sweep_factors(op: CompositionOperator, window: CompactWindow,
                  horizon: int, *, inverse: bool = False):
    """Arrays (P_minus[n-1], P_plus[n-1]) for n = 1..horizon in O(horizon)."""
    ext, _ = _leg_extremes(op, window, horizon, inverse)
    return np.exp2(ext[0]), np.exp2(ext[1])


def quantity(kind: CriterionKind, op: CompositionOperator,
             window: CompactWindow, n: int,
             trim: TrimPolicy | None = None, *,
             inverse: bool = False) -> float:
    """The scalar q(n) for one criterion kind at one n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lf = forward_log2(op, window.points, n)
    lb = backward_log2(op, window.points, n)
    if inverse:
        lf, lb = -lb, -lf
    if trim is not None and trim.max_drop > 0 and kind in _SOLID_KINDS:
        keep, _ = _trim_greedy(kind, n, lf, lb, trim.max_drop)
        lf, lb = lf[keep], lb[keep]
    return _q_at(kind, n, lf, lb)[1]


def evaluate(kinds, op: CompositionOperator, window: CompactWindow,
             horizon: int, tol: float, trim: TrimPolicy | None = None, *,
             inverse: bool = False) -> list[CriterionVerdict]:
    """One verdict per kind, in order: q(n) and log2 q(n) for
    n = 1..horizon and the record-minimum witness.  The kinds share one
    cocycle sweep, then each trace is one formula over n, so a verdict is
    bit-identical whichever other kinds ride along."""
    if isinstance(kinds, str):
        raise TypeError("kinds must be a sequence of criterion kinds")
    kinds = [CriterionKind(k) for k in kinds]
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    max_drop = 0 if trim is None else trim.max_drop
    trim_kinds = [k for k in kinds if max_drop > 0 and k in _SOLID_KINDS]
    ext, trimmed = _leg_extremes(op, window, horizon, inverse, trim_kinds,
                                 max_drop)
    ns = np.arange(1, horizon + 1, dtype=float)
    verdicts = []
    for kind in kinds:
        params = {"window_radius": window.radius, "inverse": inverse}
        formula, adjoint = _FORMULA[kind]
        if kind in trimmed:
            xy, drops = trimmed[kind]
            params["max_drop"] = max_drop
        else:
            xy, drops = (ext[2:] if adjoint else ext[:2]), None
        with np.errstate(over="ignore"):
            log2_q, q = formula(ns, *xy)
        verdicts.append(verdict_from_trace(kind.value, q, tol, drops, params,
                                           log2_q))
    return verdicts


@dataclass(frozen=True)
class ImplicationReport:
    """Check that a Cesaro pass forces a supercyclic pass.

    The product identity q_super(n) = (n * P_minus) * (P_plus / n) makes
    q_super <= q_cesaro**2 whenever both scaled factors sit below their max,
    so any verdict-level violation is a bug, not mathematics.
    """

    family: str
    cesaro: CriterionVerdict
    supercyclic: CriterionVerdict
    verdict_violations: tuple[int, ...]
    qlevel_violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.verdict_violations and not self.qlevel_violations


def implication_check(op: CompositionOperator, window: CompactWindow,
                      horizon: int, tol: float,
                      family: str = "solid") -> ImplicationReport:
    kinds = {
        "solid": (CriterionKind.CESARO_SOLID, CriterionKind.SUPERCYCLIC_SOLID),
        "c0": (CriterionKind.CESARO_C0, CriterionKind.SUPERCYCLIC_C0),
    }
    if family not in kinds:
        raise ValueError("family must be 'solid' or 'c0'")
    ces, sup = evaluate(kinds[family], op, window, horizon, tol)
    qc, qs = ces.trace, sup.trace
    verdict_violations = (qc <= min(tol, 1.0)) & (qs > tol)
    qlevel_violations = (qc <= 1.0) & (qs > qc * qc + 1e-10)
    return ImplicationReport(
        family, ces, sup,
        tuple((np.flatnonzero(verdict_violations) + 1).tolist()),
        tuple((np.flatnonzero(qlevel_violations) + 1).tolist()))
