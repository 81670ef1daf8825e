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
from typing import Iterator

import numpy as np

from .errors import SegalIncompatibleError
from .funcspace import Grid, PiecewiseMap
from .operators import (
    CocycleSweep,
    CompositionOperator,
    _orbit_log2,
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
    return np.exp2(x + y)


def _cesaro(n, x, y):
    return np.maximum(n * np.exp2(x), np.exp2(y) / n)


def _hypercyclic(n, x, y):
    return np.exp2(np.maximum(x, y))


# Each kind is a formula in x = -min lf and y = max lb, at one n or
# vectorised over n; adjoint kinds (True) read the mirrored legs x = -min lb,
# y = max lf.  The log2 factors are combined before exponentiating (a
# vanished leg times a diverged one must not give 0 * inf), and the integer
# Cesaro scalings are applied outside, which keeps them exact.
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


def _q_at(kind: CriterionKind, n: int, lf: np.ndarray,
          lb: np.ndarray) -> float:
    """q(n) of one kind from the two legs over the window points."""
    formula, adjoint = _FORMULA[kind]
    x, y = (-lb.min(), lf.max()) if adjoint else (-lf.min(), lb.max())
    return float(formula(n, x, y))


def _trim_greedy(kind: CriterionKind, n: int, lf: np.ndarray, lb: np.ndarray,
                 budget: int):
    """Drop up to ``budget`` points, greedily removing whichever current
    extreme point lowers q the most.  Never empties the window."""
    keep = np.ones(lf.size, dtype=bool)
    dropped = 0
    while dropped < budget and keep.sum() > 1:
        idx = np.flatnonzero(keep)
        q0 = _q_at(kind, n, lf[keep], lb[keep])
        candidates = {int(idx[np.argmin(lf[idx])]),
                      int(idx[np.argmax(lb[idx])])}
        best_q, best_i = q0, None
        for i in sorted(candidates):
            trial = keep.copy()
            trial[i] = False
            qt = _q_at(kind, n, lf[trial], lb[trial])
            if qt < best_q:
                best_q, best_i = qt, i
        if best_i is None:
            break
        keep[best_i] = False
        dropped += 1
    return keep, dropped


class CriterionVerdict:
    """Outcome of one finite-horizon criterion sweep.

    ``witness`` is the record-minimum sequence of (n, q) pairs, a canonical
    deterministic choice of the strictly increasing sequence; SATISFIED
    means exactly that its final q is <= tol.
    """

    def __init__(self, kind: str, status: str, witness, trace, tol: float,
                 trimmed=None, params=None):
        self.kind = str(kind)
        self.status = status
        self.witness = tuple((int(n), float(q)) for n, q in witness)
        trace = np.asarray(trace, dtype=float)
        trace.setflags(write=False)
        self.trace = trace
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

    def jsonl_records(self):
        """Per-n records followed by one summary record."""
        records = []
        record_ns = {n for n, _ in self.witness}
        for i, q in enumerate(self.trace, start=1):
            records.append({
                "kind": self.kind,
                "n": i,
                "q": _json_float(q),
                "record_min": i in record_ns,
            })
        params = {"horizon": self.horizon, "tol": self.tol}
        params.update(self.params)
        records.append({
            "kind": self.kind,
            "status": self.status,
            "witness": [[n, _json_float(q)] for n, q in self.witness],
            "params": params,
        })
        return records

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True)
                         for r in self.jsonl_records())


def _json_float(x: float):
    return float(x) if math.isfinite(x) else repr(x)


def verdict_from_trace(kind: str, trace, tol: float, trimmed=None,
                       params=None) -> CriterionVerdict:
    """The verdict of a q trace over n = 1..len(trace): the witness is its
    record minima (NaN sets none), SATISFIED iff the last is <= tol."""
    trace = np.asarray(trace, dtype=float)
    earlier = np.fmin.accumulate(np.concatenate(([math.inf], trace)))[:-1]
    records = np.flatnonzero(trace < earlier)
    best = trace[records[-1]] if records.size else math.inf
    return CriterionVerdict(kind, SATISFIED if best <= tol else NOT_SATISFIED,
                            [(i + 1, trace[i]) for i in records], trace, tol,
                            trimmed, params)


def _log_sweep(op: CompositionOperator, points: np.ndarray, horizon: int,
               inverse: bool) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (n, lf, lb) for n = 1..horizon.

    With ``inverse`` the roles encode the inverse operator S, whose weight
    along forward orbits is the reciprocal backward product of T:
    lf_S = -lb_T and lb_S = -lf_T.
    """
    sweep = CocycleSweep(op, points)
    for n in range(1, horizon + 1):
        sweep.step()
        lf = sweep.log_forward
        lb = sweep.log_backward
        if inverse:
            lf, lb = -lb, -lf
        yield n, lf, lb


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
    in ``trim_kinds`` its trimmed q trace and drop counts (trimming picks its
    points per n, so it cannot be read off the extremes)."""
    ext = np.empty((4, horizon))
    trimmed = {kind: (np.empty(horizon), []) for kind in trim_kinds}
    for n, lf, lb in _log_sweep(op, window.points, horizon, inverse):
        ext[:, n - 1] = -lf.min(), lb.max(), -lb.min(), lf.max()
        for kind, (trace, drops) in trimmed.items():
            keep, dropped = _trim_greedy(kind, n, lf, lb, max_drop)
            drops.append(dropped)
            trace[n - 1] = _q_at(kind, n, lf[keep], lb[keep])
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
    return _q_at(kind, n, lf, lb)


def evaluate(kinds, op: CompositionOperator, window: CompactWindow,
             horizon: int, tol: float, trim: TrimPolicy | None = None, *,
             inverse: bool = False) -> list[CriterionVerdict]:
    """One verdict per kind, in order: q(n) for n = 1..horizon and its
    record-minimum witness.  The kinds share one cocycle sweep, then each
    trace is one formula over n, so a verdict is bit-identical whichever
    other kinds ride along."""
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
        if kind in trimmed:
            trace, drops = trimmed[kind]
            params["max_drop"] = max_drop
        else:
            formula, adjoint = _FORMULA[kind]
            trace = formula(ns, *(ext[2:] if adjoint else ext[:2]))
            drops = None
        verdicts.append(verdict_from_trace(kind.value, trace, tol, drops,
                                           params))
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
