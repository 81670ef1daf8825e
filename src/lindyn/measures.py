"""Finitely-atomic measures, the adjoint action, and its criteria.

A measure is a finite list of weighted point masses with the total
variation norm (here exact: the sum of atom moduli).  The adjoint of the
weighted composition operator acts atom-wise:

    c * delta_x  ->  c * w(x) * delta_{alpha(x)}

which is the closed form of the defining integral on atoms; iterates pick
up the forward cocycle, and the inverse adjoint divides by the backward
cocycle.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np

from .criteria import (
    CompactWindow,
    CriterionKind,
    CriterionVerdict,
    _log_sweep,
    _q_at,
    verdict_from_trace,
)
from .errors import DegenerateApproximantError, SupportOutsideWindowError
from .funcspace import GridFunction, homeo_power, linear_interpolate
from .operators import (
    CompositionOperator,
    apply_T,
    backward_log2,
    forward_log2,
)

__all__ = [
    "AtomicMeasure",
    "tv_norm",
    "adjoint_T",
    "adjoint_Tn",
    "adjoint_Sn",
    "duality_check",
    "adjoint_criterion",
    "measure_approximant",
]


class AtomicMeasure:
    """Canonical finite atomic measure: locations strictly increasing,
    duplicates merged, zero weights dropped."""

    def __init__(self, atoms: Iterable[tuple[float, complex]] = ()):
        locs: list[float] = []
        weights: list[complex] = []
        for x, c in sorted(atoms, key=lambda a: a[0]):
            if locs and x == locs[-1]:
                weights[-1] += complex(c)
            else:
                locs.append(float(x))
                weights.append(complex(c))
        keep = [i for i, c in enumerate(weights) if c != 0]
        self.locations = np.array([locs[i] for i in keep], dtype=float)
        self.weights = np.array([weights[i] for i in keep], dtype=complex)
        self.locations.setflags(write=False)
        self.weights.setflags(write=False)

    @classmethod
    def delta(cls, x: float, c: complex = 1.0) -> "AtomicMeasure":
        return cls([(x, c)])

    @classmethod
    def _from_arrays(cls, locs, weights) -> "AtomicMeasure":
        return cls(zip(np.asarray(locs, float).tolist(),
                       np.asarray(weights, complex).tolist()))

    @property
    def is_zero(self) -> bool:
        return self.locations.size == 0

    def __add__(self, other: "AtomicMeasure") -> "AtomicMeasure":
        return AtomicMeasure(
            list(zip(self.locations, self.weights))
            + list(zip(other.locations, other.weights))
        )

    def __sub__(self, other: "AtomicMeasure") -> "AtomicMeasure":
        return self + (-1.0) * other

    def __mul__(self, c) -> "AtomicMeasure":
        return AtomicMeasure._from_arrays(self.locations, self.weights * c)

    __rmul__ = __mul__

    def drop(self, indices: Sequence[int]) -> "AtomicMeasure":
        keep = np.ones(self.locations.size, dtype=bool)
        keep[list(indices)] = False
        return AtomicMeasure._from_arrays(self.locations[keep],
                                          self.weights[keep])

    def to_json(self) -> str:
        return json.dumps(
            {"atoms": [{"x": x, "re": c.real, "im": c.imag}
                       for x, c in zip(self.locations, self.weights)]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "AtomicMeasure":
        obj = json.loads(text)
        return cls([(a["x"], a["re"] + 1j * a.get("im", 0.0))
                    for a in obj["atoms"]])


def tv_norm(mu: AtomicMeasure) -> float:
    return float(np.sum(np.abs(mu.weights)))


def adjoint_T(op: CompositionOperator, mu: AtomicMeasure) -> AtomicMeasure:
    new_locs = homeo_power(op.alpha, mu.locations, 1)
    return AtomicMeasure._from_arrays(new_locs,
                                      mu.weights * op.weight(mu.locations))


def adjoint_Tn(op: CompositionOperator, mu: AtomicMeasure,
               n: int) -> AtomicMeasure:
    """n-th adjoint power: atom at x picks up the forward cocycle at x and
    moves to alpha^n(x)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0 or mu.is_zero:
        return mu
    factors = np.exp2(forward_log2(op, mu.locations, n))
    new_locs = homeo_power(op.alpha, mu.locations, n)
    return AtomicMeasure._from_arrays(new_locs, mu.weights * factors)


def adjoint_Sn(op: CompositionOperator, mu: AtomicMeasure,
               n: int) -> AtomicMeasure:
    """Inverse adjoint power: divide by the backward cocycle, move to
    alpha^{-n}(x).  Exact two-sided inverse of adjoint_Tn on atoms."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0 or mu.is_zero:
        return mu
    factors = np.exp2(-backward_log2(op, mu.locations, n))
    new_locs = homeo_power(op.alpha, mu.locations, -n)
    return AtomicMeasure._from_arrays(new_locs, mu.weights * factors)


def duality_check(op: CompositionOperator, f: GridFunction,
                  mu: AtomicMeasure, tol: float = 1e-12) -> bool:
    """|<Tf, mu> - <f, T* mu>| <= tol for grid-located atoms."""
    for x in mu.locations:
        f.grid.index_of(float(x))  # raises if off-grid
    tf = apply_T(op, f)
    lhs = complex(np.sum(mu.weights * linear_interpolate(tf, mu.locations)))
    star = adjoint_T(op, mu)
    rhs = complex(np.sum(star.weights *
                         linear_interpolate(f, star.locations)))
    return abs(lhs - rhs) <= tol


def _trim_tv(logs: np.ndarray, weights: np.ndarray, budget: float,
             side: str):
    """Drop atoms with the worst product leg while the dropped total
    variation stays within budget.  ``side='max'`` drops the largest logs,
    ``side='min'`` the smallest.  At least one atom always survives."""
    keep = np.ones(logs.size, dtype=bool)
    if budget <= 0:
        return keep, 0.0
    order = np.argsort(logs)
    if side == "max":
        order = order[::-1]
    dropped_tv = 0.0
    for i in order:
        if keep.sum() <= 1:
            break
        cost = abs(weights[i])
        if dropped_tv + cost > budget:
            break
        keep[i] = False
        dropped_tv += cost
    return keep, dropped_tv


def adjoint_criterion(kind: CriterionKind, op: CompositionOperator,
                      mu: AtomicMeasure, nu: AtomicMeasure,
                      window: CompactWindow, horizon: int, tol: float,
                      atom_trim_budget: float = 0.0) -> CriterionVerdict:
    """Adjoint-side criterion sweep over the supports of mu and nu.

    The forward leg sups over mu's (untrimmed) atom locations, the inverse
    backward leg over nu's.  Trim sets are chosen greedily under a total
    variation budget that halves at each new record minimum; the defaults
    disable trimming, which is what the concrete instances need.
    """
    if kind not in (CriterionKind.ADJOINT_SUPER, CriterionKind.ADJOINT_CESARO):
        raise ValueError("kind must be an adjoint criterion")
    if mu.is_zero or nu.is_zero:
        raise DegenerateApproximantError("mu and nu must be nonzero")
    m = window.radius
    for meas, name in ((mu, "mu"), (nu, "nu")):
        if np.any(np.abs(meas.locations) > m + 1e-12):
            raise SupportOutsideWindowError(
                f"{name} has atoms outside [-{m}, {m}]"
            )
    trace = np.empty(horizon)
    trimmed = [] if atom_trim_budget > 0 else None
    best = math.inf
    records = 0
    # one sweep over both supports: mu's atoms come first, nu's after
    k = mu.locations.size
    points = np.concatenate([mu.locations, nu.locations])
    for n, lf, lb in _log_sweep(op, points, horizon, False):
        lf, lb = lf[:k], lb[k:]
        if atom_trim_budget > 0:
            budget_n = atom_trim_budget * 2.0 ** (-records)
            keep_f, tv_f = _trim_tv(lf, mu.weights, budget_n, "max")
            keep_b, tv_b = _trim_tv(-lb, nu.weights, budget_n, "max")
            trimmed.append(int((~keep_f).sum() + (~keep_b).sum()))
            lf, lb = lf[keep_f], lb[keep_b]
        q = trace[n - 1] = _q_at(kind, n, lf, lb)
        if q < best:  # the trim budget halves at each new record minimum
            best, records = q, records + 1
    params = {"window_radius": m, "atom_trim_budget": atom_trim_budget}
    return verdict_from_trace(kind.value, trace, tol, trimmed, params)


def measure_approximant(op: CompositionOperator, mu: AtomicMeasure,
                        nu: AtomicMeasure, n: int,
                        mu_drop: Sequence[int] = (),
                        nu_drop: Sequence[int] = ()):
    """eta = mu~ + (||T*^n mu~|| / ||S*^n nu~||)^(1/2) S*^n nu~ and the
    matching scalar; the caller checks both convergence legs."""
    mu_t = mu.drop(mu_drop) if mu_drop else mu
    nu_t = nu.drop(nu_drop) if nu_drop else nu
    if mu_t.is_zero or nu_t.is_zero:
        raise DegenerateApproximantError("trimmed measure is zero")
    t_mu = adjoint_Tn(op, mu_t, n)
    s_nu = adjoint_Sn(op, nu_t, n)
    a = tv_norm(t_mu)
    b = tv_norm(s_nu)
    if a == 0 or b == 0:
        raise DegenerateApproximantError("adjoint power has zero norm")
    eta = mu_t + math.sqrt(a / b) * s_nu
    lam = math.sqrt(b / a)
    return eta, lam
