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
from typing import Iterable

import numpy as np

from .criteria import (
    CompactWindow,
    CriterionKind,
    CriterionVerdict,
    _kind_verdict,
    _leg_extremes,
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


def adjoint_criterion(kind: CriterionKind, op: CompositionOperator,
                      mu: AtomicMeasure, nu: AtomicMeasure,
                      window: CompactWindow, horizon: int,
                      tol: float) -> CriterionVerdict:
    """Adjoint-side criterion sweep over the supports of mu and nu: the
    forward leg sups over mu's atom locations, the inverse backward leg
    over nu's, in the one shared cocycle sweep of :mod:`criteria`."""
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
    # atoms are never trimmed; the key keeps adjoint.jsonl's params stable
    params = {"window_radius": m, "atom_trim_budget": 0.0}
    ext, _ = _leg_extremes(op, mu.locations, nu.locations, horizon)
    return _kind_verdict(kind, ext[2:], tol, None, params)


def measure_approximant(op: CompositionOperator, mu: AtomicMeasure,
                        nu: AtomicMeasure, n: int):
    """eta = mu + (||T*^n mu|| / ||S*^n nu||)^(1/2) S*^n nu and the
    matching scalar; the caller checks both convergence legs."""
    if mu.is_zero or nu.is_zero:
        raise DegenerateApproximantError("mu and nu must be nonzero")
    t_mu = adjoint_Tn(op, mu, n)
    s_nu = adjoint_Sn(op, nu, n)
    a = tv_norm(t_mu)
    b = tv_norm(s_nu)
    if a == 0 or b == 0:
        raise DegenerateApproximantError("adjoint power has zero norm")
    eta = mu + math.sqrt(a / b) * s_nu
    lam = math.sqrt(b / a)
    return eta, lam
