"""Finitely-atomic measures and the adjoint-side criteria.

A measure is a finite list of weighted point masses.  The adjoint of the
weighted composition operator acts atom-wise:

    c * delta_x  ->  c * w(x) * delta_{alpha(x)}

which is the closed form of the defining integral on atoms; iterates pick
up the forward cocycle, and the inverse adjoint divides by the backward
cocycle.  So the adjoint criteria read the forward leg over the atoms of
mu and the backward leg over those of nu, in the cocycle sweep of
:mod:`criteria`; the atom-wise powers themselves, the duality check and
the measure approximant are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .criteria import (
    CompactWindow,
    CriterionKind,
    CriterionVerdict,
    _FORMULA,
    _kind_rows,
    _kind_verdict,
    _leg_extremes,
)
from .errors import DegenerateApproximantError, SupportOutsideWindowError
from .operators import CompositionOperator

__all__ = [
    "AtomicMeasure",
    "adjoint_criterion",
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

    @property
    def is_zero(self) -> bool:
        return self.locations.size == 0


def _adjoint_extremes(op: CompositionOperator, mu: AtomicMeasure,
                      nu: AtomicMeasure, window: CompactWindow,
                      horizon: int) -> np.ndarray:
    """The leg rows of :func:`criteria._leg_extremes` for an adjoint sweep:
    the forward leg over mu's atom locations, the backward leg over nu's.
    Both measures must be nonzero with their support in the window."""
    if mu.is_zero or nu.is_zero:
        raise DegenerateApproximantError("mu and nu must be nonzero")
    m = window.radius
    for meas, name in ((mu, "mu"), (nu, "nu")):
        if np.any(np.abs(meas.locations) > m + 1e-12):
            raise SupportOutsideWindowError(
                f"{name} has atoms outside [-{m}, {m}]"
            )
    ext, _ = _leg_extremes(op, mu.locations, nu.locations, horizon)
    return ext


def adjoint_criterion(kinds, op: CompositionOperator, mu: AtomicMeasure,
                      nu: AtomicMeasure, window: CompactWindow, horizon: int,
                      tol: float) -> list[CriterionVerdict]:
    """One adjoint-side verdict per kind, in order, over the supports of mu
    and nu: the forward leg sups over mu's atom locations, the inverse
    backward leg over nu's, and the kinds share one cocycle sweep of
    :mod:`criteria`."""
    if isinstance(kinds, str):
        raise TypeError("kinds must be a sequence of criterion kinds")
    kinds = [CriterionKind(k) for k in kinds]
    if not all(_FORMULA[k][1] for k in kinds):
        raise ValueError("kind must be an adjoint criterion")
    ext = _adjoint_extremes(op, mu, nu, window, horizon)
    # atoms are never trimmed; the key keeps adjoint.jsonl's params stable
    params = {"window_radius": window.radius, "atom_trim_budget": 0.0}
    return [_kind_verdict(kind, _kind_rows(kind, ext), tol, params)
            for kind in kinds]
