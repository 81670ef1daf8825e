"""The adjoint-side criteria on finitely-atomic measures.

The adjoint of the weighted composition operator acts atom-wise:

    c * delta_x  ->  c * w(x) * delta_{alpha(x)}

which is the closed form of the defining integral on atoms; iterates pick
up the forward cocycle, and the inverse adjoint divides by the backward
cocycle.  So the adjoint criteria read only where the atoms sit: the
forward leg over the support of mu and the backward leg over that of nu,
in the cocycle sweep of :mod:`criteria`.  The measures themselves, their
atom-wise powers, the duality check and the measure approximant are test
oracles (``tests/oracles.py``).
"""

from __future__ import annotations

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
from .errors import SupportOutsideWindowError
from .operators import CompositionOperator

__all__ = [
    "adjoint_criterion",
]


def _support(points, name: str, window: CompactWindow) -> np.ndarray:
    """The sorted distinct points of a support, which must be nonempty and
    lie in the window."""
    pts = np.unique(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError(f"the support of {name} must be nonempty")
    m = window.radius
    if not np.all(np.abs(pts) <= m + 1e-12):
        raise SupportOutsideWindowError(f"{name} has atoms outside [-{m}, {m}]")
    return pts


def adjoint_criterion(kinds, op: CompositionOperator, mu_support,
                      nu_support, window: CompactWindow, horizon: int,
                      tol: float) -> list[CriterionVerdict]:
    """One adjoint-side verdict per kind, in order, for measures mu and nu
    with the given point supports: the forward leg sups over mu's atoms,
    the inverse backward leg over nu's, and the kinds share one cocycle
    sweep of :mod:`criteria`.  A support's order and repeats do not
    matter."""
    if isinstance(kinds, str):
        raise TypeError("kinds must be a sequence of criterion kinds")
    kinds = [CriterionKind(k) for k in kinds]
    if not all(_FORMULA[k][1] for k in kinds):
        raise ValueError("kind must be an adjoint criterion")
    [ext] = _leg_extremes(op, _support(mu_support, "mu", window),
                          _support(nu_support, "nu", window), horizon)
    # atoms are never trimmed; the key keeps adjoint.jsonl's params stable
    params = {"window_radius": window.radius, "atom_trim_budget": 0.0}
    return [_kind_verdict(kind, _kind_rows(kind, ext, False), tol, params)
            for kind in kinds]
