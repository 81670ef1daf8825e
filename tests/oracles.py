"""Per-n routes to the two cocycle legs, kept as independent test oracles.

``lindyn.criteria`` computes every criterion from one block sweep
(``_leg_extremes``); these functions recompute the same quantities one n at
a time from ``forward_log2``/``backward_log2``, or, in
:func:`segal_factors`, from the literal product
prod_{j=0}^{n-1} w(alpha^{j-n}(t)) of the sup-norm criteria.
"""

from __future__ import annotations

import numpy as np

from lindyn.criteria import (
    _SOLID_KINDS,
    CompactWindow,
    CriterionKind,
    _leg_extremes,
    _q_at,
    _trim_greedy,
)
from lindyn.errors import SegalIncompatibleError
from lindyn.funcspace import Grid, PiecewiseMap
from lindyn.operators import (
    CompositionOperator,
    _orbit_log2,
    backward_log2,
    forward_log2,
    segal_compatible,
)


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


def sweep_factors(op: CompositionOperator, window: CompactWindow,
                  horizon: int, *, inverse: bool = False):
    """Arrays (P_minus[n-1], P_plus[n-1]) for n = 1..horizon in O(horizon)."""
    ext, _ = _leg_extremes(op, window.points, window.points, horizon, inverse)
    return np.exp2(ext[0]), np.exp2(ext[1])


def quantity(kind: CriterionKind, op: CompositionOperator,
             window: CompactWindow, n: int, max_drop: int = 0, *,
             inverse: bool = False) -> float:
    """The scalar q(n) for one criterion kind at one n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lf = forward_log2(op, window.points, n)
    lb = backward_log2(op, window.points, n)
    if inverse:
        lf, lb = -lb, -lf
    if max_drop > 0 and kind in _SOLID_KINDS:
        keep, _ = _trim_greedy(kind, n, lf, lb, max_drop)
        lf, lb = lf[keep], lb[keep]
    return _q_at(kind, n, lf, lb)[1]
