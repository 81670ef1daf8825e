"""Named operator presets and the golden-verdict registry.

Each preset is a concrete translation/weight pair whose criterion verdicts
are known in closed form (the weight products telescope or stabilize), so
the registry rows double as end-to-end oracles.  Expected statuses are
finite-horizon statements; entries whose quantity decays only like C/n
carry a documented coarser tolerance at the same horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import (
    NOT_SATISFIED,
    SATISFIED,
    CompactWindow,
    CriterionKind,
    evaluate,
    wedge_condition,
)
from .funcspace import Grid, PiecewiseMap, Translation
from .measures import AtomicMeasure, adjoint_criterion
from .operators import CompositionOperator

__all__ = [
    "build_preset",
    "preset_names",
    "Expectation",
    "GoldenExample",
    "REGISTRY",
    "ExpectationResult",
    "run_expectation",
    "run_example",
    "telescoping_depth",
    "TELESCOPING_PRESETS",
    "DEFAULT_GRID",
]

DEFAULT_GRID = Grid(64.0, 0.25)


def _bridge_weight(left: float, right: float) -> PiecewiseMap:
    """Constant ``left`` for t <= -1, constant ``right`` for t >= 1, affine
    on [-1, 1]."""
    return PiecewiseMap([-1.0, 1.0], [left, right], positive=True)


def _telescoping_weight(depth: int) -> PiecewiseMap:
    """Nodes (0, 1/2) and (-m, (m+1)/m) for m = 1..depth, affine between;
    the value 1/2 continues right, the last ratio continues left."""
    ms = np.arange(depth, 0, -1, dtype=float)
    breakpoints = np.concatenate([-ms, [0.0]])
    values = np.concatenate([(ms + 1.0) / ms, [0.5]])
    return PiecewiseMap(breakpoints, values, positive=True)


# presets whose weight is the telescoping weight, sized by ``depth``
TELESCOPING_PRESETS = ("ex3.8", "rem3.10")


def telescoping_depth(horizon: int, m: float) -> int:
    """Depth of a telescoping preset's weight for a sweep of ``horizon``
    steps from the window [-m, m]: the deepest orbit point visited, plus a
    margin of 8."""
    return horizon + math.ceil(m) + 8


def build_preset(name: str, *, depth: int | None = None):
    """Instantiate a named preset operator.

    ``depth`` sizes the weight of the :data:`TELESCOPING_PRESETS`; it must
    cover the deepest orbit point visited, see :func:`telescoping_depth`.
    """
    if name == "ex3.5":
        return CompositionOperator(Translation(-1.0), _bridge_weight(2.0, 1.0))
    if name == "ex3.6":
        return CompositionOperator(Translation(1.0), _bridge_weight(0.5, 1.0))
    if name == "ex3.7":
        # pinned M = 4, delta = 1: smallest integers with M >= 2 + 2*delta
        # and delta >= 1; bridge value at 0 is M + (0+1)/2 * (1+delta-M) = 3
        return CompositionOperator(Translation(-1.0), _bridge_weight(4.0, 2.0))
    if name == "ex3.8":
        return CompositionOperator(Translation(-1.0),
                                   _telescoping_weight(depth or 2100))
    if name == "rem3.10":
        # the forward shift e_j -> w_j e_{j+1} on the counting measure of
        # the integers is f -> w(t-1) f(t-1), with w the telescoping weight
        return CompositionOperator(Translation(-1.0),
                                   _telescoping_weight(depth or 2100)
                                   .shifted(1.0))
    if name == "ex4.3a":
        return CompositionOperator(Translation(1.0), _bridge_weight(2.0, 1.0))
    if name == "ex4.3b":
        return CompositionOperator(Translation(-1.0), _bridge_weight(0.5, 1.0))
    raise KeyError(f"unknown preset {name!r}")


def preset_names() -> tuple[str, ...]:
    return ("ex3.5", "ex3.6", "ex3.7", "ex3.8", "rem3.10", "ex4.3a", "ex4.3b")


@dataclass(frozen=True)
class Expectation:
    """One (check, expected status) row with its pinned parameters."""

    check: str
    expected: str
    window: float = 2.0
    horizon: int = 200
    tol: float = 1e-6
    inverse: bool = False
    note: str = ""


@dataclass(frozen=True)
class GoldenExample:
    example_id: str
    preset: str
    expectations: tuple[Expectation, ...]
    note: str = ""


SAT = SATISFIED
NOT = NOT_SATISFIED

REGISTRY: dict[str, GoldenExample] = {
    "ex3.5": GoldenExample(
        "ex3.5", "ex3.5",
        (
            Expectation("SUPERCYCLIC_SOLID", SAT, window=2.0,
                        note="inverse forward products decay like 2^-n while "
                             "backward products stay bounded"),
            Expectation("SUPERCYCLIC_C0", SAT, window=2.0),
            Expectation("CESARO_SOLID", SAT, window=1.0, tol=1e-2,
                        note="backward products are bounded (by 1.5 on this "
                             "window), so the scaled quantity is C/n; at "
                             "horizon 200 that reaches 7.5e-3, hence tol "
                             "1e-2"),
            Expectation("CESARO_C0", SAT, window=1.0, tol=1e-2),
        ),
        note="translation t-1 with weight 2 left of -1 and 1 right of 1; "
             "forward orbits pile up doubling factors",
    ),
    "ex3.6": GoldenExample(
        "ex3.6", "ex3.6",
        (
            Expectation("SUPERCYCLIC_SOLID", SAT, window=2.0),
            Expectation("SUPERCYCLIC_C0", SAT, window=2.0),
            Expectation("CESARO_SOLID", NOT, window=1.0, tol=1e-2,
                        note="the inverse forward product is constant 8/3 on "
                             "this window, so n times it diverges"),
            Expectation("CESARO_C0", NOT, window=1.0, tol=1e-2),
            Expectation("CESARO_SOLID", SAT, window=1.0, tol=2e-2,
                        inverse=True,
                        note="for the inverse operator the roles swap and "
                             "the scaled quantity is (8/3)/n; 1.33e-2 at "
                             "horizon 200, hence tol 2e-2"),
            Expectation("CESARO_C0", SAT, window=1.0, tol=2e-2, inverse=True),
        ),
        note="translation t+1 with weight 1/2 left of -1 and 1 right of 1; "
             "supercyclic but only the inverse is Cesaro-transitive",
    ),
    "ex3.7": GoldenExample(
        "ex3.7", "ex3.7",
        (
            Expectation("SUPERCYCLIC_SOLID", SAT, window=2.0,
                        note="products grow like 4^n forward and 2^n "
                             "backward, so the supercyclic quantity decays "
                             "like 2^-n"),
            Expectation("SUPERCYCLIC_SOLID", SAT, window=2.0, inverse=True),
            Expectation("CESARO_SOLID", NOT, window=2.0, tol=1e-2),
            Expectation("CESARO_SOLID", NOT, window=2.0, tol=1e-2,
                        inverse=True,
                        note="one scaled factor diverges for T and the other "
                             "for its inverse: neither is Cesaro-transitive"),
        ),
        note="translation t-1 with weight 4 left, 2 right (levels pinned by "
             "the smallest admissible integer parameters)",
    ),
    "ex3.8": GoldenExample(
        "ex3.8", "ex3.8",
        (
            Expectation("SUPERCYCLIC_SOLID", SAT, window=2.0),
            Expectation("HYPERCYCLIC_SOLID", SAT, window=2.0, horizon=2000,
                        tol=1e-2,
                        note="the inverse forward product telescopes to "
                             "about 8/n on this window: O(1/n) decay needs "
                             "the documented relaxed tol and horizon 2000"),
            Expectation("CESARO_SOLID", NOT, window=2.0, horizon=500,
                        note="n times the telescoping inverse product is "
                             "pinned near 2 for every n"),
        ),
        note="translation t-1 with weight 1/2 on t >= 0 and the ratio "
             "(m+1)/m at the negative integers (linear between): both "
             "orbit-product legs vanish separately, but only at rate 1/n",
    ),
    "rem3.10": GoldenExample(
        "rem3.10", "rem3.10",
        (
            Expectation("HYPERCYCLIC_SOLID", SAT, window=0.0, tol=1e-2,
                        note="at 0 the backward product is 2^-n and the "
                             "inverse forward product 1/(n+1): both vanish, "
                             "the slower at rate 1/n, hence tol 1e-2"),
            Expectation("CESARO_SOLID", NOT, window=0.0, tol=1e-2,
                        note="n times the inverse forward product is "
                             "n/(n+1), bounded below by 1/2"),
        ),
        note="bilateral forward shift with weights (j+1)/j at negative "
             "indices and 1/2 at nonnegative ones, as the composition "
             "operator f -> w(t-1) f(t-1) on the window {0}",
    ),
    "ex4.3a": GoldenExample(
        "ex4.3a", "ex4.3a",
        (
            Expectation("ADJOINT_CESARO", SAT, window=1.0, tol=1e-2,
                        note="forward products freeze at 1.5 once the orbit "
                             "passes the bridge, so the scaled quantity is "
                             "1.5/n; 7.5e-3 at horizon 200"),
            Expectation("ADJOINT_SUPER", SAT, window=1.0),
        ),
        note="adjoint instance: translation t+1 with weight 2 left of -1, "
             "1 right of 1, point mass at 0",
    ),
    "ex4.3b": GoldenExample(
        "ex4.3b", "ex4.3b",
        (
            Expectation("ADJOINT_SUPER", SAT, window=1.0),
            Expectation("ADJOINT_CESARO", NOT, window=1.0, tol=1e-2,
                        note="the backward leg is identically 1, so n times "
                             "it diverges"),
        ),
        note="adjoint instance: translation t-1 with weight 1/2 left of -1, "
             "1 right of 1, point mass at 0",
    ),
    "ex3.12-condition": GoldenExample(
        "ex3.12-condition", "ex3.6",
        (
            Expectation("WEDGE", SAT, window=2.0,
                        note="scalar condition for supercyclicity of the "
                             "induced conjugation/wedge operators on compact "
                             "operators, evaluated on the supercyclic "
                             "bridge-weight instance"),
        ),
        note="the product of the two orbit-product sups over [-m, m] "
             "vanishes; only the scalar condition is modeled",
    ),
}


@dataclass(frozen=True)
class ExpectationResult:
    example_id: str
    check: str
    inverse: bool
    expected: str
    actual: str
    best_n: int
    best_q: float
    passed: bool
    note: str = ""


def run_expectation(example: GoldenExample, exp: Expectation,
                    grid: Grid | None = None) -> ExpectationResult:
    grid = grid or DEFAULT_GRID
    window = CompactWindow.from_grid(grid, exp.window)
    if exp.check == "WEDGE":
        op = build_preset(example.preset)
        verdict = wedge_condition(op, window, exp.horizon, exp.tol)
    elif exp.check in ("ADJOINT_SUPER", "ADJOINT_CESARO"):
        op = build_preset(example.preset)
        mu = AtomicMeasure.delta(0.0)
        verdict = adjoint_criterion(CriterionKind(exp.check), op, mu, mu,
                                    window, exp.horizon, exp.tol)
    else:
        op = build_preset(example.preset,
                          depth=telescoping_depth(exp.horizon, exp.window))
        [verdict] = evaluate([exp.check], op, window, exp.horizon, exp.tol,
                             inverse=exp.inverse)
    n_best, q_best = verdict.best or (0, math.inf)
    return ExpectationResult(
        example.example_id, exp.check, exp.inverse, exp.expected,
        verdict.status, n_best, q_best, verdict.status == exp.expected,
        exp.note,
    )


def run_example(example_id: str,
                grid: Grid | None = None) -> list[ExpectationResult]:
    example = REGISTRY[example_id]
    return [run_expectation(example, exp, grid)
            for exp in example.expectations]
