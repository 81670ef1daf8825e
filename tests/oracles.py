"""Reference routes the tests compare lindyn against.

``lindyn.criteria`` computes every untrimmed criterion from one block
sweep (``_leg_extremes``), the inverse's through a row permutation of its
table (``_kind_rows``), and trims on whole blocks of a pass of its own
(``_trimmed_xy``, ``_best_removal``); the
functions here recompute the same quantities one n at a time from
:func:`forward_log2`/:func:`backward_log2`, with the trim searched by
brute force over every removal set (:func:`_trim_exact`; the greedy it
replaced, :func:`_trim_greedy`, stays as the bound it must never exceed),
or, in :func:`segal_factors`, from the literal product
prod_{j=0}^{n-1} w(alpha^{j-n}(t)) of the sup-norm criteria;
:func:`full_width_extremes` reduces every cell of both legs, where the
sweep sums a leg's constant tail only on the columns that can hold its
extremes.  The finite atomic measures (:class:`AtomicMeasure`), their atom-wise adjoint
powers, the duality check and the measure approximant restate the adjoint
side that ``lindyn.measures.adjoint_criterion`` reads off the same legs
from the supports alone.  :func:`sum2_rows_real` is the Sum2 block pass on
float64 columns, the reference for ``lindyn.operators._sum2_rows``, which
runs it on complex-paired ones.  :func:`apply_Tn`/:func:`apply_Sn` are
T^n and S^n in product form, one weight factor per step, the reference
that the block walk ``lindyn.dynamics._orbit_blocks`` (through
``operator_orbit``) is checked against; the function-side approximants
(:func:`supercyclic_approximant`, :func:`cesaro_approximant`,
:func:`segal_approximant`) are built from them, and the acceptance suite
checks their convergence against the criteria's q(n).
:func:`eager_porosity_probe` draws every inner candidate of
``lindyn.porosity.porosity_probe`` before testing the first, and
:func:`per_row_orbit_trace` walks ``lindyn.dynamics.orbit_trace`` one
``GridFunction`` per n where it reads row blocks.
:func:`per_row_expectation` runs one golden-registry row on its own sweep,
where ``lindyn.presets.run_registry`` shares one sweep across rows, and
:func:`telescoping_table` is the finite ``np.interp`` table that the
closed-form weight of ex3.8 and rem3.10 reproduces.
:func:`dict_serialiser` writes a verdict one json.dumps per record, where
``CriterionVerdict.to_jsonl`` formats each float once, and
:func:`runs_serialiser` its default summary line from that one, grouping
the record runs one n at a time; the last section holds shared test
fixtures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, islice, product

import numpy as np
import pytest

from lindyn.criteria import (
    _SOLID_KINDS,
    CompactWindow,
    CriterionKind,
    CriterionVerdict,
    _FORMULA,
    _kind_rows,
    _leg_extremes,
    evaluate,
)
from lindyn.dynamics import (
    BestApproach,
    OrbitTrace,
    operator_orbit,
    projective_distance,
)
from lindyn.errors import LindynError
from lindyn.funcspace import (
    Grid,
    GridFunction,
    L2,
    NormKind,
    PiecewiseAffineHomeo,
    PiecewiseMap,
    SUP,
    SegalNorm,
    homeo_orbit,
    homeo_power,
    linear_interpolate,
    norm,
)
from lindyn.measures import adjoint_criterion
from lindyn.operators import (
    CompositionOperator,
    _loses_mass,
    _orbit_log2_rows,
    segal_compatible,
)
from lindyn.porosity import ProbeResult, _random_perturbations
from lindyn.presets import (
    DEFAULT_GRID,
    Expectation,
    ExpectationResult,
    GoldenExample,
    build_preset,
)


class DegenerateApproximantError(LindynError):
    """A restricted input function or measure is identically zero."""


class SegalIncompatibleError(LindynError):
    """tau is not invariant under the homeomorphism within tolerance."""


def _orbit_log2(op: CompositionOperator, pts, n: int, step: int = 1,
                start: int = 0) -> np.ndarray:
    """sum_{j=0}^{n-1} log2 w(alpha^{start + j*step}(t)): the last row of
    ``_orbit_log2_rows`` (zeros when n = 0)."""
    total = np.zeros(np.shape(np.atleast_1d(pts)))
    for rows in _orbit_log2_rows(op, pts, n, step, start):
        total = rows[-1].copy()
    return total


def forward_log2(op: CompositionOperator, pts, n: int) -> np.ndarray:
    """sum_{j=0}^{n-1} log2 w(alpha^j(t)), compensated, elementwise in t."""
    return _orbit_log2(op, pts, n)


def backward_log2(op: CompositionOperator, pts, n: int) -> np.ndarray:
    """sum_{j=1}^{n} log2 w(alpha^{-j}(t)), compensated, elementwise in t."""
    return _orbit_log2(op, pts, n, -1, -1)


def sum2_rows_real(x: np.ndarray, s: np.ndarray, e: np.ndarray,
                   buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite the (rows, |t|) block ``x`` of terms with its running
    totals, continuing the carry (s, e) of the rows before it; return the
    carry after it.  Sum2 (Ogita, Rump & Oishi 2005, "Accurate sum and dot
    product"): s runs the plain sum, E = e + the running sum of its exact
    TwoSum errors, and a row is s + E.  Each pass runs down the rows in
    order, so one call on a block equals one call per row.  ``buf`` is
    scratch of (>= 2*rows + 1, |t|)."""
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
    return cur[-1].copy(), e


def cocycle(op: CompositionOperator, n: int, t: float,
            direction: str = "forward") -> float:
    """Weight product along the orbit of t.

    forward:  prod_{j=0}^{n-1} w(alpha^j(t))
    backward: prod_{j=1}^{n}   w(alpha^{-j}(t))
    """
    if n < 1:
        raise ValueError("cocycle requires n >= 1")
    if direction == "forward":
        return float(np.exp2(forward_log2(op, t, n)[0]))
    if direction == "backward":
        return float(np.exp2(backward_log2(op, t, n)[0]))
    raise ValueError(f"unknown direction {direction!r}")


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
                  tau: PiecewiseMap | None = None, eps: float | None = None,
                  grid: Grid | None = None) -> tuple[float, float]:
    """(Q_back, Q_inv) in the literal form of the sup-norm criteria.

    Q_back walks forward from alpha^{-n}(t) so the product
    prod_{j=0}^{n-1} w(alpha^{j-n}(t)) is computed as displayed, not via
    the backward-leg re-indexing; Q_inv is the inverse forward product.
    With ``tau`` the window must be a sublevel window, max |tau| <= eps on
    its points, and tau invariant under alpha on ``grid``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if tau is not None:
        if eps is None or grid is None:
            raise ValueError("eps and grid are required to check tau")
        worst = float(np.max(np.abs(tau(window.points))))
        if worst > eps + 1e-12:
            raise SegalIncompatibleError(
                f"max |tau| = {worst} exceeds the window bound {eps}")
        if not segal_compatible(op, tau, grid):
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
    [table] = _leg_extremes(op, window.points, window.points, horizon,
                            mirrored=False)
    x, y = _kind_rows(CriterionKind.SUPERCYCLIC_SOLID, table, inverse)
    return np.exp2(x), np.exp2(y)


def full_width_extremes(op: CompositionOperator, fwd_pts, bwd_pts,
                        horizon: int, inverse: bool = False,
                        slices=(slice(None),)) -> list[np.ndarray]:
    """Per slice, the four rows (-min lf, max lb, -min lb, max lf) of
    ``_leg_extremes`` from every cell of both legs: the rows of
    ``_orbit_log2_rows`` over all columns, the last of which is
    :func:`_orbit_log2`, reduced per n."""
    lf, lb = (np.concatenate(list(_orbit_log2_rows(op, pts, horizon, step,
                                                   start)))
              for pts, step, start in ((fwd_pts, 1, 0), (bwd_pts, -1, -1)))
    if inverse:
        lf, lb = -lb, -lf
    return [np.array([-lf[:, cols].min(axis=1), lb[:, cols].max(axis=1),
                      -lb[:, cols].min(axis=1), lf[:, cols].max(axis=1)])
            for cols in slices]


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
                 budget: int) -> np.ndarray:
    """The keep mask of the exceptional-set trim at one n: drop up to
    ``budget`` points, greedily removing whichever current extreme point
    lowers log2 q the most.  Never empties the window.  The greedy that
    ``criteria._best_removal`` replaced: the exact trim is never above
    it."""
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
    return keep


def _trim_exact(kind: CriterionKind, n: int, lf: np.ndarray, lb: np.ndarray,
                budget: int) -> np.ndarray:
    """The keep mask of the exceptional-set trim at one n, the reference
    for ``criteria._best_removal``.  Its log2 q is the least over every
    removal of at most c = min(budget, size - 1) points, searched by brute
    force.  The mask removes A_a | B_b, the a least lf and the b greatest
    lb (the lower index first on a tie), for the first pair (a, b) in
    lexicographic order with |A_a | B_b| <= c whose own extremes, lf at
    the (a+1)-th least and lb at the (b+1)-th greatest, reach that least
    log2 q; the mask's kept extremes reach it too."""
    size = lf.size
    c = min(budget, size - 1)
    removals = [gone for r in range(c + 1)
                for gone in combinations(range(size), r)]
    kept = np.ones((len(removals), size), dtype=bool)
    for row, gone in zip(kept, removals):
        row[list(gone)] = False
    with np.errstate(over="ignore"):
        least = _FORMULA[kind][0](n, -np.where(kept, lf, np.inf).min(axis=1),
                                  np.where(kept, lb, -np.inf).max(axis=1))[0]
    least = least.min()
    up, down = np.argsort(lf, kind="stable"), np.argsort(-lb, kind="stable")
    for a, b in product(range(c + 1), repeat=2):
        gone = sorted(set(up[:a].tolist()) | set(down[:b].tolist()))
        if (len(gone) <= c and _q_at(kind, n, lf[up[a:a + 1]],
                                     lb[down[b:b + 1]])[0] == least):
            keep = np.ones(size, dtype=bool)
            keep[gone] = False
            assert _q_at(kind, n, lf[keep], lb[keep])[0] == least
            return keep
    raise AssertionError("no prefix pair reaches the least removal")


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
        keep = _trim_exact(kind, n, lf, lb, max_drop)
        lf, lb = lf[keep], lb[keep]
    return _q_at(kind, n, lf, lb)[1]


@dataclass(frozen=True)
class ImplicationReport:
    """Check that a Cesaro pass forces a supercyclic pass.

    The product identity q_super(n) = (n * P_minus) * (P_plus / n) makes
    q_super <= q_cesaro**2 whenever both scaled factors sit below their max,
    so any verdict-level violation is a bug, not mathematics.
    """

    cesaro: CriterionVerdict
    supercyclic: CriterionVerdict
    verdict_violations: tuple[int, ...]
    qlevel_violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.verdict_violations and not self.qlevel_violations


def implication_check(op: CompositionOperator, window: CompactWindow,
                      horizon: int, tol: float) -> ImplicationReport:
    """The Cesaro-implies-supercyclic check on the solid kinds; the C0 and
    Segal kinds share their formulas and legs, so their traces agree."""
    ces, sup = evaluate((CriterionKind.CESARO_SOLID,
                         CriterionKind.SUPERCYCLIC_SOLID),
                        op, window, horizon, tol)
    qc, qs = ces.trace, sup.trace
    verdict_violations = (qc <= min(tol, 1.0)) & (qs > tol)
    qlevel_violations = (qc <= 1.0) & (qs > qc * qc + 1e-10)
    return ImplicationReport(
        ces, sup,
        tuple((np.flatnonzero(verdict_violations) + 1).tolist()),
        tuple((np.flatnonzero(qlevel_violations) + 1).tolist()))


# ---------------------------------------------------------------------------
# The adjoint side on atoms: c * delta_x -> c * w(x) * delta_{alpha(x)}


class AtomicMeasure:
    """Canonical finite atomic measure: locations strictly increasing,
    duplicates merged, zero weights dropped.  ``adjoint_criterion`` reads
    only the locations."""

    def __init__(self, atoms=()):
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


def _measure(locs, weights) -> AtomicMeasure:
    return AtomicMeasure(zip(np.asarray(locs, float).tolist(),
                             np.asarray(weights, complex).tolist()))


def combine(*terms) -> AtomicMeasure:
    """The sum of c * mu over the (c, mu) terms."""
    return AtomicMeasure((x, w) for c, mu in terms for x, w in
                         zip(mu.locations.tolist(), (mu.weights * c).tolist()))


def tv_norm(mu: AtomicMeasure) -> float:
    return float(np.sum(np.abs(mu.weights)))


def adjoint_T(op: CompositionOperator, mu: AtomicMeasure) -> AtomicMeasure:
    new_locs = homeo_power(op.alpha, mu.locations, 1)
    return _measure(new_locs, mu.weights * op.weight(mu.locations))


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
    return _measure(new_locs, mu.weights * factors)


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
    return _measure(new_locs, mu.weights * factors)


def duality_check(op: CompositionOperator, f: GridFunction,
                  mu: AtomicMeasure, tol: float = 1e-12) -> bool:
    """|<Tf, mu> - <f, T* mu>| <= tol for grid-located atoms."""
    for x in mu.locations:
        f.grid.index_of(float(x))  # raises if off-grid
    tf = apply_Tn(op, f, 1)
    lhs = complex(np.sum(mu.weights * linear_interpolate(tf, mu.locations)))
    star = adjoint_T(op, mu)
    rhs = complex(np.sum(star.weights *
                         linear_interpolate(f, star.locations)))
    return abs(lhs - rhs) <= tol


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
    eta = combine((1.0, mu), (math.sqrt(a / b), s_nu))
    lam = math.sqrt(b / a)
    return eta, lam


# ---------------------------------------------------------------------------
# T^n and S^n in product form, and the function-side approximants: v near
# f with lam T^n v near g, at a rate set by q(n)


def apply_Tn(op: CompositionOperator, f: GridFunction, n: int) -> GridFunction:
    """T^n f via one interpolation of f o alpha^n and a per-point weight fold.

    The weights are multiplied right to left, which reproduces n single
    steps bit for bit when alpha maps grid points to grid points, and
    keeps zero-support points exactly zero.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return f
    orbit = list(islice(homeo_orbit(op.alpha, f.grid.points), n + 1))
    acc = linear_interpolate(f, orbit[n])
    for j in range(n - 1, -1, -1):
        acc = op.weight(orbit[j]) * acc
    return GridFunction(f.grid, acc,
                        f.truncated or _loses_mass(f, orbit[n]))


def apply_Sn(op: CompositionOperator, f: GridFunction, n: int) -> GridFunction:
    """S^n f = (f o alpha^{-n}) / prod_{j=1}^{n} w o alpha^{-j}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return f
    orbit = list(islice(homeo_orbit(op.alpha, f.grid.points, -1), n + 1))
    acc = linear_interpolate(f, orbit[n])
    for j in range(n, 0, -1):
        acc = acc / op.weight(orbit[j])
    return GridFunction(f.grid, acc,
                        f.truncated or _loses_mass(f, orbit[n]))


def restrict(f: GridFunction, mask) -> GridFunction:
    """Multiply by the characteristic function of a set of grid indices."""
    keep = np.zeros(f.grid.size, dtype=bool)
    keep[np.asarray(list(mask) if isinstance(mask, (set, frozenset)) else mask,
                    dtype=int)] = True
    return GridFunction(f.grid, np.where(keep, f.values, 0.0), f.truncated)


@dataclass(frozen=True)
class Approximant:
    v: GridFunction
    lam: float
    n: int


def _nonzero_pair(f: GridFunction, g: GridFunction, mask):
    """f and g restricted to ``mask`` (whole when it is None), both
    nonzero."""
    if mask is not None:
        f, g = restrict(f, mask), restrict(g, mask)
    if f.is_zero or g.is_zero:
        raise DegenerateApproximantError("(restricted) f or g is zero")
    return f, g


def _ratio_approximant(op: CompositionOperator, f: GridFunction,
                       g: GridFunction, n: int, kind: NormKind) -> Approximant:
    """v = f + (||T^n f|| / ||S^n g||)^(1/2) S^n g, with the reciprocal
    square-root ratio as the scalar."""
    sg = apply_Sn(op, g, n)
    a, b = norm(apply_Tn(op, f, n), kind), norm(sg, kind)
    if a == 0 or b == 0:
        raise DegenerateApproximantError(
            "operator power lost all mass (grid truncation)"
        )
    return Approximant(f + math.sqrt(a / b) * sg, math.sqrt(b / a), n)


def supercyclic_approximant(op: CompositionOperator, f: GridFunction,
                            g: GridFunction, n: int, mask=None,
                            kind: NormKind = L2) -> Approximant:
    """v = f chi + (||T^n (f chi)|| / ||S^n (g chi)||)^(1/2) S^n (g chi),
    with the reciprocal square-root ratio as the scalar."""
    return _ratio_approximant(op, *_nonzero_pair(f, g, mask), n, kind)


def cesaro_approximant(op: CompositionOperator, f: GridFunction,
                       g: GridFunction, n: int, mask=None,
                       kind: NormKind = L2) -> Approximant:
    """Cesaro variant: the scalar is pinned to 1/n, so the corrector enters
    with the compensating factor n and no norm ratio."""
    fr, gr = _nonzero_pair(f, g, mask)
    return Approximant(fr + float(n) * apply_Sn(op, gr, n), 1.0 / n, n)


def segal_approximant(op: CompositionOperator, f: GridFunction,
                      g: GridFunction, n: int,
                      tau: PiecewiseMap) -> Approximant:
    """Weighted-algebra variant: same ratio construction, norms taken in
    the tau-weighted series norm, no restriction step."""
    if not segal_compatible(op, tau, f.grid):
        raise SegalIncompatibleError("tau is not alpha-invariant")
    return _ratio_approximant(op, *_nonzero_pair(f, g, None), n,
                              SegalNorm(tau))


# ---------------------------------------------------------------------------
# The porosity probe with every inner candidate drawn up front


def eager_porosity_probe(member, x: GridFunction, lam: float, delta: float,
                         *, budget: int, inner_budget: int,
                         seed: int) -> ProbeResult:
    """``porosity_probe`` drawing all ``inner_budget - 2`` random inner
    candidates of an outer sample before testing any of its candidates, one
    ``GridFunction`` each.  After the outer block, which both test with one
    ``member`` call, it takes the same draws from the generator whenever no
    y is a member and no candidate but the last is."""
    rng = np.random.default_rng(seed)
    grid = x.grid
    ys = [GridFunction(grid, x.values + row)
          for row in _random_perturbations(grid, delta, rng, budget)]
    hits = member(np.array([y.values for y in ys]))
    records = []
    for outer, y in enumerate(ys):
        d = norm(y - x, SUP)
        radius = lam * d
        pull_scale = 0.999 * radius / d if d > 0 else 0.0
        candidates = [y.values + pull_scale * (x.values - y.values)]
        for _ in range(inner_budget - 2):
            candidates.append(y.values + _random_perturbations(
                grid, 0.999 * radius, rng, 1)[0])
        found = bool(hits[outer]) or any(
            member(GridFunction(grid, z).values[None])[0]
            for z in candidates)
        records.append({"seed": seed, "outer": outer, "d": d,
                        "inner_hits": int(found), "y_found": not found})
        if not found:
            return ProbeResult(y, d, tuple(records))
    return ProbeResult(None, None, tuple(records))


# ---------------------------------------------------------------------------
# The orbit trace one n at a time


def per_row_orbit_trace(op: CompositionOperator, f: GridFunction,
                        horizon: int, kind: NormKind = SUP, targets=(),
                        mode: str = "scaled") -> OrbitTrace:
    """``orbit_trace`` from one ``GridFunction`` per n of
    ``operator_orbit``, with a norm, a projective distance and a strict
    record minimum per n and target."""
    def scaled(tf, g):
        return norm(g, kind) if tf.is_zero else projective_distance(
            tf, g, kind)[0]

    norms = np.empty(horizon)
    dists = np.empty(horizon) if targets else None
    trunc = np.zeros(horizon, dtype=bool)
    best = [(math.inf, 0)] * len(targets)
    for n, tf in operator_orbit(op, f, horizon):
        norms[n - 1] = norm(tf, kind)
        trunc[n - 1] = tf.truncated
        if targets:
            dists[n - 1] = col = scaled(tf, targets[0])
        for i, g in enumerate(targets):
            if mode == "scaled":
                d = col if i == 0 else scaled(tf, g)
            else:  # plain ||T^n f - g||, cesaro ||n^-1 T^n f - g||
                d = norm((1.0 if mode == "plain" else 1.0 / n) * tf - g, kind)
            if d < best[i][0]:
                best[i] = (d, n)
    return OrbitTrace(norms, norms / np.arange(1, horizon + 1), dists, trunc,
                      tuple(BestApproach(i, n, d)
                            for i, (d, n) in enumerate(best)))


# ---------------------------------------------------------------------------
# The golden registry one row at a time


def telescoping_table(depth: int) -> PiecewiseMap:
    """The weight of ex3.8 as a table: nodes (0, 1/2) and (-m, (m+1)/m) for
    m = 1..depth, affine between; the value 1/2 continues right, the last
    ratio continues left."""
    ms = np.arange(depth, 0, -1, dtype=float)
    breakpoints = np.concatenate([-ms, [0.0]])
    values = np.concatenate([(ms + 1.0) / ms, [0.5]])
    return PiecewiseMap(breakpoints, values, positive=True)


def per_row_verdict(example: GoldenExample,
                    exp: Expectation) -> CriterionVerdict:
    """The verdict of one registry row from its own operator, window and
    sweep."""
    window = CompactWindow.from_grid(DEFAULT_GRID, exp.window)
    op = build_preset(example.preset)
    if exp.check in ("ADJOINT_SUPER", "ADJOINT_CESARO"):
        [verdict] = adjoint_criterion([exp.check], op, [0.0], [0.0], window,
                                      exp.horizon, exp.tol)
        return verdict
    [verdict] = evaluate([exp.check], op, window, exp.horizon, exp.tol,
                         inverse=exp.inverse)
    return verdict


def per_row_expectation(example: GoldenExample,
                        exp: Expectation) -> ExpectationResult:
    """One registry row from its own operator, window and sweep: the
    route ``lindyn.presets.run_registry`` shares sweeps across."""
    verdict = per_row_verdict(example, exp)
    n_best, q_best = verdict.best or (0, math.inf)
    return ExpectationResult(
        example.example_id, exp.check, exp.inverse, exp.expected,
        verdict.status, n_best, q_best, verdict.status == exp.expected,
        exp.note,
    )


# ---------------------------------------------------------------------------
# Verdict files one record at a time


def dict_serialiser(v: CriterionVerdict) -> str:
    """The per-n lines and the summary line of ``v.to_jsonl(per_n=True)``,
    from one dict and one ``json.dumps`` per record; it reads the traces as
    Python floats, so non-finite values are written as "inf", "-inf" and
    "nan"."""
    def enc(x):
        return float(x) if math.isfinite(x) else repr(x)

    record_ns = {n for n, _ in v.witness}
    records = [{"kind": v.kind, "n": i, "q": enc(q), "log2_q": enc(lq),
                "record_min": i in record_ns}
               for i, (q, lq) in enumerate(zip(v.trace.tolist(),
                                               v.log2_trace.tolist()),
                                           start=1)]
    params = {"horizon": v.horizon, "tol": v.tol}
    params.update(v.params)
    best = v.best_log2_q
    records.append({"kind": v.kind, "status": v.status,
                    "witness": [[n, enc(q)] for n, q in v.witness],
                    "best_log2_q": None if best is None else enc(best),
                    "params": params})
    return "\n".join(json.dumps(r, sort_keys=True) for r in records)


def record_runs_of(ns) -> list[list[int]]:
    """[first, last] of each run of consecutive integers in the increasing
    ``ns``, grouped one n at a time."""
    runs = []
    for n in ns:
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return runs


def runs_serialiser(v: CriterionVerdict) -> str:
    """The line of ``v.to_jsonl()``: the summary line of
    :func:`dict_serialiser` with the key ``record_runs`` added and the
    witness cut to the pairs at the run ends."""
    summary = json.loads(dict_serialiser(v).split("\n")[-1])
    runs = record_runs_of(n for n, _ in summary["witness"])
    ends = {n for run in runs for n in run}
    summary["witness"] = [[n, q] for n, q in summary["witness"] if n in ends]
    summary["record_runs"] = runs
    return json.dumps(summary, sort_keys=True)


# ---------------------------------------------------------------------------
# Fixtures


def read_tables(tables, inverse: bool) -> list[np.ndarray]:
    """Each table of ``criteria._leg_extremes`` read through
    ``criteria._kind_rows``: T's rows as they are, and for the inverse S
    its two (x, y) pairs each reversed."""
    pairs = (CriterionKind.SUPERCYCLIC_SOLID, CriterionKind.ADJOINT_SUPER)
    return [np.concatenate([_kind_rows(kind, table, inverse)
                            for kind in pairs[:len(table) // 2]])
            for table in tables]


def value_at(f: GridFunction, t: float) -> complex:
    """f's value at the grid point t."""
    return complex(f.values[f.grid.index_of(t)])


def shifted(w: PiecewiseMap, c: float) -> PiecewiseMap:
    """The map t -> w(t - c); breakpoints move by +c."""
    return PiecewiseMap(w.breakpoints + c, w.values, w.left_slope,
                        w.right_slope, w.positive)


def identity_homeo() -> PiecewiseAffineHomeo:
    return PiecewiseAffineHomeo(PiecewiseMap([0.0], [0.0], 1.0, 1.0))


def rectangular_bump(grid: Grid, lo: float, hi: float,
                     height: complex = 1.0) -> GridFunction:
    """Indicator-like block: ``height`` on grid points in [lo, hi], else 0."""
    t = grid.points
    vals = np.where((t >= lo) & (t <= hi), height, 0.0)
    return GridFunction(grid, vals)


# Point sets the block-seam tests sweep: the lattice pads an odd width to
# an even one, and {0} is the one-point window of rem3.10's rows.
SEAM_POINTS = {
    "odd-9": Grid(2.0, 0.5).points,
    "even-10": np.linspace(-2.25, 2.25, 10),
    "single-0": np.array([0.0]),
}


def seam_cases(names) -> list:
    """(name, point set) parameters over ``names`` and ``SEAM_POINTS``; the
    9-point set, the first one swept, keeps the bare name as its id."""
    return [pytest.param(name, points,
                         id=name if points == "odd-9" else f"{name}-{points}")
            for name in names for points in SEAM_POINTS]
