"""Orbit probes, scaled approximation distances, and approximant sequences.

The probes are empirical counterparts of the transitivity notions: how
close does some scaled orbit point lambda * T^n f come to a target g?  The
approximants are the constructive sequences (v_k, lambda_k) whose
convergence the criteria guarantee; their contracts are checked
quantitatively by the callers.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (DegenerateApproximantError, SegalIncompatibleError,
                     ZeroVectorError)
from .funcspace import (
    GridFunction,
    L2,
    L2Norm,
    NormKind,
    PiecewiseMap,
    SUP,
    SegalNorm,
    SupNorm,
    homeo_orbit_blocks,
    linear_interpolate,
    norm,
    restrict,
)
from .operators import (
    CompositionOperator,
    _block_rows,
    _loses_mass,
    _orbit_log2_rows,
    apply_Sn,
    apply_Tn,
    scale_by_exp2,
    segal_compatible,
)

__all__ = [
    "projective_distance",
    "OrbitTrace",
    "orbit_trace",
    "operator_orbit",
    "Approximant",
    "supercyclic_approximant",
    "cesaro_approximant",
    "segal_approximant",
    "empirical_best",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn, a: float, b: float, tol: float):
    """Golden-section minimum of a unimodal function on [a, b]."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
    x = 0.5 * (a + b)
    return x, fn(x)


def _three_point_centres(ck, wk, cj, wj, cl, wl):
    """The (at most two) points at equal weighted distance from c_k, c_j
    and c_l, for arrays of pairs (c_j, c_l).

    With mu = lam - c_k, a = c_j - c_k, b = c_l - c_k and u = (w_max / w)**2,
    the differences of the circle equations |mu|**2 = R u_k,
    |mu - a|**2 = R u_j and |mu - b|**2 = R u_l are linear, so
    mu = P + R Q, and the first equation leaves a quadratic in R.
    Collinear triples (a singular linear part) and complex roots come out
    non-finite; the caller drops them.
    """
    a, b = cj - ck, cl - ck
    top = np.maximum(np.maximum(wk, wj), wl)
    uk, uj, ul = (top / wk) ** 2, (top / wj) ** 2, (top / wl) ** 2
    det2 = 2.0 * (a.real * b.imag - a.imag * b.real)
    P = -1j * (np.abs(a) ** 2 * b - np.abs(b) ** 2 * a) / det2
    Q = -1j * ((ul - uk) * a - (uj - uk) * b) / det2
    A = np.abs(Q) ** 2
    B = 2.0 * (P.real * Q.real + P.imag * Q.imag) - uk
    C = np.abs(P) ** 2
    q = -0.5 * (B + np.copysign(np.sqrt(B * B - 4.0 * A * C), B))
    return np.concatenate([ck + P + (q / A) * Q, ck + P + (C / q) * Q])


def _centre_with(c, w, active, k):
    """Minimiser of max_i w_i |lam - c_i| over ``active`` plus ``k``, given
    that ``k`` violates the optimum of ``active`` and so lies in every basis
    of the enlarged set: the candidates are c_k, the weighted midpoints of k
    with each active point, and the three-point centres of k with each
    active pair."""
    ca, wa = c[active], w[active]
    ck, wk = c[k], w[k]
    cands = [np.array([ck]), (wk * ck + wa * ca) / (wk + wa)]
    if len(active) >= 2:
        j, l = np.triu_indices(len(active), 1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            three = _three_point_centres(ck, wk, ca[j], wa[j], ca[l], wa[l])
        cands.append(three[np.isfinite(three)])
    lam = np.concatenate(cands)
    pts, wts = np.append(ca, ck), np.append(wa, wk)
    worst = (wts * np.abs(lam[:, None] - pts)).max(axis=1)
    return lam[int(np.argmin(worst))]


def _sup_projective(fv: np.ndarray, gv: np.ndarray) -> complex:
    """argmin over lam of max_i |lam f_i - g_i|, f != 0.

    Rows with f_i = 0 contribute the constant |g_i|; the others are the
    weighted Euclidean 1-centre problem max_i w_i |lam - c_i| with
    c_i = g_i / f_i and w_i = |f_i| (Megiddo 1983).  The problem is
    LP-type with bases of at most three points, so an active set grown by
    the worst violator, each time re-solved exactly among the candidates
    whose basis holds the violator, only ever raises its optimum towards
    the full one.  The loop ends when no row exceeds the active optimum by
    more than the rounding of the residuals; that O(N) pass over all rows
    is the optimality certificate.
    """
    supp = fv != 0
    c = gv[supp] / fv[supp]
    w = np.abs(fv[supp])
    slack = 16.0 * np.finfo(float).eps * float(np.abs(gv).max())
    active = [int(np.argmax(w))]
    lam = c[active[0]]
    while True:
        e = w * np.abs(lam - c)
        k = int(np.argmax(e))
        if e[k] <= e[active].max() + slack:
            return complex(lam)
        lam = _centre_with(c, w, active, k)
        active.append(k)


def projective_distance(f: GridFunction, g: GridFunction,
                        kind: NormKind = L2):
    """min over scalars lambda of ||lambda f - g|| and the minimizer.

    L2 is the closed least-squares form.  The sup norm is an exact weighted
    Euclidean 1-centre solve (see ``_sup_projective``); the returned
    distance is the sup norm of lambda f - g at the returned lambda, so it
    never exceeds ||g|| and exceeds the minimum only by rounding.  Any
    other norm (the Segal norm) is minimised by nested golden-section
    searches over Re lambda and Im lambda on the box |Re|, |Im| <= rho,
    which holds every minimiser because |lambda| ||f|| <= 2 ||g|| there;
    the objective is jointly convex in (Re, Im), so its partial minimum
    over Im is convex in Re and both searches converge to the minimum.
    """
    if f.is_zero:
        raise ZeroVectorError("projective distance needs f != 0")
    if isinstance(kind, L2Norm):
        h = f.grid.step
        ip_fg = h * np.sum(f.values * np.conj(g.values))
        nf2 = h * np.sum(np.abs(f.values) ** 2)
        ng2 = h * np.sum(np.abs(g.values) ** 2)
        lam = np.conj(ip_fg) / nf2
        d2 = ng2 - abs(ip_fg) ** 2 / nf2
        return float(math.sqrt(max(d2, 0.0))), complex(lam)
    if g.is_zero:
        return 0.0, 0j
    if isinstance(kind, SupNorm):
        lam = _sup_projective(f.values, g.values)
        d = float(np.abs(lam * f.values - g.values).max())
        g_sup = float(np.abs(g.values).max())
        # lambda = 0 is feasible; keep it when rounding at the centre is
        # no better
        if g_sup <= d:
            return g_sup, 0j
        return d, lam
    rho = 2.1 * norm(g, kind) / norm(f, kind)
    tol = 1e-14 * rho

    def dist(x: float, y: float) -> float:
        return norm(complex(x, y) * f - g, kind)

    def partial(x: float) -> float:
        return _golden_min(lambda y: dist(x, y), -rho, rho, tol)[1]

    x, _ = _golden_min(partial, -rho, rho, tol)
    y, d = _golden_min(lambda y: dist(x, y), -rho, rho, tol)
    return float(d), complex(x, y)


def operator_orbit(op: CompositionOperator, f: GridFunction, horizon: int,
                   side: str = "T") -> Iterator[tuple[int, GridFunction]]:
    """Yield (n, T^n f) (or S^n f) for n = 1..horizon, walking only the leg
    the side reads, in row blocks: the forward (T) or negated backward (S)
    rows of ``_orbit_log2_rows`` and the read positions alpha^{+-n}(t).
    Same points and Kahan order as ``CocycleSweep``, so bit-identical."""
    if side not in ("T", "S"):
        raise ValueError("side must be 'T' or 'S'")
    step = 1 if side == "T" else -1
    pts = f.grid.points
    logs = _orbit_log2_rows(op, pts, horizon, step, min(step, 0))
    walk = homeo_orbit_blocks(op.alpha, pts, horizon, _block_rows(pts.size),
                              step, step)
    rows = zip(itertools.chain.from_iterable(logs),
               itertools.chain.from_iterable(walk))
    for n, (lg, pos) in enumerate(rows, 1):
        vals = scale_by_exp2(step * lg, linear_interpolate(f, pos))
        yield n, GridFunction(f.grid, vals,
                              f.truncated or _loses_mass(f, pos))


@dataclass(frozen=True)
class BestApproach:
    target_index: int
    best_n: int
    best_distance: float


@dataclass(frozen=True)
class OrbitTrace:
    """Per-n orbit norms, their Cesaro scalings, the scaled distances to
    the first target (None without targets), whether mass has left the grid
    by n, and the closest approach to each of a list of targets."""

    norms: np.ndarray
    cesaro_norms: np.ndarray
    scaled_dists: Optional[np.ndarray]
    truncated: np.ndarray
    best: tuple[BestApproach, ...] = ()

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "norm", "cesaro_norm", "scaled_dist",
                             "truncated"])
            for i in range(len(self.norms)):
                d = "" if self.scaled_dists is None else repr(
                    float(self.scaled_dists[i]))
                writer.writerow([i + 1, repr(float(self.norms[i])),
                                 repr(float(self.cesaro_norms[i])), d,
                                 int(self.truncated[i])])


MODES = ("plain", "scaled", "cesaro")


def _scaled_distance(tf: GridFunction, g: GridFunction, kind: NormKind):
    return norm(g, kind) if tf.is_zero else projective_distance(tf, g,
                                                                kind)[0]


def orbit_trace(op: CompositionOperator, f: GridFunction, horizon: int,
                kind: NormKind = SUP, targets: Sequence[GridFunction] = (),
                mode: str = "scaled") -> OrbitTrace:
    """One walk of the orbit of f: per n the norm, its Cesaro scaling, the
    truncation flag, the scaled distance to ``targets[0]`` if any, and the
    distance to each of ``targets`` under ``mode`` (see
    :func:`empirical_best`), of which ``best`` keeps the closest.  In scaled
    mode the first target's distance is the column's."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    norms = np.empty(horizon)
    dists = np.empty(horizon) if targets else None
    trunc = np.zeros(horizon, dtype=bool)
    best = [(math.inf, 0)] * len(targets)
    for n, tf in operator_orbit(op, f, horizon):
        norms[n - 1] = norm(tf, kind)
        trunc[n - 1] = tf.truncated
        if targets:
            dists[n - 1] = col = _scaled_distance(tf, targets[0], kind)
        for i, g in enumerate(targets):
            if mode == "scaled":
                d = col if i == 0 else _scaled_distance(tf, g, kind)
            else:  # plain ||T^n f - g||, cesaro ||n^-1 T^n f - g||
                d = norm((1.0 if mode == "plain" else 1.0 / n) * tf - g, kind)
            if d < best[i][0]:
                best[i] = (d, n)
    return OrbitTrace(norms, norms / np.arange(1, horizon + 1), dists, trunc,
                      tuple(BestApproach(i, n, d)
                            for i, (d, n) in enumerate(best)))


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


def empirical_best(op: CompositionOperator, f: GridFunction,
                   targets: Sequence[GridFunction], horizon: int,
                   kind: NormKind = L2,
                   mode: str = "plain") -> list[BestApproach]:
    """Closest orbit approach to each target under the chosen scaling.

    plain:  min_n ||T^n f - g||
    scaled: min_n projective_distance(T^n f, g)
    cesaro: min_n ||n^{-1} T^n f - g||
    """
    return list(orbit_trace(op, f, horizon, kind, targets=targets,
                            mode=mode).best)


def best_table_csv(rows: Sequence[BestApproach], path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "best_n", "best_distance"])
        for r in rows:
            writer.writerow([r.target_index, r.best_n,
                             repr(float(r.best_distance))])
