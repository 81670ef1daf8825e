"""Orbit probes and scaled approximation distances.

The probes are empirical counterparts of the transitivity notions: how
close does some scaled orbit point lambda * T^n f come to a target g?
Every orbit here is one block walk, :func:`_orbit_blocks`.  The
constructive approximant sequences (v_k, lambda_k) whose convergence the
criteria guarantee, and the product-form powers they are built from, are
test oracles in ``tests/oracles.py``, checked against this walk.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import LindynError, ZeroVectorError
from .funcspace import (
    GridFunction,
    L2,
    L2Norm,
    NormKind,
    SUP,
    SupNorm,
    Translation,
    _square_scale,
    exit_time,
    homeo_orbit_blocks,
    linear_interpolate,
    norm,
    row_norms,
)
from .operators import (
    CompositionOperator,
    _Lattice,
    _block_rows,
    _loses_mass,
    _orbit_log2_rows,
    scale_by_exp2,
)

__all__ = [
    "projective_distance",
    "OrbitTrace",
    "orbit_trace",
    "operator_orbit",
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
        # the pairs j < l in the order of np.triu_indices, at a fifth of
        # its cost
        r = np.arange(len(active))
        j, l = np.nonzero(r[:, None] < r)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            three = _three_point_centres(ck, wk, ca[j], wa[j], ca[l], wa[l])
        cands.append(three[np.isfinite(three)])
    lam = np.concatenate(cands)
    pts, wts = np.append(ca, ck), np.append(wa, wk)
    worst = (wts * np.abs(lam[:, None] - pts)).max(axis=1)
    return lam[int(np.argmin(worst))]


def _sup_projective(fv: np.ndarray, gv: np.ndarray, slack: float) -> complex:
    """argmin over lam of max_i |lam f_i - g_i|, f != 0, up to ``slack``,
    16 ulps of max |g_i|.

    Rows with f_i = 0 contribute the constant |g_i|; the others are the
    weighted Euclidean 1-centre problem max_i w_i |lam - c_i| with
    c_i = g_i / f_i and w_i = |f_i| (Megiddo 1983).  The problem is
    LP-type with bases of at most three points, so an active set grown by
    the worst violator, each time re-solved exactly among the candidates
    whose basis holds the violator, only ever raises its optimum towards
    the full one.  The loop ends when no row exceeds the active optimum by
    more than the rounding of the residuals; that O(N) pass over all rows
    is the optimality certificate.  A violator is never active already,
    so that takes at most one round per row.  A row whose c_i leaves the
    float range (g_i / f_i overflows) is left out like an f_i = 0 row:
    the caller's pass over every row counts its term, and the rounds stay
    bounded by the rows left, whatever the non-finite arithmetic of
    extreme values makes of the residuals.
    """
    supp = fv != 0
    c = gv[supp] / fv[supp]
    ok = np.isfinite(c)
    if not ok.all():
        supp[supp] = ok
        c = c[ok]
    if not c.size:
        return 0j
    w = np.abs(fv[supp])
    active = [int(np.argmax(w))]
    lam = c[active[0]]
    for _ in range(c.size):
        e = w * np.abs(lam - c)
        k = int(np.argmax(e))
        if e[k] <= e[active].max() + slack:
            break
        lam = _centre_with(c, w, active, k)
        active.append(k)
    return complex(lam)


def _l2_projective(rows: np.ndarray, gv: np.ndarray, step: float):
    """The L2 projective distance of each nonzero row f of a value block to
    the values gv, and its minimiser: the closed least-squares form
    lam = <g, f> / ||f||**2, d**2 = ||g||**2 - |<f, g>|**2 / ||f||**2, on
    f and g divided by their _square_scale: d scales with g, lam with
    g / f."""
    sf = _square_scale(np.abs(rows).max(axis=1))[:, None]
    sg = _square_scale(np.abs(gv).max())
    rows = np.where(sf == 1.0, rows, rows / sf)
    gv = gv if sg == 1.0 else gv / sg
    ip = step * np.sum(rows * np.conj(gv), axis=1)
    nf2 = step * np.sum(np.abs(rows) ** 2, axis=1)
    ng2 = step * np.sum(np.abs(gv) ** 2)
    # a scalar abs per row: np.abs on a complex128 array can round |ip|
    # differently
    ip2 = np.array([abs(z) ** 2 for z in ip])
    with np.errstate(over="ignore"):  # a lam past the float range is inf
        lam = np.conj(ip) / nf2 * (sg / sf[:, 0])
    return sg * np.sqrt(np.maximum(ng2 - ip2 / nf2, 0.0)), lam


def _sup_distances(rows: np.ndarray, gv: np.ndarray, g_sup: float):
    """The sup-norm projective distance of each row of a value block, each
    row nonzero, to the values gv, g_sup = max |gv|, and its minimiser
    (see :func:`projective_distance`): one solve per row, then one pass
    over the block for the distances |lam f - g|.  Where that is not
    below g_sup, lambda = 0, which is feasible, is kept: rounding at the
    centre is no better there."""
    if g_sup == 0:
        return np.zeros(len(rows)), np.zeros(len(rows), dtype=complex)
    slack = 16.0 * np.finfo(float).eps * g_sup
    # the extreme values of an overflowing g_i / f_i make inf and NaN
    # residuals; a NaN distance is not below g_sup
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.array([_sup_projective(f, gv, slack) for f in rows])
        d = np.abs(lam[:, None] * rows - gv).max(axis=1)
    near = d < g_sup
    return np.where(near, d, g_sup), np.where(near, lam, 0j)


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
        d, lam = _l2_projective(f.values[None], g.values, f.grid.step)
        return float(d[0]), complex(lam[0])
    if isinstance(kind, SupNorm):
        d, lam = _sup_distances(f.values[None], g.values, norm(g, SUP))
        return float(d[0]), complex(lam[0])
    if g.is_zero:
        return 0.0, 0j
    rho = 2.1 * norm(g, kind) / norm(f, kind)
    tol = 1e-14 * rho

    def dist(x: float, y: float) -> float:
        return norm(complex(x, y) * f - g, kind)

    def partial(x: float) -> float:
        return _golden_min(lambda y: dist(x, y), -rho, rho, tol)[1]

    x, _ = _golden_min(partial, -rho, rho, tol)
    y, d = _golden_min(lambda y: dist(x, y), -rho, rho, tol)
    return float(d), complex(x, y)


def _orbit_blocks(op: CompositionOperator, f: GridFunction, horizon: int,
                  side: str = "T") -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield T^n f (or S^n f) for n = 1..horizon as row blocks of values,
    each with its per-row truncation flags, walking only the leg the side
    reads: the forward (T) or negated backward (S) rows of
    ``_orbit_log2_rows`` and the reads of f at alpha^{+-n}(t), both in
    blocks of ``_block_rows`` rows.  Same points and Sum2 sums as
    ``CocycleSweep``, so bit-identical.  A row whose values leave the
    float range raises LindynError naming its n and side.

    Row n reads f at alpha^{+-n}(t), so from the exit time of the grid's
    walk from the hull of f's support on (:func:`exit_time`), every row
    is 0 and has lost all of f's mass: those rows are yielded as zeros
    with their flags set, without the walk, the logs or the
    interpolation.

    A translation walks only the columns that can read f where it is
    nonzero (:func:`_live_columns`); the others hold 0, with no logs and
    no reads.  The live columns read f once per distinct orbit point,
    through the walk's :class:`_Lattice` table where it has one for the
    block, which the log leg reads too, and each row's flag comes from
    the row's two end points: the grid's least and greatest points
    moved by the row's k*shift.  Other maps walk every column and take
    the flags from the position blocks (:func:`_loses_mass`)."""
    if side not in ("T", "S"):
        raise ValueError("side must be 'T' or 'S'")
    step = 1 if side == "T" else -1
    pts = f.grid.points
    rows = _block_rows(pts.size)
    nonzero = np.flatnonzero(f.values)
    walked = 0
    if nonzero.size:
        # f's interpolant vanishes at and beyond the grid neighbours of its
        # outermost nonzero points
        lo = (pts[nonzero[0] - 1] if nonzero[0]
              else pts[0] - f.grid.step)
        hi = (pts[nonzero[-1] + 1] if nonzero[-1] + 1 < pts.size
              else pts[-1] + f.grid.step)
        crossing = exit_time(op.alpha, pts, (lo, hi), horizon, step, step)
        walked = horizon if crossing is None else crossing[0]
    shift = op.alpha.shift if isinstance(op.alpha, Translation) else None
    cols, lattice, walk = slice(None), None, None
    if shift is None:
        walk = homeo_orbit_blocks(op.alpha, pts, walked, rows, step, step)
    elif walked:
        cols = _live_columns(pts, step * shift, walked, lo, hi)
        lattice = _Lattice.of(op.alpha, pts[cols], walked)
    live = pts[cols]
    logs = (_orbit_log2_rows(op, live, walked, step, min(step, 0), rows,
                             lattice) if live.size else None)
    for n0 in range(0, walked, rows):
        r = min(rows, walked - n0)
        if walk is not None:
            pos = next(walk)
        if live.size:
            seed = np.empty((r, live.size), dtype=complex)
            if lattice is None or not lattice.read(
                    lambda x: linear_interpolate(f, x), step * (n0 + 1),
                    step, seed):
                if walk is None:
                    [pos] = homeo_orbit_blocks(op.alpha, live, r, r, step,
                                               step * (n0 + 1))
                seed = linear_interpolate(f, pos)
            with np.errstate(over="ignore", invalid="ignore"):  # below
                out = scale_by_exp2(step * next(logs), seed)
            finite = np.isfinite(out).all(axis=1)
            if not finite.all():
                n = n0 + 1 + int(np.argmin(finite))
                raise LindynError(f"the orbit overflows at n = {n} on side "
                                  f"{side}: {side}^n f has values beyond "
                                  f"the float range")
        if walk is not None:
            vals = out
            lost = f.truncated | _loses_mass(f, pos)
        else:
            vals = np.zeros((r, pts.size), dtype=complex)
            if live.size:
                vals[:, cols] = out
            # the float t + k*shift is monotone in t, so a row's least and
            # greatest reads are those of the grid's ends
            ks = step * np.arange(n0 + 1, n0 + r + 1)
            ends = pts[[0, -1]] + ks[:, None] * shift
            lost = (f.truncated | (pts[nonzero[0]] < ends[:, 0])
                    | (pts[nonzero[-1]] > ends[:, 1]))
        yield vals, lost
    if walked < horizon:
        zeros = np.zeros((min(rows, horizon - walked), pts.size),
                         dtype=complex)
        lost = np.full(len(zeros), f.truncated or bool(nonzero.size))
        for a in (zeros, lost):
            a.setflags(write=False)
        for k0 in range(walked, horizon, rows):
            r = min(rows, horizon - k0)
            yield zeros[:r], lost[:r]


def _live_columns(pts: np.ndarray, shift: float, walked: int, lo: float,
                  hi: float) -> slice:
    """The columns t of a translation walk over the sorted ``pts`` whose
    reads t + k*shift, k = 1..``walked``, may enter the open interval
    (``lo``, ``hi``), where f is nonzero: those whose first and last reads
    do not both lie at or below lo, nor both at or above hi.  The float
    t + k*shift is monotone in k and in t, so every read of a column lies
    between its first and its last, and the live columns are one run."""
    low, high = pts + shift, pts + walked * shift
    if shift < 0:
        low, high = high, low
    return slice(int(np.searchsorted(high, lo, "right")),
                 int(np.searchsorted(low, hi, "left")))


def operator_orbit(op: CompositionOperator, f: GridFunction, horizon: int,
                   side: str = "T") -> Iterator[tuple[int, GridFunction]]:
    """Yield (n, T^n f) (or S^n f) for n = 1..horizon: the rows of
    :func:`_orbit_blocks` as grid functions."""
    n = 0
    for vals, lost in _orbit_blocks(op, f, horizon, side):
        for row, trunc in zip(vals, lost):
            n += 1
            yield n, GridFunction(f.grid, row, trunc)


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
        """The rows as ``csv.writer`` writes them: floats as their repr,
        CRLF line ends, and no field that needs quoting."""
        n = len(self.norms)
        dists = ([""] * n if self.scaled_dists is None
                 else _reprs(self.scaled_dists))
        cols = (map(str, range(1, n + 1)), _reprs(self.norms),
                _reprs(self.cesaro_norms), dists,
                map(("0", "1").__getitem__, self.truncated.tolist()))
        with open(path, "w", newline="") as fh:
            fh.write("n,norm,cesaro_norm,scaled_dist,truncated\r\n")
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cols)]))


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each float of an array, formatting each distinct one (by
    its bits, so -0.0 apart from 0.0) once: past its exit time an orbit's
    columns repeat one value."""
    texts: dict = {}
    return [texts[b] if b in texts else texts.setdefault(b, repr(x))
            for b, x in zip(values.view(np.int64).tolist(), values.tolist())]


MODES = ("plain", "scaled", "cesaro")


def _scaled_distances(rows: np.ndarray, zero: np.ndarray, g: GridFunction,
                      g_norm: float, kind: NormKind, grid) -> np.ndarray:
    """projective_distance(row, g, kind)[0] for each row of a block, and
    ``g_norm``, norm(g, kind), at the rows flagged ``zero``.  L2 is the
    closed form on the whole block, the sup solves run per row with their
    distances taken on the block, and the Segal searches run per row."""
    out = np.full(len(rows), g_norm)
    live = np.flatnonzero(~zero)
    if not live.size:
        return out
    if isinstance(kind, L2Norm):
        out[live] = _l2_projective(rows[live], g.values, grid.step)[0]
    elif isinstance(kind, SupNorm):
        out[live] = _sup_distances(rows[live], g.values, g_norm)[0]
    else:
        out[live] = [projective_distance(GridFunction(grid, rows[i]), g,
                                         kind)[0] for i in live]
    return out


def orbit_trace(op: CompositionOperator, f: GridFunction, horizon: int,
                kind: NormKind = SUP, targets: Sequence[GridFunction] = (),
                mode: str = "scaled") -> OrbitTrace:
    """One walk of the orbit of f, in row blocks: per n the norm, its
    Cesaro scaling, the truncation flag, the scaled distance to
    ``targets[0]`` if any, and the distance to each of ``targets`` under
    ``mode`` (see :func:`empirical_best`), of which ``best`` keeps the
    closest, at the first n that reaches it.  In scaled mode the first
    target's distance is the column's."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    grid = f.grid
    norms = np.empty(horizon)
    dists = np.empty(horizon) if targets else None
    trunc = np.empty(horizon, dtype=bool)
    best = [(math.inf, 0)] * len(targets)
    # each target's norm, its scaled distance from a zero row, once
    g_norms = [norm(g, kind) for g in targets]
    n0 = 0
    for vals, lost in _orbit_blocks(op, f, horizon):
        ns = slice(n0, n0 + len(vals))
        zero = ~vals.any(axis=1)
        # every norm of a zero row is 0, as row_norms gives it
        norms[ns] = 0.0 if zero.all() else row_norms(vals, kind, grid)
        trunc[ns] = lost
        if targets:
            dists[ns] = col = _scaled_distances(vals, zero, targets[0],
                                                g_norms[0], kind, grid)
        for i, g in enumerate(targets):
            if mode == "scaled":
                d = col if i == 0 else _scaled_distances(vals, zero, g,
                                                         g_norms[i], kind,
                                                         grid)
            else:  # plain ||T^n f - g||, cesaro ||n^-1 T^n f - g||
                c = (1.0 if mode == "plain"
                     else 1.0 / np.arange(ns.start + 1, ns.stop + 1)[:, None])
                d = row_norms(c * vals - g.values, kind, grid)
            k = int(np.argmin(d))
            if d[k] < best[i][0]:
                best[i] = (float(d[k]), n0 + k + 1)
        n0 += len(vals)
    return OrbitTrace(norms, norms / np.arange(1, horizon + 1), dists, trunc,
                      tuple(BestApproach(i, n, d)
                            for i, (d, n) in enumerate(best)))


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
