"""Non-porosity toolkit: lower-envelope sets, refilling constructions, and
an evidence-grade porosity probe.

Gamma_g is the set of functions whose moduli dominate a fixed nonnegative
profile g at every integer.  The constructions below rebuild, inside any
ball that meets Gamma_g, a smaller envelope set Gamma_h together with
explicit members: the envelope h, the lifted member script-E, and the
ball-refilling correction gamma.  Each construction asserts the
inequalities it is supposed to satisfy instead of assuming them.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    GridMismatchError,
    NoValidNError,
    PreconditionViolatedError,
)
from .funcspace import Grid, GridFunction, SUP, homeo_power, norm
from .operators import CompositionOperator, _orbit_log2_rows
from .dynamics import operator_orbit

__all__ = [
    "PorosityParams",
    "GammaSet",
    "gamma_membership",
    "choose_N",
    "build_h",
    "build_script_E",
    "build_gamma",
    "phase_interpolant",
    "ProbeResult",
    "porosity_probe",
    "corollary_g",
    "corollary_check",
    "PorosityScene",
    "random_scene",
]

_CONTRACT_TOL = 1e-12


@dataclass(frozen=True)
class PorosityParams:
    """Scale parameters of one refilling scene.

    lam is the porosity ratio in (0, 1/2], beta the strictly smaller
    envelope ratio, delta the integer-level lift (below r/100), r the
    working radius inside the ball of radius r_tilde.
    """

    lam: float
    beta: float
    delta: float
    r_tilde: float
    r: float

    def __post_init__(self):
        if not (0 < self.lam <= 0.5):
            raise ValueError("lam must lie in (0, 1/2]")
        if not (0 < self.beta < self.lam):
            raise ValueError("beta must lie in (0, lam)")
        if not (0 < self.r <= self.r_tilde):
            raise ValueError("r must lie in (0, r_tilde]")
        if not (0 < self.delta < self.r / 100):
            raise ValueError("delta must lie in (0, r/100)")


class GammaSet:
    """Envelope set {f : |f(m)| >= g(m) at every integer grid point}."""

    def __init__(self, g: GridFunction):
        idx = g.grid.integer_indices
        vals = g.values[idx]
        if np.any(vals.imag != 0) or np.any(vals.real < 0):
            raise ValueError("profile must be real and nonnegative at integers")
        self.g = g

    @property
    def grid(self) -> Grid:
        return self.g.grid

    def profile_at_integers(self) -> np.ndarray:
        return self.g.values[self.grid.integer_indices].real

    def __contains__(self, f: GridFunction) -> bool:
        return gamma_membership(f, self)


def gamma_membership(f: GridFunction, gamma: GammaSet) -> bool:
    """Modulus domination at every integer grid point, non-strict."""
    if f.grid != gamma.grid:
        raise GridMismatchError("function and profile grids differ")
    idx = f.grid.integer_indices
    return bool(np.all(np.abs(f.values[idx]) >= gamma.profile_at_integers()))


def choose_N(f: GridFunction, k: GridFunction, g: GridFunction, beta: float,
             r: float) -> int:
    """Smallest integer N >= 1 with |k|, |f|, g/beta all below r/6 at every
    grid point with |t| >= N."""
    grid = f.grid
    if k.grid != grid or g.grid != grid:
        raise GridMismatchError("scene functions live on different grids")
    t = grid.points
    bound = np.maximum(np.abs(k.values),
                       np.maximum(np.abs(f.values), g.values.real / beta))
    top = int(math.floor(grid.half_width))
    for n in range(1, top):
        if np.all(bound[np.abs(t) >= n] < r / 6):
            return n
    raise NoValidNError(
        "no cut N satisfies the r/6 smallness inside the grid"
    )


def _region_masks(grid: Grid, n_cut: int):
    t = grid.points
    inner = np.abs(t) <= n_cut
    outer = np.abs(t) >= n_cut + 1
    bridge_left = (t > -n_cut - 1) & (t < -n_cut)
    bridge_right = (t > n_cut) & (t < n_cut + 1)
    return t, inner, outer, bridge_left, bridge_right


def build_h(g: GridFunction, n_cut: int, delta: float,
            beta: float) -> GridFunction:
    """Envelope lift: g + delta inside [-N, N], g/beta beyond [-N-1, N+1],
    affine bridges between; dominates g at every integer."""
    if delta <= 0 or not (0 < beta < 1) or n_cut < 1:
        raise ValueError("need delta > 0, beta in (0,1), N >= 1")
    grid = g.grid
    t, inner, outer, bl, br = _region_masks(grid, n_cut)
    gv = g.values.real
    g_at = lambda m: g.values[grid.index_of(m)].real
    h = np.zeros(grid.size)
    h[inner] = gv[inner] + delta
    h[outer] = gv[outer] / beta
    left_lo = g_at(-n_cut - 1) / beta
    h[bl] = left_lo + (t[bl] + n_cut + 1) * (delta + g_at(-n_cut) - left_lo)
    right_hi = g_at(n_cut + 1) / beta
    h[br] = (g_at(n_cut) + delta
             + (t[br] - n_cut) * (right_hi - delta - g_at(n_cut)))
    out = GridFunction(grid, h)
    ints = grid.integer_indices
    if not np.all(out.values[ints].real >= gv[ints]):
        raise PreconditionViolatedError("envelope failed h >= g at integers")
    return out


def _unit_phases(values: np.ndarray) -> np.ndarray:
    """v/|v| with the zero-value convention phase = 1.

    Componentwise real division: complex-by-real division may round through
    a reciprocal, and real data must yield exactly +-1 so that the
    integer-level lift identity survives floating point bit for bit.
    """
    out = np.ones(values.shape, dtype=complex)
    mod = np.hypot(values.real, values.imag)
    nz = mod != 0
    out[nz] = (values.real[nz] / mod[nz]
               + 1j * (values.imag[nz] / mod[nz]))
    return out


def phase_interpolant(node_t: np.ndarray, node_phase: np.ndarray,
                      query: np.ndarray) -> np.ndarray:
    """Straight-line complex interpolation of unimodular node values;
    |result| <= 1 by convexity of the unit disc."""
    return (np.interp(query, node_t, node_phase.real)
            + 1j * np.interp(query, node_t, node_phase.imag))


def build_script_E(k: GridFunction, f: GridFunction, h: GridFunction,
                   g: GridFunction, n_cut: int, delta: float,
                   r_tilde: float | None = None) -> GridFunction:
    """Lifted member: k + delta * (phase interpolant of k) inside [-N, N],
    the envelope h outside, affine bridges.

    Asserts the three posted facts: |E(m)| = |k(m)| + delta on the inner
    integers, membership in Gamma_h, and (when r_tilde is given)
    ||E - f||_inf < r_tilde.
    """
    grid = k.grid
    t, inner, outer, bl, br = _region_masks(grid, n_cut)
    nodes = np.arange(-n_cut, n_cut + 1, dtype=float)
    node_idx = [grid.index_of(m) for m in nodes]
    eta = _unit_phases(k.values[node_idx])
    eta_tilde = np.zeros(grid.size, dtype=complex)
    eta_tilde[inner] = phase_interpolant(nodes, eta, t[inner])
    if np.any(np.abs(eta_tilde[inner]) > 1 + _CONTRACT_TOL):
        raise PreconditionViolatedError("phase interpolant exceeded modulus 1")

    e_vals = np.zeros(grid.size, dtype=complex)
    e_vals[inner] = k.values[inner] + delta * eta_tilde[inner]
    e_vals[outer] = h.values[outer]
    h_at = lambda m: h.values[grid.index_of(m)]
    k_at = lambda m: k.values[grid.index_of(m)]
    left_anchor = k_at(-n_cut) + delta * eta[0]
    e_vals[bl] = (h_at(-n_cut - 1)
                  + (t[bl] + n_cut + 1) * (left_anchor - h_at(-n_cut - 1)))
    right_anchor = k_at(n_cut) + delta * eta[-1]
    e_vals[br] = (right_anchor
                  + (t[br] - n_cut) * (h_at(n_cut + 1) - right_anchor))
    out = GridFunction(grid, e_vals)

    lifted = np.abs(out.values[node_idx])
    expected = np.abs(k.values[node_idx]) + delta
    if not np.allclose(lifted, expected, rtol=_CONTRACT_TOL, atol=0):
        raise PreconditionViolatedError(
            "lift failed |E(m)| = |k(m)| + delta on the inner integers"
        )
    ints = grid.integer_indices
    slack = _CONTRACT_TOL * (1.0 + np.abs(h.values[ints].real))
    if not np.all(np.abs(out.values[ints]) >= h.values[ints].real - slack):
        raise PreconditionViolatedError("lifted member left Gamma_h")
    if r_tilde is not None:
        gap = norm(out - f, SUP)
        if not gap < r_tilde:
            raise PreconditionViolatedError(
                f"||E - f|| = {gap} is not below r_tilde = {r_tilde}"
            )
    return out


def build_gamma(u: GridFunction, v: GridFunction, g: GridFunction,
                h: GridFunction, n_cut: int, beta: float, *,
                delta: float | None = None, lam: float | None = None,
                r_tilde: float | None = None,
                f: GridFunction | None = None) -> GridFunction:
    """Refilled point: v inside [-N, N], v + beta |u - v| Theta outside,
    affine bridges; Theta interpolates the phases of v on the outer
    integers.

    Requires u in Gamma_h; when the scene context (delta, lam, r_tilde, f)
    is supplied, the working-radius bound ||u - v|| <= min(delta,
    lam (r_tilde - ||f - u||)) is enforced as well.  Asserts
    ||gamma - v|| <= beta ||u - v|| and membership of gamma in Gamma_g.
    """
    grid = u.grid
    if not gamma_membership(u, GammaSet(h)):
        raise PreconditionViolatedError("u is not in Gamma_h")
    uv_gap = norm(u - v, SUP)
    if None not in (delta, lam, r_tilde, f):
        r_prime = min(delta, lam * (r_tilde - norm(f - u, SUP)))
        if uv_gap > r_prime:
            raise PreconditionViolatedError(
                f"||u - v|| = {uv_gap} exceeds the working radius {r_prime}"
            )
    t, inner, outer, bl, br = _region_masks(grid, n_cut)
    ints = grid.integer_points
    left_nodes = ints[ints <= -n_cut - 1]
    right_nodes = ints[ints >= n_cut + 1]
    if left_nodes.size == 0 or right_nodes.size == 0:
        raise PreconditionViolatedError("grid too small for the outer rays")

    def outer_phase(side_nodes, mask):
        idx = [grid.index_of(m) for m in side_nodes]
        theta = _unit_phases(v.values[idx])
        return phase_interpolant(side_nodes, theta, t[mask])

    gap_vals = np.abs(u.values - v.values)
    gam = np.array(v.values, dtype=complex, copy=True)
    left_mask = outer & (t < 0)
    right_mask = outer & (t > 0)
    theta_left = outer_phase(left_nodes, left_mask)
    theta_right = outer_phase(right_nodes, right_mask)
    if (np.any(np.abs(theta_left) > 1 + _CONTRACT_TOL)
            or np.any(np.abs(theta_right) > 1 + _CONTRACT_TOL)):
        raise PreconditionViolatedError("phase interpolant exceeded modulus 1")
    gam[left_mask] += beta * gap_vals[left_mask] * theta_left
    gam[right_mask] += beta * gap_vals[right_mask] * theta_right

    def at(fn: GridFunction, m: float) -> complex:
        return fn.values[grid.index_of(m)]

    theta_rp = _unit_phases(np.array([at(v, n_cut + 1)]))[0]
    corr_r = beta * abs(at(u, n_cut + 1) - at(v, n_cut + 1)) * theta_rp
    gam[br] = v.values[br] + (t[br] - n_cut) * corr_r
    theta_lp = _unit_phases(np.array([at(v, -n_cut - 1)]))[0]
    corr_l = beta * abs(at(u, -n_cut - 1) - at(v, -n_cut - 1)) * theta_lp
    gam[bl] = v.values[bl] - (t[bl] + n_cut) * corr_l
    out = GridFunction(grid, gam)

    move = norm(out - v, SUP)
    if move > beta * uv_gap * (1 + _CONTRACT_TOL) + 1e-300:
        raise PreconditionViolatedError(
            f"correction moved v by {move} > beta ||u - v|| = {beta * uv_gap}"
        )
    gvals = g.values[grid.integer_indices].real
    slack = _CONTRACT_TOL * (1.0 + gvals)
    if not np.all(np.abs(out.values[grid.integer_indices]) >= gvals - slack):
        raise PreconditionViolatedError("refilled point left Gamma_g")
    return out


# ---------------------------------------------------------------------------
# Evidence-grade porosity probe


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a sampled porosity probe at one point.

    ``witness`` carries the first perturbation whose shrunken ball produced
    no sampled member; None is evidence (not proof) that the set is not
    porous at the probed point.
    """

    witness: Optional[GridFunction]
    witness_distance: Optional[float]
    records: tuple[dict, ...]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records)


def _random_perturbation(grid: Grid, scale: float, rng) -> np.ndarray:
    if rng.random() < 0.5:
        vals = np.zeros(grid.size)
        ints = grid.integer_indices
        count = min(8, ints.size)
        idx = rng.choice(ints, size=count, replace=False)
        signs = rng.choice([-1.0, 1.0], size=count)
        vals[idx] = signs * rng.uniform(0.2, 1.0, size=count)
    else:
        center = rng.uniform(-grid.half_width / 2, grid.half_width / 2)
        half_width = rng.uniform(0.5, 2.0)
        height = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
        vals = height * np.clip(
            1.0 - np.abs(grid.points - center) / half_width, 0.0, None)
    peak = np.abs(vals).max()
    if peak == 0:
        vals = np.zeros(grid.size)
        vals[grid.integer_indices[0]] = 1.0
        peak = 1.0
    return vals * (scale * rng.uniform(0.3, 1.0) / peak)


def porosity_probe(member: Callable[[GridFunction], bool], x: GridFunction,
                   lam: float, delta: float, *, budget: int = 256,
                   inner_budget: int = 256, seed: int = 0) -> ProbeResult:
    """Search for a porosity witness at x in the sup metric.

    Each outer sample draws y in B(x, delta) minus {x} and tests the ball
    B(y, lam ||x - y||) for members of the set by sampled queries; the
    inner candidates include y itself and the pull of y toward x, which is
    the member most likely to survive for margin-dominated envelope sets.
    """
    if not (0 < lam < 1) or delta <= 0 or budget < 1:
        raise ValueError("need lam in (0,1), delta > 0, budget >= 1")
    rng = np.random.default_rng(seed)
    grid = x.grid
    records = []
    for outer in range(budget):
        y = GridFunction(grid,
                         x.values + _random_perturbation(grid, delta, rng))
        d = norm(y - x, SUP)
        radius = lam * d
        hits = 0
        found = False
        pull = x.values - y.values
        pull_scale = 0.999 * radius / d if d > 0 else 0.0
        candidates = [y.values, y.values + pull_scale * pull]
        for _ in range(max(0, inner_budget - 2)):
            candidates.append(
                y.values + _random_perturbation(grid, 0.999 * radius, rng))
        for z_vals in candidates:
            if member(GridFunction(grid, z_vals)):
                hits += 1
                found = True
                break
        records.append({"seed": seed, "outer": outer, "d": d,
                        "inner_hits": hits, "y_found": not found})
        if not found:
            return ProbeResult(y, d, tuple(records))
    return ProbeResult(None, None, tuple(records))


# ---------------------------------------------------------------------------
# The weight-product profile and its orbit-norm floor


def corollary_g(op: CompositionOperator, grid: Grid,
                decay_tol: float = 1e-6) -> GammaSet:
    """Profile through the nodes (n, prod_{k=1}^{n} w(alpha^{-k}(n))^{-1}),
    linear in between, t * (first node) on [0, 1], zero for t <= 0.

    Warns when the node values fail to decay below ``decay_tol`` by the
    grid edge; the orbit-norm floor below is only meaningful under decay.
    """
    top = int(math.floor(grid.half_width))
    node_t = np.arange(0, top + 1, dtype=float)
    node_v = np.zeros(top + 1)
    # node n is the diagonal entry [n-1, n-1] of the backward-leg lattice
    n0 = 0
    for rows in _orbit_log2_rows(op, node_t[1:], top, -1, -1):
        i = np.arange(len(rows))
        node_v[n0 + 1 + i] = np.exp2(-rows[i, n0 + i])
        n0 += len(rows)
    if node_v[top] > decay_tol:
        warnings.warn(
            f"inverse backward products have not decayed below {decay_tol} "
            f"by n = {top}; the domination floor may be vacuous",
            stacklevel=2,
        )
    t = grid.points
    vals = np.interp(t, node_t, node_v, left=0.0)
    vals[t <= 0] = 0.0
    return GammaSet(GridFunction(grid, vals))


def corollary_check(op: CompositionOperator, gamma: GammaSet,
                    f: GridFunction, horizon: int) -> float:
    """min over n <= horizon of ||T^n f||_inf for a member f of Gamma_g;
    the integer-node domination forces the minimum to stay at or above 1
    when the profile is the inverse product profile."""
    if not gamma_membership(f, gamma):
        raise PreconditionViolatedError("f is not in Gamma_g")
    L = f.grid.half_width
    for n in range(1, horizon + 1):
        wp = float(homeo_power(op.alpha, float(n), -n))
        if abs(wp) > L:
            raise PreconditionViolatedError(
                f"witness point alpha^-{n}({n}) = {wp} leaves the grid"
            )
    best = math.inf
    for n, tf in operator_orbit(op, f, horizon):
        best = min(best, norm(tf, SUP))
    return best


# ---------------------------------------------------------------------------
# Scenes


@dataclass(frozen=True)
class PorosityScene:
    f: GridFunction
    k: GridFunction
    g: GridFunction
    params: PorosityParams

    def to_json(self) -> str:
        def pack(fn: GridFunction):
            return {"re": fn.values.real.tolist(),
                    "im": fn.values.imag.tolist()}

        return json.dumps(
            {
                "grid": {"half_width": self.f.grid.half_width,
                         "step": self.f.grid.step},
                "f": pack(self.f), "k": pack(self.k), "g": pack(self.g),
                "params": {
                    "lam": self.params.lam, "beta": self.params.beta,
                    "delta": self.params.delta,
                    "r_tilde": self.params.r_tilde, "r": self.params.r,
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PorosityScene":
        obj = json.loads(text)
        grid = Grid(obj["grid"]["half_width"], obj["grid"]["step"])

        def unpack(d):
            return GridFunction(grid,
                                np.asarray(d["re"]) + 1j * np.asarray(d["im"]))

        return cls(unpack(obj["f"]), unpack(obj["k"]), unpack(obj["g"]),
                   PorosityParams(**obj["params"]))


def random_scene(rng, grid: Grid | None = None) -> PorosityScene:
    """Seeded scene with strict margins in every posted inequality.

    The profile decays to zero by the grid edge with small positive values
    on some outer integers, k dominates it with a sign pattern and a real
    margin, and f sits well inside the r_tilde ball around k.
    """
    if grid is None:
        grid = Grid(8.0, 0.25)
    t = grid.points
    amp = rng.uniform(0.05, 0.3)
    g_vals = amp * np.clip(1.0 - np.abs(t) / 2.0, 0.0, None)
    if rng.random() < 0.5:
        tail = amp * 0.02 * np.clip(1.0 - (np.abs(t) - 2.0) / 3.0, 0.0, None)
        g_vals = np.where(np.abs(t) >= 2.0, tail, g_vals)
    g = GridFunction(grid, g_vals)

    ints = grid.integer_points
    node_vals = np.zeros(ints.size)
    for i, m in enumerate(ints):
        base = float(g_vals[grid.index_of(m)])
        if abs(m) <= 3:
            sign = rng.choice([-1.0, 1.0])
            node_vals[i] = sign * (base + rng.uniform(0.02, 0.2))
        else:
            node_vals[i] = base
    k_vals = np.interp(t, ints, node_vals)
    wiggle = 0.01 * rng.standard_normal(grid.size)
    frac = np.abs(t - np.rint(t)) * grid.inv_step
    k_vals = k_vals + wiggle * np.minimum(frac, 1.0) * (np.abs(t) <= 3)
    k = GridFunction(grid, k_vals)

    r_tilde = rng.uniform(0.8, 1.6)
    pert = 0.3 * r_tilde * rng.uniform(-1.0, 1.0, grid.size) \
        * (np.abs(t) <= 3)
    f = GridFunction(grid, k.values + pert)

    r = (r_tilde - norm(k - f, SUP)) / 2.0
    delta = rng.uniform(0.2, 0.9) * r / 100.0
    lam = rng.uniform(0.15, 0.5)
    # dyadic beta keeps beta * (g / beta) exact, so the refilled point's
    # integer-level domination survives floating point even at the boundary
    beta = float(2.0 ** -rng.integers(3, 6))
    params = PorosityParams(lam, beta, delta, r_tilde, r)
    return PorosityScene(f, k, g, params)
