"""Discretized function spaces on the real line.

Functions are sampled on a uniform symmetric grid and are taken to vanish
off the grid (the vanishing-at-infinity model): every off-grid read returns
zero.  The module provides the grid itself, continuous piecewise-affine maps
(weights and related profiles), invertible homeomorphisms of the line, and
the three norms used downstream: sup, L2 quadrature, and the weighted
sup-norm series built from a profile tau.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import (
    DivergentSegalNormError,
    GridMismatchError,
    NonInvertibleError,
)

__all__ = [
    "Grid",
    "PiecewiseMap",
    "Translation",
    "PiecewiseAffineHomeo",
    "Homeo",
    "identity_homeo",
    "homeo_power",
    "homeo_orbit",
    "homeo_orbit_blocks",
    "aperiodicity_bound",
    "GridFunction",
    "SupNorm",
    "L2Norm",
    "SegalNorm",
    "NormKind",
    "SUP",
    "L2",
    "norm",
    "restrict",
    "linear_interpolate",
    "triangular_bump",
    "rectangular_bump",
]

_ROUND_TOL = 1e-9


def _as_int(x: float, what: str) -> int:
    n = round(x)
    if abs(x - n) > _ROUND_TOL:
        raise ValueError(f"{what} must be an integer, got {x}")
    return int(n)


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid t_i = -L + i*h on [-L, L].

    ``1/h`` and ``L/h`` must be positive integers so that every integer in
    [-L, L] is a grid point; the porosity constructions quantify over
    integer coordinates and rely on this.
    """

    half_width: float
    step: float

    def __post_init__(self):
        if self.half_width <= 0 or self.step <= 0:
            raise ValueError("grid requires half_width > 0 and step > 0")
        q = _as_int(1.0 / self.step, "1/step")
        if q <= 0:
            raise ValueError("1/step must be a positive integer")
        _as_int(self.half_width / self.step, "half_width/step")

    @property
    def inv_step(self) -> int:
        return round(1.0 / self.step)

    @property
    def size(self) -> int:
        return round(2 * self.half_width / self.step) + 1

    @cached_property
    def points(self) -> np.ndarray:
        pts = -self.half_width + self.step * np.arange(self.size)
        pts.setflags(write=False)
        return pts

    def index_of(self, t: float) -> int:
        """Index of the grid point equal to t; raises if t is off-grid."""
        i = round((t + self.half_width) / self.step)
        if i < 0 or i >= self.size or abs(self.points[i] - t) > _ROUND_TOL:
            raise GridMismatchError(f"{t} is not a grid point")
        return i

    @cached_property
    def integer_indices(self) -> np.ndarray:
        """Indices of the grid points lying on the integers."""
        q = self.inv_step
        offset = round(self.half_width * q)  # index of t = 0
        idx = np.arange(self.size)
        out = idx[(idx - offset) % q == 0]
        out.setflags(write=False)
        return out

    @cached_property
    def integer_points(self) -> np.ndarray:
        out = np.rint(self.points[self.integer_indices])
        out.setflags(write=False)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.half_width == other.half_width
            and self.step == other.step
        )

    def __hash__(self):
        return hash((self.half_width, self.step))


class PiecewiseMap:
    """Continuous piecewise-affine map determined by its node values.

    Values left of the first breakpoint follow an affine tail of slope
    ``left_slope`` (constant when 0, the default), and symmetrically on
    the right.  Node values may be real or complex; a map flagged
    ``positive`` must be real with strictly positive nodes and constant
    tails, so both the map and its reciprocal are bounded on the line.
    """

    def __init__(self, breakpoints, values, left_slope=0.0, right_slope=0.0,
                 positive=False):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values)
        if bp.ndim != 1 or bp.size == 0 or bp.shape != vals.shape:
            raise ValueError("breakpoints and values must be equal-length 1-d")
        if bp.size > 1 and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.iscomplexobj(vals):
            vals = vals.astype(complex)
        else:
            vals = vals.astype(float)
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(vals)):
            raise ValueError("breakpoints and values must be finite")
        if positive:
            if np.iscomplexobj(vals):
                raise ValueError("positive map must be real-valued")
            if left_slope != 0.0 or right_slope != 0.0:
                raise ValueError("positive map requires constant tails")
            if vals.min() <= 0:
                raise ValueError("positive map requires min value > 0")
        bp.setflags(write=False)
        vals.setflags(write=False)
        self.breakpoints = bp
        self.values = vals
        self.left_slope = float(left_slope)
        self.right_slope = float(right_slope)
        self.positive = bool(positive)

    @classmethod
    def constant(cls, c, positive=None):
        if positive is None:
            positive = not isinstance(c, complex) and c > 0
        return cls([0.0], [c], positive=positive)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.iscomplexobj(self.values):
            out = (
                np.interp(t_arr, self.breakpoints, self.values.real)
                + 1j * np.interp(t_arr, self.breakpoints, self.values.imag)
            )
        else:
            out = np.interp(t_arr, self.breakpoints, self.values)
        if self.left_slope != 0.0:
            b0, v0 = self.breakpoints[0], self.values[0]
            out = np.where(t_arr < b0, v0 + self.left_slope * (t_arr - b0), out)
        if self.right_slope != 0.0:
            b1, v1 = self.breakpoints[-1], self.values[-1]
            out = np.where(t_arr > b1, v1 + self.right_slope * (t_arr - b1), out)
        if np.isscalar(t) or (hasattr(t, "ndim") and t.ndim == 0):
            return out[()]
        return out

    def shifted(self, c: float) -> "PiecewiseMap":
        """The map t -> self(t - c); breakpoints move by +c."""
        return PiecewiseMap(self.breakpoints + c, self.values,
                            self.left_slope, self.right_slope, self.positive)

    def to_json(self) -> str:
        if np.iscomplexobj(self.values):
            raise ValueError("JSON serialization supports real maps only")
        if self.left_slope != 0.0 or self.right_slope != 0.0:
            raise ValueError("JSON serialization supports constant tails only")
        return json.dumps(
            {
                "breakpoints": self.breakpoints.tolist(),
                "values": self.values.tolist(),
                "left_tail": float(self.values[0]),
                "right_tail": float(self.values[-1]),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PiecewiseMap":
        obj = json.loads(text)
        pm = cls(obj["breakpoints"], obj["values"])
        if obj.get("left_tail") is not None and obj["left_tail"] != pm.values[0]:
            raise ValueError("left_tail must equal the first node value")
        if obj.get("right_tail") is not None and obj["right_tail"] != pm.values[-1]:
            raise ValueError("right_tail must equal the last node value")
        return pm


@dataclass(frozen=True)
class Translation:
    """The homeomorphism t -> t + shift, shift != 0."""

    shift: float

    def __post_init__(self):
        if self.shift == 0:
            raise ValueError("translation shift must be nonzero")


class PiecewiseAffineHomeo:
    """Strictly monotone piecewise-affine homeomorphism of the line.

    The forward map must have affine unbounded tails (nonzero slopes of a
    common sign matching the node monotonicity), which makes it a bijection
    of the line; the inverse map is derived at construction.
    """

    def __init__(self, forward: PiecewiseMap):
        vals = forward.values
        if np.iscomplexobj(vals):
            raise NonInvertibleError("homeomorphism map must be real-valued")
        diffs = np.diff(vals)
        increasing = bool(np.all(diffs > 0)) if diffs.size else None
        decreasing = bool(np.all(diffs < 0)) if diffs.size else None
        ls, rs = forward.left_slope, forward.right_slope
        if diffs.size == 0:
            increasing = ls > 0 and rs > 0
            decreasing = ls < 0 and rs < 0
        if increasing and ls > 0 and rs > 0:
            inv = PiecewiseMap(vals, forward.breakpoints, 1.0 / ls, 1.0 / rs)
        elif decreasing and ls < 0 and rs < 0:
            inv = PiecewiseMap(vals[::-1], forward.breakpoints[::-1],
                               1.0 / rs, 1.0 / ls)
        else:
            raise NonInvertibleError(
                "map must be strictly monotone with matching nonzero tail slopes"
            )
        self.map = forward
        self.inverse_map = inv
        self.increasing = bool(increasing)


Homeo = Union[Translation, PiecewiseAffineHomeo]


def identity_homeo() -> PiecewiseAffineHomeo:
    return PiecewiseAffineHomeo(PiecewiseMap([0.0], [0.0], 1.0, 1.0))


def homeo_power(a: Homeo, t, n: int):
    """alpha^n applied to t; n may be negative.

    Translations use the closed form t + n*shift (no iteration drift);
    piecewise-affine maps iterate |n| times.
    """
    if isinstance(a, Translation):
        return t + n * a.shift
    cur = np.asarray(t, dtype=float)
    fn = a.map if n >= 0 else a.inverse_map
    # an expanding walk may overflow to +-inf; a positive weight has
    # constant tails, so it reads the exact tail value there
    with np.errstate(over="ignore"):
        for _ in range(abs(n)):
            cur = fn(cur)
    return cur


def homeo_orbit(a: Homeo, t, step: int = 1, start: int = 0):
    """Yield alpha^k(t) for k = start, start + step, ... without end.

    The one walker behind every multi-step orbit: translations give the
    closed form t + k*shift at every k, so long walks do not drift; other
    maps start at alpha^start(t) and iterate alpha (or its inverse) |step|
    times between yields.
    """
    if isinstance(a, Translation):
        for k in itertools.count(start, step):
            yield t + k * a.shift
    cur = homeo_power(a, t, start)
    fn = a.map if step >= 0 else a.inverse_map
    while True:
        yield cur
        with np.errstate(over="ignore"):  # +-inf reads the tail, as above
            for _ in range(abs(step)):
                cur = fn(cur)


def homeo_orbit_blocks(a: Homeo, t, n: int, rows: int, step: int = 1,
                       start: int = 0):
    """The first n points of ``homeo_orbit(a, t, step, start)`` as stacked
    (rows, |t|) blocks, the last one possibly shorter.

    A translation fills each block in closed form, t + k*shift for a column
    of k, which is bit-identical to the walker's rows; other maps stack
    rows of one continuing walk, which never steps past the n-th point.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if isinstance(a, Translation):
        for k0 in range(0, n, rows):
            k = start + step * np.arange(k0, min(k0 + rows, n))
            yield t + k[:, None] * a.shift
        return
    walk = homeo_orbit(a, t, step, start)
    for k0 in range(0, n, rows):
        yield np.stack(list(itertools.islice(walk, min(rows, n - k0))))


def aperiodicity_bound(a: Homeo, m: float, horizon: int = 10000):
    """Smallest verified n with alpha^n([-m, m]) disjoint from [-m, m].

    For a translation the exact bound floor(2m/|shift|) + 1 is returned and
    guarantees disjointness for every larger n.  For a piecewise-affine
    homeomorphism the interval images are searched empirically up to the
    horizon; ``None`` means not verified within it.
    """
    if m < 0:
        raise ValueError("window radius must be >= 0")
    if isinstance(a, Translation):
        return int(2 * m / abs(a.shift)) + 1
    lo, hi = -float(m), float(m)
    for n in range(1, horizon + 1):
        lo, hi = a.map(lo), a.map(hi)
        if not a.increasing:
            lo, hi = min(lo, hi), max(lo, hi)
        if hi < -m or lo > m:
            return n
    return None


class GridFunction:
    """Complex-valued samples on a grid, zero off the grid.

    ``truncated`` marks that some contributing pre-image fell outside the
    grid during an operator application, so boundary mass may have been
    dropped.
    """

    def __init__(self, grid: Grid, values, truncated: bool = False):
        vals = np.asarray(values, dtype=complex)
        if vals.shape != (grid.size,):
            raise ValueError(
                f"expected {grid.size} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        self.grid = grid
        self.values = vals
        self.truncated = bool(truncated)

    @classmethod
    def zero(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.size, dtype=complex))

    @classmethod
    def sample(cls, grid: Grid, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.points), dtype=complex))

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0))

    def value_at(self, t: float) -> complex:
        return complex(self.values[self.grid.index_of(t)])

    def _check_same_grid(self, other: "GridFunction"):
        if self.grid != other.grid:
            raise GridMismatchError("grid functions live on different grids")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values,
                            self.truncated or other.truncated)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values,
                            self.truncated or other.truncated)

    def __mul__(self, c) -> "GridFunction":
        return GridFunction(self.grid, self.values * c, self.truncated)

    __rmul__ = __mul__

    def to_csv(self, path):
        data = np.column_stack(
            [self.grid.points, self.values.real, self.values.imag]
        )
        np.savetxt(path, data, delimiter=",", header="t,re,im",
                   comments="", fmt="%.17g")

    @classmethod
    def from_csv(cls, path, grid: Grid | None = None) -> "GridFunction":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t, re, im = data[:, 0], data[:, 1], data[:, 2]
        if grid is None:
            h = t[1] - t[0]
            grid = Grid(-t[0], round(h, 12))
        if not np.allclose(t, grid.points, atol=1e-9):
            raise GridMismatchError("CSV abscissae do not match the grid")
        return cls(grid, re + 1j * im)


def linear_interpolate(f: GridFunction, t):
    """Evaluate f at arbitrary points: exact at grid points, affine between
    neighbors, zero outside [-L, L]."""
    t_arr = np.asarray(t, dtype=float)
    pts = f.grid.points
    out = (
        np.interp(t_arr, pts, f.values.real, left=0.0, right=0.0)
        + 1j * np.interp(t_arr, pts, f.values.imag, left=0.0, right=0.0)
    )
    L = f.grid.half_width
    out = np.where((t_arr < -L) | (t_arr > L), 0.0 + 0.0j, out)
    if np.isscalar(t) or (hasattr(t, "ndim") and t_arr.ndim == 0):
        return complex(out[()])
    return out


def restrict(f: GridFunction, mask) -> GridFunction:
    """Multiply by the characteristic function of a set of grid indices."""
    keep = np.zeros(f.grid.size, dtype=bool)
    keep[np.asarray(list(mask) if isinstance(mask, (set, frozenset)) else mask,
                    dtype=int)] = True
    return GridFunction(f.grid, np.where(keep, f.values, 0.0), f.truncated)


# ---------------------------------------------------------------------------
# Norms


@dataclass(frozen=True)
class SupNorm:
    pass


@dataclass(frozen=True)
class L2Norm:
    pass


class SegalNorm:
    """Weighted sup-norm series sum_k ||f tau^k||_inf with certified tail.

    Terms are accumulated until the geometric tail bound drops below
    ``tail_tol``; the bound itself is added, so the result overestimates the
    true value by at most ``tail_tol`` and never underestimates it.
    """

    def __init__(self, tau: PiecewiseMap, tail_tol: float = 1e-9):
        if tail_tol <= 0:
            raise ValueError("tail_tol must be positive")
        self.tau = tau
        self.tail_tol = float(tail_tol)

    _MAX_TERMS = 200_000

    def compute(self, f: GridFunction) -> float:
        supp = f.values != 0
        if not supp.any():
            return 0.0
        a = np.abs(f.values[supp])
        b = np.abs(np.asarray(self.tau(f.grid.points[supp]), dtype=complex))
        s = float(b.max())
        if s >= 1.0:
            raise DivergentSegalNormError(
                f"sup|tau| = {s} >= 1 on the support of f"
            )
        total = 0.0
        cur = a.copy()
        for _ in range(self._MAX_TERMS):
            m = float(cur.max())
            total += m
            if s == 0.0:
                return total
            tail = m * s / (1.0 - s)
            if tail <= self.tail_tol:
                return total + tail
            cur *= b
        raise DivergentSegalNormError(
            "series did not certify its tail; sup|tau| too close to 1"
        )


SUP = SupNorm()
L2 = L2Norm()
NormKind = Union[SupNorm, L2Norm, SegalNorm]


def norm(f: GridFunction, kind: NormKind = SUP) -> float:
    if isinstance(kind, SupNorm):
        return float(np.abs(f.values).max())
    if isinstance(kind, L2Norm):
        return float(np.sqrt(f.grid.step * np.sum(np.abs(f.values) ** 2)))
    if isinstance(kind, SegalNorm):
        return kind.compute(f)
    raise TypeError(f"unknown norm kind {kind!r}")


# ---------------------------------------------------------------------------
# Convenience constructors used across tests and the CLI


def triangular_bump(grid: Grid, center: float = 0.0, half_width: float = 1.0,
                    height: complex = 1.0) -> GridFunction:
    """Tent function of the given height, supported on [c - w, c + w]."""
    t = grid.points
    prof = np.clip(1.0 - np.abs(t - center) / half_width, 0.0, None)
    return GridFunction(grid, height * prof)


def rectangular_bump(grid: Grid, lo: float, hi: float,
                     height: complex = 1.0) -> GridFunction:
    """Indicator-like block: ``height`` on grid points in [lo, hi], else 0."""
    t = grid.points
    vals = np.where((t >= lo) & (t <= hi), height, 0.0)
    return GridFunction(grid, vals)


def homeo_to_json(a: Homeo) -> str:
    if isinstance(a, Translation):
        return json.dumps({"kind": "translation", "shift": a.shift},
                          sort_keys=True)
    return json.dumps(
        {
            "kind": "piecewise_affine",
            "breakpoints": a.map.breakpoints.tolist(),
            "values": a.map.values.tolist(),
            "left_slope": a.map.left_slope,
            "right_slope": a.map.right_slope,
        },
        sort_keys=True,
    )


def homeo_from_json(text: str) -> Homeo:
    obj = json.loads(text)
    if obj["kind"] == "translation":
        return Translation(obj["shift"])
    if obj["kind"] == "piecewise_affine":
        return PiecewiseAffineHomeo(
            PiecewiseMap(obj["breakpoints"], obj["values"],
                         obj.get("left_slope", 0.0), obj.get("right_slope", 0.0))
        )
    raise ValueError(f"unknown homeomorphism kind {obj['kind']!r}")
