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
import math
import numbers
import sys
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
    "homeo_power",
    "homeo_orbit",
    "homeo_orbit_blocks",
    "exit_time",
    "GridFunction",
    "SupNorm",
    "L2Norm",
    "SegalNorm",
    "NormKind",
    "SUP",
    "L2",
    "norm",
    "row_norms",
    "linear_interpolate",
    "triangular_bump",
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


class PiecewiseMap:
    """Continuous piecewise-affine map determined by its node values.

    Values left of the first breakpoint follow an affine tail of slope
    ``left_slope`` (constant when 0, the default), and symmetrically on
    the right.  Node values are real; a map flagged ``positive`` has
    strictly positive nodes and constant tails, so both the map and its
    reciprocal are bounded on the line.
    """

    def __init__(self, breakpoints, values, left_slope=0.0, right_slope=0.0,
                 positive=False):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values)
        if bp.ndim != 1 or bp.size == 0 or bp.shape != vals.shape:
            raise ValueError("breakpoints and values must be equal-length 1-d")
        if np.iscomplexobj(vals):  # astype(float) would drop the imaginary part
            raise ValueError("map values must be real")
        vals = vals.astype(float)
        with np.errstate(all="ignore"):  # checked below
            gaps = bp[1:] - bp[:-1]
            slopes = (vals[1:] - vals[:-1]) / gaps
        if not (gaps > 0).all():
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(vals)):
            raise ValueError("breakpoints and values must be finite")
        # np.interp evaluates a piece from its gap and slope
        if not (np.isfinite(gaps).all() and np.isfinite(slopes).all()
                and math.isfinite(left_slope) and math.isfinite(right_slope)):
            raise ValueError("every gap and slope of the map must be finite")
        if positive:
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

    @property
    def hull(self) -> tuple[float, float]:
        """(lo, hi) such that the map is constant on (-inf, lo] and on
        [hi, inf); an end is infinite where that tail has a slope."""
        lo = float(self.breakpoints[0]) if self.left_slope == 0 else -math.inf
        hi = float(self.breakpoints[-1]) if self.right_slope == 0 else math.inf
        return lo, hi

    def bounds(self, lo: float, hi: float) -> tuple[float, float]:
        """(inf, sup) of the map on [lo, hi], lo <= hi, either end possibly
        infinite: the map is affine between its nodes, so both are among
        its values at the two ends and at the nodes inside; an infinite
        end reads the tail's limit, +-inf under a slope."""
        bp = self.breakpoints
        vals = [self.values[(bp > lo) & (bp < hi)]]
        for end, slope, tail in ((lo, -self.left_slope, self.values[0]),
                                 (hi, self.right_slope, self.values[-1])):
            if abs(end) < math.inf:
                vals.append(self(np.array([end])))
            else:
                vals.append([tail if slope == 0 else math.copysign(math.inf,
                                                                   slope)])
        vals = np.concatenate(vals)
        return float(vals.min()), float(vals.max())

    @classmethod
    def constant(cls, c, positive=None):
        if positive is None:
            positive = c.real > 0  # a complex c is refused by __init__
        return cls([0.0], [c], positive=positive)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
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


@dataclass(frozen=True)
class Translation:
    """The homeomorphism t -> t + shift, for a finite real shift != 0."""

    shift: float

    def __post_init__(self):
        s = self.shift
        # bool is an int subclass; the bound also refuses nan, +-inf and
        # an int beyond the float range
        if (isinstance(s, bool) or not isinstance(s, numbers.Real)
                or not abs(s) <= sys.float_info.max):
            raise ValueError(f"translation shift must be a finite real "
                             f"number, got {s!r}")
        if s == 0:
            raise ValueError("translation shift must be nonzero")
        # an int shift times numpy's integer steps would wrap, or overflow
        # a C long
        object.__setattr__(self, "shift", float(s))


class PiecewiseAffineHomeo:
    """Strictly monotone piecewise-affine homeomorphism of the line.

    The forward map must have affine unbounded tails (nonzero slopes of a
    common sign matching the node monotonicity), which makes it a bijection
    of the line; the inverse map is derived at construction.
    """

    def __init__(self, forward: PiecewiseMap):
        vals = forward.values
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


def homeo_power(a: Homeo, t, n: int):
    """alpha^n applied to t; n may be negative.

    Translations use the closed form t + n*shift (no iteration drift);
    piecewise-affine maps iterate |n| times.
    """
    # a huge shift or an expanding walk may overflow to +-inf; a positive
    # weight has constant tails, so it reads the exact tail value there,
    # and a grid function its zero, as at the true points beyond the
    # float range
    if isinstance(a, Translation):
        with np.errstate(over="ignore"):
            return t + n * a.shift
    cur = np.asarray(t, dtype=float)
    fn = a.map if n >= 0 else a.inverse_map
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
            with np.errstate(over="ignore"):  # +-inf as in homeo_power
                pos = t + k * a.shift
            yield pos
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
            with np.errstate(over="ignore"):  # +-inf as in homeo_power
                block = t + k[:, None] * a.shift
            yield block
        return
    walk = homeo_orbit(a, t, step, start)
    for k0 in range(0, n, rows):
        yield np.stack(list(itertools.islice(walk, min(rows, n - k0))))


def exit_time(a: Homeo, t, hull, n: int, step: int = 1, start: int = 0):
    """The first row i < n of the walk ``homeo_orbit(a, t, step, start)``
    from which every later point lies beyond ``hull`` = (lo, hi) on the
    side the walk travels: at or above hi going right, at or below lo going
    left.  Returns (i, the edge crossed), or None when no such row is below
    n, the hull is unbounded on that side, or the walk is not certified to
    stay beyond it.

    A translation travels one way at every point, and its float positions
    t + k*shift are monotone in t and in k, so the row is where the extreme
    point crosses: a closed form, settled on those floats.  A
    piecewise-affine alpha is certified when it is increasing and its step
    map F (alpha, or its inverse for a backward walk) moves every point on
    the side of travel, from the walk's first row on, towards that side:
    F(x) - x of one sign there, checked at F's nodes and tail slope.  Then
    each orbit is monotone and never comes back, and the row is found by
    walking until every point has crossed.  Any other alpha gets None.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if n < 1 or t.size == 0 or step == 0:  # step 0 travels nowhere
        return None
    lo, hi = float(hull[0]), float(hull[1])
    if isinstance(a, Translation):
        right = step * a.shift > 0
        edge = hi if right else lo
        if not abs(edge) < math.inf:
            return None
        x0 = float(t.min() if right else t.max())

        def crossed(i: int) -> bool:
            # the float t + k*shift of homeo_orbit_blocks at the extreme
            # point: k*shift is the same product (an exact int for an int
            # shift), and a float overflows to +-inf as there
            x = x0 + (start + i * step) * a.shift
            return x >= edge if right else x <= edge

        guess = (edge - x0 - start * float(a.shift)) / (step * float(a.shift))
        i = 0 if not guess > 0 else n if guess >= n else math.ceil(guess)
        while i > 0 and crossed(i - 1):
            i -= 1
        while i < n and not crossed(i):
            i += 1
        return (i, edge) if i < n else None
    if not isinstance(a, PiecewiseAffineHomeo) or not a.increasing:
        return None
    fn = a.map if step >= 0 else a.inverse_map
    walk = homeo_orbit(a, t, step, start)
    first = next(walk)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(hi) and _moves_towards(fn, min(first.min(), hi), 1):
            edge, right = hi, True
        elif np.isfinite(lo) and _moves_towards(fn, max(first.max(), lo), -1):
            edge, right = lo, False
        else:
            return None
    for i, row in zip(range(n), itertools.chain([first], walk)):
        if (row >= edge if right else row <= edge).all():
            return i, edge
    return None


# F(x) - x must clear zero by this share of the largest coordinate in play:
# F's float evaluation errs by a few ulps of it, and a smaller margin could
# let a rounded step land back across the edge
_EXIT_MARGIN = 2.0 ** -40


def _moves_towards(fn: PiecewiseMap, x: float, sign: int) -> bool:
    """True iff sign*(fn(y) - y) > 0 for every y on the side ``sign`` of x
    (y >= x for +1, y <= x for -1), with the margin above: fn - id is
    affine between fn's nodes, so its extremes there are at x and at the
    nodes beyond x, and beyond the last node it keeps its sign when fn's
    tail slope is at least 1."""
    bp = fn.breakpoints
    ys = np.concatenate(([x], bp[sign * (bp - x) > 0]))
    tail = fn.right_slope if sign > 0 else fn.left_slope
    scale = max(np.abs(ys).max(), np.abs(fn.values).max())
    gap = sign * (fn(ys) - ys)
    return bool(tail >= 1 and gap.min() > _EXIT_MARGIN * scale)


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

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0))

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
    ``_TAIL_TOL``; the bound itself is added, so the result overestimates
    the true value by at most ``_TAIL_TOL`` and never underestimates it.
    """

    def __init__(self, tau: PiecewiseMap):
        self.tau = tau

    _TAIL_TOL = 1e-9
    _MAX_TERMS = 200_000

    def compute(self, values: np.ndarray, grid: Grid) -> float:
        supp = values != 0
        if not supp.any():
            return 0.0
        a = np.abs(values[supp])
        b = np.abs(self.tau(grid.points[supp]))
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
            if tail <= self._TAIL_TOL:
                return total + tail
            cur *= b
        raise DivergentSegalNormError(
            "series did not certify its tail; sup|tau| too close to 1"
        )


SUP = SupNorm()
L2 = L2Norm()
NormKind = Union[SupNorm, L2Norm, SegalNorm]


def _square_scale(top):
    """The divisor of values whose largest modulus is ``top`` (per row, or
    a scalar) before their squares are summed: ``top`` where it is outside
    [2**-200, 2**200], where a square, a sum of up to 2**58 of them or a
    product of two such sums may leave the float range, else 1.0, which
    leaves every sum bit for bit."""
    return np.where((top > 2.0 ** 200) | (top < 2.0 ** -200) & (top > 0),
                    top, 1.0)


def row_norms(rows: np.ndarray, kind: NormKind, grid: Grid) -> np.ndarray:
    """The norm of each row of a (rows, grid.size) value block: sup and L2
    as row reductions, the Segal series per row."""
    if isinstance(kind, SupNorm):
        return np.abs(rows).max(axis=1)
    if isinstance(kind, L2Norm):
        a = np.abs(rows)
        scale = _square_scale(a.max(axis=1))
        return scale * np.sqrt(grid.step * np.sum((a / scale[:, None]) ** 2,
                                                  axis=1))
    if isinstance(kind, SegalNorm):
        return np.array([kind.compute(r, grid) for r in rows])
    raise TypeError(f"unknown norm kind {kind!r}")


def norm(f: GridFunction, kind: NormKind = SUP) -> float:
    """The one-row case of :func:`row_norms`."""
    return float(row_norms(f.values[None], kind, f.grid)[0])


# ---------------------------------------------------------------------------
# Convenience constructors used across tests and the CLI


def triangular_bump(grid: Grid, center: float = 0.0, half_width: float = 1.0,
                    height: complex = 1.0) -> GridFunction:
    """Tent function of the given height, supported on [c - w, c + w]."""
    t = grid.points
    # a subnormal w overflows the ratio to inf off the centre, where the
    # tent is 0 all the same
    with np.errstate(over="ignore"):
        prof = np.clip(1.0 - np.abs(t - center) / half_width, 0.0, None)
    return GridFunction(grid, height * prof)


def map_from_spec(obj: dict, positive: bool = False) -> PiecewiseMap:
    """The map of a config's ``breakpoints``, ``values`` and optional
    ``left_slope`` and ``right_slope`` (0 by default)."""
    return PiecewiseMap(obj["breakpoints"], obj["values"],
                        obj.get("left_slope", 0.0),
                        obj.get("right_slope", 0.0), positive=positive)


def homeo_from_spec(obj: dict) -> Homeo:
    """The homeomorphism of a config's ``operator.alpha`` object."""
    if obj["kind"] == "translation":
        return Translation(obj["shift"])
    if obj["kind"] == "piecewise_affine":
        return PiecewiseAffineHomeo(map_from_spec(obj))
    raise ValueError(f"unknown homeomorphism kind {obj['kind']!r}")
