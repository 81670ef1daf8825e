"""Weighted composition operators and their cocycle products.

The operator sends f to w * (f o alpha) for a homeomorphism alpha and a
positive weight w with bounded reciprocal.  Orbit norms are governed by the
weight products along alpha-orbits; those products are accumulated as
compensated sums of base-2 logarithms so that sweeps reaching 2**(+-10^4)
neither overflow nor lose the 1e-12 accuracy the oracles require, and stay
bit-exact for dyadic weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .funcspace import (
    GridFunction,
    Homeo,
    PiecewiseMap,
    homeo_orbit,
    homeo_orbit_blocks,
    homeo_power,
    linear_interpolate,
)

__all__ = [
    "CompositionOperator",
    "apply_T",
    "apply_S",
    "apply_Tn",
    "apply_Sn",
    "cocycle",
    "CocycleSweep",
    "forward_log2",
    "backward_log2",
    "scale_by_exp2",
    "segal_compatible",
]


class KahanSum:
    """Elementwise compensated accumulator over a fixed-shape float array."""

    __slots__ = ("total", "_comp")

    def __init__(self, shape):
        self.total = np.zeros(shape)
        self._comp = np.zeros(shape)

    def add(self, x):
        y = x - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t

    def add_rows(self, rows: np.ndarray):
        """Add the rows of a block of terms in order, overwriting each row
        with the running total after it (an in-place compensated prefix
        sum, bit-identical to one ``add`` per row)."""
        for row in rows:
            self.add(row)
            row[...] = self.total


@dataclass(frozen=True)
class CompositionOperator:
    """The pair (alpha, w); w must carry the positivity flag."""

    alpha: Homeo
    weight: PiecewiseMap

    def __post_init__(self):
        if not self.weight.positive:
            raise ValueError("operator weight must be flagged positive")

    def log2_weight(self, t) -> np.ndarray:
        return np.log2(self.weight(t))


# Rows of orbit lattice per block, at most _BLOCK_CELLS cells (rows x
# points) in all: bounds a sweep's memory whatever its horizon and width.
_BLOCK_ROWS = 1024
_BLOCK_CELLS = 32768


def _block_rows(width: int) -> int:
    """Rows per lattice block for ``width`` points per row."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // max(width, 1)))


def _orbit_log2_rows(op: CompositionOperator, pts, n: int, step: int = 1,
                     start: int = 0, rows: int | None = None):
    """Yield, in (rows, |t|) blocks, the partial sums
    sum_{j=0}^{i-1} log2 w(alpha^{start + j*step}(t)) for i = 1..n,
    compensated, elementwise in t, summed in walk order; one weight call
    per block.  ``rows`` defaults to :func:`_block_rows` of |t|."""
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    acc = KahanSum(pts.shape)
    for block in homeo_orbit_blocks(op.alpha, pts, n,
                                    rows or _block_rows(pts.size), step,
                                    start):
        logs = op.log2_weight(block)
        acc.add_rows(logs)
        yield logs


def _orbit_log2(op: CompositionOperator, pts, n: int, step: int = 1,
                start: int = 0) -> np.ndarray:
    """sum_{j=0}^{n-1} log2 w(alpha^{start + j*step}(t)): the last row of
    :func:`_orbit_log2_rows` (zeros when n = 0)."""
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


class CocycleSweep:
    """Incremental forward/backward log-products over a fixed point set.

    After n calls to :meth:`step`, ``log_forward[i]`` equals
    ``forward_log2(op, pts, n)[i]`` bit for bit (the same orbit points,
    summed in the same order), and likewise for the backward side;
    ``forward_positions`` holds alpha^n(pts), the argument of f in the
    closed form of T^n.
    """

    def __init__(self, op: CompositionOperator, pts):
        self.op = op
        self.base = np.atleast_1d(np.asarray(pts, dtype=float)).copy()
        self._fwd = KahanSum(self.base.shape)
        self._bwd = KahanSum(self.base.shape)
        self._fwd_walk = homeo_orbit(op.alpha, self.base)
        self._bwd_walk = homeo_orbit(op.alpha, self.base, -1, -1)
        self._fwd_pos = next(self._fwd_walk)
        self._bwd_pos = self.base

    def step(self):
        self._fwd.add(self.op.log2_weight(self._fwd_pos))
        self._fwd_pos = next(self._fwd_walk)
        self._bwd_pos = next(self._bwd_walk)
        self._bwd.add(self.op.log2_weight(self._bwd_pos))

    @property
    def log_forward(self) -> np.ndarray:
        return self._fwd.total

    @property
    def log_backward(self) -> np.ndarray:
        return self._bwd.total

    @property
    def forward_positions(self) -> np.ndarray:
        return self._fwd_pos

    @property
    def backward_positions(self) -> np.ndarray:
        return self._bwd_pos


def scale_by_exp2(logs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """2**logs * vals with zeros kept exact (no 0 * inf artifacts)."""
    out = np.zeros(vals.shape, dtype=vals.dtype)
    nz = vals != 0
    if nz.any():
        out[nz] = np.exp2(logs[nz]) * vals[nz]
    return out


def _loses_mass(f: GridFunction, images: np.ndarray) -> bool:
    """True iff f is nonzero at a grid point outside [min, max] of the
    points it is read at: for a monotone map that interval is the image of
    the grid, and f's values outside it never reach the result."""
    pts = f.grid.points
    outside = (pts < images.min()) | (pts > images.max())
    return bool(np.any(f.values[outside] != 0))


def apply_T(op: CompositionOperator, f: GridFunction) -> GridFunction:
    """(T f)(t) = w(t) * f(alpha(t)) on the grid."""
    return apply_Tn(op, f, 1)


def apply_S(op: CompositionOperator, f: GridFunction) -> GridFunction:
    """(S f)(t) = f(alpha^{-1}(t)) / w(alpha^{-1}(t)); S inverts T."""
    return apply_Sn(op, f, 1)


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


def segal_compatible(op: CompositionOperator, tau: PiecewiseMap, grid,
                     tol: float = 1e-9) -> bool:
    """True iff max over grid points of |tau(alpha(t)) - tau(t)| <= tol."""
    pts = grid.points
    moved = homeo_power(op.alpha, pts, 1)
    return bool(np.max(np.abs(tau(moved) - tau(pts))) <= tol)

