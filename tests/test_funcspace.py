import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lindyn.errors import (
    DivergentSegalNormError,
    GridMismatchError,
    NonInvertibleError,
)
from lindyn.funcspace import (
    Grid,
    GridFunction,
    L2,
    PiecewiseAffineHomeo,
    PiecewiseMap,
    SUP,
    SegalNorm,
    Translation,
    exit_time,
    homeo_from_spec,
    homeo_orbit,
    homeo_orbit_blocks,
    homeo_power,
    linear_interpolate,
    norm,
    row_norms,
    triangular_bump,
)
from lindyn.presets import _TelescopingWeight
from oracles import identity_homeo, rectangular_bump, restrict, shifted

RNG = np.random.default_rng(20260809)


def random_function(grid, rng=RNG, complex_valued=True):
    vals = rng.standard_normal(grid.size)
    if complex_valued:
        vals = vals + 1j * rng.standard_normal(grid.size)
    return GridFunction(grid, vals)


class TestGrid:
    def test_points_symmetric_and_integer_aligned(self):
        grid = Grid(4.0, 0.25)
        assert grid.size == 33
        assert grid.points[0] == -4.0 and grid.points[-1] == 4.0
        assert set(grid.integer_points) == {-4, -3, -2, -1, 0, 1, 2, 3, 4}

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            Grid(4.0, 0.3)  # 1/h not integer
        with pytest.raises(ValueError):
            Grid(4.1, 0.25)  # L/h not integer
        with pytest.raises(ValueError):
            Grid(-1.0, 0.25)

    def test_index_of(self):
        grid = Grid(4.0, 0.25)
        assert grid.index_of(-4.0) == 0
        assert grid.index_of(0.25) == 17
        with pytest.raises(GridMismatchError):
            grid.index_of(0.1)

    def test_non_integer_half_width(self):
        grid = Grid(2.5, 0.5)
        assert set(grid.integer_points) == {-2, -1, 0, 1, 2}

    def test_equality_and_hash(self):
        assert Grid(8, 0.25) == Grid(8.0, 0.25)
        assert hash(Grid(8, 0.25)) == hash(Grid(8.0, 0.25))
        assert Grid(8.0, 0.25) != Grid(8.0, 0.5)
        assert Grid(8.0, 0.25) != (8.0, 0.25)


class TestPiecewiseMap:
    def test_constant_map(self):
        assert PiecewiseMap.constant(2.0)(-7.3) == 2.0
        # node values are real: a complex one is refused, not truncated
        with pytest.raises(ValueError, match="real"):
            PiecewiseMap.constant(2.0 + 1j)
        with pytest.raises(ValueError, match="real"):
            PiecewiseMap([0.0, 1.0], [1.0, 0.5j], positive=False)

    def test_bridge_weight_value(self):
        # left level M = 4, right level 1 + delta = 2: midpoint is 3
        w = PiecewiseMap([-1.0, 1.0], [4.0, 2.0], positive=True)
        assert w(0.0) == 3.0

    def test_ramp_midpoint(self):
        ramp = PiecewiseMap([-1.0, 1.0], [2.0, 1.0])
        assert ramp(0.0) == 1.5

    def test_constant_tails(self):
        pm = PiecewiseMap([-1.0, 1.0], [2.0, 1.0])
        assert pm(-100.0) == 2.0 and pm(100.0) == 1.0

    def test_positive_flag_validation(self):
        with pytest.raises(ValueError):
            PiecewiseMap([0.0], [0.0], positive=True)
        with pytest.raises(ValueError):
            PiecewiseMap([0.0], [1.0], left_slope=1.0, positive=True)

    def test_non_finite_gap_or_slope_refused(self):
        # np.interp's slope overflows between nodes 2.2e-308 apart (the map
        # read inf at 0.0), and the gap between +-1e308 overflows (the map
        # read 1.0 at 0.0)
        for nodes, vals, kw in (
                ([-2.2250738585072014e-308, 2.225073858507e-311, 1.0],
                 [1.0, 6.0, 1.0], {"positive": True}),
                ([-1e308, 1e308], [1.0, 3.0], {}),
                ([0.0], [1.0], {"left_slope": np.inf})):
            with pytest.raises(ValueError, match="gap and slope"):
                PiecewiseMap(nodes, vals, **kw)
        tiny = PiecewiseMap([0.0, 1e-300], [1.0, 2.0])
        assert tiny(5e-301) == pytest.approx(1.5)

    def test_shifted(self):
        pm = PiecewiseMap([-1.0, 1.0], [2.0, 1.0])
        sh = shifted(pm, 3.0)
        for t in (-5.0, 0.0, 2.5, 4.0):
            assert sh(t + 3.0) == pm(t)


# how far a weight's float evaluation may stray past its exact range, as a
# share of its largest size there: the slack operators._EVAL_SLACK grants
EVAL_SLACK = 2.0 ** -40


def bounds_samples(weight, lo: float, hi: float, nodes) -> np.ndarray:
    """The weight at 2001 points spread over [lo, hi], an infinite end
    clipped far past the nodes, and at the nodes inside and the finite
    ends."""
    far = 1e3 + float(np.abs(nodes).max())
    a = lo if lo > -np.inf else min(-far, hi)
    b = hi if hi < np.inf else max(far, a)
    xs = np.linspace(a, b, 2001)
    inside = nodes[(nodes >= lo) & (nodes <= hi)]
    ends = [x for x in (lo, hi) if abs(x) < np.inf]
    return np.asarray(weight(np.concatenate((xs, inside, ends))))


def check_bounds(weight, lo, hi, nodes, tails):
    """(inf, sup) = weight.bounds(lo, hi) holds every sampled value, up to
    the evaluation slack, and is reached by one of them, or by the tail's
    limit ``tails`` = (at -inf, at +inf) on an infinite side."""
    assume(not lo == hi == np.copysign(np.inf, lo))  # no point at all
    inf, sup = weight.bounds(lo, hi)
    vals = bounds_samples(weight, lo, hi, nodes)
    assert inf <= sup
    size = max(abs(inf), abs(sup))
    slack = EVAL_SLACK * size if size < np.inf else 0.0
    assert vals.min() >= inf - slack and vals.max() <= sup + slack
    limits = [t for t, end in zip(tails, (lo, hi)) if abs(end) == np.inf]
    reached = np.concatenate((vals, limits))
    low, top = reached.min(), reached.max()
    assert low == inf or low - inf <= slack
    assert top == sup or sup - top <= slack
    return inf, sup


@st.composite
def maps_and_intervals(draw, positive: bool):
    """A PiecewiseMap and an interval [lo, hi]: ends at nodes, between
    them, beyond them or infinite; degenerate ones and ones inside one
    piece included."""
    nodes = sorted(set(draw(st.lists(st.floats(-50, 50), min_size=1,
                                     max_size=8))))
    value = st.floats(0.01, 100) if positive else st.floats(-100, 100)
    vals = [draw(value) for _ in nodes]
    slope = st.just(0.0) if positive else st.sampled_from([0.0, 0.5, -2.0])
    try:
        pm = PiecewiseMap(nodes, vals, draw(slope), draw(slope),
                          positive=positive)
    except ValueError:  # nodes so close that a slope overflows
        assume(False)
    end = st.one_of(st.sampled_from([-np.inf, np.inf]),
                    st.sampled_from(nodes), st.floats(-80, 80))
    kind = draw(st.sampled_from(["any", "point", "piece"]))
    if kind == "point":
        lo = hi = draw(st.one_of(st.sampled_from(nodes), st.floats(-80, 80)))
    elif kind == "piece" and len(nodes) > 1:
        i = draw(st.integers(0, len(nodes) - 2))
        lo, hi = sorted(draw(st.floats(nodes[i], nodes[i + 1]))
                        for _ in range(2))
    else:
        lo, hi = sorted((draw(end), draw(end)))
    return pm, lo, hi


class TestBounds:
    """``bounds(lo, hi)`` is the inf and sup of a weight on an interval,
    ends possibly infinite: every value there lies within them, and they
    are reached, or are a tail's limit."""

    @settings(max_examples=300, deadline=None)
    @given(maps_and_intervals(positive=True))
    def test_positive_maps(self, case):
        pm, lo, hi = case
        check_bounds(pm, lo, hi, pm.breakpoints,
                     (pm.values[0], pm.values[-1]))

    @settings(max_examples=300, deadline=None)
    @given(maps_and_intervals(positive=False))
    def test_maps_with_slopes(self, case):
        pm, lo, hi = case
        tails = [v if slope == 0 else np.copysign(np.inf, sign * slope)
                 for v, slope, sign in ((pm.values[0], pm.left_slope, -1),
                                        (pm.values[-1], pm.right_slope, 1))]
        check_bounds(pm, lo, hi, pm.breakpoints, tails)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0.0, 1.0, 0.3, -2.5]),
           st.lists(st.one_of(st.sampled_from([-np.inf, np.inf]),
                              st.floats(-60, 6),
                              st.integers(-60, 6).map(float)),
                    min_size=2, max_size=2))
    def test_telescoping_weight(self, shift, ends):
        # 1/2 from shift on, (k+1)/k at shift - k, towards 1 at -inf
        w = _TelescopingWeight(shift)
        lo, hi = sorted(ends)
        nodes = shift - np.arange(0.0, 70.0)
        inf, sup = check_bounds(w, lo, hi, nodes, (1.0, 0.5))
        if lo <= shift - 1.0 <= hi:
            assert sup == 2.0

    def test_examples(self):
        pm = PiecewiseMap([-1.0, 0.0, 2.0], [2.0, 0.5, 3.0], positive=True)
        assert pm.bounds(-np.inf, np.inf) == (0.5, 3.0)
        assert pm.bounds(-np.inf, -1.0) == (2.0, 2.0)
        assert pm.bounds(-0.5, -0.5) == (1.25, 1.25)
        assert pm.bounds(0.5, 1.0) == (1.125, 1.75)
        slopes = PiecewiseMap([0.0], [1.0], left_slope=1.0, right_slope=1.0)
        assert slopes.bounds(-np.inf, 0.0) == (-np.inf, 1.0)
        assert slopes.bounds(0.0, np.inf) == (1.0, np.inf)
        w = _TelescopingWeight()
        assert w.bounds(-np.inf, -2.0) == (1.0, 1.5)
        assert w.bounds(-3.0, 5.0) == (0.5, 2.0)
        assert w.bounds(0.0, np.inf) == (0.5, 0.5)


class TestHomeo:
    def test_translation_examples(self):
        assert homeo_power(Translation(-1.0), 0.0, 1) == -1.0
        assert homeo_power(Translation(1.0), 0.0, -1) == -1.0
        assert homeo_power(identity_homeo(), 3.5, 1) == 3.5

    def test_translation_requires_nonzero_shift(self):
        with pytest.raises(ValueError):
            Translation(0.0)
        for shift in (True, "1", None, np.nan, np.inf, -np.inf, 10 ** 400):
            with pytest.raises(ValueError, match="finite real"):
                Translation(shift)

    def test_piecewise_affine_inverse(self):
        fwd = PiecewiseMap([-1.0, 1.0], [-2.0, 3.0], 0.5, 2.0)
        h = PiecewiseAffineHomeo(fwd)
        for t in np.linspace(-20, 20, 41):
            assert homeo_power(h, homeo_power(h, t, 1), -1) == \
                pytest.approx(t, abs=1e-12)

    def test_decreasing_homeo(self):
        fwd = PiecewiseMap([0.0], [0.0], -1.0, -1.0)  # t -> -t
        h = PiecewiseAffineHomeo(fwd)
        assert homeo_power(h, 2.0, 1) == -2.0
        assert homeo_power(h, -2.0, -1) == 2.0

    def test_non_invertible_rejected(self):
        flat = PiecewiseMap([-1.0, 1.0], [0.0, 0.0])
        with pytest.raises(NonInvertibleError):
            PiecewiseAffineHomeo(flat)
        bump = PiecewiseMap([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], 1.0, 1.0)
        with pytest.raises(NonInvertibleError):
            PiecewiseAffineHomeo(bump)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-100.0, 100.0),
           st.floats(-5.0, 5.0).filter(lambda c: abs(c) > 1e-3))
    def test_translation_round_trip(self, t, c):
        a = Translation(c)
        back = homeo_power(a, homeo_power(a, t, 1), -1)
        assert abs(back - t) <= 1e-12 * max(1.0, abs(t))

    def test_round_trip_piecewise_many_points(self):
        fwd = PiecewiseMap([-2.0, 0.0, 1.5], [-3.0, 0.5, 4.0], 1.5, 0.25)
        h = PiecewiseAffineHomeo(fwd)
        ts = RNG.uniform(-50, 50, size=1000)
        back = homeo_power(h, homeo_power(h, ts, 1), -1)
        assert np.max(np.abs(back - ts)) <= 1e-12 * 50

    def test_homeo_power_translation_closed_form(self):
        a = Translation(-1.0)
        assert homeo_power(a, 0.0, 5) == -5.0
        assert homeo_power(a, 0.0, -5) == 5.0

    def test_homeo_orbit_translation_closed_form(self):
        a = Translation(0.3)
        walk = list(islice(homeo_orbit(a, 0.0), 11))
        assert walk[10] == 3.0
        drift = 0.0
        for _ in range(10):
            drift += 0.3
        assert drift != 3.0  # iterated addition would not give 3.0
        back = list(islice(homeo_orbit(a, 0.0, -1, -1), 10))
        assert back == [-k * 0.3 for k in range(1, 11)]

    @pytest.mark.parametrize("shift", [1e308, np.float64(-1e308)])
    def test_huge_shift_overflows_quietly(self, shift):
        # k*shift leaves the float range at k = 2; the closed forms give
        # +-inf there, which a weight reads as its tail, with no warning
        a, ts = Translation(shift), np.array([-1.0, 0.0, 2.0])
        inf = np.copysign(np.inf, shift)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(homeo_power(a, ts, 3) == inf)
            walk = list(islice(homeo_orbit(a, ts), 4))
            [block] = homeo_orbit_blocks(a, ts, 4, 4)
        assert np.array_equal(np.stack(walk), block)
        assert np.all(block[2:] == inf)

    def test_homeo_orbit_piecewise_matches_powers(self):
        fwd = PiecewiseMap([-2.0, 0.0, 1.5], [-3.0, 0.5, 4.0], 1.5, 0.25)
        h = PiecewiseAffineHomeo(fwd)
        ts = np.linspace(-6.0, 6.0, 25)
        # walks that never turn back are bit-identical to the powers
        for step, start in ((1, 0), (-1, -1), (1, 3), (2, 1), (-3, -2)):
            walk = islice(homeo_orbit(h, ts, step, start), 5)
            for j, pts in enumerate(walk):
                assert np.array_equal(
                    pts, homeo_power(h, ts, start + j * step))

    def test_from_spec(self):
        b = homeo_from_spec({"kind": "translation", "shift": -1.0})
        assert isinstance(b, Translation) and b.shift == -1.0
        h2 = homeo_from_spec({"kind": "piecewise_affine", "breakpoints": [0.0],
                              "values": [0.0], "left_slope": 1.0,
                              "right_slope": 1.0})
        assert homeo_power(h2, 1.25, 1) == 1.25


def first_row_beyond(a, t, hull, n, step=1, start=0):
    """The first row i < n from which every point of the walk's rows i..n-1
    lies beyond the hull on one side, by scanning the rows; None if none."""
    lo, hi = hull
    rows = np.stack(list(islice(homeo_orbit(a, np.asarray(t, float), step,
                                            start), n)))
    for side in (rows >= hi, rows <= lo):
        done = side.all(axis=1)
        if done[-1]:
            return int(n - np.argmin(done[::-1]) if not done.all() else 0)
    return None


class TestExitTime:
    def test_translation_closed_form(self):
        pts = np.linspace(-5.0, 5.0, 41)
        assert exit_time(Translation(-1.0), pts, (-5.0, 5.0), 100) == (10,
                                                                      -5.0)
        assert exit_time(Translation(0.5), [-1.0, 1.0], (-1.0, 1.0),
                         100) == (4, 1.0)
        # the backward walk from k = -1 of ex3.8's window, right tail at 0
        assert exit_time(Translation(-1.0), pts, (-np.inf, 0.0), 100, -1,
                         -1) == (4, 0.0)
        # already beyond, no row below n, and no edge on the side of travel
        assert exit_time(Translation(1.0), [3.0], (-1.0, 1.0), 5) == (0, 1.0)
        assert exit_time(Translation(-1.0), pts, (-5.0, 5.0), 10) is None
        assert exit_time(Translation(-1.0), pts, (-np.inf, 0.0), 100) is None
        # a walk with step 0 stands still
        assert exit_time(Translation(1.0), [3.0], (-1.0, 1.0), 5, 0) is None

    @pytest.mark.parametrize("shift", [0.3, -0.3, 1.0, -0.75, 1e308])
    @pytest.mark.parametrize("step, start", [(1, 0), (-1, -1), (1, 7),
                                             (-1, 5)])
    def test_translation_matches_the_scanned_rows(self, shift, step, start):
        # settled on the floats the walk computes, non-dyadic shifts and
        # an overflow to +-inf included
        a = Translation(shift)
        pts = Grid(2.0, 0.25).points
        for hull in ((-1.0, 1.0), (-2.1, 0.7), (-np.inf, 3.3), (0.1, np.inf)):
            with np.errstate(over="ignore"):
                want = first_row_beyond(a, pts, hull, 60, step, start)
            got = exit_time(a, pts, hull, 60, step, start)
            right = step * shift > 0
            if want is None or not np.isfinite(hull[right]):
                assert got is None
            else:
                assert got == (want, hull[right])

    def test_piecewise_walk(self):
        h = PiecewiseAffineHomeo(PiecewiseMap([0.0], [2.0], 1.0, 1.0))
        assert exit_time(h, [-1.0, 1.0], (-1.0, 1.0), 50) == (1, 1.0)
        assert exit_time(h, [-1.0, 1.0], (-1.0, 1.0), 50, -1, 0) == (1, -1.0)
        # F(x) - x < 0 everywhere: forward walks go left and backward walks
        # go right, each certified
        a = PiecewiseAffineHomeo(PiecewiseMap([-2.0, 0.0, 2.0],
                                              [-3.0, -1.5, 1.0], 1.0, 1.0))
        pts = Grid(2.0, 0.25).points
        for step, start, edge in ((1, 0, -1.0), (-1, -1, 1.0)):
            want = first_row_beyond(a, pts, (-1.0, 1.0), 40, step, start)
            assert exit_time(a, pts, (-1.0, 1.0), 40, step, start) == (
                want, edge)

    def test_uncertified_maps(self):
        pts = np.linspace(-1.0, 1.0, 9)
        # the identity, a fixed point at 3 on the side of travel, and a
        # decreasing map
        fixed = PiecewiseAffineHomeo(PiecewiseMap([0.0, 3.0], [1.0, 3.0],
                                                  1.0, 2.0))
        flip = PiecewiseAffineHomeo(PiecewiseMap([0.0], [0.0], -1.0, -1.0))
        for a in (identity_homeo(), fixed, flip):
            assert exit_time(a, pts, (-2.0, 2.0), 200) is None
        # a tail slope below 1 turns F(x) - x negative far out: no
        # certificate, though these points would cross
        slow = PiecewiseAffineHomeo(PiecewiseMap([0.0, 10.0], [1.0, 11.0],
                                                 1.0, 0.5))
        assert first_row_beyond(slow, pts, (-2.0, 2.0), 20) == 3
        assert exit_time(slow, pts, (-2.0, 2.0), 20) is None

    def test_expanding_walk_overflows(self):
        # doubling past 1 reaches +inf, which stays beyond
        a = PiecewiseAffineHomeo(PiecewiseMap([0.0, 1.0], [1.0, 2.0],
                                              1.0, 2.0))
        with np.errstate(over="ignore"):
            assert exit_time(a, [0.0, 0.5], (-1.0, 1e300), 2000) == (
                first_row_beyond(a, [0.0, 0.5], (-1.0, 1e300), 2000), 1e300)


class TestNorms:
    grid = Grid(4.0, 0.25)

    def test_zero_function_all_kinds(self):
        z = GridFunction.zero(self.grid)
        tau = PiecewiseMap.constant(2.0)  # sup|tau| >= 1, but f = 0
        for kind in (SUP, L2, SegalNorm(tau)):
            assert norm(z, kind) == 0.0

    def test_single_point_l2(self):
        grid = Grid(2.0, 0.5)
        vals = np.zeros(grid.size)
        vals[grid.index_of(0.0)] = 1.0
        f = GridFunction(grid, vals)
        assert norm(f, L2) == pytest.approx(np.sqrt(0.5), rel=1e-15)

    def test_segal_half_tau_bump(self):
        f = triangular_bump(self.grid, 0.0, 1.0)
        kind = SegalNorm(PiecewiseMap.constant(0.5))
        assert abs(norm(f, kind) - 2.0) <= 1e-9

    def test_segal_divergence(self):
        f = triangular_bump(self.grid, 0.0, 1.0)
        with pytest.raises(DivergentSegalNormError):
            norm(f, SegalNorm(PiecewiseMap.constant(1.0)))

    def test_segal_dominates_sup(self):
        tau = PiecewiseMap([-2.0, 0.0, 2.0], [0.1, 0.7, 0.3])
        kind = SegalNorm(tau)
        for _ in range(50):
            f = random_function(self.grid)
            assert norm(f, kind) >= norm(f, SUP)

    def test_homogeneity_and_triangle(self):
        tau = PiecewiseMap.constant(0.5)
        kinds = (SUP, L2, SegalNorm(tau))
        for _ in range(25):
            f = random_function(self.grid)
            g = random_function(self.grid)
            c = complex(RNG.standard_normal(), RNG.standard_normal())
            for kind in kinds:
                nf, ng = norm(f, kind), norm(g, kind)
                assert norm(c * f, kind) == pytest.approx(abs(c) * nf,
                                                          rel=1e-12)
                slack = 1e-12 * (nf + ng) + 2e-9
                assert norm(f + g, kind) <= nf + ng + slack

    def test_norm_is_the_one_row_case(self):
        # a block reduction gives each row the bits of its own norm call
        rng = np.random.default_rng(7)
        block = np.array([random_function(self.grid, rng).values
                          for _ in range(7)])
        for kind in (SUP, L2, SegalNorm(PiecewiseMap.constant(0.5))):
            ref = [norm(GridFunction(self.grid, r), kind) for r in block]
            assert row_norms(block, kind, self.grid).tolist() == ref
        with pytest.raises(TypeError):
            row_norms(block, "L1", self.grid)

    def test_solidity(self):
        for _ in range(25):
            f = random_function(self.grid)
            shrink = RNG.uniform(0.0, 1.0, self.grid.size)
            g = GridFunction(self.grid, f.values * shrink)
            assert norm(g, SUP) <= norm(f, SUP)
            assert norm(g, L2) <= norm(f, L2)


class TestRestrictAndInterpolate:
    grid = Grid(4.0, 0.25)

    def test_full_and_empty_mask(self):
        f = random_function(self.grid)
        assert np.array_equal(restrict(f, range(self.grid.size)).values,
                              f.values)
        assert restrict(f, []).is_zero

    def test_block_restriction_quadrature_count(self):
        f = rectangular_bump(self.grid, -1.0, 1.0, 1.0)
        mask = [i for i, t in enumerate(self.grid.points) if 0.0 <= t <= 1.0]
        r = restrict(f, mask)
        assert norm(r, SUP) == 1.0
        assert norm(r, L2) ** 2 == pytest.approx(
            self.grid.step * len(mask), rel=1e-15)

    def test_interpolation(self):
        f = random_function(self.grid)
        i = 7
        assert linear_interpolate(f, self.grid.points[i]) == f.values[i]
        assert linear_interpolate(f, 5.7) == 0.0
        vals = np.zeros(self.grid.size)
        vals[3] = 0.0
        vals[4] = 4.0
        g = GridFunction(self.grid, vals)
        mid = 0.5 * (self.grid.points[3] + self.grid.points[4])
        assert linear_interpolate(g, mid) == 2.0 + 0.0j

    def test_grid_translation_is_exact(self):
        # shifting by a multiple of h re-reads stored values exactly
        f = random_function(self.grid)
        pts = self.grid.points[:-8]
        shifted = linear_interpolate(f, pts + 8 * self.grid.step)
        assert np.array_equal(shifted, f.values[8:])


class TestGridFunctionIO:
    def test_grid_mismatch_errors(self):
        f = random_function(Grid(2.0, 0.25))
        g = random_function(Grid(2.0, 0.5))
        with pytest.raises(GridMismatchError):
            _ = f + g
