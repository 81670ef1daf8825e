import math
from itertools import accumulate

import numpy as np
import pytest

from lindyn.criteria import (
    SATISFIED,
    CompactWindow,
    CriterionKind,
    evaluate,
)
from lindyn.funcspace import (
    Grid,
    GridFunction,
    PiecewiseAffineHomeo,
    PiecewiseMap,
    SUP,
    Translation,
    exit_time,
    homeo_orbit_blocks,
    homeo_power,
    norm,
    triangular_bump,
)
from lindyn.operators import (
    _Lattice,
    _block_rows,
    _orbit_log2_rows,
    _sum2_rows,
    CocycleSweep,
    CompositionOperator,
    segal_compatible,
)
from lindyn.presets import DEFAULT_GRID, build_preset
from oracles import (
    SEAM_POINTS,
    apply_Sn,
    apply_Tn,
    backward_log2,
    cocycle,
    forward_log2,
    identity_homeo,
    seam_cases,
    shifted,
    sum2_rows_real,
    value_at,
)

RNG = np.random.default_rng(42)
GRID = Grid(16.0, 0.25)

OP_DOUBLE = CompositionOperator(Translation(-1.0),
                                PiecewiseMap.constant(2.0, positive=True))
OP_ID = CompositionOperator(identity_homeo(),
                            PiecewiseMap.constant(1.0, positive=True))

# varies along every orbit a seam test walks, so a row read from the wrong
# orbit point differs
_BP = np.linspace(-3200.0, 3200.0, 6401)
SEAM_WEIGHT = PiecewiseMap(_BP, 1.0 + 0.5 * np.sin(1.3 * _BP), positive=True)


def interior_function(grid=GRID, margin=4.0, complex_valued=True):
    t = grid.points
    vals = RNG.standard_normal(grid.size)
    if complex_valued:
        vals = vals + 1j * RNG.standard_normal(grid.size)
    return GridFunction(grid, vals * (np.abs(t) <= grid.half_width - margin))


class TestApply:
    def test_identity_operator(self):
        f = interior_function()
        assert np.array_equal(apply_Tn(OP_ID, f, 1).values, f.values)
        assert np.array_equal(apply_Sn(OP_ID, f, 1).values, f.values)

    def test_doubling_shift_moves_bump(self):
        f = triangular_bump(GRID, 0.0, 0.5)
        tf = apply_Tn(OP_DOUBLE, f, 1)
        assert value_at(tf, 1.0) == 2.0
        assert norm(tf, SUP) == 2.0

    def test_preset_weight_read(self):
        op = build_preset("ex3.8")
        f = triangular_bump(GRID, 0.0, 0.5)
        assert value_at(apply_Tn(op, f, 1), 1.0) == 0.5

    def test_inverse_identity_bitwise(self):
        f = interior_function()
        assert np.array_equal(
            apply_Sn(OP_DOUBLE, apply_Tn(OP_DOUBLE, f, 1), 1).values, f.values)
        assert np.array_equal(
            apply_Tn(OP_DOUBLE, apply_Sn(OP_DOUBLE, f, 1), 1).values, f.values)

    def test_inverse_bump(self):
        f = triangular_bump(GRID, 1.0, 0.5)
        sf = apply_Sn(OP_DOUBLE, f, 1)
        assert value_at(sf, 0.0) == 0.5


class TestCocycle:
    def test_constant_weight(self):
        assert cocycle(OP_DOUBLE, 10, 3.7) == 1024.0

    def test_telescoping_forward(self):
        op = build_preset("ex3.8")
        assert cocycle(op, 5, 0.0) == pytest.approx(2.5, rel=1e-14)

    def test_bridge_backward(self):
        op = build_preset("ex3.6")
        assert cocycle(op, 3, 0.0, "backward") == pytest.approx(0.125,
                                                                rel=1e-14)

    def test_cocycle_identity(self):
        op = build_preset("ex3.5")
        for _ in range(200):
            m = int(RNG.integers(1, 20))
            n = int(RNG.integers(1, 20))
            t = float(RNG.uniform(-8, 8))
            lhs = cocycle(op, m + n, t)
            mid = float(homeo_power(op.alpha, t, m))
            rhs = cocycle(op, m, t) * cocycle(op, n, mid)
            assert abs(lhs / rhs - 1.0) <= 1e-10


class TestSweepMatchesOracles:
    """The incremental sweep and the one-shot legs walk the same orbit in
    the same order, so they agree bit for bit, not just to rounding."""

    WEIGHT = PiecewiseMap([-3.0, 0.0, 2.0], [0.5, 1.5, 0.75], positive=True)
    OPS = {
        "shift-0.3": CompositionOperator(Translation(0.3), WEIGHT),
        "shift-1": CompositionOperator(Translation(-1), WEIGHT),
        "piecewise": CompositionOperator(PiecewiseAffineHomeo(
            PiecewiseMap([-1.0, 1.0], [-2.5, 0.5], 1.0, 1.0)), WEIGHT),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_legs_and_positions(self, name):
        op = self.OPS[name]
        pts = Grid(4.0, 0.25).points
        sweep = CocycleSweep(op, pts)
        for n in range(1, 41):
            sweep.step()
            if n not in (1, 7, 40):
                continue
            assert np.array_equal(sweep.log_forward, forward_log2(op, pts, n))
            assert np.array_equal(sweep.log_backward,
                                  backward_log2(op, pts, n))
            assert np.array_equal(sweep.forward_positions,
                                  homeo_power(op.alpha, pts, n))
            assert np.array_equal(sweep.backward_positions,
                                  homeo_power(op.alpha, pts, -n))

    @pytest.mark.parametrize("name, points", seam_cases(sorted(OPS)))
    def test_block_rows_across_seams(self, name, points):
        # row n-1 of the lattice blocks is the sweep after n steps, on both
        # sides of each block seam; the weight varies along the whole walk
        op = CompositionOperator(self.OPS[name].alpha, SEAM_WEIGHT)
        pts = SEAM_POINTS[points]
        b = _block_rows(pts.size)
        horizon = 2 * b + 3
        fwd = list(_orbit_log2_rows(op, pts, horizon))
        bwd = list(_orbit_log2_rows(op, pts, horizon, -1, -1))
        assert [len(r) for r in fwd] == [b, b, 3]
        fwd, bwd = np.concatenate(fwd), np.concatenate(bwd)
        sweep = CocycleSweep(op, pts)
        for n in range(1, horizon + 1):
            sweep.step()
            if n in (b - 1, b, b + 1, horizon):
                assert np.array_equal(fwd[n - 1], sweep.log_forward)
                assert np.array_equal(bwd[n - 1], sweep.log_backward)
        assert np.array_equal(fwd[-1], forward_log2(op, pts, horizon))
        assert np.array_equal(bwd[-1], backward_log2(op, pts, horizon))


def fsum_prefixes(terms):
    """math.fsum(terms[:n, j]) for every n and column j.  Each running sum
    is kept exactly as an integer multiple of 1/D, D the largest of the
    terms' power-of-two denominators, and divided once, which rounds it
    correctly, as fsum does."""
    out = np.empty_like(terms)
    for j, col in enumerate(terms.T.tolist()):
        ratios = [x.as_integer_ratio() for x in col]
        den = max(d for _, d in ratios)
        sums = accumulate(num * (den // d) for num, d in ratios)
        out[:, j] = [total / den for total in sums]
    return out


class TestSum2Accuracy:
    """Every partial sum of a leg is within 1 ulp of the correctly rounded
    sum of its terms, over long non-dyadic orbits and across block seams."""

    H = 3000
    PTS = Grid(2.0, 0.25).points
    OPS = {
        "ex3.8": build_preset("ex3.8"),
        "ex3.6": build_preset("ex3.6"),
        "rem3.10": build_preset("rem3.10"),
        "seam": CompositionOperator(Translation(0.3), SEAM_WEIGHT),
    }

    @pytest.mark.parametrize("step", [1, -1])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_legs_within_an_ulp_of_fsum(self, name, step):
        op, pts, start = self.OPS[name], self.PTS, min(step, 0)
        legs = np.concatenate(list(_orbit_log2_rows(op, pts, self.H, step,
                                                    start)))
        terms = np.concatenate([op.log2_weight(b) for b in homeo_orbit_blocks(
            op.alpha, pts, self.H, _block_rows(pts.size), step, start)])
        ref = fsum_prefixes(terms)
        assert ref[-1, 0] == math.fsum(terms[:, 0])
        assert np.all(np.abs(legs - ref) <= np.abs(np.spacing(ref)))


# terms whose sums pin the sign of zero, infinities, NaN, subnormals and
# overflow midway through a column
SPECIAL_TERMS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                          -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
                          -1e308, 1.7976931348623157e308])


def bits(a: np.ndarray) -> np.ndarray:
    """The raw bits of a float array: -0.0 differs from 0.0 and every NaN
    payload counts."""
    return np.ascontiguousarray(a).view(np.int64)


class CountingWeight:
    """A positive weight that records how many points each call reads."""

    positive = True

    def __init__(self, weight):
        self.weight, self.sizes = weight, []

    def __call__(self, t):
        self.sizes.append(np.size(t))
        return self.weight(t)


def lattice_cases() -> list:
    """(operator, step, start, points, direct) for the lattice test, the
    weight varying along every walk; ``direct`` says that the walk has no
    lattice, so every block reads its position block.  The width-only ids
    walk the non-dyadic shift 0.3 backward over np.linspace(-2, 2,
    width)."""
    def op(shift, weight=SEAM_WEIGHT):
        return CompositionOperator(Translation(shift), weight)

    cases = [pytest.param(op(0.3), -1, -1, np.linspace(-2.0, 2.0, w), True,
                          id=str(w)) for w in (1, 2, 9, 10, 17)]
    grid = Grid(2.0, 0.25).points
    walks = ((1, 0), (-1, -1), (1, 1), (-1, 0))
    cases += [pytest.param(op(shift), step, start, grid, False,
                           id=f"shift{shift:+g}-walk{step:+d}{start:+d}")
              for shift in (1.0, -1.0, 0.5, -0.5, 0.75)
              for step, start in walks]
    uneven = np.array([-2.0, -1.75, -1.0, -0.25, 0.5, 1.75, 2.0])
    sets = {"reversed": grid[::-1], "uneven": uneven,
            "unsorted": uneven[[3, 0, 6, 1, 5, 2, 4]],
            **{f"seam-{name}": p for name, p in SEAM_POINTS.items()}}
    cases += [pytest.param(op(shift), step, start, p, False,
                           id=f"{name}-shift{shift:+g}-walk{step:+d}{start:+d}")
              for name, p in sets.items() for shift in (-1.0, 0.75)
              for step, start in walks[:2]]
    # the table outgrows a block of the 7-point set from 5 rows down under
    # a shift of 1.25, and every block under a shift of 8: those blocks
    # read their cells
    cases += [pytest.param(op(shift), step, start, uneven, False,
                           id=f"uneven-shift{shift:+g}-walk{step:+d}{start:+d}")
              for shift in (1.25, 8.0) for step, start in walks[:2]]
    # the quarter grid's guard is 2**52 quarters: 40 steps from k = 2**50
    # - 42 over [-2, 2] reach 2**50 - 1, just inside it, and from one k
    # later 2**50, just past it
    far = shifted(SEAM_WEIGHT, 2.0 ** 50)
    cases += [pytest.param(op(1.0, far), 1, 2 ** 50 - 42 + past, grid,
                           bool(past), id=f"guard-{'past' if past else 'in'}")
              for past in (0, 1)]
    cases.append(pytest.param(op(0.3), 1, 0, Grid(2.0, 0.2).points, True,
                              id="step0.2-shift+0.3"))
    return cases


class TestSum2Kernel:
    """The Sum2 pass on complex-paired columns gives the float64 reference
    pass's bits, carry included, on every input."""

    @staticmethod
    def terms(rng, rows, width):
        """Per column one regime: finite terms, signed zeros, subnormals,
        terms near the float maximum that overflow midway, or finite terms
        with a special term at a rate of 1/200.  Adjacent columns share a
        complex lane, so they mix regimes."""
        x = rng.standard_normal((rows, width)) * np.exp2(
            rng.integers(-40, 40, (rows, width)))
        regime = rng.integers(0, 5, width)
        for r, col in zip(regime.tolist(), x.T):
            if r == 1:
                col[:] = rng.choice([0.0, -0.0], rows)
            elif r == 2:
                col *= 2.0 ** -1060
            elif r == 3:
                col[:] = rng.choice(SPECIAL_TERMS[-3:], rows)
            elif r == 4:
                hit = rng.random(rows) < 0.005
                col[hit] = rng.choice(SPECIAL_TERMS, hit.sum())
        return x

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_real_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        width = 2 * int(rng.integers(1, 18))
        carry = tuple(rng.choice(SPECIAL_TERMS[:2], width) for _ in "se")
        ref = tuple(c.copy() for c in carry)
        for _ in range(3):
            rows = int(rng.integers(1, 1101))
            x = self.terms(rng, rows, width)
            x_ref = x.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                carry = _sum2_rows(x, *carry,
                                   np.empty((2 * rows + 1, width)))
                ref = sum2_rows_real(x_ref, *ref,
                                     np.empty((2 * rows + 1, width)))
            assert np.array_equal(bits(x), bits(x_ref))
            for c, c_ref in zip(carry, ref):
                assert c.shape == (width,)
                assert np.array_equal(bits(c), bits(c_ref))

    @pytest.mark.parametrize("op, step, start, pts, direct",
                             lattice_cases())
    def test_lattice_blocks_match_real_reference(self, op, step, start, pts,
                                                 direct):
        # the lattice pads an odd point set to even width; its blocks are
        # the reference pass over the unpadded logs of the position blocks,
        # across block seams, whether they read the translation's table or
        # the position blocks themselves
        carry = np.zeros(pts.size), np.zeros(pts.size)
        walk = homeo_orbit_blocks(op.alpha, pts, 40, 7, step, start)
        for got, orbit in zip(_orbit_log2_rows(op, pts, 40, step, start, 7),
                              walk, strict=True):
            logs = op.log2_weight(orbit)
            carry = sum2_rows_real(logs, *carry,
                                   np.empty((2 * len(logs) + 1, pts.size)))
            assert got.shape == logs.shape
            assert np.array_equal(bits(got), bits(logs))
        lattice = _Lattice.of(op.alpha, pts,
                              max(abs(start), abs(start + 39 * step)))
        assert (lattice is None or not lattice.reads(40, step, start)) \
            == direct

    @pytest.mark.parametrize("shift", [-1.0, 40.0])
    def test_weight_work_per_block(self, shift):
        # ex3.8's m = 2 window walks 4 lattice points per row under a unit
        # shift: each block's one weight call reads its 4*(rows-1) + 17
        # distinct points, not its rows*17 cells; a shift of 40 spreads
        # the table wider than the block, which then reads its cells
        weight = CountingWeight(build_preset("ex3.8").weight)
        op = CompositionOperator(Translation(shift), weight)
        pts = CompactWindow.from_grid(DEFAULT_GRID, 2.0).points
        for step, start in ((1, 0), (-1, -1)):
            weight.sizes.clear()
            heights = [len(b) for b in _orbit_log2_rows(op, pts, 18000, step,
                                                        start)]
            assert sum(heights) == 18000
            assert len(weight.sizes) == len(heights)
            for rows, seen in zip(heights, weight.sizes):
                assert seen <= rows * pts.size
                if shift == -1.0:
                    assert seen <= 4 * rows + pts.size


def warp(phi: PiecewiseMap, shift: float) -> PiecewiseAffineHomeo:
    """phi^-1 o (t -> t + shift) o phi, for an increasing piecewise-affine
    phi with a nonzero tail slope on each side: the conjugate of a
    translation, which is increasing and moves every point one way."""
    inv = PiecewiseAffineHomeo(phi).inverse_map
    nodes = np.union1d(phi.breakpoints, inv(phi.values - shift))
    return PiecewiseAffineHomeo(PiecewiseMap(nodes, inv(phi(nodes) + shift),
                                             1.0, 1.0))


BRIDGE = PiecewiseMap([-1.0, 1.0], [2.0, 1.0], positive=True)


def exit_cases() -> list:
    """(operator, points, horizon, exits) for the tail-fill test: whether
    the forward and the backward leg exit the weight's hull below the
    horizon.  Each certified walk crosses the hull's edge from a point
    inside it, where the weight differs from its tail value."""
    window = Grid(2.0, 0.25).points
    # alpha(x) - x < 0 everywhere, the map of the CI's inline config
    left = PiecewiseAffineHomeo(PiecewiseMap([-2.0, 0.0, 2.0],
                                             [-3.0, -1.5, 1.0], 1.0, 1.0))
    cases = [pytest.param(CompositionOperator(left, BRIDGE), window, 3000,
                          (True, True), id="left-mover")]
    for name, slopes in (("dyadic", (0.5, 2.0)), ("non-dyadic", (0.7, 3.0))):
        phi = PiecewiseMap([-1.5, 0.0, 2.5], [-2.0, 0.0, 1.0], *slopes)
        cases.append(pytest.param(CompositionOperator(warp(phi, -1.0),
                                                      BRIDGE),
                                  window, 3000, (True, True),
                                  id=f"warp-{name}"))
    # a fixed point at 0.5 inside the hull, a decreasing map: no
    # certificate, every row walked
    fixed = PiecewiseAffineHomeo(PiecewiseMap([0.0, 1.0], [-0.5, 1.0],
                                              1.0, 1.0))
    flip = PiecewiseAffineHomeo(PiecewiseMap([0.0], [0.5], -1.0, -1.0))
    cases += [pytest.param(CompositionOperator(a, BRIDGE), window, 1500,
                           (False, False), id=name)
              for name, a in (("fixed-point", fixed), ("decreasing", flip))]
    # doubling past 1 overflows to +inf after about 1024 rows, beyond the
    # hull [-1, 5], whose right tail 0.75 the overflowed points read
    expand = PiecewiseAffineHomeo(PiecewiseMap([0.0, 1.0], [1.0, 2.0],
                                               1.0, 2.0))
    cases.append(pytest.param(CompositionOperator(
        expand, PiecewiseMap([-1.0, 5.0], [2.0, 0.75], positive=True)),
        window, 1500, (True, True), id="overflow"))
    # translations, across block seams: the seven presets, whose
    # telescoping weights have no left tail for their forward legs, and
    # non-dyadic and huge shifts
    cases += [pytest.param(build_preset(name), window,
                           2 * _block_rows(window.size) + 3,
                           (name not in ("ex3.8", "rem3.10"), True), id=name)
              for name in ("ex3.5", "ex3.6", "ex3.7", "ex3.8", "rem3.10",
                           "ex4.3a", "ex4.3b")]
    cases += [pytest.param(CompositionOperator(Translation(shift), BRIDGE),
                           window, 3000, (True, True), id=f"shift{shift:g}")
              for shift in (0.3, -0.3, 1e308)]
    return cases


class TestExitFill:
    """Past a leg's exit time from the weight's hull, the rows hold the
    tail's log2 constant, unwalked; the legs are bit for bit the Sum2
    reference over the weight read at every walked position."""

    @pytest.mark.parametrize("op, pts, horizon, exits", exit_cases())
    def test_legs_match_the_walked_reference(self, op, pts, horizon, exits):
        rows = _block_rows(pts.size)
        for (step, start), exits_here in zip(((1, 0), (-1, -1)), exits):
            crossing = exit_time(op.alpha, pts, op.weight.hull, horizon,
                                 step, start)
            assert (crossing is not None) == exits_here, (step, start)
            with np.errstate(over="ignore"):
                walk = list(homeo_orbit_blocks(op.alpha, pts, horizon, rows,
                                               step, start))
            carry = np.zeros(pts.size), np.zeros(pts.size)
            got = _orbit_log2_rows(op, pts, horizon, step, start)
            for block, orbit in zip(got, walk, strict=True):
                logs = op.log2_weight(orbit)
                carry = sum2_rows_real(logs, *carry,
                                       np.empty((2 * len(logs) + 1,
                                                 pts.size)))
                assert np.array_equal(bits(block), bits(logs)), (step, start)

    def test_filled_blocks_read_no_weight(self):
        # ex3.8's backward leg crosses its weight's right edge 0 at row 1
        # on the m = 2 window: one weight call reads the edge for the tail
        # value and one the walked row; the forward leg, with no left
        # tail, reads one table per block
        class Tailed(CountingWeight):
            hull = build_preset("ex3.8").weight.hull

        weight = Tailed(build_preset("ex3.8").weight)
        op = CompositionOperator(Translation(-1.0), weight)
        pts = CompactWindow.from_grid(DEFAULT_GRID, 2.0).points
        assert exit_time(op.alpha, pts, weight.hull, 18000, -1, -1) == (1,
                                                                       0.0)
        blocks = list(_orbit_log2_rows(op, pts, 18000, -1, -1))
        assert weight.sizes == [1, pts.size]
        weight.sizes.clear()
        assert len(list(_orbit_log2_rows(op, pts, 18000))) == len(blocks)
        assert len(weight.sizes) == len(blocks)


class TestPowers:
    def test_zero_power(self):
        f = interior_function()
        assert apply_Tn(OP_DOUBLE, f, 0) is f

    def test_doubling_power(self):
        f = triangular_bump(GRID, 0.0, 0.5)
        t3 = apply_Tn(OP_DOUBLE, f, 3)
        assert value_at(t3, 3.0) == 8.0

    def test_power_equals_iteration_bitwise(self):
        for name in ("ex3.5", "ex3.6", "ex3.7"):
            op = build_preset(name)
            f = interior_function()
            cur = f
            for _ in range(6):
                cur = apply_Tn(op, cur, 1)
            assert np.array_equal(apply_Tn(op, f, 6).values, cur.values)

    def test_inverse_power_identity(self):
        op = build_preset("ex3.5")
        f = interior_function(margin=8.0)
        n = 5
        back = apply_Sn(op, apply_Tn(op, f, n), n)
        assert np.allclose(back.values, f.values, rtol=1e-13, atol=1e-15)
        # dyadic weight: identity is exact
        back2 = apply_Sn(OP_DOUBLE, apply_Tn(OP_DOUBLE, f, n), n)
        assert np.array_equal(back2.values, f.values)

    def test_sup_norm_formula(self):
        # ||T^n f||_inf = max_t |cocycle(n,t) f(alpha^n t)| (dyadic: exact)
        f = interior_function(margin=8.0)
        n = 6
        tf = apply_Tn(OP_DOUBLE, f, n)
        pts = GRID.points
        direct = np.abs(
            np.exp2(forward_log2(OP_DOUBLE, pts, n))
            * np.array([complex(x) for x in
                        np.interp(pts - n, pts, f.values.real)
                        + 1j * np.interp(pts - n, pts, f.values.imag)])
        )
        assert norm(tf, SUP) == direct.max()

    def test_sup_translation_invariance(self):
        f = interior_function(margin=6.0)
        shifted = apply_Tn(CompositionOperator(
            Translation(-2.0), PiecewiseMap.constant(1.0, positive=True)),
            f, 1)
        assert norm(shifted, SUP) == norm(f, SUP)


class TestSegalCompatible:
    def test_constant_tau(self):
        tau = PiecewiseMap.constant(0.5)
        assert segal_compatible(OP_DOUBLE, tau, GRID)

    def test_periodic_tau(self):
        # period-1 triangle wave: nodes at half integers
        xs = np.arange(-GRID.half_width - 1, GRID.half_width + 1.5, 0.5)
        ys = np.where(np.isclose(xs, np.round(xs)), 0.0, 0.4)
        tau = PiecewiseMap(xs, ys)
        op = build_preset("ex3.5")  # translation by -1
        assert segal_compatible(op, tau, GRID)

    def test_ramp_tau_incompatible(self):
        tau = PiecewiseMap([-1.0, 1.0], [0.0, 0.9])
        op = build_preset("ex3.5")
        assert not segal_compatible(op, tau, GRID)


class TestShiftPreset:
    """rem3.10, the forward shift e_j -> w_j e_{j+1}, as the composition
    operator f -> w(t-1) f(t-1); on a unit-step grid a tent of half-width
    1/2 at j is the coordinate vector e_j."""

    grid = Grid(10.0, 1.0)

    def test_preset_weights(self):
        op = build_preset("rem3.10")
        e0 = triangular_bump(self.grid, 0.0, 0.5)
        expect = 0.25 * triangular_bump(self.grid, 2.0, 0.5)
        assert np.array_equal(apply_Tn(op, e0, 2).values, expect.values)
        y = apply_Tn(op, triangular_bump(self.grid, -3.0, 0.5), 1)
        assert value_at(y, -2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_cocycle(self):
        # the shift's forward coefficient product 2^-n is the composition
        # operator's backward leg at 0, and the reciprocal backward one
        # 1/(n+1) its inverse forward leg
        op = build_preset("rem3.10")
        assert cocycle(op, 3, 0.0, "backward") == pytest.approx(0.125,
                                                                rel=1e-14)
        assert cocycle(op, 3, 0.0, "forward") == pytest.approx(4.0,
                                                               rel=1e-14)


class TestTruncation:
    """The flag reports mass of f that the operator never reads."""

    grid = Grid(8.0, 0.25)
    op = build_preset("ex3.5")  # translation by -1: reads f on [-9, 7]

    def edge_tent(self):
        # support (6.75, 7.75): away from the last grid point 8, but partly
        # right of 7, the largest point T reads
        return triangular_bump(self.grid, 7.25, 0.5)

    def test_apply_T_flags_lost_mass(self):
        f = self.edge_tent()
        tf = apply_Tn(self.op, f, 1)
        assert norm(tf, SUP) == 0.5 * norm(f, SUP)
        assert tf.truncated

    def test_apply_Tn_flags_lost_mass(self):
        tf = apply_Tn(self.op, self.edge_tent(), 5)
        assert tf.is_zero and tf.truncated

    def test_apply_S_flags_lost_mass(self):
        # S reads f on [-7, 9]; a tent at -7.25 loses its left part
        f = triangular_bump(self.grid, -7.25, 0.5)
        assert apply_Sn(self.op, f, 1).truncated
        assert apply_Sn(self.op, f, 3).truncated

    def test_interior_mass_not_flagged(self):
        f = triangular_bump(self.grid, 0.0, 1.0)
        assert not apply_Tn(self.op, f, 1).truncated
        assert not apply_Tn(self.op, f, 6).truncated
        assert not apply_Sn(self.op, f, 6).truncated
        # the last nonzero point 6.75 is still read by T, but not by T^2
        f = triangular_bump(self.grid, 6.0, 1.0)
        assert not apply_Tn(self.op, f, 1).truncated
        assert apply_Tn(self.op, f, 2).truncated

    def test_flag_is_sticky(self):
        # once lost, the mass stays lost under an operator that loses none
        tf = apply_Tn(self.op, self.edge_tent(), 1)
        assert not apply_Tn(OP_ID, triangular_bump(self.grid), 1).truncated
        assert apply_Tn(OP_ID, tf, 1).truncated


class TestWedge:
    WEDGE = [CriterionKind.WEDGE]

    def test_bridge_instance_satisfied(self):
        op = build_preset("ex3.6")
        window = CompactWindow.from_grid(GRID, 2.0)
        [verdict] = evaluate(self.WEDGE, op, window, 200, 1e-6)
        assert verdict.kind == "WEDGE" and verdict.status == SATISFIED

    def test_unit_weight_not_satisfied(self):
        op = CompositionOperator(Translation(-1.0),
                                 PiecewiseMap.constant(1.0, positive=True))
        window = CompactWindow.from_grid(GRID, 2.0)
        [verdict] = evaluate(self.WEDGE, op, window, 50, 1e-6)
        assert verdict.status != SATISFIED
        assert np.all(verdict.trace == 1.0)

    def test_constant_weight_cancels(self):
        window = CompactWindow.from_grid(GRID, 1.0)
        [verdict] = evaluate(self.WEDGE, OP_DOUBLE, window, 50, 1e-6)
        assert verdict.status != SATISFIED
        assert np.all(verdict.trace == 1.0)

    def test_window_follows_the_grid(self):
        # a step-0.5 grid gives the window its own nine points, not the
        # seventeen of a step-0.25 interval; WEDGE is the C0 supercyclic
        # quantity bit for bit
        op = build_preset("ex3.6")
        window = CompactWindow.from_grid(Grid(16.0, 0.5), 2.0)
        verdict, c0 = evaluate([CriterionKind.WEDGE,
                                CriterionKind.SUPERCYCLIC_C0], op, window, 40,
                               1e-6)
        assert window.points.size == 9
        for name in ("trace", "log2_trace", "records"):
            assert (getattr(verdict, name).tobytes()
                    == getattr(c0, name).tobytes()), name
        assert verdict.params["window_radius"] == 2.0
        narrow = CompactWindow.from_grid(Grid(16.0, 0.5), 0.5)
        with pytest.raises(ValueError):
            evaluate(self.WEDGE, op, narrow, 40, 1e-6)
