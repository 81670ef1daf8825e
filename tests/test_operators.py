import numpy as np
import pytest

from lindyn.criteria import (
    CompactWindow,
    CriterionKind,
    evaluate,
    wedge_condition,
)
from lindyn.funcspace import (
    Grid,
    GridFunction,
    PiecewiseAffineHomeo,
    PiecewiseMap,
    SUP,
    Translation,
    homeo_power,
    identity_homeo,
    norm,
    triangular_bump,
)
from lindyn.operators import (
    _block_rows,
    _orbit_log2_rows,
    CocycleSweep,
    CompositionOperator,
    apply_S,
    apply_Sn,
    apply_T,
    apply_Tn,
    backward_log2,
    cocycle,
    forward_log2,
    segal_compatible,
)
from lindyn.presets import build_preset

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
        assert np.array_equal(apply_T(OP_ID, f).values, f.values)
        assert np.array_equal(apply_S(OP_ID, f).values, f.values)

    def test_doubling_shift_moves_bump(self):
        f = triangular_bump(GRID, 0.0, 0.5)
        tf = apply_T(OP_DOUBLE, f)
        assert tf.value_at(1.0) == 2.0
        assert norm(tf, SUP) == 2.0

    def test_preset_weight_read(self):
        op = build_preset("ex3.8", depth=50)
        f = triangular_bump(GRID, 0.0, 0.5)
        assert apply_T(op, f).value_at(1.0) == 0.5

    def test_inverse_identity_bitwise(self):
        f = interior_function()
        assert np.array_equal(apply_S(OP_DOUBLE, apply_T(OP_DOUBLE, f)).values,
                              f.values)
        assert np.array_equal(apply_T(OP_DOUBLE, apply_S(OP_DOUBLE, f)).values,
                              f.values)

    def test_inverse_bump(self):
        f = triangular_bump(GRID, 1.0, 0.5)
        sf = apply_S(OP_DOUBLE, f)
        assert sf.value_at(0.0) == 0.5


class TestCocycle:
    def test_constant_weight(self):
        assert cocycle(OP_DOUBLE, 10, 3.7) == 1024.0

    def test_telescoping_forward(self):
        op = build_preset("ex3.8", depth=50)
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

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_block_rows_across_seams(self, name):
        # row n-1 of the lattice blocks is the sweep after n steps, on both
        # sides of each block seam; the weight varies along the whole walk
        op = CompositionOperator(self.OPS[name].alpha, SEAM_WEIGHT)
        pts = Grid(2.0, 0.5).points
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


class TestPowers:
    def test_zero_power(self):
        f = interior_function()
        assert apply_Tn(OP_DOUBLE, f, 0) is f

    def test_doubling_power(self):
        f = triangular_bump(GRID, 0.0, 0.5)
        t3 = apply_Tn(OP_DOUBLE, f, 3)
        assert t3.value_at(3.0) == 8.0

    def test_power_equals_iteration_bitwise(self):
        for name in ("ex3.5", "ex3.6", "ex3.7"):
            op = build_preset(name)
            f = interior_function()
            cur = f
            for _ in range(6):
                cur = apply_T(op, cur)
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
        shifted = apply_T(CompositionOperator(
            Translation(-2.0), PiecewiseMap.constant(1.0, positive=True)), f)
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
        y = apply_T(op, triangular_bump(self.grid, -3.0, 0.5))
        assert y.value_at(-2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

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
        tf = apply_T(self.op, f)
        assert norm(tf, SUP) == 0.5 * norm(f, SUP)
        assert tf.truncated

    def test_apply_Tn_flags_lost_mass(self):
        tf = apply_Tn(self.op, self.edge_tent(), 5)
        assert tf.is_zero and tf.truncated

    def test_apply_S_flags_lost_mass(self):
        # S reads f on [-7, 9]; a tent at -7.25 loses its left part
        f = triangular_bump(self.grid, -7.25, 0.5)
        assert apply_S(self.op, f).truncated
        assert apply_Sn(self.op, f, 3).truncated

    def test_interior_mass_not_flagged(self):
        f = triangular_bump(self.grid, 0.0, 1.0)
        assert not apply_T(self.op, f).truncated
        assert not apply_Tn(self.op, f, 6).truncated
        assert not apply_Sn(self.op, f, 6).truncated
        # the last nonzero point 6.75 is still read by T, but not by T^2
        f = triangular_bump(self.grid, 6.0, 1.0)
        assert not apply_T(self.op, f).truncated
        assert apply_Tn(self.op, f, 2).truncated

    def test_flag_is_sticky(self):
        # once lost, the mass stays lost under an operator that loses none
        tf = apply_T(self.op, self.edge_tent())
        assert not apply_T(OP_ID, triangular_bump(self.grid)).truncated
        assert apply_T(OP_ID, tf).truncated


class TestWedge:
    def test_bridge_instance_satisfied(self):
        op = build_preset("ex3.6")
        verdict = wedge_condition(op, CompactWindow.from_grid(GRID, 2.0), 200,
                                  1e-6)
        assert verdict.kind == "WEDGE" and verdict.satisfied

    def test_unit_weight_not_satisfied(self):
        op = CompositionOperator(Translation(-1.0),
                                 PiecewiseMap.constant(1.0, positive=True))
        verdict = wedge_condition(op, CompactWindow.from_grid(GRID, 2.0), 50,
                                  1e-6)
        assert not verdict.satisfied
        assert np.all(verdict.trace == 1.0)

    def test_constant_weight_cancels(self):
        window = CompactWindow.from_grid(GRID, 1.0)
        verdict = wedge_condition(OP_DOUBLE, window, 50, 1e-6)
        assert not verdict.satisfied
        assert np.all(verdict.trace == 1.0)

    def test_window_follows_the_grid(self):
        # a step-0.5 grid gives the window its own nine points, not the
        # seventeen of a step-0.25 interval
        op = build_preset("ex3.6")
        window = CompactWindow.from_grid(Grid(16.0, 0.5), 2.0)
        verdict = wedge_condition(op, window, 40, 1e-6)
        [c0] = evaluate([CriterionKind.SUPERCYCLIC_C0], op, window, 40, 1e-6)
        assert window.points.size == 9
        assert np.array_equal(verdict.trace, c0.trace)
        assert verdict.params["window_radius"] == 2.0
        with pytest.raises(ValueError):
            wedge_condition(op, CompactWindow.from_grid(Grid(16.0, 0.5), 0.5),
                            40, 1e-6)
