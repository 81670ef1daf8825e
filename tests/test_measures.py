import numpy as np
import pytest

from lindyn.criteria import SATISFIED, CompactWindow, CriterionKind, evaluate
from lindyn.errors import GridMismatchError, SupportOutsideWindowError
from lindyn.funcspace import Grid, GridFunction, PiecewiseMap, Translation
from lindyn.measures import adjoint_criterion
from lindyn.operators import CompositionOperator
from lindyn.presets import build_preset
from oracles import (
    AtomicMeasure,
    DegenerateApproximantError,
    adjoint_Sn,
    adjoint_T,
    adjoint_Tn,
    backward_log2,
    cocycle,
    combine,
    duality_check,
    forward_log2,
    identity_homeo,
    measure_approximant,
    tv_norm,
)

RNG = np.random.default_rng(99)
GRID = Grid(16.0, 0.25)

OP_DOUBLE = CompositionOperator(Translation(1.0),
                                PiecewiseMap.constant(2.0, positive=True))
OP_UNIT = CompositionOperator(Translation(1.0),
                              PiecewiseMap.constant(1.0, positive=True))
OP_ID = CompositionOperator(identity_homeo(),
                            PiecewiseMap.constant(1.0, positive=True))


def random_grid_measure(n_atoms=10, rng=RNG):
    idx = rng.choice(GRID.size, size=n_atoms, replace=False)
    return AtomicMeasure(
        (float(GRID.points[i]),
         complex(rng.standard_normal(), rng.standard_normal()))
        for i in idx
    )


class TestAtomicMeasure:
    def test_tv_norm_examples(self):
        assert tv_norm(AtomicMeasure()) == 0.0
        assert tv_norm(AtomicMeasure([(0.0, 1.0), (1.0, -1.0)])) == 2.0
        merged = AtomicMeasure([(0.0, 3.0), (0.0, -4.0j)])
        assert merged.locations.size == 1
        assert tv_norm(merged) == 5.0

    def test_zero_weights_dropped(self):
        mu = AtomicMeasure([(0.0, 1.0), (1.0, -1.0), (1.0, 1.0)])
        assert mu.locations.tolist() == [0.0]

    def test_norm_axioms(self):
        for _ in range(50):
            mu = random_grid_measure(6)
            nu = random_grid_measure(6)
            c = complex(RNG.standard_normal(), RNG.standard_normal())
            assert tv_norm(combine((c, mu))) == pytest.approx(
                abs(c) * tv_norm(mu), rel=1e-14)
            assert (tv_norm(combine((1.0, mu), (1.0, nu)))
                    <= tv_norm(mu) + tv_norm(nu) + 1e-14)


class TestAdjoint:
    def test_atomwise_closed_form(self):
        op = build_preset("ex3.6")  # w(0) = 3/4, alpha = t + 1
        out = adjoint_T(op, AtomicMeasure.delta(0.0))
        assert out.locations.tolist() == [1.0]
        assert out.weights[0] == 0.75

    def test_unit_weight_pushforward(self):
        mu = AtomicMeasure([(0.0, 1.0), (2.5, 2.0)])
        out = adjoint_T(OP_UNIT, mu)
        assert out.locations.tolist() == [1.0, 3.5]
        assert np.array_equal(out.weights, mu.weights)

    def test_empty_measure(self):
        assert adjoint_T(OP_UNIT, AtomicMeasure()).is_zero

    def test_power_cocycle(self):
        out = adjoint_Tn(OP_DOUBLE, AtomicMeasure.delta(0.0), 3)
        assert out.locations.tolist() == [3.0]
        assert out.weights[0] == 8.0

    def test_zero_power(self):
        mu = random_grid_measure()
        assert adjoint_Tn(OP_DOUBLE, mu, 0) is mu

    def test_round_trip_exact(self):
        mu = AtomicMeasure.delta(0.5, 2 - 1j)
        back = adjoint_Sn(OP_DOUBLE, adjoint_Tn(OP_DOUBLE, mu, 9), 9)
        assert np.array_equal(back.locations, mu.locations)
        assert np.array_equal(back.weights, mu.weights)

    def test_round_trip_preset(self):
        op = build_preset("ex3.6")
        mu = random_grid_measure()
        back = adjoint_Sn(op, adjoint_Tn(op, mu, 7), 7)
        assert np.allclose(back.locations, mu.locations, atol=0)
        assert np.allclose(back.weights, mu.weights, rtol=1e-12, atol=0)

    def test_pushforward_composition(self):
        mu = random_grid_measure()
        one = adjoint_Tn(OP_UNIT, adjoint_Tn(OP_UNIT, mu, 1), 1)
        two = adjoint_Tn(OP_UNIT, mu, 2)
        assert np.array_equal(one.locations, two.locations)
        assert np.array_equal(one.weights, two.weights)

    def test_adjoint_multiplier_equals_cocycle(self):
        op = build_preset("ex3.5")
        for x in (-2.0, 0.0, 1.25):
            for n in (1, 4, 9):
                out = adjoint_Tn(op, AtomicMeasure.delta(x), n)
                assert out.weights[0].real == cocycle(op, n, x)


class TestDuality:
    def test_single_atom_reduction(self):
        op = build_preset("ex3.6")
        f = GridFunction(GRID, RNG.standard_normal(GRID.size)
                         + 1j * RNG.standard_normal(GRID.size))
        assert duality_check(op, f, AtomicMeasure.delta(0.0))

    def test_zero_measure(self):
        f = GridFunction.zero(GRID)
        assert duality_check(OP_DOUBLE, f, AtomicMeasure())

    def test_random_instances(self):
        op = build_preset("ex3.5")
        for _ in range(200):
            f = GridFunction(GRID, RNG.standard_normal(GRID.size)
                             + 1j * RNG.standard_normal(GRID.size))
            mu = random_grid_measure()
            assert duality_check(op, f, mu, tol=1e-12)

    def test_off_grid_atom_rejected(self):
        f = GridFunction.zero(GRID)
        with pytest.raises(GridMismatchError):
            duality_check(OP_DOUBLE, f, AtomicMeasure.delta(0.1))


class TestAdjointCriterion:
    def window(self, m=1.0):
        return CompactWindow.from_grid(GRID, m)

    def test_cesaro_positive_instance(self):
        op = build_preset("ex4.3a")
        [v] = adjoint_criterion([CriterionKind.ADJOINT_CESARO], op, [0.0],
                                [0.0], self.window(), 200, 1e-2)
        assert v.status == SATISFIED

    def test_super_only_instance(self):
        op = build_preset("ex4.3b")
        [sup] = adjoint_criterion([CriterionKind.ADJOINT_SUPER], op, [0.0],
                                  [0.0], self.window(), 200, 1e-6)
        [ces] = adjoint_criterion([CriterionKind.ADJOINT_CESARO], op, [0.0],
                                  [0.0], self.window(), 200, 1e-2)
        assert sup.status == SATISFIED and ces.status != SATISFIED

    def test_unit_weight_neither(self):
        for kind in (CriterionKind.ADJOINT_SUPER,
                     CriterionKind.ADJOINT_CESARO):
            [v] = adjoint_criterion([kind], OP_UNIT, [0.0], [0.0],
                                    self.window(), 100, 1e-6)
            assert v.status != SATISFIED

    @pytest.mark.parametrize("horizon, tol", [(0, 1e-6), (10, 0.0),
                                              (10, -1.0), (10, np.nan)])
    def test_rejects_bad_horizon_and_tol(self, horizon, tol):
        # the same checks as evaluate, on the route both share
        with pytest.raises(ValueError):
            adjoint_criterion([CriterionKind.ADJOINT_SUPER], OP_UNIT, [0.0],
                              [0.0], self.window(), horizon, tol)

    @pytest.mark.parametrize("mu, nu", [([], [0.0]), ([0.0], []),
                                        (np.empty(0), np.empty(0))],
                             ids=["mu", "nu", "both"])
    def test_empty_support(self, mu, nu):
        # the zero measure has no support for a leg to sup over
        with pytest.raises(ValueError, match="nonempty"):
            adjoint_criterion([CriterionKind.ADJOINT_SUPER], OP_UNIT, mu, nu,
                              self.window(), 10, 1e-6)

    def test_support_outside_window(self):
        with pytest.raises(SupportOutsideWindowError):
            adjoint_criterion([CriterionKind.ADJOINT_SUPER], OP_UNIT, [5.0],
                              [5.0], self.window(), 10, 1e-6)

    @pytest.mark.parametrize("preset", ["ex4.3a", "wavy"])
    def test_support_order_and_repeats_ignored(self, preset):
        # a support is read as its sorted unique set, the locations an
        # AtomicMeasure of it holds, on the dyadic lattice path (ex4.3a)
        # and off it (shift 0.3); 50 raw points would get blocks of 655
        # rows, their 25 distinct ones blocks of 1024
        if preset == "wavy":
            bp = np.linspace(-800.0, 800.0, 1601)
            op = CompositionOperator(Translation(0.3), PiecewiseMap(
                bp, 1.0 + 0.5 * np.sin(1.3 * bp), positive=True))
        else:
            op = build_preset(preset)
        win = self.window(3.0)
        mu = np.concatenate([win.points[::-1], win.points]).tolist()
        nu = [0.5, -0.75, 0.5]
        kinds = (CriterionKind.ADJOINT_SUPER, CriterionKind.ADJOINT_CESARO)
        got = adjoint_criterion(kinds, op, mu, nu, win, 1100, 1e-6)
        ref = adjoint_criterion(kinds, op, sorted(set(mu)), sorted(set(nu)),
                                win, 1100, 1e-6)
        for a, b in zip(got, ref):
            assert np.array_equal(a.trace, b.trace)
            assert np.array_equal(a.log2_trace, b.log2_trace)
            assert a.to_jsonl(per_n=True) == b.to_jsonl(per_n=True)

    def test_distinct_measures_read_their_own_leg(self):
        # the forward leg sups over mu's atoms and the backward leg over
        # nu's, also when the two supports differ in place and in size
        op = build_preset("ex4.3a")
        mu = np.array([-1.0, 0.25, 1.25])
        nu = np.array([-0.75, 0.5])
        win = self.window(1.5)
        sup, ces = adjoint_criterion((CriterionKind.ADJOINT_SUPER,
                                      CriterionKind.ADJOINT_CESARO),
                                     op, mu, nu, win, 40, 1e-6)
        for n in (1, 2, 7, 40):
            x = -backward_log2(op, nu, n).min()
            y = forward_log2(op, mu, n).max()
            assert sup.trace[n - 1] == np.exp2(x + y)
            assert ces.trace[n - 1] == max(n * np.exp2(x), np.exp2(y) / n)

    def test_matches_forward_criteria_of_flipped_operator(self):
        # adjoint sweep of (alpha, w) against the forward sweep of
        # (alpha^{-1}, w o alpha^{-1}) over the same points
        from lindyn.criteria import evaluate

        op = build_preset("ex4.3a")
        shift = op.alpha.shift
        flipped = CompositionOperator(
            Translation(-shift),
            PiecewiseMap(op.weight.breakpoints + shift, op.weight.values,
                         positive=True))
        mu = [0.0, 0.5]
        win = CompactWindow(1.0, mu)
        [adj] = adjoint_criterion([CriterionKind.ADJOINT_SUPER], op, mu,
                                  mu, win, 20, 1e-6)
        [fwd] = evaluate([CriterionKind.SUPERCYCLIC_SOLID], flipped, win,
                         20, 1e-6)
        assert np.allclose(adj.trace, fwd.trace, rtol=1e-11, atol=0)


class TestSharedAdjointSweep:
    """An adjoint sweep is the block sweep of ``evaluate`` over two point
    sets, with no per-n q."""

    ADJOINT_KINDS = (CriterionKind.ADJOINT_SUPER, CriterionKind.ADJOINT_CESARO)

    def test_every_q_is_vectorised(self, monkeypatch):
        # every formula call, trimmed or not, gets a vector of n
        import lindyn.criteria

        calls = []

        def counted(formula):
            def call(n, x, y):
                calls.append(np.ndim(n))
                return formula(n, x, y)
            return call

        monkeypatch.setattr(lindyn.criteria, "_FORMULA", {
            kind: (counted(formula), mirrored) for kind, (formula, mirrored)
            in lindyn.criteria._FORMULA.items()})
        op = build_preset("ex4.3a")
        mu = [0.0, 1.0]
        win = CompactWindow.from_grid(GRID, 1.5)
        for kind in self.ADJOINT_KINDS:
            adjoint_criterion([kind], op, mu, mu, win, 30, 1e-6)
        for max_drop in (0, 2):
            evaluate(list(CriterionKind), op, win, 30, 1e-6, max_drop)
        assert calls and all(ndim == 1 for ndim in calls)

    @pytest.mark.parametrize("preset", ["ex3.5", "ex3.7", "ex4.3a", "ex4.3b"])
    @pytest.mark.parametrize("m", [0.0, 1.0, 2.0])
    def test_unit_atoms_on_window_equal_evaluate(self, preset, m):
        op = build_preset(preset)
        win = CompactWindow.from_grid(GRID, m)
        for kind in self.ADJOINT_KINDS:
            [adj] = adjoint_criterion([kind], op, win.points, win.points,
                                      win, 150, 1e-6)
            [ref] = evaluate([kind], op, win, 150, 1e-6)
            assert np.array_equal(adj.trace, ref.trace)
            assert np.array_equal(adj.log2_trace, ref.log2_trace)
            assert adj.witness == ref.witness

    def test_supports_of_different_width_across_seams(self):
        # 40 atoms get narrower lattice blocks than 1 atom would: both legs
        # must still read row n at n, on both sides of either seam
        bp = np.linspace(-3200.0, 3200.0, 6401)
        weight = PiecewiseMap(bp, 1.0 + 0.5 * np.sin(1.3 * bp),
                              positive=True)
        op = CompositionOperator(Translation(0.3), weight)
        mu = np.linspace(-2.0, 2.0, 40)
        nu = np.array([0.5])
        win = CompactWindow(2.0, [0.0])
        horizon = 2100
        for kind in self.ADJOINT_KINDS:
            [v] = adjoint_criterion([kind], op, mu, nu, win, horizon, 1e-6)
            for n in (819, 820, 1024, 1025, horizon):
                x = -backward_log2(op, nu, n).min()
                y = forward_log2(op, mu, n).max()
                if kind == CriterionKind.ADJOINT_SUPER:
                    q = np.exp2(x + y)
                else:
                    q = max(n * np.exp2(x), np.exp2(y) / n)
                assert v.trace[n - 1] == q


class TestMeasureApproximant:
    def test_identity_closed_form(self):
        mu = AtomicMeasure.delta(0.0, 2.0)
        nu = AtomicMeasure.delta(1.0, 0.5)
        eta, lam = measure_approximant(OP_ID, mu, nu, 1)
        c = np.sqrt(tv_norm(mu) / tv_norm(nu))
        assert lam == pytest.approx(1.0 / c, rel=1e-12)
        expected = combine((1.0, mu), (c, nu))
        assert np.array_equal(eta.locations, expected.locations)
        assert np.allclose(eta.weights, expected.weights, rtol=1e-12)

    def test_degenerate(self):
        mu = AtomicMeasure.delta(0.0)
        with pytest.raises(DegenerateApproximantError):
            measure_approximant(OP_ID, mu, AtomicMeasure(), 1)

    def test_convergence_along_witness(self):
        op = build_preset("ex4.3a")
        mu = AtomicMeasure.delta(0.0)
        win = CompactWindow.from_grid(GRID, 1.0)
        [verdict] = adjoint_criterion([CriterionKind.ADJOINT_SUPER], op,
                                      mu.locations, mu.locations, win, 60,
                                      1e-6)
        errs = []
        for n, q in verdict.witness:
            eta, lam = measure_approximant(op, mu, mu, n)
            errs.append((tv_norm(combine((1.0, eta), (-1.0, mu))),
                         tv_norm(combine((lam, adjoint_Tn(op, eta, n)),
                                         (-1.0, mu))), q))
        last = errs[-1]
        assert last[0] <= np.sqrt(last[2]) * (1 + 1e-9) + 1e-12
        assert last[1] <= np.sqrt(last[2]) * (1 + 1e-9) + 1e-12
        assert last[0] < 1e-6 and last[1] < 1e-6
