import json
import math

import numpy as np
import pytest

from lindyn.criteria import (
    _leg_extremes,
    _trim_greedy,
    CompactWindow,
    CriterionKind,
    evaluate,
    implication_check,
    verdict_from_trace,
)
from lindyn.errors import SegalIncompatibleError
from lindyn.funcspace import (
    Grid,
    PiecewiseAffineHomeo,
    PiecewiseMap,
    Translation,
)
from lindyn.operators import _block_rows, CocycleSweep, CompositionOperator
from lindyn.presets import REGISTRY, build_preset
from oracles import product_factors, quantity, segal_factors, sweep_factors

RNG = np.random.default_rng(7)
GRID = Grid(64.0, 0.25)
K0 = CompactWindow.singleton(0.0)

OP_UNIT = CompositionOperator(Translation(-1.0),
                              PiecewiseMap.constant(1.0, positive=True))
OP_DOUBLE = CompositionOperator(Translation(-1.0),
                                PiecewiseMap.constant(2.0, positive=True))


def random_translation_operator(rng=RNG, max_nodes=4):
    shift = float(rng.choice([-1.0, 1.0, -0.5, 0.5]))
    n_nodes = int(rng.integers(2, max_nodes + 1))
    xs = np.sort(rng.uniform(-6, 6, n_nodes))
    xs += np.arange(n_nodes) * 1e-3  # keep strictly increasing
    ys = rng.uniform(0.2, 5.0, n_nodes)
    return CompositionOperator(Translation(shift),
                               PiecewiseMap(xs, ys, positive=True))


class TestProductFactors:
    def test_bridge_2_left(self):
        op = build_preset("ex3.5")
        p_minus, p_plus = product_factors(op, K0, 4)
        assert p_minus == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert p_plus == 1.0

    def test_telescoping(self):
        op = build_preset("ex3.8", depth=40)
        p_minus, p_plus = product_factors(op, K0, 5)
        assert p_minus == pytest.approx(0.4, rel=1e-13)
        assert p_plus == 2.0 ** -5

    def test_unit_weight(self):
        assert product_factors(OP_UNIT, K0, 17) == (1.0, 1.0)

    def test_telescoping_oracle_long(self):
        op = build_preset("ex3.8", depth=1100)
        p_minus, _ = sweep_factors(op, K0, 1000)
        n = np.arange(1, 1001)
        assert np.max(np.abs(p_minus * n / 2.0 - 1.0)) <= 1e-12
        assert np.max(np.abs(n * p_minus - 2.0)) <= 2e-12


class TestSegalFactors:
    def test_constant_weight(self):
        q_back, q_inv = segal_factors(OP_DOUBLE, K0, 3)
        assert (q_back, q_inv) == (8.0, 0.125)

    def test_bridge_instance(self):
        op = build_preset("ex3.6")
        q_back, _ = segal_factors(op, K0, 3)
        assert q_back == pytest.approx(0.125, rel=1e-13)

    def test_unit_weight(self):
        assert segal_factors(OP_UNIT, K0, 9) == (1.0, 1.0)

    def test_matches_backward_reindexing(self):
        # literal product over w(alpha^{j-n}) equals the backward leg
        window = CompactWindow.from_grid(GRID, 2.0)
        piecewise = CompositionOperator(
            PiecewiseAffineHomeo(PiecewiseMap([-1.0, 1.0], [-2.5, 0.5],
                                              1.0, 1.0)),
            PiecewiseMap([-1.0, 1.0], [2.0, 1.0], positive=True))
        ops = [build_preset(name) for name in ("ex3.5", "ex3.6", "ex3.7")]
        for op in ops + [piecewise]:
            for n in (1, 2, 7, 23):
                q_back, q_inv = segal_factors(op, window, n)
                p_minus, p_plus = product_factors(op, window, n)
                assert q_back == pytest.approx(p_plus, rel=1e-12)
                assert q_inv == pytest.approx(p_minus, rel=1e-12)

    def test_tau_gate(self):
        op = build_preset("ex3.5")
        win = CompactWindow.from_grid(GRID, 2.0, segal_eps=0.5)
        tau_bad = PiecewiseMap([-1.0, 1.0], [0.0, 0.45])
        with pytest.raises(SegalIncompatibleError):
            segal_factors(op, win, 3, tau=tau_bad, grid=GRID)
        tau_ok = PiecewiseMap.constant(0.25)
        q_back, q_inv = segal_factors(op, win, 3, tau=tau_ok, grid=GRID)
        assert q_back > 0 and q_inv > 0
        win_tight = CompactWindow.from_grid(GRID, 2.0, segal_eps=0.1)
        with pytest.raises(SegalIncompatibleError):
            segal_factors(op, win_tight, 3, tau=tau_ok, grid=GRID)


class TestQuantity:
    def test_telescoping_cesaro_is_two(self):
        op = build_preset("ex3.8", depth=600)
        for n in (1, 5, 50, 500):
            q = quantity(CriterionKind.CESARO_SOLID, op, K0, n)
            assert q == pytest.approx(2.0, rel=1e-12)

    def test_bridge_supercyclic_value(self):
        op = build_preset("ex3.6")
        q = quantity(CriterionKind.SUPERCYCLIC_SOLID, op, K0, 3)
        assert q == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_unit_weight_cesaro_grows(self):
        for n in (1, 4, 9):
            q = quantity(CriterionKind.CESARO_SOLID, OP_UNIT, K0, n)
            assert q == float(n)

    def test_c0_matches_solid_products(self):
        # the C0 quantity uses the re-indexed backward leg: same value
        op = build_preset("ex3.5")
        win = CompactWindow.from_grid(GRID, 2.0)
        for n in (1, 3, 10):
            a = quantity(CriterionKind.SUPERCYCLIC_SOLID, op, win, n)
            b = quantity(CriterionKind.SUPERCYCLIC_C0, op, win, n)
            assert a == b

    def test_adjoint_quantities(self):
        op = build_preset("ex4.3b")
        # forward products decay, backward leg is 1
        q = quantity(CriterionKind.ADJOINT_SUPER, op, K0, 10)
        assert q == pytest.approx(0.75 * 2.0 ** -9, rel=1e-12)
        qc = quantity(CriterionKind.ADJOINT_CESARO, op, K0, 10)
        assert qc == pytest.approx(10.0, rel=1e-12)


class TestEvaluate:
    def test_record_minimum_witness(self):
        op = build_preset("ex3.5")
        win = CompactWindow.from_grid(GRID, 2.0)
        [v] = evaluate([CriterionKind.SUPERCYCLIC_SOLID], op, win, 60, 1e-6)
        assert v.satisfied
        qs = [q for _, q in v.witness]
        assert all(a > b for a, b in zip(qs, qs[1:]))
        ns = [n for n, _ in v.witness]
        assert all(a < b for a, b in zip(ns, ns[1:]))
        assert v.witness[-1][1] == v.trace.min()

    def test_determinism_bit_identical(self):
        op = build_preset("ex3.6")
        win = CompactWindow.from_grid(GRID, 1.0)
        [a] = evaluate([CriterionKind.CESARO_SOLID], op, win, 100, 1e-2)
        [b] = evaluate([CriterionKind.CESARO_SOLID], op, win, 100, 1e-2)
        assert np.array_equal(a.trace, b.trace)
        assert a.witness == b.witness and a.status == b.status
        assert a.to_jsonl() == b.to_jsonl()

    def test_window_monotonicity(self):
        op = build_preset("ex3.7")
        small = CompactWindow.from_grid(GRID, 1.0)
        large = CompactWindow.from_grid(GRID, 3.0)
        for kind in (CriterionKind.SUPERCYCLIC_SOLID,
                     CriterionKind.CESARO_SOLID,
                     CriterionKind.HYPERCYCLIC_SOLID,
                     CriterionKind.ADJOINT_SUPER):
            for n in (1, 4, 12):
                assert quantity(kind, op, small, n) <= \
                    quantity(kind, op, large, n) * (1 + 1e-12)

    def test_inverse_mode_matches_brute_force(self):
        # S = T^{-1} is the composition pair (beta, v) with beta = alpha^{-1}
        # and v(t) = 1/w(alpha^{-1}(t)); evaluate its product legs directly.
        op = build_preset("ex3.6")
        win = CompactWindow.from_grid(GRID, 1.5)
        pts = win.points
        shift = op.alpha.shift

        def v(t):
            return 1.0 / op.weight(t - shift)

        def beta_pow(t, j):
            return t - j * shift

        for n in (1, 2, 5, 11):
            mine = quantity(CriterionKind.SUPERCYCLIC_SOLID, op, win, n,
                            inverse=True)
            inv_fwd = np.ones(pts.size)  # prod (v o beta^j)^{-1}
            bwd = np.ones(pts.size)      # prod  v o beta^{-j}
            for j in range(n):
                inv_fwd *= 1.0 / v(beta_pow(pts, j))
                bwd *= v(beta_pow(pts, -(j + 1)))
            brute = inv_fwd.max() * bwd.max()
            assert mine == pytest.approx(brute, rel=1e-11)


class TestSharedSweep:
    """All kinds of one call share a sweep; none may see the others."""

    def test_many_kinds_equal_one_at_a_time(self):
        kinds = list(CriterionKind)
        win = CompactWindow.from_grid(GRID, 2.0)
        for preset, trim, inverse in (("ex3.7", 0, False),
                                      ("ex3.8", 2, False),
                                      ("ex3.6", 1, True)):
            op = build_preset(preset, depth=80)
            together = evaluate(kinds, op, win, 60, 1e-2, trim,
                                inverse=inverse)
            assert [v.kind for v in together] == [k.value for k in kinds]
            for kind, v in zip(kinds, together):
                [alone] = evaluate([kind], op, win, 60, 1e-2, trim,
                                   inverse=inverse)
                assert np.array_equal(v.trace, alone.trace)
                assert v.trimmed == alone.trimmed
                assert v.to_jsonl() == alone.to_jsonl()

    def test_trace_matches_per_n_quantity(self):
        op = build_preset("ex3.8", depth=80)
        win = CompactWindow.from_grid(GRID, 2.0)
        kinds = list(CriterionKind)
        for trim in (0, 2):
            for inverse in (False, True):
                verdicts = evaluate(kinds, op, win, 40, 1e-2, trim,
                                    inverse=inverse)
                for kind, v in zip(kinds, verdicts):
                    for n in (1, 17, 40):
                        assert v.trace[n - 1] == quantity(
                            kind, op, win, n, trim, inverse=inverse)

    def test_single_kind_is_rejected(self):
        with pytest.raises(TypeError):
            evaluate(CriterionKind.SUPERCYCLIC_SOLID, OP_DOUBLE, K0, 5, 1e-6)


class TestBlockSeams:
    """The sweep reads the orbit lattice in blocks of _block_rows rows; its
    extremes, with and without trimming, equal a sweep stepped once per n,
    on both sides of each block seam."""

    # the weight varies along every orbit walked here, so a row read from
    # the wrong orbit point differs
    BP = np.linspace(-3200.0, 3200.0, 6401)
    WEIGHT = PiecewiseMap(BP, 1.0 + 0.5 * np.sin(1.3 * BP), positive=True)
    OPS = {
        "shift-0.3": CompositionOperator(Translation(0.3), WEIGHT),
        "shift-1": CompositionOperator(Translation(-1), WEIGHT),
        "piecewise": CompositionOperator(PiecewiseAffineHomeo(
            PiecewiseMap([-1.0, 1.0], [-2.5, 0.5], 1.0, 1.0)), WEIGHT),
    }
    KIND = CriterionKind.SUPERCYCLIC_SOLID

    @staticmethod
    def stepped(op, pts, horizon, inverse, max_drop):
        sweep = CocycleSweep(op, pts)
        ext, xy, drops = np.empty((4, horizon)), np.empty((2, horizon)), []
        for n in range(1, horizon + 1):
            sweep.step()
            lf, lb = sweep.log_forward, sweep.log_backward
            if inverse:
                lf, lb = -lb, -lf
            ext[:, n - 1] = -lf.min(), lb.max(), -lb.min(), lf.max()
            keep, dropped = _trim_greedy(TestBlockSeams.KIND, n, lf, lb,
                                         max_drop)
            drops.append(dropped)
            xy[:, n - 1] = -lf[keep].min(), lb[keep].max()
        return ext, xy, drops

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_rows_across_seams(self, name, inverse):
        op = self.OPS[name]
        win = CompactWindow.from_grid(Grid(2.0, 0.5), 2.0)
        b = _block_rows(win.points.size)
        horizon = 2 * b + 3
        ext, trimmed = _leg_extremes(op, win.points, win.points, horizon,
                                     inverse, [self.KIND], 2)
        ref_ext, ref_xy, ref_drops = self.stepped(op, win.points, horizon,
                                                  inverse, 2)
        xy, drops = trimmed[self.KIND]
        for n in (b - 1, b, b + 1, horizon):
            assert np.array_equal(ext[:, n - 1], ref_ext[:, n - 1])
            assert np.array_equal(xy[:, n - 1], ref_xy[:, n - 1])
        assert np.array_equal(ext, ref_ext)
        assert np.array_equal(xy, ref_xy)
        assert drops == ref_drops


class TestVerdictFromTrace:
    def test_matches_record_minimum_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            trace = rng.integers(0, 6, rng.integers(1, 30)).astype(float)
            trace[rng.random(trace.size) < 0.1] = np.inf
            trace[rng.random(trace.size) < 0.1] = np.nan
            witness, best = [], np.inf
            for n, q in enumerate(trace, start=1):
                if q < best:
                    best = q
                    witness.append((n, q))
            v = verdict_from_trace("K", trace, 2.0)
            assert v.witness == tuple(witness)
            assert v.satisfied == (best <= 2.0)
            assert v.horizon == trace.size

    def test_no_record_is_not_satisfied(self):
        v = verdict_from_trace("K", [np.inf, np.nan], 1.0)
        assert v.witness == () and not v.satisfied

    @staticmethod
    def dict_serialiser(v):
        """The per-record dict + json.dumps writer that to_jsonl replaced;
        it reads the traces as Python floats, so non-finite values are
        written as "inf", "-inf" and "nan"."""
        def enc(x):
            return float(x) if math.isfinite(x) else repr(x)

        record_ns = {n for n, _ in v.witness}
        records = [{"kind": v.kind, "n": i, "q": enc(q), "log2_q": enc(lq),
                    "record_min": i in record_ns}
                   for i, (q, lq) in enumerate(zip(v.trace.tolist(),
                                                   v.log2_trace.tolist()),
                                               start=1)]
        params = {"horizon": v.horizon, "tol": v.tol}
        params.update(v.params)
        best = v.best_log2_q
        records.append({"kind": v.kind, "status": v.status,
                        "witness": [[n, enc(q)] for n, q in v.witness],
                        "best_log2_q": None if best is None else enc(best),
                        "params": params})
        return "\n".join(json.dumps(r, sort_keys=True) for r in records)

    def test_to_jsonl_matches_dict_serialiser(self):
        trace = [3.0, 0.0, -0.0, 0.0, 5e-324, 5e-324, 1e308, np.inf, np.nan,
                 -np.inf, -np.inf, 2.5, np.nan, np.inf]
        log2_trace = [1.5, -2000.0, -2000.0, -0.0, 0.0, -1074.0, 1023.5,
                      1e308, np.nan, -np.inf, -np.inf, 1.25, 5e-324, np.inf]
        verdicts = [verdict_from_trace("K", trace, 1e-6, [0, 1],
                                       {"inverse": True, "max_drop": 2},
                                       log2_trace),
                    verdict_from_trace("K", trace[:5], 1e-6),
                    verdict_from_trace("K", [np.inf, np.nan], 1.0)]
        for v in verdicts:
            assert v.to_jsonl() == self.dict_serialiser(v)
            assert v.jsonl_records() == [
                json.loads(line)
                for line in self.dict_serialiser(v).split("\n")]
        # ties, NaN and q = inf set no record
        flags = [r["record_min"] for r in verdicts[0].jsonl_records()[:-1]]
        assert [n for n, f in enumerate(flags, start=1) if f] == [1, 2, 10]


class TestTrim:
    def test_trimming_reduces_quantity(self):
        # weight with a dip inside the window: the dip point carries the
        # worst inverse forward product, so dropping it helps
        w = PiecewiseMap([-2.0, -1.0, 0.0, 1.0, 2.0],
                         [1.0, 1.0, 1.0 / 6.0, 1.0, 1.0], positive=True)
        op = CompositionOperator(Translation(-8.0), w)
        win = CompactWindow.from_grid(Grid(8.0, 0.25), 2.0)
        q_raw = quantity(CriterionKind.SUPERCYCLIC_SOLID, op, win, 1)
        q_trim = quantity(CriterionKind.SUPERCYCLIC_SOLID, op, win, 1,
                          max_drop=2)
        assert q_raw == pytest.approx(6.0, rel=1e-12)
        assert q_trim < q_raw

    def test_trim_never_empties_window(self):
        q = quantity(CriterionKind.SUPERCYCLIC_SOLID, OP_DOUBLE, K0, 3,
                     max_drop=5)
        assert q == quantity(CriterionKind.SUPERCYCLIC_SOLID, OP_DOUBLE,
                             K0, 3)

    def test_trim_report(self):
        w = PiecewiseMap([-2.0, -1.0, 0.0, 1.0, 2.0],
                         [1.0, 1.0, 6.0, 1.0, 1.0], positive=True)
        op = CompositionOperator(Translation(-8.0), w)
        win = CompactWindow.from_grid(Grid(8.0, 0.25), 2.0)
        [v] = evaluate([CriterionKind.SUPERCYCLIC_SOLID], op, win, 5, 1e-6,
                       max_drop=2)
        assert v.trimmed is not None and len(v.trimmed) == 5
        assert all(0 <= d <= 2 for d in v.trimmed)


class TestImplication:
    def test_cesaro_positive_instance(self):
        op = build_preset("ex3.5")
        win = CompactWindow.from_grid(GRID, 1.0)
        report = implication_check(op, win, 200, 1e-2)
        assert report.cesaro.satisfied and report.supercyclic.satisfied
        assert report.ok

    def test_supercyclic_only_instance(self):
        op = build_preset("ex3.6")
        win = CompactWindow.from_grid(GRID, 1.0)
        report = implication_check(op, win, 200, 1e-2)
        assert report.supercyclic.satisfied
        assert not report.cesaro.satisfied
        assert report.ok

    def test_unit_weight_vacuous(self):
        win = CompactWindow.from_grid(GRID, 1.0)
        report = implication_check(OP_UNIT, win, 50, 1e-6)
        assert not report.cesaro.satisfied
        assert not report.supercyclic.satisfied
        assert report.ok

    @pytest.mark.parametrize("example_id", sorted(REGISTRY))
    def test_space_variants_agree(self, example_id):
        # the C0 and Segal kinds run the solid formulas on the same legs,
        # so the check needs only the solid pair
        example = REGISTRY[example_id]
        op = build_preset(example.preset)
        families = (
            (CriterionKind.SUPERCYCLIC_SOLID, CriterionKind.SUPERCYCLIC_C0,
             CriterionKind.SUPERCYCLIC_SEGAL),
            (CriterionKind.CESARO_SOLID, CriterionKind.CESARO_C0,
             CriterionKind.CESARO_SEGAL),
        )
        for m in sorted({exp.window for exp in example.expectations}):
            win = CompactWindow.from_grid(GRID, m)
            for kinds in families:
                ref, *rest = evaluate(kinds, op, win, 300, 1e-2)
                for v in rest:
                    assert np.array_equal(v.trace, ref.trace)
                    assert np.array_equal(v.log2_trace, ref.log2_trace)
                    assert v.witness == ref.witness

    def test_square_identity_random_instances(self):
        win = CompactWindow.from_grid(Grid(64.0, 0.25), 1.0)
        for _ in range(25):
            op = random_translation_operator()
            for n in (1, 3, 8, 20):
                qc = quantity(CriterionKind.CESARO_SOLID, op, win, n)
                qs = quantity(CriterionKind.SUPERCYCLIC_SOLID, op, win, n)
                if qc <= 1.0:
                    assert qs <= qc * qc + 1e-10


class TestAdjointForwardDuality:
    def test_products_reindex_brute_force(self):
        # adjoint legs of (alpha, w) match the forward legs of
        # (alpha^{-1}, w o alpha^{-1}): brute products up to n = 20
        for _ in range(10):
            op = random_translation_operator()
            shift = op.alpha.shift
            flipped = CompositionOperator(
                Translation(-shift),
                PiecewiseMap(op.weight.breakpoints + shift, op.weight.values,
                             positive=True))
            pts = np.array([0.0, 0.5, -1.25])
            win = CompactWindow(2.0, pts)
            for n in (1, 2, 5, 11, 20):
                q_adj = quantity(CriterionKind.ADJOINT_SUPER, op, win, n)
                q_fwd = quantity(CriterionKind.SUPERCYCLIC_SOLID, flipped,
                                 win, n)
                assert q_adj == pytest.approx(q_fwd, rel=1e-11)
                # independent brute force of the adjoint product legs
                fwd = np.ones(pts.size)
                cur = pts.copy()
                for _ in range(n):
                    fwd *= op.weight(cur)
                    cur = cur + shift
                bwd = np.ones(pts.size)
                cur = pts.copy()
                for _ in range(n):
                    cur = cur - shift
                    bwd *= 1.0 / op.weight(cur)
                assert q_adj == pytest.approx(fwd.max() * bwd.max(),
                                              rel=1e-11)
