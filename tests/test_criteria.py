import inspect
import json
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from lindyn import criteria, operators
from lindyn.criteria import (
    _FORMULA,
    _SOLID_KINDS,
    _best_removals,
    _exp2,
    _kind_rows,
    _kind_verdict,
    _leg_extremes,
    _trimmed_xy,
    SATISFIED,
    CompactWindow,
    CriterionKind,
    evaluate,
)
from lindyn.funcspace import (
    Grid,
    PiecewiseAffineHomeo,
    PiecewiseMap,
    Translation,
)
from lindyn.operators import (
    _Lattice,
    _block_rows,
    _chain_columns,
    _log2_range,
    _tail_columns,
    _sum2_rows,
    CocycleSweep,
    CompositionOperator,
)
from lindyn.presets import REGISTRY, build_preset, run_registry
from oracles import (
    SEAM_POINTS,
    SegalIncompatibleError,
    WholeArrayVerdict,
    _trim_exact,
    _trim_greedy,
    backward_log2,
    dict_serialiser,
    forward_log2,
    full_width_extremes,
    implication_check,
    per_row_verdict,
    product_factors,
    quantity,
    read_tables,
    record_runs_of,
    reflected,
    runs_serialiser,
    same_verdict,
    seam_cases,
    segal_factors,
    sweep_factors,
    verdict_from_trace,
    whole_array_verdict,
)

RNG = np.random.default_rng(7)
GRID = Grid(64.0, 0.25)
K0 = CompactWindow(0.0, [0.0])

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
        op = build_preset("ex3.8")
        p_minus, p_plus = product_factors(op, K0, 5)
        assert p_minus == pytest.approx(0.4, rel=1e-13)
        assert p_plus == 2.0 ** -5

    def test_unit_weight(self):
        assert product_factors(OP_UNIT, K0, 17) == (1.0, 1.0)

    def test_telescoping_oracle_long(self):
        op = build_preset("ex3.8")
        p_minus, _ = sweep_factors(op, K0, 1000)
        n = np.arange(1, 1001)
        assert np.max(np.abs(p_minus * n / 2.0 - 1.0)) <= 1e-12
        assert np.max(np.abs(n * p_minus - 2.0)) <= 2e-12

    @pytest.mark.parametrize("horizon", [5000, 20000])
    def test_telescoping_hypercyclic_at_any_horizon(self, horizon):
        # on [-1, 1] the telescoping products give q(H) = 4 / (H - 1)
        win = CompactWindow.from_grid(GRID, 1.0)
        [v] = evaluate([CriterionKind.HYPERCYCLIC_SOLID],
                       build_preset("ex3.8"), win, horizon, 1e-2)
        assert v.trace[-1] == pytest.approx(4.0 / (horizon - 1), rel=1e-12,
                                            abs=0)


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
        win = CompactWindow.from_grid(GRID, 2.0)
        tau_bad = PiecewiseMap([-1.0, 1.0], [0.0, 0.45])
        with pytest.raises(SegalIncompatibleError):
            segal_factors(op, win, 3, tau=tau_bad, eps=0.5, grid=GRID)
        tau_ok = PiecewiseMap.constant(0.25)
        q_back, q_inv = segal_factors(op, win, 3, tau=tau_ok, eps=0.5,
                                      grid=GRID)
        assert q_back > 0 and q_inv > 0
        with pytest.raises(SegalIncompatibleError):
            segal_factors(op, win, 3, tau=tau_ok, eps=0.1, grid=GRID)


class TestCompactWindow:
    def test_from_grid_rejects_a_window_wider_than_the_grid(self):
        # it would hold only the 513 points in [-64, 64] while evaluate
        # reported window_radius 100
        with pytest.raises(ValueError, match="100.* 64"):
            CompactWindow.from_grid(GRID, 100.0)
        assert CompactWindow.from_grid(GRID, 64.0).points.size == 513


class TestQuantity:
    def test_telescoping_cesaro_is_two(self):
        op = build_preset("ex3.8")
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
        assert v.status == SATISFIED
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
        assert a.to_jsonl(per_n=True) == b.to_jsonl(per_n=True)

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
            op = build_preset(preset)
            together = evaluate(kinds, op, win, 60, 1e-2, trim,
                                inverse=inverse)
            assert [v.kind for v in together] == [k.value for k in kinds]
            solid = [k for k in kinds if trim and k in _SOLID_KINDS]
            xy = _trimmed_xy(solid, op, win.points, 60, trim, inverse)
            for kind, v in zip(kinds, together):
                [alone] = evaluate([kind], op, win, 60, 1e-2, trim,
                                   inverse=inverse)
                assert np.array_equal(v.trace, alone.trace)
                if kind in solid:
                    alone_xy = _trimmed_xy([kind], op, win.points, 60, trim,
                                           inverse)
                    assert np.array_equal(xy[kind], alone_xy[kind])
                assert v.to_jsonl(per_n=True) == \
                    alone.to_jsonl(per_n=True)

    def test_trace_matches_per_n_quantity(self):
        # at H = 2500 the 17 points take three blocks of 1024 rows: the
        # trimmed kinds' own pass and the untrimmed sweep split at the
        # same seams
        op = build_preset("ex3.8")
        win = CompactWindow.from_grid(GRID, 2.0)
        kinds = list(CriterionKind)
        for horizon, ns in ((40, (1, 17, 40)), (2500, (1, 1024, 1025, 2500))):
            for trim in (0, 2):
                for inverse in (False, True):
                    verdicts = evaluate(kinds, op, win, horizon, 1e-2, trim,
                                        inverse=inverse)
                    for kind, v in zip(kinds, verdicts):
                        for n in ns:
                            assert v.trace[n - 1] == quantity(
                                kind, op, win, n, trim, inverse=inverse)

    def test_all_trimmed_runs_reduce_no_extremes(self, monkeypatch):
        # the trimmed kinds read their own full-width pass; the extremes
        # sweep runs only for a kind that reads its table
        calls = []
        sweep = criteria._leg_extremes

        def counted(*args, **kwargs):
            calls.append(args[3])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(criteria, "_leg_extremes", counted)
        op = build_preset("ex3.8")
        win = CompactWindow.from_grid(GRID, 2.0)
        solid = sorted(_SOLID_KINDS)
        for inverse in (False, True):
            calls.clear()
            evaluate(solid, op, win, 300, 1e-2, 2, inverse=inverse)
            assert calls == []
            evaluate(solid, op, win, 300, 1e-2, 0, inverse=inverse)
            assert calls == [300]
            evaluate(solid + [CriterionKind.SUPERCYCLIC_C0], op, win, 300,
                     1e-2, 2, inverse=inverse)
            assert calls == [300, 300]

    def test_single_kind_is_rejected(self):
        with pytest.raises(TypeError):
            evaluate(CriterionKind.SUPERCYCLIC_SOLID, OP_DOUBLE, K0, 5, 1e-6)


class TestBlockSeams:
    """The sweep reads the orbit lattice in blocks of _block_rows rows; its
    extremes, with and without trimming, equal a sweep stepped once per n
    and trimmed by brute force, on both sides of each block seam."""

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
        ext, xy = np.empty((4, horizon)), np.empty((2, horizon))
        for n in range(1, horizon + 1):
            sweep.step()
            lf, lb = sweep.log_forward, sweep.log_backward
            if inverse:
                lf, lb = -lb, -lf
            ext[:, n - 1] = -lf.min(), lb.max(), -lb.min(), lf.max()
            keep = _trim_exact(TestBlockSeams.KIND, n, lf, lb, max_drop)
            xy[:, n - 1] = -lf[keep].min(), lb[keep].max()
        return ext, xy

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("name, points", seam_cases(sorted(OPS)))
    def test_rows_across_seams(self, name, inverse, points):
        op = self.OPS[name]
        pts = SEAM_POINTS[points]
        b = _block_rows(pts.size)
        horizon = 2 * b + 3
        xy = _trimmed_xy([self.KIND], op, pts, horizon, 2, inverse)[self.KIND]
        ref_ext, ref_xy = self.stepped(op, pts, horizon, inverse, 2)
        for n in (b - 1, b, b + 1, horizon):
            assert np.array_equal(xy[:, n - 1], ref_xy[:, n - 1])
        assert np.array_equal(xy, ref_xy)
        # the unmirrored sweep narrows past its first block
        for mirrored in (False, True):
            [ext] = read_tables(_leg_extremes(op, pts, pts, horizon,
                                              mirrored=mirrored), inverse)
            ref = ref_ext[:len(ext)]
            for n in (b - 1, b, b + 1, horizon):
                assert np.array_equal(ext[:, n - 1], ref[:, n - 1])
            assert np.array_equal(ext, ref)


def int64(a: np.ndarray) -> np.ndarray:
    """The raw bits of a float array: -0.0 differs from 0.0."""
    return np.ascontiguousarray(a).view(np.int64)


TAIL_PRESETS = ("ex3.5", "ex3.6", "ex3.7", "ex3.8", "rem3.10", "ex4.3a",
                "ex4.3b")


class TestTailColumns:
    """Past a leg's exit time the sweep sums its constant only on the
    columns that can hold the extremes its rows read; every table is bit
    for bit the one reduced from every cell of both legs."""

    @pytest.mark.parametrize("horizon", [1, 2, 3, 5, 200, 2000, 18000])
    @pytest.mark.parametrize("preset", TAIL_PRESETS)
    def test_extremes_match_the_full_width_legs(self, preset, horizon):
        op = build_preset(preset)
        for m in (0.0, 1.0, 2.0, 3.0):
            pts = CompactWindow.from_grid(GRID, m).points
            for inverse in (False, True):
                [full] = full_width_extremes(op, pts, pts, horizon, inverse)
                for mirrored in (False, True):
                    [ext] = read_tables(_leg_extremes(
                        op, pts, pts, horizon, mirrored=mirrored), inverse)
                    assert np.array_equal(int64(ext),
                                          int64(full[:len(ext)])), \
                        (m, inverse, mirrored)

    @pytest.mark.parametrize("horizon", [1025, 3000])
    @pytest.mark.parametrize("preset", TAIL_PRESETS)
    def test_registry_slices(self, preset, horizon):
        # the registry's nested windows m = 0, 1, 2 as centred slices of
        # the m = 3 sweep, each with its own candidates
        op = build_preset(preset)
        pts = CompactWindow.from_grid(GRID, 3.0).points
        slices = []
        for m in (0.0, 1.0, 2.0, 3.0):
            w = CompactWindow.from_grid(GRID, m).points.size
            slices.append(slice((pts.size - w) // 2, (pts.size + w) // 2))
        for inverse in (False, True):
            full = full_width_extremes(op, pts, pts, horizon, inverse,
                                       slices)
            for mirrored in (False, True):
                exts = read_tables(_leg_extremes(
                    op, pts, pts, horizon, slices=slices, mirrored=mirrored),
                    inverse)
                for ext, ref in zip(exts, full, strict=True):
                    assert np.array_equal(int64(ext),
                                          int64(ref[:len(ext)]))

    @pytest.mark.parametrize("horizon", [1500, 18000])
    @pytest.mark.parametrize("preset", ["ex3.5", "ex3.8", "ex4.3a", "ex4.3b"])
    def test_adjoint_supports(self, preset, horizon):
        # an adjoint sweep walks mu's atoms forward and nu's backward: two
        # point sets of different sizes, each leg with its own tail
        op = build_preset(preset)
        mu = np.array([-1.5, 0.0, 0.25, 2.0])
        nu = np.array([-2.0, -0.75, 0.0, 0.5, 1.0, 1.75, 3.0])
        for fwd, bwd in ((mu, nu), (nu, mu)):
            [full] = full_width_extremes(op, fwd, bwd, horizon)
            for mirrored in (False, True):
                [ext] = _leg_extremes(op, fwd, bwd, horizon,
                                      mirrored=mirrored)
                assert np.array_equal(int64(ext), int64(full[:len(ext)]))


class TestReflection:
    """R f = f(-.) conjugates T to the operator of (t - s, w(-.))
    (``oracles.reflected``), whose legs at t are T's at -t term by term.
    On a window symmetric about 0 both sweeps give T's table bit for bit,
    though the reflection walks every sign-dependent branch, of the
    lattice tables and chains, the exit times and the hull's ends,
    against its twin."""

    @pytest.mark.parametrize("preset", TAIL_PRESETS)
    def test_reflected_tables_are_the_full_width_ones(self, preset,
                                                      narrowings):
        op = build_preset(preset)
        ops = (op, reflected(op))
        for m in (1.0, 2.0, 3.0):
            pts = CompactWindow.from_grid(GRID, m).points
            full = {inverse: full_width_extremes(op, pts, pts, 5000,
                                                 inverse)[0]
                    for inverse in (False, True)}
            for mirrored in (False, True):
                kept = []
                for o in ops:
                    narrowings.clear()
                    tables = _leg_extremes(o, pts, pts, 5000,
                                           mirrored=mirrored)
                    kept.append([(rule.name, None if cols is None
                                  else len(cols))
                                 for _, rule, cols in narrowings])
                    for inverse, ref in full.items():
                        [ext] = read_tables(tables, inverse)
                        assert np.array_equal(int64(ext),
                                              int64(ref[:len(ext)])), \
                            (o is op, m, mirrored, inverse)
                # both sides narrow alike, and an unmirrored sweep narrows
                # both legs
                assert kept[0] == kept[1], (m, mirrored)
                assert mirrored or len(kept[0]) == 2


def tail_sums(s, e, c: float, rows: int, cols=None) -> np.ndarray:
    """The (rows, |cols|) Sum2 sums of the constant c that continue the
    carry (s, e) of the columns ``cols`` (all by default), in blocks of
    1024 rows."""
    if cols is not None:
        s, e = s[cols], e[cols]
    k = s.size
    width = k + k % 2
    s, e = (np.concatenate((a, np.zeros(width - k))) for a in (s, e))
    buf = np.empty((2049, width))
    out = []
    for k0 in range(0, rows, 1024):
        x = np.zeros((min(1024, rows - k0), width))
        x[:, :k] = c
        s, e = _sum2_rows(x, s, e, buf)
        out.append(x[:, :k])
    return np.concatenate(out)


def tail_margin(s, e, c: float, rows: int) -> float:
    """The margin of ``operators._tail_columns``: 2**-50 (rows + 2) M."""
    size = float(np.max(np.abs(s) + np.abs(e))) + rows * abs(c)
    return math.ldexp((rows + 2) * size, -50)


def near_tie_carries(rng, c: float, rows: int):
    """Carries (s, e) with a least and a greatest exit value s + e, each
    with near ties: the same bits, the same value split as (0, v) or
    (v - 1/2, 1/2), a few ulps inside, and one column just inside and one
    just outside the margin; then random columns between the two.  A
    split with a large e rounds its later rows differently from (v, 0),
    so either may end up the extreme.  Also the index of each column
    just inside and just outside, per side."""
    cols = []
    ends = {"low": float(rng.uniform(-40.0, -20.0)),
            "high": float(rng.uniform(20.0, 40.0))}
    for side, v in ends.items():
        inward = 1.0 if side == "low" else -1.0
        cols += [(v, 0.0), (v, 0.0), (0.0, v), (v - 0.5, 0.5)]
        for k in (1, 2, 3):
            w = v + inward * k * np.spacing(abs(v))
            cols += [(w, 0.0), (0.0, w)]
    cols += [(float(x), 0.0) for x in rng.uniform(-15.0, 15.0, 6)]
    s, e = (np.array(a) for a in zip(*cols))
    margin = tail_margin(s, e, c, rows)
    edges = {}
    for side, v in ends.items():
        inward = 1.0 if side == "low" else -1.0
        edges[side] = (s.size, s.size + 1)
        s = np.append(s, [v + inward * 0.9 * margin,
                          v + inward * 1.1 * margin])
        e = np.append(e, [0.0, 0.0])
    perm = rng.permutation(s.size)
    where = {side: tuple(int(np.flatnonzero(perm == i)[0]) for i in pair)
             for side, pair in edges.items()}
    return s[perm], e[perm], where


class TestTailHelper:
    """The columns ``_tail_columns`` keeps give a constant tail's least or
    greatest sums bit for bit, against the Sum2 of the constant over every
    column; each leg exits at row 0 of its ``rows``."""

    SIDES = {"low": 1.0, "high": -1.0}

    def check(self, s, e, c, rows, sign):
        """Assert the kept columns' extreme of ``sign`` equals the full
        width's; return the kept columns (None for all)."""
        with np.errstate(over="ignore", invalid="ignore"):
            full = tail_sums(s, e, c, rows)
            cols = _tail_columns(s, e, c, rows, rows, sign)
            part = tail_sums(s, e, c, rows, cols)
            extreme = np.min if sign > 0 else np.max
            got, ref = extreme(part, axis=1), extreme(full, axis=1)
        assert np.array_equal(int64(got), int64(ref))
        return cols

    @pytest.mark.parametrize("rows", [1, 7, 1024, 1025, 5000])
    @pytest.mark.parametrize("c", [-1.0, math.log2(3.0), 1e-3, -0.7])
    def test_near_ties(self, c, rows):
        rng = np.random.default_rng(rows)
        for trial in range(4):
            s, e, where = near_tie_carries(rng, c, rows)
            for side, sign in self.SIDES.items():
                cols = self.check(s, e, c, rows, sign)
                assert cols is not None and cols.size < s.size
                for name in ("low", "high"):
                    inside, outside = where[name]
                    assert (inside in cols) == (name == side)
                    assert outside not in cols

    def test_realistic_carries(self):
        # carries of a Sum2 over 300 rows of random terms, with copies of
        # some columns: the copies dedupe, the leaders are kept
        rng = np.random.default_rng(5)
        x = rng.standard_normal((300, 12)) * rng.uniform(0.1, 3.0, 12)
        x[:, 7] = x[:, 2]
        s, e = _sum2_rows(x, np.zeros(12), np.zeros(12), np.empty((601, 12)))
        for c in (-1.0, math.log2(3.0), -0.7):
            for sign in self.SIDES.values():
                self.check(s, e, c, 2000, sign)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_carries_keep_every_column(self, bad):
        rng = np.random.default_rng(3)
        s, e, _ = near_tie_carries(rng, -0.7, 100)
        for which in (0, 1):
            carry = [s.copy(), e.copy()]
            carry[which][4] = bad
            for sign in self.SIDES.values():
                assert self.check(*carry, -0.7, 100, sign) is None
        for c in (np.inf, -np.inf, np.nan):
            for sign in self.SIDES.values():
                assert _tail_columns(s, e, c, 100, 100, sign) is None

    def test_long_tails_keep_every_column(self):
        # a zero constant keeps the margin 2**-50 (rows + 2) * 2 below the
        # gaps of 1 at 2**40 rows; one row more keeps every column
        s, e = np.array([0.0, 1.0, 2.0]), np.zeros(3)
        assert list(_tail_columns(s, e, 0.0, 2 ** 40, 2 ** 40, 1.0)) == [0]
        assert _tail_columns(s, e, 0.0, 2 ** 40 + 1, 2 ** 40 + 1,
                             1.0) is None
        # so large a carry would overflow the sums
        assert _tail_columns(s + 2.0 ** 1000, e, -1.0, 5, 5, 1.0) is None


@pytest.fixture
def narrowings(monkeypatch):
    """Each narrowing the sweeps of a test make, in order, as (row, rule,
    kept columns): ``rule`` holds the rule's ``name``, "tail" or "chain",
    and the arguments it was called with by ``operators._summed``, which
    looks the rules up at each call, so the spy sees every leg.  The tail
    rule narrows at row horizon - rows, the chain rule at max(steps)."""
    seen = []
    for name in ("tail", "chain"):
        real = getattr(operators, f"_{name}_columns")

        def spy(*args, real=real, name=name):
            cols = real(*args)
            rule = SimpleNamespace(
                name=name, **inspect.signature(real).bind(*args).arguments)
            row = (rule.horizon - rule.rows if name == "tail"
                   else int(rule.steps.max()))
            seen.append((row, rule, cols))
            return cols

        monkeypatch.setattr(operators, f"_{name}_columns", spy)
    return seen


def centred_slices(pts: np.ndarray, radii) -> list:
    """The registry's nested windows of ``radii`` as centred slices of the
    grid points ``pts``."""
    slices = []
    for m in radii:
        w = CompactWindow.from_grid(GRID, m).points.size
        slices.append(slice((pts.size - w) // 2, (pts.size + w) // 2))
    return slices


def assert_full_width(op, fwd, bwd, horizon, slices=(slice(None),)):
    """Every table of ``_leg_extremes``, either side of ``inverse`` and
    ``mirrored``, is bit for bit the one reduced from every cell."""
    for inverse in (False, True):
        full = full_width_extremes(op, fwd, bwd, horizon, inverse, slices)
        for mirrored in (False, True):
            exts = read_tables(_leg_extremes(
                op, fwd, bwd, horizon, slices=slices, mirrored=mirrored),
                inverse)
            for ext, ref in zip(exts, full, strict=True):
                assert np.array_equal(int64(ext), int64(ref[:len(ext)])), \
                    (horizon, inverse, mirrored)


class TestNarrowingRows:
    """An untrimmed leg narrows at its own row: its exit time, or, when it
    walks a lattice to the end, its longest chain offset; its first block
    ends there.  The tables are bit for bit the full-width ones on both
    sides of that row and of the block seams."""

    @staticmethod
    def rows_of(op, pts, narrowings):
        narrowings.clear()
        _leg_extremes(op, pts, pts, 3000, mirrored=False)
        return {row for row, _, _ in narrowings}

    @pytest.mark.parametrize("preset", TAIL_PRESETS)
    def test_horizons_around_the_rows(self, preset, narrowings):
        op = build_preset(preset)
        for m in (1.0, 2.0, 3.0):
            pts = CompactWindow.from_grid(GRID, m).points
            rows = self.rows_of(op, pts, narrowings)
            horizons = {h for r in rows for h in (r - 1, r, r + 1)}
            for horizon in sorted(horizons | {1023, 1024, 1025}):
                if horizon >= 1:
                    assert_full_width(op, pts, pts, horizon)

    @pytest.mark.parametrize("preset", TAIL_PRESETS)
    def test_registry_slices_around_the_rows(self, preset, narrowings):
        # the nested slices keep every column, around the rows where the
        # whole window narrows too
        op = build_preset(preset)
        pts = CompactWindow.from_grid(GRID, 3.0).points
        slices = centred_slices(pts, (0.0, 1.0, 2.0, 3.0))
        rows = self.rows_of(op, pts, narrowings)
        for horizon in sorted({h for r in rows for h in (r - 1, r, r + 1)}
                              | {200, 1025}):
            if horizon >= 1:
                assert_full_width(op, pts, pts, horizon, slices)

    @pytest.mark.parametrize("preset", ["ex3.8", "rem3.10"])
    def test_rows_past_the_first_block(self, preset, narrowings):
        # 513 points make blocks of 63 rows and chains 128 rows long: the
        # leaders' sums the certificates read span three blocks
        op = build_preset(preset)
        pts = CompactWindow.from_grid(GRID, 64.0).points
        assert _block_rows(pts.size) == 63
        narrowings.clear()
        _leg_extremes(op, pts, pts, 300, mirrored=False)
        (row, leg, cols), _ = narrowings
        assert leg.name == "chain" and row == 128 and cols is not None
        for horizon in (127, 128, 129, 300):
            assert_full_width(op, pts, pts, horizon)

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
    def test_ex38_legs_narrow_to_their_leaders(self, m, narrowings):
        # the forward leg never exits: from row 2m on it keeps one column
        # per chain (residue mod 1), the chain's top; the backward leg
        # exits at row m - 1 and keeps one column
        op = build_preset("ex3.8")
        pts = CompactWindow.from_grid(GRID, m).points
        _leg_extremes(op, pts, pts, 18000, mirrored=False)
        (row, fwd, cols), (brow, bwd, bcols) = narrowings
        assert fwd.name == "chain" and row == 2 * m
        assert pts[cols].tolist() == [m - 0.75, m - 0.5, m - 0.25, m]
        assert bwd.name == "tail" and bwd.c == -1.0
        assert brow == m - 1 and len(bcols) == 1

    def test_one_block_legs_do_not_narrow(self, narrowings):
        # a leg of one block would only be cut in two at its row
        op = build_preset("ex3.8")
        pts = CompactWindow.from_grid(GRID, 2.0).points
        rows = _block_rows(pts.size)
        _leg_extremes(op, pts, pts, rows, mirrored=False)
        assert narrowings == []
        _leg_extremes(op, pts, pts, rows + 1, mirrored=False)
        assert [row for row, _, _ in narrowings] == [4, 1]

    def test_mirrored_and_sliced_sweeps_keep_every_column(self,
                                                          narrowings):
        # a leg narrows only when its sweep reads one extreme of every
        # point: a mirrored sweep reads both of each leg, and a sweep of
        # the registry's nested windows or of one proper slice reads
        # extremes of parts of the window
        op = build_preset("ex3.8")
        two = CompactWindow.from_grid(GRID, 2.0).points
        three = CompactWindow.from_grid(GRID, 3.0).points
        for pts, slices, mirrored in (
                (two, [slice(None)], True),
                (three, centred_slices(three, (0.0, 1.0, 2.0, 3.0)), False),
                (two, [slice(4, 13)], False)):
            narrowings.clear()
            tables = _leg_extremes(op, pts, pts, 3000, slices=slices,
                                   mirrored=mirrored)
            assert narrowings == [], (slices, mirrored)
            for inverse in (False, True):
                full = full_width_extremes(op, pts, pts, 3000, inverse,
                                           slices)
                for ext, ref in zip(read_tables(tables, inverse), full,
                                    strict=True):
                    assert np.array_equal(int64(ext), int64(ref[:len(ext)]))

    def test_registry_narrows_only_ex38(self, narrowings):
        # of the registry's sweeps only ex3.8's, over its one window
        # m = 2 at H = 2000 and unmirrored, narrows: the forward leg to
        # its 4 chain tops at row 2m, the backward leg at its exit, row
        # m - 1, to one column
        run_registry(sorted(REGISTRY))
        (row, fwd, cols), (brow, bwd, bcols) = narrowings
        pts = CompactWindow.from_grid(GRID, 2.0).points
        assert fwd.name == "chain" and fwd.sign == 1.0 and row == 4
        assert pts[cols].tolist() == [1.25, 1.5, 1.75, 2.0]
        assert bwd.name == "tail" and bwd.sign == -1.0 and brow == 1
        assert len(bcols) == 1

    def test_narrowed_lattice_blocks_read_their_own_table(self,
                                                          monkeypatch):
        # ex3.8's 4 adjacent chain tops fill a table of 4 * 1023 + 4
        # entries, one per cell of their 1024-row blocks, so no block of
        # either leg builds orbit positions: the forward leg reads its 4
        # rows at full width and 2996 narrowed, the backward leg its one
        # walked row
        calls = []
        real = _Lattice.log2_block

        def spy(self, op, k1, step, out, cols=None):
            done = real(self, op, k1, step, out, cols)
            calls.append((cols is not None, done))
            return done

        def positions(*args, **kwargs):
            raise AssertionError("orbit positions built")

        monkeypatch.setattr(_Lattice, "log2_block", spy)
        monkeypatch.setattr(operators, "homeo_orbit_blocks", positions)
        op = build_preset("ex3.8")
        pts = CompactWindow.from_grid(GRID, 2.0).points
        _leg_extremes(op, pts, pts, 3000, mirrored=False)
        assert calls == [(False, True)] + [(True, True)] * 3 + [(False, True)]
        monkeypatch.undo()
        assert_full_width(op, pts, pts, 3000)

    def test_adjoint_supports(self, narrowings):
        # two point sets, each leg with its own lattice and chains
        op = build_preset("ex3.8")
        mu = np.array([-1.5, -1.0, 0.0, 0.25, 1.0, 2.0])
        nu = np.array([-2.0, -0.75, 0.0, 0.5, 1.0, 1.75, 3.0])
        for fwd, bwd in ((mu, nu), (nu, mu)):
            for horizon in (2, 3, 4, 1025):
                for inverse in (False, True):
                    [full] = full_width_extremes(op, fwd, bwd, horizon,
                                                 inverse)
                    for mirrored in (False, True):
                        [ext] = read_tables(_leg_extremes(
                            op, fwd, bwd, horizon, mirrored=mirrored),
                            inverse)
                        assert np.array_equal(int64(ext),
                                              int64(full[:len(ext)]))


# a telescoping-like weight with a deep dip 1600 rows down the forward
# walks, past their first block: the chain certificates must refuse the
# least value, for a dip lowers a later chain member below its leader
DIP = PiecewiseMap([-1700.0, -1601.0, -1600.0, -1599.0, -1.0, 0.0],
                   [1.0, 1.0, 2.0 ** -20, 1.0, 2.0, 0.5], positive=True)


class TestChainCertificates:
    """The chain rule asks the weight's ``bounds`` from the narrowing row
    on; where they do not prove a column stays clear of the extreme, the
    column is kept, and the tables stay bit for bit the full-width ones."""

    WINDOW = CompactWindow.from_grid(GRID, 2.0).points

    def test_a_dip_keeps_every_column(self, narrowings):
        op = CompositionOperator(Translation(-1.0), DIP)
        pts = self.WINDOW
        # below its exit at row 1702 the forward leg walks to the end
        for horizon in (1650, 18000):
            narrowings.clear()
            _leg_extremes(op, pts, pts, horizon, mirrored=False)
            row, fwd, cols = narrowings[0]
            if horizon == 1650:
                assert fwd.name == "chain" and row == 4 and cols is None
            else:
                assert fwd.name == "tail" and fwd.c == 0.0 and row == 1702
            assert_full_width(op, pts, pts, horizon)

    def test_each_member_reads_its_leaders_sum_at_its_own_offset(
            self, narrowings):
        # along the walk from 0 the terms are 1, -5, then 0 up to the hull
        # edge 5000 rows on: -1 (a = 1) stays 1 below 0's column, so it
        # keeps the least value, and -2 (a = 2) stays 4 above 0's column;
        # a certificate that read 0's sums a row off would keep -2 alone
        op = CompositionOperator(Translation(-1.0), PiecewiseMap(
            [-5000.0, -2.0, -1.0, 0.0], [1.0, 1.0, 1.0 / 32, 2.0],
            positive=True))
        pts = np.array([-2.0, -1.0, 0.0])
        _leg_extremes(op, pts, pts, 1100, mirrored=False)
        row, fwd, cols = narrowings[0]
        assert fwd.name == "chain" and row == 2
        assert fwd.steps.tolist() == [2, 1, 0]
        assert fwd.lead.tolist() == [-4.0, 1.0, 0.0]
        assert cols.tolist() == [1, 2]
        assert_full_width(op, pts, pts, 1100)


def chain_leg(keys, steps, chain, horizon=5000, later=(1.0, 1.0),
              whole=(0.5, 2.0), high=False) -> tuple:
    """The arguments (chain, steps, order, lead, later, whole, horizon) of
    ``operators._chain_columns`` for a leg at row max(steps) whose chain
    keys a*lambda - lead, lambda the low (``high``: high) end of
    ``_log2_range(later)``, are ``keys``."""
    lam = _log2_range(later)[1 if high else 0]
    steps = np.array(steps)
    with np.errstate(invalid="ignore"):  # an unbounded lambda
        lead = steps * lam - np.array(keys)
    order = np.array(sorted(range(steps.size),
                            key=lambda i: (chain[i], steps[i])))
    return np.array(chain), steps, order, lead, later, whole, horizon


def chain_margin(horizon=5000, whole=(0.5, 2.0)) -> float:
    """The chain rule's margin 2**-49 H Lambda (1 + 2**-51 H**2)."""
    lo, hi = _log2_range(whole)
    return math.ldexp(horizon * max(-lo, hi)
                      * (1.0 + math.ldexp(horizon * horizon, -51)), -49)


class TestChainHelper:
    """``_chain_columns``: a column goes when its key clears the best key
    before it in its chain by more than the margin, and stays when it
    does not."""

    STEPS = [0, 1, 2, 0, 1]
    CHAIN = [0, 0, 0, 3, 3]  # two chains, led by columns 0 and 3

    def narrow(self, keys, high=False, **leg):
        return _chain_columns(
            *chain_leg(keys, self.STEPS, self.CHAIN, high=high, **leg),
            -1.0 if high else 1.0)

    def test_near_the_margin(self):
        m = chain_margin()
        # column 1 clears its leader by 1.1 margins and goes; column 2
        # clears the best before it by 0.9 margins only; column 4 lies
        # below its leader and holds the least value
        keys = [0.0, 1.1 * m, 0.9 * m, 0.0, -1.1 * m]
        assert self.narrow(keys).tolist() == [0, 2, 3, 4]
        # the greatest mirrors it
        cols = self.narrow([-k for k in keys], high=True)
        assert cols.tolist() == [0, 2, 3, 4]

    def test_one_long_chain_takes_memory_linear_in_its_length(self):
        # a translation by -0.25 chains the 4097 points of the quarter
        # grid's window of radius 512 into one chain 4096 rows long: the
        # running best must not take a cell per (member, row) pair
        pts = CompactWindow.from_grid(Grid(1024.0, 0.25), 512.0).points
        lattice = _Lattice.of(Translation(-0.25), pts, 5000)
        leader, steps, order = lattice.chains(1)
        assert (leader == pts.size - 1).all() and steps.max() == 4096
        lam = _log2_range((1.0, 1.0))[0]
        k = pts.size
        lead = steps * lam - steps
        tracemalloc.start()
        try:
            cols = _chain_columns(leader, steps, order, lead, (1.0, 1.0),
                                  (0.5, 2.0), 5000, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cols.tolist() == [k - 1]
        assert peak < 64 * 8 * k

    def test_unproved_bounds_keep_every_column(self):
        keys = [0.0, 1.0, 2.0, 0.0, 1.0]
        assert self.narrow(keys).tolist() == [0, 3]
        for leg in ({"later": (0.0, 2.0)}, {"later": (np.nan, 2.0)},
                    {"whole": (0.5, np.inf)}, {"whole": (-1.0, 2.0)},
                    {"horizon": 2 ** 40 + 1}):
            assert self.narrow(keys, **leg) is None, leg


class TestExp2:
    """``_exp2`` is ``np.exp2`` bit for bit, its underflow written as +0.0
    without numpy's slow path."""

    def test_bits(self):
        rng = np.random.default_rng(23)
        x = np.concatenate((np.arange(-1080.0, -1070.0, 1.0 / 64),
                            [np.inf, -np.inf, np.nan, 0.0, -0.0, -1076.0,
                             np.nextafter(-1076.0, 0.0), -1075.0],
                            rng.uniform(-1100.0, 1100.0, 4000),
                            rng.standard_normal(500) * 30.0))
        with np.errstate(over="ignore"):
            ref = np.exp2(x)
            for part in (x, x[x > -1000.0], x[x <= -1076.0]):
                assert np.array_equal(int64(_exp2(part)),
                                      int64(np.exp2(part)))
            out = np.full(x.shape, 7.0)
            assert np.shares_memory(_exp2(x, out), out)
        assert np.array_equal(int64(out), int64(ref))
        for scalar in (-2000.0, -1074.0, 3.0, np.nan):
            got = _exp2(np.float64(scalar))
            assert np.shape(got) == ()
            assert int64(np.array(got)) == int64(np.exp2(np.array(scalar)))

    def test_hypercyclic_underflow(self):
        # max(x, y) <= -1076 gives q = +0.0 with log2 q kept, as np.exp2
        # rounds it, in arrays and in scalars
        x = np.array([-1076.0, -2000.0, -1100.0, -3.0, np.nan])
        y = np.array([-5000.0, -1077.0, -1076.0, -1080.0, -1090.0])
        hyper = _FORMULA[CriterionKind.HYPERCYCLIC_SOLID][0]
        log2_q, q = hyper(np.arange(1.0, 6.0), x, y)
        assert np.array_equal(log2_q, np.maximum(x, y), equal_nan=True)
        assert np.array_equal(int64(q), int64(np.exp2(np.maximum(x, y))))
        assert int64(q[:3]).tolist() == [0, 0, 0]
        log2_q, q = hyper(7.0, np.float64(-1200.0), np.float64(-1076.0))
        assert np.shape(q) == () and log2_q == -1076.0
        assert int64(np.array(q)) == 0


@pytest.fixture
def seams(monkeypatch):
    """Verdict blocks of 3 rows: the hand-built traces below, of 1 to 300
    n, cross seams of the verdict pass."""
    monkeypatch.setattr(criteria, "_VERDICT_ROWS", 3)


@pytest.mark.usefixtures("seams")
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
            assert v.records.dtype == np.intp
            assert not v.records.flags.writeable
            assert (v.status == SATISFIED) == (best <= 2.0)
            assert v.horizon == trace.size

    def test_no_record_is_not_satisfied(self):
        v = verdict_from_trace("K", [np.inf, np.nan], 1.0)
        assert v.witness == () and v.status != SATISFIED
        # not even against an infinite tol, which every log2 q is below
        v = verdict_from_trace("K", [np.inf, np.inf], math.inf)
        assert v.witness == () and v.status != SATISFIED

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            evaluate([CriterionKind.SUPERCYCLIC_SOLID], OP_DOUBLE, K0, 5, tol)

    def test_to_jsonl_matches_dict_serialiser(self):
        trace = [3.0, 0.0, -0.0, 0.0, 5e-324, 5e-324, 1e308, np.inf, np.nan,
                 -np.inf, -np.inf, 2.5, np.nan, np.inf]
        log2_trace = [1.5, -2000.0, -2000.0, -0.0, 0.0, -1074.0, 1023.5,
                      1e308, np.nan, -np.inf, -np.inf, 1.25, 5e-324, np.inf]
        verdicts = [verdict_from_trace("K", trace, 1e-6,
                                       {"inverse": True, "max_drop": 2},
                                       log2_trace),
                    verdict_from_trace("K", trace[:5], 1e-6),
                    verdict_from_trace("K", [np.inf, np.nan], 1.0)]
        for v in verdicts:
            assert v.to_jsonl(per_n=True) == dict_serialiser(v)
            assert v.jsonl_records() == [
                json.loads(line)
                for line in dict_serialiser(v).split("\n")]
            assert v.to_jsonl() == runs_serialiser(v)
        # ties, NaN and q = inf set no record
        flags = [r["record_min"] for r in verdicts[0].jsonl_records()[:-1]]
        assert [n for n, f in enumerate(flags, start=1) if f] == [1, 2, 10]

    def test_to_jsonl_matches_dict_serialiser_random(self):
        # random traces drawn partly from a small pool (ties, signed zeros,
        # subnormals, inf, nan) and partly over the whole float range
        rng = np.random.default_rng(12)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf,
                   np.nan]

        def column(size):
            pool = np.concatenate((special, rng.integers(-3, 4, 4),
                                   rng.normal(size=4)))
            wide = rng.normal(size=size) * 10.0 ** rng.integers(-330, 300,
                                                                 size)
            return np.where(rng.random(size) < 0.5,
                            rng.choice(pool, size), wide)

        for _ in range(200):
            size = int(rng.integers(1, 301))
            log2_trace = column(size) if rng.random() < 0.5 else None
            params = ({"window_radius": float(rng.integers(0, 4)),
                       "inverse": bool(rng.random() < 0.5),
                       "max_drop": int(rng.integers(0, 3))}
                      if rng.random() < 0.5 else None)
            v = verdict_from_trace("K", column(size),
                                   10.0 ** rng.uniform(-300, 2), params,
                                   log2_trace)
            assert v.to_jsonl(per_n=True) == dict_serialiser(v)
            assert v.to_jsonl() == runs_serialiser(v)


@pytest.mark.usefixtures("seams")
class TestRecordRuns:
    """``record_runs`` is the record set exactly, and the default summary
    line writes q only at the run ends."""

    @staticmethod
    def check(v):
        ns = [n for first, last in v.record_runs
              for n in range(first, last + 1)]
        assert np.array_equal(np.array(ns, dtype=np.intp) - 1, v.records)
        assert list(v.record_runs) == [tuple(run) for run in
                                       record_runs_of(ns)]
        assert v.to_jsonl() == runs_serialiser(v)
        line = json.loads(v.to_jsonl())
        assert line["record_runs"] == [list(run) for run in v.record_runs]
        if v.records.size:
            assert line["witness"][-1] == list(v.best)
        return line

    @pytest.mark.parametrize("example_id", sorted(REGISTRY))
    @pytest.mark.parametrize("inverse", [False, True])
    def test_registry_rows(self, example_id, inverse):
        example = REGISTRY[example_id]
        for exp in example.expectations:
            v = per_row_verdict(example, replace(exp, inverse=inverse))
            assert v.records.size
            self.check(v)

    def test_seeded_traces(self):
        # ties, NaN and inf break runs; every n a record makes one run
        rng = np.random.default_rng(21)
        for _ in range(100):
            size = int(rng.integers(1, 200))
            trace = np.exp2(-np.cumsum(rng.integers(-1, 3, size)))
            trace[rng.random(size) < 0.1] = np.nan
            trace[rng.random(size) < 0.1] = np.inf
            self.check(verdict_from_trace("K", trace, 1e-3))
        line = self.check(verdict_from_trace("K", 0.5 ** np.arange(50),
                                             1e-3))
        assert line["record_runs"] == [[1, 50]]
        assert [n for n, _ in line["witness"]] == [1, 50]

    def test_never_finite(self):
        line = self.check(verdict_from_trace("K", [np.inf, np.nan], 1.0))
        assert line["record_runs"] == [] and line["witness"] == []
        assert line["best_log2_q"] is None

    def test_single_record(self):
        line = self.check(verdict_from_trace("K", [2.0, 3.0, 2.0, np.nan],
                                             1.0))
        assert line["record_runs"] == [[1, 1]]
        assert line["witness"] == [[1, 2.0]]

    def test_distinct_records(self):
        # no two records adjacent: every record is a run of its own, so
        # the witness is the whole record set
        line = self.check(verdict_from_trace("K", [4.0, 5.0, 2.0, 3.0, 1.0],
                                             1.0))
        assert line["record_runs"] == [[1, 1], [3, 3], [5, 5]]
        assert line["witness"] == [[1, 4.0], [3, 2.0], [5, 1.0]]


class TestVerdictBlocks:
    """The verdict pass over fixed-height blocks is the whole-array verdict
    of ``oracles.WholeArrayVerdict`` bit for bit: the records, their runs,
    q and log2 q at every n and both files, on each side of every seam."""

    @staticmethod
    def horizons(rows):
        return sorted({h for h in (1, rows - 1, rows, rows + 1, 2 * rows + 1)
                       if h >= 1})

    @staticmethod
    def check_evaluate(op, window, horizon, tol, per_n=True):
        # every kind, T and its inverse; the adjoint kinds read the
        # mirrored rows of the one table
        [table] = _leg_extremes(op, window.points, window.points, horizon)
        for inverse in (False, True):
            verdicts = evaluate(list(CriterionKind), op, window, horizon, tol,
                                inverse=inverse)
            for kind, v in zip(CriterionKind, verdicts):
                params = {"window_radius": window.radius, "inverse": inverse}
                ref = whole_array_verdict(
                    kind, _kind_rows(kind, table, inverse), tol, params)
                same_verdict(v, ref, per_n)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_every_kind_at_small_blocks(self, monkeypatch, rows):
        monkeypatch.setattr(criteria, "_VERDICT_ROWS", rows)
        window = CompactWindow.from_grid(GRID, 1.0)
        for preset in ("ex3.5", "ex3.8"):
            for h in self.horizons(rows):
                self.check_evaluate(build_preset(preset), window, h, 1e-2)

    def test_every_kind_at_the_block_height(self):
        # ex3.5's supercyclic q underflows (log2 q <= -1076) from
        # n = 1078 on and stays a record at each n, one run over both seams
        rows = criteria._VERDICT_ROWS
        assert rows == operators._BLOCK_CELLS // 4 == 8192
        window = CompactWindow.from_grid(GRID, 1.0)
        op = build_preset("ex3.5")
        for h in self.horizons(rows):
            self.check_evaluate(op, window, h, 1e-2, per_n=False)
        # the per-n file of one kind over both seams
        kind = CriterionKind.SUPERCYCLIC_SOLID
        [table] = _leg_extremes(op, window.points, window.points,
                                2 * rows + 1, mirrored=False)
        [v] = evaluate([kind], op, window, 2 * rows + 1, 1e-2)
        same_verdict(v, whole_array_verdict(
            kind, table, 1e-2, {"window_radius": 1.0, "inverse": False}))
        assert v.record_runs == ((1, 2 * rows + 1),)
        assert v.best == (2 * rows + 1, 0.0) and v.best_log2_q < -1076

    # formula arguments of every kind: q under- and overflows (log2 q
    # <= -1076, x + y > 1024), ties, signed zeros and NaN
    SPECIAL = [-3000.0, -1077.0, -1076.0, -1075.5, -538.0, -3.0, -0.0, 0.0,
               1.0, 600.0, 1023.9, 1100.0, math.nan]

    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_specials_at_the_seams(self, monkeypatch, rows):
        monkeypatch.setattr(criteria, "_VERDICT_ROWS", rows)
        rng = np.random.default_rng(37 + rows)
        for h in self.horizons(rows) + [4 * rows + 2]:
            for _ in range(30):
                xy = np.where(rng.random((2, h)) < 0.6,
                              rng.choice(self.SPECIAL, (2, h)),
                              rng.normal(0.0, 700.0, (2, h)))
                for kind in CriterionKind:
                    ref = whole_array_verdict(kind, xy, 1e-3)
                    same_verdict(_kind_verdict(kind, xy, 1e-3), ref)

    def test_runs_across_seams(self, monkeypatch):
        # blocks of 4 rows: seams after n = 4, 8, 12
        monkeypatch.setattr(criteria, "_VERDICT_ROWS", 4)
        cases = {
            # one run from n = 3 over two seams
            (9.0, 9.5, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0):
                ((1, 1), (3, 10)),
            # a run ends at a seam, the next starts one n past it
            (5.0, 6.0, 6.0, 4.0, 7.0, 3.0, 2.0, 1.0): ((1, 1), (4, 4),
                                                       (6, 8)),
            # a run ends at a seam and goes on right after it
            (5.0, 6.0, 6.0, 4.0, 3.0, 7.0): ((1, 1), (4, 5)),
            # NaN, inf and a tie at the seams break no run but set no
            # record
            (5.0, 4.0, 3.0, math.nan, 2.0, math.inf, 2.0, 1.0, 0.5):
                ((1, 3), (5, 5), (8, 9)),
            # every n a record: one run of the whole trace
            tuple(0.5 ** np.arange(13)): ((1, 13),),
            (math.nan, math.inf, math.nan, math.inf, math.nan): (),
        }
        for trace, runs in cases.items():
            v = verdict_from_trace("K", trace, 1e-3)
            ref = WholeArrayVerdict("K", trace, 1e-3)
            assert v.record_runs == runs == ref.record_runs
            same_verdict(v, ref)

    def test_carry_across_seams(self, monkeypatch):
        # a block that starts above the minimum of the blocks before it
        # sets no record: the running minimum is carried over each seam
        monkeypatch.setattr(criteria, "_VERDICT_ROWS", 2)
        trace = [1.0, 4.0, 3.0, 2.0, 1.5, 0.5, 0.75, 0.6]
        v = verdict_from_trace("K", trace, 1.0)
        assert v.witness == ((1, 1.0), (6, 0.5))
        assert v.record_runs == ((1, 1), (6, 6))
        same_verdict(v, WholeArrayVerdict("K", trace, 1.0))

    @pytest.mark.parametrize("rows", [1, 2, 3, 8192])
    def test_hand_traces_match_the_whole_array(self, monkeypatch, rows):
        # the inf/NaN traces of the serialiser tests, split at seams
        monkeypatch.setattr(criteria, "_VERDICT_ROWS", rows)
        rng = np.random.default_rng(41)
        special = [0.0, -0.0, 5e-324, 1e-310, 1.0, 2.0, np.inf, -np.inf,
                   np.nan]
        for _ in range(100):
            size = int(rng.integers(1, 40))
            trace = rng.choice(special, size)
            log2_trace = (rng.choice(special + [-2000.0, 1e308], size)
                          if rng.random() < 0.5 else None)
            params = {"inverse": bool(rng.random() < 0.5)}
            tol = float(rng.choice([1e-6, 1.0, 2.0, math.inf]))
            same_verdict(
                verdict_from_trace("K", trace, tol, params, log2_trace),
                WholeArrayVerdict("K", trace, tol, params, log2_trace))

    def test_fields_are_rebuilt_not_kept(self):
        # a verdict keeps its (x, y) view, the run ends and the best, and
        # no horizon-sized array; its traces are made again on each read
        op = build_preset("ex3.8")
        window = CompactWindow.from_grid(GRID, 2.0)
        v, = evaluate([CriterionKind.HYPERCYCLIC_SOLID], op, window, 20000,
                      1e-2)
        kept = [value for value in vars(v).values()
                if isinstance(value, np.ndarray)]
        assert kept == []
        a, b = v.trace, v.trace
        assert a is not b and np.array_equal(a, b)
        assert not a.flags.writeable and not v.records.flags.writeable
        assert v.records.dtype == np.intp
        assert v.record_runs == ((1, 1), (7, 20000))


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
        kind = CriterionKind.SUPERCYCLIC_SOLID
        [v] = evaluate([kind], op, win, 5, 1e-6, max_drop=2)
        assert v.params["max_drop"] == 2
        ns = np.arange(1, 6)
        lf = np.array([forward_log2(op, win.points, n) for n in ns])
        lb = np.array([backward_log2(op, win.points, n) for n in ns])
        [(x, y)] = _best_removals([kind], ns.astype(float), lf, lb, 2)
        assert np.array_equal(v.log2_trace, x + y)
        for row, n in enumerate(ns):
            keep = _trim_exact(kind, n, lf[row], lb[row], 2)
            assert keep.any() and (~keep).sum() <= 2
            assert (x[row], y[row]) == (-lf[row, keep].min(),
                                        lb[row, keep].max())

    @staticmethod
    def check_rows(kind, ns, lf, lb, budget):
        """The rows' (x, y) are the kept extremes of the brute-force
        removal, their log2 q and q are its own bit for bit, and log2 q is
        never above the greedy's.  A leg never holds -0.0 (its Sum2 starts
        at +0.0), which ties with +0.0 under min and max, so nor do these."""
        lf, lb = lf + 0.0, lb + 0.0
        [(x, y)] = _best_removals([kind], np.array(ns, dtype=float), lf, lb,
                                  budget)
        for row, n in enumerate(ns):
            keep = _trim_exact(kind, n, lf[row], lb[row], budget)
            assert keep.any()
            assert (~keep).sum() <= min(budget, lf.shape[1] - 1)
            kept = (-lf[row, keep].min(), lb[row, keep].max())
            assert int64(np.array([x[row], y[row]])).tolist() == \
                int64(np.array(kept)).tolist()
            with np.errstate(over="ignore"):
                mine = _FORMULA[kind][0](n, x[row], y[row])
                ref = _FORMULA[kind][0](n, *kept)
            assert int64(np.array(mine)).tolist() == \
                int64(np.array(ref)).tolist()
            greedy = _trim_greedy(kind, n, lf[row], lb[row], budget)
            with np.errstate(over="ignore"):
                above = _FORMULA[kind][0](n, -lf[row, greedy].min(),
                                          lb[row, greedy].max())[0]
            assert mine[0] <= above

    # a small pool of values forces ties; the wide ones reach past the exp2
    # range, where the Cesaro formula switches to its log form
    VALUE = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 3.0]),
                      st.floats(-1100.0, 1100.0))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_rows_match_brute_force(self, data):
        kind = data.draw(st.sampled_from(sorted(_SOLID_KINDS)))
        rows, size = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
        budget = data.draw(st.one_of(st.integers(0, 3),
                                     st.integers(size, size + 2)))
        legs = st.lists(self.VALUE, min_size=rows * size,
                        max_size=rows * size)
        lf = np.reshape(data.draw(legs), (rows, size))
        lb = np.reshape(data.draw(legs), (rows, size))
        if data.draw(st.booleans()):
            # lf's argmin and lb's argmax at one index in every row
            j = data.draw(st.integers(0, size - 1))
            lf[:, j] = lf.min(axis=1) - 1.0
            lb[:, j] = lb.max(axis=1) + 1.0
        ns = data.draw(st.lists(st.integers(1, 5000), min_size=rows,
                                max_size=rows))
        self.check_rows(kind, ns, lf, lb, budget)

    @pytest.mark.parametrize("kind", sorted(_SOLID_KINDS))
    def test_seeded_rows_match_brute_force(self, kind):
        # every width 1-8 with budgets 0-3 and one at least the width, on
        # half-integer legs (ties) and on legs past the exp2 range
        rng = np.random.default_rng(34)
        for size in range(1, 9):
            for budget in (0, 1, 2, 3, size + int(rng.integers(0, 2))):
                for scale in (0.5, 300.0):
                    lf = np.round(rng.uniform(-4, 4, (8, size))) * scale
                    lb = np.round(rng.uniform(-4, 4, (8, size))) * scale
                    ns = rng.integers(1, 5000, 8).tolist()
                    self.check_rows(kind, ns, lf, lb, budget)

    def test_shared_extreme_costs_one_removal(self):
        # one point holds both the least lf and the greatest lb, a second
        # the next of each: removing both fits a budget of 2 only when the
        # shared points count once (the greedy stops after the first), and
        # no budget removes the third point too
        lf = np.array([[-6.0, -6.0, 0.0]])
        lb = np.array([[6.0, 6.0, 0.0]])
        for kind in sorted(_SOLID_KINDS):
            for budget in (2, 3, 9):
                [(x, y)] = _best_removals([kind], np.array([1.0]), lf, lb,
                                          budget)
                assert (x[0], y[0]) == (0.0, 0.0)
                self.check_rows(kind, [1], lf, lb, budget)

    def test_memory_stays_of_the_block(self):
        rng = np.random.default_rng(5)
        lf, lb = rng.standard_normal((2, 63, 513))
        ns = np.arange(1.0, 64.0)
        kind = CriterionKind.CESARO_SOLID
        tracemalloc.start()
        try:
            [(x, y)] = _best_removals([kind], ns, lf, lb, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * lf.nbytes
        # a kept set's extremes are at least each of its points' own, so
        # a budget that may keep any one point alone finds the best point
        log2_q = _FORMULA[kind][0](ns, x, y)[0]
        alone = _FORMULA[kind][0](ns[:, None], -lf, lb)[0].min(axis=1)
        assert np.array_equal(log2_q, alone)


class TestImplication:
    def test_cesaro_positive_instance(self):
        op = build_preset("ex3.5")
        win = CompactWindow.from_grid(GRID, 1.0)
        report = implication_check(op, win, 200, 1e-2)
        assert report.cesaro.status == SATISFIED
        assert report.supercyclic.status == SATISFIED
        assert report.ok

    def test_supercyclic_only_instance(self):
        op = build_preset("ex3.6")
        win = CompactWindow.from_grid(GRID, 1.0)
        report = implication_check(op, win, 200, 1e-2)
        assert report.supercyclic.status == SATISFIED
        assert report.cesaro.status != SATISFIED
        assert report.ok

    def test_unit_weight_vacuous(self):
        win = CompactWindow.from_grid(GRID, 1.0)
        report = implication_check(OP_UNIT, win, 50, 1e-6)
        assert report.cesaro.status != SATISFIED
        assert report.supercyclic.status != SATISFIED
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
