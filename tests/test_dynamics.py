import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lindyn.criteria import CompactWindow
from lindyn.errors import LindynError, ZeroVectorError
from lindyn.funcspace import (
    Grid,
    GridFunction,
    L2,
    PiecewiseAffineHomeo,
    PiecewiseMap,
    SUP,
    SegalNorm,
    Translation,
    linear_interpolate,
    norm,
    triangular_bump,
)
from lindyn import dynamics
from lindyn.dynamics import (
    _orbit_blocks,
    _scaled_distances,
    empirical_best,
    operator_orbit,
    orbit_trace,
    projective_distance,
)
from lindyn.operators import (
    CocycleSweep,
    CompositionOperator,
    _block_rows,
    _loses_mass,
    scale_by_exp2,
)
from lindyn.presets import build_preset
from oracles import (
    DegenerateApproximantError,
    apply_Sn,
    apply_Tn,
    cesaro_approximant,
    identity_homeo,
    per_row_orbit_trace,
    product_factors,
    segal_approximant,
    supercyclic_approximant,
)

RNG = np.random.default_rng(11)
SMALL = Grid(1.0, 0.5)  # five points
GRID = Grid(32.0, 0.25)

OP_ID = CompositionOperator(identity_homeo(),
                            PiecewiseMap.constant(1.0, positive=True))


def rand5(rng=RNG):
    return GridFunction(SMALL, rng.standard_normal(5)
                        + 1j * rng.standard_normal(5))


def brute_projective_sup(f, g, levels=2):
    """Two-level lambda grid search (modulus x phase, 1e6 samples each)."""
    fv, gv = f.values, g.values
    nf = np.abs(fv).max()
    ng = np.abs(gv).max()
    rho_lo, rho_hi = 0.0, 2.5 * ng / nf
    th_lo, th_hi = 0.0, 2.0 * math.pi
    best = (math.inf, 0.0, 0.0)
    for _ in range(levels):
        rho = np.linspace(rho_lo, rho_hi, 1000)
        th = np.linspace(th_lo, th_hi, 1000)
        lam = (rho[:, None] * np.exp(1j * th[None, :])).reshape(-1, 1)
        d = np.abs(lam * fv[None, :] - gv[None, :]).max(axis=1)
        i = int(np.argmin(d))
        ri, ti = divmod(i, 1000)
        if d[i] < best[0]:
            best = (float(d[i]), rho[ri], th[ti])
        drho = rho[1] - rho[0]
        dth = th[1] - th[0]
        rho_lo, rho_hi = max(0.0, rho[ri] - drho), rho[ri] + drho
        th_lo, th_hi = th[ti] - dth, th[ti] + dth
    return best[0]


class TestProjectiveDistance:
    def test_colinear(self):
        f = rand5()
        d, lam = projective_distance(f, 2.0 * f, L2)
        assert d <= 1e-12
        assert lam == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_supports(self):
        fv = np.array([1.0, 0, 0, 0, 0], dtype=complex)
        gv = np.array([0, 0, 2.0 / math.sqrt(SMALL.step), 0, 0],
                      dtype=complex)
        d, lam = projective_distance(GridFunction(SMALL, fv),
                                     GridFunction(SMALL, gv), L2)
        assert d == pytest.approx(2.0, rel=1e-14)
        assert lam == 0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            projective_distance(GridFunction.zero(SMALL), rand5())

    def test_sup_matches_brute_force(self):
        cases = [(rand5(), rand5()) for _ in range(4)]
        rng = np.random.default_rng(44)
        f, g = rand5(rng), rand5(rng)
        # real-valued pair: every centre g_i / f_i lies on one line
        cases.append((GridFunction(SMALL, f.values.real),
                      GridFunction(SMALL, g.values.real)))
        # duplicate centres: g = c f on three of the five rows
        gv = g.values.copy()
        gv[:3] = (0.3 - 1.1j) * f.values[:3]
        cases.append((f, GridFunction(SMALL, gv)))
        # zero rows of f under a dominant |g|: the floor is the distance
        fv = f.values.copy()
        fv[[0, 4]] = 0
        gv = g.values.copy()
        gv[0] = 10.0
        cases.append((GridFunction(SMALL, fv), GridFunction(SMALL, gv)))
        for f, g in cases:
            d, lam = projective_distance(f, g, SUP)
            assert norm(lam * f - g, SUP) == d
            brute = brute_projective_sup(f, g)
            assert abs(d - brute) <= 1e-4
        assert d == 10.0

    def test_sup_full_grid_matches_brute_force(self):
        rng = np.random.default_rng(513)
        grid = Grid(64.0, 0.25)
        f = GridFunction(grid, rng.standard_normal(513)
                         + 1j * rng.standard_normal(513))
        g = GridFunction(grid, rng.standard_normal(513)
                         + 1j * rng.standard_normal(513))
        d, lam = projective_distance(f, g, SUP)
        assert norm(lam * f - g, SUP) == d
        # the grid oracle cannot hold 513 rows; a sub-problem's minimum never
        # exceeds the full one's, so on the nine rows of largest residual the
        # oracle bounds the minimum from below while d bounds it from above
        top = np.argsort(np.abs(lam * f.values - g.values))[-9:]
        nine = Grid(1.0, 0.25)
        brute = brute_projective_sup(GridFunction(nine, f.values[top]),
                                     GridFunction(nine, g.values[top]))
        assert abs(d - brute) <= 1e-4

    def test_l2_matches_brute_force(self):
        for _ in range(4):
            f, g = rand5(), rand5()
            d, _ = projective_distance(f, g, L2)
            fv, gv = f.values, g.values
            h = SMALL.step
            nf2 = h * np.sum(np.abs(fv) ** 2)
            ng2 = h * np.sum(np.abs(gv) ** 2)
            ip = h * np.sum(fv * np.conj(gv))
            rho = np.linspace(0, 2.5 * math.sqrt(ng2 / nf2), 1000)
            th = np.linspace(0, 2 * math.pi, 1000, endpoint=False)
            lam = (rho[:, None] * np.exp(1j * th[None, :])).ravel()
            d2 = (np.abs(lam) ** 2 * nf2
                  - 2 * np.real(lam * np.conj(ip)) + ng2)
            brute = math.sqrt(max(float(d2.min()), 0.0))
            assert abs(d - brute) <= 1e-4

    def test_segal_constant_tau_doubles_sup(self):
        # with tau = 1/2 the Segal series is exactly 2 ||.||_inf, so the
        # Cartesian search must reproduce twice the exact sup-norm solve
        kind = SegalNorm(PiecewiseMap.constant(0.5))
        rng = np.random.default_rng(12)
        f, g = rand5(rng), rand5(rng)
        d, lam = projective_distance(f, g, kind)
        assert norm(lam * f - g, kind) == d
        assert abs(d - 2.0 * projective_distance(f, g, SUP)[0]) <= 1e-9

    def test_scale_invariance(self):
        for kind in (L2, SUP):
            f, g = rand5(), rand5()
            d1, _ = projective_distance(f, g, kind)
            d2, _ = projective_distance((3.7 - 0.2j) * f, g, kind)
            assert abs(d1 - d2) <= 1e-10 * max(1.0, d1)


class TestOrbitTrace:
    def test_identity_flat(self):
        f = triangular_bump(GRID)
        tr = orbit_trace(OP_ID, f, 10, SUP)
        assert np.all(tr.norms == tr.norms[0])
        assert tr.cesaro_norms[9] == tr.norms[0] / 10

    def test_cesaro_decay_for_left_doubling(self):
        op = build_preset("ex3.5")
        f = triangular_bump(GRID)
        tr = orbit_trace(op, f, 25, SUP)
        # forward orbit norms stabilize, so the scaled norm decays like 1/n
        assert tr.cesaro_norms[24] <= 1.5 / 25 + 1e-12
        assert tr.cesaro_norms[24] < 0.1 * tr.cesaro_norms[0]
        # the inverse orbit carries the exponential decay even after the
        # Cesaro scaling by n
        scaled = [n * norm(sf, SUP)
                  for n, sf in operator_orbit(op, f, 25, "S")]
        assert scaled[24] < 1e-4 * scaled[0]

    def test_telescoping_inverse_orbit_bounded_below(self):
        # the Cesaro-scaled inverse orbit carries the 1/n product floor:
        # n ||S^n f||_inf >= f(0) * 2 up to the grid boundary
        op = build_preset("ex3.8")
        f = triangular_bump(GRID)
        floors = [n * norm(sf, SUP)
                  for n, sf in operator_orbit(op, f, 30, "S")]
        assert min(floors) >= 1.9

    def test_truncation_flags_lost_mass(self):
        # ex3.5 reads T^n f on [-8 - n, 8 - n]: a tent at 7.25 (half-width
        # 0.5) loses mass from n = 1 and all of it from n = 2
        grid = Grid(8.0, 0.25)
        op = build_preset("ex3.5")
        f = triangular_bump(grid, 7.25, 0.5)
        steps = list(operator_orbit(op, f, 5))
        assert all(tf.truncated for _, tf in steps)
        assert steps[4][1].is_zero
        assert orbit_trace(op, f, 5, SUP).truncated.all()
        # the inverse side reads S^n f on [-8 + n, 8 + n] and loses nothing
        assert not any(sf.truncated for _, sf in operator_orbit(op, f, 5, "S"))
        # an interior tent is read in full until its support leaves the
        # image [-8, 8 - n]: its last nonzero point 2.75 goes at n = 6
        g = triangular_bump(grid, 2.0, 1.0)
        flags = [tf.truncated for _, tf in operator_orbit(op, g, 8)]
        assert flags == [False] * 5 + [True] * 3

    def test_csv(self, tmp_path):
        op = build_preset("ex3.5")
        f = triangular_bump(GRID)
        tr = orbit_trace(op, f, 5, L2, targets=[f])
        path = tmp_path / "orbit.csv"
        tr.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "n,norm,cesaro_norm,scaled_dist,truncated"
        assert len(rows) == 6
        assert [r.rsplit(",", 1)[1] for r in rows[1:]] == ["0"] * 5


    @pytest.mark.parametrize("kind", [L2, SUP], ids=["L2", "SUP"])
    def test_target_norms_once_per_orbit(self, monkeypatch, kind):
        # ex3.5 walks a centred tent on the 513-point grid for 64 rows, in
        # blocks of 63 and 1; the 317 later blocks are zero, and their
        # scaled distances are the targets' norms, each taken once
        import lindyn.dynamics
        import lindyn.funcspace

        calls = []
        row_norms = lindyn.funcspace.row_norms

        def counted(rows, kind, grid):
            calls.append(rows.copy())
            return row_norms(rows, kind, grid)

        monkeypatch.setattr(lindyn.funcspace, "row_norms", counted)
        monkeypatch.setattr(lindyn.dynamics, "row_norms", counted)
        grid = Grid(64.0, 0.25)
        op = build_preset("ex3.5")
        f = triangular_bump(grid)
        targets = [triangular_bump(grid, 3.0, 1.0),
                   triangular_bump(grid, -2.0, 0.5, 2.0)]
        for k in (1, 2):
            calls.clear()
            trace = orbit_trace(op, f, 20000, kind, targets[:k])
            assert len(calls) == 2 + k
            for g in targets[:k]:
                assert sum(np.array_equal(rows, g.values[None])
                           for rows in calls) == 1
            assert np.all(trace.scaled_dists[64:]
                          == norm(targets[0], kind))


class TestOrbitBlockSeams:
    """operator_orbit reads one leg of the orbit lattice in blocks of
    _block_rows rows; each T^n f and S^n f equals the one read off a
    CocycleSweep stepped n times, on both sides of the block seam."""

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
    # wide enough that part of every orbit is still on the grid, and f
    # nonzero there, past the seam
    GRID = Grid(640.0, 1.0)

    @pytest.mark.parametrize("side", ["T", "S"])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_matches_stepped_sweep(self, name, side):
        op = self.OPS[name]
        f = triangular_bump(self.GRID, 0.0, 640.0)
        b = _block_rows(f.grid.points.size)
        horizon = b + 3
        sweep = CocycleSweep(op, f.grid.points)
        checked = []
        for n, tf in operator_orbit(op, f, horizon, side):
            sweep.step()
            if n not in (b - 1, b, b + 1, horizon):
                continue
            if side == "T":
                pos, logs = sweep.forward_positions, sweep.log_forward
            else:
                pos, logs = sweep.backward_positions, -sweep.log_backward
            ref = scale_by_exp2(logs, linear_interpolate(f, pos))
            assert np.count_nonzero(ref) > 100
            assert np.array_equal(tf.values, ref)
            assert tf.truncated == (f.truncated or _loses_mass(f, pos))
            checked.append(n)
        assert checked == [b - 1, b, b + 1, horizon]


class TestOrbitExit:
    """From the exit time of the grid's walk from the hull of the seed's
    support on, every row is 0 and has lost the seed's mass: the block
    walk yields those rows without walking or interpolating them, bit for
    bit the rows read off a CocycleSweep stepped n times."""

    GRID = Grid(64.0, 0.25)  # 513 points: blocks of 63 rows
    WEIGHT = PiecewiseMap([-1.0, 0.0, 1.0], [2.0, 1.0, 0.5], positive=True)
    OPS = {
        "ex3.5": build_preset("ex3.5"),
        "shift-0.3": CompositionOperator(Translation(0.3), WEIGHT),
        "piecewise": CompositionOperator(PiecewiseAffineHomeo(
            PiecewiseMap([-1.0, 1.0], [-2.5, 0.5], 1.0, 1.0)), WEIGHT),
    }
    BUMP = triangular_bump(GRID, 0.0, 1.0, 1 - 0.5j)
    SEEDS = {
        "bump": BUMP,
        # nonzero up to the grid's last point
        "edge": triangular_bump(GRID, 62.0, 4.0, 0.5 + 1j),
        "truncated": GridFunction(GRID, BUMP.values, truncated=True),
        "zero": GridFunction.zero(GRID),
    }
    HORIZON = 450

    @pytest.mark.parametrize("side", ["T", "S"])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_rows_past_the_exit_match_the_sweep(self, name, side,
                                                monkeypatch):
        import lindyn.dynamics as dynamics

        read, walked = [], []

        def interpolate(f, pos):
            read.append(np.size(pos))
            return linear_interpolate(f, pos)

        def scale(logs, vals):
            walked.append(vals.shape)
            return scale_by_exp2(logs, vals)

        monkeypatch.setattr(dynamics, "linear_interpolate", interpolate)
        monkeypatch.setattr(dynamics, "scale_by_exp2", scale)
        op = self.OPS[name]
        size = self.GRID.points.size
        for seed, f in self.SEEDS.items():
            read.clear()
            walked.clear()
            blocks = list(dynamics._orbit_blocks(op, f, self.HORIZON, side))
            vals = np.concatenate([v for v, _ in blocks])
            lost = np.concatenate([flags for _, flags in blocks])
            # every walk leaves the grid's seed hull before the horizon,
            # and interpolates f at most once per cell of its walked rows
            # and live columns: every column of a piecewise-affine walk,
            # fewer under a translation
            rows = sum(r for r, _ in walked)
            assert rows < self.HORIZON if seed != "zero" else not read
            assert sum(read) <= sum(r * k for r, k in walked)
            live = {k for _, k in walked}
            assert len(live) <= 1
            if live:
                assert live == {size} if name == "piecewise" else (
                    max(live) < size)
            # the walked rows and columns hold every nonzero value
            nonzero = np.flatnonzero(vals.any(axis=0))
            assert rows >= np.flatnonzero(vals.any(axis=1)).size
            assert not nonzero.size or nonzero[-1] - nonzero[0] < max(live)
            sweep = CocycleSweep(op, f.grid.points)
            for n in range(1, self.HORIZON + 1):
                sweep.step()
                if side == "T":
                    pos, logs = sweep.forward_positions, sweep.log_forward
                else:
                    pos, logs = sweep.backward_positions, -sweep.log_backward
                ref = scale_by_exp2(logs, linear_interpolate(f, pos))
                assert np.array_equal(vals[n - 1].view(np.int64),
                                      ref.view(np.int64)), (seed, n)
                assert lost[n - 1] == (f.truncated or _loses_mass(f, pos))
            assert not vals[-1].any()


class TestLiveColumns:
    """A translation walks only its live columns, reads the seed off the
    walk's lattice table where it has one, and takes each row's flag from
    the row's two end points; any other map walks every column.  On every
    path each row equals, bit for bit, the row read off a CocycleSweep
    stepped n times, and each flag is ``_loses_mass`` of that row's
    positions, at horizons below and above the walk's exit time."""

    GRID = Grid(64.0, 0.25)  # 513 points: blocks of 63 rows
    # the weight varies along every orbit walked here, so a row read from
    # the wrong orbit point differs
    BP = np.linspace(-200.0, 200.0, 401)
    WEIGHT = PiecewiseMap(BP, 1.0 + 0.5 * np.sin(1.3 * BP), positive=True)
    OPS = {
        "ex3.5": build_preset("ex3.5"),
        # a lattice of unit 10 on the grid's step 0.25
        "shift-2.5": CompositionOperator(Translation(2.5), WEIGHT),
        # no lattice: 0.3 is no dyadic fraction
        "shift-0.3": CompositionOperator(Translation(0.3), WEIGHT),
        # constant everywhere: every row of the log leg is the tail's
        "one-node": CompositionOperator(
            Translation(-1.0), PiecewiseMap.constant(0.75, positive=True)),
        "piecewise": CompositionOperator(PiecewiseAffineHomeo(
            PiecewiseMap([-1.0, 1.0], [-2.5, 0.5], 1.0, 1.0)), WEIGHT),
    }
    BUMP = triangular_bump(GRID, 0.5, 1.5, 1 - 0.5j)
    SEEDS = {
        "complex": BUMP,
        # nonzero at the grid's first point, and at its last
        "left-edge": triangular_bump(GRID, -64.0, 2.0, 0.5 + 1j),
        "right-edge": triangular_bump(GRID, 64.0, 2.0, 2.0),
        "one-point": GridFunction(GRID, np.where(GRID.points == 3.0, 1.5j,
                                                 0.0)),
        "truncated": GridFunction(GRID, BUMP.values, truncated=True),
        "zero": GridFunction.zero(GRID),
    }
    HORIZONS = (20, 70, 450)

    @pytest.mark.parametrize("side", ["T", "S"])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_rows_and_flags_match_the_sweep(self, name, side):
        op = self.OPS[name]
        top = max(self.HORIZONS)
        below = above = 0
        for seed, f in self.SEEDS.items():
            sweep = CocycleSweep(op, f.grid.points)
            refs, flags = [], []
            for _ in range(top):
                sweep.step()
                if side == "T":
                    pos, logs = sweep.forward_positions, sweep.log_forward
                else:
                    pos, logs = sweep.backward_positions, -sweep.log_backward
                refs.append(scale_by_exp2(logs, linear_interpolate(f, pos)))
                flags.append(f.truncated or bool(_loses_mass(f, pos)))
            refs = np.array(refs)
            for h in self.HORIZONS:
                blocks = list(_orbit_blocks(op, f, h, side))
                vals = np.concatenate([v for v, _ in blocks])
                lost = np.concatenate([b for _, b in blocks])
                assert np.array_equal(vals.view(np.int64),
                                      refs[:h].view(np.int64)), (seed, h)
                assert lost.tolist() == flags[:h], (seed, h)
            below += bool(refs[min(self.HORIZONS) - 1].any())
            above += seed != "zero" and not refs[-1].any()
        # some walk is still on the seed at the least horizon, and every
        # one has left it by the greatest
        assert below and above == len(self.SEEDS) - 1

    @pytest.mark.parametrize("shift", [1.0, -1.0, 2.5, -2.5, 0.3, -0.3,
                                       0.25, -0.1])
    def test_live_columns_are_those_reading_the_open_hull(self, shift):
        # a column is dead when every read t + k*shift, k = 1..walked, lies
        # at or below lo, or every one at or above hi: reads on the hull's
        # ends are dead, and the hulls here are grid points and half-steps
        pts = self.GRID.points
        for lo, hi in [(-1.0, 1.0), (2.75, 3.25), (-64.25, -63.5),
                       (63.0, 64.25), (10.125, 10.625)]:
            for walked in (1, 2, 7, 63, 200):
                reads = pts[:, None] + np.arange(1, walked + 1) * shift
                dead = (reads <= lo).all(axis=1) | (reads >= hi).all(axis=1)
                cols = dynamics._live_columns(pts, shift, walked, lo, hi)
                assert (np.arange(pts.size)[cols].tolist()
                        == np.flatnonzero(~dead).tolist()), (lo, hi, walked)

    def test_one_node_weight_is_read_at_its_node_only(self, monkeypatch):
        # a map of one node and no slope is constant: the log leg is the
        # tail's from row 0, and the weight is evaluated at no orbit point
        op = self.OPS["one-node"]
        calls = []
        call = PiecewiseMap.__call__

        def counted(m, t):
            if m is op.weight:
                calls.append(np.size(t))
            return call(m, t)

        monkeypatch.setattr(PiecewiseMap, "__call__", counted)
        for side in ("T", "S"):
            calls.clear()
            for h in self.HORIZONS:
                assert len(list(_orbit_blocks(op, self.BUMP, h, side))) > 0
            assert calls == [1] * len(self.HORIZONS), side


class TestSupDistances:
    """The sup distances of a block, one solve per nonzero row and one
    pass over the rows' minimisers, equal per-row
    projective_distance(..., SUP)[0] bit for bit, and norm(g) at the zero
    rows."""

    GRID = Grid(4.0, 0.5)  # 17 points

    def block(self, rng):
        rows = (rng.standard_normal((60, 17))
                + 1j * rng.standard_normal((60, 17)))
        rows *= rng.random((60, 17)) < 0.6
        rows[::9] = 0.0
        # one-point supports, one of them at an extreme scale
        rows[1:4] = 0.0
        rows[1, 5], rows[2, 16], rows[3, 0] = 2 - 1j, -0.5, 1e-300
        # supported on the left half only, and at extreme scales within
        # the range of every g_i / f_i (TestSupSolveEnds goes past it)
        rows[5:8, 9:] = 0.0
        rows[6] *= 1e300
        rows[7] *= 1e-290
        return rows

    def targets(self, rng):
        g = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        one = np.zeros(17, dtype=complex)
        one[12] = 3.0
        right = np.where(np.arange(17) > 9, g, 0.0)
        return [g, np.zeros(17), one, right, 1e-200 * g]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_equals_per_row_solves(self, seed):
        rng = np.random.default_rng(seed)
        rows = self.block(rng)
        zero = ~rows.any(axis=1)
        for gv in self.targets(rng):
            g = GridFunction(self.GRID, gv)
            g_sup = norm(g, SUP)
            with np.errstate(divide="raise", over="raise",
                             invalid="raise"):
                d = _scaled_distances(rows, zero, g, g_sup, SUP, self.GRID)
            ref = [g_sup if z else
                   projective_distance(GridFunction(self.GRID, row), g,
                                       SUP)[0]
                   for row, z in zip(rows, zero)]
            assert np.array_equal(d, ref)
            assert ((0.0 <= d) & (d <= g_sup)).all()


class TestSupSolveEnds:
    """The sup solve ends, with a distance in [0, ||g||] and no warning,
    when some g_i / f_i overflows, which made its active set grow without
    end; each case runs in a fresh interpreter under a timeout, so that a
    solve that does not return fails."""

    CASES = {
        "subnormal-f": "GridFunction(Grid(2.0, 1.0), [0, 1, 5e-324, 0, 0]), "
                       "GridFunction(Grid(2.0, 1.0), [0, 1, 1, 0, 0])",
        "tents": "triangular_bump(Grid(64.0, 0.25), 0.0, 1.0, 1e-300), "
                 "triangular_bump(Grid(64.0, 0.25), 0.5, 1.0, 1e300)",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_returns_within_g(self, case):
        src = Path(dynamics.__file__).resolve().parents[1]
        code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
                "from lindyn.funcspace import Grid, GridFunction, SUP, "
                "norm, triangular_bump\n"
                "from lindyn.dynamics import projective_distance\n"
                f"f, g = {self.CASES[case]}\n"
                "d, lam = projective_distance(f, g, SUP)\n"
                "assert 0.0 <= d <= norm(g, SUP), d\n"
                "print(d)")
        done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              capture_output=True, text=True, timeout=20)
        assert (done.returncode, done.stderr) == (0, "")


class TestProductFormOracle:
    """Each row of operator_orbit equals the product-form power of
    tests/oracles.py, apply_Tn or apply_Sn, to 1e-12 relative, with the
    same truncation flag: the one T^n of the program against a second,
    independent fold of the weights."""

    OPS = {name: build_preset(name)
           for name in ("ex3.5", "ex3.6", "ex3.8", "rem3.10")}
    OPS["piecewise"] = CompositionOperator(
        PiecewiseAffineHomeo(PiecewiseMap([-1.0, 1.0], [-2.5, 0.5],
                                          1.0, 1.0)),
        PiecewiseMap([-1.0, 0.0, 1.0], [2.0, 1.0, 0.5], positive=True))
    GRID = Grid(64.0, 0.25)
    SEEDS = (triangular_bump(GRID, 0.0, 1.0, 1 - 0.5j),
             # under a shift by -1 it starts to leave the grid on side T
             # by n = 7 and has left it by n = 40
             triangular_bump(GRID, 56.0, 4.0, 0.5 + 1j))

    @pytest.mark.parametrize("side", ["T", "S"])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_rows_match_product_form(self, name, side):
        op = self.OPS[name]
        power = apply_Tn if side == "T" else apply_Sn
        for f in self.SEEDS:
            rows = dict(operator_orbit(op, f, 40, side))
            for n in (1, 7, 40):
                ref = power(op, f, n)
                scale = np.abs(ref.values).max()
                assert scale > 0 or f is self.SEEDS[1], (name, side, n)
                err = np.abs(rows[n].values - ref.values).max()
                assert err <= 1e-12 * scale, (name, side, n, err / scale)
                assert rows[n].truncated == ref.truncated, (name, side, n)


class TestOrbitWalk:
    """orbit_trace reads T^n f in row blocks; each of its columns and its
    best approaches equal, bit for bit, those of the per-row walk with one
    GridFunction per n, on both sides of every block seam."""

    GRID = Grid(128.0, 0.25)  # 1025 points: blocks of 31 rows
    BP = np.linspace(-200.0, 200.0, 401)
    WEIGHT = PiecewiseMap(BP, 1.0 + 0.5 * np.sin(1.3 * BP), positive=True)
    OPS = {
        "ex3.5": build_preset("ex3.5"),
        "shift-1": CompositionOperator(Translation(-1.0), WEIGHT),
        "shift-0.3": CompositionOperator(Translation(0.3), WEIGHT),
        "piecewise": CompositionOperator(PiecewiseAffineHomeo(
            PiecewiseMap([-1.0, 1.0], [-2.5, 0.5], 1.0, 1.0)), WEIGHT),
    }
    SEEDS = {
        "real": triangular_bump(GRID, 0.0, 3.0),
        "complex": triangular_bump(GRID, 0.0, 1.0, 1 - 0.5j),
        # under shift -1 it starts to leave the grid at n = 25, mid-block
        "edge": triangular_bump(GRID, 100.0, 4.0, 0.5 + 1j),
    }
    TARGETS = (triangular_bump(GRID, 4.0, 2.0),
               triangular_bump(GRID, -7.5, 1.5, 0.5 + 0.25j))

    def horizons(self):
        b = _block_rows(self.GRID.size)
        assert b == 31
        return (1, b - 1, b, b + 1, 2 * b + 3)

    @staticmethod
    def assert_same(trace, ref):
        assert np.array_equal(trace.norms, ref.norms)
        assert np.array_equal(trace.cesaro_norms, ref.cesaro_norms)
        assert np.array_equal(trace.truncated, ref.truncated)
        if ref.scaled_dists is None:
            assert trace.scaled_dists is None
        else:
            assert np.array_equal(trace.scaled_dists, ref.scaled_dists)
        assert trace.best == ref.best

    @pytest.mark.parametrize("mode", ["plain", "scaled", "cesaro"])
    @pytest.mark.parametrize("kind", [SUP, L2], ids=["sup", "l2"])
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_matches_per_row_oracle(self, name, kind, mode):
        op = self.OPS[name]
        for f in self.SEEDS.values():
            for h in self.horizons():
                args = (op, f, h, kind, self.TARGETS, mode)
                self.assert_same(orbit_trace(*args),
                                 per_row_orbit_trace(*args))

    def test_truncating_run_is_flagged(self):
        # T^n f reads f on [-128 - n, 128 - n]: its last nonzero point
        # 103.75 goes at n = 25, and its first, 96.25, at n = 32
        h = self.horizons()[-1]
        trace = orbit_trace(self.OPS["shift-1"], self.SEEDS["edge"], h, SUP)
        assert trace.truncated.tolist() == [False] * 24 + [True] * (h - 24)
        assert trace.norms[30] > 0 and not trace.norms[31:].any()

    def test_segal_norms_match_per_row_oracle(self):
        kind = SegalNorm(PiecewiseMap.constant(0.5))
        for name in ("ex3.5", "shift-0.3"):
            for h in self.horizons():
                args = (self.OPS[name], self.SEEDS["complex"], h, kind)
                self.assert_same(orbit_trace(*args),
                                 per_row_orbit_trace(*args))

    def test_l2_scaled_distance_of_complex_seed(self):
        # the L2 closed form takes |<f, g>| with the scalar abs of
        # projective_distance; np.abs on the complex128 block rounds one
        # of these distances an ulp away
        op = build_preset("ex3.5")
        grid = Grid(64.0, 0.25)
        f = triangular_bump(grid, 0.0, 1.0, 1 - 0.5j)
        targets = [triangular_bump(grid, c, w)
                   for c in (-3.0, 1.5, 4.0) for w in (0.5, 2.0)]
        for g in targets:
            args = (op, f, 200, L2, [g], "scaled")
            self.assert_same(orbit_trace(*args), per_row_orbit_trace(*args))

    @pytest.mark.parametrize("side", ["T", "S"])
    def test_overflow_names_n_and_side(self, side):
        # |w| = 1e6 on side T, 1e-6 on side S: 1e6^52 > 1.8e308 > 1e6^51
        w = 1e6 if side == "T" else 1e-6
        op = CompositionOperator(Translation(-1.0),
                                 PiecewiseMap.constant(w, positive=True))
        f = triangular_bump(Grid(64.0, 0.25))
        message = f"overflows at n = 52 on side {side}"
        steps = []
        with pytest.raises(LindynError, match=message):
            for n, _ in operator_orbit(op, f, 60, side):
                steps.append(n)
        # the block holding n = 52 is checked before any of its rows
        assert steps == []
        assert list(operator_orbit(op, f, 51, side))[-1][0] == 51
        if side == "T":
            with pytest.raises(LindynError, match=message):
                orbit_trace(op, f, 60, SUP, [f])


class TestApproximants:
    def test_identity_operator_sanity(self):
        f = triangular_bump(GRID)
        g = 2.0 * f
        ap = supercyclic_approximant(OP_ID, f, g, 1, kind=L2)
        # T = id: v = f + (||f||/||g||)^(1/2) g and lam T v reproduces g
        # up to the f-term scaled by (||g||/||f||)^(1/2)
        lhs = ap.lam * apply_Tn(OP_ID, ap.v, 1) - g
        expected = norm(f, L2) * ap.lam
        assert norm(lhs, L2) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_rejected(self):
        f = triangular_bump(GRID)
        with pytest.raises(DegenerateApproximantError):
            supercyclic_approximant(OP_ID, f, GridFunction.zero(GRID), 1)
        with pytest.raises(DegenerateApproximantError):
            cesaro_approximant(OP_ID, f, f, 3, mask=[])

    def test_forward_power_bound(self):
        # the two norm bounds behind the construction, checked numerically
        op = build_preset("ex3.6")
        grid = Grid(64.0, 0.25)
        f = triangular_bump(grid)
        win = CompactWindow.from_grid(grid, 1.0)
        for n in (1, 3, 9, 20):
            p_minus, p_plus = product_factors(op, win, n)
            assert norm(apply_Tn(op, f, n), L2) <= \
                p_plus * norm(f, L2) * (1 + 1e-12)
            assert norm(apply_Sn(op, f, n), L2) <= \
                p_minus * norm(f, L2) * (1 + 1e-12)

    def test_identity_cesaro_shrinks(self):
        f = triangular_bump(GRID)
        g = triangular_bump(GRID, 2.0, 1.0)
        ap = cesaro_approximant(OP_ID, f, g, 40, kind=L2)
        # n^{-1} T^n f = f / 40 -> far from g
        lhs = ap.lam * apply_Tn(OP_ID, ap.v, 40) - g
        assert norm(lhs, L2) == pytest.approx(norm(f, L2) / 40, rel=1e-12)

    def test_segal_tau_zero_reduces_to_sup(self):
        op = build_preset("ex3.5")
        grid = Grid(64.0, 0.25)
        f = triangular_bump(grid)
        g = triangular_bump(grid, 1.0, 0.5)
        tau0 = PiecewiseMap.constant(0.0)
        ap0 = segal_approximant(op, f, g, 4, tau0)
        ap_sup = supercyclic_approximant(op, f, g, 4, kind=SUP)
        assert ap0.lam == pytest.approx(ap_sup.lam, rel=1e-12)
        assert np.allclose(ap0.v.values, ap_sup.v.values, rtol=1e-12,
                           atol=0)

    def test_segal_constant_tau_ratio_unchanged(self):
        op = build_preset("ex3.5")
        grid = Grid(64.0, 0.25)
        f = triangular_bump(grid)
        tau = PiecewiseMap.constant(0.5)
        ap_half = segal_approximant(op, f, f, 4, tau)
        ap_zero = segal_approximant(op, f, f, 4, PiecewiseMap.constant(0.0))
        # the norm doubling cancels in the ratio
        assert ap_half.lam == pytest.approx(ap_zero.lam, rel=1e-9)

    def test_segal_convergence_along_witness(self):
        op = build_preset("ex3.6")
        grid = Grid(128.0, 0.25)
        xs = np.arange(-grid.half_width - 1, grid.half_width + 1.5, 0.5)
        ys = np.where(np.isclose(xs, np.round(xs)), 0.0, 0.4)
        tau = PiecewiseMap(xs, ys)  # period 1, so invariant under the shift
        f = triangular_bump(grid)
        g = triangular_bump(grid, 0.5, 0.5)
        kind = SegalNorm(tau)
        errs = []
        for n in (2, 20, 60):
            ap = segal_approximant(op, f, g, n, tau)
            errs.append(norm(ap.lam * apply_Tn(op, ap.v, n) - g, kind))
        assert errs[-1] < 1e-6 and errs[-1] < errs[0]


class TestEmpiricalBest:
    def test_orbit_point_targets(self):
        op = build_preset("ex3.5")
        grid = Grid(64.0, 0.25)
        f = triangular_bump(grid)
        t7 = apply_Tn(op, f, 7)
        plain = empirical_best(op, f, [t7], 20, L2, "plain")[0]
        assert plain.best_n == 7 and plain.best_distance == 0.0
        scaled = empirical_best(op, f, [5.0 * t7], 20, L2, "scaled")[0]
        assert scaled.best_n == 7 and scaled.best_distance <= 1e-12
        ces = empirical_best(op, f, [(1.0 / 7.0) * t7], 20, L2, "cesaro")[0]
        assert ces.best_n == 7 and ces.best_distance <= 1e-12

    def test_cesaro_dominates_scaled(self):
        op = build_preset("ex3.6")
        grid = Grid(64.0, 0.25)
        f = triangular_bump(grid)
        g = triangular_bump(grid, 1.0, 0.5)
        for n, tf in operator_orbit(op, f, 15):
            d_scaled, _ = projective_distance(tf, g, L2)
            d_ces = norm((1.0 / n) * tf - g, L2)
            assert d_ces >= d_scaled - 1e-12
