import math

import numpy as np
import pytest

from lindyn.criteria import CompactWindow
from lindyn.errors import DegenerateApproximantError, ZeroVectorError
from lindyn.funcspace import (
    Grid,
    GridFunction,
    L2,
    PiecewiseAffineHomeo,
    PiecewiseMap,
    SUP,
    SegalNorm,
    Translation,
    identity_homeo,
    linear_interpolate,
    norm,
    triangular_bump,
)
from lindyn.dynamics import (
    cesaro_approximant,
    empirical_best,
    operator_orbit,
    orbit_trace,
    projective_distance,
    segal_approximant,
    supercyclic_approximant,
)
from lindyn.operators import (
    CocycleSweep,
    CompositionOperator,
    _block_rows,
    _loses_mass,
    apply_Tn,
    scale_by_exp2,
)
from lindyn.presets import build_preset
from oracles import product_factors

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
        kind = SegalNorm(PiecewiseMap.constant(0.5), tail_tol=1e-9)
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
        op = build_preset("ex3.8", depth=80)
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
        from lindyn.operators import apply_Sn
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
