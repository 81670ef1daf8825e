import itertools
import json
import re

import numpy as np
import pytest

from lindyn import porosity
from lindyn.dynamics import operator_orbit
from lindyn.errors import (LindynError, NoValidNError,
                           PreconditionViolatedError)
from lindyn.funcspace import (
    Grid,
    GridFunction,
    PiecewiseAffineHomeo,
    PiecewiseMap,
    SUP,
    Translation,
    homeo_power,
    norm,
    triangular_bump,
)
from lindyn.operators import CompositionOperator
from lindyn.porosity import (
    GammaSet,
    PorosityScene,
    build_gamma,
    build_h,
    build_script_E,
    choose_N,
    corollary_check,
    corollary_g,
    gamma_membership,
    phase_interpolant,
    porosity_probe,
    random_scene,
)
from lindyn.presets import build_preset
from oracles import (
    backward_log2,
    eager_porosity_probe,
    rectangular_bump,
    value_at,
)

RNG = np.random.default_rng(5)
GRID = Grid(8.0, 0.25)


def as_gf(values):
    return GridFunction(GRID, values)


def decaying_profile(scale=0.2):
    t = GRID.points
    return as_gf(scale * np.exp(-np.abs(t)) * (np.abs(t) <= 5))


class TestGammaMembership:
    def test_zero_profile_admits_everything(self):
        gamma = GammaSet(GridFunction.zero(GRID))
        f = as_gf(RNG.standard_normal(GRID.size))
        assert gamma_membership(f, gamma)

    def test_boundary_equality_is_member(self):
        g = decaying_profile()
        gamma = GammaSet(g)
        assert gamma_membership(g, gamma)

    def test_tiny_deficit_excluded(self):
        g = decaying_profile()
        vals = np.array(g.values)
        i0 = GRID.index_of(0.0)
        vals[i0] -= 1e-9
        assert not gamma_membership(as_gf(vals), GammaSet(g))

    def test_row_test_is_membership_per_row(self):
        g = decaying_profile()
        gamma = GammaSet(g)
        rows = (g.values + RNG.uniform(-0.02, 0.05, (64, GRID.size))
                * np.exp(1j * RNG.uniform(0, 2 * np.pi, (64, GRID.size))))
        got = gamma.contains_rows(rows)
        assert got.shape == (64,) and 0 < got.sum() < 64
        ints = GRID.integer_indices
        assert got.tolist() == [
            bool(np.all(np.abs(r[ints]) >= g.values[ints].real))
            for r in rows]


class TestChooseN:
    def test_all_zero(self):
        z = GridFunction.zero(GRID)
        assert choose_N(z, z, z, 0.25, 1.0) == 1

    def test_exponential_profile(self):
        t = GRID.points
        g = as_gf(np.exp(-np.abs(t)))
        z = GridFunction.zero(GRID)
        # need 4 e^{-|t|} < 1/6 for all |t| >= N: first integer is 4
        assert choose_N(z, z, g, 0.25, 1.0) == 4

    def test_block_support(self):
        k = rectangular_bump(GRID, -2.0, 2.0, 10.0)
        z = GridFunction.zero(GRID)
        assert choose_N(z, k, z, 0.25, 1.0) == 3

    def test_no_valid_cut(self):
        big = as_gf(np.full(GRID.size, 5.0))
        z = GridFunction.zero(GRID)
        with pytest.raises(NoValidNError):
            choose_N(big, big, z, 0.25, 1.0)


class TestBuildH:
    def test_zero_profile_ramps(self):
        z = GridFunction.zero(GRID)
        h = build_h(z, 2, 0.005, 0.5)
        t = GRID.points
        inner = np.abs(t) <= 2
        outer = np.abs(t) >= 3
        assert np.all(h.values[inner] == 0.005)
        assert np.all(h.values[outer] == 0.0)
        left = (t > -3) & (t < -2)
        assert np.allclose(h.values[left].real, 0.005 * (t[left] + 3),
                           rtol=0, atol=1e-15)
        right = (t > 2) & (t < 3)
        assert np.allclose(h.values[right].real, 0.005 * (3 - t[right]),
                           rtol=0, atol=1e-15)

    def test_constant_profile_collapses(self):
        c = 0.01
        g = as_gf(np.full(GRID.size, c))
        h = build_h(g, 1, c, 0.5)
        assert np.allclose(h.values.real, 2 * c, rtol=1e-15, atol=0)

    def test_integer_domination(self):
        for _ in range(20):
            scene = random_scene(RNG)
            p = scene.params
            n_cut = choose_N(scene.f, scene.k, scene.g, p.beta, p.r)
            h = build_h(scene.g, n_cut, p.delta, p.beta)
            ints = scene.g.grid.integer_indices
            gv = scene.g.values[ints].real
            hv = h.values[ints].real
            lift = np.minimum(p.delta, (1.0 / p.beta - 1.0) * gv)
            assert np.all(hv >= gv + lift - 1e-15)


class TestScriptE:
    def scene(self):
        scene = random_scene(RNG)
        p = scene.params
        n_cut = choose_N(scene.f, scene.k, scene.g, p.beta, p.r)
        h = build_h(scene.g, n_cut, p.delta, p.beta)
        return scene, p, n_cut, h

    def test_real_positive_profile_lift(self):
        scene, p, n_cut, h = self.scene()
        k = GridFunction(GRID, np.abs(scene.k.values.real))
        lifted = build_script_E(k, scene.f, h, scene.g, n_cut, p.delta)
        for m in range(-n_cut, n_cut + 1):
            assert value_at(lifted, m) == value_at(k, m) + p.delta

    def test_zero_k_uses_unit_phase(self):
        scene, p, n_cut, h = self.scene()
        z = GridFunction.zero(GRID)
        # relax the membership context: k = 0 is only in Gamma_g when g = 0
        zero_g = GridFunction.zero(GRID)
        h0 = build_h(zero_g, n_cut, p.delta, p.beta)
        lifted = build_script_E(z, z, h0, zero_g, n_cut, p.delta)
        for m in range(-n_cut, n_cut + 1):
            assert value_at(lifted, m) == p.delta

    def test_negative_real_phase(self):
        scene, p, n_cut, h = self.scene()
        vals = np.array(scene.k.values)
        vals[:] = -np.abs(vals.real) - 0.01
        k = GridFunction(GRID, vals)
        g0 = GridFunction.zero(GRID)
        h0 = build_h(g0, n_cut, p.delta, p.beta)
        lifted = build_script_E(k, scene.f, h0, g0, n_cut, p.delta)
        m0 = GRID.index_of(0.0)
        assert lifted.values[m0] == k.values[m0] - p.delta
        assert abs(lifted.values[m0]) == abs(k.values[m0]) + p.delta

    def test_contracts_asserted(self):
        scene, p, n_cut, h = self.scene()
        lifted = build_script_E(scene.k, scene.f, h, scene.g, n_cut,
                                p.delta, p.r_tilde)
        assert gamma_membership(lifted, GammaSet(h))
        assert gamma_membership(lifted, GammaSet(scene.g))
        assert norm(lifted - scene.f, SUP) < p.r_tilde

    def test_ball_violation_raises(self):
        scene, p, n_cut, h = self.scene()
        with pytest.raises(PreconditionViolatedError):
            build_script_E(scene.k, scene.f, h, scene.g, n_cut, p.delta,
                           r_tilde=1e-9)


class TestBuildGamma:
    def scene_with_u(self):
        scene = random_scene(RNG)
        p = scene.params
        n_cut = choose_N(scene.f, scene.k, scene.g, p.beta, p.r)
        h = build_h(scene.g, n_cut, p.delta, p.beta)
        u = build_script_E(scene.k, scene.f, h, scene.g, n_cut, p.delta,
                           p.r_tilde)
        r_prime = min(p.delta, p.lam * (p.r_tilde - norm(scene.f - u, SUP)))
        return scene, p, n_cut, h, u, r_prime

    def test_v_equals_u(self):
        scene, p, n_cut, h, u, _ = self.scene_with_u()
        out = build_gamma(u, u, scene.g, h, n_cut, p.beta, delta=p.delta,
                          lam=p.lam, r_tilde=p.r_tilde, f=scene.f)
        assert np.array_equal(out.values, u.values)

    def test_contract_and_membership(self):
        scene, p, n_cut, h, u, r_prime = self.scene_with_u()
        pert = 0.9 * r_prime * np.sin(GRID.points)
        v = GridFunction(GRID, u.values + pert)
        out = build_gamma(u, v, scene.g, h, n_cut, p.beta, delta=p.delta,
                          lam=p.lam, r_tilde=p.r_tilde, f=scene.f)
        assert norm(out - v, SUP) <= p.beta * norm(u - v, SUP) * (1 + 1e-12)
        assert norm(out - v, SUP) <= p.lam * norm(u - v, SUP)
        assert gamma_membership(out, GammaSet(scene.g))

    def test_outer_integer_chain(self):
        # real positive data at an outer integer: |gamma(m)| is exactly
        # |v(m)| + beta |u(m) - v(m)|
        scene, p, n_cut, h, u, r_prime = self.scene_with_u()
        m = float(n_cut + 2)
        if m > GRID.half_width - 1:
            pytest.skip("grid too small for an interior outer integer")
        pert = np.zeros(GRID.size)
        pert[GRID.index_of(m)] = -0.5 * r_prime
        v = GridFunction(GRID, u.values + pert)
        out = build_gamma(u, v, scene.g, h, n_cut, p.beta, delta=p.delta,
                          lam=p.lam, r_tilde=p.r_tilde, f=scene.f)
        lhs = abs(value_at(out, m))
        rhs = abs(value_at(v, m)) + p.beta * abs(value_at(u, m)
                                                 - value_at(v, m))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_preconditions_raise(self):
        scene, p, n_cut, h, u, r_prime = self.scene_with_u()
        outside = GridFunction(GRID, 0.5 * u.values)  # not in Gamma_h
        with pytest.raises(PreconditionViolatedError):
            build_gamma(outside, u, scene.g, h, n_cut, p.beta, delta=p.delta,
                        lam=p.lam, r_tilde=p.r_tilde, f=scene.f)
        far = GridFunction(GRID, u.values + 10 * r_prime)
        with pytest.raises(PreconditionViolatedError):
            build_gamma(u, far, scene.g, h, n_cut, p.beta, delta=p.delta,
                        lam=p.lam, r_tilde=p.r_tilde, f=scene.f)

    def test_envelope_nesting(self):
        scene, p, n_cut, h, *_ = self.scene_with_u()
        gamma_g = GammaSet(scene.g)
        gamma_h = GammaSet(h)
        hits = 0
        for _ in range(1000):
            scale = RNG.uniform(0, 2)
            probe = GridFunction(
                GRID, scale * RNG.standard_normal(GRID.size)
                + 1j * scale * RNG.standard_normal(GRID.size))
            if gamma_membership(probe, gamma_h):
                hits += 1
                assert gamma_membership(probe, gamma_g)
        # h >= g at the integers makes the nesting unconditional
        ints = GRID.integer_indices
        assert np.all(h.values[ints].real >= scene.g.values[ints].real)


class TestPhaseInterpolant:
    def test_modulus_bounded(self):
        angles = RNG.uniform(0, 2 * np.pi, 9)
        nodes = np.arange(-4.0, 5.0)
        phases = np.exp(1j * angles)
        query = np.linspace(-4, 4, 321)
        vals = phase_interpolant(nodes, phases, query)
        assert np.all(np.abs(vals) <= 1 + 1e-12)
        at_nodes = phase_interpolant(nodes, phases, nodes)
        assert np.allclose(at_nodes, phases, rtol=0, atol=0)


def assert_tent(grid, row):
    """row is a multiple of triangular_bump(grid, c, w) for some c, w."""
    nz = np.flatnonzero(row)
    assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))
    sign = np.sign(row[nz[0]])
    v, t = sign * row[nz], grid.points[nz]
    assert np.all(v > 0)
    # the end points lie on the rising line a + s (t - c) and on the
    # falling one a - s (t - c); some difference lies wholly on one of them
    slope = np.abs(np.diff(v)).max() / grid.step
    rise, fall = v[0] - slope * t[0], v[-1] + slope * t[-1]
    height, center = (rise + fall) / 2, (fall - rise) / (2 * slope)
    tent = triangular_bump(grid, center, height / slope, sign * height)
    assert np.allclose(row, tent.values.real, rtol=0,
                       atol=1e-12 * np.abs(row).max())


def perturbation_kinds(grid, block, scale):
    """Checks every row of a perturbation block and returns, per integer
    point, how many spike rows hit it, and the number of spike rows."""
    assert block.shape[1] == grid.size
    sup = np.abs(block).max(axis=1)
    assert np.all(sup >= 0.3 * scale * (1 - 1e-12))
    assert np.all(sup <= scale * (1 + 1e-12))
    ints = grid.integer_indices
    hits = np.zeros(grid.size, dtype=int)
    spikes = 0
    for row in block:
        nz = np.flatnonzero(row)
        if np.isin(nz, ints).all():
            assert nz.size == min(8, ints.size)
            hits[nz] += 1
            spikes += 1
        else:
            assert_tent(grid, row)
    return hits[ints], spikes


class TestProbe:
    @staticmethod
    def nowhere(rows):
        return np.zeros(len(rows), dtype=bool)

    @staticmethod
    def everywhere(rows):
        return np.ones(len(rows), dtype=bool)

    @staticmethod
    def member_every(k):
        """A row predicate that holds on no row of its first call, the
        outer block, and then on every k-th row it is asked about."""
        calls, rows_seen = itertools.count(), itertools.count(1)

        def member(rows):
            if next(calls) == 0:
                return np.zeros(len(rows), dtype=bool)
            return np.array([next(rows_seen) % k == 0 for _ in rows])
        return member

    @staticmethod
    def counted_draws(monkeypatch):
        draws = []
        draw = porosity._random_perturbations

        def counted(*args):
            draws.append(args[-1])
            return draw(*args)

        monkeypatch.setattr(porosity, "_random_perturbations", counted)
        return draws

    def test_whole_space_never_witnesses(self, monkeypatch):
        # every y is a member, so the outer block is the only draw
        draws = self.counted_draws(monkeypatch)
        x = GridFunction.zero(GRID)
        res = porosity_probe(self.everywhere, x, 0.5, 0.1, budget=16,
                             inner_budget=8, seed=1)
        assert res.witness is None
        assert all(r["inner_hits"] > 0 for r in res.records)
        assert draws == [16]

    def test_singleton_is_porous_at_its_point(self):
        x = GridFunction.zero(GRID)
        res = porosity_probe(lambda rows: ~rows.any(axis=1), x, 0.5, 0.1,
                             budget=16, inner_budget=64, seed=1)
        assert res.witness is not None
        assert res.witness_distance > 0

    @pytest.mark.parametrize("inner_budget", [0, 1])
    def test_inner_budget_below_two_rejected(self, inner_budget):
        # y and its pull toward x are always tested
        with pytest.raises(ValueError, match="inner_budget"):
            porosity_probe(self.everywhere, GridFunction.zero(GRID), 0.5,
                           0.1, budget=4, inner_budget=inner_budget)

    @pytest.mark.parametrize("every", [1, 4])
    def test_draws_stop_at_first_member(self, monkeypatch, every):
        # the outer block, then one single-row draw per random candidate
        # tested: the second query of a sample onwards, since the pull is
        # the first; drawing all of them first would make 16 * 6
        draws = self.counted_draws(monkeypatch)
        res = porosity_probe(self.member_every(every),
                             GridFunction.zero(GRID), 0.5, 0.1, budget=16,
                             inner_budget=8, seed=1)
        assert res.witness is None and len(res.records) == 16
        assert draws == [16] + [1] * (16 * (every - 1))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("member", ["never", "last"])
    def test_draws_match_eager_when_only_the_last_can_hit(self, seed,
                                                          member):
        # with no member before the last candidate both loops take every
        # draw in the same order, so the records agree bit for bit
        def probe(route):
            pred = (self.nowhere if member == "never"
                    else self.member_every(7))
            return route(pred, GridFunction.zero(GRID), 0.5, 0.1,
                         budget=16, inner_budget=8, seed=seed)

        lazy, eager = probe(porosity_probe), probe(eager_porosity_probe)
        assert len(lazy.records) == (1 if member == "never" else 16)
        assert lazy.records == eager.records
        assert lazy.witness_distance == eager.witness_distance

    @pytest.mark.parametrize("seed", range(12))
    def test_jsonl_is_json_dumps_of_records(self, seed):
        # with a witness (the singleton) and without one (the margined
        # envelope member)
        gamma = GammaSet(decaying_profile(0.05))
        x = GridFunction(GRID, decaying_profile(0.05).values + 0.3)
        runs = [
            porosity_probe(lambda rows: ~rows.any(axis=1),
                           GridFunction.zero(GRID), 0.5, 0.1, budget=16,
                           inner_budget=8, seed=seed),
            porosity_probe(gamma.contains_rows, x, 0.3, 0.1, budget=8,
                           inner_budget=8, seed=10 ** 9 + seed),
        ]
        assert runs[0].witness is not None and runs[1].witness is None
        for res in runs:
            expected = "\n".join(json.dumps(r, sort_keys=True)
                                  for r in res.records)
            assert res.to_jsonl() == expected

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("member", ["nowhere", "everywhere"])
    def test_d_is_the_sup_distance_as_a_float(self, seed, member):
        # the outer block is the probe's first draw
        x = GridFunction(GRID, RNG.standard_normal(GRID.size)
                         + 1j * RNG.standard_normal(GRID.size))
        res = porosity_probe(getattr(self, member), x, 0.5, 0.1, budget=16,
                             inner_budget=2, seed=seed)
        block = porosity._random_perturbations(
            GRID, 0.1, np.random.default_rng(seed), 16)
        assert len(res.records) == (1 if member == "nowhere" else 16)
        for r, row in zip(res.records, block):
            assert type(r["d"]) is float
            y = GridFunction(GRID, x.values + row)
            assert r["d"] == norm(y - x, SUP)
        if res.witness is not None:
            assert type(res.witness_distance) is float
            assert res.witness_distance == norm(res.witness - x, SUP)

    def test_non_finite_outer_block_raises(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                      match="finite"):
            porosity_probe(self.everywhere, GridFunction.zero(GRID), 0.5,
                           np.inf, budget=4, inner_budget=2)

    def test_non_finite_inner_candidate_raises(self, monkeypatch):
        draw = porosity._random_perturbations

        def overflowing(grid, scale, rng, count):
            block = draw(grid, scale, rng, count)
            return block if count > 1 else np.full_like(block, np.inf)

        monkeypatch.setattr(porosity, "_random_perturbations", overflowing)
        with pytest.raises(ValueError, match="finite"):
            porosity_probe(self.nowhere, GridFunction.zero(GRID), 0.5, 0.1,
                           budget=4, inner_budget=3)

    @pytest.mark.parametrize("size", [None, 1, 8])
    def test_sign_draw_is_rng_choice(self, size):
        # the signs index [-1.0, 1.0] by the draw rng.choice makes on it
        for seed in range(300):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = porosity._SIGNS[a.integers(0, 2, size)]
            want = b.choice([-1.0, 1.0], size=size)
            assert type(got) is type(want)
            assert np.asarray(got).dtype == np.asarray(want).dtype
            assert np.array_equal(got, want)
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("scale", [0.1, 0.5])
    def test_perturbation_block(self, scale):
        rng = np.random.default_rng(11)
        block = porosity._random_perturbations(GRID, scale, rng, 2000)
        hits, spikes = perturbation_kinds(GRID, block, scale)
        # a fair branch, and 8 of the 17 integer points, uniformly
        assert 900 < spikes < 1100
        assert np.all(np.abs(hits / spikes - 8 / 17) < 0.06)

    @pytest.mark.parametrize("grid", [GRID, Grid(2.0, 0.25)],
                             ids=["17-integers", "5-integers"])
    def test_single_row_draws(self, grid):
        # on a grid with fewer than 8 integers a spike row takes all of them
        rng = np.random.default_rng(3)
        rows = [porosity._random_perturbations(grid, 0.2, rng, 1)
                for _ in range(200)]
        assert all(r.shape == (1, grid.size) for r in rows)
        _, spikes = perturbation_kinds(grid, np.vstack(rows), 0.2)
        assert 0 < spikes < 200

    def test_envelope_set_resists_probe(self):
        gamma = GammaSet(decaying_profile(0.05))
        # a member with margin: the profile plus a uniform lift
        x = GridFunction(GRID, decaying_profile(0.05).values + 0.3)
        assert gamma_membership(x, gamma)
        for seed in range(10):
            for delta in (0.1, 0.01):
                res = porosity_probe(gamma.contains_rows, x, 0.5, delta,
                                     budget=32, inner_budget=32, seed=seed)
                assert res.witness is None


class TestCorollary:
    def doubling_op(self):
        return CompositionOperator(Translation(-1.0),
                                   PiecewiseMap.constant(2.0, positive=True))

    def test_profile_nodes(self):
        grid = Grid(32.0, 0.5)
        gamma = corollary_g(self.doubling_op(), grid)
        assert value_at(gamma.g, 1.0).real == 0.5
        assert value_at(gamma.g, 3.0).real == 0.125
        assert value_at(gamma.g, -2.0).real == 0.0
        # linear on [0, 1]
        assert value_at(gamma.g, 0.5).real == 0.25

    def test_nodes_are_backward_products(self):
        # a weight that varies along every backward orbit n+1, ..., 2n, so
        # reading a node after the wrong number of steps changes its value
        grid = Grid(16.0, 0.5)
        weight = PiecewiseMap([0.0, 5.0, 11.0, 20.0, 33.0],
                              [1.5, 3.0, 1.25, 2.5, 4.0], positive=True)
        for alpha in (Translation(-1.0), Translation(-0.75)):
            op = CompositionOperator(alpha, weight)
            gamma = corollary_g(op, grid, decay_tol=1.0)
            for n in range(1, 17):
                node = np.exp2(-backward_log2(op, float(n), n)[0])
                assert value_at(gamma.g, float(n)).real == node

    def test_unit_weight_warns(self):
        grid = Grid(16.0, 0.5)
        op = CompositionOperator(Translation(-1.0),
                                 PiecewiseMap.constant(1.0, positive=True))
        with pytest.warns(UserWarning):
            corollary_g(op, grid)

    def test_telescoping_direction_warns(self):
        # for the telescoping preset the backward inverse products grow
        grid = Grid(16.0, 0.5)
        op = build_preset("ex3.8")
        with pytest.warns(UserWarning):
            corollary_g(op, grid)

    def test_orbit_floor(self):
        grid = Grid(64.0, 1.0)
        op = self.doubling_op()
        gamma = corollary_g(op, grid)
        floor = corollary_check(op, gamma, gamma.g, 30)
        assert floor >= 1.0

    def test_floor_scales(self):
        grid = Grid(64.0, 1.0)
        op = self.doubling_op()
        gamma = corollary_g(op, grid)
        floor = corollary_check(op, gamma, 10.0 * gamma.g, 30)
        assert floor >= 10.0

    def test_non_member_rejected(self):
        grid = Grid(64.0, 1.0)
        op = self.doubling_op()
        gamma = corollary_g(op, grid)
        vals = np.array(gamma.g.values)
        vals[grid.index_of(2.0)] *= 0.5
        with pytest.raises(PreconditionViolatedError):
            corollary_check(op, gamma, GridFunction(grid, vals), 30)

    def test_check_is_the_per_row_minimum(self):
        # 513 points: blocks of 63 rows, so 100 rows cross a seam
        grid = Grid(256.0, 1.0)
        weight = PiecewiseMap([0.0, 40.0, 90.0], [2.0, 1.5, 3.0],
                              positive=True)
        for op in (self.doubling_op(),
                   CompositionOperator(Translation(-1.0), weight)):
            gamma = corollary_g(op, grid)
            for f in (gamma.g, 3.0 * gamma.g + GridFunction(
                    grid, np.where(grid.points > 200, 1j, 0))):
                for horizon in (1, 62, 63, 64, 100):
                    per_row = min(norm(tf, SUP) for _, tf in
                                  operator_orbit(op, f, horizon))
                    assert corollary_check(op, gamma, f, horizon) == per_row

    def test_overflow_is_an_error(self):
        grid = Grid(128.0, 1.0)
        op = CompositionOperator(Translation(-1.0),
                                 PiecewiseMap.constant(1e6, positive=True))
        gamma = GammaSet(GridFunction.zero(grid))
        with pytest.raises(LindynError, match="n = 52 on side T"):
            corollary_check(op, gamma, rectangular_bump(grid, -1.0, 1.0), 60)

    @pytest.mark.parametrize("alpha", [
        Translation(-1.0),
        PiecewiseAffineHomeo(PiecewiseMap([-1.0, 1.0], [-2.5, 0.5],
                                          1.0, 1.0)),
    ], ids=["translation", "piecewise"])
    def test_witness_points_from_one_walk(self, alpha, monkeypatch):
        # the first n whose witness alpha^-n(n) leaves the grid, named with
        # the float homeo_power gives; a piecewise-affine alpha makes one
        # inverse-map call per n, not n of them
        grid = Grid(16.0, 1.0)
        op = CompositionOperator(alpha, PiecewiseMap.constant(2.0,
                                                              positive=True))
        first = next(n for n in itertools.count(1)
                     if abs(homeo_power(alpha, float(n), -n)) > 16.0)
        wp = float(homeo_power(alpha, float(first), -first))
        calls = []
        call = PiecewiseMap.__call__
        monkeypatch.setattr(PiecewiseMap, "__call__",
                            lambda m, t: calls.append(1) or call(m, t))
        message = f"witness point alpha^-{first}({first}) = {wp} leaves"
        with pytest.raises(PreconditionViolatedError,
                           match=re.escape(message)):
            corollary_check(op, GammaSet(GridFunction.zero(grid)),
                            rectangular_bump(grid, -1.0, 1.0), 60)
        assert len(calls) == (0 if isinstance(alpha, Translation) else 60)

    def test_grid_too_small(self):
        grid = Grid(16.0, 1.0)
        op = self.doubling_op()
        gamma = corollary_g(op, grid, decay_tol=1e-4)
        with pytest.raises(PreconditionViolatedError):
            corollary_check(op, gamma, gamma.g, 12)


class TestSceneIO:
    def test_json_round_trip(self):
        scene = random_scene(RNG)
        back = PorosityScene.from_json(scene.to_json())
        assert np.array_equal(back.f.values, scene.f.values)
        assert np.array_equal(back.k.values, scene.k.values)
        assert np.array_equal(back.g.values, scene.g.values)
        assert back.params == scene.params
