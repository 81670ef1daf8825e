"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line on success (visible
with ``pytest -s`` or ``-rP``).  Tolerances are pinned here and nowhere
else; a failure means the build does not meet its contract.
"""

import math
import time

import numpy as np

from lindyn.criteria import CompactWindow, CriterionKind, evaluate
from lindyn.dynamics import (
    cesaro_approximant,
    operator_orbit,
    projective_distance,
    supercyclic_approximant,
)
from lindyn.funcspace import (
    Grid,
    GridFunction,
    L2,
    PiecewiseMap,
    SUP,
    SegalNorm,
    Translation,
    homeo_power,
    norm,
    triangular_bump,
)
from lindyn.measures import AtomicMeasure, adjoint_Tn, duality_check
from lindyn.operators import (
    CompositionOperator,
    apply_S,
    apply_T,
    apply_Tn,
    cocycle,
)
from lindyn.porosity import (
    GammaSet,
    build_gamma,
    build_h,
    build_script_E,
    choose_N,
    corollary_check,
    corollary_g,
    gamma_membership,
    random_scene,
)
from lindyn.presets import REGISTRY, run_example
from oracles import quantity, sweep_factors


def report(idx, text):
    print(f"ACCEPTANCE {idx}: PASS - {text}")


def test_01_exact_cocycle_oracle():
    start = time.perf_counter()
    op = build_ex38(10**4 + 8)
    window = CompactWindow.singleton(0.0)
    p_minus, _ = sweep_factors(op, window, 10**4)
    n = np.arange(1, 10**4 + 1)
    err_ratio = np.max(np.abs(p_minus * n / 2.0 - 1.0))
    err_scaled = np.max(np.abs(n * p_minus - 2.0)) / 2.0
    elapsed = time.perf_counter() - start
    assert err_ratio <= 1e-12
    assert err_scaled <= 1e-12
    assert elapsed < 1.0
    report(1, f"P_minus(n) = 2/n for n <= 1e4, rel err {err_ratio:.2e}, "
              f"{elapsed:.2f}s")


def build_ex38(depth):
    from lindyn.presets import build_preset

    return build_preset("ex3.8", depth=depth)


def test_02_golden_verdicts():
    start = time.perf_counter()
    results = [r for ex_id in sorted(REGISTRY) for r in run_example(ex_id)]
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    assert elapsed < 30.0
    required = {"ex3.5", "ex3.6", "ex3.7", "ex3.8", "rem3.10", "ex4.3a",
                "ex4.3b", "ex3.12-condition"}
    assert required <= {r.example_id for r in results}
    report(2, f"{len(results)} registry expectations reproduced in "
              f"{elapsed:.2f}s")


def test_03_criterion_hierarchy():
    rng = np.random.default_rng(31415)
    window = CompactWindow.from_grid(Grid(64.0, 0.25), 1.0)
    checked = 0
    for _ in range(50):
        shift = float(rng.choice([-1.0, 1.0, -0.5, 0.5]))
        k = int(rng.integers(2, 5))
        xs = np.sort(rng.uniform(-5, 5, k)) + np.arange(k) * 1e-3
        ys = rng.uniform(0.2, 5.0, k)
        op = CompositionOperator(Translation(shift),
                                 PiecewiseMap(xs, ys, positive=True))
        for n in range(1, 31):
            qc = quantity(CriterionKind.CESARO_SOLID, op, window, n)
            if qc <= 1.0:
                qs = quantity(CriterionKind.SUPERCYCLIC_SOLID, op, window, n)
                assert qs <= qc * qc + 1e-10, (shift, n, qs, qc)
                checked += 1
    assert checked > 0
    report(3, f"q_super <= q_cesaro^2 held at {checked} applicable (op, n) "
              f"pairs over 50 random weights")


def test_04_approximant_contracts():
    from lindyn.presets import build_preset

    grid = Grid(256.0, 0.25)
    f = triangular_bump(grid, 0.0, 1.0)
    g = triangular_bump(grid, 0.0, 1.0)
    window = CompactWindow.from_grid(grid, 1.0)

    op36 = build_preset("ex3.6")
    [verdict] = evaluate([CriterionKind.SUPERCYCLIC_SOLID], op36, window,
                         60, 1e-6)
    nf, ng = norm(f, L2), norm(g, L2)
    for n, q in verdict.witness:
        ap = supercyclic_approximant(op36, f, g, n, kind=L2)
        lhs = norm(ap.lam * apply_Tn(op36, ap.v, n) - g, L2)
        assert lhs <= math.sqrt(q) * math.sqrt(nf * ng) + 1e-10, (n, lhs)

    op35 = build_preset("ex3.5")
    [verdict35] = evaluate([CriterionKind.CESARO_SOLID], op35, window, 60,
                           1e-1)
    for n, q in verdict35.witness:
        ap = cesaro_approximant(op35, f, g, n, kind=L2)
        lhs = norm(ap.lam * apply_Tn(op35, ap.v, n) - g, L2)
        assert lhs <= q * nf + 1e-10, (n, lhs, q * nf)

    # the telescoping instance: the Cesaro approximation error never drops
    # below 1/2 (its scaled product quantity is pinned at 2)
    wide = Grid(512.0, 0.25)
    fw = triangular_bump(wide, 0.0, 1.0)
    gw = triangular_bump(wide, 0.0, 1.0)
    op38 = build_ex38(600)
    lows = []
    for (n, tf), (_, sg) in zip(operator_orbit(op38, fw, 500, "T"),
                                operator_orbit(op38, gw, 500, "S")):
        v_err = norm(float(n) * sg, L2)            # ||v_n - f||
        t_err = norm((1.0 / n) * tf, L2)           # ||T^n f|| / n
        lows.append(max(v_err, t_err))
    assert min(lows) >= 0.5
    for n in (1, 50, 211, 500):
        ap = cesaro_approximant(op38, fw, gw, n, kind=L2)
        d = max(norm(ap.v - fw, L2),
                norm(ap.lam * apply_Tn(op38, ap.v, n) - gw, L2))
        assert d >= 0.5
    report(4, "supercyclic and Cesaro approximant bounds hold along the "
              "witnesses; the telescoping obstruction keeps the Cesaro "
              f"distance >= {min(lows):.3f} for n <= 500")


def test_05_operator_algebra():
    from lindyn.presets import build_preset

    rng = np.random.default_rng(5150)
    grid = Grid(16.0, 0.25)
    t = grid.points
    interior = np.abs(t) <= 8.0

    op2 = CompositionOperator(Translation(-1.0),
                              PiecewiseMap.constant(2.0, positive=True))
    for _ in range(50):
        f = GridFunction(grid, (rng.standard_normal(grid.size)
                                + 1j * rng.standard_normal(grid.size))
                         * interior)
        assert np.array_equal(apply_S(op2, apply_T(op2, f)).values, f.values)
        assert np.array_equal(apply_T(op2, apply_S(op2, f)).values, f.values)

    op35 = build_preset("ex3.5")
    for _ in range(300):
        m = int(rng.integers(1, 25))
        n = int(rng.integers(1, 25))
        x = float(rng.uniform(-8, 8))
        lhs = cocycle(op35, m + n, x)
        rhs = cocycle(op35, m, x) * cocycle(
            op35, n, float(homeo_power(op35.alpha, x, m)))
        assert abs(lhs / rhs - 1.0) <= 1e-10

    ops = [build_preset(p) for p in ("ex3.5", "ex3.6", "ex3.7")]
    ops.append(build_ex38(40))
    count = 0
    for i in range(1000):
        op = ops[i % len(ops)]
        f = GridFunction(grid, rng.standard_normal(grid.size)
                         + 1j * rng.standard_normal(grid.size))
        cur = f
        for _ in range(6):
            cur = apply_T(op, cur)
        assert np.array_equal(apply_Tn(op, f, 6).values, cur.values)
        count += 1
    report(5, f"inverse identities exact, cocycle identity at 1e-10, "
              f"closed-form power bitwise equal to iteration on {count} "
              f"random functions")


def test_06_adjoint_duality():
    from lindyn.presets import build_preset

    rng = np.random.default_rng(606)
    grid = Grid(16.0, 0.25)
    ops = [build_preset("ex3.5"), build_preset("ex3.6"),
           build_preset("ex4.3a")]
    for i in range(1000):
        op = ops[i % len(ops)]
        f = GridFunction(grid, rng.standard_normal(grid.size)
                         + 1j * rng.standard_normal(grid.size))
        idx = rng.choice(grid.size, size=8, replace=False)
        mu = AtomicMeasure(
            (float(grid.points[j]),
             complex(rng.standard_normal(), rng.standard_normal()))
            for j in idx
        )
        assert duality_check(op, f, mu, tol=1e-12)
    op = ops[0]
    for x in (-3.0, -0.25, 0.0, 2.5):
        for n in (1, 3, 11):
            star = adjoint_Tn(op, AtomicMeasure.delta(x), n)
            assert star.weights[0].real == cocycle(op, n, x)
            assert star.weights[0].imag == 0.0
    report(6, "duality held at 1e-12 on 1000 grid-atom instances; adjoint "
              "multipliers equal the cocycle bitwise")


def test_07_porosity_constructions():
    rng = np.random.default_rng(777)
    failures = 0
    for _ in range(100):
        scene = random_scene(rng)
        p = scene.params
        grid = scene.f.grid
        ints = grid.integer_indices
        n_cut = choose_N(scene.f, scene.k, scene.g, p.beta, p.r)
        h = build_h(scene.g, n_cut, p.delta, p.beta)
        ok = np.all(h.values[ints].real >= scene.g.values[ints].real)

        lifted = build_script_E(scene.k, scene.f, h, scene.g, n_cut,
                                p.delta, p.r_tilde)
        inner = [grid.index_of(float(m))
                 for m in range(-n_cut, n_cut + 1)]
        lift_ok = np.array_equal(
            np.abs(lifted.values[inner]),
            np.abs(scene.k.values[inner]) + p.delta)
        ball_ok = norm(lifted - scene.f, SUP) < p.r_tilde
        member_ok = gamma_membership(lifted, GammaSet(h))

        r_prime = min(p.delta,
                      p.lam * (p.r_tilde - norm(scene.f - lifted, SUP)))
        pert = 0.9 * r_prime * np.sin(rng.uniform(0.3, 3.0) * grid.points
                                      + rng.uniform(0, 6.28))
        v = GridFunction(grid, lifted.values + pert)
        refill = build_gamma(lifted, v, scene.g, h, n_cut, p.beta,
                             delta=p.delta, lam=p.lam, r_tilde=p.r_tilde,
                             f=scene.f)
        move_ok = norm(refill - v, SUP) <= p.lam * norm(lifted - v, SUP)
        refill_ok = gamma_membership(refill, GammaSet(scene.g))
        if not (ok and lift_ok and ball_ok and member_ok and move_ok
                and refill_ok):
            failures += 1
    assert failures == 0
    report(7, "all posted envelope/lift/refill inequalities held on 100 "
              "seeded scenes with zero failures")


def test_08_corollary_floor():
    start = time.perf_counter()
    grid = Grid(256.0, 1.0)
    op = CompositionOperator(Translation(-1.0),
                             PiecewiseMap.constant(2.0, positive=True))
    gamma = corollary_g(op, grid)
    floor = corollary_check(op, gamma, gamma.g, 100)
    elapsed = time.perf_counter() - start
    assert floor >= 1.0
    assert elapsed < 1.0
    report(8, f"min_n ||T^n f||_inf = {floor} >= 1 exactly, {elapsed:.2f}s")


def test_09_projective_distance():
    rng = np.random.default_rng(909)
    small = Grid(1.0, 0.5)
    h = small.step
    for _ in range(20):
        fv = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        gv = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = GridFunction(small, fv)
        g = GridFunction(small, gv)
        d, _ = projective_distance(f, g, L2)
        nf2 = h * np.sum(np.abs(fv) ** 2)
        ng2 = h * np.sum(np.abs(gv) ** 2)
        ip = h * np.sum(fv * np.conj(gv))
        rho = np.linspace(0, 2.5 * math.sqrt(ng2 / nf2), 1000)
        th = np.linspace(0, 2 * math.pi, 1000, endpoint=False)
        lam = (rho[:, None] * np.exp(1j * th[None, :])).ravel()
        d2 = np.abs(lam) ** 2 * nf2 - 2 * np.real(lam * np.conj(ip)) + ng2
        brute = math.sqrt(max(float(d2.min()), 0.0))
        assert abs(d - brute) <= 1e-4
        for kind in (L2, SUP):
            d1, _ = projective_distance(f, g, kind)
            c = complex(rng.standard_normal(), rng.standard_normal())
            if abs(c) < 0.1:
                c = 1.0 + 1.0j
            d2s, _ = projective_distance(c * f, g, kind)
            assert abs(d1 - d2s) <= 1e-10 * max(1.0, d1)
    report(9, "closed form matched the 1e6-sample grid within 1e-4 on 20 "
              "instances; scale invariance at 1e-10")


def test_10_segal_norm():
    rng = np.random.default_rng(1010)
    grid = Grid(8.0, 0.25)
    bump = triangular_bump(grid, 0.0, 1.0)
    kind = SegalNorm(PiecewiseMap.constant(0.5), tail_tol=1e-9)
    assert abs(norm(bump, kind) - 2.0 * norm(bump, SUP)) <= 1e-9
    for _ in range(200):
        xs = np.sort(rng.uniform(-8, 8, 4)) + np.arange(4) * 1e-3
        tau = PiecewiseMap(xs, rng.uniform(0.0, 0.8, 4))
        f = GridFunction(grid, rng.standard_normal(grid.size)
                         + 1j * rng.standard_normal(grid.size))
        assert norm(f, SegalNorm(tau)) >= norm(f, SUP)
    report(10, "series norm doubled the sup norm at tau = 1/2 within 1e-9 "
               "and dominated it on 200 random cases")
