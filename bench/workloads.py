"""Seeded workloads of the lindyn benchmark and the checks on their outputs.

Each workload is a small pool of CLI operations generated from the workload
seed; a run cycles through its pool, so later operations repeat earlier ones
with identical inputs and their output files must hash identically.  Every
check below is drawn from the paper's closed forms and contracts, not from
the program's current output.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep_long", "registry", "orbit_sup", "porosity")

# Operations of one traced run: a fixed list, so its counts repeat exactly.
TRACE_OPS = {"sweep_long": 1, "registry": 3, "orbit_sup": 2, "porosity": 8}

EXPECTED_SWEEP = {
    "SUPERCYCLIC_SOLID": "SATISFIED",
    "CESARO_SOLID": "NOT_SATISFIED_UP_TO_HORIZON",
    "HYPERCYCLIC_SOLID": "SATISFIED",
}
CLOSED_FORM_RTOL = 1e-12
REGISTRY_SIZE = 24
ORBIT_HORIZON = 8
ORBIT_GRID = (64.0, 0.25)
POROSITY_CYCLE = 32  # every eighth operation is the corollary


@dataclass
class Op:
    """One CLI invocation; ``config`` is written to ``config_name`` at set-up
    and ``params`` carries what the check needs to know."""

    argv: list
    params: dict = field(default_factory=dict)
    config: dict | None = None
    config_name: str | None = None

    @property
    def key(self) -> str:
        """Identity of the inputs: operations with equal keys must write
        byte-identical outputs."""
        return json.dumps([self.argv, self.config], sort_keys=True)


def _sweep_long(rng: random.Random, tiny: bool) -> list:
    # Stratified, antithetic horizons in [16000, 20000]: the pool is
    # (middle, low, high), so the median operation of any run prefix is the
    # middle one and a full cycle averages to H = 18000.
    d = rng.randint(200, 2000)
    horizons = [18000 + rng.randint(-200, 200), 18000 - d, 18000 + d]
    radii = rng.sample([1, 2, 3], 3)
    ops = []
    for i, (h, m) in enumerate(zip(horizons, radii)):
        if tiny:
            h //= 8
        cfg = {"operator": {"preset": "ex3.8"}, "space": {"kind": "L2"},
               "window": {"m": m}, "horizon": h, "tol": 1e-2,
               "depth": h + m + 8}
        name = f"sweep{i}.json"
        ops.append(Op(["classify", "--config", name], {"m": m, "horizon": h},
                      cfg, name))
    return ops


def _registry(rng: random.Random, ids: list) -> list:
    ops = []
    for _ in range(3):
        order = list(ids)
        rng.shuffle(order)
        ops.append(Op(["examples", *order]))
    return ops


def _orbit_sup(rng: random.Random, tiny: bool) -> list:
    horizon = 2 if tiny else ORBIT_HORIZON
    ops = []
    for i in range(3):
        target = {"center": rng.uniform(1.0, horizon),
                  "half_width": rng.uniform(0.5, 2.0), "height": 1.0}
        cfg = {"operator": {"preset": "ex3.5"}, "space": {"kind": "C0"},
               "grid": {"half_width": ORBIT_GRID[0], "step": ORBIT_GRID[1]},
               "horizon": horizon,
               "seed_function": {"center": 0.0, "half_width": 1.0,
                                 "height": 1.0},
               "targets": [target], "mode": "scaled"}
        name = f"orbit{i}.json"
        ops.append(Op(["orbit", "--config", name], {"target": target,
                                                    "horizon": horizon},
                      cfg, name))
    return ops


def _porosity(rng: random.Random) -> list:
    theorem_seeds = rng.sample(range(1, 2 ** 31), POROSITY_CYCLE
                               - POROSITY_CYCLE // 8)
    ops = []
    for i in range(POROSITY_CYCLE):
        if i % 8 == 7:
            ops.append(Op(["porosity", "--mode", "corollary"],
                          {"mode": "corollary"}))
        else:
            s = theorem_seeds.pop()
            ops.append(Op(["porosity", "--mode", "theorem", "--seed", str(s)],
                          {"mode": "theorem"}))
    return ops


def make_ops(workload: str, seed: int, registry_ids, *, tiny: bool = False):
    """The operation pool of ``workload``: the same seed gives the same
    pool.  ``registry_ids`` are the golden-registry ids the program exposes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_long":
        return _sweep_long(rng, tiny)
    if workload == "registry":
        return _registry(rng, sorted(registry_ids))
    if workload == "orbit_sup":
        return _orbit_sup(rng, tiny)
    if workload == "porosity":
        return _porosity(rng)
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(ops, directory: Path) -> list:
    """Write each config file and return the operations' argv with the
    config names resolved inside ``directory``."""
    argvs = []
    for op in ops:
        argv = list(op.argv)
        if op.config is not None:
            path = directory / op.config_name
            path.write_text(json.dumps(op.config, sort_keys=True))
            argv[argv.index(op.config_name)] = str(path)
        argvs.append(argv)
    return argvs


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.
# ``fault`` injects a wrong expectation, to show that the check can fail.


def check_sweep_long(op, rc, stdout, out: Path, fault: bool) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    summaries = {}
    with open(out / "verdicts.jsonl") as fh:
        for line in fh:
            if '"status"' in line:
                rec = json.loads(line)
                summaries[rec["kind"]] = rec
    expected = dict(EXPECTED_SWEEP)
    if fault:
        expected["CESARO_SOLID"] = "SATISFIED"
    problems = []
    for kind, status in expected.items():
        got = summaries.get(kind, {}).get("status")
        if got != status:
            problems.append(f"{kind}: status {got}, expected {status}")
    hyper = summaries.get("HYPERCYCLIC_SOLID")
    if hyper is not None:
        m, h = op.params["m"], op.params["horizon"]
        # telescoping product on [-m, m]: q(H) = 2^(m+1) / (H - m)
        closed = 2.0 ** (m + 1) / (h - m)
        n, q = hyper["witness"][-1]
        if n != h or not math.isclose(q, closed, rel_tol=CLOSED_FORM_RTOL,
                                      abs_tol=0.0):
            problems.append(f"HYPERCYCLIC best q({n}) = {q}, closed form "
                            f"q({h}) = {closed}")
    return problems


def check_registry(op, rc, stdout, out: Path, fault: bool) -> list:
    size = REGISTRY_SIZE + 1 if fault else REGISTRY_SIZE
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if f"{size}/{size} expectations matched" not in stdout:
        problems.append(f"not all {size} registry expectations matched")
    return problems


class OrbitBound:
    """Upper bound on the scaled distance d_n = min_lambda ||lambda T^n f -
    g||_inf: the feasible scalars 0 and the L2 least-squares lambda_2, both
    evaluated through the public API."""

    def __init__(self, lindyn):
        self.lindyn = lindyn
        self.op = lindyn.build_preset("ex3.5")
        self.grid = lindyn.Grid(*ORBIT_GRID)
        self.seed_fn = lindyn.triangular_bump(self.grid, 0.0, 1.0, 1.0)

    def bounds(self, target: dict, horizon: int) -> list:
        ld = self.lindyn
        g = ld.triangular_bump(self.grid, target["center"],
                               target["half_width"], target["height"])
        g_sup = ld.norm(g, ld.SUP)
        out = []
        for _, tf in ld.dynamics.operator_orbit(self.op, self.seed_fn,
                                                horizon):
            _, lam2 = ld.projective_distance(tf, g, ld.L2)
            out.append(min(g_sup, ld.norm(lam2 * tf - g, ld.SUP)))
        return out


def check_orbit_sup(op, rc, stdout, out: Path, fault: bool,
                    bound: OrbitBound) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    with open(out / "orbit.csv", newline="") as fh:
        dists = [float(row["scaled_dist"]) for row in csv.DictReader(fh)]
    upper = bound.bounds(op.params["target"], op.params["horizon"])
    if len(dists) != len(upper):
        return [f"{len(dists)} orbit rows, expected {len(upper)}"]
    problems = []
    for n, (d, ub) in enumerate(zip(dists, upper), start=1):
        if fault:
            ub = 0.0
        if not 0.0 <= d <= ub:
            problems.append(f"scaled_dist d_{n} = {d!r} outside [0, {ub!r}]")
    return problems


def check_porosity(op, rc, stdout, out: Path, fault: bool) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    lines = (out / "porosity.jsonl").read_text().splitlines()
    summary = json.loads(lines[-1])
    if op.params["mode"] == "corollary":
        expected = {"floor_holds": not fault}
    else:
        expected = {"refill_in_gamma_g": True, "probe_witness_found": fault}
    return [f"{k} = {summary.get(k)}, expected {v}"
            for k, v in expected.items() if summary.get(k) is not v]
