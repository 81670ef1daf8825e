"""Command-line front door.

Subcommands: classify (criterion sweeps for a space kind), orbit (orbit
traces to CSV), porosity (scene constructions, probes, and the orbit-norm
floor), adjoint (measure-side criteria), examples (the golden registry).
Exit codes: 0 success, 1 expectation failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .criteria import CompactWindow, CriterionKind, _json_float, evaluate
from .errors import ConfigError, LindynError
from .funcspace import (
    Grid,
    GridFunction,
    PiecewiseMap,
    SUP,
    L2,
    Translation,
    homeo_from_json,
    norm,
    triangular_bump,
)
from .measures import AtomicMeasure, adjoint_criterion
from .operators import CompositionOperator, segal_compatible
from .porosity import (
    GammaSet,
    PorosityScene,
    build_h,
    build_gamma,
    build_script_E,
    choose_N,
    corollary_check,
    corollary_g,
    gamma_membership,
    porosity_probe,
    random_scene,
)
from .presets import (
    REGISTRY,
    TELESCOPING_PRESETS,
    build_preset,
    run_expectation,
    telescoping_depth,
)
from . import dynamics

_SPACE_KINDS = {
    "L2": (CriterionKind.SUPERCYCLIC_SOLID, CriterionKind.CESARO_SOLID,
           CriterionKind.HYPERCYCLIC_SOLID),
    "C0": (CriterionKind.SUPERCYCLIC_C0, CriterionKind.CESARO_C0),
    "SEGAL": (CriterionKind.SUPERCYCLIC_SEGAL, CriterionKind.CESARO_SEGAL),
}


@dataclass
class ExperimentConfig:
    operator: CompositionOperator
    space: str
    tau: PiecewiseMap | None
    grid: Grid
    window_m: float
    window_eps: float | None
    horizon: int
    tol: float
    trim: int

    @classmethod
    def load(cls, path: str | None, preset: str | None) -> "ExperimentConfig":
        raw: dict = {}
        if path:
            try:
                raw = json.loads(Path(path).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
        op_spec = raw.get("operator", {})
        preset_name = preset or op_spec.get("preset")
        horizon = int(raw.get("horizon", 200))
        wspec = raw.get("window", {})
        window_m = float(wspec.get("m", 2.0))
        gspec = raw.get("grid", {})
        try:
            grid = Grid(float(gspec.get("half_width", 64.0)),
                        float(gspec.get("step", 0.25)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            if preset_name:
                # a sweep reaches horizon steps past the window, an orbit
                # trace past every grid point
                depth = raw.get("depth")
                needed = telescoping_depth(horizon, window_m)
                if depth is None:
                    depth = telescoping_depth(
                        horizon, max(window_m, grid.half_width))
                elif preset_name in TELESCOPING_PRESETS and depth < needed:
                    raise ConfigError(f"depth {depth} does not cover the "
                                      f"sweep: need >= {needed}")
                op = build_preset(preset_name, depth=depth)
            elif "alpha" in op_spec and "weight" in op_spec:
                alpha = homeo_from_json(json.dumps(op_spec["alpha"]))
                wm = op_spec["weight"]
                weight = PiecewiseMap(wm["breakpoints"], wm["values"],
                                      positive=True)
                op = CompositionOperator(alpha, weight)
            else:
                raise ConfigError(
                    "config needs operator.preset or operator.alpha/weight"
                )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        space = raw.get("space", {}).get("kind", "L2")
        if space not in _SPACE_KINDS:
            raise ConfigError(f"space kind must be one of {sorted(_SPACE_KINDS)}")
        tau = None
        if raw.get("space", {}).get("tau") is not None:
            tm = raw["space"]["tau"]
            tau = PiecewiseMap(tm["breakpoints"], tm["values"])
        return cls(
            operator=op,
            space=space,
            tau=tau,
            grid=grid,
            window_m=window_m,
            window_eps=wspec.get("eps"),
            horizon=horizon,
            tol=float(raw.get("tol", 1e-6)),
            trim=int(raw.get("trim", 0)),
        )

    def compact_window(self) -> CompactWindow:
        return CompactWindow.from_grid(self.grid, self.window_m,
                                       self.window_eps)


def _write_lines(out_dir: str | None, name: str, lines: list[str]):
    if out_dir is None:
        return None
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / name
    with open(target, "w") as fh:  # line by line: no joined copy of the file
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return target


def _print_verdict(v, width: int):
    best = v.best
    if best is None:
        summary = "no finite q by the horizon"
    else:
        summary = f"best q({best[0]}) = {best[1]:.6g}"
        if best[1] == 0:  # underflowed; a record's q is never inf
            summary += f" (log2 q = {v.best_log2_q:.6g})"
    print(f"{v.kind:{width}s} {v.status:30s} {summary}")


def cmd_classify(args) -> int:
    cfg = ExperimentConfig.load(args.config, args.preset)
    kinds = _SPACE_KINDS[cfg.space]
    if cfg.space == "SEGAL":
        if cfg.tau is None:
            raise ConfigError("SEGAL space requires space.tau")
        if not segal_compatible(cfg.operator, cfg.tau, cfg.grid):
            raise ConfigError("tau is not invariant under alpha on this grid")
        if cfg.window_eps is None:
            raise ConfigError("SEGAL space requires window.eps")
    window = cfg.compact_window()
    if cfg.space == "SEGAL":
        window.validate_segal(cfg.tau)
    verdicts = evaluate(kinds, cfg.operator, window, cfg.horizon, cfg.tol,
                        cfg.trim, inverse=args.inverse)
    for v in verdicts:
        _print_verdict(v, 20)
    _write_lines(args.out, "verdicts.jsonl", [v.to_jsonl() for v in verdicts])
    return 0


def _bump_from_spec(grid: Grid, spec: dict) -> GridFunction:
    return triangular_bump(grid, float(spec.get("center", 0.0)),
                           float(spec.get("half_width", 1.0)),
                           complex(spec.get("height", 1.0)))


def cmd_orbit(args) -> int:
    cfg = ExperimentConfig.load(args.config, args.preset)
    raw = json.loads(Path(args.config).read_text()) if args.config else {}
    mode = raw.get("mode", "scaled")
    if mode not in dynamics.MODES:
        raise ConfigError(f"orbit mode must be one of {dynamics.MODES}")
    seed_fn = _bump_from_spec(cfg.grid, raw.get("seed_function", {}))
    targets = [_bump_from_spec(cfg.grid, s) for s in raw.get("targets", [])]
    kind = L2 if cfg.space == "L2" else SUP
    # one walk fills both files; in scaled mode the first target's
    # orbit.csv column is also its best.csv distance
    trace = dynamics.orbit_trace(cfg.operator, seed_fn, cfg.horizon, kind,
                                 targets, mode)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / "orbit.csv")
    print(f"wrote {out_dir / 'orbit.csv'} ({cfg.horizon} rows)")
    if targets:
        dynamics.best_table_csv(trace.best, out_dir / "best.csv")
        print(f"wrote {out_dir / 'best.csv'} ({len(targets)} targets, "
              f"mode {mode})")
    return 0


def _lift(scene: PorosityScene):
    """The cut N, the level function h and the lift E(k) of a scene."""
    p = scene.params
    n_cut = choose_N(scene.f, scene.k, scene.g, p.beta, p.r)
    h = build_h(scene.g, n_cut, p.delta, p.beta)
    lifted = build_script_E(scene.k, scene.f, h, scene.g, n_cut, p.delta,
                            p.r_tilde)
    return n_cut, h, lifted


def _porosity_scene(path: str):
    n_cut, h, lifted = _lift(PorosityScene.from_json(Path(path).read_text()))
    return [], {"mode": "scene", "N": n_cut,
                "lift_in_gamma_h": gamma_membership(lifted, GammaSet(h))}


def _porosity_theorem(cfg_seed: int):
    rng = np.random.default_rng(cfg_seed)
    scene = random_scene(rng)
    p = scene.params
    n_cut, h, lifted = _lift(scene)
    gamma_set = GammaSet(scene.g)
    r_prime = min(p.delta, p.lam * (p.r_tilde - norm(scene.f - lifted, SUP)))
    bump = triangular_bump(scene.f.grid, 0.0, 1.0, 0.5 * r_prime)
    v = lifted + bump
    refill = build_gamma(lifted, v, scene.g, h, n_cut, p.beta,
                         delta=p.delta, lam=p.lam, r_tilde=p.r_tilde,
                         f=scene.f)
    # probe at a member whose integer-level margin dominates the probe
    # radius; at boundary-tight members only the refilling construction
    # reaches the ball, which a membership-only sampler cannot know
    margined = GridFunction(scene.g.grid, scene.g.values + 0.3)
    probe = porosity_probe(lambda fn: gamma_membership(fn, gamma_set),
                           margined, p.lam, 0.1, budget=64, inner_budget=64,
                           seed=cfg_seed)
    lines = [probe.to_jsonl()] if probe.records else []
    return lines, {
        "mode": "theorem", "seed": cfg_seed, "N": n_cut,
        "refill_in_gamma_g": gamma_membership(refill, gamma_set),
        "probe_witness_found": probe.witness is not None,
    }


def _porosity_corollary():
    grid = Grid(256.0, 1.0)
    op = CompositionOperator(Translation(-1.0),
                             PiecewiseMap.constant(2.0, positive=True))
    gamma_set = corollary_g(op, grid)
    floor = corollary_check(op, gamma_set, gamma_set.g, 100)
    return [], {"mode": "corollary", "min_orbit_sup": floor,
                "floor_holds": bool(floor >= 1.0)}


def _porosity_singleton(cfg_seed: int):
    grid = Grid(8.0, 0.25)
    origin = GridFunction.zero(grid)
    probe = porosity_probe(lambda fn: fn.is_zero, origin, 0.5, 0.1,
                           budget=16, inner_budget=64, seed=cfg_seed)
    return [probe.to_jsonl()], {
        "mode": "singleton", "seed": cfg_seed,
        "probe_witness_found": probe.witness is not None,
    }


def cmd_porosity(args) -> int:
    """Run one porosity mode: its records, then its summary line, go to
    porosity.jsonl, and the summary line to stdout."""
    seed = args.seed or 0
    if args.scene:
        lines, summary = _porosity_scene(args.scene)
    elif args.mode == "theorem":
        lines, summary = _porosity_theorem(seed)
    elif args.mode == "corollary":
        lines, summary = _porosity_corollary()
    elif args.mode == "singleton":
        lines, summary = _porosity_singleton(seed)
    else:
        raise ConfigError(f"unknown porosity mode {args.mode!r}")
    summary_line = json.dumps(summary, sort_keys=True)
    _write_lines(args.out, "porosity.jsonl", [*lines, summary_line])
    print(summary_line)
    return 0


def cmd_adjoint(args) -> int:
    cfg = ExperimentConfig.load(args.config, args.preset)
    window = cfg.compact_window()
    mu = AtomicMeasure.delta(0.0)
    lines = []
    for kind in (CriterionKind.ADJOINT_SUPER, CriterionKind.ADJOINT_CESARO):
        v = adjoint_criterion(kind, cfg.operator, mu, mu, window,
                              cfg.horizon, cfg.tol)
        lines.append(v.to_jsonl())
        _print_verdict(v, 16)
    _write_lines(args.out, "adjoint.jsonl", lines)
    return 0


def cmd_examples(args) -> int:
    ids = args.ids or sorted(REGISTRY)
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise ConfigError(f"unknown example ids: {unknown}")
    results = [run_expectation(REGISTRY[i], exp) for i in ids
               for exp in REGISTRY[i].expectations]
    lines = []
    failures = 0
    header = (f"{'example':18s} {'check':20s} {'inv':3s} {'expected':30s} "
              f"{'actual':30s} ok")
    print(header)
    for r in results:
        ok = "yes" if r.passed else "NO"
        failures += 0 if r.passed else 1
        print(f"{r.example_id:18s} {r.check:20s} "
              f"{'S' if r.inverse else '-':3s} {r.expected:30s} "
              f"{r.actual:30s} {ok}")
        lines.append(json.dumps({
            "example": r.example_id, "check": r.check, "inverse": r.inverse,
            "expected": r.expected, "actual": r.actual, "best_n": r.best_n,
            "best_q": _json_float(r.best_q),
            "passed": r.passed,
        }, sort_keys=True))
    _write_lines(args.out, "examples.jsonl", lines)
    print(f"{len(results) - failures}/{len(results)} expectations matched")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindyn",
        description="criterion sweeps, orbit traces, and porosity scenes "
                    "for weighted composition operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--preset", help="named operator preset")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("classify", help="run the criteria for a space kind")
    common(p)
    p.add_argument("--inverse", action="store_true",
                   help="classify the inverse operator instead")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("orbit", help="orbit norm trace to CSV")
    common(p)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("porosity", help="porosity scenes and probes")
    common(p)
    p.add_argument("--scene", help="scene JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="theorem",
                   choices=("theorem", "corollary", "singleton"))
    p.set_defaults(fn=cmd_porosity)

    p = sub.add_parser("adjoint", help="measure-side criteria")
    common(p)
    p.set_defaults(fn=cmd_adjoint)

    p = sub.add_parser("examples", help="golden verdict registry")
    common(p)
    p.add_argument("ids", nargs="*", help="example ids (default: all)")
    p.set_defaults(fn=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LindynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
