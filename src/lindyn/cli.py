"""Command-line front door.

Subcommands: classify (criterion sweeps for a space kind), orbit (orbit
traces to CSV), porosity (scene constructions, probes, and the orbit-norm
floor), adjoint (measure-side criteria), examples (the golden registry).
Exit codes: 0 success, 1 expectation failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
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
    SegalNorm,
    Translation,
    homeo_from_spec,
    map_from_spec,
    norm,
    triangular_bump,
)
from .measures import adjoint_criterion
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
from .presets import REGISTRY, build_preset, run_registry
from . import dynamics

_SPACE_KINDS = {
    "L2": (CriterionKind.SUPERCYCLIC_SOLID, CriterionKind.CESARO_SOLID,
           CriterionKind.HYPERCYCLIC_SOLID),
    "C0": (CriterionKind.SUPERCYCLIC_C0, CriterionKind.CESARO_C0),
    "SEGAL": (CriterionKind.SUPERCYCLIC_SEGAL, CriterionKind.CESARO_SEGAL),
}


# The most entries a run may ask numpy for along one axis: numpy allocates
# no array of more bytes than np.intp holds, and a run keeps up to 32
# bytes per n (a sweep's four float64 rows of extremes) and per grid point
# (its complex values and their norms).
_MAX_LENGTH = np.iinfo(np.intp).max // 32


def _number(value) -> bool:
    """A real number of a parsed config; numpy would read true as 1.0."""
    return type(value) in (int, float)


def _height(value) -> bool:
    """A number, or a string that ``complex`` reads as a finite value."""
    if not isinstance(value, str):
        return _number(value)
    try:
        return bool(np.isfinite(complex(value)))
    except ValueError:
        return False


_NUMBER = ("a number", _number)
_NUMBERS = ("an array of numbers",
            lambda v: isinstance(v, list) and all(map(_number, v)))
_POSITIVE = ("a number > 0", lambda v: _number(v) and v > 0)
# a piecewise map (operator.alpha's nodes, operator.weight, space.tau)
_MAP = {"breakpoints": _NUMBERS, "values": _NUMBERS,
        "left_slope": _NUMBER, "right_slope": _NUMBER}
# a tent (seed_function, each of targets)
_BUMP = {"center": _NUMBER, "half_width": _POSITIVE,
         "height": ('a number, or a complex string such as "0.5-0.25j"',
                    _height)}
# Every key a config file may hold: an object is a dict of its keys, an
# array a one-element list of its items' table, a leaf a (description,
# check) pair.  An absent key takes its default where it is read.
_CONFIG = {
    "operator": {
        "preset": ("a preset name", lambda v: isinstance(v, str)),
        "alpha": {"kind": ("translation or piecewise_affine",
                           lambda v: v in ("translation", "piecewise_affine")),
                  "shift": _NUMBER, **_MAP},
        "weight": _MAP,
    },
    "space": {"kind": ("L2, C0 or SEGAL", lambda v: v in tuple(_SPACE_KINDS)),
              "tau": _MAP},
    "grid": {"half_width": _POSITIVE, "step": _POSITIVE},
    "window": {"m": ("a number >= 0", lambda v: _number(v) and v >= 0),
               "eps": ("a number in (0, 1)",
                       lambda v: _number(v) and 0 < v < 1)},
    "horizon": (f"an integer from 1 to {_MAX_LENGTH}, the longest run numpy "
                "can allocate",
                lambda v: type(v) is int and 1 <= v <= _MAX_LENGTH),
    "tol": _POSITIVE,
    "trim": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    # read by no command; the bench's sweep_long configs carry it
    "depth": ("anything", lambda v: True),
    "seed_function": _BUMP,
    "targets": [_BUMP],
    "mode": ("an orbit mode: plain, scaled or cesaro",
             lambda v: v in dynamics.MODES),
}


def _walk(value, table, path: str = "") -> None:
    """Raise a ConfigError naming the first path at or below ``path``
    where ``value`` leaves ``table``: a key the table does not list, or a
    value its check refuses."""
    if isinstance(table, tuple):
        description, check = table
        if not check(value):
            raise ConfigError(f"{path} must be {description}, got {value!r}")
    elif isinstance(table, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a JSON array, got {value!r}")
        for i, item in enumerate(value):
            _walk(item, table[0], f"{path}[{i}]")
    else:
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config'} must be a JSON object, "
                              f"got {value!r}")
        for key, item in value.items():
            name = f"{path}.{key}" if path else key
            if key not in table:
                raise ConfigError(f"unknown key {name}")
            _walk(item, table[key], name)


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer >= 0, the seeds numpy accepts."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _finite_json(text: str):
    """``json.loads`` refusing, with a ValueError, every number that is not
    finite as a float: the literals NaN and +-Infinity, ``1e400``, which
    ``json`` reads as inf, and an integer of 400 digits, which no float
    holds."""
    def finite(token: str, kind: type = float):
        if not np.isfinite(float(token)):
            raise ValueError(f"{token} is not a finite number")
        return kind(token)

    return json.loads(text, parse_float=finite, parse_constant=finite,
                      parse_int=functools.partial(finite, kind=int))


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
    raw: dict  # the parsed file, for the keys only one command reads

    @classmethod
    def load(cls, path: str | None, preset: str | None) -> "ExperimentConfig":
        raw: dict = {}
        if path:
            try:
                raw = _finite_json(Path(path).read_text())
            except (OSError, ValueError) as exc:  # JSONDecodeError included
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
        _walk(raw, _CONFIG)
        op_spec = raw.get("operator", {})
        inline = "alpha" in op_spec or "weight" in op_spec
        if (preset is not None) + ("preset" in op_spec) + inline != 1:
            raise ConfigError("name the operator exactly once: by --preset, "
                              "operator.preset, or operator.alpha with "
                              "operator.weight")
        gspec = raw.get("grid", {})
        try:
            grid = Grid(float(gspec.get("half_width", 64.0)),
                        float(gspec.get("step", 0.25)))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc
        points = 2 * grid.half_width / grid.step + 1  # inf past the floats
        if not points <= _MAX_LENGTH:
            raise ConfigError(f"grid.half_width / grid.step gives {points:.4g} "
                              f"points, more than the {_MAX_LENGTH} numpy can "
                              "allocate")
        try:
            if inline:
                op = CompositionOperator(
                    homeo_from_spec(op_spec["alpha"]),
                    map_from_spec(op_spec["weight"], positive=True))
            else:
                op = build_preset(op_spec.get("preset", preset))
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        sspec = raw.get("space", {})
        try:
            tau = map_from_spec(sspec["tau"]) if "tau" in sspec else None
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"space.tau: {exc!r}") from exc
        wspec = raw.get("window", {})
        return cls(
            operator=op,
            space=sspec.get("kind", "L2"),
            tau=tau,
            grid=grid,
            window_m=float(wspec.get("m", 2.0)),
            window_eps=wspec.get("eps"),
            horizon=raw.get("horizon", 200),
            tol=float(raw.get("tol", 1e-6)),
            trim=raw.get("trim", 0),
            raw=raw,
        )

    def compact_window(self) -> CompactWindow:
        """The grid points in [-m, m]; a window wider than the grid is a
        ConfigError (:meth:`CompactWindow.from_grid`)."""
        try:
            return CompactWindow.from_grid(self.grid, self.window_m)
        except ValueError as exc:
            raise ConfigError(f"window.m, grid.half_width: {exc}") from exc

    def checked_window(self) -> CompactWindow:
        """The compact window, after the checks a SEGAL space makes:
        ``space.tau`` present and invariant under alpha on the grid, and
        ``window.eps`` present and bounding |tau| on the window."""
        if self.space != "SEGAL":
            return self.compact_window()
        if self.tau is None:
            raise ConfigError("SEGAL space requires space.tau")
        if not segal_compatible(self.operator, self.tau, self.grid):
            raise ConfigError("tau is not invariant under alpha on this grid")
        if self.window_eps is None:
            raise ConfigError("SEGAL space requires window.eps")
        window = self.compact_window()
        worst = float(np.max(np.abs(self.tau(window.points))))
        if worst > self.window_eps + 1e-12:
            raise ConfigError(f"max |tau| = {worst} on the window exceeds "
                              f"window.eps = {self.window_eps}")
        return window


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
    verdicts = evaluate(_SPACE_KINDS[cfg.space], cfg.operator,
                        cfg.checked_window(), cfg.horizon, cfg.tol, cfg.trim,
                        inverse=args.inverse)
    for v in verdicts:
        _print_verdict(v, 20)
    _write_lines(args.out, "verdicts.jsonl",
                 [v.to_jsonl(args.per_n) for v in verdicts])
    return 0


def cmd_orbit(args) -> int:
    cfg = ExperimentConfig.load(args.config, args.preset)
    if cfg.space == "SEGAL":  # the only orbit that reads the window
        cfg.checked_window()
    mode = cfg.raw.get("mode", "scaled")

    def bump(spec: dict) -> GridFunction:
        return triangular_bump(cfg.grid, float(spec.get("center", 0.0)),
                               float(spec.get("half_width", 1.0)),
                               complex(spec.get("height", 1.0)))

    seed_fn = bump(cfg.raw.get("seed_function", {}))
    targets = [bump(spec) for spec in cfg.raw.get("targets", [])]
    if cfg.space != "SEGAL":
        kind = L2 if cfg.space == "L2" else SUP
    elif targets:
        raise ConfigError("a SEGAL orbit takes no targets: each Segal "
                          "projective distance is a nested golden-section "
                          "solve of about 0.7 s")
    else:
        kind = SegalNorm(cfg.tau)
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
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scene {path}: {exc}") from exc
    try:
        scene = PorosityScene.from_json(text)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # not JSON, a missing or non-object section, value arrays of the
        # wrong length, or params out of range
        raise ConfigError(f"bad scene {path}: {exc!r}") from exc
    n_cut, h, lifted = _lift(scene)
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
    probe = porosity_probe(gamma_set.contains_rows, margined, p.lam, 0.1,
                           budget=64, inner_budget=64, seed=cfg_seed)
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
    probe = porosity_probe(lambda rows: ~rows.any(axis=1), origin, 0.5, 0.1,
                           budget=16, inner_budget=64, seed=cfg_seed)
    return [probe.to_jsonl()], {
        "mode": "singleton", "seed": cfg_seed,
        "probe_witness_found": probe.witness is not None,
    }


def cmd_porosity(args) -> int:
    """Run one porosity mode: its records, then its summary line, go to
    porosity.jsonl, and the summary line to stdout."""
    if args.scene:
        lines, summary = _porosity_scene(args.scene)
    elif args.mode == "theorem":
        lines, summary = _porosity_theorem(args.seed)
    elif args.mode == "corollary":
        lines, summary = _porosity_corollary()
    elif args.mode == "singleton":
        lines, summary = _porosity_singleton(args.seed)
    else:
        raise ConfigError(f"unknown porosity mode {args.mode!r}")
    summary_line = json.dumps(summary, sort_keys=True)
    _write_lines(args.out, "porosity.jsonl", [*lines, summary_line])
    print(summary_line)
    return 0


def cmd_adjoint(args) -> int:
    cfg = ExperimentConfig.load(args.config, args.preset)
    window = cfg.checked_window()
    verdicts = adjoint_criterion(  # mu = nu = delta_0
        (CriterionKind.ADJOINT_SUPER, CriterionKind.ADJOINT_CESARO),
        cfg.operator, [0.0], [0.0], window, cfg.horizon, cfg.tol)
    for v in verdicts:
        _print_verdict(v, 16)
    _write_lines(args.out, "adjoint.jsonl",
                 [v.to_jsonl(args.per_n) for v in verdicts])
    return 0


def cmd_examples(args) -> int:
    ids = args.ids or sorted(REGISTRY)
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise ConfigError(f"unknown example ids: {unknown}")
    results = run_registry(ids)
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

    def out_only(p):
        p.add_argument("--out", help="output directory")

    def common(p):
        # only the commands that load an ExperimentConfig take its flags
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--preset", help="named operator preset")
        out_only(p)

    def per_n(p):
        p.add_argument("--per-n", action="store_true",
                       help="write one line per n before each summary "
                            "line, whose witness then lists every record")

    p = sub.add_parser("classify", help="run the criteria for a space kind")
    common(p)
    p.add_argument("--inverse", action="store_true",
                   help="classify the inverse operator instead")
    per_n(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("orbit", help="orbit norm trace to CSV")
    common(p)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("porosity", help="porosity scenes and probes")
    out_only(p)
    p.add_argument("--scene", help="scene JSON file")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--mode", default="theorem",
                   choices=("theorem", "corollary", "singleton"))
    p.set_defaults(fn=cmd_porosity)

    p = sub.add_parser("adjoint", help="measure-side criteria")
    common(p)
    per_n(p)
    p.set_defaults(fn=cmd_adjoint)

    p = sub.add_parser("examples", help="golden verdict registry")
    out_only(p)
    p.add_argument("ids", nargs="*", help="example ids (default: all)")
    p.set_defaults(fn=cmd_examples)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing never changes it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
