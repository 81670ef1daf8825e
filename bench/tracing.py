"""Spans around lindyn's layer boundaries, installed only in a traced run.

Each wrapped function is replaced at every name a caller looks it up by (the
module attributes of every lindyn module bound to it, or the class
attribute for methods), so calls through ``lindyn.cli.evaluate`` and
``lindyn.presets.evaluate`` are both seen.  A span records its thread id,
its parent span, wall time (``perf_counter``) and thread CPU time
(``thread_time``), so time a span spends waiting for the interpreter lock or
the CLI's worker pool shows as wall minus CPU.  The span stack is per
thread, because ``ThreadPoolExecutor`` does not copy context into its
workers; a span opened on an empty stack takes the current operation's root
span as its parent.  Spans are kept in memory, ten doubles each, and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from array import array
from time import perf_counter, thread_time

import numpy as np

ROOT = "cli.main"

# (span name, module, attribute, payload) where payload(fn, args, kwargs,
# result) gives the span's two work counts.


def _points(fn, args, kwargs, result):
    return np.size(args[1]), 0


def _sweep_points(fn, args, kwargs, result):
    return args[0].base.size, 0


def _probe_samples(fn, args, kwargs, result):
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    return len(result.records), call.arguments["inner_budget"]


SPANS = (
    ("presets.build_preset", "lindyn.presets", "build_preset", None),
    ("presets.run_expectation", "lindyn.presets", "run_expectation", None),
    ("criteria.evaluate", "lindyn.criteria", "evaluate", None),
    ("criteria.jsonl_records", "lindyn.criteria",
     "CriterionVerdict.jsonl_records", None),
    ("operators.sweep_step", "lindyn.operators", "CocycleSweep.step",
     _sweep_points),
    ("funcspace.map_eval", "lindyn.funcspace", "PiecewiseMap.__call__",
     _points),
    ("funcspace.norm", "lindyn.funcspace", "norm", None),
    ("funcspace.interp", "lindyn.funcspace", "linear_interpolate", None),
    ("funcspace.gridfunction_init", "lindyn.funcspace",
     "GridFunction.__init__", None),
    ("measures.adjoint_criterion", "lindyn.measures", "adjoint_criterion",
     None),
    ("dynamics.projective_distance", "lindyn.dynamics",
     "projective_distance", None),
    ("dynamics.orbit_trace", "lindyn.dynamics", "orbit_trace", None),
    ("dynamics.empirical_best", "lindyn.dynamics", "empirical_best", None),
    ("dynamics.orbit_step", "lindyn.dynamics", "operator_orbit", None),
    ("porosity.choose_N", "lindyn.porosity", "choose_N", None),
    ("porosity.build_h", "lindyn.porosity", "build_h", None),
    ("porosity.build_script_E", "lindyn.porosity", "build_script_E", None),
    ("porosity.build_gamma", "lindyn.porosity", "build_gamma", None),
    ("porosity.probe", "lindyn.porosity", "porosity_probe", _probe_samples),
    ("porosity.membership", "lindyn.porosity", "gamma_membership", None),
    ("porosity.corollary_check", "lindyn.porosity", "corollary_check", None),
)
# operator_orbit is a generator: each of its steps is one span
_GENERATORS = {"dynamics.orbit_step"}
CONSTRUCTIONS = ("porosity.choose_N", "porosity.build_h",
                 "porosity.build_script_E", "porosity.build_gamma")

_FIELDS = 10  # name, id, parent, thread, t0, t1, cpu0, cpu1, work1, work2


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [s[0] for s in SPANS]
        self.buf = array("d")
        self.active = False
        self.root = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = float(next(self._ids))
        stack.append(sid)
        return stack, sid, parent, thread_time(), perf_counter()

    def _exit(self, code, frame, work=(0, 0)):
        t1 = perf_counter()
        c1 = thread_time()
        stack, sid, parent, c0, t0 = frame
        stack.pop()
        # one extend call per span: a single C call, atomic under the GIL
        self.buf.extend((code, sid, parent, threading.get_ident(), t0, t1,
                         c0, c1, work[0], work[1]))

    def run_op(self, fn, *args):
        """Call ``fn`` as the root span of one operation."""
        frame = self._enter()
        self.root, self.active = frame[1], True
        try:
            return fn(*args)
        finally:
            self.active = False
            self._exit(0, frame)
            self.root = 0.0

    def _wrap(self, code, fn, payload):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter()
            work = (0, 0)
            try:
                result = fn(*args, **kwargs)
                if payload is not None:
                    work = payload(fn, args, kwargs, result)
                return result
            finally:
                tracer._exit(code, frame, work)
        return wrapper

    def _wrap_generator(self, code, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not tracer.active:
                    item = next(it, StopIteration)
                else:
                    frame = tracer._enter()
                    item = next(it, StopIteration)
                    tracer._exit(code, frame)
                if item is StopIteration:
                    return
                yield item
        return wrapper

    def install(self):
        """Replace every traced function at each name it is looked up by."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lindyn" or name.startswith("lindyn.")]
        for code, (name, module, attr, payload) in enumerate(SPANS, start=1):
            owner = sys.modules[module]
            *cls_path, fname = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = getattr(owner, fname)
            if name in _GENERATORS:
                wrapped = self._wrap_generator(code, orig)
            else:
                wrapped = self._wrap(code, orig, payload)
            if cls_path:
                setattr(owner, fname, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def spans(self) -> np.ndarray:
        return np.frombuffer(self.buf, dtype=float).reshape(-1, _FIELDS)

    def save(self, path):
        with open(path, "wb") as fh:
            np.save(fh, self.spans())
        with open(str(path) + ".names", "w") as fh:
            fh.write("\n".join(self.names) + "\n")


def _union_length(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans: np.ndarray, names: list) -> dict:
    """Per-layer counts and times of one traced run.

    A layer's self time is its span's wall time minus the part of that
    interval its direct child spans cover, on any thread.
    """
    code = {n: i for i, n in enumerate(names)}
    name_col = spans[:, 0].astype(int)
    sid, parent = spans[:, 1], spans[:, 2]
    wall = spans[:, 5] - spans[:, 4]
    cpu = spans[:, 7] - spans[:, 6]

    def sel(name):
        return name_col == code[name]

    def calls(name):
        return int(sel(name).sum())

    def busy(name):
        return float(wall[sel(name)].sum())

    def work(name):
        return int(spans[sel(name), 8].sum())

    def self_time(name):
        mine = sel(name)
        kids = {}
        child = np.isin(parent, sid[mine])
        for p, a, b in zip(parent[child].tolist(), spans[child, 4].tolist(),
                           spans[child, 5].tolist()):
            kids.setdefault(p, []).append((a, b))
        total = 0.0
        for s, a, b in zip(sid[mine].tolist(), spans[mine, 4].tolist(),
                           spans[mine, 5].tolist()):
            clipped = [(max(x, a), min(y, b)) for x, y in kids.get(s, ())]
            total += (b - a) - _union_length([c for c in clipped
                                              if c[1] > c[0]])
        return total

    def children_of(child, parent_name):
        return int(np.isin(parent[sel(child)], sid[sel(parent_name)]).sum())

    def ratio(num, den):
        return num / den if den else 0.0

    distance_calls = calls("dynamics.projective_distance")
    probe = sel("porosity.probe")
    candidates = float((spans[probe, 8] * spans[probe, 9]).sum())
    queries = children_of("porosity.membership", "porosity.probe")
    return {
        "cli.self_s": self_time(ROOT),
        "presets.build_preset_s": busy("presets.build_preset"),
        "presets.run_expectation_calls": calls("presets.run_expectation"),
        "presets.run_expectation_s": busy("presets.run_expectation"),
        "criteria.evaluate_calls": calls("criteria.evaluate"),
        "criteria.evaluate_s": busy("criteria.evaluate"),
        "criteria.assemble_self_s": self_time("criteria.evaluate"),
        "criteria.evaluate_wait_s":
            float((wall - cpu)[sel("criteria.evaluate")].sum()),
        "criteria.jsonl_records_s": busy("criteria.jsonl_records"),
        "operators.sweep_steps": calls("operators.sweep_step"),
        "operators.sweep_points": work("operators.sweep_step"),
        "operators.sweep_step_s": self_time("operators.sweep_step"),
        "funcspace.map_eval_calls": calls("funcspace.map_eval"),
        "funcspace.map_eval_points": work("funcspace.map_eval"),
        "funcspace.map_eval_s": busy("funcspace.map_eval"),
        "funcspace.norm_calls": calls("funcspace.norm"),
        "funcspace.norm_s": busy("funcspace.norm"),
        "funcspace.gridfunction_inits": calls("funcspace.gridfunction_init"),
        "funcspace.interp_calls": calls("funcspace.interp"),
        "funcspace.interp_s": busy("funcspace.interp"),
        "measures.adjoint_criterion_calls":
            calls("measures.adjoint_criterion"),
        "measures.adjoint_criterion_s": busy("measures.adjoint_criterion"),
        "dynamics.projective_distance_calls": distance_calls,
        "dynamics.projective_distance_s":
            busy("dynamics.projective_distance"),
        "dynamics.norm_evals_per_distance": ratio(
            children_of("funcspace.norm", "dynamics.projective_distance"),
            distance_calls),
        "dynamics.orbit_trace_s": busy("dynamics.orbit_trace"),
        "dynamics.empirical_best_s": busy("dynamics.empirical_best"),
        "dynamics.orbit_step_s": busy("dynamics.orbit_step"),
        "porosity.construct_s": sum(busy(n) for n in CONSTRUCTIONS),
        "porosity.probe_s": busy("porosity.probe"),
        "porosity.probe_outer_samples": work("porosity.probe"),
        "porosity.membership_queries": queries,
        "porosity.query_yield": ratio(queries, candidates),
        "porosity.corollary_check_s": busy("porosity.corollary_check"),
    }
