import contextlib
import copy
import io
import json
import math
import random
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindyn import cli, criteria, dynamics, presets
from lindyn.cli import ExperimentConfig, main
from lindyn.criteria import CompactWindow, CriterionKind, _leg_extremes
from lindyn.funcspace import Grid, triangular_bump
from lindyn.measures import adjoint_criterion
from lindyn.presets import (
    DEFAULT_GRID,
    REGISTRY,
    build_preset,
    run_registry,
)
from oracles import (
    dict_serialiser,
    full_width_extremes,
    per_row_expectation,
    quantity,
    read_tables,
    record_runs_of,
    shifted,
    telescoping_table,
)


def run(args):
    return main(args)


class TestPresetFidelity:
    """Each preset weight satisfies its defining level constraints."""

    rng = np.random.default_rng(2)

    def sample(self, lo=-50.0, hi=50.0, n=1000):
        return self.rng.uniform(lo, hi, n)

    def test_bridge_presets(self):
        cases = {
            "ex3.5": (2.0, 1.0),
            "ex3.6": (0.5, 1.0),
            "ex3.7": (4.0, 2.0),
            "ex4.3a": (2.0, 1.0),
            "ex4.3b": (0.5, 1.0),
        }
        for name, (left, right) in cases.items():
            w = build_preset(name).weight
            ts = self.sample()
            vals = w(ts)
            assert np.all(vals[ts <= -1.0] == left)
            assert np.all(vals[ts >= 1.0] == right)
            mid = ts[(ts > -1) & (ts < 1)]
            expected = left + (mid + 1) / 2 * (right - left)
            assert np.allclose(w(mid), expected, rtol=1e-12, atol=0)

    def test_heavily_pinned_bridge(self):
        # the pinned levels: 4 = M and 2 = 1 + delta with M >= 2 + 2 delta
        w = build_preset("ex3.7").weight
        assert w(0.0) == 3.0

    def test_telescoping_preset(self):
        w = build_preset("ex3.8").weight
        ms = np.arange(1, 150)
        assert np.allclose(w(-ms.astype(float)), (ms + 1) / ms, rtol=1e-15)
        ts = self.rng.uniform(0, 50, 500)
        assert np.all(w(ts) == 0.5)

    @pytest.mark.parametrize("preset, shift", [("ex3.8", 0.0),
                                               ("rem3.10", 1.0)])
    def test_telescoping_weight_is_the_table(self, preset, shift):
        # bit for bit the np.interp table, wherever the table has nodes
        w = build_preset(preset).weight
        table = shifted(telescoping_table(5010), shift)
        h, m = 5000, 2.0
        powers = -2.0 ** np.arange(13)
        samples = [
            np.arange(-4 * (h + m), 4 * (h + m) + 1) / 4,  # an H = 5000 sweep
            self.rng.uniform(-5000.0, 50.0, 20000),
            -np.arange(1.0, 5001.0),
            np.nextafter(powers, -np.inf), np.nextafter(powers, np.inf),
            (powers[:, None] + self.rng.uniform(-1.0, 1.0, (13, 400))).ravel(),
            self.rng.uniform(0.0, 1.0, 1000), self.rng.uniform(1.0, 2.0, 1000),
        ]
        for t in samples + [t + shift for t in samples]:
            assert np.array_equal(w(t), table(t))
        for t in (-2.5, np.float64(0.75), np.asarray(-4000.3)):
            value = w(t)
            assert value == table(t) and np.ndim(value) == 0
            assert type(value) is np.float64

    def test_shift_preset_weights(self):
        # the shift weight w_j sits at j + 1: T f(t) = w(t-1) f(t-1)
        w = build_preset("rem3.10").weight
        assert w(1.0) == 0.5 and w(8.0) == 0.5
        assert w(-2.0) == pytest.approx(4.0 / 3.0)

    def test_names(self):
        for name in sorted({ex.preset for ex in REGISTRY.values()}):
            build_preset(name)
        with pytest.raises(KeyError):
            build_preset("nope")


class TestExamplesCommand:
    def test_all_pass(self, capsys):
        code = run(["examples", "ex4.3b", "ex3.12-condition"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 expectations matched" in out

    def test_unknown_id_exits_2(self, capsys):
        assert run(["examples", "not-an-id"]) == 2

    def test_expectation_failure_exits_1(self, capsys, monkeypatch):
        import lindyn.presets as presets
        from dataclasses import replace

        ex = REGISTRY["ex4.3b"]
        flipped = replace(ex.expectations[0],
                          expected="NOT_SATISFIED_UP_TO_HORIZON")
        broken = presets.GoldenExample(ex.example_id, ex.preset, (flipped,),
                                      ex.note)
        monkeypatch.setitem(REGISTRY, "ex4.3b", broken)
        assert run(["examples", "ex4.3b"]) == 1

    def test_registry_covers_required_ids(self):
        required = {"ex3.5", "ex3.6", "ex3.7", "ex3.8", "rem3.10",
                    "ex4.3a", "ex4.3b", "ex3.12-condition"}
        assert required <= set(REGISTRY)


class TestRegistrySweeps:
    """``run_registry`` shares one sweep per preset, over the widest window
    and at the longest horizon among its rows; each row must equal the
    same row run on its own sweep."""

    @pytest.mark.parametrize("ids", [
        sorted(REGISTRY),
        random.Random(15).sample(sorted(REGISTRY), len(REGISTRY)),
        *([i] for i in sorted(REGISTRY)),
        ["ex3.8", "ex3.8"],
        ["ex3.6", "ex3.12-condition", "ex3.6"],
    ], ids=lambda ids: "+".join(ids))
    def test_rows_match_per_row_oracle(self, ids):
        expected = [per_row_expectation(REGISTRY[i], exp) for i in ids
                    for exp in REGISTRY[i].expectations]
        assert run_registry(ids) == expected

    @pytest.mark.parametrize("h", [200, 500, 1023, 1024, 1025])
    def test_short_sweep_is_a_prefix_of_the_long_one(self, h):
        pts = CompactWindow.from_grid(DEFAULT_GRID, 2.0).points
        for op, inverse in ((build_preset("ex3.8"), False),
                            (build_preset("ex3.6"), True)):
            # only the unmirrored sweep narrows
            for mirrored in (False, True):
                [long_ext], [short_ext] = (read_tables(_leg_extremes(
                    op, pts, pts, n, mirrored=mirrored), inverse)
                    for n in (2000, h))
                assert np.array_equal(long_ext[:, :h], short_ext)

    @pytest.mark.parametrize("h", [200, 1023, 1024, 1025, 2000])
    @pytest.mark.parametrize("preset", sorted({ex.preset for ex in
                                               REGISTRY.values()}))
    def test_slices_and_inverse_of_one_sweep(self, preset, h):
        # a narrower window is a centred column slice of the m = 2 sweep,
        # and the inverse operator's table, read through its rows
        # (1, 0, 3, 2), the one reduced from its negated cells; a sweep
        # without the mirrored rows gives the first two
        op = build_preset(preset)
        pts = CompactWindow.from_grid(DEFAULT_GRID, 2.0).points
        windows = [CompactWindow.from_grid(DEFAULT_GRID, m).points
                   for m in (0.0, 1.0, 2.0)]
        slices = [slice((pts.size - w.size) // 2, (pts.size + w.size) // 2)
                  for w in windows]
        exts = _leg_extremes(op, pts, pts, h, slices=slices)
        leans = _leg_extremes(op, pts, pts, h, slices=slices,
                              mirrored=False)
        for w, cols, ext, lean in zip(windows, slices, exts, leans):
            assert lean.shape == (2, h)
            assert np.array_equal(lean.view(np.int64), ext[:2].view(np.int64))
            assert np.array_equal(pts[cols], w)
            [alone] = _leg_extremes(op, w, w, h)
            [inverse] = full_width_extremes(op, w, w, h, inverse=True)
            [read] = read_tables([ext], True)
            assert np.array_equal(ext.view(np.int64), alone.view(np.int64))
            assert np.array_equal(read.view(np.int64),
                                  inverse.view(np.int64))

    def test_one_verdict_per_distinct_trace(self, monkeypatch, capsys):
        # 24 rows read 18 distinct (table, formula, horizon, tol) traces:
        # e.g. ex3.6's SUPERCYCLIC_SOLID and SUPERCYCLIC_C0 rows and the
        # WEDGE row share one; each row still has its run_expectation
        calls = {"_kind_verdict": 0, "run_expectation": 0}
        for name in calls:
            fn = getattr(presets, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(presets, name, counted)
        assert run(["examples"]) == 0
        assert calls == {"_kind_verdict": 18, "run_expectation": 24}

    def test_one_sweep_per_key(self, monkeypatch, capsys):
        # 7 presets at H = 200 but ex3.8's at 2000; the narrower windows,
        # the inverse rows, the WEDGE row and the adjoint rows read these
        # sweeps: 7 sweeps of 3200 rows (one per row: 24 of 6900)
        horizons = []
        sweep = criteria._leg_extremes

        def counted(*args, **kwargs):
            horizons.append(args[3])
            return sweep(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "lindyn"
                    and getattr(module, "_leg_extremes", None) is sweep):
                monkeypatch.setattr(module, "_leg_extremes", counted)
        assert run(["examples"]) == 0
        assert len(horizons) == 7
        assert sum(horizons) == 3200


class TestClassifyCommand:
    def config(self, tmp_path, **overrides):
        cfg = {
            "operator": {"preset": "ex3.5"},
            "space": {"kind": "C0"},
            "grid": {"half_width": 64.0, "step": 0.25},
            "window": {"m": 1.0},
            "horizon": 200,
            "tol": 1e-2,
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_memory_independent_of_the_horizon(self, tmp_path):
        # ex3.5 in L2 at H = 10^6 peaked at 124 MB when every verdict kept
        # its q and log2 q traces; the verdicts keep O(block) now, the run
        # its 16 MB table of (x, y) rows and the interpreter with numpy
        cfg = self.config(tmp_path, space={"kind": "L2"}, window={"m": 2.0},
                          horizon=10 ** 6, tol=1e-6)
        src = Path(cli.__file__).resolve().parents[1]
        run_classify = ("import sys\n"
                        f"sys.path.insert(0, {str(src)!r})\n"
                        "from lindyn.cli import main\n"
                        f"sys.exit(main(['classify', '--config', {cfg!r}]))")
        # Linux carries a process's peak RSS over exec into ru_maxrss, so
        # the run is forked from a fresh interpreter, not from pytest, and
        # read as that interpreter's child
        code = ("import resource, subprocess, sys\n"
                f"subprocess.run([sys.executable, '-c', {run_classify!r}],"
                " check=True)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN)"
                ".ru_maxrss)")
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        assert time.perf_counter() - start < 2.0
        lines = done.stdout.splitlines()
        assert lines[2].startswith("HYPERCYCLIC_SOLID")
        assert int(lines[-1]) <= 60 * 1024  # kB

    def test_c0_verdicts(self, tmp_path, capsys):
        code = run(["classify", "--config", self.config(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("SATISFIED") == 2
        assert "NOT_SATISFIED" not in out

    def test_inverse_flag(self, tmp_path, capsys):
        cfg = self.config(tmp_path, operator={"preset": "ex3.6"},
                          tol=2e-2, space={"kind": "L2"})
        code = run(["classify", "--config", cfg, "--inverse"])
        out = capsys.readouterr().out
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("CESARO_SOLID")]
        assert line and "NOT_SATISFIED" not in line[0]

    def test_supercyclic_both_directions(self, tmp_path, capsys):
        cfg = self.config(tmp_path, operator={"preset": "ex3.7"},
                          space={"kind": "L2"}, window={"m": 2.0}, tol=1e-6)
        run(["classify", "--config", cfg])
        fwd = capsys.readouterr().out
        run(["classify", "--config", cfg, "--inverse"])
        rev = capsys.readouterr().out
        for out in (fwd, rev):
            sup = [l for l in out.splitlines()
                   if l.startswith("SUPERCYCLIC_SOLID")]
            ces = [l for l in out.splitlines()
                   if l.startswith("CESARO_SOLID")]
            assert "NOT_SATISFIED" not in sup[0]
            assert "NOT_SATISFIED" in ces[0]

    def test_jsonl_output_deterministic(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(["classify", "--config", cfg, "--out", str(out_a)])
        run(["classify", "--config", cfg, "--out", str(out_b)])
        capsys.readouterr()
        assert (out_a / "verdicts.jsonl").read_bytes() == \
            (out_b / "verdicts.jsonl").read_bytes()

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["classify", "--config", str(bad)]) == 2
        cfg = self.config(tmp_path, space={"kind": "H1"})
        assert run(["classify", "--config", cfg]) == 2
        cfg = self.config(tmp_path, grid={"half_width": 64.0, "step": 0.3})
        assert run(["classify", "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["classify", "orbit", "adjoint"])
    @pytest.mark.parametrize("bad", [
        {"horizon": 0}, {"horizon": 20.5}, {"tol": -1}, {"tol": "x"},
        {"window": {"m": -1}}, {"trim": "x"}, {"trim": -1},
        {"window": {"m": 1, "eps": 2}}, {"window": {"m": 1, "eps": 1}},
        {"window": {"m": 1, "eps": 0}}, {"window": {"m": 1, "eps": "x"}},
        {"space": {"kind": "SEGAL", "tau": {"values": [0.25]}}},
        {"space": {"kind": "SEGAL", "tau": {"breakpoints": [0.0]}}},
        {"space": {"kind": "SEGAL", "tau": [0.25]}},
        {"space": {"kind": "SEGAL",
                   "tau": {"breakpoints": [0.0, 1.0], "values": [0.25]}}},
        [1], {"window": 5}, {"grid": 3}, {"grid": {"half_width": [1]}},
        {"operator": 7}, {"space": "L2"}, {"space": {"kind": ["L2"]}},
        {"grid": {"half_width": 64.0, "step": True}},
        {"grid": {"half_width": True, "step": 0.25}},
        *({"horizon": 5, "operator": {
            "alpha": {"kind": "translation", "shift": shift},
            "weight": {"breakpoints": [-1.0, 1.0], "values": [0.5, 1.0]}}}
          for shift in ("x", math.nan, math.inf, True)),
        {"horizon": 5, "tol": math.inf},
        {"horizon": 5, "operator": {
            "alpha": {"kind": "translation", "shift": 1.0},
            "weight": {"breakpoints": [-1.0, 1.0], "values": [True, 2.0]}}},
        {"horizon": 5, "operator": {
            "alpha": {"kind": "translation", "shift": 1.0},
            "weight": {"breakpoints": ["0", 1.0], "values": [0.5, 1.0]}}},
        {"horizon": 5, "operator": {
            "alpha": {"kind": "piecewise_affine", "breakpoints": [0.0],
                      "values": [0.0], "left_slope": True,
                      "right_slope": 1.0},
            "weight": {"breakpoints": [-1.0, 1.0], "values": [0.5, 1.0]}}},
        # json reads a float literal beyond the float range as inf
        '{"operator": {"alpha": {"kind": "translation", "shift": 1e400}, '
        '"weight": {"breakpoints": [0.0], "values": [2.0]}}, "horizon": 5}',
        '{"operator": {"preset": "ex3.5"}, "horizon": 5, "tol": 1e400}',
        '{"operator": {"preset": "ex3.5"}, "horizon": 5, "window": {"m": 1'
        + "0" * 400 + "}}",
        # the slopes reach the maps: a weight's tails must be constant,
        # and a sloped tau is not invariant under a translation
        {"horizon": 5, "operator": {
            "alpha": {"kind": "translation", "shift": 1.0},
            "weight": {"breakpoints": [-1.0, 1.0], "values": [0.5, 1.0],
                       "left_slope": 5.0}}},
        {"horizon": 5, "window": {"m": 1, "eps": 0.5},
         "space": {"kind": "SEGAL", "tau": {
             "breakpoints": [0.0], "values": [0.25], "right_slope": 0.5}}},
        # nodes so close that the weight's slope overflows
        {"horizon": 5, "operator": {
            "alpha": {"kind": "translation", "shift": 1.0},
            "weight": {"breakpoints": [-2.2250738585072014e-308,
                                       2.225073858507e-311, 1.0],
                       "values": [1.0, 6.0, 1.0]}}},
    ], ids=["horizon-0", "horizon-20.5", "tol-neg", "tol-str", "m-neg",
            "trim-str", "trim-neg", "eps-2", "eps-1", "eps-0", "eps-str",
            "tau-no-breakpoints", "tau-no-values", "tau-list",
            "tau-lengths", "config-list", "window-int", "grid-int",
            "half-width-list", "operator-int", "space-str",
            "space-kind-list", "step-bool", "half-width-bool", "shift-str",
            "shift-nan", "shift-inf", "shift-bool", "tol-inf",
            "weight-value-bool", "breakpoint-str", "left-slope-bool",
            "shift-1e400",
            "tol-1e400", "m-int-1e400", "weight-slope", "tau-slope",
            "weight-slope-overflow"])
    def test_bad_value_exit_2(self, tmp_path, capsys, command, bad):
        out = tmp_path / "out"
        if isinstance(bad, dict):
            cfg = self.config(tmp_path, **bad)
        else:  # the whole file, as JSON or as its text
            text = bad if isinstance(bad, str) else json.dumps(bad)
            (tmp_path / "cfg.json").write_text(text)
            cfg = str(tmp_path / "cfg.json")
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classify", "orbit", "adjoint"])
    @pytest.mark.parametrize("overrides", [
        {"horizon": 10 ** 30},
        {"horizon": cli._MAX_LENGTH + 1},
        {"grid": {"half_width": 1e300, "step": 1.0}},
        {"grid": {"half_width": 1.0, "step": 1e-300}, "window": {"m": 1.0}},
        {"grid": {"half_width": 1e308, "step": 1.0}},
    ], ids=["horizon-1e30", "horizon-past-limit", "half-width-1e300",
            "step-1e-300", "half-width-1e308"])
    def test_unallocatable_run_exit_2(self, tmp_path, capsys, command,
                                      overrides):
        # numpy refuses these arrays ("Maximum allowed dimension/size
        # exceeded"), and 2e308 points overflow the grid's float count;
        # the config names the limit before any is asked for, rather than
        # a traceback or a window.m error
        cfg = self.config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.splitlines()) == 1
        assert ("horizon" if "horizon" in overrides else "grid") in err
        assert "numpy can allocate" in err
        assert not out.exists()

    def test_longest_horizon_is_accepted(self, tmp_path):
        cfg = self.config(tmp_path, horizon=cli._MAX_LENGTH)
        assert ExperimentConfig.load(cfg, None).horizon == cli._MAX_LENGTH

    @pytest.mark.parametrize("command, space", [
        ("classify", "L2"), ("adjoint", "L2"), ("orbit", "SEGAL")])
    def test_window_wider_than_grid_exit_2(self, tmp_path, capsys, command,
                                           space):
        # the window would hold only the grid's points in [-64, 64] while
        # every summary line reported window_radius 100
        tau = {"breakpoints": [0.0], "values": [0.25]}
        cfg = self.config(tmp_path, space={"kind": space, "tau": tau},
                          window={"m": 100.0, "eps": 0.5}, horizon=50)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "window.m" in err and "grid.half_width" in err
        assert not out.exists()

    def test_orbit_ignores_window_off_segal(self, tmp_path, capsys):
        cfg = self.config(tmp_path, window={"m": 100.0}, horizon=50)
        assert run(["orbit", "--config", cfg,
                    "--out", str(tmp_path / "out")]) == 0

    def test_segal_requires_tau(self, tmp_path, capsys):
        cfg = self.config(tmp_path, space={"kind": "SEGAL"})
        assert run(["classify", "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["classify", "orbit", "adjoint"])
    def test_segal_eps_below_tau_exit_2(self, tmp_path, capsys, command):
        # |tau| = 0.25 on the window exceeds its sublevel bound 0.2
        tau = {"breakpoints": [0.0], "values": [0.25]}
        cfg = self.config(tmp_path, space={"kind": "SEGAL", "tau": tau},
                          window={"m": 1.0, "eps": 0.2})
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "window.eps" in err
        assert not out.exists()

    def test_segal_with_constant_tau(self, tmp_path, capsys):
        cfg = self.config(
            tmp_path,
            space={"kind": "SEGAL",
                   "tau": {"breakpoints": [0.0], "values": [0.25]}},
            window={"m": 1.0, "eps": 0.5},
        )
        assert run(["classify", "--config", cfg]) == 0

    def test_inline_operator(self, tmp_path, capsys):
        cfg = self.config(
            tmp_path,
            operator={
                "alpha": {"kind": "translation", "shift": -1.0},
                "weight": {"breakpoints": [-1.0, 1.0], "values": [2.0, 1.0]},
            },
        )
        assert run(["classify", "--config", cfg]) == 0


    def test_ex38_depth_follows_horizon(self, tmp_path, capsys):
        # the telescoping weight must reach every orbit point: on [-m, m]
        # the hypercyclic quantity is then 2^(m+1) / (H - m) exactly
        horizon, m = 2500, 1
        cfg = self.config(tmp_path, operator={"preset": "ex3.8"},
                          space={"kind": "L2"}, window={"m": m},
                          horizon=horizon)
        assert run(["classify", "--config", cfg,
                    "--out", str(tmp_path)]) == 0
        summary = [json.loads(line) for line in
                   (tmp_path / "verdicts.jsonl").read_text().splitlines()
                   if '"status"' in line]
        [hyper] = [r for r in summary if r["kind"] == "HYPERCYCLIC_SOLID"]
        n, q = hyper["witness"][-1]
        assert n == horizon
        assert q == pytest.approx(2.0 ** (m + 1) / (horizon - m),
                                  rel=1e-12, abs=0)

    @pytest.mark.parametrize("preset", ["ex3.8", "rem3.10"])
    def test_depth_key_is_ignored(self, tmp_path, capsys, preset):
        # 2010.5 is no integer; h + m + 8 is what the bench's configs set
        horizon, m = 2000, 2
        written = []
        for extra in ({}, {"depth": 2010.5}, {"depth": horizon + m + 8}):
            out = tmp_path / str(len(written))
            cfg = self.config(tmp_path, operator={"preset": preset},
                              space={"kind": "L2"}, window={"m": m},
                              horizon=horizon, **extra)
            assert run(["classify", "--config", cfg, "--per-n",
                        "--out", str(out)]) == 0
            written.append((out / "verdicts.jsonl").read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    def test_rem310_preset_runs_everywhere(self, tmp_path, capsys):
        # the shift preset is a composition operator like every other
        cfg = self.config(tmp_path, operator={"preset": "rem3.10"},
                          space={"kind": "L2"}, window={"m": 0.0},
                          grid={"half_width": 16.0, "step": 1.0}, horizon=20)
        for command in ("classify", "orbit", "adjoint"):
            assert run([command, "--config", cfg,
                        "--out", str(tmp_path)]) == 0

    def test_no_finite_q_is_reported(self, tmp_path, capsys):
        # a subnormal weight: the Cesaro and hypercyclic q are inf at every
        # n, so those verdicts have no record minimum at all
        tiny = {"alpha": {"kind": "translation", "shift": -1.0},
                "weight": {"breakpoints": [0.0], "values": [1e-310]}}
        cfg = self.config(tmp_path, operator=tiny, space={"kind": "L2"},
                          horizon=5)
        for command, name in (("classify", "verdicts.jsonl"),
                              ("adjoint", "adjoint.jsonl")):
            out_dir = tmp_path / command
            assert run([command, "--config", cfg, "--out", str(out_dir)]) == 0
            out = capsys.readouterr().out
            assert "no finite q by the horizon" in out
            records = [json.loads(line) for line in
                       (out_dir / name).read_text().splitlines()]
            summaries = {r["kind"]: r for r in records if "status" in r}
            cesaro = "CESARO_SOLID" if command == "classify" \
                else "ADJOINT_CESARO"
            assert summaries[cesaro]["witness"] == []
            assert summaries[cesaro]["record_runs"] == []
            assert summaries[cesaro]["status"] == \
                "NOT_SATISFIED_UP_TO_HORIZON"
        assert summaries["ADJOINT_SUPER"]["record_runs"] == [[1, 1]]
        assert summaries["ADJOINT_SUPER"]["witness"] == [[1, 1.0]]

    def test_log2_q_carries_past_underflow(self, tmp_path, capsys):
        # ex3.7 in L2: the supercyclic q underflows to 0 from n = 1080 on
        # and the Cesaro and hypercyclic q overflow to inf; log2 q keeps
        # the values, so the supercyclic witness runs on past n = 1079
        cfg = self.config(tmp_path, operator={"preset": "ex3.7"},
                          space={"kind": "L2"}, window={"m": 2.0},
                          horizon=3000, tol=1e-6)
        assert run(["classify", "--config", cfg, "--out", str(tmp_path),
                    "--per-n"]) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in
                   (tmp_path / "verdicts.jsonl").read_text().splitlines()]
        per_n = {(r["kind"], r["n"]): r for r in records if "n" in r}
        extreme = [r for r in per_n.values() if r["q"] in (0.0, "inf")]
        assert {r["q"] for r in extreme} == {0.0, "inf"}
        assert all(isinstance(r["log2_q"], float) and
                   math.isfinite(r["log2_q"]) for r in extreme)
        sup = next(r for r in records
                   if r.get("kind") == "SUPERCYCLIC_SOLID" and "n" not in r)
        n, q = sup["witness"][-1]
        assert n > 1079 and q == 0.0
        assert sup["best_log2_q"] == per_n["SUPERCYCLIC_SOLID", n]["log2_q"]
        assert f"best q({n}) = 0 (log2 q = " in out

    def test_contracting_alpha_walks_to_the_tail(self, tmp_path, capsys):
        # alpha = t/2: the backward leg walks the expanding inverse 2t past
        # the float range to -inf, where the weight's left tail 2 adds
        # exactly 1 to log2 q per n, and no overflow warning is printed
        cfg = self.config(
            tmp_path, space={"kind": "L2"}, window={"m": 2.0},
            horizon=1200, tol=1e-6,
            operator={"alpha": {"kind": "piecewise_affine",
                                "breakpoints": [0.0], "values": [0.0],
                                "left_slope": 0.5, "right_slope": 0.5},
                      "weight": {"breakpoints": [-1.0, 0.0, 1.0],
                                 "values": [2.0, 1.0, 0.5]}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["classify", "--config", cfg,
                        "--out", str(tmp_path), "--per-n"]) == 0
        log2_q = [json.loads(line)["log2_q"] for line in
                  (tmp_path / "verdicts.jsonl").read_text().splitlines()
                  if '"kind": "SUPERCYCLIC_SOLID", "log2_q"' in line]
        assert len(log2_q) == 1200
        assert all(math.isfinite(lq) for lq in log2_q)
        assert np.diff(log2_q[-200:]) == pytest.approx(np.ones(199),
                                                       abs=1e-9)

    @pytest.mark.parametrize("command", ["classify", "adjoint", "orbit"])
    def test_huge_shift_reads_the_tails(self, tmp_path, capsys, command):
        # k*shift overflows to +-inf from k = 2 on; there the weight reads
        # its tails and f its zero, as at the true orbit points of a shift
        # of 1e300, so the files match and no overflow warning is printed
        outputs = []
        for shift in (1e308, 1e300):
            cfg = self.config(
                tmp_path, horizon=5, targets=[{"center": 3.0}],
                operator={"alpha": {"kind": "translation", "shift": shift},
                          "weight": {"breakpoints": [-1.0, 1.0],
                                     "values": [0.5, 1.0]}})
            out = tmp_path / f"out{shift}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run([command, "--config", cfg, "--out", str(out),
                            *(["--per-n"] if command != "orbit" else [])]) == 0
            assert capsys.readouterr().err == ""
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] and outputs[0] == outputs[1]

    def test_cesaro_log2_q_ties_where_q_ties(self, tmp_path, capsys):
        # ex3.5 in C0 at m = 2: the Cesaro q(3) equals q(1) = 2.0, and so
        # must log2 q, or the tie sets a record
        cfg = self.config(tmp_path, window={"m": 2.0}, tol=1e-6)
        assert run(["classify", "--config", cfg, "--out", str(tmp_path),
                    "--per-n"]) == 0
        records = [json.loads(line) for line in
                   (tmp_path / "verdicts.jsonl").read_text().splitlines()]
        per_n = {r["n"]: r for r in records
                 if r["kind"] == "CESARO_C0" and "n" in r}
        summary = next(r for r in records
                       if r["kind"] == "CESARO_C0" and "n" not in r)
        assert per_n[3]["q"] == per_n[1]["q"] == 2.0
        assert per_n[3]["log2_q"] == per_n[1]["log2_q"] == 1.0
        assert not per_n[3]["record_min"]
        assert [3, 2.0] not in summary["witness"]
        # wherever q is finite and nonzero, log2 q is its log2
        assert all(r["log2_q"] == float(np.log2(r["q"]))
                   for r in per_n.values())

    @pytest.mark.parametrize("overrides, flags", [
        ({"operator": {"preset": "ex3.8"}, "space": {"kind": "L2"},
          "window": {"m": 2.0}}, []),
        ({}, []),
        ({"operator": {"preset": "ex3.6"}, "space": {"kind": "L2"}},
         ["--inverse"]),
        ({"operator": {"preset": "ex3.8"}, "space": {"kind": "L2"},
          "window": {"m": 2.0}, "trim": 2}, ["--inverse"]),
    ], ids=["ex38-L2", "C0", "inverse", "trim2"])
    def test_records_match_per_n_quantity(self, tmp_path, capsys,
                                          overrides, flags):
        horizon = 60
        cfg = self.config(tmp_path, horizon=horizon, **overrides)
        assert run(["classify", "--config", cfg, "--out", str(tmp_path),
                    "--per-n"] + flags) == 0
        loaded = ExperimentConfig.load(cfg, None)
        window = loaded.compact_window()
        trim = loaded.trim
        per_n = {}
        for line in (tmp_path / "verdicts.jsonl").read_text().splitlines():
            rec = json.loads(line)
            if "n" in rec:
                per_n[rec["kind"], rec["n"]] = float(rec["q"])
        kinds = {kind for kind, _ in per_n}
        assert len(per_n) == len(kinds) * horizon
        for kind in kinds:
            for n in (1, 17, horizon):
                assert per_n[kind, n] == quantity(
                    CriterionKind(kind), loaded.operator, window, n, trim,
                    inverse="--inverse" in flags)

    @staticmethod
    def raw_lines(path):
        """Per kind, the per-n lines as text fields (log2_q, n, q,
        record_min) and the summary line's best_log2_q and witness text."""
        per_n, summary = {}, {}
        line_re = re.compile(r'\{"kind": "(\w+)", "log2_q": (.*), '
                             r'"n": (\d+), "q": (.*), '
                             r'"record_min": (true|false)\}')
        summary_re = re.compile(r'\{"best_log2_q": (.*), "kind": "(\w+)", '
                                r'"params": .*, "status": "\w+", '
                                r'"witness": \[(.*)\]\}')
        for line in path.read_text().splitlines():
            match = line_re.fullmatch(line)
            if match:
                kind, *fields = match.groups()
                per_n.setdefault(kind, []).append(fields)
            else:
                best, kind, witness = summary_re.fullmatch(line).groups()
                summary[kind] = best, witness
        return per_n, summary

    @pytest.mark.parametrize("overrides, flags", [
        ({"operator": {"preset": "ex3.6"}, "space": {"kind": "L2"},
          "trim": 2}, []),
        ({"operator": {"preset": "ex3.6"}, "space": {"kind": "L2"},
          "trim": 2}, ["--inverse"]),
        ({"operator": {"preset": "ex3.7"}, "space": {"kind": "L2"},
          "window": {"m": 2.0}, "horizon": 3000, "tol": 1e-6}, []),
    ], ids=["ex36-trim2", "ex36-trim2-inverse", "ex37-underflow"])
    def test_summary_reuses_per_n_text(self, tmp_path, capsys, overrides,
                                       flags):
        # the summary's witness is exactly the [n, q] text of the per-n
        # lines flagged record_min, and best_log2_q the last record's
        # log2_q text, including q that underflowed to 0
        cfg = self.config(tmp_path, **overrides)
        assert run(["classify", "--config", cfg, "--out", str(tmp_path),
                    "--per-n"] + flags) == 0
        per_n, summary = self.raw_lines(tmp_path / "verdicts.jsonl")
        assert set(per_n) == set(summary) and len(per_n) == 3
        for kind, lines in per_n.items():
            records = [(lq, n, q) for lq, n, q, flag in lines
                       if flag == "true"]
            best, witness = summary[kind]
            assert witness == ", ".join(f"[{n}, {q}]" for _, n, q in records)
            assert best == records[-1][0]
        if "horizon" in overrides:
            assert per_n["SUPERCYCLIC_SOLID"][-1][2] == "0.0"

    TINY = {"alpha": {"kind": "translation", "shift": -1.0},
            "weight": {"breakpoints": [0.0], "values": [1e-310]}}
    FILE_CASES = [
        ("classify", {"operator": {"preset": "ex3.8"}, "space": {"kind": "L2"},
                      "window": {"m": 2.0}, "horizon": 18000}, []),
        ("classify", {"operator": {"preset": "ex3.6"}, "space": {"kind": "L2"},
                      "trim": 2}, []),
        ("classify", {}, []),
        ("classify", {"space": {"kind": "SEGAL",
                                "tau": {"breakpoints": [0.0],
                                        "values": [0.25]}},
                      "window": {"m": 1.0, "eps": 0.5}}, []),
        ("classify", {"operator": {"preset": "ex3.6"}, "space": {"kind": "L2"}},
         ["--inverse"]),
        ("adjoint", {"operator": {"preset": "ex4.3a"}}, []),
        ("classify", {"operator": TINY, "space": {"kind": "L2"},
                      "horizon": 5}, []),
        ("adjoint", {"operator": TINY, "horizon": 5}, []),
    ]
    FILE_IDS = ["ex38-L2-H18000", "trim2", "C0", "SEGAL", "inverse",
                "adjoint", "no-record", "adjoint-no-record"]

    def verdict_file(self, tmp_path, command, overrides, flags):
        """The text of the command's verdict file, written to a directory
        of its own."""
        cfg = self.config(tmp_path, **overrides)
        out = tmp_path / "-".join([command, *flags])
        assert run([command, "--config", cfg, "--out", str(out)]
                   + flags) == 0
        name = "verdicts.jsonl" if command == "classify" else "adjoint.jsonl"
        return (out / name).read_text()

    @pytest.mark.parametrize("command, overrides, flags", FILE_CASES,
                             ids=FILE_IDS)
    def test_per_n_file_matches_reference_writer(self, tmp_path, capsys,
                                                 command, overrides, flags):
        # with --per-n each verdict is written as one json.dumps per record
        # writes it: the per-n lines, then the summary line
        text = self.verdict_file(tmp_path, command, overrides,
                                 flags + ["--per-n"])
        loaded = ExperimentConfig.load(str(tmp_path / "cfg.json"), None)
        window = loaded.compact_window()
        if command == "adjoint":
            verdicts = adjoint_criterion(
                (CriterionKind.ADJOINT_SUPER, CriterionKind.ADJOINT_CESARO),
                loaded.operator, [0.0], [0.0], window, loaded.horizon,
                loaded.tol)
        else:
            verdicts = criteria.evaluate(
                cli._SPACE_KINDS[loaded.space], loaded.operator, window,
                loaded.horizon, loaded.tol, loaded.trim,
                inverse="--inverse" in flags)
        assert text == "".join(dict_serialiser(v) + "\n" for v in verdicts)

    @pytest.mark.parametrize("command, overrides, flags", FILE_CASES,
                             ids=FILE_IDS)
    def test_default_file_is_the_summary_lines(self, tmp_path, capsys,
                                               command, overrides, flags):
        per_n = self.verdict_file(tmp_path, command, overrides,
                                  flags + ["--per-n"])
        summary = self.verdict_file(tmp_path, command, overrides, flags)
        # the --per-n summary lines, with record_runs added, grouped from
        # the per-n record_min flags, and the witness cut to the run ends
        records = [json.loads(line) for line in per_n.splitlines()]
        expected = []
        for rec in records:
            if "status" in rec:
                runs = record_runs_of(r["n"] for r in records
                                      if r.get("record_min")
                                      and r["kind"] == rec["kind"])
                ends = {n for run in runs for n in run}
                rec["witness"] = [[n, q] for n, q in rec["witness"]
                                  if n in ends]
                rec["record_runs"] = runs
                expected.append(rec)
        assert [json.loads(line) for line in summary.splitlines()] == \
            expected
        assert summary.endswith("\n")
        if overrides.get("operator") is self.TINY:  # q never finite
            assert '"best_log2_q": null' in summary
            assert '"witness": []' in summary


class TestSegalOrbit:
    """A SEGAL orbit makes the checks a SEGAL classify makes and traces the
    Segal norm."""

    SPACE = {"kind": "SEGAL", "tau": {"breakpoints": [0.0], "values": [0.5]}}

    def orbit(self, tmp_path, capsys, **overrides):
        cfg = {"operator": {"preset": "ex3.5"}, "space": self.SPACE,
               "grid": {"half_width": 16.0, "step": 0.25},
               "window": {"m": 1.0, "eps": 0.6}, "horizon": 10}
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run(["orbit", "--config", str(path), "--out", str(out)])
        return code, capsys.readouterr().err, out

    @staticmethod
    def columns(path):
        rows = path.read_text().splitlines()[1:]
        return [[float(x) if x else None for x in row.split(",")]
                for row in rows]

    @pytest.mark.parametrize("overrides", [
        {"space": {"kind": "SEGAL"}},
        {"window": {"m": 1.0}},
        {"space": {"kind": "SEGAL",
                   "tau": {"breakpoints": [-1.0, 1.0],
                           "values": [0.1, 0.3]}}},
        {"window": {"m": 1.0, "eps": 0.4}},
    ], ids=["no-tau", "no-eps", "tau-not-invariant", "eps-below-tau"])
    def test_segal_checks_exit_2(self, tmp_path, capsys, overrides):
        code, err, out = self.orbit(tmp_path, capsys, **overrides)
        assert code == 2 and err
        assert not out.exists()

    def test_targets_exit_2_naming_the_cost(self, tmp_path, capsys):
        code, err, out = self.orbit(tmp_path, capsys, targets=[{}])
        assert code == 2
        assert "golden-section" in err and "0.7 s" in err
        assert not out.exists()

    def test_constant_tau_doubles_the_sup_norm(self, tmp_path, capsys):
        # with tau = 1/2 everywhere, ||f||_S = sum_k ||f||_inf / 2^k
        code, _, out = self.orbit(tmp_path, capsys)
        assert code == 0
        segal = self.columns(out / "orbit.csv")
        (tmp_path / "c0").mkdir()
        code, _, out = self.orbit(tmp_path / "c0", capsys,
                                  space={"kind": "C0"})
        assert code == 0
        c0 = self.columns(out / "orbit.csv")
        assert len(segal) == len(c0) == 10
        for s_row, c_row in zip(segal, c0):
            assert s_row[0] == c_row[0]
            assert abs(s_row[1] - 2 * c_row[1]) <= 1e-9
            assert s_row[3] is None and s_row[4] == c_row[4]


class TestOtherCommands:
    def test_orbit_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"operator": {"preset": "ex3.5"},
                                   "horizon": 10}))
        code = run(["orbit", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "orbit.csv").read_text().strip().splitlines()
        assert len(rows) == 11

    def test_orbit_csv_truncated_column(self, tmp_path, capsys):
        # ex3.5 moves mass right by 1 per step: a tent at 7.25 on [-8, 8]
        # loses mass at every n, a centred tent on [-64, 64] does not
        def truncated(overrides, horizon):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "operator": {"preset": "ex3.5"}, "space": {"kind": "C0"},
                "horizon": horizon, **overrides}))
            assert run(["orbit", "--config", str(cfg),
                        "--out", str(tmp_path)]) == 0
            rows = (tmp_path / "orbit.csv").read_text().splitlines()
            assert rows[0].split(",") == ["n", "norm", "cesaro_norm",
                                          "scaled_dist", "truncated"]
            return [row.split(",")[-1] for row in rows[1:]]

        edge = {"grid": {"half_width": 8.0, "step": 0.25},
                "seed_function": {"center": 7.25, "half_width": 0.5}}
        assert truncated(edge, 6) == ["1"] * 6
        assert truncated({}, 1) == ["0"]

    def test_orbit_c0_target_deterministic(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "operator": {"preset": "ex3.5"}, "space": {"kind": "C0"},
            "grid": {"half_width": 8.0, "step": 0.25}, "horizon": 6,
            "targets": [{"center": 3.0, "half_width": 1.5,
                         "height": "0.5-0.25j"}],
            "mode": "scaled"}))
        outputs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            assert run(["orbit", "--config", str(cfg),
                        "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("orbit.csv", "best.csv")])
        assert outputs[0] == outputs[1]

    @staticmethod
    def orbit_config(tmp_path, targets, mode):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "operator": {"preset": "ex3.5"}, "space": {"kind": "C0"},
            "grid": {"half_width": 8.0, "step": 0.25}, "horizon": 6,
            "targets": [{"center": 0.5 * i, "half_width": 1.0 + i}
                        for i in range(targets)],
            "mode": mode}))
        return str(cfg)

    def test_orbit_overflow_exit_2(self, tmp_path, capsys):
        # w = 1e6: T^52 f exceeds the float range; exit 1 would claim an
        # expectation failure
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "operator": {"alpha": {"kind": "translation", "shift": -1.0},
                         "weight": {"breakpoints": [-1, 1],
                                    "values": [1e6, 1e6]}},
            "space": {"kind": "C0"}, "horizon": 60,
            "targets": [{"center": 3.0}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warnings
            assert run(["orbit", "--config", str(cfg), "--out",
                        str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: the orbit overflows at n = 52 on side T" in err
        assert not out.exists()

    def test_orbit_unknown_mode_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self.orbit_config(tmp_path, 1, "bogus")
        assert run(["orbit", "--config", cfg, "--out", str(out)]) == 2
        assert "orbit mode" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        {"targets": [5]}, {"targets": 5}, {"seed_function": 3},
        {"seed_function": {"center": "x"}},
        {"seed_function": {"center": math.inf}},
        {"seed_function": {"half_width": 0}},
        {"seed_function": {"height": "x"}},
        {"targets": [{"center": [1]}]},
        {"targets": [{"center": 10 ** 400}]},
        {"targets": [{"half_width": -1}]},
        {"targets": [{"half_width": math.nan}]},
        {"targets": [{"height": "nan"}]},
        {"targets": [{"height": None}]},
    ], ids=["target-int", "targets-int", "seed-int", "seed-center-str",
            "seed-center-inf", "seed-half-width-0", "seed-height-str",
            "target-center-list", "target-center-huge",
            "target-half-width-neg", "target-half-width-nan",
            "target-height-nan", "target-height-null"])
    def test_orbit_bad_function_exit_2(self, tmp_path, capsys, bad):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"operator": {"preset": "ex3.5"}, **bad}))
        assert run(["orbit", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, targets, per_n", [
        ("scaled", 1, 1), ("scaled", 2, 2), ("scaled", 3, 3),
        ("plain", 2, 1), ("cesaro", 2, 1)])
    def test_orbit_projective_distance_count(self, tmp_path, capsys,
                                             monkeypatch, mode, targets,
                                             per_n):
        # one walk: the orbit.csv column is the first target's scaled
        # distance, which a scaled best.csv reuses; T^n f is never zero
        # here, so each n solves once per scaled target (the per-row sup
        # solve, which orbit_trace runs on the rows of each block)
        calls = []
        solve = dynamics._sup_projective

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_sup_projective", counted)
        cfg = self.orbit_config(tmp_path, targets, mode)
        assert run(["orbit", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(calls) == 6 * per_n

    def test_orbit_reads_config_once(self, tmp_path, capsys, monkeypatch):
        # mode, seed_function and targets come from the one parse that
        # the rest of the config comes from
        cfg = self.orbit_config(tmp_path, 2, "plain")
        reads = []
        read_text = Path.read_text

        def counted(path, *args, **kwargs):
            reads.append(str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        assert run(["orbit", "--config", cfg, "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        assert reads == [cfg]
        assert "mode plain" in capsys.readouterr().out

    def test_adjoint_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"operator": {"preset": "ex4.3a"},
                                   "window": {"m": 1.0}, "horizon": 200,
                                   "tol": 1e-2}))
        code = run(["adjoint", "--config", str(cfg), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "ADJOINT_CESARO" in out
        assert (tmp_path / "adjoint.jsonl").exists()

    def test_seed_belongs_to_porosity(self, capsys):
        for command in ("classify", "orbit", "adjoint", "examples"):
            with pytest.raises(SystemExit) as exc:
                run([command, "--preset", "ex3.5", "--seed", "1"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["porosity", "--config", "missing.json", "--preset", "nope"],
        ["porosity", "--preset", "ex3.5"],
        ["examples", "ex4.3b", "--config", "missing.json"],
        ["examples", "--preset", "ex3.5"],
    ], ids=["porosity-config-preset", "porosity-preset", "examples-config",
            "examples-preset"])
    def test_unread_config_flags_are_usage_errors(self, capsys, argv):
        # only classify, orbit and adjoint load a config
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_parser_built_once(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        assert run(["examples", "ex4.3b", "ex3.12-condition"]) == 0
        assert run(["porosity", "--mode", "corollary"]) == 0
        assert len(built) == 1

    def test_inverse_does_not_stick(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"operator": {"preset": "ex3.6"},
                                   "space": {"kind": "L2"},
                                   "window": {"m": 1.0}, "tol": 2e-2}))
        for out, flags in (("inv", ["--inverse"]), ("plain", [])):
            assert run(["classify", "--config", str(cfg),
                        "--out", str(tmp_path / out), *flags]) == 0
        summary = json.loads(
            (tmp_path / "plain" / "verdicts.jsonl").read_text()
            .splitlines()[-1])
        assert summary["params"]["inverse"] is False

    def test_porosity_modes(self, tmp_path, capsys):
        assert run(["porosity", "--mode", "corollary",
                    "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "porosity.jsonl").read_text())
        assert rec["floor_holds"] and rec["min_orbit_sup"] >= 1.0
        assert run(["porosity", "--mode", "singleton", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        last = json.loads(out.strip().splitlines()[-1])
        assert last["probe_witness_found"] is True
        assert run(["porosity", "--mode", "theorem", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        rec = json.loads(out.strip().splitlines()[-1])
        assert rec["refill_in_gamma_g"] is True
        assert rec["probe_witness_found"] is False

    @pytest.mark.parametrize("mode, seed", [("theorem", "5"),
                                            ("singleton", "3")])
    def test_porosity_output_deterministic(self, tmp_path, capsys, mode,
                                           seed):
        outputs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            assert run(["porosity", "--mode", mode, "--seed", seed,
                        "--out", str(out)]) == 0
            outputs.append((out / "porosity.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("mode", ["theorem", "singleton"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, mode):
        with pytest.raises(SystemExit) as exc:
            run(["porosity", "--mode", mode, "--seed", "-5",
                 "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "porosity.jsonl").exists()

    @staticmethod
    def bad_scene(tmp_path, case):
        """The path of a scene file that is broken as ``case`` says."""
        from lindyn.porosity import random_scene

        obj = json.loads(random_scene(np.random.default_rng(0)).to_json())
        path = tmp_path / "scene.json"
        if case == "missing":
            return path
        if case == "directory":
            return tmp_path
        text = {"not-json": "{grid", "top-level-array": "[1, 2]",
                "grid-int": '{"grid": 1}'}.get(case)
        if text is None:
            if case == "no-params":
                del obj["params"]
            elif case == "f-array":
                obj["f"] = [1.0, 2.0]
            elif case == "short-values":
                obj["k"] = {"re": obj["k"]["re"][:-1],
                            "im": obj["k"]["im"][:-1]}
            elif case == "string-values":
                obj["g"]["re"] = ["x"] * len(obj["g"]["re"])
            elif case == "lam-out-of-range":
                obj["params"]["lam"] = 0.9
            elif case == "unknown-param":
                obj["params"]["eta"] = 1.0
            elif case == "infinite-grid":
                obj["grid"]["half_width"] = math.inf
            elif case == "bool-value":
                obj["f"]["im"][3] = False
            text = json.dumps(obj)
        path.write_text(text)
        return path

    @pytest.mark.parametrize("case", [
        "missing", "directory", "not-json", "top-level-array", "grid-int",
        "no-params", "f-array", "short-values", "string-values",
        "lam-out-of-range", "unknown-param", "infinite-grid", "bool-value"])
    def test_bad_scene_exit_2(self, tmp_path, capsys, case):
        path = self.bad_scene(tmp_path, case)
        out = tmp_path / "out"
        assert run(["porosity", "--scene", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if case == "bool-value":
            assert len(err.splitlines()) == 1 and "boolean" in err
        assert not out.exists()

    def test_porosity_scene_file(self, tmp_path, capsys):
        from lindyn.porosity import random_scene

        scene = random_scene(np.random.default_rng(0))
        path = tmp_path / "scene.json"
        path.write_text(scene.to_json())
        assert run(["porosity", "--scene", str(path)]) == 0
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec["lift_in_gamma_h"] is True



def config_leaves(table, path=""):
    """The path of every leaf of a config table; an array's items read
    ``[]``, as in ``targets[].center``."""
    if isinstance(table, tuple):
        return [path]
    if isinstance(table, list):
        return config_leaves(table[0], path + "[]")
    return [leaf for key, sub in table.items()
            for leaf in config_leaves(sub, f"{path}.{key}" if path else key)]


def run_quietly(argv):
    """``main(argv)`` with warnings raised as errors: (exit code, stderr)."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


def run_in_subprocess(argv, timeout):
    """``main(argv)`` in a fresh interpreter with warnings raised as
    errors, killed after ``timeout`` seconds: (exit code, stderr)."""
    src = Path(cli.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "from lindyn.cli import main\n"
            f"sys.exit(main({list(argv)!r}))")
    done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stderr


class TestConfigKeys:
    """Every key of a config file is in ``cli._CONFIG``, or the file is a
    config error."""

    BASE = {"operator": {"preset": "ex3.5"}, "horizon": 5,
            "grid": {"half_width": 8.0, "step": 0.25}, "window": {"m": 1.0}}

    def exits_2(self, tmp_path, command, cfg, argv=()):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code, err = run_quietly([command, "--config", str(path), *argv,
                                 "--out", str(out)])
        assert code == 2
        assert err.startswith("config error: ") and len(err.splitlines()) == 1
        assert not out.exists()
        return err

    @pytest.mark.parametrize("command", ["classify", "orbit", "adjoint"])
    @pytest.mark.parametrize("key, cfg", [
        ("horizn", {"horizn": 18000}),
        ("window.mm", {"window": {"mm": 0}}),
        ("grid.stp", {"grid": {"half_width": 8.0, "stp": 0.5}}),
        ("operator.weight.valeus", {"operator": {
            "alpha": {"kind": "translation", "shift": -1.0},
            "weight": {"breakpoints": [0.0], "valeus": [2.0]}}}),
        ("targets[0].centre", {"targets": [{"centre": 3.0}]}),
    ])
    def test_misspelled_key_exit_2(self, tmp_path, command, key, cfg):
        # each ran on its defaults and exited 0
        err = self.exits_2(tmp_path, command, {**self.BASE, **cfg})
        assert key in err

    @pytest.mark.parametrize("command", ["classify", "orbit", "adjoint"])
    @pytest.mark.parametrize("operator, argv", [
        ({"preset": "ex3.6", "alpha": {"kind": "translation", "shift": 1.0},
          "weight": {"breakpoints": [0.0], "values": [2.0]}}, []),
        ({"preset": "ex3.6"}, ["--preset", "ex3.5"]),
        ({"alpha": {"kind": "translation", "shift": 1.0},
          "weight": {"breakpoints": [0.0], "values": [2.0]}},
         ["--preset", "ex3.5"]),
        ({"weight": {"breakpoints": [0.0], "values": [2.0]}},
         ["--preset", "ex3.5"]),
    ], ids=["preset-and-inline", "flag-and-preset", "flag-and-inline",
            "flag-and-weight"])
    def test_operator_named_twice_exit_2(self, tmp_path, command, operator,
                                         argv):
        # one of the two was dropped without a word
        cfg = {**self.BASE, "operator": operator}
        assert "operator" in self.exits_2(tmp_path, command, cfg, argv)

    TRANSLATION = {"kind": "translation", "shift": -1.0}
    PIECEWISE = {"kind": "piecewise_affine", "breakpoints": [-2.0, 0.0, 2.0],
                 "values": [-3.0, -1.5, 1.0], "left_slope": 1.0,
                 "right_slope": 1.0}

    @pytest.mark.parametrize("command", ["classify", "orbit", "adjoint"])
    @pytest.mark.parametrize("alpha, key", [
        ({**TRANSLATION, "breakpoints": [0.0], "values": [7.0]},
         "breakpoints"),
        ({**TRANSLATION, "values": [7.0]}, "values"),
        ({**TRANSLATION, "left_slope": 1.0}, "left_slope"),
        ({**TRANSLATION, "right_slope": 1.0}, "right_slope"),
        ({**PIECEWISE, "shift": 1.0}, "shift"),
        ({"shift": 1.0, **PIECEWISE}, "shift"),
    ], ids=["translation-nodes", "translation-values", "translation-left",
            "translation-right", "piecewise-shift", "piecewise-shift-first"])
    def test_other_kinds_alpha_key_exit_2(self, tmp_path, command, alpha,
                                          key):
        # each was accepted and never read
        cfg = {**self.BASE, "operator": {
            "alpha": alpha,
            "weight": {"breakpoints": [-1.0, 1.0], "values": [2.0, 1.0]}}}
        err = self.exits_2(tmp_path, command, cfg)
        assert f"operator.alpha.{key} " in err

    @pytest.mark.parametrize("alpha", [TRANSLATION, PIECEWISE])
    def test_alpha_of_its_own_keys_runs(self, tmp_path, alpha):
        cfg = {**self.BASE, "operator": {
            "alpha": alpha,
            "weight": {"breakpoints": [-1.0, 1.0], "values": [2.0, 1.0]}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command in ("classify", "orbit", "adjoint"):
            assert run_quietly([command, "--config", str(path), "--out",
                                str(tmp_path / command)]) == (0, "")

    def test_readme_table_lists_every_key(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `([^`]+)` \|", readme.read_text(),
                          re.MULTILINE)
        assert rows == config_leaves(cli._CONFIG)


# Small valid configs for the sweep below, at H <= 20 on Grid(8, 0.25): no
# value of SWEEP_VALUES gives an in-range horizon or grid larger than these
SWEEP_GRID = {"half_width": 8.0, "step": 0.25}
SWEEP_WEIGHT = {"breakpoints": [-1.0, 1.0], "values": [2.0, 1.0]}
SWEEP_BASES = [
    {"operator": {"preset": "ex3.5"}, "space": {"kind": "L2"},
     "grid": SWEEP_GRID, "window": {"m": 1.0}, "horizon": 20, "tol": 0.01,
     "trim": 1, "depth": 29},
    {"operator": {"alpha": {"kind": "translation", "shift": -1.0},
                  "weight": {**SWEEP_WEIGHT, "left_slope": 0.0,
                             "right_slope": 0.0}},
     "space": {"kind": "C0"}, "grid": SWEEP_GRID, "window": {"m": 2.0},
     "horizon": 20},
    {"operator": {"alpha": {"kind": "piecewise_affine",
                            "breakpoints": [-2.0, 0.0, 2.0],
                            "values": [-3.0, -1.5, 1.0], "left_slope": 1.0,
                            "right_slope": 1.0},
                  "weight": SWEEP_WEIGHT},
     "grid": SWEEP_GRID, "window": {"m": 2.0}, "horizon": 20},
    {"operator": {"preset": "ex3.5"},
     "space": {"kind": "SEGAL", "tau": {"breakpoints": [0.0],
                                        "values": [0.5]}},
     "grid": SWEEP_GRID, "window": {"m": 1.0, "eps": 0.6}, "horizon": 10},
    {"operator": {"preset": "ex3.6"}, "space": {"kind": "C0"},
     "grid": SWEEP_GRID, "horizon": 12, "mode": "scaled",
     "seed_function": {"center": 0.0, "half_width": 1.0, "height": 1.0},
     "targets": [{"center": 3.0, "half_width": 1.5,
                  "height": "0.5-0.25j"}]},
]
SWEEP_VALUES = ["x", True, None, [], {}, 0, 0.0, -0.0, -1, 0.5, 1e-300,
                1e300, 2 ** 63]
MISSPELL = object()


def mutated(base: dict, path: str, value, depth: int = 0):
    """A copy of ``base`` with the leaf ``path`` (made if absent; ``[]``
    is an array's first item) set to ``value``, or, for MISSPELL, with
    the ``depth``-th key of ``path`` misspelled by doubling its last
    letter; and that key's misspelled path, or None."""
    cfg = copy.deepcopy(base)
    parts = path.replace("[]", ".[]").split(".")
    keys = [i for i, part in enumerate(parts) if part != "[]"]
    stop = keys[depth] if value is MISSPELL else len(parts) - 1
    node = cfg
    for i, part in enumerate(parts[:stop]):
        child = [] if parts[i + 1] == "[]" else {}
        if part == "[]":
            if not node:
                node.append(child)
            node = node[0]
        else:
            node = node.setdefault(part, child)
    key = parts[stop]
    if value is not MISSPELL:
        if key == "[]":
            node[:1] = [value]
        else:
            node[key] = value
        return cfg, None
    node[key + key[-1]] = node.pop(key, 1.0)
    named = ".".join(parts[:stop] + [key + key[-1]])
    return cfg, named.replace(".[]", "[0]")


class TestConfigSweep:
    """One mutated leaf of a valid config runs, or exits 2 with one stderr
    line and no output; it never raises, warns or runs silently on a
    misspelled key."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.data())
    def test_one_mutation_exits_0_or_2(self, data):
        base = data.draw(st.sampled_from(SWEEP_BASES))
        path = data.draw(st.sampled_from(config_leaves(cli._CONFIG)))
        value = data.draw(st.sampled_from([*SWEEP_VALUES, MISSPELL]))
        depth = 0
        if value is MISSPELL:
            depth = data.draw(st.integers(0, path.count(".")))
        elif path.endswith(("breakpoints", "values")) and data.draw(
                st.booleans()):
            path += "[]"
        cfg, misspelled = mutated(base, path, value, depth)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "cfg.json"
            config.write_text(json.dumps(cfg))
            for command in ("classify", "orbit", "adjoint"):
                out = Path(tmp) / command
                code, err = run_quietly([command, "--config", str(config),
                                         "--out", str(out)])
                assert (code, err) == (0, "") or (
                    code == 2 and len(err.splitlines()) == 1
                    and not out.exists()), (command, cfg, code, err)
                if misspelled:
                    assert code == 2 and misspelled in err, (command, cfg)

    @staticmethod
    def orbit_columns(tmp_path, seed_height, target_height):
        """The norm and scaled_dist columns of an L2 orbit of ex3.6 and
        its best.csv distance, for the given tent heights."""
        cfg = {"operator": {"preset": "ex3.6"}, "space": {"kind": "L2"},
               "grid": SWEEP_GRID, "horizon": 12,
               "seed_function": {"height": seed_height},
               "targets": [{"center": 3.0, "height": target_height}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_quietly(["orbit", "--config", str(path),
                            "--out", str(out)]) == (0, "")
        rows = np.loadtxt(out / "orbit.csv", delimiter=",", skiprows=1)
        best = np.loadtxt(out / "best.csv", delimiter=",", skiprows=1)
        return rows[:, 1], rows[:, 3], best[2]

    @pytest.mark.parametrize("height", [1e300, 1e-300])
    def test_l2_orbit_scales_with_its_heights(self, tmp_path, height):
        # |v|**2 overflowed at 1e300 (a RuntimeWarning, inf and nan) and
        # underflowed to 0 at 1e-300
        norms, dists, best = self.orbit_columns(tmp_path, 1.0, 1.0)
        norms_f, dists_f, best_f = self.orbit_columns(tmp_path, height, 1.0)
        norms_g, dists_g, best_g = self.orbit_columns(tmp_path, 1.0, height)
        close = dict(rtol=1e-12, atol=0)
        np.testing.assert_allclose(norms_f, height * norms, **close)
        np.testing.assert_allclose(dists_f, dists, **close)
        np.testing.assert_allclose(norms_g, norms, **close)
        np.testing.assert_allclose(dists_g, height * dists, **close)
        np.testing.assert_allclose([best_f, best_g], [best, height * best],
                                   **close)

    @pytest.mark.parametrize("seed_height, target_height", [
        (1e-300, 1e300), (1e300, 1e-300), (5e-324, 1.0), (1.0, 5e-324),
        (1e-300, 1e-300), (1e300, 1e300)])
    def test_sup_orbit_at_extreme_heights(self, tmp_path, seed_height,
                                          target_height):
        # two leaves at once, which the one-leaf sweep does not draw: a
        # g_i / f_i past the float range grew the sup solve's active set
        # without end, so each run has a timeout
        cfg = {"operator": {"preset": "ex3.6"}, "space": {"kind": "C0"},
               "grid": SWEEP_GRID, "horizon": 12,
               "seed_function": {"height": seed_height},
               # on the orbit's way: T^n f is supported on [-1 - n, 1 - n]
               "targets": [{"center": -3.0, "height": target_height}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_in_subprocess(["orbit", "--config", str(path),
                                  "--out", str(out)], 60) == (0, "")
        rows = np.loadtxt(out / "orbit.csv", delimiter=",", skiprows=1)
        # the target's sup norm is its height, at its centre
        assert ((0.0 <= rows[:, 3]) & (rows[:, 3] <= target_height)).all()

    def test_subnormal_orbit_reaches_its_target(self, tmp_path):
        # ex3.6's orbit halves at each step, so near the target at -1050
        # its values are subnormal and g_i / f_i overflows: the run did
        # not end
        cfg = {"operator": {"preset": "ex3.6"}, "space": {"kind": "C0"},
               "grid": {"half_width": 1200, "step": 1}, "horizon": 1060,
               "targets": [{"center": -1050.0, "half_width": 3.0,
                            "height": 1.0}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_in_subprocess(["orbit", "--config", str(path),
                                  "--out", str(out)], 60) == (0, "")
        best = np.loadtxt(out / "best.csv", delimiter=",", skiprows=1)
        assert 0.0 <= best[2] <= 1.0

    @pytest.mark.parametrize("width", [5e-324, 1e-310])
    def test_subnormal_tent_is_silent(self, tmp_path, width):
        # 1/width overflowed: "RuntimeWarning: overflow encountered in
        # divide", for the same tent, height at the centre and 0 elsewhere;
        # so is a tent one grid step wide, whose files it must write
        written = []
        for w in (width, SWEEP_GRID["step"]):
            cfg = {"operator": {"preset": "ex3.6"}, "space": {"kind": "L2"},
                   "grid": SWEEP_GRID, "horizon": 3,
                   "seed_function": {"center": 0.0, "half_width": w},
                   "targets": [{"center": 1.0, "half_width": w,
                                "height": 2.0}]}
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / str(w)
            assert run_quietly(["orbit", "--config", str(path),
                                "--out", str(out)]) == (0, "")
            written.append(sorted((p.name, p.read_bytes())
                                  for p in out.iterdir()))
        assert written[0] == written[1]
        grid = Grid(SWEEP_GRID["half_width"], SWEEP_GRID["step"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for center in (0.0, 1.0, 0.1):
                tent = triangular_bump(grid, center, width, 2.0)
                assert np.array_equal(tent.values,
                                      np.where(grid.points == center,
                                               2.0, 0.0))

    def test_integer_shift_runs_as_its_float(self, tmp_path):
        # the int 2**63 reached numpy as a C long: OverflowError
        written = []
        for shift in (2 ** 63, float(2 ** 63)):
            cfg = mutated(SWEEP_BASES[1], "operator.alpha.shift", shift)[0]
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / str(len(written))
            for command in ("classify", "orbit", "adjoint"):
                assert run_quietly([command, "--config", str(path),
                                    "--out", str(out)]) == (0, "")
            written.append(sorted((p.name, p.read_bytes())
                                  for p in out.iterdir()))
        assert written[0] == written[1]
