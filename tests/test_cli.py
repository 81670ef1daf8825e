import json
import math
import warnings

import numpy as np
import pytest

from lindyn import dynamics
from lindyn.cli import ExperimentConfig, main
from lindyn.criteria import CriterionKind
from lindyn.presets import REGISTRY, build_preset, preset_names
from oracles import quantity


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
        op = build_preset("ex3.8", depth=200)
        w = op.weight
        ms = np.arange(1, 150)
        assert np.allclose(w(-ms.astype(float)), (ms + 1) / ms, rtol=1e-15)
        ts = self.rng.uniform(0, 50, 500)
        assert np.all(w(ts) == 0.5)

    def test_shift_preset_weights(self):
        # the shift weight w_j sits at j + 1: T f(t) = w(t-1) f(t-1)
        w = build_preset("rem3.10").weight
        assert w(1.0) == 0.5 and w(8.0) == 0.5
        assert w(-2.0) == pytest.approx(4.0 / 3.0)

    def test_names(self):
        for name in preset_names():
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

    def test_segal_requires_tau(self, tmp_path, capsys):
        cfg = self.config(tmp_path, space={"kind": "SEGAL"})
        assert run(["classify", "--config", cfg]) == 2

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

    def test_ex38_depth_too_shallow_exit_2(self, tmp_path, capsys):
        # rem3.10 carries the telescoping weight too, under the same rule
        for preset in ("ex3.8", "rem3.10"):
            shallow = self.config(tmp_path, operator={"preset": preset},
                                  window={"m": 2}, horizon=300, depth=309)
            assert run(["classify", "--config", shallow]) == 2
            assert "depth" in capsys.readouterr().err
            enough = self.config(tmp_path, operator={"preset": preset},
                                 window={"m": 2}, horizon=300, depth=310)
            assert run(["classify", "--config", enough]) == 0

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
            assert summaries[cesaro]["status"] == \
                "NOT_SATISFIED_UP_TO_HORIZON"
        assert summaries["ADJOINT_SUPER"]["witness"] == [[1, 1.0]]

    def test_log2_q_carries_past_underflow(self, tmp_path, capsys):
        # ex3.7 in L2: the supercyclic q underflows to 0 from n = 1080 on
        # and the Cesaro and hypercyclic q overflow to inf; log2 q keeps
        # the values, so the supercyclic witness runs on past n = 1079
        cfg = self.config(tmp_path, operator={"preset": "ex3.7"},
                          space={"kind": "L2"}, window={"m": 2.0},
                          horizon=3000, tol=1e-6)
        assert run(["classify", "--config", cfg, "--out", str(tmp_path)]) == 0
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
                        "--out", str(tmp_path)]) == 0
        log2_q = [json.loads(line)["log2_q"] for line in
                  (tmp_path / "verdicts.jsonl").read_text().splitlines()
                  if '"kind": "SUPERCYCLIC_SOLID", "log2_q"' in line]
        assert len(log2_q) == 1200
        assert all(math.isfinite(lq) for lq in log2_q)
        assert np.diff(log2_q[-200:]) == pytest.approx(np.ones(199),
                                                       abs=1e-9)

    def test_cesaro_log2_q_ties_where_q_ties(self, tmp_path, capsys):
        # ex3.5 in C0 at m = 2: the Cesaro q(3) equals q(1) = 2.0, and so
        # must log2 q, or the tie sets a record
        cfg = self.config(tmp_path, window={"m": 2.0}, tol=1e-6)
        assert run(["classify", "--config", cfg, "--out", str(tmp_path)]) == 0
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
        assert run(["classify", "--config", cfg, "--out", str(tmp_path)]
                   + flags) == 0
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

    def test_orbit_unknown_mode_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self.orbit_config(tmp_path, 1, "bogus")
        assert run(["orbit", "--config", cfg, "--out", str(out)]) == 2
        assert "orbit mode" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, targets, per_n", [
        ("scaled", 1, 1), ("scaled", 2, 2), ("scaled", 3, 3),
        ("plain", 2, 1), ("cesaro", 2, 1)])
    def test_orbit_projective_distance_count(self, tmp_path, capsys,
                                             monkeypatch, mode, targets,
                                             per_n):
        # one walk: the orbit.csv column is the first target's scaled
        # distance, which a scaled best.csv reuses; T^n f is never zero here
        calls = []
        solve = dynamics.projective_distance

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(dynamics, "projective_distance", counted)
        cfg = self.orbit_config(tmp_path, targets, mode)
        assert run(["orbit", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(calls) == 6 * per_n

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

    def test_porosity_scene_file(self, tmp_path, capsys):
        from lindyn.porosity import random_scene

        scene = random_scene(np.random.default_rng(0))
        path = tmp_path / "scene.json"
        path.write_text(scene.to_json())
        assert run(["porosity", "--scene", str(path)]) == 0
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec["lift_in_gamma_h"] is True

