"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Checks that every workload runs end to end and passes its output checks,
that an injected wrong expectation is counted as a failure, that the same
seed generates the same inputs, that traced runs report every per-layer
metric with counts that repeat exactly, that run.py prints a well-formed
result line, and that it fails without a result when the lindyn sources
are missing.  Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work" / "smoke"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import lindyn  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "B", "ratio"}
problems = []


def check(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        problems.append(what)


def worker(workload: str, *extra: str, seed: int = 5) -> dict:
    report = WORK / f"{workload}.json"
    subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload",
                    workload, "--seed", str(seed), "--work",
                    str(WORK / workload), "--report", str(report), "--tiny",
                    *extra], check=True, timeout=120)
    return json.loads(report.read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run([sys.executable, "bench/run.py", "--workload",
                           workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace)], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    for w in wl.WORKLOADS:
        a = wl.make_ops(w, 11, lindyn.REGISTRY, tiny=True)
        b = wl.make_ops(w, 11, lindyn.REGISTRY, tiny=True)
        c = wl.make_ops(w, 12, lindyn.REGISTRY, tiny=True)
        check([o.key for o in a] == [o.key for o in b],
              f"{w}: the same seed generates the same inputs")
        check([o.key for o in a] != [o.key for o in c],
              f"{w}: another seed generates other inputs")

        pool = len(a)
        r = worker(w, "--ops", str(pool + 1))
        check(r["attempted"] == pool + 1 and r["failed"] == 0,
              f"{w}: {r['attempted']} tiny operations, {r['failed']} failed "
              f"{r['failures'][:1]}")
        check(r["repeated_ops"] >= 1, f"{w}: a repeated operation was "
              "compared byte for byte")

        r = worker(w, "--ops", "2", "--inject-fault")
        check(r["failed"] == r["attempted"] == 2,
              f"{w}: a wrong expectation fails {r['failed']} of "
              f"{r['attempted']} operations")

        runs = [worker(w, "--ops", "2", "--trace")["layers"]
                for _ in range(2)]
        names = {m["name"] for m in SPEC["per_layer"]}
        names.discard("trace.overhead_ratio")
        check(names <= set(runs[0]), f"{w}: traced run reports every "
              f"per-layer metric (missing {sorted(names - set(runs[0]))})")
        counts = [m["name"] for m in SPEC["per_layer"]
                  if m["unit"] in COUNT_UNITS and m["name"] in runs[0]]
        differ = [n for n in counts if runs[0][n] != runs[1][n]]
        check(not differ, f"{w}: traced counts repeat exactly {differ}")

    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, "porosity", trace)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(proc.returncode == 0
              and set(result) == {"correct", "attempted", "failed",
                                  "metrics"}
              and result["correct"] and result["attempted"] >= 1
              and set(result["metrics"]) == {m["name"] for m in SPEC[kind]},
              f"run.py --trace {trace} prints a result line with every "
              f"{kind} metric")

    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "registry", 0)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the lindyn sources run.py fails and prints no result")
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
