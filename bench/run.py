"""The lindyn benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload (see BENCHMARK.json) against the lindyn sources of
this checkout and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Set-up is measured in
several fresh processes and reported as their median; the measured process
then runs operations in a closed loop for ``--seconds``.  ``--trace 1``
runs a fixed list of operations twice, each time in a fresh process: once
untraced and once with spans around every layer, and reports the per-layer
metrics of the traced run plus the tracing overhead (traced over untraced
operation wall time).

Nothing here sets LINDYN_THREADS or any other lindyn setting: the program
runs as a user gets it by default.  Scratch files go to ``.bench_work/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
from workloads import TRACE_OPS, WORKLOADS  # noqa: E402

SETUP_PROBES = 8  # set-up-only processes; with the measured one, 9 samples
SETUP_TIMEOUT_S = 30
RUN_MARGIN_S = 60  # allowance past --seconds for the last operation
TRACE_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def run_worker(run_dir: Path, tag: str, workload: str, seed: int,
               extra: list, timeout: float) -> dict:
    work = run_dir / tag
    report = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--report", str(report),
           *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag}: no result within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(report.read_text())


def timing_summary(times: list) -> dict:
    """Median, and the highest of p99/p95/p90/p75 with at least ten samples
    beyond it, with the sample count."""
    n = len(times)
    out = {"samples": n, "p50_s": statistics.median(times)}
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}_s"] = statistics.quantiles(times, n=100)[pct - 1]
            break
    return out


def end_to_end(run_dir: Path, workload: str, seed: int,
               seconds: float) -> tuple:
    setups = [run_worker(run_dir, f"setup{k}", workload, seed,
                         ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
              for k in range(SETUP_PROBES)]
    main = run_worker(run_dir, "main", workload, seed,
                      ["--seconds", str(seconds)], seconds + RUN_MARGIN_S)
    times = main["op_times"]
    setups.append(main["setup_s"])
    metrics = {
        "ops_per_s": (main["attempted"] - main["failed"]) / sum(times),
        "op_s_p50": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    detail = {"ops": timing_summary(times), "setup_samples_s": setups,
              "repeated_ops": main["repeated_ops"],
              "output_bytes": main["output_bytes"]}
    return main, metrics, detail


def traced(run_dir: Path, workload: str, seed: int) -> tuple:
    ops = ["--ops", str(TRACE_OPS[workload])]
    plain = run_worker(run_dir, "plain", workload, seed, ops,
                       TRACE_TIMEOUT_S)
    main = run_worker(run_dir, "traced", workload, seed, ops + ["--trace"],
                      TRACE_TIMEOUT_S)
    metrics = dict(main["layers"])
    metrics["trace.overhead_ratio"] = (sum(main["op_times"])
                                       / sum(plain["op_times"]))
    spans = run_dir / "traced" / "spans.npy"
    for suffix in ("", ".names"):
        shutil.copy(f"{spans}{suffix}", WORK / f"spans-{workload}.npy{suffix}")
    for key in ("attempted", "failed"):
        main[key] += plain[key]
    main["failures"] += plain["failures"]
    detail = {"traced_ops": TRACE_OPS[workload], "spans": main["spans"],
              "untraced_op_times_s": plain["op_times"],
              "traced_op_times_s": main["op_times"]}
    return main, metrics, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        if args.trace:
            main_report, metrics, detail = traced(run_dir, args.workload,
                                                  args.seed)
        else:
            main_report, metrics, detail = end_to_end(
                run_dir, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1
    print("environment: " + json.dumps(main_report["environment"],
                                       sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True))
    for failure in main_report["failures"]:
        print("failure: " + json.dumps(failure, sort_keys=True))
    print(json.dumps({
        "correct": main_report["failed"] == 0,
        "attempted": main_report["attempted"],
        "failed": main_report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
