"""One fresh benchmark process: set up one workload, then run its operations
in a closed loop (one client; each operation starts after the previous one
ends) and write a JSON report.

Set-up time runs from this file's first statement to the first timed
operation: importing lindyn plus generating the seeded inputs and configs.
Only the ``lindyn.cli.main(argv)`` call of an operation is timed; checks and
output hashing run between operations, outside the timed region.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import workloads as wl  # noqa: E402


def import_lindyn():
    """Import lindyn from this checkout's sources, never from elsewhere."""
    if not (SRC / "lindyn" / "__init__.py").is_file():
        sys.exit(f"no lindyn sources under {SRC}")
    import lindyn
    import lindyn.cli
    if Path(lindyn.__file__).resolve().parent != SRC / "lindyn":
        sys.exit(f"lindyn imported from {lindyn.__file__}, not from {SRC}")
    return lindyn


def _read(path: str, default: str = "unreadable") -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return default


def environment(lindyn) -> dict:
    import numpy
    model = "unknown"
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    cli = lindyn.cli
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max").strip(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lindyn": getattr(lindyn, "__version__", "unknown"),
        "cli_worker_count": (cli.worker_count()
                             if hasattr(cli, "worker_count") else None),
        "LINDYN_THREADS": os.environ.get("LINDYN_THREADS", "unset"),
    }


def output_digest(out: Path):
    """sha256 over the output files' names and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(data)
        h.update(b"\0")
    return h.hexdigest(), size


def make_checker(workload: str, lindyn, fault: bool):
    if workload == "orbit_sup":
        bound = wl.OrbitBound(lindyn)
        return lambda op, rc, out, d: wl.check_orbit_sup(op, rc, out, d,
                                                         fault, bound)
    check = {"sweep_long": wl.check_sweep_long,
             "registry": wl.check_registry,
             "porosity": wl.check_porosity}[workload]
    return lambda op, rc, out, d: check(op, rc, out, d, fault)


def run_op(lindyn, argv, tracer):
    """One timed CLI call; returns (exit code or None, stdout, seconds,
    error)."""
    buf = io.StringIO()
    err = None
    rc = None
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                rc = lindyn.cli.main(argv)
            else:
                rc = tracer.run_op(lindyn.cli.main, argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        err = traceback.format_exc(limit=3)
    return rc, buf.getvalue(), time.perf_counter() - t, err


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True, help="scratch directory")
    p.add_argument("--report", required=True, help="JSON report path")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--seconds", type=float,
                     help="run operations until this much time has passed")
    how.add_argument("--ops", type=int, help="run exactly this many")
    how.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the smoke test")
    p.add_argument("--inject-fault", action="store_true",
                   help="check against a wrong expectation")
    args = p.parse_args(argv)

    lindyn = import_lindyn()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    ops = wl.make_ops(args.workload, args.seed, lindyn.REGISTRY,
                      tiny=args.tiny)
    argvs = wl.write_configs(ops, work)
    setup_s = time.perf_counter() - T0
    report = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.report).write_text(json.dumps(report))
        return 0

    report["environment"] = environment(lindyn)
    check = make_checker(args.workload, lindyn, args.inject_fault)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    times, failures, digests = [], [], {}
    output_bytes = 0
    start = time.perf_counter()
    i = 0
    while (i < args.ops if args.ops is not None
           else time.perf_counter() - start < args.seconds):
        op = ops[i % len(ops)]
        out = work / f"out{i}"
        rc, stdout, dt, err = run_op(lindyn, argvs[i % len(ops)]
                                     + ["--out", str(out)], tracer)
        times.append(dt)
        problems = [err] if err else []
        if not problems:
            try:
                problems = check(op, rc, stdout, out)
                digest, size = output_digest(out)
                output_bytes += size
                first = digests.setdefault(op.key, digest)
                if digest != first:
                    problems.append("output bytes differ from an earlier "
                                    "run of identical inputs")
            except Exception:
                problems.append("output check raised:\n"
                                + traceback.format_exc(limit=3))
        if problems:
            failures.append({"op": i, "argv": op.argv, "problems": problems})
        shutil.rmtree(out, ignore_errors=True)
        i += 1

    report.update({
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:5],
        "op_times": times,
        "repeated_ops": len(times) - len(digests),
        "output_bytes": output_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    if tracer is not None:
        import tracing
        tracer.save(work / "spans.npy")
        report["layers"] = tracing.layer_metrics(tracer.spans(),
                                                 tracer.names)
        report["layers"]["cli.output_bytes"] = output_bytes
        report["spans"] = int(tracer.spans().shape[0])
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
