"""Run one densfda benchmark workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload sim-l2-full --seed 0 --seconds 20 --trace 0

One client runs ops back to back (a closed loop) for ``--seconds``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops on the same inputs and reports the per-layer
metrics, the tracing overhead and a size sweep of ``fpca.fit`` and
``dist_wasserstein``.  The next-to-last line of standard output holds
the machine facts and run details; the last line is the result:

    {"correct": true, "attempted": 41, "failed": 0, "metrics": {...}}

Results and, for traced runs, the spans of the first traced op are also
written to ``bench/out/``.  See ``bench/METRICS.md`` for what each
metric means and which layer should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("sim-l2-full", "sim-wass-sampled", "regress-cv-lqd", "cli-analyze-large")
SETUP_SAMPLES = 3  # this process plus two fresh ones; setup_s is their median
PROBE_TIMEOUT_S = 60
FAILURES_SHOWN = 3
# One BLAS thread: with two, OpenBLAS spin-waits on both cores of a
# 2-core machine and op times follow the load on the other core.
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def openblas_runtime() -> list:
    """Build string and thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}"):
            get_threads = getattr(lib, symbol.format("get_num_threads"), None)
            get_config = getattr(lib, symbol.format("get_config"), None)
            if get_threads and get_config:
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                found.append({
                    "library": os.path.basename(path),
                    "threads": get_threads(),
                    "config": get_config().decode(),
                })
                break
    return found


def start_program() -> float:
    """Pin the BLAS threads, import densfda from this checkout; return the start time."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc()))
    started = perf_counter()
    sys.path.insert(0, str(SRC))
    import densfda

    if Path(densfda.__file__).resolve().parent != SRC / "densfda":
        raise SystemExit(f"densfda was imported from {densfda.__file__}, not from {SRC}")
    return started


def set_up(workload: str, seed: int, workdir: Path):
    """Inputs plus the untimed warm-up op 0; returns (workload, op 0 output, seconds)."""
    started = start_program()
    import workloads

    wl = workloads.make(workload)
    wl.setup(seed, str(workdir))
    out = call(wl, 0)
    return wl, out, perf_counter() - started


def call(wl, i: int):
    """Run op ``i``; an exception is the op's output, checked like any other."""
    try:
        return wl.op(i)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        return exc


class Tally:
    """Checked ops: how many, which failed, and the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, wl, out, i: int):
        self.attempted += 1
        problems = wl.problems(out, i)
        if problems:
            self.failed += 1
            if len(self.reasons) < FAILURES_SHOWN:
                self.reasons.append(f"op {i}: {problems[0]}")


def closed_loop(wl, seconds: float, tally: Tally) -> tuple[list, float]:
    """Ops 1, 2, ... back to back until ``seconds`` have passed; op times and wall time."""
    times = []
    start = perf_counter()
    i = 1
    while True:
        t = perf_counter()
        out = call(wl, i)
        times.append(perf_counter() - t)
        tally.check(wl, out, i)
        i += 1
        if perf_counter() - start >= seconds:
            return times, perf_counter() - start


def tail(times: list) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10 ops above it.

    Below 20 ops that percentile would fall under the median, so the
    median is reported instead.
    """
    n = len(times)
    if n < 20:
        return 50.0, statistics.median(times)
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def probe_setup(workload: str, seed: int) -> float:
    """setup_s measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def untraced_run(wl, args, tally: Tally, own_setup_s: float) -> tuple[dict, dict, list]:
    times, wall = closed_loop(wl, args.seconds, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [own_setup_s] + [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    pct, tail_s = tail(times)
    metrics = {
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail_s,
        "ops_per_s": len(times) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "ops_timed": len(times),
        "op_tail_percentile": round(pct, 2),
        "setup_samples_s": setups,
    }
    op_times_ms = [round(1e3 * t, 3) for t in times]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, details, op_times_ms


def traced_run(wl, args, tally: Tally) -> tuple[dict, dict, dict]:
    import tracer
    import workloads

    sweep = workloads.size_sweep(args.seed)
    tr = tracer.Tracer()
    untraced, traced, summaries, first_spans = [], [], [], None
    start = perf_counter()
    i = 1
    while perf_counter() - start < args.seconds:
        t = perf_counter()
        out = call(wl, i)
        untraced.append(perf_counter() - t)
        tally.check(wl, out, i)
        tr.install()
        try:
            t = perf_counter()
            out = call(wl, i)
            traced.append(perf_counter() - t)
        finally:
            tr.remove()
        tally.check(wl, out, i)
        summaries.append(tr.summary())
        if first_spans is None:
            first_spans = tr.spans_table()
        tr.reset()
        i += 1
    metrics = {name: (summaries[0][name], unit) for name, unit in tracer.COUNT_METRICS.items()}
    for name in tracer.TIME_METRICS:
        metrics[name] = (statistics.median(s[name] for s in summaries), "ms")
    p50_untraced, p50_traced = statistics.median(untraced), statistics.median(traced)
    metrics["bench.untraced_op_p50_ms"] = (1e3 * p50_untraced, "ms")
    metrics["bench.traced_op_p50_ms"] = (1e3 * p50_traced, "ms")
    metrics["bench.trace_overhead_pct"] = (100.0 * (p50_traced / p50_untraced - 1.0), "%")
    metrics.update({name: (v, "ms") for name, v in sweep.items()})
    details = {"ops_timed": len(traced) + len(untraced), "ops_traced": len(traced)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details, first_spans


def facts(args) -> dict:
    import workloads

    return {
        "workload": args.workload,
        "base_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one process",
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **workloads.versions(),
        "blas_threads_set": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "openblas_loaded": openblas_runtime(),
    }


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up and print setup_s (used for setup_s samples)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "densfda" / "__init__.py").is_file():
        print(f"error: no densfda sources under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, out0, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tally = Tally()
        tally.check(wl, out0, 0)
        if args.trace:
            metrics, details, extra = traced_run(wl, args, tally)
        else:
            metrics, details, extra = untraced_run(wl, args, tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        **facts(args),
        **details,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.reasons,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    extra_key = "spans_of_first_traced_op" if args.trace else "op_times_ms"
    record.write_text(json.dumps({"info": info, "result": result, extra_key: extra}) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
