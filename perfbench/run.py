"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dtdg-gpma-train --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in its own process.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with spans around each layer and prints the per-layer metrics
instead (and writes the spans to ``.perfbench/``).  Either way the outputs
are checked, a table is printed for people, and the last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before NumPy loads, so every commit compared runs
# with the same count; 1, because the whole run is pinned to one CPU below.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _blas_threads() -> int | str:
    """Threads the loaded OpenBLAS reports, or the pinned setting."""
    import ctypes
    import glob

    import numpy

    libs = pathlib.Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        query = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if query is not None:
            query.restype = ctypes.c_int
            return int(query())
    return f"env {BLAS_THREADS}"


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran while
    this result was taken (shared hosts drift by tens of percent)."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        samples.append(time.perf_counter() - start)
    return round(statistics.median(samples) * 1e3, 3)


def environment(seed: int) -> dict[str, object]:
    """What every result is recorded with."""
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "host_probe_ms": host_probe_ms(),
    }


def pin_to_one_cpu() -> int:
    """Run every thread of the benchmark on one CPU.

    The serving workload hands each query between the driver and the
    dispatcher thread; left to the scheduler, the dispatcher wakes on either
    CPU, and the share of cross-CPU wake-ups moved the median query latency
    by 2x between otherwise identical runs.  The program's Python threads
    share one interpreter lock, so one CPU is what they can use anyway.
    """
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # not permitted here: run unpinned, and say so
        return -1
    return cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cpu = pin_to_one_cpu()

    if args.workload == "all":
        # Each workload in its own process, so none inherits another's caches.
        status = 0
        for name in workloads.WORKLOADS:
            child = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = subprocess.run([sys.executable, __file__, *child]).returncode or status
        return status
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    env = {**environment(args.seed), "pinned_cpu": cpu}
    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env["host_probe_ms_after"] = host_probe_ms()

    print(f"workload {args.workload}  trace {args.trace}  env {json.dumps(env)}")
    for name, value, unit, note in result.table:
        print(f"  {name:32s} {value:14.6g} {unit:6s} {note}")
    failed_frac = result.failed / result.attempted if result.attempted else 1.0
    print(f"  {'failed_frac':32s} {failed_frac:14.6g} {'frac':6s} {result.failed}/{result.attempted} checks failed")
    for failure in result.failures:
        print(f"  FAILED: {failure}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "env": env, "result": result.line(),
            "span_fields": ["name", "start", "end", "parent", "round"],
            "spans": result.spans,
        }))
        print(f"  spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
