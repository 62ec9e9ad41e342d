"""Benchmark of the skewspec CLI, driven in-process through cli.run(argv).

Usage, from the repository root:

    python3 benchmark/run.py --workload certify-search --seed 1 --seconds 50 --trace 0

One process, one client, closed loop: each operation starts when the
previous one has returned.  Inputs are made in set-up from ``--seed``.
The run cycles through the workload's operations for ``--seconds`` of
operation time (at least one whole pass), and checks every report after
its pass, outside the timed region.  A pass's time is the sum over its
operations of each one's median time.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` first runs untraced passes for half the time, then traced
passes for the other half, and prints the per-layer metrics of the traced
passes together with the tracing overhead.  Both modes record the exact
work counters and flag a change from the previous run of the workload.

The last line of stdout is the result object; the line before it holds
the environment and details (slowest operations, known defects,
counters).  The program is imported from ``src/`` next to this
directory; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

from tracing import PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS, CheckFailed, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
SETUPS = 5


def load_program():
    """Import skewspec from this checkout's src/, capping BLAS threads at
    the CPUs this process may use (numpy reads the cap on import)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "skewspec", "cli.py")):
        raise ImportError(f"no skewspec sources under {src}")
    nproc = len(os.sched_getaffinity(0))
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not threads.isdigit() or not 1 <= int(threads) <= nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    os.environ.pop("SKEWSPEC_TOL", None)
    sys.path.insert(0, src)
    import skewspec.cli

    if not os.path.realpath(skewspec.cli.__file__).startswith(os.path.realpath(src)):
        raise ImportError(f"skewspec was imported from {skewspec.cli.__file__}")
    return skewspec.cli


def blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def warm_up() -> None:
    # The first eigensolve of a process pays for lazy BLAS start-up.
    import numpy as np

    a = np.arange(256 * 256, dtype=np.float64).reshape(256, 256) % 7
    np.linalg.eigvalsh(a + a.T)


def call(cli, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except (Exception, SystemExit) as e:  # a crash is the operation's outcome
        exc = e
    seconds = perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), exc, seconds)


def check(op, res, memo) -> str | None:
    try:
        op.check(res, memo)
    except CheckFailed as exc:
        return f"{op.name}: {exc}"
    except (AttributeError, KeyError, TypeError, ValueError, OSError) as exc:
        return f"{op.name}: malformed output ({type(exc).__name__}: {exc})"
    return None


class Passes:
    """Timed operations and what their checks found."""

    def __init__(self):
        self.medians: list[list[float]] = []  # per run(): each op's median
        self.pass_sums: list[float] = []  # operation time of each whole pass
        self.by_op: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.exact: list[dict] = []
        self.peak_rss_mib = None

    def run(self, cli, ops, seconds: float, tracer: Tracer, on_pass=None) -> None:
        """Cycle through ``ops`` for ``seconds`` of operation time.

        The first pass always runs whole; after it the loop stops before
        the first operation whose previous time would not fit, so the last
        pass may be cut short.  Each pass is checked after it ends; only
        whole passes give counters and trace snapshots.  Appends to
        ``medians`` each operation's median time, which leaves out short
        bursts of a busy host and uses all of ``seconds`` rather than
        whole passes only."""
        times: list[list[float]] = [[] for _ in ops]
        spent = 0.0
        while True:
            tracer.reset()
            gc.collect()
            results = []
            for op, seen in zip(ops, times):
                if seen and spent + seen[-1] > seconds:
                    break
                res = call(cli, op.argv)
                results.append(res)
                seen.append(res.seconds)
                spent += res.seconds
            whole = len(results) == len(ops)
            if whole:
                if self.peak_rss_mib is None:
                    # Set-up and the first pass, before any check runs.
                    self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                if on_pass:
                    on_pass(tracer)
                self.exact.append(tracer.exact())
                self.pass_sums.append(sum(r.seconds for r in results))
            memo: dict = {}
            for op, res in zip(ops, results):
                self.by_op.setdefault(op.name, []).append(res.seconds)
                self.attempted += 1
                reason = check(op, res, memo)
                if reason:
                    self.failures.append(reason)
            if not whole:
                self.medians.append([statistics.median(seen) for seen in times])
                return


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: Passes, setup_times) -> dict:
    passed = passes.attempted - len(passes.failures)
    medians = passes.medians[0]
    wall = sum(medians)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        # Per pass rather than over the run, whose last pass is cut short
        # at a point that moves with the host's speed.
        "ops_per_s": (passed / passes.attempted * len(medians) / wall, "1/s"),
        "peak_rss_mib": (passes.peak_rss_mib, "MiB"),
        "passed_ratio": (passed / passes.attempted, "ratio"),
        # Of each command's median, so that a burst of a busy host that
        # delays a few single commands does not set it.
        "op_p99_ms": (1e3 * quantile(medians, 99), "ms"),
    }


def per_layer(snapshots, untraced: list, traced: list) -> dict:
    out = {
        key: (statistics.median(s[key] for s in snapshots), unit)
        for key, unit in PER_LAYER_UNITS.items()
    }
    out["trace.overhead_ratio"] = (sum(traced) / sum(untraced), "ratio")
    return out


def compare_counters(workload: str, exact: list) -> bool:
    """Whether the exact counters changed between passes or since the last
    run of this workload; stores this run's counters for the next one."""
    changed = any(e != exact[0] for e in exact)
    path = os.path.join(WORK, "last_counters.json")
    try:
        with open(path, encoding="utf-8") as fh:
            last = json.load(fh)
    except (OSError, ValueError):
        last = {}
    if workload in last and last[workload] != exact[0]:
        changed = True
    last[workload] = exact[0]
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(last, fh, sort_keys=True)
    os.replace(tmp, path)
    return changed


def set_up(workload: str, seed: int, work: str):
    """Set up SETUPS times from the same seed into one work directory.

    Repeats overwrite the same files, so the median measures set-up work
    rather than the file system's cost of allocating fresh inodes, which
    swings by 10x on a shared disk.  Each set-up ends with a warm-up
    eigensolve."""
    make = WORKLOADS[workload]
    times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        plan = make(work, random.Random(f"{workload}:{seed}"))
        warm_up()
        times.append(perf_counter() - t0)
    return plan, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        plan, setup_times = set_up(args.workload, args.seed, work)
        passes = Passes()
        counting = Tracer(timed=False)
        counting.install()
        try:
            passes.run(cli, plan.ops, args.seconds / 2 if args.trace else args.seconds, counting)
        finally:
            counting.remove()
        if args.trace:
            snapshots = []
            traced = Tracer(timed=True)
            traced.install()
            try:
                passes.run(
                    cli, plan.ops, args.seconds / 2, traced,
                    on_pass=lambda t: snapshots.append(t.snapshot()),
                )
            finally:
                traced.remove()
        defects = {}
        for op in plan.probes:
            res = call(cli, op.argv)
            defects[op.name] = check(op, res, {}) or "ok"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    changed = compare_counters(args.workload, passes.exact)
    if changed:
        print(f"warning: exact counters changed: {passes.exact[-1]}", file=sys.stderr)
    failing = sum(v != "ok" for v in defects.values())
    if args.trace:
        metrics = per_layer(snapshots, *passes.medians)
        metrics["known_defects.failing"] = (failing, "count")
    else:
        metrics = end_to_end(passes, setup_times)
    slowest = sorted(passes.by_op.items(), key=lambda kv: -statistics.median(kv[1]))
    detail = {
        "workload": args.workload,
        "env": environment(args.seed),
        "setup_s_each": setup_times,
        "pass_estimate_s": [sum(m) for m in passes.medians],
        "whole_pass_sums_s": passes.pass_sums,
        "ops_per_pass": len(plan.ops),
        # Not an end-to-end metric: outside orientation-sweep the median
        # operation is one short command, whose run-to-run spread is wide.
        "op_p50_ms": 1e3 * quantile(passes.medians[0], 50),
        "slowest_ops_s": {k: statistics.median(v) for k, v in slowest[:6]},
        "failures": passes.failures[:20],
        "known_defects": defects,
        "exact_counters": passes.exact[0],
        "exact_counters_changed": changed,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not passes.failures,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
