"""Run loop, end-to-end metrics, determinism digest and environment block.

A run is closed-loop and single-threaded: one op at a time, each op one
public solver call plus its verifier.  The workload's quota of rounds is
generated before anything is timed; that fixed set of ops is then run in
passes, every op once per pass in the same order: at least MIN_PASSES
passes, and after those one more whenever, at the pace of the passes so
far, it would end less than half a pass after ``seconds`` of run time.  An
op's time is its best over the passes: on a shared host the machine's speed
drifts by tens of percent over seconds to minutes, and the best of several
passes spread over the run is far steadier than their mean (the reasoning
of ``timeit``).  Timing metrics are then calibrated (see calibrate.py).
Every pass is verified, and an op whose output differs from its first pass
fails.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Optional

import numpy

import calibrate
from checks import Verdict
from tracing import Tracer
from workloads import make_round

MIN_OPS = 100        # distinct ops a run needs, so the p90 has 10 beyond it
MIN_PASSES = 2
SETUP_REPEATS = 5

# name, unit, better; the bounds live in BENCHMARK.json
END_TO_END = (
    ("solves_per_s", "1/s", "higher"),
    ("solve_s.p50", "s", "lower"),
    ("solve_s.p90", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("verified_frac", "ratio", "higher"),
    ("value_ratio.mean", "ratio", "higher"),
    ("value_ratio.min", "ratio", "higher"),
)


@dataclass(frozen=True)
class Record:
    solver: str
    label: str
    seconds: float
    reason: Optional[str]
    token: str
    ratio: Optional[float]


def run_op(op):
    """Call the solver and verify its output; any exception fails the op."""
    start = perf_counter()
    try:
        result = op.call()
    except Exception as exc:      # a solver error is a failed op, not a crash
        verdict = Verdict(f"solver raised {type(exc).__name__}: {exc}", "error", None)
    else:
        try:
            verdict = op.check(result)
        except Exception as exc:  # so is output the verifier cannot read
            verdict = Verdict(f"verifier raised {type(exc).__name__}: {exc}", "error", None)
    return Record(op.solver, op.label, perf_counter() - start,
                  verdict.reason, verdict.token, verdict.ratio)


def run_passes(ops, seconds, min_passes=MIN_PASSES):
    """Run every op of ``ops`` once per pass until the stop rule holds, and
    the calibration kernel before every ``calibrate.every(len(ops))``-th op.
    Returns (records of every pass, best seconds of each op, best seconds of
    each kernel slot, run time in seconds, passes run)."""
    records = []
    best = [math.inf] * len(ops)
    first = [None] * len(ops)
    every = calibrate.every(len(ops))
    kernel_best = [math.inf] * len(range(0, len(ops), every))
    passes = 0
    elapsed = 0.0
    while passes < min_passes or elapsed * (passes + 0.5) / passes <= seconds:
        start = perf_counter()
        for i, op in enumerate(ops):
            if i % every == 0:
                slot = i // every
                kernel_best[slot] = min(kernel_best[slot], calibrate.sample())
            record = run_op(op)
            if first[i] is None:
                first[i] = record
            elif record.reason is None and record.token != first[i].token:
                record = replace(record, reason="output differs from the first pass")
            best[i] = min(best[i], record.seconds)
            records.append(record)
        elapsed += perf_counter() - start
        passes += 1
    return records, best, kernel_best, elapsed, passes


def run_rounds(rounds, tracer=None):
    """Each op of ``rounds`` once, through ``tracer`` if given; returns
    (records, run time in seconds)."""
    execute = run_op
    if tracer is not None:
        op_span = tracer.span("harness.op", run_op)

        def execute(op):
            tracer.op_id += 1
            return op_span(op)
    start = perf_counter()
    records = [execute(op) for rnd in rounds for op in rnd.ops]
    return records, perf_counter() - start


def run_paired(rounds):
    """Each round once untraced, then once traced, so that drift in machine
    speed hits both sides alike.  Returns (untraced records, untraced run
    time, traced records, traced wall time, tracer)."""
    tracer = Tracer()
    run = tracer.span("harness.run", run_rounds)
    plain, traced = [], []
    plain_s = traced_s = 0.0
    for rnd in rounds:
        records, elapsed = run_rounds([rnd])
        plain += records
        plain_s += elapsed
        with tracer.installed(rnd.oracles):
            start = perf_counter()
            records, _ = run([rnd], tracer=tracer)
            traced_s += perf_counter() - start
        traced += records
    return plain, plain_s, traced, traced_s, tracer


def digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.solver}|{r.label}|{r.token}\n".encode())
    return h.hexdigest()


def value_ratios(records):
    """(mean over ops, lowest per-solver mean) of the ratios that exist."""
    by_solver = {}
    for r in records:
        if r.ratio is not None:
            by_solver.setdefault(r.solver, []).append(r.ratio)
    every = [x for xs in by_solver.values() for x in xs]
    if not every:
        return None, None
    return (statistics.fmean(every),
            min(statistics.fmean(xs) for xs in by_solver.values()))


def measure_setup(workload, seed, src_dir):
    """Median over SETUP_REPEATS of: importing pcsm in a fresh interpreter
    plus generating the workload's quota rounds here.  Returns (seconds,
    the rounds of the last repeat)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
    times = []
    rounds = None
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import pcsm"], env=env, check=True)
        rounds = [make_round(workload, seed, i) for i in range(workload.quota)]
        times.append(perf_counter() - start)
    return statistics.median(times), rounds


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed):
    def threads(var):
        value = os.environ.get(var)
        return value if value is not None else "unset (library default)"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "seed": seed,
        "OPENBLAS_NUM_THREADS": threads("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": threads("OMP_NUM_THREADS"),
        "blas_threads": ("left at the user's default: the harness sets no thread "
                         "variable, and LP-F solve time differs about 4x between "
                         "OpenBLAS's default 2 threads and 1 on a 2-core machine"),
    }


def per_solver(records, best=None):
    """Op count, total and median seconds per solver, for the details;
    ``best`` replaces each record's time when given."""
    times = {}
    for r, seconds in zip(records, best or [r.seconds for r in records]):
        times.setdefault(r.solver, []).append(seconds)
    return {solver: {"ops": len(ts), "total_s": sum(ts), "p50_s": statistics.median(ts)}
            for solver, ts in sorted(times.items())}


def quantile_90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(records, best, setup_s, first_pass, scale=1.0):
    """``records`` holds every pass, ``best`` each op's best time and
    ``first_pass`` the records of the first pass; op times are multiplied
    by ``scale``.  ``setup_s`` is not: the calibration factor comes from the
    run, which follows set-up, and applied to set-up it only added noise."""
    failed = sum(r.reason is not None for r in records)
    mean, low = value_ratios(first_pass)
    return {
        "solves_per_s": len(best) / (scale * sum(best)),
        "solve_s.p50": scale * statistics.median(best),
        "solve_s.p90": scale * quantile_90(best),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "verified_frac": 1 - failed / len(records),
        "value_ratio.mean": mean,
        "value_ratio.min": low,
    }
