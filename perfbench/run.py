"""Run one workload of the pcsm benchmark and print its metrics.

    python3 perfbench/run.py --workload verify_dp --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run times the workload's fixed set of ops in passes and takes each op's
best time over the passes (see harness.py).  ``--workload all`` runs every
workload in turn, each in its own child process (so each gets its own peak
RSS), relays their output, and ends with one line merging their results,
metric names prefixed by the workload.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` each round of the workload's
fixed set runs once untraced and then once traced, and the object
carries the per-layer metrics.  The line before it holds the details: environment,
digest, and every failed op with its reason.  Both, and the traced spans,
are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pcsm", "__init__.py")):
        print(f"error: no pcsm package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    import calibrate
    import harness
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    setup_s, rounds = harness.measure_setup(workload, args.seed, SRC)
    details = {"workload": workload.name, "trace": args.trace,
               "environment": harness.environment(args.seed),
               "quota_rounds": workload.quota}
    if not args.trace:
        ops = [op for rnd in rounds for op in rnd.ops]
        if len(ops) < harness.MIN_OPS:
            print(f"error: {workload.name} has {len(ops)} ops, fewer than "
                  f"{harness.MIN_OPS}", file=sys.stderr)
            return 2
        records, best, kernel_best, elapsed, details["passes"] = harness.run_passes(
            ops, args.seconds)
        first_pass = records[:len(ops)]
        scale = calibrate.scale(kernel_best)
        details["calibration"] = {
            "slots": len(kernel_best), "kernel_best_s": kernel_best, "scale": scale,
            "uncalibrated": harness.end_to_end(records, best, setup_s, first_pass)}
        metrics = harness.end_to_end(records, best, setup_s, first_pass, scale)
        units = {name: unit for name, unit, _better in harness.END_TO_END}
        digests_match = True
        details["per_solver_best"] = harness.per_solver(first_pass, best)
    else:
        records, untraced_s, traced, traced_wall, tracer = harness.run_paired(rounds)
        first_pass = records
        metrics = tracer.layer_metrics(traced_wall, untraced_s)
        units = {name: unit for name, unit, _better, _moves in LAYER_METRICS}
        details["traced_digest"] = harness.digest(traced)
        digests_match = details["traced_digest"] == harness.digest(first_pass)
        if not digests_match:
            details["digest_mismatch"] = "traced and untraced outputs differ"
        records = records + traced
        elapsed = untraced_s + traced_wall
        tracer.dump(os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}.jsonl"))

    failures = [{"solver": r.solver, "label": r.label, "reason": r.reason}
                for r in records if r.reason is not None]
    details.update({
        "digest": harness.digest(first_pass),
        "distinct_ops": len(first_pass),
        "ops": len(records),
        "run_s": elapsed,
        "failed_frac": len(failures) / len(records),
        "per_solver": harness.per_solver(records),
        "failures": failures,
    })
    result = {
        "correct": not failures and digests_match,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


def run_all(args):
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            return proc.returncode
        sys.stdout.write(proc.stdout)
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
