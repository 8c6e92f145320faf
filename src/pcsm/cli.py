"""Command-line surface: instance generation, all solvers, and the
benchmark harness.

Exit codes: 0 success, 2 infeasible instance / no qualifying solution,
3 budget refusal, 4 bad input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .brute import brute_optimum
from .continuous import solve_main
from .core import (
    BudgetExceededError,
    ConcaveOfModularOracle,
    CoverageOracle,
    InfeasibleError,
    Instance,
    LinearOracle,
    Params,
    instance_to_json_obj,
    load_instance,
    load_ratios,
    make_instance,
    mask_to_tuple,
    to_fraction,
)
from .forbidden_dp import cardinality_solve, forbidden_dp_solve, solve_polynomial
from .greedy_dp import dp_with_completion, vanilla_dp
from .kmedian import load_two_dist, solve_two_distance
from .lp import (
    analytic_dual_witness,
    analytic_primal_witness,
    build_dual,
    build_lp,
    build_lp_f,
    check_exact,
    closed_form_optimum,
    simplex_solve,
    verify_upper_bound_construction,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_BAD_INPUT = 4


def fmt(x) -> str:
    """Canonical 12-significant-digit rendering for floats and rationals."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int,)):
        return str(x)
    return f"{float(x):.12g}"


def instance_digest(inst: Instance) -> str:
    blob = json.dumps(instance_to_json_obj(inst), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# ---------------------------------------------------------------------------
# instance generation


def generate_instance(n: int, p: int, c: int, family: str = "linear",
                      density: float = 0.7, seed: int = 0,
                      integer: bool = True) -> Instance:
    """Reproducible random instance with a planted feasible subset.

    Integer entries come from [0..9]; rational entries are small fractions.
    Bounds are the planted subset's loads, so the instance is feasible by
    construction.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = random.Random(seed)

    def entry():
        if rng.random() >= density:
            return 0
        if integer:
            return rng.randint(1, 9)
        return Fraction(rng.randint(1, 36), rng.randint(1, 4))

    packing = [[entry() for _ in range(n)] for _ in range(p)]
    covering = [[entry() for _ in range(n)] for _ in range(c)]
    planted = [i for i in range(n) if rng.random() < 0.5]
    if n and not planted:
        planted = [rng.randrange(n)]
    pack_bound = [sum(row[i] for i in planted) for row in packing]
    cover_bound = [sum(row[i] for i in planted) for row in covering]

    if family == "linear":
        oracle = LinearOracle([rng.randint(0, 9) for _ in range(n)])
    elif family == "coverage":
        universe = max(n, 1)
        sets = [[u for u in range(universe) if rng.random() < 0.4] for _ in range(n)]
        oracle = CoverageOracle(universe, sets, [rng.randint(1, 5) for _ in range(universe)])
    elif family == "concave_of_modular":
        weights = [rng.randint(0, 9) for _ in range(n)]
        oracle = ConcaveOfModularOracle(weights, max(1, sum(weights) // 2))
    else:
        raise ValueError(f"unknown objective family {family!r}")
    return make_instance(packing, covering, pack_bound, cover_bound, oracle)


# ---------------------------------------------------------------------------
# benchmark harness


@dataclass
class RunReport:
    instance_digest: str
    solver: str
    value: object
    brute: object
    ratio: object
    cover_ratio: object
    pack_ratio: object
    seconds: float
    seed: int
    error: str = ""


# the CSV schema is fixed; failures keep their message on the RunReport
# (and on stderr via the CLI) but appear in the CSV as empty value cells
CSV_FIELDS = ["instance_digest", "solver", "value", "brute", "ratio",
              "cover_ratio", "pack_ratio", "seconds", "seed"]


def _run_solver(inst: Instance, solver: str, seed: int):
    """Returns (value, mask) or raises."""
    if solver == "brute":
        res = brute_optimum(inst)
        if res.feasible_count == 0:
            raise InfeasibleError("no feasible subset")
        return res.best_value, res.best_set
    if solver == "dp":
        res = vanilla_dp(inst)
        if not res.found:
            raise InfeasibleError("no table entry qualifies")
        return res.best_value, res.best_set
    if solver == "dp_completion":
        res = dp_with_completion(inst)
        if not res.found:
            raise InfeasibleError("no cell admits a completion")
        return res.value, res.support
    if solver == "forbidden":
        res = forbidden_dp_solve(inst, Fraction(1, 4))
        if not res.found:
            raise InfeasibleError("no qualifying cell")
        return res.best_value, res.best_set
    if solver == "poly":
        res = solve_polynomial(inst, Fraction(1, 4))
        if not res.found:
            raise InfeasibleError("no qualifying cell")
        return res.best_value, res.best_set
    if solver == "continuous":
        params = Params.from_delta(Fraction(1, 10), Fraction(1, 5),
                                   max(1, inst.p + inst.c))
        res = solve_main(inst, Fraction(1, 10), seed=seed, budget=20_000,
                         params=params, trials=10, steps=12, samples_per_grad=24)
        if not res.found:
            raise InfeasibleError("no rounding trial qualified")
        return res.value, res.solution
    raise ValueError(f"unknown solver {solver!r}")


def bench(suite: list, solvers: list, seed: int = 0) -> list:
    """One report per (suite item, solver); failures are recorded, not fatal."""
    reports = []
    for item in suite:
        if "lp" in item:
            spec = item["lp"]
            variant, m = spec["variant"], spec["m"]
            t0 = time.perf_counter()
            builder = {"lp": build_lp, "dual": build_dual, "lpf": build_lp_f}[variant]
            sol = simplex_solve(builder(m))
            reports.append(RunReport(
                instance_digest=f"{variant}:m={m}", solver=f"lp:{variant}",
                value=sol.objective, brute=None, ratio=None, cover_ratio=None,
                pack_ratio=None, seconds=time.perf_counter() - t0, seed=seed))
            continue
        spec = item["gen"] if "gen" in item else item
        inst = generate_instance(
            n=spec["n"], p=spec.get("p", 1), c=spec.get("c", 1),
            family=spec.get("family", "linear"),
            density=spec.get("density", 0.7),
            seed=spec.get("seed", seed),
            integer=spec.get("integer", True))
        digest = instance_digest(inst)
        brute_value = None
        if inst.n <= 12:
            res = brute_optimum(inst)
            if res.feasible_count:
                brute_value = res.best_value
        for solver in solvers:
            t0 = time.perf_counter()
            try:
                value, mask = _run_solver(inst, solver, seed)
                cover, pack = load_ratios(inst, mask)
                ratio = (Fraction(value) / brute_value
                         if brute_value not in (None, 0) else None)
                reports.append(RunReport(
                    instance_digest=digest, solver=solver, value=value,
                    brute=brute_value, ratio=ratio, cover_ratio=cover,
                    pack_ratio=pack, seconds=time.perf_counter() - t0, seed=seed))
            except (InfeasibleError, BudgetExceededError, ValueError) as exc:
                reports.append(RunReport(
                    instance_digest=digest, solver=solver, value=None,
                    brute=brute_value, ratio=None, cover_ratio=None,
                    pack_ratio=None, seconds=time.perf_counter() - t0,
                    seed=seed, error=str(exc)))
    return reports


def write_reports_csv(reports, stream):
    writer = csv.writer(stream)
    writer.writerow(CSV_FIELDS)
    for r in reports:
        writer.writerow([
            r.instance_digest, r.solver, fmt(r.value), fmt(r.brute),
            fmt(r.ratio), fmt(r.cover_ratio), fmt(r.pack_ratio),
            fmt(r.seconds), r.seed,
        ])


# ---------------------------------------------------------------------------
# subcommands


def _emit(obj, args):
    if getattr(args, "quiet", False):
        return
    print(json.dumps(obj, indent=None if getattr(args, "json", False) else 2,
                     sort_keys=True, default=str))


def cmd_gen(args) -> int:
    inst = generate_instance(n=args.n, p=args.p, c=args.c, family=args.family,
                             density=args.density, seed=args.seed,
                             integer=not args.rational)
    obj = instance_to_json_obj(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _emit({"written": args.out, "digest": instance_digest(inst)}, args)
    else:
        _emit(obj, args)
    return EXIT_OK


def cmd_brute(args) -> int:
    inst = load_instance(args.instance)
    res = brute_optimum(inst, max_n=args.max_n)
    _emit({
        "best_value": fmt(res.best_value),
        "best_set": list(mask_to_tuple(res.best_set)),
        "feasible_count": res.feasible_count,
    }, args)
    return EXIT_OK if res.feasible_count else EXIT_INFEASIBLE


def cmd_dp(args) -> int:
    inst = load_instance(args.instance)
    if args.completion:
        res = dp_with_completion(inst, saturate_cover=not args.exact_keys)
        if not res.found:
            _emit({"found": False}, args)
            return EXIT_INFEASIBLE
        _emit({
            "found": True,
            "value": fmt(res.value),
            "set": list(mask_to_tuple(res.support)),
            "base_set": list(mask_to_tuple(res.base_set)),
            "completion_set": list(mask_to_tuple(res.completion_set)),
            "cover_vec": [fmt(v) for v in res.cover_with_multiplicity],
            "pack_vec": [fmt(v) for v in res.pack_with_multiplicity],
            "cells_populated": res.cells_populated,
        }, args)
        return EXIT_OK
    res = vanilla_dp(inst, saturate_cover=not args.exact_keys)
    if not res.found:
        _emit({"found": False}, args)
        return EXIT_INFEASIBLE
    _emit({
        "found": True,
        "value": fmt(res.best_value),
        "set": list(mask_to_tuple(res.best_set)),
        "cover_vec": [fmt(v) for v in inst.cover_value(res.best_set)],
        "pack_vec": [fmt(v) for v in inst.pack_value(res.best_set)],
        "cells_populated": res.cells_populated,
    }, args)
    return EXIT_OK


def cmd_forbidden(args) -> int:
    inst = load_instance(args.instance)
    eps = to_fraction(args.epsilon)
    if args.poly:
        res = solve_polynomial(inst, eps)
        if not res.found:
            _emit({"found": False}, args)
            return EXIT_INFEASIBLE
        _emit({
            "found": True,
            "value": fmt(res.best_value),
            "set": list(mask_to_tuple(res.best_set)),
            "cover_ratio": fmt(res.cover_ratio),
            "pack_ratio": fmt(res.pack_ratio),
        }, args)
        return EXIT_OK
    if args.cardinality is not None:
        res = cardinality_solve(inst, args.cardinality)
    else:
        res = forbidden_dp_solve(inst, eps)
    if not res.found:
        _emit({"found": False}, args)
        return EXIT_INFEASIBLE
    _emit({
        "found": True,
        "value": fmt(res.best_value),
        "set": list(mask_to_tuple(res.best_set)),
        "guesses_tried": res.guesses_tried,
    }, args)
    return EXIT_OK


def cmd_continuous(args) -> int:
    inst = load_instance(args.instance)
    eps = to_fraction(args.epsilon)
    params = None
    if args.relaxed:
        params = Params.from_delta(eps, to_fraction(args.delta),
                                   max(1, inst.p + inst.c))
    res = solve_main(inst, eps, seed=args.seed, budget=args.budget,
                     params=params, trials=args.trials, steps=args.steps,
                     samples_per_grad=args.samples)
    out = {
        "found": res.found,
        "guesses_enumerated": res.guesses_enumerated,
        "truncated": res.truncated,
        "trials": res.trials,
        "guess_diagnostics": [{
            "chosen_size": d.chosen_size,
            "discarded_size": d.discarded_size,
            "critical_pack_rows": d.critical_pack_rows,
            "critical_cover_rows": d.critical_cover_rows,
            "critical_large_size": d.critical_large_size,
            "filter_pass": d.filter_pass,
            "filter_fail": d.filter_fail,
            "infeasible_polytope": d.infeasible_polytope,
            "best_value": fmt(d.best_value),
        } for d in res.diagnostics],
    }
    if res.found:
        out.update({
            "value": fmt(res.value),
            "set": list(mask_to_tuple(res.solution)),
            "cover_ratio": fmt(res.cover_ratio),
            "pack_ratio": fmt(res.pack_ratio),
        })
    _emit(out, args)
    return EXIT_OK if res.found else EXIT_INFEASIBLE


def cmd_lp(args) -> int:
    builder = {"lp": build_lp, "dual": build_dual, "lpf": build_lp_f}[args.variant]
    rows = []
    for m in args.m:
        t0 = time.perf_counter()
        sol = simplex_solve(builder(m))
        rows.append((m, sol.objective, time.perf_counter() - t0))
    out = {"variant": args.variant,
           "optima": [{"m": m, "optimum": fmt(v), "seconds": fmt(s)}
                      for m, v, s in rows]}
    if args.verify_analytic:
        checks = []
        for m in args.m:
            primal = check_exact(build_lp(m), analytic_primal_witness(m))
            dual = check_exact(build_dual(m), analytic_dual_witness(m))
            want = closed_form_optimum(m)
            checks.append({
                "m": m,
                "primal_feasible": primal.feasible,
                "primal_value_matches": primal.objective == want,
                "dual_feasible": dual.feasible,
                "dual_value_matches": dual.objective == want,
            })
        out["analytic"] = checks
    if args.verify_upper_bound:
        out["upper_bound"] = []
        for m in args.m:
            if m > 2 and m % 2 == 0:
                r = verify_upper_bound_construction(m)
                out["upper_bound"].append(
                    {"m": m, "feasible": r.feasible, "value": fmt(r.value)})
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "optimum"])
            for m, v, _s in rows:
                writer.writerow([m, fmt(v)])
    _emit(out, args)
    return EXIT_OK


def cmd_kmedian(args) -> int:
    inst = load_two_dist(args.instance)
    res = solve_two_distance(inst)
    if not res.found:
        _emit({"found": False}, args)
        return EXIT_INFEASIBLE
    _emit({
        "found": True,
        "open": list(mask_to_tuple(res.open_mask)),
        "matched": res.matched,
        "cost": fmt(res.cost),
        "assignment": {str(c): f for c, f in sorted(res.assignment.items())},
    }, args)
    return EXIT_OK


def cmd_bench(args) -> int:
    with open(args.suite, "r", encoding="utf-8") as fh:
        suite = json.load(fh)
    solvers = args.solvers.split(",") if args.solvers else []
    reports = bench(suite, solvers, seed=args.seed)
    for r in reports:
        if r.error:
            print(f"bench: {r.instance_digest}/{r.solver}: {r.error}",
                  file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_reports_csv(reports, fh)
        _emit({"rows": len(reports), "written": args.out}, args)
    else:
        write_reports_csv(reports, sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcsm",
        description="Solvers for monotone submodular maximization under "
                    "mixed packing and covering constraints.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", action="store_true", help="compact JSON output")
        sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("gen", help="generate a random instance")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--c", type=int, default=1)
    sp.add_argument("--family", default="linear",
                    choices=["linear", "coverage", "concave_of_modular"])
    sp.add_argument("--density", type=float, default=0.7)
    sp.add_argument("--rational", action="store_true")
    sp.add_argument("--out")
    common(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("brute", help="exact optimum by enumeration")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--max-n", type=int, default=22)
    common(sp)
    sp.set_defaults(func=cmd_brute)

    sp = sub.add_parser("dp", help="greedy dynamic program")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--completion", action="store_true")
    sp.add_argument("--exact-keys", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_dp)

    sp = sub.add_parser("forbidden", help="guessing + forbidden-set DP (p=c=1)")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--epsilon", default="1/4")
    sp.add_argument("--cardinality", type=int, default=None)
    sp.add_argument("--poly", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_forbidden)

    sp = sub.add_parser("continuous", help="guess enumeration + rounding pipeline")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--epsilon", default="1/10")
    sp.add_argument("--relaxed", action="store_true",
                    help="use --delta instead of the analysis schedule")
    sp.add_argument("--delta", default="1/5")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--budget", type=int, default=100_000)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--samples", type=int, default=200)
    common(sp)
    sp.set_defaults(func=cmd_continuous)

    sp = sub.add_parser("lp", help="factor-revealing linear programs")
    sp.add_argument("--variant", default="lpf", choices=["lp", "dual", "lpf"])
    sp.add_argument("--m", type=int, nargs="+", required=True)
    sp.add_argument("--csv")
    sp.add_argument("--verify-analytic", action="store_true")
    sp.add_argument("--verify-upper-bound", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_lp)

    sp = sub.add_parser("kmedian", help="two-distance capacitated k-median")
    sp.add_argument("--instance", required=True)
    common(sp)
    sp.set_defaults(func=cmd_kmedian)

    sp = sub.add_parser("bench", help="run solver suite, emit CSV")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--solvers", default="dp,forbidden")
    sp.add_argument("--out")
    common(sp)
    sp.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except BudgetExceededError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
