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
from typing import Callable, NamedTuple

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
    _json_int,
    _json_of,
    dump_instance,
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
    MAX_PHASES,
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
    _check_gen(n, p, c, density, family)
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
    else:
        weights = [rng.randint(0, 9) for _ in range(n)]
        oracle = ConcaveOfModularOracle(weights, max(1, sum(weights) // 2))
    return make_instance(packing, covering, pack_bound, cover_bound, oracle)


FAMILIES = ("linear", "coverage", "concave_of_modular")


def _check_gen(n: int, p: int, c: int, density: float, family: str) -> None:
    """Refuse a negative count, a density outside [0, 1] (NaN included)
    and an unknown objective family."""
    for name, count in (("n", n), ("p", p), ("c", c)):
        if count < 0:
            raise ValueError(f"{name} must be non-negative")
    if not 0 <= density <= 1:
        raise ValueError(f"density must lie in [0, 1], not {density!r}")
    if family not in FAMILIES:
        raise ValueError(f"unknown objective family {family!r}")


# ---------------------------------------------------------------------------
# solvers: one adapter per bench solver name, called with the subcommand's
# parsed args or with the bench settings as ``opts``; ``fields`` are the
# solver-specific JSON fields its subcommand prints


def _brute(inst, opts):
    res = brute_optimum(inst, max_n=opts.max_n)
    return res.feasible_count > 0, res.best_value, res.best_set, {
        "best_value": fmt(res.best_value),
        "best_set": list(mask_to_tuple(res.best_set)),
        "feasible_count": res.feasible_count,
    }


def _dp(inst, opts):
    res = vanilla_dp(inst, saturate_cover=not opts.exact_keys)
    fields = {} if not res.found else {
        "cover_vec": [fmt(v) for v in inst.cover_value(res.best_set)],
        "pack_vec": [fmt(v) for v in inst.pack_value(res.best_set)],
        "cells_populated": res.cells_populated,
    }
    return res.found, res.best_value, res.best_set, fields


def _dp_completion(inst, opts):
    res = dp_with_completion(inst, saturate_cover=not opts.exact_keys)
    fields = {} if not res.found else {
        "base_set": list(mask_to_tuple(res.base_set)),
        "completion_set": list(mask_to_tuple(res.completion_set)),
        "cover_vec": [fmt(v) for v in res.cover_with_multiplicity],
        "pack_vec": [fmt(v) for v in res.pack_with_multiplicity],
        "cells_populated": res.cells_populated,
    }
    return res.found, res.value, res.support, fields


def _forbidden(inst, opts):
    eps = to_fraction(opts.epsilon)
    if opts.cardinality is not None:
        res = cardinality_solve(inst, opts.cardinality)
    else:
        res = forbidden_dp_solve(inst, eps)
    fields = {"guesses_tried": res.guesses_tried} if res.found else {}
    return res.found, res.best_value, res.best_set, fields


def _poly(inst, opts):
    res = solve_polynomial(inst, to_fraction(opts.epsilon))
    fields = {} if not res.found else {
        "cover_ratio": fmt(res.cover_ratio),
        "pack_ratio": fmt(res.pack_ratio),
    }
    return res.found, res.best_value, res.best_set, fields


def _continuous(inst, opts):
    eps = to_fraction(opts.epsilon)
    # --delta is checked on every run and used only under --relaxed
    relaxed = Params.from_delta(eps, to_fraction(opts.delta), max(1, inst.p + inst.c))
    res = solve_main(inst, eps, seed=opts.seed, budget=opts.budget,
                     params=relaxed if opts.relaxed else None, trials=opts.trials,
                     steps=opts.steps, samples_per_grad=opts.samples,
                     diagnostics=opts.diagnostics)
    # the counts say why a run found nothing, so they print either way
    fields = {
        "guesses_enumerated": res.guesses_enumerated,
        "truncated": res.truncated,
        "trials": res.trials,
        "guess_counts": vars(res.counts),
    }
    if opts.diagnostics:
        fields["guess_diagnostics"] = [{**vars(d), "best_value": fmt(d.best_value)}
                                       for d in res.diagnostics]
    if res.found:
        fields.update(cover_ratio=fmt(res.cover_ratio),
                      pack_ratio=fmt(res.pack_ratio))
    return res.found, res.value, res.solution, fields


class Solver(NamedTuple):
    run: Callable      # (inst, opts) -> (found, value, mask, fields)
    reason: str        # what bench records when nothing is found
    bench_opts: dict   # the fixed settings bench runs it with (plus --seed)


SOLVERS = {
    "brute": Solver(_brute, "no feasible subset", {"max_n": 22}),
    "dp": Solver(_dp, "no table entry qualifies", {"exact_keys": False}),
    "dp_completion": Solver(_dp_completion, "no cell admits a completion",
                            {"exact_keys": False}),
    "forbidden": Solver(_forbidden, "no qualifying cell",
                        {"epsilon": Fraction(1, 4), "cardinality": None}),
    "poly": Solver(_poly, "no qualifying cell", {"epsilon": Fraction(1, 4)}),
    "continuous": Solver(_continuous, "no rounding trial qualified", {
        "epsilon": Fraction(1, 10), "relaxed": True, "delta": Fraction(1, 5),
        "budget": 20_000, "trials": 10, "steps": 12, "samples": 24,
        "diagnostics": False}),
}

LP_BUILDERS = {"lp": build_lp, "dual": build_dual, "lpf": build_lp_f}


def _lp_optimum(variant: str, m: int):
    """Optimum of one factor-revealing LP and the seconds the solve took."""
    t0 = time.perf_counter()
    sol = simplex_solve(LP_BUILDERS[variant](m))
    return sol.objective, time.perf_counter() - t0


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


def _bench_run(solver: str, inst: Instance, seed: int):
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    entry = SOLVERS[solver]
    return entry.run(inst, argparse.Namespace(seed=seed, **entry.bench_opts))


def _suite_of(obj) -> list:
    """``obj`` when it is a bench suite read from JSON: a list of objects,
    each an ``lp`` entry (a variant of ``LP_BUILDERS`` and an integer m in
    [1, MAX_PHASES]) or a generator spec (alone or under ``gen``) with
    integer counts and seed that ``generate_instance`` accepts, and a
    boolean ``integer``; any other shape is bad input."""
    for item in _json_of(obj, list, "a list of suite items"):
        if "lp" in _json_of(item, dict, "a suite item object"):
            lp = _json_of(item["lp"], dict, "an lp object")
            variant = _json_of(lp["variant"], str, "an lp variant name")
            if variant not in LP_BUILDERS:
                raise ValueError(f"unknown lp variant {variant!r}")
            m = _json_int(lp["m"])
            if not 1 <= m <= MAX_PHASES:
                raise ValueError(f"lp m must lie in [1, {MAX_PHASES}], not {m}")
            continue
        spec = _json_of(item.get("gen", item), dict, "a gen object")
        for key in ("p", "c", "seed"):
            _json_int(spec.get(key, 0))
        _check_gen(_json_int(spec["n"]), spec.get("p", 0), spec.get("c", 0),
                   _json_of(spec.get("density", 0), (int, float), "a number"),
                   spec.get("family", "linear"))
        if not isinstance(spec.get("integer", True), bool):
            raise ValueError(f"expected a boolean, not {spec['integer']!r}")
    return obj


def bench(suite: list, solvers: list, seed: int = 0) -> list:
    """One report per (suite item, solver); failures are recorded, not fatal."""
    reports = []
    for item in suite:
        if "lp" in item:
            variant, m = item["lp"]["variant"], item["lp"]["m"]
            value, seconds = _lp_optimum(variant, m)
            reports.append(RunReport(
                instance_digest=f"{variant}:m={m}", solver=f"lp:{variant}",
                value=value, brute=None, ratio=None, cover_ratio=None,
                pack_ratio=None, seconds=seconds, seed=seed))
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
            found, value, _mask, _fields = _bench_run("brute", inst, seed)
            if found:
                brute_value = value
        for solver in solvers:
            t0 = time.perf_counter()
            value = ratio = cover = pack = None
            error = ""
            try:
                found, value, mask, _fields = _bench_run(solver, inst, seed)
                if not found:
                    raise InfeasibleError(SOLVERS[solver].reason)
                cover, pack = load_ratios(inst, mask)
                ratio = (Fraction(value) / brute_value
                         if brute_value not in (None, 0) else None)
            except (InfeasibleError, BudgetExceededError, ValueError) as exc:
                value, error = None, str(exc)
            reports.append(RunReport(
                instance_digest=digest, solver=solver, value=value,
                brute=brute_value, ratio=ratio, cover_ratio=cover,
                pack_ratio=pack, seconds=time.perf_counter() - t0, seed=seed,
                error=error))
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
    if args.out:
        dump_instance(inst, args.out)
        _emit({"written": args.out, "digest": instance_digest(inst)}, args)
    else:
        _emit(instance_to_json_obj(inst), args)
    return EXIT_OK


def _report(found, out, args) -> int:
    _emit(out, args)
    return EXIT_OK if found else EXIT_INFEASIBLE


def cmd_brute(args) -> int:
    found, _value, _mask, fields = _brute(load_instance(args.instance), args)
    return _report(found, fields, args)


def cmd_solve(args) -> int:
    found, value, mask, fields = SOLVERS[args.solver].run(
        load_instance(args.instance), args)
    out = {"found": found, **fields}
    if found:
        out.update(value=fmt(value), set=list(mask_to_tuple(mask)))
    return _report(found, out, args)


def cmd_lp(args) -> int:
    rows = [(m, *_lp_optimum(args.variant, m)) for m in args.m]
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
                    {"m": m, "feasible": r.feasible, "value": fmt(r.objective)})
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "optimum"])
            for m, v, _s in rows:
                writer.writerow([m, fmt(v)])
    _emit(out, args)
    return EXIT_OK


def cmd_kmedian(args) -> int:
    res = solve_two_distance(load_two_dist(args.instance))
    out = {"found": res.found}
    if res.found:
        out.update(
            open=list(mask_to_tuple(res.open_mask)), matched=res.matched,
            cost=fmt(res.cost),
            assignment={str(c): f for c, f in sorted(res.assignment.items())})
    return _report(res.found, out, args)


def cmd_bench(args) -> int:
    with open(args.suite, "r", encoding="utf-8") as fh:
        suite = _suite_of(json.load(fh))
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

    def command(name, func, help, instance=True, **defaults):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func, **defaults)
        if instance:
            sp.add_argument("--instance", required=True)
        return sp

    sp = command("gen", cmd_gen, "generate a random instance", instance=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--c", type=int, default=1)
    sp.add_argument("--family", default="linear", choices=FAMILIES)
    sp.add_argument("--density", type=float, default=0.7)
    sp.add_argument("--rational", action="store_true")
    sp.add_argument("--out")

    sp = command("brute", cmd_brute, "exact optimum by enumeration")
    sp.add_argument("--max-n", type=int, default=22)

    sp = command("dp", cmd_solve, "greedy dynamic program", solver="dp")
    sp.add_argument("--completion", action="store_const", dest="solver",
                    const="dp_completion")
    sp.add_argument("--exact-keys", action="store_true")

    sp = command("forbidden", cmd_solve, "guessing + forbidden-set DP (p=c=1)",
                 solver="forbidden")
    sp.add_argument("--epsilon", default="1/4")
    sp.add_argument("--cardinality", type=int, default=None)
    sp.add_argument("--poly", action="store_const", dest="solver", const="poly")

    sp = command("continuous", cmd_solve,
                 "guess enumeration + rounding pipeline", solver="continuous")
    sp.add_argument("--epsilon", default="1/10")
    sp.add_argument("--relaxed", action="store_true",
                    help="use --delta instead of the analysis schedule")
    sp.add_argument("--delta", default="1/5")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--budget", type=int, default=100_000)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--diagnostics", action="store_true",
                    help="also print one record per guess that is not a repeat")

    sp = command("lp", cmd_lp, "factor-revealing linear programs", instance=False)
    sp.add_argument("--variant", default="lpf", choices=list(LP_BUILDERS))
    sp.add_argument("--m", type=int, nargs="+", required=True)
    sp.add_argument("--csv")
    sp.add_argument("--verify-analytic", action="store_true")
    sp.add_argument("--verify-upper-bound", action="store_true")

    command("kmedian", cmd_kmedian, "two-distance capacitated k-median")

    sp = command("bench", cmd_bench, "run solver suite, emit CSV", instance=False)
    sp.add_argument("--suite", required=True)
    sp.add_argument("--solvers", default="dp,forbidden")
    sp.add_argument("--out")

    for sp in sub.choices.values():
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", action="store_true", help="compact JSON output")
        sp.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except BudgetExceededError as exc:
        return _refuse(args, "budget", "budget refused", exc, EXIT_BUDGET)
    except InfeasibleError as exc:
        return _refuse(args, "infeasible", "infeasible", exc, EXIT_INFEASIBLE)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        return _refuse(args, "bad_input", "bad input", exc, EXIT_BAD_INPUT)


def _refuse(args, kind: str, label: str, exc: Exception, code: int) -> int:
    """Report a refusal as ``label: reason`` on stderr and, under
    ``--json``, as ``{"error": kind, "reason": reason, "exit": code}`` on
    stdout; return the exit code."""
    print(f"{label}: {exc}", file=sys.stderr)
    if getattr(args, "json", False):
        _emit({"error": kind, "reason": str(exc), "exit": code}, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
