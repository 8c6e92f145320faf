"""Tracing for the per-layer run.

The tracer swaps the public functions of each ``pcsm`` module for
pass-through wrappers and overrides ``eval``/``gain`` on the objective
instances (which keeps each oracle's ``kind``, so brute force keeps its
incremental path).  Wrapped calls record a span -- name, start, end, parent
span, op id -- and bump counters; oracle calls are too many to keep one span
each, so they record a count and their summed time against the enclosing
span instead.  A layer's self time is its spans' time minus the time of the
spans (and oracle calls) nested in them, so the self times of all layers,
``harness.self_s`` included, add up to the traced wall time.

Nothing here touches ``src/``: the wrappers live in this process only, and
``installed`` restores every attribute it replaced.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from pcsm import brute, continuous, forbidden_dp, greedy_dp, kmedian, lp
from pcsm.continuous import GuessInfeasibleError


def tableau_cells(program):
    """Cells of the dense tableau simplex_solve builds for ``program``:
    rows (equalities count twice) times structural + slack + artificial
    columns, after the sign flip that makes every right-hand side >= 0."""
    rows = art = 0
    for _coeffs, rel, rhs in program.constraints:
        sides = ((rel, rhs),) if rel != "==" else (("<=", rhs), ("<=", -rhs))
        for side_rel, b in sides:
            rows += 1
            art += (side_rel == ">=") != (float(b) < 0)
    return rows * (len(program.variables) + rows + art)


def _count_brute(c, args, res):
    c["brute.subsets"] += 1 << args[0].n


def _count_table(c, args, res):
    c["greedy_dp.cells"] += res.cells_populated


def _count_completion(c, args, res):
    c["greedy_dp.completion_cells"] += res.cells_populated
    c["greedy_dp.completion_valid"] += res.valid_cells


def _count_forbidden(c, args, res):
    c["forbidden_dp.guesses"] += res.guesses_tried


def _count_enumerate(c, args, res):
    c["continuous.pairs_examined"] += res.pairs_examined
    c["continuous.guesses"] += len(res.guesses)


def _count_main(c, args, res):
    for d in res.diagnostics:
        c["continuous.filter_pass"] += d.filter_pass
        c["continuous.filter_total"] += d.filter_pass + d.filter_fail


def _count_simplex(c, args, res):
    c["lp.tableau_cells"] += tableau_cells(args[0])
    c["lp.nonoptimal"] += res.status != "optimal"


def _count_empty_polytope(c, exc):
    if isinstance(exc, GuessInfeasibleError):
        c["continuous.empty_polytope"] += 1


# (module, attribute, span name, self-time metric, result hook, exception
# hook).  Span names are "<module>.<function>".
TARGETS = (
    (brute, "brute_optimum", "brute.brute_optimum", "brute.s", _count_brute, None),
    (greedy_dp, "vanilla_dp", "greedy_dp.vanilla_dp", "greedy_dp.table_s",
     _count_table, None),
    (greedy_dp, "dp_with_completion", "greedy_dp.dp_with_completion",
     "greedy_dp.completion_s", _count_completion, None),
    (forbidden_dp, "scale_instance", "greedy_dp.scale_instance", "greedy_dp.scale_s",
     None, None),
    (forbidden_dp, "forbidden_dp_solve", "forbidden_dp.forbidden_dp_solve",
     "forbidden_dp.s", _count_forbidden, None),
    (forbidden_dp, "cardinality_solve", "forbidden_dp.cardinality_solve",
     "forbidden_dp.s", None, None),
    (forbidden_dp, "solve_polynomial", "forbidden_dp.solve_polynomial",
     "forbidden_dp.poly_self_s", None, None),
    (kmedian, "solve_two_distance", "kmedian.solve_two_distance", "kmedian.s", None, None),
    (kmedian, "match_value", "kmedian.match_value", "kmedian.match_s", None, None),
    (continuous, "solve_main", "continuous.solve_main", "continuous.main_self_s",
     _count_main, None),
    (continuous, "enumerate_guesses", "continuous.enumerate_guesses",
     "continuous.enumerate_s", _count_enumerate, None),
    (continuous, "continuous_greedy", "continuous.continuous_greedy",
     "continuous.greedy_s", None, _count_empty_polytope),
    (continuous, "round_and_filter", "continuous.round_and_filter", "continuous.round_s",
     None, None),
    (continuous, "linear_max_over_polytope", "lp.linear_max_over_polytope",
     "lp.direction_build_s", None, None),
    (lp, "simplex_solve", "lp.simplex_solve", "lp.simplex_s", _count_simplex, None),
)

# span name -> the layer metric its self time counts towards
SELF_TIME = {
    "harness.run": "harness.self_s",
    "harness.op": "harness.self_s",
    "core.eval": "core.oracle_s",
    "core.gain": "core.oracle_s",
}
SELF_TIME.update((target[2], target[3]) for target in TARGETS)

# name, unit, better, and the end-to-end metric (and workload) it should move.
LAYER_METRICS = (
    ("core.eval_calls", "count", "lower", "solves_per_s on verify_dp and continuous"),
    ("core.gain_calls", "count", "lower", "solves_per_s on verify_dp and continuous"),
    ("core.oracle_s", "s", "lower", "solves_per_s on verify_dp and continuous"),
    ("brute.calls", "count", "lower", "solves_per_s on verify_dp; zero on continuous"),
    ("brute.s", "s", "lower", "solves_per_s on verify_dp; zero on continuous"),
    ("brute.subsets", "count", "lower", "solves_per_s on verify_dp; zero on continuous"),
    ("greedy_dp.table_s", "s", "lower",
     "solve_s.p50 and solves_per_s on verify_dp; none elsewhere"),
    ("greedy_dp.cells", "count", "lower",
     "solve_s.p50 and solves_per_s on verify_dp; none elsewhere"),
    ("greedy_dp.completion_s", "s", "lower", "solve_s.p90 on verify_dp"),
    ("greedy_dp.completion_valid_ratio", "ratio", "higher", "solve_s.p90 on verify_dp"),
    ("greedy_dp.scale_s", "s", "lower", "solve_s.p50 on verify_dp"),
    ("forbidden_dp.calls", "count", "lower", "solve_s.p50 on verify_dp"),
    ("forbidden_dp.s", "s", "lower", "solve_s.p50 on verify_dp"),
    ("forbidden_dp.guesses", "count", "lower", "solve_s.p50 on verify_dp"),
    ("forbidden_dp.poly_self_s", "s", "lower", "solve_s.p50 on verify_dp"),
    ("kmedian.calls", "count", "lower", "solve_s.p50 on verify_dp"),
    ("kmedian.s", "s", "lower", "solve_s.p50 on verify_dp"),
    ("kmedian.match_calls", "count", "lower", "solve_s.p50 on verify_dp"),
    ("kmedian.match_s", "s", "lower", "solve_s.p50 on verify_dp"),
    ("continuous.enumerate_s", "s", "lower",
     "solves_per_s and solve_s.p90 on continuous; none on verify_dp"),
    ("continuous.pairs_examined", "count", "lower",
     "solves_per_s and solve_s.p90 on continuous"),
    ("continuous.guess_yield", "ratio", "higher",
     "solves_per_s and solve_s.p90 on continuous"),
    ("continuous.greedy_calls", "count", "lower", "solves_per_s on continuous"),
    ("continuous.greedy_s", "s", "lower", "solves_per_s on continuous"),
    ("continuous.empty_polytope_ratio", "ratio", "lower", "solves_per_s on continuous"),
    ("continuous.main_self_s", "s", "lower", "solves_per_s on continuous"),
    ("continuous.round_s", "s", "lower", "value_ratio.* on continuous (must hold still)"),
    ("continuous.filter_pass_ratio", "ratio", "higher",
     "value_ratio.* on continuous (must hold still)"),
    ("lp.direction_calls", "count", "lower", "solves_per_s on continuous"),
    ("lp.direction_build_s", "s", "lower", "solves_per_s on continuous"),
    ("lp.simplex_calls", "count", "lower", "solves_per_s on continuous"),
    ("lp.simplex_s", "s", "lower", "solves_per_s on continuous"),
    ("lp.tableau_cells", "count", "lower", "solves_per_s on continuous"),
    ("lp.nonoptimal_ratio", "ratio", "lower", "solves_per_s on continuous"),
    ("harness.self_s", "s", "lower", "none: verification and loop overhead"),
    ("trace.wall_s", "s", "lower", "none: traced wall time of the quota rounds"),
    ("trace.accounted_frac", "ratio", "higher",
     "none: sum of self times over traced wall time, 1 within 1%"),
    ("trace.overhead_frac", "ratio", "lower", "none: traced over untraced wall time, minus 1"),
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []                  # [name, start, end, parent, op_id]
        self.stack = []                  # [span index, time of nested calls]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.op_id = -1

    def span(self, name, fn, on_result=None, on_error=None):
        """``fn`` wrapped in a recorded span; results and errors pass through."""
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapped(*args, **kwargs):
            frame = [len(spans), 0.0]
            record = [name, 0.0, 0.0, stack[-1][0] if stack else -1, self.op_id]
            spans.append(record)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(record, start, frame)
                if on_error is not None:
                    on_error(counts, exc)
                raise
            self._close(record, start, frame)
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return wrapped

    def _close(self, record, start, frame):
        end = perf_counter()
        self.stack.pop()
        duration = end - start
        record[1], record[2] = start, end
        self.calls[record[0]] += 1
        self.self_s[record[0]] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration

    def counted(self, name, fn):
        """Leaf wrapper for oracle calls: count and time, no span record."""
        stack, calls, self_s = self.stack, self.calls, self.self_s

        def wrapped(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                calls[name] += 1
                self_s[name] += duration
                if stack:
                    stack[-1][1] += duration

        return wrapped

    @contextmanager
    def installed(self, oracles):
        """Swap in the wrappers; restore every replaced attribute on exit."""
        replaced = []
        wrapped_oracles = {}
        try:
            for module, attr, name, _metric, on_result, on_error in TARGETS:
                original = getattr(module, attr)
                replaced.append((module, attr, original))
                setattr(module, attr, self.span(name, original, on_result, on_error))
            for oracle in oracles:
                if id(oracle) in wrapped_oracles:
                    continue
                wrapped_oracles[id(oracle)] = oracle
                oracle.eval = self.counted("core.eval", oracle.eval)
                oracle.gain = self.counted("core.gain", oracle.gain)
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)
            for oracle in wrapped_oracles.values():
                del oracle.eval
                del oracle.gain

    def layer_metrics(self, wall_s, untraced_wall_s):
        """Every LAYER_METRICS value for this pass."""
        c, calls = self.counts, self.calls
        layer_s = defaultdict(float)
        for name, seconds in self.self_s.items():
            layer_s[SELF_TIME[name]] += seconds
        values = {
            "core.eval_calls": calls["core.eval"],
            "core.gain_calls": calls["core.gain"],
            "brute.calls": calls["brute.brute_optimum"],
            "brute.subsets": c["brute.subsets"],
            "greedy_dp.cells": c["greedy_dp.cells"],
            "greedy_dp.completion_valid_ratio": _ratio(c["greedy_dp.completion_valid"],
                                                       c["greedy_dp.completion_cells"]),
            "forbidden_dp.calls": calls["forbidden_dp.forbidden_dp_solve"],
            "forbidden_dp.guesses": c["forbidden_dp.guesses"],
            "kmedian.calls": calls["kmedian.solve_two_distance"],
            "kmedian.match_calls": calls["kmedian.match_value"],
            "continuous.pairs_examined": c["continuous.pairs_examined"],
            "continuous.guess_yield": _ratio(c["continuous.guesses"],
                                             c["continuous.pairs_examined"]),
            "continuous.greedy_calls": calls["continuous.continuous_greedy"],
            "continuous.empty_polytope_ratio": _ratio(c["continuous.empty_polytope"],
                                                      calls["continuous.continuous_greedy"]),
            "continuous.filter_pass_ratio": _ratio(c["continuous.filter_pass"],
                                                   c["continuous.filter_total"]),
            "lp.direction_calls": calls["lp.linear_max_over_polytope"],
            "lp.simplex_calls": calls["lp.simplex_solve"],
            "lp.tableau_cells": c["lp.tableau_cells"],
            "lp.nonoptimal_ratio": _ratio(c["lp.nonoptimal"], calls["lp.simplex_solve"]),
            "trace.wall_s": wall_s,
            "trace.accounted_frac": _ratio(sum(layer_s.values()), wall_s),
            "trace.overhead_frac": _ratio(wall_s, untraced_wall_s) - 1,
        }
        for name, _unit, _better, _moves in LAYER_METRICS:
            if name not in values:
                values[name] = layer_s.get(name, 0.0)
        return values

    def dump(self, path):
        """Write the spans (one JSON array per line) and the oracle totals."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op_id"],
                                 "oracle_calls": {k: self.calls[k]
                                                  for k in ("core.eval", "core.gain")},
                                 "oracle_s": {k: self.self_s[k]
                                              for k in ("core.eval", "core.gain")}}) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
