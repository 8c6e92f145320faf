"""One verifier per solver, built from the guarantees the test suite asserts.

Every verifier takes the solver's result (plus whatever ground truth the op
carries) and returns a ``Verdict``: the failure reason (``None`` when every
guarantee holds), a digest token that pins the output exactly, and the value
ratio against the exact optimum where one is known.

Verifiers evaluate the objective through the oracle's class method, never
through the instance attribute, so the traced run's oracle wrappers neither
count nor time verification work.  The ground-truth helpers (brute force,
the exhaustive k-median optimum) use references taken at import, before any
module attribute is wrapped, for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from pcsm.brute import brute_optimum as _brute_optimum
from pcsm.core import mask_of
from pcsm.kmedian import match_value as _match_value

LP_TOL = 1e-6
KMEDIAN_FACTOR = Fraction(2294, 1000)


@dataclass(frozen=True)
class Verdict:
    reason: Optional[str]     # None when every guarantee holds
    token: str                # exact output, for the determinism digest
    ratio: Optional[float]    # solver value / exact optimum, when known


class Truth:
    """Exact optimum of one instance, filled in by its brute-force op."""

    def __init__(self):
        self.opt = None


def true_value(oracle, mask):
    """f(mask) through the class method (bypasses traced instance wrappers)."""
    return type(oracle).eval(oracle, mask)


def _verdict(problems, token, ratio=None):
    return Verdict("; ".join(problems) if problems else None, token, ratio)


def _ratio(value, opt):
    if opt is None or opt == 0:
        return None
    return float(Fraction(value) / Fraction(opt))


def _quarter_floor(problems, value, truth):
    if truth is not None and truth.opt is not None and 4 * value < truth.opt:
        problems.append(f"4*value {4 * value} < optimum {truth.opt}")


# ---------------------------------------------------------------------------
# set solvers


def check_brute(inst, res, planted, truth):
    problems = []
    if res.feasible_count < 1:
        problems.append("planted instance reported infeasible")
    else:
        if any(l > b for l, b in zip(inst.pack_value(res.best_set), inst.pack_bound)):
            problems.append("best set violates packing")
        if any(l < b for l, b in zip(inst.cover_value(res.best_set), inst.cover_bound)):
            problems.append("best set misses covering")
        if res.best_value != true_value(inst.objective, res.best_set):
            problems.append("best_value != f(best_set)")
        if res.best_value < true_value(inst.objective, planted):
            problems.append("best_value below the planted feasible set")
    if not problems:
        truth.opt = res.best_value
    return _verdict(problems, f"{res.best_set}:{res.best_value}:{res.feasible_count}")


def check_vanilla(inst, res, truth):
    """0.25 floor, cover >= half the bound, pack <= the bound."""
    problems = []
    if not res.found:
        problems.append("not found on a feasible instance")
        return _verdict(problems, "none")
    if any(2 * l < b for l, b in zip(inst.cover_value(res.best_set), inst.cover_bound)):
        problems.append("cover below half the bound")
    if any(l > b for l, b in zip(inst.pack_value(res.best_set), inst.pack_bound)):
        problems.append("pack above the bound")
    if res.best_value != true_value(inst.objective, res.best_set):
        problems.append("best_value != f(best_set)")
    _quarter_floor(problems, res.best_value, truth)
    return _verdict(problems, f"{res.best_set}:{res.best_value}",
                    _ratio(res.best_value, truth.opt))


def check_completion(inst, res, truth):
    """Multiset bounds, value == f(support), 0.25 floor."""
    problems = []
    if not res.found:
        problems.append("not found on a feasible instance")
        return _verdict(problems, "none")
    cov = tuple(a + b for a, b in zip(inst.cover_value(res.base_set),
                                      inst.cover_value(res.completion_set)))
    pak = tuple(a + b for a, b in zip(inst.pack_value(res.base_set),
                                      inst.pack_value(res.completion_set)))
    if cov != tuple(res.cover_with_multiplicity) or pak != tuple(res.pack_with_multiplicity):
        problems.append("reported multiplicity loads disagree with the sets")
    if any(l < b for l, b in zip(cov, inst.cover_bound)):
        problems.append("multiset cover below the bound")
    if any(l > b for l, b in zip(pak, inst.pack_bound)):
        problems.append("multiset pack above the bound")
    if res.support != res.base_set | res.completion_set:
        problems.append("support != base | completion")
    if res.value != true_value(inst.objective, res.support):
        problems.append("value != f(support)")
    _quarter_floor(problems, res.value, truth)
    return _verdict(problems,
                    f"{res.base_set}:{res.completion_set}:{res.value}:{res.valid_cells}",
                    _ratio(res.value, truth.opt))


def check_forbidden(inst, res, eps, truth):
    """Full cover, pack <= (1 + eps) * bound, 0.25 floor."""
    problems = []
    if not res.found:
        problems.append("not found on a feasible instance")
        return _verdict(problems, "none")
    if inst.cover_value(res.best_set)[0] < inst.cover_bound[0]:
        problems.append("cover below the bound")
    if inst.pack_value(res.best_set)[0] > (1 + eps) * inst.pack_bound[0]:
        problems.append("pack above (1+eps) * bound")
    if res.best_value != true_value(inst.objective, res.best_set):
        problems.append("best_value != f(best_set)")
    _quarter_floor(problems, res.best_value, truth)
    return _verdict(problems, f"{res.best_set}:{res.best_value}:{res.guesses_tried}",
                    _ratio(res.best_value, truth.opt))


def check_polynomial(inst, res, eps, truth=None):
    """(1 - eps) cover and (1 + eps) pack ratios; 0.25 floor with truth."""
    problems = []
    if not res.found:
        problems.append("not found on a feasible instance")
        return _verdict(problems, "none")
    cover = Fraction(inst.cover_value(res.best_set)[0]) / inst.cover_bound[0]
    pack = Fraction(inst.pack_value(res.best_set)[0]) / inst.pack_bound[0]
    if cover != res.cover_ratio or pack != res.pack_ratio:
        problems.append("reported ratios disagree with the set")
    if cover < 1 - eps:
        problems.append(f"cover ratio {cover} < 1 - eps")
    if pack > 1 + eps:
        problems.append(f"pack ratio {pack} > 1 + eps")
    if res.best_value != true_value(inst.objective, res.best_set):
        problems.append("best_value != f(best_set)")
    opt = truth.opt if truth is not None else None
    _quarter_floor(problems, res.best_value, truth)
    return _verdict(problems, f"{res.best_set}:{res.best_value}", _ratio(res.best_value, opt))


def check_main(inst, norm, res, eps):
    """Packing exact, cover >= 1 - eps; the ratio is against brute force.

    ``solve_main`` does not promise an answer under practical parameters, so
    not-found is no failure; it scores ratio 0.
    """
    problems = []
    opt = _brute_optimum(inst).best_value
    if not res.found:
        return _verdict(problems, "none", 0.0)
    if any(v > 1 for v in norm.pack_value(res.solution)):
        problems.append("packing violated")
    if any(v < 1 - eps for v in norm.cover_value(res.solution)):
        problems.append("cover below 1 - eps")
    if res.value != true_value(inst.objective, res.solution):
        problems.append("value != f(solution)")
    return _verdict(problems, f"{res.solution}:{res.value}", _ratio(res.value, opt))


# ---------------------------------------------------------------------------
# k-median


def kmedian_optimum(inst):
    """Exhaustive minimum cost over capacity-feasible sets of <= k facilities."""
    nf, nc = inst.num_facilities, inst.num_clients
    best = None
    for r in range(inst.k + 1):
        for combo in combinations(range(nf), r):
            if sum(inst.capacities[f] for f in combo) < nc:
                continue
            m = _match_value(inst, mask_of(combo))
            cost = inst.a * m + inst.b * (nc - m)
            if best is None or cost < best:
                best = cost
    return best


def check_kmedian(inst, res):
    """Valid assignment, the cost identity, and cost <= 2.294 * optimum."""
    problems = []
    opt = kmedian_optimum(inst)
    if not res.found:
        problems.append("not found on a capacity-feasible instance")
        return _verdict(problems, "none")
    opened = {f for f in range(inst.num_facilities) if (res.open_mask >> f) & 1}
    if len(opened) > inst.k:
        problems.append("more than k facilities open")
    if sorted(res.assignment) != list(range(inst.num_clients)):
        problems.append("not every client is assigned exactly once")
    load = {}
    for cl, f in res.assignment.items():
        if f not in opened:
            problems.append(f"client {cl} assigned to a closed facility")
            break
        load[f] = load.get(f, 0) + 1
    if any(load[f] > inst.capacities[f] for f in load):
        problems.append("capacity exceeded")
    near = sum(1 for cl, f in res.assignment.items() if (cl, f) in inst.near_pairs)
    if near != res.matched:
        problems.append("matched count disagrees with the assignment")
    if res.cost != inst.a * res.matched + inst.b * (inst.num_clients - res.matched):
        problems.append("cost identity violated")
    if res.cost > KMEDIAN_FACTOR * opt:
        problems.append(f"cost {res.cost} > 2.294 * optimum {opt}")
    ratio = float(Fraction(opt) / Fraction(res.cost)) if res.cost else 1.0
    return _verdict(problems, f"{res.open_mask}:{res.cost}", ratio)


# ---------------------------------------------------------------------------
# linear programs


def check_lp_optimum(sol, reference):
    """Optimal status and objective within LP_TOL of the reference value."""
    problems = []
    if sol.status != "optimal":
        problems.append(f"status {sol.status}")
        return _verdict(problems, sol.status)
    if abs(sol.objective - reference) > LP_TOL:
        problems.append(f"optimum {sol.objective!r} != reference {reference!r}")
    return _verdict(problems, f"{sol.objective:.9f}", sol.objective / reference)

