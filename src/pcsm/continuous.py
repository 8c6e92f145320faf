"""Guess enumeration, multilinear relaxation, continuous greedy and
randomized rounding.

The pipeline works on a normalized instance (all bounds equal to 1).  A
guess fixes chosen elements E1, discarded elements E0 and a geometric
estimate of the optimum's covering values; the residual problem over the
remaining elements is relaxed, ascended by discretized continuous greedy,
scaled down by 1/(1+delta), rounded independently, and stripped of the
elements that are large in some critical packing row.  The best rounded set
that packs within the bounds and covers at least (1-eps) wins.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import combinations, islice
from typing import NamedTuple, Optional, Sequence

from .core import (
    InfeasibleError,
    Instance,
    Params,
    SubmodularOracle,
    better,
    iter_bits,
    load_ratios,
    mask_of,
    normalize,
    popcount,
    to_fraction,
)
# linear_max_over_polytope is unused here but stays a module attribute:
# perfbench's tracer wraps it by that name
from .lp import linear_max_over_polytope, prepare_polytope  # noqa: F401


class GuessInfeasibleError(InfeasibleError):
    """The residual polytope of a guess is empty."""


# ---------------------------------------------------------------------------
# guesses


class _ChosenPart(NamedTuple):
    """The target-independent part of a guess: everything derived from E1."""

    residual_pack: tuple         # r = 1 - E1's packing loads
    critical_pack: frozenset     # y: rows with r_i <= delta
    cover: tuple                 # E1's covering loads
    large_pack: int              # non-chosen elements >= alpha r_i in a row outside y
    critical_large: int          # non-chosen elements >= beta r_i in a row of y


class _TargetPart(NamedTuple):
    """The part of a guess that depends on the cover targets c'."""

    residual_cover: tuple        # s = max(0, c' - E1's covering loads)
    critical_cover: frozenset    # z: rows with s_j <= delta c'_j
    large_cover: int             # non-chosen elements >= alpha s_j in a row outside z


_ZERO = Fraction(0)


def _chosen_part(inst: Instance, chosen: int, alpha: Fraction, beta: Fraction,
                 delta: Fraction) -> _ChosenPart:
    r = tuple(1 - v for v in inst.pack_value(chosen))
    y = frozenset(i for i, v in enumerate(r) if v <= delta)
    free = ((1 << inst.n) - 1) & ~chosen
    large_p = large_crit = 0
    for i, row in enumerate(inst.packing):
        if i in y:
            large_crit |= _at_least(row, beta * r[i], free)
        else:
            large_p |= _at_least(row, alpha * r[i], free)
    return _ChosenPart(r, y, inst.cover_value(chosen), large_p, large_crit)


def _cover_index(inst: Instance) -> tuple:
    """Per covering row: its entries in ascending order, and for each
    position k the mask of the elements at positions k and later, so the
    elements reaching a threshold are one bisect away."""
    index = []
    for row in inst.covering:
        order = sorted(range(inst.n), key=row.__getitem__)
        suffix = [0] * (inst.n + 1)
        for k in range(inst.n - 1, -1, -1):
            suffix[k] = suffix[k + 1] | (1 << order[k])
        index.append((tuple(row[e] for e in order), tuple(suffix)))
    return tuple(index)


class _Targets(NamedTuple):
    """Cover targets c' with the thresholds every chosen set meets them with."""

    values: tuple                # c'_j as a Fraction
    critical: tuple              # delta c'_j: row j is critical iff s_j is at most this


def _targets(targets: tuple, delta: Fraction) -> _Targets:
    return _Targets(tuple(Fraction(t) for t in targets), tuple(delta * t for t in targets))


def _target_part(index: tuple, part: _ChosenPart, chosen: int, targets: _Targets,
                 alpha: Fraction) -> _TargetPart:
    s = tuple(max(_ZERO, t - v) for t, v in zip(targets.values, part.cover))
    z = frozenset(j for j, v in enumerate(s) if v <= targets.critical[j])
    large_c = 0
    for j, (entries, suffix) in enumerate(index):
        if j not in z:
            large_c |= suffix[bisect_left(entries, alpha * s[j])]
    return _TargetPart(s, z, large_c & ~chosen)


def _at_least(row, threshold, mask: int) -> int:
    """The elements of ``mask`` whose entry in ``row`` reaches ``threshold``."""
    return mask_of(ell for ell in iter_bits(mask) if row[ell] >= threshold)


@dataclass(frozen=True)
class Guess:
    """A triplet (discarded, chosen, cover targets) with its derived data.

    All derived fields are exact rationals computed against the normalized
    instance: residuals, critical row sets, and the large-element masks for
    non-critical rows (which a consistent guess must keep empty) and for
    critical packing rows (stripped after rounding).  ``parts`` passes in
    the chosen and target parts when the caller already derived them.
    """

    instance: Instance = field(compare=False)
    discarded: int               # E0 bitmask
    chosen: int                  # E1 bitmask
    cover_targets: tuple         # c', one positive rational per covering row
    alpha: Fraction
    beta: Fraction
    delta: Fraction
    gamma: Fraction
    residual_pack: tuple = field(init=False, compare=False)
    residual_cover: tuple = field(init=False, compare=False)
    critical_pack: frozenset = field(init=False, compare=False)
    critical_cover: frozenset = field(init=False, compare=False)
    large_pack: int = field(init=False, compare=False)
    large_cover: int = field(init=False, compare=False)
    critical_large: int = field(init=False, compare=False)
    undetermined: int = field(init=False, compare=False)
    parts: InitVar[Optional[tuple]] = None

    def __post_init__(self, parts):
        inst = self.instance
        if len(self.cover_targets) != inst.c:
            raise ValueError("cover target per covering row required")
        if parts is None:
            cpart = _chosen_part(inst, self.chosen, self.alpha, self.beta, self.delta)
            parts = (cpart, _target_part(_cover_index(inst), cpart, self.chosen,
                                         _targets(self.cover_targets, self.delta),
                                         self.alpha))
        cpart, tpart = parts
        undet = ((1 << inst.n) - 1) & ~(self.discarded | self.chosen)
        object.__setattr__(self, "residual_pack", cpart.residual_pack)
        object.__setattr__(self, "residual_cover", tpart.residual_cover)
        object.__setattr__(self, "critical_pack", cpart.critical_pack)
        object.__setattr__(self, "critical_cover", tpart.critical_cover)
        object.__setattr__(self, "large_pack", cpart.large_pack & undet)
        object.__setattr__(self, "large_cover", tpart.large_cover & undet)
        object.__setattr__(self, "critical_large", cpart.critical_large & undet)
        object.__setattr__(self, "undetermined", undet)

    def is_consistent(self) -> bool:
        return (self.discarded & self.chosen == 0
                and all(t >= 1 for t in self.cover_targets)
                and all(v >= 0 for v in self.residual_pack)
                and self.large_pack == 0 and self.large_cover == 0)

    def residual_elements(self) -> tuple:
        return tuple(iter_bits(self.undetermined))


def residual_objective(guess: Guess, t_mask: int):
    """g(T) = f(T + E1) - f(E1): monotone, submodular, zero on the empty set."""
    if t_mask & ~guess.undetermined:
        raise ValueError("T must avoid both chosen and discarded elements")
    oracle = guess.instance.objective
    return oracle.eval(t_mask | guess.chosen) - oracle.eval(guess.chosen)


def greedy_marginal_order(oracle: SubmodularOracle, mask: int) -> tuple:
    """Order a set so each element has maximal marginal given its prefix."""
    remaining = list(iter_bits(mask))
    order = []
    cur = 0
    while remaining:
        state = oracle.begin(cur)
        best = max(remaining, key=lambda e: (oracle.gain(state, e), -e))
        order.append(best)
        remaining.remove(best)
        cur |= 1 << best
    return tuple(order)


def correct_guess_for(inst: Instance, params: Params, optimum: int) -> Guess:
    """The guess the existence argument constructs for a known optimum:
    chosen = top-gamma greedy prefix plus the optimum's large elements,
    cover targets on the geometric grid just below the optimum's coverage."""
    oracle = inst.objective
    order = greedy_marginal_order(oracle, optimum)
    gamma_count = min(len(order), int(math.ceil(params.gamma)))
    top = mask_of(order[:gamma_count])
    threshold = params.alpha * params.delta
    cov = inst.cover_value(optimum)
    targets = tuple(_grid_floor(Fraction(v), params.delta) for v in cov)
    big = mask_of(
        ell for ell in iter_bits(optimum)
        if any(inst.packing[i][ell] >= threshold for i in range(inst.p))
        or any(inst.covering[j][ell] >= threshold * targets[j] for j in range(inst.c)))
    chosen = top | big
    return _derive_guess(inst, params, _cover_index(inst), chosen,
                         _chosen_entry(inst, params, chosen), _targets(targets, params.delta))


def is_correct(guess: Guess, optimum: int) -> bool:
    """The four correctness clauses against a fixed optimal solution."""
    inst = guess.instance
    if guess.chosen & ~optimum:
        return False
    if guess.discarded & optimum:
        return False
    order = greedy_marginal_order(inst.objective, optimum)
    # gamma may exceed |O|; then all of O must be chosen
    gamma_count = min(len(order), int(math.ceil(guess.gamma)))
    if mask_of(order[:gamma_count]) & ~guess.chosen:
        return False
    cov = inst.cover_value(optimum)
    for t, v in zip(guess.cover_targets, cov):
        if not (1 <= t <= v < (1 + guess.delta) * t):
            return False
    return True


def _grid_floor(value: Fraction, delta: Fraction) -> Fraction:
    """Largest (1+delta)^j <= value with j >= 0 (value must be >= 1)."""
    if value < 1:
        raise ValueError("grid point requires value >= 1")
    step = 1 + delta
    point = Fraction(1)
    while point * step <= value:
        point *= step
    return point


def _chosen_entry(inst: Instance, params: Params, chosen: int) -> tuple:
    """E1's chosen part and its high-marginal leftovers: the non-chosen
    elements whose gain on E1 exceeds f(E1) / gamma."""
    oracle = inst.objective
    threshold = oracle.eval(chosen) / params.gamma
    state = oracle.begin(chosen)
    high = mask_of(
        ell for ell in range(inst.n)
        if not (chosen >> ell) & 1 and oracle.gain(state, ell) > threshold)
    return _chosen_part(inst, chosen, params.alpha, params.beta, params.delta), high


def _derive_guess(inst: Instance, params: Params, index: tuple, chosen: int,
                  entry: tuple, targets: _Targets) -> Guess:
    """The guess for (E1, c'): E0 is the high-marginal leftovers plus the
    elements that are large for the intermediate guess H = (empty, E1, c').

    H's large masks cover every non-chosen element and none of their rows
    or thresholds depend on E0, so the guess carries H's parts; its own
    large masks come out empty because E0 holds all of H's large elements.
    """
    cpart, high = entry
    tpart = _target_part(index, cpart, chosen, targets, params.alpha)
    return Guess(instance=inst, discarded=high | cpart.large_pack | tpart.large_cover,
                 chosen=chosen, cover_targets=targets.values, alpha=params.alpha,
                 beta=params.beta, delta=params.delta, gamma=params.gamma,
                 parts=(cpart, tpart))


_MISSING = object()


@dataclass
class GuessList:
    guesses: list
    truncated: bool
    pairs_examined: int


def enumerate_guesses(inst: Instance, params: Params, budget: int = 100_000) -> GuessList:
    """All consistent guesses from the (cover grid) x (chosen subsets)
    product, stopping with a truncation flag once the budget is spent."""
    n = inst.n
    if any(b != 1 for b in inst.pack_bound) or any(b != 1 for b in inst.cover_bound):
        raise ValueError("guess enumeration expects a normalized instance")
    grid_max = (0 if n <= 1 else
                math.ceil(math.log(n) / math.log(1 + float(params.delta))))
    # every target tuple costs at least one unit of budget, so a longer grid
    # could never be reached anyway (matters under the strict schedule, whose
    # tiny delta would otherwise materialize thousands of exact powers)
    grid = []
    point = Fraction(1)
    for _ in range(min(grid_max, budget) + 1):
        grid.append(point)
        point *= 1 + params.delta
    size_cap = min(n, math.ceil(params.gamma + (inst.p + inst.c) / (params.alpha * params.delta)))
    # no more than budget + 1 chosen sets are ever reached (the last one
    # only to flag truncation)
    chosen_sets = list(islice(_subsets_by_size(n, size_cap), budget + 1))
    index = _cover_index(inst)
    # a chosen set's part is reused under every later target; one entry per
    # examined pair at most, so it never outgrows the budget
    cache = {}

    guesses = []
    pairs = 0
    truncated = False
    for values in _product_tuples(grid, inst.c):
        targets = _targets(values, params.delta)
        for chosen in chosen_sets:
            if pairs >= budget:
                truncated = True
                break
            pairs += 1
            entry = cache.get(chosen, _MISSING)
            if entry is _MISSING:
                # None marks an E1 that overpacks some row
                entry = (None if any(v > 1 for v in inst.pack_value(chosen))
                         else _chosen_entry(inst, params, chosen))
                cache[chosen] = entry
            if entry is None:
                continue
            guess = _derive_guess(inst, params, index, chosen, entry, targets)
            # always true: E0 holds every large element, targets start at 1
            # and E1 packs within the bounds
            if guess.is_consistent():
                guesses.append(guess)
        if truncated:
            break
    return GuessList(guesses=guesses, truncated=truncated, pairs_examined=pairs)


def _product_tuples(grid, c):
    if c == 0:
        yield ()
        return
    for rest in _product_tuples(grid, c - 1):
        for v in grid:
            yield (v,) + rest


def _subsets_by_size(n, cap):
    for size in range(min(n, cap) + 1):
        for combo in combinations(range(n), size):
            yield mask_of(combo)


# ---------------------------------------------------------------------------
# multilinear estimation and continuous greedy


@dataclass(frozen=True)
class MultilinearEstimate:
    mean: float
    stderr: float
    mean_exact: object       # exact rational average of the sampled values


def multilinear_estimate(oracle: SubmodularOracle, x: Sequence[float],
                         samples: int, seed: int) -> MultilinearEstimate:
    """Monte-Carlo estimate of E[f(R)] with elements drawn independently."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(x) != oracle.n:
        raise ValueError("probability vector length mismatch")
    rng = random.Random(seed)
    fixed = 0
    for i, p in enumerate(x):
        if not 0 <= p <= 1:
            raise ValueError("probabilities must lie in [0, 1]")
        if p == 1:
            fixed |= 1 << i
    total = Fraction(0)
    total_sq = Fraction(0)
    for _ in range(samples):
        mask = fixed
        for i, p in enumerate(x):
            if 0 < p < 1:
                if rng.random() < p:
                    mask |= 1 << i
        v = Fraction(oracle.eval(mask))
        total += v
        total_sq += v * v
    mean = total / samples
    if samples > 1:
        var = (total_sq - samples * mean * mean) / (samples - 1)
        stderr = math.sqrt(max(0.0, float(var)) / samples)
    else:
        stderr = float("nan")
    return MultilinearEstimate(mean=float(mean), stderr=stderr, mean_exact=mean)


# A covering row must miss its bound by more than this share of the largest
# bound (at least 1) before the screen calls the polytope empty: 1000x the
# simplex's phase-1 tolerance ``lp.TOL_FEAS``, so a program the screen
# rejects is one the simplex rejects too.
SCREEN_MARGIN = Fraction(1, 10 ** 6)


def fractional_knapsack_max(values, weights, room) -> Fraction:
    """Exact max of values.x over {x in [0,1]^n : weights.x <= room}.

    Entries are non-negative rationals; a negative room counts as 0, which
    only enlarges the set.  Zero-weight items come free, the rest are taken
    by falling value/weight ratio and the last one fractionally.
    """
    total = Fraction(0)
    items = []
    for v, w in zip(values, weights):
        if w == 0:
            total += v
        elif v:
            items.append((Fraction(v) / w, v, w))
    items.sort(key=lambda item: item[0], reverse=True)
    room = max(Fraction(room), Fraction(0))
    for _ratio, v, w in items:
        if w > room:
            return total + room * v / w
        total += v
        room -= w
    return total


def cover_reach(pack_rows, pack_bounds, cover_rows) -> tuple:
    """For each covering row, the most it can reach over the box [0,1]^n
    and a single packing row: the least of its plain sum and its exact
    fractional-knapsack maximum under each packing row."""
    return tuple(min([sum(row)] + [fractional_knapsack_max(row, prow, room)
                                   for prow, room in zip(pack_rows, pack_bounds)])
                 for row in cover_rows)


def reach_falls_short(reach, pack_bounds, cover_bounds) -> bool:
    """Whether some covering row's reach misses its bound by more than the
    margin, which certifies that the polytope is empty."""
    margin = SCREEN_MARGIN * max([1] + [abs(b) for b in pack_bounds]
                                 + [abs(b) for b in cover_bounds])
    return any(r < bound - margin for r, bound in zip(reach, cover_bounds))


def polytope_surely_empty(pack_rows, pack_bounds, cover_rows, cover_bounds) -> bool:
    """Whether {x in [0,1]^n : pack @ x <= pack_bounds, cover @ x >= cover_bounds}
    is empty by an exact certificate: some covering row misses its bound by
    more than the margin even within the box and a single packing row.

    Each (covering, packing) pair relaxes the polytope, so the test is sound
    for any number of rows; with one row of each it is exact up to the
    margin.  Programs inside the margin are left to the simplex.
    """
    return reach_falls_short(cover_reach(pack_rows, pack_bounds, cover_rows),
                             pack_bounds, cover_bounds)


def _residual_rows(inst: Instance, elements: tuple) -> tuple:
    """The packing and covering rows restricted to ``elements``."""
    return ([[row[e] for e in elements] for row in inst.packing],
            [[row[e] for e in elements] for row in inst.covering])


def continuous_greedy(guess: Guess, steps: int = 100,
                      samples_per_grad: int = 200, seed: int = 0,
                      reach_memo: Optional[dict] = None) -> dict:
    """Discretized ascent over the residual polytope.

    Returns the fractional point as {element: float}.  Raises
    GuessInfeasibleError when the polytope is empty.  ``reach_memo`` keeps
    the covering rows' reaches (``cover_reach``) across the guesses of one
    instance, keyed by (E1, undetermined elements), which fix them.
    """
    inst = guess.instance
    elements = guess.residual_elements()
    reach_memo = {} if reach_memo is None else reach_memo
    key = (guess.chosen, guess.undetermined)
    if key not in reach_memo:
        pack_rows, cover_rows = _residual_rows(inst, elements)
        reach_memo[key] = cover_reach(pack_rows, guess.residual_pack, cover_rows)
    if reach_falls_short(reach_memo[key], guess.residual_pack, guess.residual_cover):
        raise GuessInfeasibleError("empty residual polytope")
    # phase 1 once: every step below maximizes over the same polytope
    pack_rows, cover_rows = _residual_rows(inst, elements)
    polytope = prepare_polytope(len(elements), pack_rows, guess.residual_pack,
                                cover_rows, guess.residual_cover)
    if polytope is None:
        raise GuessInfeasibleError("empty residual polytope")
    if not elements:
        return {}

    oracle = inst.objective
    rng = random.Random(seed)
    x = [0.0] * len(elements)
    for _step in range(steps):
        weights = [0.0] * len(elements)
        for _ in range(samples_per_grad):
            mask = guess.chosen
            for idx, e in enumerate(elements):
                if x[idx] > 0 and rng.random() < x[idx]:
                    mask |= 1 << e
            state = oracle.begin(mask)
            for idx, e in enumerate(elements):
                if not (mask >> e) & 1:
                    weights[idx] += float(oracle.gain(state, e))
        weights = [w / samples_per_grad for w in weights]
        status, v = polytope.maximize(weights)
        if status != "optimal":
            raise GuessInfeasibleError("residual polytope became unsolvable")
        x = [min(1.0, xi + vi / steps) for xi, vi in zip(x, v)]
    return {e: x[idx] for idx, e in enumerate(elements)}


# ---------------------------------------------------------------------------
# rounding


@dataclass(frozen=True)
class RoundOutcome:
    sampled: int             # R_D
    kept: int                # R'_D = R_D minus the critical-large elements
    solution: int            # S_D = E1 + R'_D


def round_and_filter(guess: Guess, x_bar: dict, seed: int) -> RoundOutcome:
    """Independent inclusion with probabilities x_bar, then strip the
    elements that are large in some critical packing row."""
    rng = random.Random(seed)
    sampled = 0
    for e in sorted(x_bar):
        p = x_bar[e]
        if not 0 <= p <= 1:
            raise ValueError("x_bar must lie in [0, 1]")
        if not (guess.undetermined >> e) & 1:
            raise ValueError("x_bar supported outside the residual elements")
        if p > 0 and rng.random() < p:
            sampled |= 1 << e
    kept = sampled & ~guess.critical_large
    return RoundOutcome(sampled=sampled, kept=kept, solution=guess.chosen | kept)


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class GuessDiagnostics:
    chosen_size: int
    discarded_size: int
    critical_pack_rows: int
    critical_cover_rows: int
    critical_large_size: int
    filter_pass: int
    filter_fail: int
    infeasible_polytope: bool
    best_value: object


@dataclass
class MainResult:
    found: bool
    solution: int
    value: object
    cover_ratio: object
    pack_ratio: object
    trials: int
    guesses_enumerated: int
    truncated: bool
    diagnostics: list


def solve_main(inst: Instance, epsilon, seed: int = 0, budget: int = 100_000,
               params: Optional[Params] = None, trials: int = 20,
               steps: int = 100, samples_per_grad: int = 200) -> MainResult:
    """Enumerate guesses, ascend, round repeatedly, and keep the best set
    that packs within the bounds and covers at least (1 - eps).

    Without an explicit ``params`` override the analysis schedule is used;
    its constants are honest but astronomically conservative, so practical
    runs pass Params.from_delta with a workable delta.
    """
    epsilon = to_fraction(epsilon)
    norm = normalize(inst)
    b = max(1, norm.p + norm.c)
    if params is None:
        params = Params.from_epsilon(epsilon, b)
    enum = enumerate_guesses(norm, params, budget=budget)

    one = Fraction(1)
    need_cover = 1 - epsilon
    best = None
    diagnostics = []
    seen_residuals = set()
    # per solve, keyed by values: covering-row reaches per (E1, undetermined)
    # and each rounded set's verdict (its f value if it passes, else None)
    reach_memo = {}
    verdicts = {}
    for g_idx, guess in enumerate(enum.guesses):
        # identical residual problems (same E0/E1 and clamped cover residuals)
        # would be solved identically; skip repeats
        sig = (guess.discarded, guess.chosen, guess.residual_cover)
        if sig in seen_residuals:
            continue
        seen_residuals.add(sig)
        diag = GuessDiagnostics(
            chosen_size=popcount(guess.chosen),
            discarded_size=popcount(guess.discarded),
            critical_pack_rows=len(guess.critical_pack),
            critical_cover_rows=len(guess.critical_cover),
            critical_large_size=popcount(guess.critical_large),
            filter_pass=0, filter_fail=0, infeasible_polytope=False,
            best_value=None)
        diagnostics.append(diag)
        try:
            x_star = continuous_greedy(
                guess, steps=steps, samples_per_grad=samples_per_grad,
                seed=_child_seed(seed, g_idx, 0), reach_memo=reach_memo)
        except GuessInfeasibleError:
            diag.infeasible_polytope = True
            continue
        scale = 1 / (1 + float(params.delta))
        x_bar = {e: p * scale for e, p in x_star.items()}
        # trial 0 is the empty rounding outcome (always a possible draw)
        candidates = [guess.chosen]
        for t in range(1, trials + 1):
            out = round_and_filter(guess, x_bar, seed=_child_seed(seed, g_idx, t))
            candidates.append(out.solution)
        for cand in candidates:
            val = verdicts.get(cand, _MISSING)
            if val is _MISSING:
                fits = (all(v <= one for v in norm.pack_value(cand))
                        and all(v >= need_cover for v in norm.cover_value(cand)))
                val = verdicts[cand] = norm.objective.eval(cand) if fits else None
            if val is None:
                diag.filter_fail += 1
                continue
            diag.filter_pass += 1
            if diag.best_value is None or val > diag.best_value:
                diag.best_value = val
            if better(val, cand, best):
                best = (cand, val)

    if best is None:
        return MainResult(found=False, solution=0, value=0, cover_ratio=None,
                          pack_ratio=None, trials=trials,
                          guesses_enumerated=len(enum.guesses),
                          truncated=enum.truncated, diagnostics=diagnostics)
    mask, value = best
    cover_ratio, pack_ratio = load_ratios(norm, mask)
    return MainResult(
        found=True, solution=mask, value=value,
        cover_ratio=cover_ratio, pack_ratio=pack_ratio,
        trials=trials, guesses_enumerated=len(enum.guesses),
        truncated=enum.truncated, diagnostics=diagnostics)


def _child_seed(seed: int, guess_index: int, trial: int) -> int:
    return (seed * 1_000_003 + guess_index * 10_007 + trial) & 0x7FFFFFFF
