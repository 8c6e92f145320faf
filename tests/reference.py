"""Reference code that only the tests call: the paper's existence argument
for a correct guess, the residual objective, a Monte-Carlo multilinear
estimator, a per-program emptiness screen on Fraction rows, the closed
form of the upper-bound construction's value, ``solve_main``'s
pair-by-pair loop from before the run walk (over ``enumerate_guesses``'s
list, one ``Guess`` at a time), the chosen sets by the subset filter from
before they were extended, ``normalize`` and the cover grid by the
Fraction divisions and products they took before, the oracles'
bit-by-bit methods from before the per-byte tables, and two exact
kernels by the route they took before they pruned: brute force over
every subset and the k-median matching value by max flow.  The solvers
never run any of it."""

import math
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from operator import ge
from typing import Sequence

from pcsm import continuous as cont
from pcsm.brute import BruteResult, _gray_walk
from pcsm.core import (
    BudgetExceededError,
    ConcaveOfModularOracle,
    CoverageOracle,
    Instance,
    LinearOracle,
    Params,
    SubmodularOracle,
    better,
    iter_bits,
    load_ratios,
    mask_of,
    normalize,
    packed_loads,
    to_fraction,
)
from pcsm.lp import UB_ALPHA, UB_BETA, closed_form_optimum


def residual_objective(guess: cont.Guess, t_mask: int):
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


def correct_guess_for(inst: Instance, params: Params, optimum: int) -> cont.Guess:
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
    # E0: the high-marginal leftovers and the large elements of the
    # intermediate guess H = (empty, E1, c')
    state = oracle.begin(chosen)
    high = mask_of(
        ell for ell in range(inst.n)
        if not (chosen >> ell) & 1
        and oracle.gain(state, ell) > oracle.eval(chosen) / params.gamma)
    h = cont.Guess(inst, 0, chosen, targets, params)
    return cont.Guess(inst, high | h.large_pack | h.large_cover, chosen, targets, params)


def is_correct(guess: cont.Guess, optimum: int) -> bool:
    """The four correctness clauses against a fixed optimal solution."""
    inst = guess.instance
    if guess.chosen & ~optimum:
        return False
    if guess.discarded & optimum:
        return False
    order = greedy_marginal_order(inst.objective, optimum)
    # gamma may exceed |O|; then all of O must be chosen
    gamma_count = min(len(order), int(math.ceil(guess.params.gamma)))
    if mask_of(order[:gamma_count]) & ~guess.chosen:
        return False
    cov = inst.cover_value(optimum)
    for t, v in zip(guess.cover_targets, cov):
        if not (1 <= t <= v < (1 + guess.params.delta) * t):
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


# the screen's margin: a share of the largest bound, at least 1
MARGIN = Fraction(1, 10 ** 6)


def knapsack_max(values, weights, room) -> Fraction:
    """max values.x over {x in [0,1]^n : weights.x <= room}, in Fractions:
    zero-weight items whole, the rest by falling value/weight ratio, each
    as far as the room (a negative room counts as 0) allows."""
    room = max(Fraction(room), Fraction(0))
    total = sum((Fraction(v) for v, w in zip(values, weights) if w == 0), Fraction(0))
    items = sorted(((Fraction(v), Fraction(w)) for v, w in zip(values, weights) if w),
                   key=lambda item: item[0] / item[1], reverse=True)
    for v, w in items:
        share = min(Fraction(1), room / w)
        total += share * v
        room -= share * w
    return total


def row_reaches(pack_rows, pack_bounds, cover_rows) -> list:
    """Per covering row, the most it can reach over the box [0,1]^n: the
    least of its plain sum and its maximum under each single packing row."""
    return [min([sum(map(Fraction, row), Fraction(0))]
                + [knapsack_max(row, prow, b) for prow, b in zip(pack_rows, pack_bounds)])
            for row in cover_rows]


def polytope_surely_empty(pack_rows, pack_bounds, cover_rows, cover_bounds) -> bool:
    """Whether {x in [0,1]^n : pack @ x <= pack_bounds, cover @ x >= cover_bounds}
    is empty by an exact certificate: some covering row misses its bound by
    more than MARGIN times the largest of 1 and every |bound|, even within
    the box and a single packing row.

    Each (covering, packing) pair relaxes the polytope, so the test is
    sound for any number of rows; with one row of each it is exact up to
    the margin.
    """
    bounds = [Fraction(b) for b in list(pack_bounds) + list(cover_bounds)]
    margin = MARGIN * max([Fraction(1)] + [abs(b) for b in bounds])
    return any(Fraction(b) - r > margin
               for r, b in zip(row_reaches(pack_rows, pack_bounds, cover_rows), cover_bounds))


def repeats(index: tuple, residual_cover: tuple) -> bool:
    """Whether the pair with target grid indices ``index`` and residual
    covers ``residual_cover`` (the S_j) repeats an earlier pair of its E1:
    whether some row with S_j = 0 has t_j > 0.

    If it does, lowering that t_j by one keeps S_j = 0 and row j critical,
    so the earlier pair has the same residuals, critical rows and large
    masks, hence the same E0 and residual problem.  If it does not, an
    earlier pair of E1 with the same residuals would share every t_j with
    S_j > 0 (a positive s_j fixes c'_j given Q_j) and could differ only by
    raising some t_j = 0, which comes later in the order."""
    return 0 in residual_cover and any(t and not s for t, s in zip(index, residual_cover))


def empty_limits(memo: dict, chosen: int, undetermined: int, part, grid: list) -> tuple:
    """The emptiness screen's limits for the pairs of E1 ``chosen``
    (``part``) that leave ``undetermined`` undetermined, kept in ``memo``
    per (E1, undetermined): per covering row j, the first index t into
    ``grid`` at which s_j beats the row's ``cover_reach`` over those
    elements by more than SCREEN_MARGIN * grid[-1], else len(grid), by a
    bisect over the grid's Fractions."""
    key = (chosen, undetermined)
    limits = memo.get(key)
    if limits is None:
        rows = part.rows
        pack, cover = cont._residual_rows(rows.pack, rows.cover, tuple(iter_bits(undetermined)))
        margin = cont.SCREEN_MARGIN * grid[-1]
        limits = []
        for reach, k, q in zip(cont.cover_reach(pack, part.pack_room, cover), rows.cover_scale,
                               part.cover_load):
            g = Fraction(reach, k) + margin
            limits.append(bisect_left(grid, True, key=lambda c: (
                max(0, c.numerator * k - c.denominator * q) * g.denominator
                > g.numerator * k * c.denominator)))
        limits = memo[key] = tuple(limits)
    return limits


def rows_fit(rows, mask: int, cover_share: Fraction) -> bool:
    """The packing filter re-summing every element of ``mask``: it packs
    within every bound and covers ``cover_share`` of every covering bound."""
    load = rows.load(mask)
    num, den = cover_share.numerator, cover_share.denominator
    return (all(v <= d for v, d in zip(load, rows.pack_scale))
            and all(q * den >= num * k for q, k in zip(load[len(rows.pack):], rows.cover_scale)))


def per_pair_solve_main(inst: Instance, epsilon, seed: int = 0, budget: int = 100_000,
                        params=None, trials: int = 20, steps: int = 100,
                        samples_per_grad: int = 200, diagnostics: bool = False,
                        guesses=None, screen: bool = True) -> cont.MainResult:
    """``solve_main`` as it was before it walked the stream in runs: one
    guess of ``enumerate_guesses``'s list at a time, in stream order, each
    checked for a repeat and screened on its own.  ``guesses`` (a
    ``GuessList``) stands in for that list; ``screen=False`` leaves the
    pairs the screen would settle to phase 1.  The guesses, and each
    pair's seeds, ascent and rounding, go through ``cont``'s module
    attributes."""
    if trials < 0:
        raise ValueError("trials must be non-negative")
    cont._check_ascent(steps, samples_per_grad)
    epsilon = to_fraction(epsilon)
    norm = normalize(inst)
    b = max(1, norm.p + norm.c)
    if params is None:
        params = Params.from_epsilon(epsilon, b)
        if cont._pair_total(norm, params, budget) > budget:
            raise BudgetExceededError(
                f"the analysis schedule's guess stream has more than {budget} pairs "
                f"(delta {float(params.delta):.3g}); raise the budget or pass "
                "explicit params (--relaxed)")
    grid = cont._target_grid(norm.n, params, budget)
    position = {point: t for t, point in enumerate(grid)}
    if guesses is None:
        guesses = cont.enumerate_guesses(norm, params, budget)

    need_cover = 1 - epsilon
    best = None
    diag_records = []
    examined = repeat = screened = phase1 = ascended = passed = failed = 0
    limits = {}
    verdicts = {}
    scale = 1 / (1 + float(params.delta))
    full = (1 << norm.n) - 1
    for guess in guesses.guesses:
        examined += 1
        chosen, discarded = guess.chosen, guess.discarded
        cpart, tpart = guess._parts
        index = tuple(position[t] for t in guess.cover_targets)
        if repeats(index, tpart.residual_cover):
            repeat += 1
            continue
        undetermined = full & ~(discarded | chosen)
        diag = None
        if diagnostics:
            diag = cont.GuessDiagnostics(
                chosen_size=chosen.bit_count(),
                discarded_size=discarded.bit_count(),
                critical_pack_rows=len(cpart.critical_pack),
                critical_cover_rows=len(tpart.critical_cover),
                critical_large_size=(cpart.critical_large & undetermined).bit_count(),
                filter_pass=0, filter_fail=0, infeasible_polytope=False,
                best_value=None)
            diag_records.append(diag)
        if screen and any(map(ge, index, empty_limits(limits, chosen, undetermined, cpart,
                                                      grid))):
            screened += 1
            if diag:
                diag.infeasible_polytope = True
            continue
        ascent_seed, round_seed = cont._pair_seeds(seed, chosen, index)
        try:
            x_star = cont.continuous_greedy(
                guess, steps=steps, samples_per_grad=samples_per_grad, seed=ascent_seed)
        except cont.GuessInfeasibleError:
            phase1 += 1
            if diag:
                diag.infeasible_polytope = True
            continue
        ascended += 1
        candidates = [chosen]
        if undetermined:
            x_bar = {e: p * scale for e, p in x_star.items()}
            rng = random.Random(round_seed)
            candidates += [cont.round_and_filter(guess, x_bar, rng).solution
                           for _ in range(trials)]
        else:
            candidates *= trials + 1
        pair_pass = 0
        pair_best = None
        for cand in candidates:
            if cand not in verdicts:
                fits = rows_fit(cpart.rows, cand, need_cover)
                verdicts[cand] = norm.objective.eval(cand) if fits else None
            val = verdicts[cand]
            if val is None:
                continue
            pair_pass += 1
            if pair_best is None or val > pair_best:
                pair_best = val
            if better(val, cand, best):
                best = (cand, val)
        passed += pair_pass
        failed += len(candidates) - pair_pass
        if diag:
            diag.filter_pass = pair_pass
            diag.filter_fail = len(candidates) - pair_pass
            diag.best_value = pair_best

    counts = cont.GuessCounts(examined=examined, repeat=repeat, screened_empty=screened,
                              phase1_empty=phase1, ascended=ascended, filter_pass=passed,
                              filter_fail=failed)
    if best is None:
        return cont.MainResult(found=False, solution=0, value=0, cover_ratio=None,
                               pack_ratio=None, trials=trials,
                               truncated=guesses.truncated, counts=counts,
                               diagnostics=diag_records)
    mask, value = best
    cover_ratio, pack_ratio = load_ratios(norm, mask)
    return cont.MainResult(
        found=True, solution=mask, value=value,
        cover_ratio=cover_ratio, pack_ratio=pack_ratio, trials=trials,
        truncated=guesses.truncated, counts=counts, diagnostics=diag_records)


def filtered_chosen_sets(inst: Instance, params: Params, budget: int) -> tuple:
    """``cont._chosen_sets``'s width and ``(pos, chosen)`` entries as it
    found them before it extended packing sets: the first ``budget + 1``
    sets of ``subsets_by_size``, and of those below the budget the ones
    whose summed loads pack."""
    rows = cont._scaled_rows(inst)
    chosen_sets = list(islice(subsets_by_size(inst.n, cont._size_cap(inst, params)),
                              budget + 1))
    return len(chosen_sets), [
        (pos, chosen) for pos, chosen in enumerate(chosen_sets[:budget])
        if all(v <= d for v, d in zip(rows.load(chosen), rows.pack_scale))]


def divided_normalize(inst: Instance) -> Instance:
    """``normalize`` as it built its entries before each became one
    ``Fraction(v, b)``: ``Fraction(v) / b``, a covering entry clamped as
    ``min(Fraction(v), Fraction(b)) / b``."""
    packing = [tuple(Fraction(2) if v > 0 else Fraction(0) for v in row) if b == 0
               else tuple(Fraction(v) / b for v in row)
               for row, b in zip(inst.packing, inst.pack_bound)]
    covering = [tuple(min(Fraction(v), Fraction(b)) / b for v in row)
                for row, b in zip(inst.covering, inst.cover_bound) if b != 0]
    return Instance(n=inst.n, packing=tuple(packing), covering=tuple(covering),
                    pack_bound=tuple(Fraction(1) for _ in packing),
                    cover_bound=tuple(Fraction(1) for _ in covering),
                    objective=inst.objective)


def multiplied_target_grid(n: int, params: Params, budget: int) -> list:
    """``cont._target_grid`` as it built its points before each became one
    Fraction of two powers: each point the last one times 1 + delta."""
    grid = []
    point = Fraction(1)
    for _ in range(cont._grid_length(n, params, budget)):
        grid.append(point)
        point *= 1 + params.delta
    return grid


def subsets_by_size(n: int, cap: int):
    """Every subset of at most ``cap`` of n elements, by size, each size
    in ``combinations`` order."""
    for size in range(min(n, cap) + 1):
        for combo in combinations(range(n), size):
            yield mask_of(combo)


def upper_bound_value_formula(m: int) -> Fraction:
    """a_m - beta(alpha - 1/2)/2 + 3 beta/(4m) with a_m = (1 - 1/m)^m."""
    return (closed_form_optimum(m)
            - UB_BETA * (UB_ALPHA - Fraction(1, 2)) / 2 + 3 * UB_BETA / (4 * m))


# ---------------------------------------------------------------------------
# the oracle methods the per-byte tables replaced: one step per set bit


class IterBitsLinear(LinearOracle):
    def eval(self, mask):
        return sum(self.weights[i] for i in iter_bits(mask))


class IterBitsCoverage(CoverageOracle):
    def covered(self, mask):
        cov = 0
        for i in iter_bits(mask):
            cov |= self.element_masks[i]
        return cov

    def eval(self, mask):
        return sum(self.universe_weights[u] for u in iter_bits(self.covered(mask)))

    def begin(self, mask):
        return self.covered(mask)

    def gain(self, state, elem):
        new = self.element_masks[elem] & ~state
        return sum(self.universe_weights[u] for u in iter_bits(new))


class IterBitsConcave(ConcaveOfModularOracle):
    def eval(self, mask):
        return min(sum(self.weights[i] for i in iter_bits(mask)), self.cap)

    def begin(self, mask):
        return sum(self.weights[i] for i in iter_bits(mask))


def iter_bits_twin(oracle: SubmodularOracle) -> SubmodularOracle:
    """The bit-by-bit oracle with ``oracle``'s data."""
    if isinstance(oracle, CoverageOracle):
        return IterBitsCoverage(oracle.universe, map(iter_bits, oracle.element_masks),
                                oracle.universe_weights)
    if isinstance(oracle, ConcaveOfModularOracle):
        return IterBitsConcave(oracle.weights, oracle.cap)
    return IterBitsLinear(oracle.weights)


# ---------------------------------------------------------------------------
# two exact kernels by the route they took before they pruned: brute force
# over every subset, and the k-median matching value by max flow


def gray_brute_optimum(inst: Instance) -> BruteResult:
    """``brute_optimum`` by the Gray-code walk over all 2^n subsets."""
    loads = packed_loads(inst)
    guard, want = loads.guard, loads.want
    best = None
    feasible_count = 0
    for mask, word in _gray_walk(inst.n, loads):
        if word & guard == want:
            feasible_count += 1
            value = inst.objective.eval(mask)
            if better(value, mask, best):
                best = (mask, value)
    best_set, best_value = best or (0, 0)
    return BruteResult(best_value, best_set, feasible_count)


class Dinic:
    def __init__(self, size):
        self.size = size
        self.graph = [[] for _ in range(size)]

    def add_edge(self, u, v, cap):
        self.graph[u].append([v, cap, len(self.graph[v])])
        self.graph[v].append([u, 0, len(self.graph[u]) - 1])

    def max_flow(self, s, t):
        flow = 0
        while True:
            level = [-1] * self.size
            level[s] = 0
            dq = deque([s])
            while dq:
                u = dq.popleft()
                for e in self.graph[u]:
                    if e[1] > 0 and level[e[0]] < 0:
                        level[e[0]] = level[u] + 1
                        dq.append(e[0])
            if level[t] < 0:
                return flow
            it = [0] * self.size

            def dfs(u, pushed):
                if u == t:
                    return pushed
                while it[u] < len(self.graph[u]):
                    e = self.graph[u][it[u]]
                    v = e[0]
                    if e[1] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, e[1]))
                        if got:
                            e[1] -= got
                            self.graph[v][e[2]][1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed


def near_network(inst, open_facs: list) -> Dinic:
    """Source 0 -> clients -> near open facilities (``open_facs`` order) ->
    sink 1; unit capacities except facility -> sink."""
    nc = inst.num_clients
    pos = {f: j for j, f in enumerate(open_facs)}
    net = Dinic(2 + nc + len(open_facs))
    for cl in range(nc):
        net.add_edge(0, 2 + cl, 1)
    for f in open_facs:
        net.add_edge(2 + nc + pos[f], 1, inst.capacities[f])
    for (cl, f) in sorted(inst.near_pairs):
        if f in pos:
            net.add_edge(2 + cl, 2 + nc + pos[f], 1)
    return net


def dinic_match_value(inst, f_mask: int) -> int:
    """The near matching value as a max flow."""
    return near_network(inst, list(iter_bits(f_mask))).max_flow(0, 1)
