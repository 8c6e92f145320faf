"""Single packing / single covering DP with big-element guessing and
forbidden sets.

Small elements are sorted by cover-per-pack ratio; the forbidden set for a
packing level p' is the cheapest prefix whose pack value reaches p - p', kept
out of the table so it can later complete any cell to full coverage.  Big
elements (pack value >= eps * bound) are handled by brute-force guessing.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import (
    BudgetExceededError,
    Instance,
    Rational,
    better,
    iter_bits,
    load_ratios,
    mask_of,
    _rat,
)
from .greedy_dp import scale_instance

GUESS_BUDGET = 1_000_000


def _require_single_row(inst: Instance) -> None:
    if inst.p != 1 or inst.c != 1:
        raise ValueError("forbidden-set DP requires exactly one packing and one covering row")
    if not inst.is_integer():
        raise ValueError("forbidden-set DP requires integer data")


@dataclass(frozen=True)
class ForbiddenIndex:
    """Prefix index over the small elements.

    ``order`` sorts small elements by non-increasing C/P (pack-value-0
    elements first, ties by element index) and ``prefix_pack`` holds the
    running pack value, so the forbidden set for any packing level is a
    prefix length.
    """

    order: tuple
    prefix_pack: tuple       # prefix_pack[i] = pack value of the first i elements
    prefix_cover: tuple
    prefix_mask: tuple       # prefix_mask[i] = mask of the first i elements
    pack_bound: int

    def prefix_len(self, p_prime: int) -> int:
        """Length of the smallest prefix with pack value >= bound - p_prime
        (all of the small elements if even that falls short)."""
        return bisect.bisect_left(self.prefix_pack, self.pack_bound - p_prime,
                                  0, len(self.order))

    def forbidden_mask(self, p_prime: int) -> int:
        return self.prefix_mask[self.prefix_len(p_prime)]


def big_elements(inst: Instance, epsilon: Rational) -> int:
    """Mask of elements with pack value >= epsilon * bound."""
    _require_single_row(inst)
    epsilon = _rat(epsilon)
    threshold = epsilon * inst.pack_bound[0]
    return mask_of(i for i, v in enumerate(inst.packing[0]) if v >= threshold)


def build_forbidden_index(inst: Instance, small_mask: int) -> ForbiddenIndex:
    _require_single_row(inst)
    pack = inst.packing[0]
    cover = inst.covering[0]

    def ratio_key(i):
        # non-increasing C/P; P = 0 sorts first (unbounded ratio)
        if pack[i] == 0:
            return (0, 0, i)
        return (1, -Fraction(cover[i], pack[i]), i)

    order = tuple(sorted(iter_bits(small_mask), key=ratio_key))
    prefix_pack = [0]
    prefix_cover = [0]
    prefix_mask = [0]
    for i in order:
        prefix_pack.append(prefix_pack[-1] + int(pack[i]))
        prefix_cover.append(prefix_cover[-1] + int(cover[i]))
        prefix_mask.append(prefix_mask[-1] | 1 << i)
    return ForbiddenIndex(
        order=order,
        prefix_pack=tuple(prefix_pack),
        prefix_cover=tuple(prefix_cover),
        prefix_mask=tuple(prefix_mask),
        pack_bound=int(inst.pack_bound[0]),
    )


@dataclass
class ForbiddenOutcome:
    found: bool
    best_set: int
    best_value: object
    guesses_tried: int
    # set by solve_polynomial against the original bounds when found
    cover_ratio: object = None
    pack_ratio: object = None


def _enumerate_guesses(inst: Instance, big_mask: int, epsilon: Fraction):
    big = list(iter_bits(big_mask))
    max_size = min(len(big), math.ceil(1 / epsilon))
    count = sum(math.comb(len(big), k) for k in range(max_size + 1))
    if count > GUESS_BUDGET:
        raise BudgetExceededError(
            f"{count} big-element guesses exceed budget {GUESS_BUDGET}")
    pack = inst.packing[0]
    bound = inst.pack_bound[0]
    for size in range(max_size + 1):
        for combo in combinations(big, size):
            if sum(pack[i] for i in combo) <= bound:
                yield mask_of(combo)


def _run_single_dp(oracle, pack: tuple, cover: tuple, guess_mask: int,
                   index: ForbiddenIndex, excluded_mask: int):
    """Populate the (cover, pack) table seeded with the guess; forward form.

    Cells are extended in ascending pack level, then ascending cover value,
    so every predecessor is final before it is extended.  One heap holds
    each cell's (pack, cover) key, pushed when the cell is created: pack
    entries are non-negative, and a same-level child has larger cover (a
    zero-pack, zero-cover child lands on its parent's own cell).  A level's
    admissible elements are rebuilt when the popped level changes.
    Extensions from (c', p') skip the cell itself, the forbidden prefix at
    level p', the non-guessed big elements, which the guessing step removed
    from the instance, and the elements whose pack value exceeds the room
    p - p' left at the level.  A child set is offered to the table once:
    every route to it gives the same cell and the value f(child), so a
    repeat could never win.  That relies on exact oracle values (rationals);
    float values would keep the first route's rounding.
    """
    p_bound = index.pack_bound
    n = len(pack)

    g_cov = sum(cover[i] for i in iter_bits(guess_mask))
    g_pak = sum(pack[i] for i in iter_bits(guess_mask))
    table = {(g_cov, g_pak): (guess_mask, oracle.eval(guess_mask))}
    heap = [(g_pak, g_cov)]
    level = None
    offered = set()    # child masks the table has already been offered
    while heap:
        p_cur, c_cur = heapq.heappop(heap)
        if p_cur != level:
            level = p_cur
            forb = index.forbidden_mask(p_cur) | excluded_mask
            room = p_bound - p_cur
            # the level's admissible elements in index order
            steps = [(elem, 1 << elem, pack[elem], cover[elem]) for elem in range(n)
                     if not forb >> elem & 1 and pack[elem] <= room]
        mask, value = table[(c_cur, p_cur)]
        state = oracle.begin(mask)
        for elem, bit, p_elem, c_elem in steps:
            if mask & bit:
                continue
            new_mask = mask | bit
            if new_mask in offered:
                continue
            offered.add(new_mask)
            p_new = p_cur + p_elem
            c_new = c_cur + c_elem
            new_value = value + oracle.gain(state, elem)
            key = (c_new, p_new)
            cur = table.get(key)
            if better(new_value, new_mask, cur):
                table[key] = (new_mask, new_value)
                if cur is None:
                    heapq.heappush(heap, (p_new, c_new))
    return table


def forbidden_dp_solve(inst: Instance, epsilon: Rational,
                       skip_guessing: bool = False) -> ForbiddenOutcome:
    """Best of T[c', p'] + F_{p'} with full coverage, over all big-element
    guesses."""
    _require_single_row(inst)
    epsilon = Fraction(_rat(epsilon))
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    pack = tuple(int(v) for v in inst.packing[0])
    cover = tuple(int(v) for v in inst.covering[0])
    c_bound = int(inst.cover_bound[0])
    oracle = inst.objective

    if skip_guessing:
        big_mask = 0
        guesses = [0]
    else:
        big_mask = big_elements(inst, epsilon)
        guesses = list(_enumerate_guesses(inst, big_mask, epsilon))
    small_mask = ((1 << inst.n) - 1) & ~big_mask
    index = build_forbidden_index(inst, small_mask)

    best = None
    for guess_mask in guesses:
        table = _run_single_dp(oracle, pack, cover, guess_mask, index,
                               excluded_mask=big_mask & ~guess_mask)
        for (c_cur, p_cur), (mask, _value) in table.items():
            k = index.prefix_len(p_cur)
            if c_cur + index.prefix_cover[k] < c_bound:
                continue
            candidate = mask | index.prefix_mask[k]
            val = oracle.eval(candidate)
            if better(val, candidate, best):
                best = (candidate, val)
    if best is None:
        return ForbiddenOutcome(False, 0, 0, len(guesses))
    return ForbiddenOutcome(True, best[0], best[1], len(guesses))


def cardinality_solve(inst: Instance, k: int) -> ForbiddenOutcome:
    """Cardinality packing row: no guessing needed and the unit-weight
    forbidden prefixes never overshoot, so the bound k holds exactly."""
    _require_single_row(inst)
    if any(v != 1 for v in inst.packing[0]):
        raise ValueError("cardinality variant requires an all-ones packing row")
    if k < 0:
        raise ValueError("k must be non-negative")
    if inst.pack_bound[0] != k:
        raise ValueError("pack bound must equal k")
    return forbidden_dp_solve(inst, Fraction(1, max(2 * k, 2)), skip_guessing=True)


def solve_polynomial(inst: Instance, epsilon: Rational) -> ForbiddenOutcome:
    """Scale to integers with parameter eps/2, solve, and map back.

    The output covers at least (1 - eps) and packs at most (1 + eps) of the
    original bounds while keeping the DP's value guarantee.  It is the
    scaled solve's outcome, with its ratios against the original bounds.
    """
    if inst.p != 1 or inst.c != 1:
        raise ValueError("solve_polynomial requires exactly one packing and one covering row")
    epsilon = Fraction(_rat(epsilon))
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    scaled = scale_instance(inst, epsilon / 2)
    outcome = forbidden_dp_solve(scaled, epsilon / 2)
    if outcome.found:
        outcome.cover_ratio, outcome.pack_ratio = load_ratios(inst, outcome.best_set)
    return outcome
