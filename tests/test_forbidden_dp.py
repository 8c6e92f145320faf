import bisect
import dataclasses
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from pcsm.brute import brute_optimum
from pcsm.core import (
    BudgetExceededError,
    LinearOracle,
    iter_bits,
    load_ratios,
    make_instance,
    marginal,
    mask_of,
    subset_key,
)
from pcsm import forbidden_dp
from pcsm.forbidden_dp import (
    _enumerate_guesses,
    _run_single_dp,
    big_elements,
    build_forbidden_index,
    cardinality_solve,
    forbidden_dp_solve,
    solve_polynomial,
)
from pcsm.greedy_dp import scale_instance

from conftest import FAMILIES, random_instance, random_oracle, small_oracles


def test_index_ratio_order_example():
    inst = make_instance([[1, 1, 1]], [[3, 2, 1]], [3], [0], LinearOracle([1] * 3))
    idx = build_forbidden_index(inst, small_mask=0b111)
    assert idx.order == (0, 1, 2)
    assert idx.forbidden_mask(2) == mask_of([0])   # smallest prefix with pack >= 1
    assert idx.forbidden_mask(3) == 0              # pack >= 0 is the empty prefix


def test_index_zero_pack_elements_first():
    inst = make_instance([[2, 0, 1]], [[1, 5, 9]], [2], [0], LinearOracle([1] * 3))
    idx = build_forbidden_index(inst, small_mask=0b111)
    assert idx.order[0] == 1


def test_index_invariants_full_sweep():
    rng = random.Random(60)
    for _ in range(30):
        n = rng.randint(1, 9)
        inst = random_instance(rng, n, p=1, c=1)
        eps = Fraction(1, 4)
        small = ((1 << n) - 1) & ~big_elements(inst, eps)
        idx = build_forbidden_index(inst, small_mask=small)
        bound = int(inst.pack_bound[0])
        total = idx.prefix_pack[-1]
        max_small = max((int(inst.packing[0][i]) for i in iter_bits(small)),
                        default=0)
        prev_mask = None
        for p_prime in range(bound, -1, -1):
            mask = idx.forbidden_mask(p_prime)
            # anti-monotone: smaller p' needs a (weakly) larger prefix
            if prev_mask is not None:
                assert prev_mask & ~mask == 0
            prev_mask = mask
            if total >= bound - p_prime:
                forbidden_pack = idx.prefix_pack[idx.prefix_len(p_prime)]
                assert forbidden_pack >= bound - p_prime
                # prefix overshoots by less than one small element
                assert forbidden_pack <= bound - p_prime + max_small


def test_disjointness_of_cells_from_forbidden_sets(monkeypatch):
    tables = []
    run_single_dp = forbidden_dp._run_single_dp

    def recording_dp(*args, **kw):
        tables.append(run_single_dp(*args, **kw))
        return tables[-1]

    monkeypatch.setattr(forbidden_dp, "_run_single_dp", recording_dp)
    rng = random.Random(61)
    for trial in range(25):
        inst = random_instance(rng, rng.randint(3, 9), p=1, c=1,
                               family=FAMILIES[trial % 3])
        eps = Fraction(1, 4)
        tables.clear()
        res = forbidden_dp_solve(inst, eps)
        big = big_elements(inst, eps)
        small = ((1 << inst.n) - 1) & ~big
        idx = build_forbidden_index(inst, small_mask=small)
        assert len(tables) == res.guesses_tried
        for table in tables:
            for (c_cur, p_cur), (mask, _value) in table.items():
                assert mask & idx.forbidden_mask(p_cur) == 0


def test_floor_and_violation_bounds():
    rng = random.Random(62)
    eps = Fraction(1, 4)
    for trial in range(40):
        inst = random_instance(rng, rng.randint(3, 10), p=1, c=1,
                               family=FAMILIES[trial % 3])
        br = brute_optimum(inst)
        if not br.feasible_count:
            continue
        res = forbidden_dp_solve(inst, eps)
        assert res.found
        assert 4 * res.best_value >= br.best_value
        assert inst.cover_value(res.best_set)[0] >= inst.cover_bound[0]
        assert inst.pack_value(res.best_set)[0] <= (1 + eps) * inst.pack_bound[0]


def test_no_big_elements_no_covering_matches_brute():
    rng = random.Random(63)
    for _ in range(15):
        n = rng.randint(2, 9)
        packing = [[rng.randint(1, 3) for _ in range(n)]]
        inst = make_instance(packing, [[0] * n], [4 * n], [0],
                             LinearOracle([rng.randint(0, 9) for _ in range(n)]))
        assert big_elements(inst, Fraction(1, n)) == 0
        res = forbidden_dp_solve(inst, Fraction(1, n))
        br = brute_optimum(inst)
        assert res.best_value == br.best_value


def test_guess_correctness_enumeration_completeness():
    # the big elements of the true optimum always form one of the guesses
    rng = random.Random(64)
    eps = Fraction(1, 3)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(3, 9), p=1, c=1)
        br = brute_optimum(inst)
        if not br.feasible_count:
            continue
        big = big_elements(inst, eps)
        target = br.best_set & big
        guesses = list(_enumerate_guesses(inst, big, eps))
        assert target in guesses


def test_forward_matches_backward_formulation():
    # the pseudocode's forward recurrence vs the prose's backward one
    rng = random.Random(65)
    eps = Fraction(1, 3)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(3, 7), p=1, c=1, max_entry=5)
        forward = forbidden_dp_solve(inst, eps)
        backward = _backward_solve(inst, eps)
        assert (forward.best_value if forward.found else None) == backward


@st.composite
def seeded_tables(draw):
    """One single-row instance (zero pack entries come up often, and half
    the oracles have small, often rational weights), an epsilon and one of
    its big-element guesses, as ``_run_single_dp``'s arguments."""
    n = draw(st.integers(0, 10))
    entry = st.one_of(st.just(0), st.integers(0, 9))
    pack = draw(st.lists(entry, min_size=n, max_size=n))
    cover = draw(st.lists(entry, min_size=n, max_size=n))
    pack_bound = draw(st.integers(0, sum(pack) + 1))
    cover_bound = draw(st.integers(0, sum(cover) + 1))
    if draw(st.booleans()):
        oracle = draw(small_oracles(n))
    else:
        oracle = random_oracle(random.Random(draw(st.integers(0, 2 ** 32))), n,
                               draw(st.sampled_from(FAMILIES)))
    inst = make_instance([pack], [cover], [pack_bound], [cover_bound], oracle)
    eps = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]))
    big = big_elements(inst, eps)
    guesses = list(_enumerate_guesses(inst, big, eps))
    # guesses come by size, the empty one first
    guess = guesses[draw(st.integers(0, len(guesses) - 1))]
    index = build_forbidden_index(inst, small_mask=((1 << n) - 1) & ~big)
    return oracle, tuple(pack), tuple(cover), guess, index, big & ~guess


# element 0 packs 0 and covers 1: at the full level 2, where no prefix is
# forbidden, it extends the cell of cover 3 to cover 4 while the cells of
# cover 5 and 6 still wait on that level
_ZERO_PACK_ROWS = ((0, 1, 1, 1, 1), (1, 4, 4, 2, 1))
_ZERO_PACK = make_instance([_ZERO_PACK_ROWS[0]], [_ZERO_PACK_ROWS[1]], [2], [0],
                           LinearOracle([1, 2, 2, 1, 1]))


@settings(max_examples=200, deadline=None)
@given(seeded_tables())
@example((_ZERO_PACK.objective, *_ZERO_PACK_ROWS, 0,
          build_forbidden_index(_ZERO_PACK, small_mask=0b11111), 0))
def test_occupied_levels_match_the_range_scan(args):
    # popping the cells from one (pack, cover) heap, with each level's
    # admissible elements built once, fills the same table in the same order
    # as the reference's scan over every pack level
    got = _run_single_dp(*args)
    want = _ref_single_dp(*args)
    assert list(got.items()) == list(want.items())


@settings(max_examples=200, deadline=None)
@given(seeded_tables())
def test_table_values_are_exact(args):
    # a cell's value is f of its set whatever route reached it: what lets a
    # table skip a child set it has already been offered
    oracle = args[0]
    for mask, value in _run_single_dp(*args).values():
        assert value == oracle.eval(mask)


def _backward_solve(inst, eps):
    pack = [int(v) for v in inst.packing[0]]
    cover = [int(v) for v in inst.covering[0]]
    p_bound = int(inst.pack_bound[0])
    c_bound = int(inst.cover_bound[0])
    oracle = inst.objective
    n = inst.n
    big = big_elements(inst, eps)
    small = ((1 << n) - 1) & ~big
    idx = build_forbidden_index(inst, small_mask=small)
    c_key_max = n * max(cover, default=0)
    best = None
    for guess in _enumerate_guesses(inst, big, Fraction(eps)):
        g_cov = sum(cover[i] for i in iter_bits(guess))
        g_pak = sum(pack[i] for i in iter_bits(guess))
        table = {(g_cov, g_pak): (guess, oracle.eval(guess))}
        for p_cur in range(p_bound + 1):
            forb = idx.forbidden_mask(p_cur)
            for c_cur in range(c_key_max + 1):
                for elem in range(n):
                    if (big & ~guess) >> elem & 1 or (forb >> elem) & 1:
                        continue
                    cp, pp = c_cur - cover[elem], p_cur - pack[elem]
                    if cp < 0 or pp < 0:
                        continue
                    pred = table.get((cp, pp))
                    if pred is None or (pred[0] >> elem) & 1:
                        continue
                    cand = pred[0] | (1 << elem)
                    val = pred[1] + marginal(oracle, pred[0], elem)
                    cur = table.get((c_cur, p_cur))
                    if (cur is None or val > cur[1]
                            or (val == cur[1] and subset_key(cand) < subset_key(cur[0]))):
                        table[(c_cur, p_cur)] = (cand, val)
        for (c_cur, p_cur), (mask, _v) in table.items():
            if c_cur + idx.prefix_cover[idx.prefix_len(p_cur)] < c_bound:
                continue
            val = oracle.eval(mask | idx.forbidden_mask(p_cur))
            if best is None or val > best:
                best = val
    return best


def test_cardinality_full_budget_no_covering():
    rng = random.Random(66)
    for _ in range(10):
        n = rng.randint(2, 8)
        inst = make_instance([[1] * n], [[0] * n], [n], [0],
                             LinearOracle([rng.randint(0, 9) for _ in range(n)]))
        res = cardinality_solve(inst, n)
        br = brute_optimum(inst)
        assert res.best_value == br.best_value


def test_cardinality_zero_budget():
    inst = make_instance([[1, 1]], [[1, 1]], [0], [0], LinearOracle([1, 1]))
    res = cardinality_solve(inst, 0)
    assert res.found and res.best_set == 0
    inst2 = make_instance([[1, 1]], [[1, 1]], [0], [1], LinearOracle([1, 1]))
    res2 = cardinality_solve(inst2, 0)
    assert not res2.found


def test_cardinality_refuses_a_negative_k():
    # a negative k is refused as such, before it is held against the bound
    inst = make_instance([[1, 1]], [[1, 1]], [0], [0], LinearOracle([1, 1]))
    with pytest.raises(ValueError, match="k must be non-negative"):
        cardinality_solve(inst, -1)


def test_cardinality_never_violates_bound():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(2, 9)
        k = rng.randint(0, n)
        covering = [[rng.randint(0, 5) for _ in range(n)]]
        planted = sorted(rng.sample(range(n), k))
        cb = [sum(covering[0][i] for i in planted)]
        inst = make_instance([[1] * n], covering, [k], cb,
                             LinearOracle([rng.randint(0, 9) for _ in range(n)]))
        res = cardinality_solve(inst, k)
        assert res.found
        assert bin(res.best_set).count("1") <= k
        assert inst.cover_value(res.best_set)[0] >= cb[0]
        br = brute_optimum(inst)
        assert 4 * res.best_value >= br.best_value


def test_guess_budget_refusal():
    n = 40
    inst = make_instance([[10] * n], [[1] * n], [10 * n], [0],
                         LinearOracle([1] * n))
    with pytest.raises(BudgetExceededError):
        forbidden_dp_solve(inst, Fraction(1, 100))


def test_polynomial_degenerate_epsilon_one():
    inst = make_instance([[2, 3]], [[1, 1]], [5], [2], LinearOracle([1, 2]))
    res = solve_polynomial(inst, 1)
    assert res.found
    assert res.pack_ratio <= 2
    assert res.cover_ratio >= 0


def test_polynomial_returns_the_scaled_solves_outcome():
    # the scaled forbidden-set solve's outcome, with its ratios against the
    # original bounds when found and None otherwise
    eps = Fraction(1, 2)
    for cover_bound, found in ((2, True), (5, False)):
        inst = make_instance([[2, 3]], [[1, 1]], [5], [cover_bound], LinearOracle([1, 2]))
        res = solve_polynomial(inst, eps)
        ratios = load_ratios(inst, res.best_set) if found else (None, None)
        assert res.found == found
        assert res == dataclasses.replace(
            forbidden_dp_solve(scale_instance(inst, eps / 2), eps / 2),
            cover_ratio=ratios[0], pack_ratio=ratios[1])


def test_polynomial_floor_and_ratios():
    rng = random.Random(68)
    eps = Fraction(1, 2)
    for _ in range(20):
        n = rng.randint(3, 8)
        packing = [[Fraction(rng.randint(1, 24), rng.randint(1, 3)) for _ in range(n)]]
        covering = [[Fraction(rng.randint(1, 24), rng.randint(1, 3)) for _ in range(n)]]
        planted = [i for i in range(n) if rng.random() < 0.5] or [0]
        pb = [sum(packing[0][i] for i in planted)]
        cb = [sum(covering[0][i] for i in planted)]
        inst = make_instance(packing, covering, pb, cb,
                             LinearOracle([rng.randint(0, 9) for _ in range(n)]))
        res = solve_polynomial(inst, eps)
        br = brute_optimum(inst)
        assert res.found
        assert 4 * res.best_value >= br.best_value
        assert res.pack_ratio <= 1 + eps
        assert res.cover_ratio >= 1 - eps


def test_polynomial_wall_clock_smoke():
    import time
    rng = random.Random(5)
    n = 30
    packing = [[rng.randint(1, 9) for _ in range(n)]]
    covering = [[rng.randint(1, 9) for _ in range(n)]]
    planted = sorted(rng.sample(range(n), 4))
    pb = [sum(packing[0][i] for i in planted)]
    cb = [sum(covering[0][i] for i in planted)]
    inst = make_instance(packing, covering, pb, cb,
                         LinearOracle([rng.randint(0, 9) for _ in range(n)]))
    t0 = time.perf_counter()
    res = solve_polynomial(inst, Fraction(1, 2))
    elapsed = time.perf_counter() - t0
    assert res.found
    assert res.pack_ratio <= Fraction(3, 2)
    assert res.cover_ratio >= Fraction(1, 2)
    assert elapsed < 120


def test_rejects_multi_row_instances():
    inst = make_instance([[1, 1], [1, 1]], [[1, 1]], [1, 1], [1],
                         LinearOracle([1, 1]))
    with pytest.raises(ValueError):
        forbidden_dp_solve(inst, Fraction(1, 4))


# ---------------------------------------------------------------------------
# golden equivalence: the forbidden-set family against a plain reference that
# scans every pack level, takes each forbidden mask from its own prefix order,
# and breaks ties by subset tuples


def _ref_index(inst, small_mask):
    pack, cover = inst.packing[0], inst.covering[0]

    def ratio_key(i):
        if pack[i] == 0:
            return (0, 0, i)
        return (1, -Fraction(cover[i], pack[i]), i)

    order = sorted(iter_bits(small_mask), key=ratio_key)
    prefix_pack, prefix_cover = [0], [0]
    for i in order:
        prefix_pack.append(prefix_pack[-1] + int(pack[i]))
        prefix_cover.append(prefix_cover[-1] + int(cover[i]))
    bound = int(inst.pack_bound[0])

    def prefix_len(p_prime):
        return bisect.bisect_left(prefix_pack, bound - p_prime, 0, len(order))

    return SimpleNamespace(order=order, prefix_cover=prefix_cover, prefix_len=prefix_len,
                           pack_bound=bound)


def _ref_single_dp(oracle, pack, cover, guess_mask, index, excluded_mask):
    """``_run_single_dp`` (same arguments) over every pack level 0..p."""
    p_bound, n = index.pack_bound, len(pack)
    g_cov = sum(cover[i] for i in iter_bits(guess_mask))
    g_pak = sum(pack[i] for i in iter_bits(guess_mask))
    table = {(g_cov, g_pak): (guess_mask, oracle.eval(guess_mask))}
    by_level = {g_pak: [g_cov]}
    for p_cur in range(p_bound + 1):
        if p_cur not in by_level:
            continue
        worklist = sorted(by_level[p_cur])
        forb = mask_of(index.order[:index.prefix_len(p_cur)]) | excluded_mask
        wi = 0
        while wi < len(worklist):
            c_cur = worklist[wi]
            wi += 1
            mask, value = table[(c_cur, p_cur)]
            for elem in range(n):
                bit = 1 << elem
                if (mask | forb) & bit:
                    continue
                p_new = p_cur + pack[elem]
                if p_new > p_bound:
                    continue
                c_new = c_cur + cover[elem]
                new_value = value + marginal(oracle, mask, elem)
                key = (c_new, p_new)
                cur = table.get(key)
                if (cur is None or new_value > cur[1]
                        or (new_value == cur[1]
                            and subset_key(mask | bit) < subset_key(cur[0]))):
                    table[key] = (mask | bit, new_value)
                    if cur is None:
                        if p_new == p_cur:
                            bisect.insort(worklist, c_new)
                        else:
                            by_level.setdefault(p_new, []).append(c_new)
    return table


def _ref_forbidden_solve(inst, epsilon, skip_guessing=False):
    epsilon = Fraction(epsilon)
    c_bound = int(inst.cover_bound[0])
    oracle = inst.objective
    if skip_guessing:
        big, guesses = 0, [0]
    else:
        big = big_elements(inst, epsilon)
        guesses = list(_enumerate_guesses(inst, big, epsilon))
    index = _ref_index(inst, ((1 << inst.n) - 1) & ~big)
    pack = tuple(int(v) for v in inst.packing[0])
    cover = tuple(int(v) for v in inst.covering[0])
    best = None
    for guess in guesses:
        table = _ref_single_dp(oracle, pack, cover, guess, index, big & ~guess)
        for (c_cur, p_cur), (mask, _value) in table.items():
            k = index.prefix_len(p_cur)
            if c_cur + index.prefix_cover[k] < c_bound:
                continue
            candidate = mask | mask_of(index.order[:k])
            val = oracle.eval(candidate)
            if (best is None or val > best[1]
                    or (val == best[1] and subset_key(candidate) < subset_key(best[0]))):
                best = (candidate, val)
    if best is None:
        return (False, 0, 0, len(guesses))
    return (True, best[0], best[1], len(guesses))


def _ref_scale(inst, epsilon):
    n = inst.n
    cover_row, cover_bound = inst.covering[0], inst.cover_bound[0]
    cover_row = [min(v, cover_bound) for v in cover_row]
    c_max = max(cover_row, default=0)
    if c_max == 0:
        cover_row, cover_bound = [0] * n, 0 if cover_bound == 0 else 1
    else:
        k = epsilon * c_max / n
        cover_row = [math.ceil(v / k) for v in cover_row]
        cover_bound = math.ceil(cover_bound / k)
    pack_row, pack_bound = inst.packing[0], inst.pack_bound[0]
    p_max = max((v for v in pack_row if v <= pack_bound), default=0)
    if p_max == 0:
        pack_row, scaled_bound = [0 if v <= pack_bound else 1 for v in pack_row], 0
    else:
        k = epsilon * p_max / (2 * n)
        scaled_bound = math.floor(pack_bound / k)
        pack_row = [math.floor(v / k) if v <= pack_bound else scaled_bound + 1
                    for v in pack_row]
    return make_instance([pack_row], [cover_row], [scaled_bound], [cover_bound],
                         inst.objective)


def _ref_polynomial(inst, epsilon):
    found, mask, _value, _guesses = _ref_forbidden_solve(
        _ref_scale(inst, epsilon / 2), epsilon / 2)
    if not found:
        return (False, 0, 0, None, None)
    return (True, mask, inst.objective.eval(mask), *load_ratios(inst, mask))


GOLDEN_SHAPES = ("plain", "zero_pack", "no_big", "pack_bound_0", "cover_bound_0",
                 "cover_above_row_sum", "n0", "rational")


def _golden_forbidden_instance(rng, shape):
    n = 0 if shape == "n0" else rng.randint(2, 8)
    # small entries and weights make equal-value cells, so ties are common
    low, high = (1, 2) if shape == "no_big" else (0, 4)
    pack = [rng.randint(low, high) for _ in range(n)]
    cover = [rng.randint(0, 4) for _ in range(n)]
    planted = [i for i in range(n) if rng.random() < 0.5]
    pack_bound = sum(pack[i] for i in planted)
    cover_bound = sum(cover[i] for i in planted)
    if shape == "zero_pack":
        # a zero-pack small element with cover: its extensions stay on the
        # level being swept, so the heap pops them after their parent
        pack[0], cover[0], pack_bound = 0, rng.randint(1, 4), max(pack_bound, 1)
    elif shape == "no_big":
        pack_bound = 4 * n          # every entry stays below bound / 4
    elif shape == "pack_bound_0":
        pack_bound = 0
    elif shape == "cover_bound_0":
        cover_bound = 0
    elif shape == "cover_above_row_sum":
        cover_bound = sum(cover) + rng.randint(1, 3)
    elif shape == "rational":
        pack = [Fraction(v, rng.choice([1, 2, 3])) for v in pack]
        cover = [Fraction(v, rng.choice([1, 2, 5])) for v in cover]
        pack_bound = Fraction(2 * pack_bound + 1, 2)
    return make_instance([pack], [cover], [pack_bound], [cover_bound],
                         random_oracle(rng, n, FAMILIES[rng.randrange(3)]))


def test_golden_equivalence_forbidden_family():
    rng = random.Random(20261018)
    seen = set()
    for trial in range(64):
        shape = GOLDEN_SHAPES[trial % len(GOLDEN_SHAPES)]
        inst = _golden_forbidden_instance(rng, shape)
        eps = Fraction(1, rng.choice([2, 3, 4]))
        if shape != "rational":
            res = forbidden_dp_solve(inst, eps)
            got = (res.found, res.best_set, res.best_value, res.guesses_tried)
            assert got == _ref_forbidden_solve(inst, eps), (shape, trial)
            seen.add((shape, res.found))
            # the same rows with an all-ones packing row and bound k
            k = rng.randint(0, inst.n)
            card = make_instance([[1] * inst.n], inst.covering, [k], inst.cover_bound,
                                 inst.objective)
            res = cardinality_solve(card, k)
            got = (res.found, res.best_set, res.best_value, res.guesses_tried)
            assert got == _ref_forbidden_solve(card, Fraction(1, max(2 * k, 2)),
                                               skip_guessing=True), (shape, trial, k)
            seen.add(("cardinality", k == 0))
        res = solve_polynomial(inst, 2 * eps)
        got = (res.found, res.best_set, res.best_value, res.cover_ratio, res.pack_ratio)
        assert got == _ref_polynomial(inst, 2 * eps), (shape, trial)
        seen.add(("poly", res.found))
    assert {s for s, _ in seen} >= set(GOLDEN_SHAPES) - {"rational"}
    assert {("cardinality", True), ("cardinality", False),
            ("poly", True), ("poly", False), ("plain", True)} <= seen
