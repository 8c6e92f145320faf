import random
from fractions import Fraction
from operator import ge, le

import pytest
from hypothesis import example, given, settings, strategies as st

from pcsm.brute import brute_optimum, brute_pareto
from pcsm.core import (
    BudgetExceededError,
    LinearOracle,
    better,
    load_ratios,
    make_instance,
    marginal,
    mask_of,
    mask_to_tuple,
)
from pcsm.greedy_dp import (CompletionOutcome, dp_with_completion, scale_instance,
                            vanilla_dp)

from conftest import FAMILIES, random_instance, random_oracle, small_oracles


def test_single_element_instance():
    inst = make_instance([[1]], [[1]], [1], [1], LinearOracle([5]))
    res = vanilla_dp(inst)
    assert res.found
    assert res.best_set == mask_of([0])
    assert res.best_value == 5


def test_warmup_floor_against_brute():
    rng = random.Random(2024)
    for trial in range(40):
        inst = random_instance(rng, rng.randint(4, 10), p=1, c=1,
                               family=FAMILIES[trial % 3])
        br = brute_optimum(inst)
        if not br.feasible_count:
            continue
        res = vanilla_dp(inst)
        assert res.found
        assert 4 * res.best_value >= br.best_value
        cov = inst.cover_value(res.best_set)
        pak = inst.pack_value(res.best_set)
        assert all(2 * v >= b for v, b in zip(cov, inst.cover_bound))
        assert all(v <= b for v, b in zip(pak, inst.pack_bound))


def test_two_constraint_rows():
    rng = random.Random(8)
    for _ in range(10):
        inst = random_instance(rng, 7, p=2, c=2, max_entry=4)
        br = brute_optimum(inst)
        res = vanilla_dp(inst)
        if br.feasible_count:
            assert res.found
            assert 4 * res.best_value >= br.best_value


def test_deterministic_replay():
    rng = random.Random(12)
    inst = random_instance(rng, 8, p=1, c=1, family="coverage")
    a = vanilla_dp(inst)
    b = vanilla_dp(inst)
    assert repr(sorted(a.table.items())) == repr(sorted(b.table.items()))
    assert a.best_set == b.best_set and a.best_value == b.best_value


def test_cell_exactness_with_exact_keys():
    rng = random.Random(13)
    inst = random_instance(rng, 7, p=1, c=1)
    res = vanilla_dp(inst, saturate_cover=False)
    for (q, cov, pak), (mask, value) in res.table.items():
        assert bin(mask).count("1") == q
        assert inst.cover_value(mask) == cov
        assert inst.pack_value(mask) == pak
        assert inst.objective.eval(mask) == value


def test_pareto_dominates_cells():
    rng = random.Random(14)
    for _ in range(6):
        inst = random_instance(rng, 8, p=1, c=1, family="coverage")
        res = vanilla_dp(inst, saturate_cover=False)
        pareto = brute_pareto(inst)
        for (q, cov, pak), (mask, value) in res.table.items():
            assert pareto[(cov, pak)][0] >= value


def test_subset_value_dominates_permutation_marginals():
    # for any subset S of an optimal solution O with marginals taken along a
    # fixed permutation, f(S) >= sum of the marginals of S's elements
    rng = random.Random(55)
    for trial in range(25):
        inst = random_instance(rng, 8, p=1, c=1, family=FAMILIES[trial % 3])
        br = brute_optimum(inst)
        if not br.feasible_count:
            continue
        opt = list(mask_to_tuple(br.best_set))
        if not opt:
            continue
        rng.shuffle(opt)
        oracle = inst.objective
        g = {}
        prefix = 0
        for o in opt:
            g[o] = oracle.eval(prefix | (1 << o)) - oracle.eval(prefix)
            prefix |= 1 << o
        for _ in range(10):
            sub = [o for o in opt if rng.random() < 0.5]
            assert oracle.eval(mask_of(sub)) >= sum(g[o] for o in sub)


def test_completion_empty_set_feasible():
    inst = make_instance([[1, 1]], [[1, 1]], [2], [0], LinearOracle([3, 4]))
    res = dp_with_completion(inst)
    assert res.found
    assert all(v >= b for v, b in zip(res.cover_with_multiplicity, inst.cover_bound))


def test_completion_multiset_bounds():
    rng = random.Random(31)
    for trial in range(25):
        inst = random_instance(rng, rng.randint(3, 9), p=1, c=1,
                               family=FAMILIES[trial % 3])
        br = brute_optimum(inst)
        res = dp_with_completion(inst)
        if br.feasible_count:
            assert res.found
            assert all(v >= b for v, b in
                       zip(res.cover_with_multiplicity, inst.cover_bound))
            assert all(v <= b for v, b in
                       zip(res.pack_with_multiplicity, inst.pack_bound))
            assert res.value == inst.objective.eval(res.support)
            assert res.support == res.base_set | res.completion_set
            # completion phase never loses against the plain DP output
            assert 4 * res.value >= br.best_value


def test_completion_reports_infeasible():
    inst = make_instance([[5, 5]], [[1, 1]], [0], [2], LinearOracle([1, 1]))
    res = dp_with_completion(inst)
    assert not res.found


def test_scale_formula_single_element():
    inst = make_instance([[1]], [[4]], [1], [4], LinearOracle([1]))
    sc = scale_instance(inst, 1)
    assert sc.covering == ((1,),)
    assert sc.cover_bound == (1,)


def test_scale_preserves_optimum_feasibility():
    rng = random.Random(41)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(3, 9), p=1, c=1)
        br = brute_optimum(inst)
        if not br.feasible_count:
            continue
        sc = scale_instance(inst, Fraction(1, 2))
        mask = br.best_set
        assert all(v <= b for v, b in
                   zip(sc.pack_value(mask), sc.pack_bound))
        assert all(v >= b for v, b in
                   zip(sc.cover_value(mask), sc.cover_bound))


def test_scale_round_trip_violation_bounds():
    rng = random.Random(42)
    eps = Fraction(1, 2)
    for _ in range(15):
        inst = random_instance(rng, rng.randint(2, 8), p=1, c=1)
        if inst.pack_bound[0] == 0 or inst.cover_bound[0] == 0:
            continue
        sc = scale_instance(inst, eps)
        for mask in range(1 << inst.n):
            ok_p = all(v <= b for v, b in
                       zip(sc.pack_value(mask), sc.pack_bound))
            ok_c = all(v >= b for v, b in
                       zip(sc.cover_value(mask), sc.cover_bound))
            if ok_p and ok_c:
                cover_ratio, pack_ratio = load_ratios(inst, mask)
                assert pack_ratio <= 1 + eps
                assert cover_ratio >= 1 - eps


def test_scale_rejects_bad_epsilon():
    inst = make_instance([[1]], [[1]], [1], [1], LinearOracle([1]))
    with pytest.raises(ValueError):
        scale_instance(inst, 0)
    with pytest.raises(ValueError):
        scale_instance(inst, 2)


def test_cell_budget_guard():
    n = 24
    inst = make_instance(
        [[10 ** 4] * n] * 2, [[10 ** 4] * n] * 2,
        [10 ** 5] * 2, [10 ** 5] * 2, LinearOracle([1] * n))
    with pytest.raises(BudgetExceededError):
        vanilla_dp(inst, saturate_cover=False)


def test_cell_budget_bounds_each_row_by_its_own_sum():
    # a row of large entries must not inflate the bound of a row of ones,
    # nor a loose packing bound the table: 11 * 10001 * 11 * 6 cells fit,
    # where n * c_max per covering row made 6.6e9, and 11 * 3 * 11 cells
    # fit where a packing bound of 10^7 made 3.3e8
    n = 10
    weights = LinearOracle(list(range(n)))
    for inst, want in (
            (make_instance([[1] * n], [[1000] * n, [1] * n], [5], [2000, 2], weights),
             mask_of(range(5, 10))),
            (make_instance([[1] * n], [[1] * n], [10 ** 7], [2], weights),
             mask_of(range(n)))):
        for saturate in (False, True):
            res = vanilla_dp(inst, saturate_cover=saturate)
            assert (res.best_set, res.best_value) == (want, inst.objective.eval(want))
            assert dp_with_completion(inst, saturate_cover=saturate).found


def test_requires_integer_data():
    inst = make_instance([[Fraction(1, 2)]], [[1]], [1], [1], LinearOracle([1]))
    with pytest.raises(ValueError):
        vanilla_dp(inst)


# ---------------------------------------------------------------------------
# golden equivalence: the table DP and the completion phase against the
# straightforward versions (tuple tie-break, quadratic completion scan)


def _ref_key(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _ref_vanilla_table(inst, saturate_cover):
    packing = [[int(v) for v in row] for row in inst.packing]
    covering = [[int(v) for v in row] for row in inst.covering]
    p_bound = [int(b) for b in inst.pack_bound]
    c_bound = [int(b) for b in inst.cover_bound]
    oracle, n, p, c = inst.objective, inst.n, inst.p, inst.c
    zero = ((0,) * c, (0,) * p)
    layer = {zero: (0, oracle.eval(0))}
    table = {(0,) + zero: layer[zero]}
    for q in range(n):
        nxt = {}
        for (cov, pak), (mask, value) in layer.items():
            for elem in range(n):
                bit = 1 << elem
                if mask & bit:
                    continue
                new_pak = tuple(pak[i] + packing[i][elem] for i in range(p))
                if any(new_pak[i] > p_bound[i] for i in range(p)):
                    continue
                new_cov = tuple(cov[j] + covering[j][elem] for j in range(c))
                if saturate_cover:
                    new_cov = tuple(min(v, b) for v, b in zip(new_cov, c_bound))
                new_value = value + marginal(oracle, mask, elem)
                key = (new_cov, new_pak)
                cur = nxt.get(key)
                if (cur is None or new_value > cur[1]
                        or (new_value == cur[1]
                            and _ref_key(mask | bit) < _ref_key(cur[0]))):
                    nxt[key] = (mask | bit, new_value)
        for key, entry in nxt.items():
            table[(q + 1,) + key] = entry
        layer = nxt
        if not layer:
            break
    best = None
    for (q, cov, pak), (mask, value) in table.items():
        if (all(2 * v >= b for v, b in zip(cov, c_bound))
                and all(v <= b for v, b in zip(pak, p_bound))):
            if (best is None or value > best[1]
                    or (value == best[1] and _ref_key(mask) < _ref_key(best[0]))):
                best = (mask, value)
    return table, best


def _ref_reachable(inst):
    p_bound = [int(b) for b in inst.pack_bound]
    c_bound = [int(b) for b in inst.cover_bound]
    states = {((0,) * inst.p, (0,) * inst.c): 0}
    for elem in range(inst.n):
        updates = {}
        for (pak, cov), mask in states.items():
            new_pak = tuple(v + int(row[elem]) for v, row in zip(pak, inst.packing))
            if any(v > b for v, b in zip(new_pak, p_bound)):
                continue
            new_cov = tuple(min(v + int(row[elem]), b)
                            for v, row, b in zip(cov, inst.covering, c_bound))
            key = (new_pak, new_cov)
            if key not in states and key not in updates:
                updates[key] = mask | (1 << elem)
        states.update(updates)
    return states


def _ref_completion(inst, saturate_cover):
    table, _ = _ref_vanilla_table(inst, saturate_cover)
    completions = _ref_reachable(inst)
    p_bound = [int(b) for b in inst.pack_bound]
    c_bound = [int(b) for b in inst.cover_bound]
    best, valid = None, 0
    for (q, cov, pak), (mask, value) in table.items():
        witness = None
        for (cpak, ccov), cmask in completions.items():
            if (all(a + b <= bound for a, b, bound in zip(cpak, pak, p_bound))
                    and all(a + b >= bound for a, b, bound in zip(ccov, cov, c_bound))):
                if witness is None or _ref_key(cmask) < _ref_key(witness):
                    witness = cmask
        if witness is None:
            continue
        valid += 1
        support = mask | witness
        val = inst.objective.eval(support)
        if (best is None or val > best[0]
                or (val == best[0] and _ref_key(support) < _ref_key(best[3]))):
            best = (val, mask, witness, support)
    return best, valid, len(table)


def _golden_cases():
    rng = random.Random(20240611)
    for trial in range(60):
        p = 1 + trial % 2
        c = 1 + (trial // 2) % 2
        family = FAMILIES[(trial // 4) % 3]
        n = 6 + (trial * 5) % 6
        saturate = trial % 12 < 6
        # small entries and weights make equal-value cells, so ties are common
        yield random_instance(rng, n, p=p, c=c, family=family,
                              max_entry=3 if p + c > 2 else 5), saturate


def test_golden_equivalence_table_and_completion():
    seen = set()
    for inst, saturate in _golden_cases():
        seen.add((inst.n, inst.p, inst.c, inst.objective.kind, saturate))
        ref_table, ref_best = _ref_vanilla_table(inst, saturate)
        res = vanilla_dp(inst, saturate_cover=saturate)
        assert res.table == ref_table
        assert res.cells_populated == len(ref_table)
        assert res.found == (ref_best is not None)
        if ref_best is not None:
            assert (res.best_set, res.best_value) == ref_best

        ref, valid, cells = _ref_completion(inst, saturate)
        out = dp_with_completion(inst, saturate_cover=saturate)
        assert out.valid_cells == valid
        assert out.cells_populated == cells
        assert out.found == (ref is not None)
        if ref is None:
            assert (out.base_set, out.completion_set, out.support, out.value) == (0, 0, 0, 0)
            continue
        val, mask, witness, support = ref
        assert (out.value, out.base_set, out.completion_set, out.support) == \
            (val, mask, witness, support)
        assert out.cover_with_multiplicity == tuple(
            a + b for a, b in zip(inst.cover_value(mask), inst.cover_value(witness)))
        assert out.pack_with_multiplicity == tuple(
            a + b for a, b in zip(inst.pack_value(mask), inst.pack_value(witness)))
    assert {s[0] for s in seen} == set(range(6, 12))
    assert {(s[1], s[2]) for s in seen} == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert {s[3] for s in seen} == set(FAMILIES)
    assert {s[4] for s in seen} == {True, False}


@st.composite
def dp_instances(draw):
    """n <= 9, p and c in {0, 1, 2} with small entries (zero rows come up),
    bounds from 0 to a little past the row sum, and small, often rational,
    weights, so many sets share a cell and tie on value."""
    n = draw(st.integers(0, 9))
    entries = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    packing = [draw(entries) for _ in range(draw(st.integers(0, 2)))]
    covering = [draw(entries) for _ in range(draw(st.integers(0, 2)))]

    def bounds(rows):
        return [draw(st.integers(0, sum(row) + 1)) for row in rows]

    return make_instance(packing, covering, bounds(packing), bounds(covering),
                         draw(small_oracles(n)))


@settings(max_examples=200, deadline=None)
@given(dp_instances(), st.booleans())
# no packing row: one fit list, holding every element
@example(make_instance([], [[1, 2, 0, 1, 3]], [], [3],
                       LinearOracle([1, 1, 2, 0, 1])), True)
# a zero packing bound: its row's positive entries never fit
@example(make_instance([[1, 0, 2, 1, 0], [0, 1, 1, 0, 2]], [[1, 1, 1, 0, 2]],
                       [2, 0], [2], LinearOracle([1, 2, 1, 1, 1])), False)
def test_table_matches_the_reference_in_order(inst, saturate):
    # each child set is offered to a layer once; the first route's candidate
    # is every route's, so the table and its insertion order do not change;
    # a cell walks only the elements that fit its packing fields
    ref_table, _ = _ref_vanilla_table(inst, saturate)
    assert list(vanilla_dp(inst, saturate_cover=saturate).table.items()) == \
        list(ref_table.items())


@settings(max_examples=200, deadline=None)
@given(dp_instances(), st.booleans())
def test_completion_matches_the_reference(inst, saturate):
    # witnesses dominated by an earlier one are never a cell's first fit,
    # and a support is asked of f once, so every field stays the quadratic
    # scan's
    ref, valid, cells = _ref_completion(inst, saturate)
    if ref is None:
        want = CompletionOutcome(False, 0, 0, 0, 0, (), (), 0, cells)
    else:
        val, mask, witness, support = ref
        want = CompletionOutcome(
            True, mask, witness, support, val,
            tuple(a + b for a, b in zip(inst.cover_value(mask), inst.cover_value(witness))),
            tuple(a + b for a, b in zip(inst.pack_value(mask), inst.pack_value(witness))),
            valid, cells)
    assert dp_with_completion(inst, saturate_cover=saturate) == want


@settings(max_examples=200, deadline=None)
@given(dp_instances(), st.booleans())
def test_cell_values_are_exact(inst, saturate):
    # a cell's value is f of its set whatever route reached it: what lets a
    # layer skip a child set it has already been offered
    for mask, value in vanilla_dp(inst, saturate_cover=saturate).table.values():
        assert value == inst.objective.eval(mask)


# ---------------------------------------------------------------------------
# degenerate shapes: the packed-load solvers against per-row tuple code
# (same values, same table order): a Gray-code walk for brute force, and the
# golden references above for the DP table and the completion phase


def _tuple_walk(inst):
    """Gray-code walk with per-row load lists: (mask, cover, pack, value)."""
    pack, cover = [0] * inst.p, [0] * inst.c
    mask = 0
    yield mask, tuple(cover), tuple(pack), inst.objective.eval(0)
    for step in range(1, 1 << inst.n):
        elem = (step & -step).bit_length() - 1
        mask ^= 1 << elem
        sign = 1 if mask >> elem & 1 else -1
        for i, row in enumerate(inst.packing):
            pack[i] += sign * row[elem]
        for j, row in enumerate(inst.covering):
            cover[j] += sign * row[elem]
        yield mask, tuple(cover), tuple(pack), inst.objective.eval(mask)


def _tuple_brute(inst):
    best, count, table = None, 0, {}
    for mask, cov, pak, value in _tuple_walk(inst):
        if (all(map(le, pak, inst.pack_bound))
                and all(map(ge, cov, inst.cover_bound))):
            count += 1
            if better(value, mask, best):
                best = (mask, value)
        if better(value, mask, table.get((cov, pak))):
            table[(cov, pak)] = (mask, value)
    optimum = (0, 0, 0) if best is None else (best[1], best[0], count)
    return optimum, {key: (value, mask) for key, (mask, value) in table.items()}


DEGENERATE_SHAPES = ("n0", "p0", "c0", "pack_bound_0", "cover_bound_0",
                     "cover_above_row_sum", "rational_rows")


def _degenerate_instance(rng, shape):
    n = 0 if shape == "n0" else rng.randint(1, 6)

    def row():
        return [rng.randint(0, 4) for _ in range(n)]

    packing, covering = [row()], [row(), row()]
    pack_bound = [rng.randint(0, 8)]
    cover_bound = [rng.randint(0, 6), rng.randint(0, 6)]
    if shape == "n0":
        cover_bound = [0, 1]
    elif shape == "p0":
        packing, pack_bound = [], []
    elif shape == "c0":
        covering, cover_bound = [], []
    elif shape == "pack_bound_0":
        pack_bound = [0]
    elif shape == "cover_bound_0":
        cover_bound[0] = 0
    elif shape == "cover_above_row_sum":
        cover_bound[0] = sum(covering[0]) + rng.randint(1, 3)
    elif shape == "rational_rows":
        packing[0] = [Fraction(rng.randint(0, 8), rng.choice([1, 2, 3, 6]))
                      for _ in range(n)]
        covering[0] = [Fraction(rng.randint(0, 8), rng.choice([1, 2, 5]))
                       for _ in range(n)]
        pack_bound = [Fraction(2 * rng.randint(0, 6) + 1, 4)]
        cover_bound[0] = Fraction(rng.randint(0, 9), 3)
    return make_instance(packing, covering, pack_bound, cover_bound,
                         random_oracle(rng, n, FAMILIES[rng.randrange(3)]))


@pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
def test_degenerate_shapes_match_tuple_code(shape):
    rng = random.Random(shape)
    for _ in range(12):
        inst = _degenerate_instance(rng, shape)
        optimum, pareto = _tuple_brute(inst)
        res = brute_optimum(inst)
        assert (res.best_value, res.best_set, res.feasible_count) == optimum
        assert list(brute_pareto(inst).items()) == list(pareto.items())
        if shape == "rational_rows":
            continue                # the DPs take integer data only
        for saturate in (True, False):
            table, best = _ref_vanilla_table(inst, saturate)
            out = vanilla_dp(inst, saturate_cover=saturate)
            assert list(out.table.items()) == list(table.items())
            assert (out.found, out.best_set, out.best_value) == (
                (False, 0, 0) if best is None else (True, *best))
            best, valid, _cells = _ref_completion(inst, saturate)
            out = dp_with_completion(inst, saturate_cover=saturate)
            assert out.valid_cells == valid and out.cells_populated == len(table)
            assert (out.support, out.value, out.base_set, out.completion_set) == (
                (0, 0, 0, 0) if best is None else (best[3], *best[:3]))
