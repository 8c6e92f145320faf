import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from pcsm.brute import brute_optimum, brute_pareto
from pcsm.core import LinearOracle, make_instance, mask_to_tuple, subset_key

from conftest import (
    FAMILIES,
    EvalOnlyOracle,
    naive_best,
    naive_signatures,
    random_instance,
    random_oracle,
)
from reference import gray_brute_optimum


def test_empty_ground_set():
    inst = make_instance([], [], [], [], LinearOracle([]))
    res = brute_optimum(inst)
    assert res.feasible_count == 1
    assert res.best_set == 0
    assert res.best_value == 0


def test_unconstrained_linear_takes_everything():
    n = 5
    inst = make_instance([[1] * n], [], [n], [], LinearOracle([1, 2, 3, 4, 5]))
    res = brute_optimum(inst)
    assert res.best_set == (1 << n) - 1
    assert res.best_value == 15


def test_refuses_large_n():
    inst = make_instance([], [], [], [], LinearOracle([1] * 23))
    with pytest.raises(ValueError):
        brute_optimum(inst)


@pytest.mark.parametrize("family", FAMILIES)
def test_against_double_enumeration(family):
    rng = random.Random(FAMILIES.index(family) + 10)
    for _ in range(12):
        inst = random_instance(rng, rng.randint(1, 10), p=rng.randint(0, 2),
                               c=rng.randint(0, 2), family=family)
        res = brute_optimum(inst)
        want_val, want_sub, want_count = naive_best(inst)
        assert res.feasible_count == want_count
        if want_count:
            assert res.best_value == want_val
            assert mask_to_tuple(res.best_set) == want_sub


def test_infeasible_instance_reported():
    inst = make_instance([], [[1, 1]], [], [5], LinearOracle([1, 1]))
    res = brute_optimum(inst)
    assert res.feasible_count == 0


def test_pareto_single_element():
    inst = make_instance([[2]], [[3]], [2], [0], LinearOracle([4]))
    table = brute_pareto(inst)
    assert set(table) == {((0,), (0,)), ((3,), (2,))}


def test_pareto_two_distinct_elements():
    inst = make_instance([[1, 2]], [[3, 5]], [3], [0], LinearOracle([1, 2]))
    table = brute_pareto(inst)
    assert len(table) == 4


def test_pareto_matches_double_enumeration():
    rng = random.Random(77)
    for _ in range(8):
        inst = random_instance(rng, 10, p=1, c=1,
                               family=FAMILIES[rng.randrange(3)])
        table = brute_pareto(inst)
        want = naive_signatures(inst)
        assert len(table) == len(want)
        for key, (value, mask) in table.items():
            assert want[key] == value
            cov, pak = key
            assert inst.cover_value(mask) == cov
            assert inst.pack_value(mask) == pak


def test_brute_dominates_any_feasible_set():
    rng = random.Random(30)
    inst = random_instance(rng, 9, p=1, c=1, family="coverage")
    res = brute_optimum(inst)
    for mask in range(1 << 9):
        loads_p = inst.pack_value(mask)
        loads_c = inst.cover_value(mask)
        ok = (all(l <= b for l, b in zip(loads_p, inst.pack_bound))
              and all(l >= b for l, b in zip(loads_c, inst.cover_bound)))
        if ok:
            assert inst.objective.eval(mask) <= res.best_value


def test_eval_only_oracle_matches_enumeration():
    # an oracle with nothing but eval still gets exact optima and pareto maps
    rng = random.Random(41)
    for trial in range(15):
        base = random_instance(rng, rng.randint(0, 9), p=rng.randint(0, 2),
                               c=rng.randint(0, 2), family=FAMILIES[trial % 3])
        inst = make_instance(base.packing, base.covering, base.pack_bound,
                             base.cover_bound, EvalOnlyOracle(base.objective))
        best, count, table = None, 0, {}
        for mask in range(1 << inst.n):
            value = inst.objective.eval(mask)
            cov, pak = inst.cover_value(mask), inst.pack_value(mask)
            rank = (-value, subset_key(mask))
            if (all(l <= b for l, b in zip(pak, inst.pack_bound))
                    and all(l >= b for l, b in zip(cov, inst.cover_bound))):
                count += 1
                if best is None or rank < best[0]:
                    best = (rank, mask, value)
            cur = table.get((cov, pak))
            if cur is None or rank < cur[0]:
                table[(cov, pak)] = (rank, value, mask)
        res = brute_optimum(inst)
        assert res.feasible_count == count
        if count:
            assert (res.best_set, res.best_value) == best[1:]
        assert brute_pareto(inst) == {key: entry[1:] for key, entry in table.items()}
        assert brute_optimum(base) == res


class _CountingOracle(EvalOnlyOracle):
    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0

    def eval(self, mask):
        self.calls += 1
        return super().eval(mask)


def test_eval_asked_once_per_fitting_set_and_once_per_subset_for_pareto():
    # brute_optimum asks f only of the sets that fit; brute_pareto keeps a
    # value for every load vector, so it asks f of every subset
    rng = random.Random(53)
    for trial in range(12):
        base = random_instance(rng, rng.randint(0, 9), p=rng.randint(0, 2),
                               c=rng.randint(0, 2), family=FAMILIES[trial % 3])
        oracle = _CountingOracle(base.objective)
        inst = make_instance(base.packing, base.covering, base.pack_bound,
                             base.cover_bound, oracle)
        res = brute_optimum(inst)
        assert oracle.calls == res.feasible_count
        oracle.calls = 0
        brute_pareto(inst)
        assert oracle.calls == 1 << inst.n


ENTRIES = st.one_of(st.integers(0, 9),
                    st.fractions(min_value=0, max_value=9, max_denominator=4))


@st.composite
def constrained_instances(draw, max_n=12):
    """n <= max_n, p and c in {0, 1, 2}, any family; each bound lies between
    0 and a little past its row's sum, so zero bounds, unreachable covering
    rows and slack packing rows all come up."""
    n = draw(st.integers(0, max_n))
    p, c = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    packing = [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(p)]
    covering = [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(c)]

    def bound(row):
        top = math.ceil(sum(row)) + 1
        return draw(st.one_of(st.just(0), st.fractions(min_value=0, max_value=top,
                                                       max_denominator=4)))

    oracle = random_oracle(random.Random(draw(st.integers(0, 2 ** 32))), n,
                           draw(st.sampled_from(FAMILIES)))
    return make_instance(packing, covering, [bound(r) for r in packing],
                         [bound(r) for r in covering], oracle)


@settings(max_examples=200, deadline=None)
@given(constrained_instances())
@example(make_instance([], [], [], [], LinearOracle([])))
@example(make_instance([[1, 2, 0]], [[0, 3, 1]], [0], [0], LinearOracle([4, 5, 6])))
@example(make_instance([[1, 2, 0]], [[0, 3, 1]], [3], [4], LinearOracle([4, 5, 6])))
def test_pruned_search_matches_the_gray_walk(inst):
    # the depth-first search over packing sets, with its covering cut, finds
    # the same best set, value and feasible count as a walk over all 2^n
    assert brute_optimum(inst) == gray_brute_optimum(inst)
