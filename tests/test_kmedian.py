import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from pcsm.core import iter_bits, mask_of
from pcsm.kmedian import (
    MatchOracle,
    TwoDistInstance,
    match_assignment,
    match_value,
    solve_two_distance,
    two_dist_from_json_obj,
)

from reference import dinic_match_value


def rand_two_dist(rng, max_side=7, a=1, b=3, edge_p=0.45):
    nf = rng.randint(1, max_side)
    nc = rng.randint(1, max_side)
    caps = tuple(rng.randint(1, 4) for _ in range(nf))
    pairs = frozenset((c, f) for c in range(nc) for f in range(nf)
                      if rng.random() < edge_p)
    return TwoDistInstance(caps, nc, pairs, a, b, rng.randint(1, nf))


def brute_cost(inst):
    """min over feasible open sets of a*matched + b*(n - matched)."""
    best = None
    for r in range(inst.k + 1):
        for combo in combinations(range(inst.num_facilities), r):
            if sum(inst.capacities[f] for f in combo) < inst.num_clients:
                continue
            m = match_value(inst, mask_of(combo))
            cost = inst.a * m + inst.b * (inst.num_clients - m)
            if best is None or cost < best:
                best = cost
    return best


def naive_match(inst, facs):
    """Max near-distance assignment by trying every client->facility map."""
    facs = list(facs)
    if not facs:
        return 0
    best = 0
    options = [[f for f in facs if (c, f) in inst.near_pairs] + [None]
               for c in range(inst.num_clients)]

    def rec(c, load, served):
        nonlocal best
        if c == inst.num_clients:
            best = max(best, served)
            return
        if served + (inst.num_clients - c) <= best:
            return
        for f in options[c]:
            if f is None:
                rec(c + 1, load, served)
            elif load[f] < inst.capacities[f]:
                load[f] += 1
                rec(c + 1, load, served + 1)
                load[f] -= 1

    rec(0, Counter(), 0)
    return best


def test_match_value_empty():
    inst = TwoDistInstance((2,), 3, frozenset((c, 0) for c in range(3)), 1, 3, 1)
    assert match_value(inst, 0) == 0


def test_match_value_capacity_binds():
    inst = TwoDistInstance((2,), 3, frozenset((c, 0) for c in range(3)), 1, 3, 1)
    assert match_value(inst, 0b1) == 2


def test_match_value_against_assignment_enumeration():
    rng = random.Random(500)
    for _ in range(30):
        inst = rand_two_dist(rng, max_side=5)
        for _ in range(4):
            facs = [f for f in range(inst.num_facilities) if rng.random() < 0.6]
            assert match_value(inst, mask_of(facs)) == naive_match(inst, facs)


def test_match_value_monotone_submodular():
    rng = random.Random(501)
    for _ in range(20):
        inst = rand_two_dist(rng, max_side=6)
        oracle = MatchOracle(inst)
        nf = inst.num_facilities
        pool = list(range(nf))
        rng.shuffle(pool)
        cut = rng.randint(0, nf - 1)
        a = mask_of(pool[: rng.randint(0, cut)])
        b = mask_of(pool[:cut])
        x = pool[-1]
        if (b >> x) & 1:
            continue
        assert oracle.eval(a) <= oracle.eval(b)
        bit = 1 << x
        assert (oracle.eval(a | bit) - oracle.eval(a)
                >= oracle.eval(b | bit) - oracle.eval(b))


def test_all_near_ample_capacity():
    inst = TwoDistInstance((5, 5), 4,
                           frozenset((c, f) for c in range(4) for f in range(2)),
                           1, 3, 1)
    res = solve_two_distance(inst)
    assert res.found and res.matched == 4 and res.cost == 4


def test_cost_identity_and_assignment_validity():
    rng = random.Random(502)
    for _ in range(40):
        inst = rand_two_dist(rng)
        res = solve_two_distance(inst)
        bc = brute_cost(inst)
        if bc is None:
            assert not res.found
            continue
        assert res.found
        assert res.cost == inst.b * inst.num_clients - (inst.b - inst.a) * res.matched
        assert len(res.assignment) == inst.num_clients
        load = Counter(res.assignment.values())
        for f, used in load.items():
            assert (res.open_mask >> f) & 1
            assert used <= inst.capacities[f]
        assert bin(res.open_mask).count("1") <= inst.k


def test_ratio_bound_small_batch():
    rng = random.Random(503)
    for _ in range(40):
        inst = rand_two_dist(rng)
        res = solve_two_distance(inst)
        bc = brute_cost(inst)
        if bc is None:
            continue
        assert res.cost <= 2.294 * bc + 1e-9
        # warm-up consequence of the 0.25 floor at a=1
        assert res.cost <= (0.75 * inst.b + 0.25) * bc + 1e-9


def test_infeasible_capacity():
    inst = TwoDistInstance((1, 1), 3, frozenset(), 1, 3, 2)
    assert not solve_two_distance(inst).found


def test_zero_near_distance_cluster_dp_exact():
    rng = random.Random(504)
    for _ in range(25):
        ncl = rng.randint(1, 3)
        caps, pairs, fid, cid = [], [], 0, 0
        for _ in range(ncl):
            nf, nc = rng.randint(0, 3), rng.randint(0, 3)
            fs = list(range(fid, fid + nf))
            cs = list(range(cid, cid + nc))
            caps += [rng.randint(1, 4) for _ in fs]
            pairs += [(c, f) for c in cs for f in fs]
            fid += nf
            cid += nc
        if fid == 0:
            continue
        inst = TwoDistInstance(tuple(caps), cid, frozenset(pairs), 0,
                               rng.randint(1, 9), rng.randint(1, fid))
        res = solve_two_distance(inst)
        bc = brute_cost(inst)
        if bc is None:
            assert not res.found
        else:
            assert res.cost == bc


def test_far_regime_cluster_dp_exact():
    rng = random.Random(505)
    for _ in range(25):
        caps, pairs, fid, cid = [], [], 0, 0
        for _ in range(rng.randint(1, 3)):
            nf, nc = rng.randint(0, 3), rng.randint(0, 3)
            fs = list(range(fid, fid + nf))
            cs = list(range(cid, cid + nc))
            caps += [rng.randint(1, 4) for _ in fs]
            pairs += [(c, f) for c in cs for f in fs]
            fid += nf
            cid += nc
        if fid == 0:
            continue
        inst = TwoDistInstance(tuple(caps), cid, frozenset(pairs), 1, 5,
                               rng.randint(1, fid))
        res = solve_two_distance(inst)
        bc = brute_cost(inst)
        if bc is None:
            assert not res.found
        else:
            assert res.cost == bc


def test_far_regime_rejects_non_metric():
    # two clients sharing facility 0, but only one near facility 1: with
    # b > 3a the triangle inequality forces complete clusters
    inst = TwoDistInstance((2, 2), 2,
                           frozenset([(0, 0), (1, 0), (0, 1)]), 1, 5, 2)
    with pytest.raises(ValueError):
        solve_two_distance(inst)


def test_equal_distances_degenerate():
    inst = TwoDistInstance((3, 1), 3,
                           frozenset([(0, 0), (1, 0)]), 2, 2, 1)
    res = solve_two_distance(inst)
    assert res.found
    assert res.cost == 2 * 3


def test_json_schema():
    obj = {"facilities": [{"cap": 2}, {"cap": 1}], "clients": 2,
           "dist_a_pairs": [[0, 0], [1, 1]], "a": 1, "b": 3, "k": 2}
    inst = two_dist_from_json_obj(obj)
    assert inst.capacities == (2, 1)
    assert (0, 0) in inst.near_pairs
    res = solve_two_distance(inst)
    assert res.found and res.cost == 2


@st.composite
def open_sets(draw, max_nf=9, max_nc=12):
    """A two-distance instance with nf <= 9 facilities and nc <= 12 clients,
    and a set of open facilities."""
    nf = draw(st.integers(1, max_nf))
    nc = draw(st.integers(0, max_nc))
    caps = tuple(draw(st.lists(st.integers(1, 4), min_size=nf, max_size=nf)))
    pairs = frozenset(draw(st.sets(st.tuples(st.integers(0, nc - 1), st.integers(0, nf - 1)),
                                   max_size=nc * nf))) if nc else frozenset()
    inst = TwoDistInstance(caps, nc, pairs, 1, 3, nf)
    return inst, draw(st.integers(0, (1 << nf) - 1))


def _maximum_assignment_problems(inst, f_mask, assign) -> list:
    """What keeps ``assign`` from being a maximum near assignment into the
    open facilities ``f_mask``."""
    problems = []
    if len(assign) != dinic_match_value(inst, f_mask):
        problems.append("not maximum")
    if list(assign) != sorted(assign):
        problems.append("not in client order")
    if any((cl, f) not in inst.near_pairs for cl, f in assign.items()):
        problems.append("a far pair")
    if any(not f_mask >> f & 1 for f in assign.values()):
        problems.append("a closed facility")
    if any(used > inst.capacities[f] for f, used in Counter(assign.values()).items()):
        problems.append("over capacity")
    return problems


def _greedy_assignment(inst, f_mask):
    """Each client in turn to its first open near facility with room, and
    no client is ever moved."""
    load, assign = Counter(), {}
    for cl in range(inst.num_clients):
        for f in iter_bits(f_mask):
            if (cl, f) in inst.near_pairs and load[f] < inst.capacities[f]:
                load[f] += 1
                assign[cl] = f
                break
    return assign


@settings(max_examples=300, deadline=None)
@given(open_sets())
def test_match_value_equals_the_max_flow(case):
    inst, f_mask = case
    assert match_value(inst, f_mask) == dinic_match_value(inst, f_mask)


@settings(max_examples=300, deadline=None)
@given(open_sets())
def test_match_assignment_is_a_maximum_near_assignment(case):
    inst, f_mask = case
    assert _maximum_assignment_problems(inst, f_mask, match_assignment(inst, f_mask)) == []


def test_greedy_matching_without_rerouting_fails_the_property():
    # the property sees the difference between a maximal and a maximum
    # matching: the search finds a case where greedy leaves a client out
    inst, f_mask = find(open_sets(), lambda case: _maximum_assignment_problems(
        *case, _greedy_assignment(*case)) != [],
        settings=settings(max_examples=2000, phases=[Phase.generate], database=None,
                          derandomize=True))
    assert match_value(inst, f_mask) > len(_greedy_assignment(inst, f_mask))


def test_near_masks_stay_out_of_equality_hash_and_repr():
    one = TwoDistInstance((2, 1), 2, frozenset([(0, 0), (1, 1)]), 1, 3, 2)
    two = TwoDistInstance((2, 1), 2, frozenset([(1, 1), (0, 0)]), 1, 3, 2)
    assert one.near_masks == (0b01, 0b10)
    assert one == two and hash(one) == hash(two)
    assert "near_masks" not in repr(one)
