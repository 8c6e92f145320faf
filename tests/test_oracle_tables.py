"""The per-byte subset tables of the linear, coverage and capped-modular
oracles against their bit-by-bit methods (``reference.iter_bits_twin``):
every value must match in type and repr, alone and inside every solver
that asks the oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pcsm.brute import brute_optimum, brute_pareto
from pcsm.core import (
    ConcaveOfModularOracle,
    CoverageOracle,
    LinearOracle,
    make_instance,
)
from pcsm.forbidden_dp import forbidden_dp_solve, solve_polynomial
from pcsm.greedy_dp import dp_with_completion, vanilla_dp

from reference import iter_bits_twin

# index counts around the 8-wide blocks: none, a short block, one full
# block, one full and one short, two full, two full and one short
SIZES = (0, 1, 7, 8, 9, 16, 17)

WEIGHTS = st.one_of(
    st.integers(0, 9),
    st.fractions(min_value=0, max_value=9, max_denominator=6),
    st.sampled_from([0, Fraction(0)]),
    st.integers(0, 9).map(lambda k: f"{k}/1"),      # a Fraction with denominator 1
)


def _same(got, want):
    assert type(got) is type(want) and repr(got) == repr(want), (got, want)


@st.composite
def oracles(draw, sizes=st.sampled_from(SIZES), universes=st.sampled_from(SIZES)):
    family = draw(st.sampled_from(("linear", "coverage", "concave_of_modular")))
    n = draw(sizes)
    if family == "coverage":
        u = draw(universes)
        item = st.integers(0, u - 1) if u else st.nothing()
        sets = draw(st.lists(st.sets(item), min_size=n, max_size=n))
        return CoverageOracle(u, sets, draw(st.lists(WEIGHTS, min_size=u, max_size=u)))
    weights = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
    if family == "linear":
        return LinearOracle(weights)
    return ConcaveOfModularOracle(weights, draw(st.one_of(WEIGHTS, st.integers(0, 60))))


@settings(max_examples=300, deadline=None)
@given(oracles(), st.data())
def test_tables_match_iter_bits_methods(oracle, data):
    ref = iter_bits_twin(oracle)
    n = oracle.n
    full = (1 << n) - 1
    masks = [0, full] + data.draw(st.lists(st.integers(0, full), max_size=6))
    for mask in masks:
        _same(oracle.eval(mask), ref.eval(mask))
        state, ref_state = oracle.begin(mask), ref.begin(mask)
        _same(state, ref_state)
        for elem in range(n):
            _same(oracle.gain(state, elem), ref.gain(ref_state, elem))


OUT_OF_RANGE = [
    (LinearOracle([1, 2, 3]), 1 << 9),          # past the only block
    (LinearOracle([1, 2, 3]), 1 << 5),          # inside the short block
    (LinearOracle([1] * 8), 1 << 8),            # just past a full block
    (LinearOracle([1] * 9), 1 << 20),           # past the last block
    (LinearOracle([]), 1),
    (LinearOracle([1] * 9), -1),
    (CoverageOracle(3, [[0], [1, 2], [2]], [1, 2, 3]), 1 << 9),
    (CoverageOracle(3, [[0], [1, 2], [2]], [1, 2, 3]), 1 << 3),
    (CoverageOracle(2, [[0]] * 9, [1, 1]), 1 << 20),
    (ConcaveOfModularOracle([1, 2, 3], 4), 1 << 9),
    (ConcaveOfModularOracle([1, 2, 3], 4), 1 << 4),
    (ConcaveOfModularOracle([1] * 9, 4), 1 << 20),
]


@pytest.mark.parametrize("oracle, mask", OUT_OF_RANGE)
def test_out_of_range_mask_raises(oracle, mask):
    for orc in (oracle, iter_bits_twin(oracle)):
        with pytest.raises(IndexError):
            orc.eval(mask)
        if isinstance(orc, (CoverageOracle, ConcaveOfModularOracle)):
            with pytest.raises(IndexError):
                orc.begin(mask)


# ---------------------------------------------------------------------------
# solver level: the same instance with the bit-by-bit oracle swapped in


@st.composite
def solver_instances(draw):
    """One packing and one covering row of small ints, bounds the loads of
    a planted subset, and an objective over two blocks: n of 9-10, or a
    coverage universe of 9-17 items."""
    oracle = draw(oracles(sizes=st.integers(9, 10), universes=st.integers(9, 17)))
    n = oracle.n
    row = st.lists(st.integers(0, 5), min_size=n, max_size=n)
    pack, cover = draw(row), draw(row)
    planted = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return make_instance([pack], [cover], [sum(pack[i] for i in planted)],
                         [sum(cover[i] for i in planted)], oracle)


def _with_reference(inst):
    return make_instance(inst.packing, inst.covering, inst.pack_bound,
                         inst.cover_bound, iter_bits_twin(inst.objective))


@settings(max_examples=25, deadline=None)
@given(solver_instances())
def test_solvers_match_with_iter_bits_oracle(inst):
    ref_inst = _with_reference(inst)
    for saturate in (True, False):
        got, want = vanilla_dp(inst, saturate), vanilla_dp(ref_inst, saturate)
        assert repr(got) == repr(want)
        assert repr(got.table) == repr(want.table)
    for solve in (dp_with_completion,
                  lambda i: forbidden_dp_solve(i, Fraction(1, 4)),
                  lambda i: solve_polynomial(i, Fraction(1, 2))):
        assert repr(solve(inst)) == repr(solve(ref_inst))

    assert repr(brute_optimum(inst)) == repr(brute_optimum(ref_inst))
    assert repr(brute_pareto(inst)) == repr(brute_pareto(ref_inst))
