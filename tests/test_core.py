import ast
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import pcsm
from pcsm.core import (
    ConcaveOfModularOracle,
    CoverageOracle,
    LinearOracle,
    Params,
    better,
    instance_from_json_obj,
    instance_to_json_obj,
    is_feasible,
    iter_bits,
    load_ratios,
    make_instance,
    marginal,
    mask_of,
    normalize,
    packed_loads,
    subset_key,
    subset_less,
)

from conftest import (
    FAMILIES,
    naive_value,
    random_instance,
    random_oracle,
)


def test_marginal_linear():
    assert marginal(LinearOracle([2, 3]), 0, 1) == 3


def test_marginal_coverage():
    orc = CoverageOracle(2, [[0], [0, 1]], [1, 1])
    assert marginal(orc, mask_of([0]), 1) == 1


def test_marginal_concave_of_modular():
    orc = ConcaveOfModularOracle([5, 5], 7)
    assert marginal(orc, mask_of([0]), 1) == 2


def test_marginal_rejects_member_and_out_of_range():
    orc = LinearOracle([1, 2])
    with pytest.raises(ValueError):
        marginal(orc, mask_of([1]), 1)
    with pytest.raises(ValueError):
        marginal(orc, 0, 5)


def _old_ratios(inst, mask):
    # the rule as the CLI wrote it before load_ratios existed
    loads_p = inst.pack_value(mask)
    loads_c = inst.cover_value(mask)
    pack = max((Fraction(l) / b for l, b in zip(loads_p, inst.pack_bound) if b > 0),
               default=Fraction(0))
    cover_terms = [Fraction(l) / b for l, b in zip(loads_c, inst.cover_bound) if b > 0]
    cover = min(cover_terms) if cover_terms else None
    return cover, pack


def test_load_ratios_matches_old_rule():
    rng = random.Random(23)
    shapes = [(0, 0), (0, 2), (2, 0), (1, 1), (2, 2)]
    for trial in range(60):
        p, c = shapes[trial % len(shapes)]
        inst = random_instance(rng, rng.randint(0, 6), p=p, c=c)
        # zero out some bounds so rows without a positive bound are common
        inst = make_instance(inst.packing, inst.covering,
                             [b if rng.random() < 0.6 else 0 for b in inst.pack_bound],
                             [b if rng.random() < 0.6 else 0 for b in inst.cover_bound],
                             inst.objective)
        for mask in range(1 << inst.n):
            assert load_ratios(inst, mask) == _old_ratios(inst, mask), (trial, mask)


def test_load_ratios_without_positive_bounds():
    inst = make_instance([[1, 2]], [[3, 1]], [0], [0], LinearOracle([1, 1]))
    assert load_ratios(inst, 0b11) == (None, 0)
    inst = make_instance([], [], [], [], LinearOracle([1, 1]))
    assert load_ratios(inst, 0b11) == (None, 0)
    inst = make_instance([[1, 2], [2, 2]], [[3, 1], [1, 1]], [4, 0], [2, 4],
                         LinearOracle([1, 1]))
    assert load_ratios(inst, 0b11) == (Fraction(1, 2), Fraction(3, 4))


def _tiny(packing, covering, pack_bound, cover_bound, n=None, weights=None):
    n = n if n is not None else (len(packing[0]) if packing else len(covering[0]))
    return make_instance(packing, covering, pack_bound, cover_bound,
                         LinearOracle(weights or [1] * n))


def test_is_feasible_empty_set():
    inst = _tiny([], [], [], [], n=2)
    assert is_feasible(inst, 0).feasible


def test_is_feasible_cover_deficit():
    inst = _tiny([], [[1, 1]], [], [1])
    rep = is_feasible(inst, 0)
    assert not rep.feasible
    assert rep.cover_deficits == (1,)


def test_is_feasible_pack_violation():
    inst = _tiny([[2]], [], [1], [], n=1)
    rep = is_feasible(inst, mask_of([0]))
    assert not rep.feasible
    assert rep.pack_violations == (1,)


def test_load_ratios_feasible_set():
    inst = _tiny([[1, 1]], [[2, 1]], [2], [1])
    cover_ratio, pack_ratio = load_ratios(inst, mask_of([0]))
    assert pack_ratio <= 1
    assert cover_ratio >= 1


def test_load_ratios_empty_set_zero_cover():
    inst = _tiny([], [[3, 3]], [], [3])
    assert load_ratios(inst, 0)[0] == 0


def test_load_ratios_overpacked():
    inst = _tiny([[1, 1]], [], [1], [])
    assert load_ratios(inst, mask_of([0, 1]))[1] == 2


def test_instance_validation():
    with pytest.raises(ValueError):
        make_instance([[1, 2, 3]], [], [1], [], LinearOracle([1, 1]))
    with pytest.raises(ValueError):
        make_instance([[-1, 0]], [], [1], [], LinearOracle([1, 1]))
    with pytest.raises(ValueError):
        make_instance([[1, 1]], [], [1, 2], [], LinearOracle([1, 1]))


@pytest.mark.parametrize("family", FAMILIES)
def test_monotone_and_submodular_sampled(family):
    rng = random.Random(FAMILIES.index(family))
    for _ in range(40):
        n = rng.randint(2, 10)
        orc = random_oracle(rng, n, family)
        pool = list(range(n))
        rng.shuffle(pool)
        cut = rng.randint(0, n - 1)
        a_set = set(pool[: rng.randint(0, cut)])
        b_set = set(pool[:cut])
        x = pool[-1] if pool[-1] not in b_set else None
        if x is None:
            continue
        a, b = mask_of(a_set), mask_of(b_set)
        assert orc.eval(a) <= orc.eval(b)                    # monotone
        assert marginal(orc, a, x) >= marginal(orc, b, x)    # diminishing returns
        assert orc.eval(0) >= 0


@pytest.mark.parametrize("family", FAMILIES)
def test_eval_matches_naive_exhaustive(family):
    rng = random.Random(99)
    n = 10
    orc = random_oracle(rng, n, family)
    for mask in range(1 << n):
        subset = [i for i in range(n) if (mask >> i) & 1]
        assert orc.eval(mask) == naive_value(orc, subset)


def test_feasible_iff_profile_ratios():
    rng = random.Random(5)
    for _ in range(50):
        inst = random_instance(rng, rng.randint(1, 8), p=2, c=2)
        if any(b == 0 for b in inst.pack_bound) or any(b == 0 for b in inst.cover_bound):
            continue
        mask = rng.randrange(1 << inst.n)
        rep = is_feasible(inst, mask)
        cover_ratio, pack_ratio = load_ratios(inst, mask)
        assert rep.feasible == (pack_ratio <= 1 and cover_ratio >= 1)


def test_json_round_trip_exact():
    inst = make_instance(
        [[Fraction(1, 3), 2]], [[1, Fraction(5, 7)]], [Fraction(7, 3)], [1],
        ConcaveOfModularOracle([Fraction(1, 2), 3], Fraction(9, 4)))
    obj = instance_to_json_obj(inst)
    assert obj["packing"][0][0] == "1/3"
    assert obj["packing"][0][1] == 2
    blob = json.dumps(obj, sort_keys=True)
    back = instance_from_json_obj(json.loads(blob))
    assert instance_to_json_obj(back) == obj
    assert back.packing == inst.packing
    assert back.objective.cap == Fraction(9, 4)


def test_json_rejects_inexact_float():
    with pytest.raises(ValueError):
        instance_from_json_obj({
            "n": 1, "packing": [[0.3]], "covering": [], "pack_bound": [1],
            "cover_bound": [], "objective": {"kind": "linear", "weights": [1]},
        })


def test_normalize_preserves_feasibility():
    rng = random.Random(21)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 7), p=2, c=2)
        norm = normalize(inst)
        assert all(b == 1 for b in norm.pack_bound)
        assert all(b == 1 for b in norm.cover_bound)
        assert all(v <= 1 for row in norm.covering for v in row)
        for mask in range(1 << inst.n):
            assert is_feasible(inst, mask).feasible == is_feasible(norm, mask).feasible


def test_params_validation_and_schedule():
    p = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=2)
    assert p.alpha == Fraction(1, 125)
    assert p.beta == Fraction(1, 150)
    assert p.gamma == 125
    q = Params.from_epsilon(Fraction(1, 10), b=2)
    assert q.delta < min(Fraction(1, 30), Fraction(1, 10) / 242)
    with pytest.raises(ValueError):
        Params(epsilon=Fraction(1, 2), delta=Fraction(2), alpha=Fraction(1, 2),
               beta=Fraction(1, 2), gamma=Fraction(2))
    with pytest.raises(ValueError):
        Params(epsilon=Fraction(1, 2), delta=Fraction(1, 2), alpha=Fraction(1, 2),
               beta=Fraction(1, 2), gamma=Fraction(1, 2))


# masks with few elements make shared prefixes and equal masks likely
masks = st.one_of(st.integers(0, 63), st.integers(0, (1 << 70) - 1))


@given(masks, masks)
@example(0, 0)
@example(0, 0b100)
@example(0b100, 0)
@example(0b1011, 0b1011)
@example(0b11, 0b1011)
@example(0b1011, 0b11)
def test_subset_less_is_tuple_order(a, b):
    assert subset_less(a, b) == (subset_key(a) < subset_key(b))
    assert not subset_less(a, a)


@given(masks, st.integers(0, 71))
def test_subset_less_on_prefixes(a, k):
    # a's elements below k form a prefix of a's index tuple
    prefix = a & ((1 << k) - 1)
    assert subset_less(prefix, a) == (prefix != a) == (subset_key(prefix) < subset_key(a))
    assert not subset_less(a, prefix)


def test_better_orders_by_value_then_subset():
    assert better(0, 0b1, None)
    assert better(Fraction(5, 2), 0b11, (0b1, 2))
    assert not better(2, 0b1, (0b11, Fraction(5, 2)))
    assert better(3, 0b011, (0b101, 3))
    assert not better(3, 0b101, (0b011, 3))
    assert not better(3, 0b101, (0b101, 3))


# ---------------------------------------------------------------------------
# packed loads


@st.composite
def packed_instances(draw):
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        entry = st.fractions(min_value=0, max_value=6, max_denominator=6)
    else:
        entry = st.integers(0, 6)

    def rows():
        return [draw(st.lists(entry, min_size=n, max_size=n))
                for _ in range(draw(st.integers(0, 2)))]

    def bound(row):
        # 0, anything up to the row sum, or above it
        top = int(sum(row)) + 2
        return draw(st.one_of(st.just(0), st.integers(0, top),
                              st.fractions(min_value=0, max_value=top, max_denominator=6)))

    packing, covering = rows(), rows()
    return make_instance(packing, covering, [bound(r) for r in packing],
                         [bound(r) for r in covering], LinearOracle([1] * n))


@settings(max_examples=150, deadline=None)
@given(packed_instances())
@example(make_instance([[3, 4]], [[2, 5]], [0], [0], LinearOracle([1, 1])))
@example(make_instance([[Fraction(1, 2), 3]], [[Fraction(2, 3), 1], [1, 1]],
                       [Fraction(7, 2)], [Fraction(5, 3), 3], LinearOracle([1, 1])))
def test_packed_loads_match_exact_loads(inst):
    loads = packed_loads(inst)
    # each scaled row over its field's scale is the instance's row, and the
    # packing-field mask holds the packing fields' bits and no other
    for (_, _, _, scale), scaled, row in zip(loads.fields, loads.rows,
                                             inst.packing + inst.covering, strict=True):
        assert [Fraction(v, scale) for v in scaled] == list(row)
    assert loads.pack_fields == sum(fmask << shift
                                    for shift, fmask, _, _ in loads.fields[:inst.p])
    for mask in range(1 << inst.n):
        word = loads.start + sum(loads.offsets[i] for i in iter_bits(mask))
        cover, pack = inst.cover_value(mask), inst.pack_value(mask)
        assert loads.decode(word) == (cover, pack), mask
        assert (word & loads.guard == loads.want) == is_feasible(inst, mask).feasible, mask
        saturated = tuple(min(v, b) for v, b in zip(cover, inst.cover_bound))
        assert loads.decode(loads.clamp(word)) == (saturated, pack), mask


def test_every_export_has_a_caller_in_the_package_or_a_readme_line():
    # code that only the tests call lives under tests/: each exported name
    # is read in src/pcsm outside its own definition, or documented
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in (root / "src" / "pcsm").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            used |= {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
                     } - {getattr(node, "name", None)}
    readme = (root / "README.md").read_text(encoding="utf-8")
    # fenced blocks out first: their fences would pair off the backticks
    prose = re.sub(r"^```.*?^```.*?$", "", readme, flags=re.M | re.S)
    documented = {word for span in re.findall(r"`([^`]+)`", prose)
                  for word in re.findall(r"\w+", span)}
    assert [name for name in pcsm.__all__ if name not in used | documented] == []
