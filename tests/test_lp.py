import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pcsm.lp import (
    UB_ALPHA,
    UB_BETA,
    UB_GAMMA,
    _Builder,
    _float_rat,
    _float_weight,
    analytic_dual_witness,
    analytic_primal_witness,
    build_dual,
    build_lp,
    build_lp_f,
    check_exact,
    closed_form_optimum,
    linear_max_over_polytope,
    prepare_polytope,
    simplex_solve,
    upper_bound_point,
    verify_upper_bound_construction,
)

from conftest import polytope_lp_by_vertices
from reference import upper_bound_value_formula


def _lp(sense, variables, objective, constraints):
    bld = _Builder(sense)
    for v in variables:
        bld.var(v)
    bld.set_objective(objective)
    for coeffs, rel, rhs in constraints:
        bld.add(coeffs, rel, rhs)
    return bld.build()


def test_simplex_box():
    lp = _lp("max", ["x"], {"x": 1}, [({"x": 1}, "<=", 1)])
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)


def test_simplex_infeasible():
    lp = _lp("max", ["x"], {"x": 1},
             [({"x": 1}, "<=", 1), ({"x": 1}, ">=", 2)])
    assert simplex_solve(lp).status == "infeasible"


def test_simplex_unbounded():
    lp = _lp("max", ["x"], {"x": 1}, [({"x": 1}, ">=", 1)])
    assert simplex_solve(lp).status == "unbounded"


def test_simplex_degenerate_equality():
    lp = _lp("min", ["x", "y"], {"x": 1, "y": 1},
             [({"x": 1, "y": 1}, "==", 2), ({"x": 1}, ">=", 1)])
    sol = simplex_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 50])
def test_lp_closed_form(m):
    sol = simplex_solve(build_lp(m))
    assert sol.status == "optimal"
    assert abs(sol.objective - float(closed_form_optimum(m))) < 1e-7


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 25, 50])
def test_strong_duality(m):
    primal = simplex_solve(build_lp(m))
    dual = simplex_solve(build_dual(m))
    assert abs(primal.objective - dual.objective) < 1e-7


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 50])
def test_analytic_witnesses_exact(m):
    want = closed_form_optimum(m)
    primal = check_exact(build_lp(m), analytic_primal_witness(m))
    assert primal.feasible and primal.max_violation == 0
    assert primal.objective == want
    dual = check_exact(build_dual(m), analytic_dual_witness(m))
    assert dual.feasible and dual.max_violation == 0
    assert dual.objective == want


def test_lpf_small_values():
    assert abs(simplex_solve(build_lp_f(2)).objective - 0.25) < 1e-6
    assert abs(simplex_solve(build_lp_f(5)).objective - 0.31727598) < 1e-6


def test_lpf_monotone_in_m_and_below_lp():
    values = {}
    for m in (2, 3, 5, 8, 10):
        values[m] = simplex_solve(build_lp_f(m)).objective
        plain = simplex_solve(build_lp(m)).objective
        assert values[m] <= plain + 1e-9
    ordered = [values[m] for m in (2, 3, 5, 8, 10)]
    assert ordered == sorted(ordered)


def test_lp_restriction_embeds_into_lpf():
    # the plain program's analytic solution, padded with zero forbidden-set
    # variables and b = a, is feasible for the richer program
    m = 6
    point = {f"{k}": v for k, v in analytic_primal_witness(m).items()}
    point["a0"] = point["o0"] = Fraction(0)
    for i in range(m + 1):
        point[f"f{i}"] = point[f"g{i}"] = Fraction(0)
        point[f"b{i}"] = point[f"a{i}"]
    point["c"] = max(point[f"b{i}"] for i in range(m + 1))
    check = check_exact(build_lp_f(m), point)
    assert check.feasible
    assert check.objective == closed_form_optimum(m)


@pytest.mark.parametrize("m", [4, 10, 20])
def test_upper_bound_construction(m):
    res = verify_upper_bound_construction(m)
    assert res.feasible, res.violated
    assert res.objective == upper_bound_value_formula(m)
    assert res.objective < Fraction("0.3647")
    # any feasible point upper-bounds the minimum
    assert simplex_solve(build_lp_f(m)).objective <= float(res.objective) + 1e-9


def test_upper_bound_rejects_odd_m():
    with pytest.raises(ValueError):
        upper_bound_point(5)
    with pytest.raises(ValueError):
        upper_bound_point(2)


def test_upper_bound_parameters_are_the_published_ones():
    assert (UB_ALPHA, UB_BETA, UB_GAMMA) == (
        Fraction(5, 8), Fraction(517, 10000), Fraction(647, 10000))


def test_polytope_direction_no_constraints():
    status, x = linear_max_over_polytope([1.0, 1.0], [], [], [], [])
    assert status == "optimal"
    assert x == [1.0, 1.0]


def test_polytope_direction_single_packing_row():
    status, x = linear_max_over_polytope([2.0, 1.0], [[1, 1]], [1], [], [])
    assert status == "optimal"
    assert x == pytest.approx([1.0, 0.0])


def test_polytope_direction_infeasible():
    status, x = linear_max_over_polytope([1.0], [[1]], [0], [[1]], [1])
    assert status == "infeasible"
    assert x is None


def test_polytope_direction_against_vertex_enumeration():
    rng = random.Random(90)
    for _ in range(25):
        n = rng.randint(1, 4)
        p = rng.randint(0, 2)
        c = rng.randint(0, 1)
        weights = [Fraction(rng.randint(-3, 6)) for _ in range(n)]
        pack_rows = [[Fraction(rng.randint(0, 3)) for _ in range(n)] for _ in range(p)]
        pack_bounds = [Fraction(rng.randint(1, 4)) for _ in range(p)]
        cover_rows = [[Fraction(rng.randint(0, 2)) for _ in range(n)] for _ in range(c)]
        cover_bounds = [Fraction(rng.randint(0, 2)) for _ in range(c)]
        status, x = linear_max_over_polytope(
            [float(w) for w in weights], pack_rows, pack_bounds,
            cover_rows, cover_bounds)
        want = polytope_lp_by_vertices(weights, pack_rows, pack_bounds,
                                       cover_rows, cover_bounds, n)
        if want is None:
            assert status == "infeasible"
        else:
            assert status == "optimal"
            got = sum(float(w) * v for w, v in zip(weights, x))
            assert got == pytest.approx(float(want), abs=1e-7)


_ENTRY = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(1, 3),
                          Fraction(5, 2), Fraction(7)])


@st.composite
def _origin_programs(draw):
    """(n, packing rows, packing rhs, covering rows): n <= 8, at most three
    rows of each kind, packing rhs >= 0 (exact 0 included), and at most one
    covering row with a non-zero entry; every covering rhs is 0."""
    n, p, c = draw(st.integers(0, 8)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    pack_rows = [draw(st.lists(_ENTRY, min_size=n, max_size=n)) for _ in range(p)]
    pack_bounds = [draw(st.sampled_from([Fraction(0), Fraction(1, 7), Fraction(1), 3]))
                   for _ in range(p)]
    live = draw(st.integers(0, c))
    cover_rows = [draw(st.lists(_ENTRY, min_size=n, max_size=n)) if j == live
                  else [Fraction(0)] * n for j in range(c)]
    return n, pack_rows, pack_bounds, cover_rows


@settings(max_examples=200, deadline=None)
@given(_origin_programs())
def test_zero_weights_over_zero_covering_bounds_give_the_origin(program):
    # every phase-1 pivot is degenerate (the one non-zero covering row has
    # rhs 0), so phase 2 on zero weights stops at the origin: +0.0 bits
    n, pack_rows, pack_bounds, cover_rows = program
    polytope = prepare_polytope(n, pack_rows, pack_bounds, cover_rows, [0] * len(cover_rows))
    assert polytope is not None
    status, x = polytope.maximize([0.0] * n)
    assert status == "optimal"
    assert [v.hex() for v in x] == [(0.0).hex()] * n


# signed zeros, decimals and thirds, dyadics on both sides of the 10**12
# denominator cut, subnormals, the smallest normal and huge magnitudes
_WEIGHTS = [0.0, -0.0, 0.1, -0.1, 1 / 3, 2 / 3, 0.5, 0.375, 2.0 ** -39, -2.0 ** -40,
            2.0 ** -41, 1e-12, 3.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
            1e300, -1e300, 1.7976931348623157e308]


@pytest.mark.parametrize("w", _WEIGHTS, ids=repr)
def test_float_weight_matches_the_fraction_rounding_bit_for_bit(w):
    assert _float_weight(w).hex() == float(_float_rat(w)).hex()


@pytest.mark.parametrize("w", [float("inf"), float("-inf"), float("nan")], ids=repr)
def test_float_weight_raises_as_the_fraction_rounding_does(w):
    with pytest.raises(Exception) as want:
        float(_float_rat(w))
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        _float_weight(w)
