import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from operator import ge
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from pcsm import continuous as cont
from pcsm.brute import brute_optimum
from pcsm.continuous import (
    Guess,
    GuessInfeasibleError,
    GuessList,
    continuous_greedy,
    enumerate_guesses,
    fractional_knapsack_max,
    round_and_filter,
    solve_main,
)
from pcsm.core import (
    CoverageOracle,
    LinearOracle,
    Params,
    better,
    iter_bits,
    make_instance,
    marginal,
    mask_of,
    normalize,
    subset_less,
)
from pcsm.lp import (
    TOL_FEAS,
    _Builder,
    _float_rat,
    linear_max_over_polytope,
    prepare_polytope,
    simplex_solve,
)

from conftest import FAMILIES, exact_multilinear, random_instance, random_oracle
from reference import (
    MARGIN,
    correct_guess_for,
    filtered_chosen_sets,
    greedy_marginal_order,
    is_correct,
    multilinear_estimate,
    multiplied_target_grid,
    per_pair_solve_main,
    polytope_surely_empty,
    repeats,
    residual_objective,
    row_reaches,
)

RELAXED = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=2)


def _norm_instance(seed, n=7, family="coverage"):
    rng = random.Random(seed)
    return normalize(random_instance(rng, n, p=1, c=1, family=family))


def _guess(inst, chosen, discarded, targets, params=RELAXED):
    return Guess(instance=inst, chosen=chosen, discarded=discarded,
                 cover_targets=targets, params=params)


# ---------------------------------------------------------------------------
# residual objective


def test_residual_objective_empty_is_zero():
    inst = _norm_instance(1)
    g = _guess(inst, chosen=0b11, discarded=0b100, targets=(Fraction(1),))
    assert residual_objective(g, 0) == 0


def test_residual_objective_without_chosen_equals_f():
    inst = _norm_instance(2)
    g = _guess(inst, chosen=0, discarded=0, targets=(Fraction(1),))
    f = inst.objective
    for mask in (0b1, 0b101, 0b11010):
        assert residual_objective(g, mask) == f.eval(mask) - f.eval(0)


def test_residual_objective_rejects_overlap():
    inst = _norm_instance(3)
    g = _guess(inst, chosen=0b1, discarded=0b10, targets=(Fraction(1),))
    with pytest.raises(ValueError):
        residual_objective(g, 0b1)
    with pytest.raises(ValueError):
        residual_objective(g, 0b10)


def test_residual_objective_submodular_sampled():
    rng = random.Random(4)
    for trial in range(20):
        inst = _norm_instance(100 + trial, family=FAMILIES[trial % 3])
        n = inst.n
        chosen = rng.randrange(1 << n)
        rest = [i for i in range(n) if not (chosen >> i) & 1]
        g = _guess(inst, chosen=chosen, discarded=0,
                   targets=(Fraction(1),) * inst.c)
        if len(rest) < 3:
            continue
        rng.shuffle(rest)
        x = rest[-1]
        cut = rng.randint(0, len(rest) - 1)
        a = mask_of(rest[: rng.randint(0, cut)])
        b = mask_of(rest[:cut])
        ga = residual_objective(g, a | (1 << x)) - residual_objective(g, a)
        gb = residual_objective(g, b | (1 << x)) - residual_objective(g, b)
        assert ga >= gb
        assert residual_objective(g, a) <= residual_objective(g, b)


# ---------------------------------------------------------------------------
# multilinear estimation


def test_estimate_all_zero_is_exact():
    orc = random_oracle(random.Random(5), 6, "coverage")
    est = multilinear_estimate(orc, [0.0] * 6, samples=50, seed=1)
    assert est.mean_exact == orc.eval(0)
    assert est.stderr == 0


def test_estimate_indicator_is_exact():
    orc = random_oracle(random.Random(6), 6, "concave_of_modular")
    x = [1.0, 0.0, 1.0, 0.0, 0.0, 1.0]
    est = multilinear_estimate(orc, x, samples=50, seed=2)
    assert est.mean_exact == orc.eval(0b100101)
    assert est.stderr == 0


def test_estimate_linear_oracle_matches_expectation():
    orc = LinearOracle([2, 3, 5, 7])
    x = [0.5, 0.25, 0.8, 0.1]
    est = multilinear_estimate(orc, x, samples=4000, seed=3)
    expected = sum(w * p for w, p in zip([2, 3, 5, 7], x))
    assert abs(est.mean - expected) <= 3 * est.stderr + 1e-12


def test_estimate_against_full_expansion():
    rng = random.Random(7)
    orc = random_oracle(rng, 12, "coverage")
    x = [rng.random() for _ in range(12)]
    est = multilinear_estimate(orc, x, samples=100_000, seed=4)
    exact = exact_multilinear(orc, x)
    assert abs(est.mean - exact) <= 4 * est.stderr


def test_estimate_deterministic_given_seed():
    orc = random_oracle(random.Random(8), 5, "linear")
    x = [0.3, 0.6, 0.1, 0.9, 0.5]
    a = multilinear_estimate(orc, x, samples=500, seed=11)
    b = multilinear_estimate(orc, x, samples=500, seed=11)
    assert a == b


# ---------------------------------------------------------------------------
# continuous greedy


def test_continuous_greedy_linear_collapses_to_lp():
    # with a linear objective every gradient is the weight vector, so the
    # ascent just replays the same LP vertex
    rng = random.Random(9)
    inst = normalize(random_instance(rng, 6, p=1, c=1, family="linear"))
    br = brute_optimum(inst)
    g = correct_guess_for(inst, RELAXED, br.best_set)
    x = continuous_greedy(g, steps=12, samples_per_grad=10, seed=5)
    elements = sorted(x)
    if not elements:
        return
    weights = [float(inst.objective.weights[e]) for e in elements]
    pack_rows = [[inst.packing[i][e] for e in elements] for i in range(inst.p)]
    cover_rows = [[inst.covering[j][e] for e in elements] for j in range(inst.c)]
    status, v = linear_max_over_polytope(weights, pack_rows, g.residual_pack,
                                         cover_rows, g.residual_cover)
    assert status == "optimal"
    got = sum(weights[i] * x[e] for i, e in enumerate(elements))
    want = sum(weights[i] * v[i] for i in range(len(elements)))
    assert abs(got - want) < 1e-6


def test_continuous_greedy_membership():
    for seed in range(4):
        inst = _norm_instance(40 + seed)
        br = brute_optimum(inst)
        if not br.feasible_count:
            continue
        g = correct_guess_for(inst, RELAXED, br.best_set)
        x = continuous_greedy(g, steps=10, samples_per_grad=12, seed=seed)
        elements = sorted(x)
        for i in range(inst.p):
            load = sum(float(inst.packing[i][e]) * x[e] for e in elements)
            assert load <= float(g.residual_pack[i]) + 1e-9
        for j in range(inst.c):
            load = sum(float(inst.covering[j][e]) * x[e] for e in elements)
            assert load >= float(g.residual_cover[j]) - 1e-9
        assert all(-1e-12 <= x[e] <= 1 + 1e-12 for e in elements)


def test_continuous_greedy_fractional_quality():
    # with a correct guess the scaled fractional point is worth at least
    # (1 - 1/e - delta) f(O) - f(E1); checked statistically on the residual
    # objective's sampled multilinear value
    class _Residual:
        def __init__(self, guess):
            self.guess = guess
            self.n = guess.instance.n

        def eval(self, mask):
            return residual_objective(self.guess, mask & self.guess.undetermined)

    hits = 0
    total = 0
    for seed in (80, 81, 82, 83):
        inst = _norm_instance(seed, n=8, family="coverage")
        br = brute_optimum(inst)
        if not br.feasible_count or br.best_value == 0:
            continue
        g = correct_guess_for(inst, RELAXED, br.best_set)
        x = continuous_greedy(g, steps=30, samples_per_grad=30, seed=seed)
        scale = 1 / (1 + float(RELAXED.delta))
        x_full = [0.0] * inst.n
        for e, p in x.items():
            x_full[e] = p * scale
        est = multilinear_estimate(_Residual(g), x_full, samples=3000, seed=seed)
        f_opt = float(br.best_value)
        f_chosen = float(inst.objective.eval(g.chosen))
        target = (1 - math.exp(-1) - float(RELAXED.delta)) * f_opt - f_chosen
        total += 1
        if est.mean + 4 * est.stderr >= target:
            hits += 1
    assert total >= 2
    assert hits == total


def test_continuous_greedy_infeasible_polytope():
    inst = normalize(make_instance([[1, 1]], [[1, 1]], [2], [2],
                                   LinearOracle([1, 1])))
    # everything discarded but full residual coverage still required
    g = _guess(inst, chosen=0, discarded=0b11, targets=(Fraction(1),))
    with pytest.raises(GuessInfeasibleError):
        continuous_greedy(g, steps=3, samples_per_grad=3, seed=0)


def test_continuous_greedy_refuses_out_of_range_settings():
    inst = normalize(make_instance([[1, 1]], [[1, 1]], [2], [2],
                                   LinearOracle([1, 1])))
    g = _guess(inst, chosen=0, discarded=0b11, targets=(Fraction(1),))
    # checked before phase 1, so even an empty polytope reports the setting
    with pytest.raises(ValueError, match="samples_per_grad"):
        continuous_greedy(g, steps=3, samples_per_grad=0, seed=0)
    with pytest.raises(ValueError, match="steps"):
        continuous_greedy(g, steps=-1, samples_per_grad=3, seed=0)


# ---------------------------------------------------------------------------
# guesses


def test_enumerated_guesses_are_consistent():
    inst = _norm_instance(50)
    enum = enumerate_guesses(inst, RELAXED, budget=2000)
    assert enum.guesses
    for g in enum.guesses:
        assert g.is_consistent()
        assert g.chosen & g.discarded == 0
        assert all(t >= 1 for t in g.cover_targets)
        assert all(v >= 0 for v in g.residual_pack)
        assert g.large_pack == 0 and g.large_cover == 0


def test_overpacking_chosen_never_emitted():
    inst = normalize(make_instance([[3, 3]], [[1, 1]], [2], [1],
                                   LinearOracle([5, 5])))
    enum = enumerate_guesses(inst, RELAXED, budget=2000)
    for g in enum.guesses:
        assert all(v <= 1 for v in inst.pack_value(g.chosen))


def test_correct_guess_is_enumerated():
    for seed in (60, 61, 62):
        inst = _norm_instance(seed, n=6)
        br = brute_optimum(inst)
        if not br.feasible_count:
            continue
        target = correct_guess_for(inst, RELAXED, br.best_set)
        assert target.is_consistent()
        assert is_correct(target, br.best_set)
        enum = enumerate_guesses(inst, RELAXED, budget=50_000)
        assert not enum.truncated
        assert any(g.chosen == target.chosen and g.discarded == target.discarded
                   and g.cover_targets == target.cover_targets
                   for g in enum.guesses)


def test_budget_truncation_flagged():
    inst = _norm_instance(63, n=8)
    enum = enumerate_guesses(inst, RELAXED, budget=10)
    assert enum.truncated
    assert enum.pairs_examined == 10


def test_critical_set_soundness():
    rng = random.Random(64)
    inst = normalize(random_instance(rng, 8, p=2, c=2))
    enum = enumerate_guesses(inst, RELAXED, budget=600)
    for g in enum.guesses:
        for ell in iter_bits(g.critical_large):
            assert any(inst.packing[i][ell] >= g.params.beta * g.residual_pack[i]
                       for i in g.critical_pack)
        for i in g.critical_pack:
            assert g.residual_pack[i] <= g.params.delta
        for j in g.critical_cover:
            assert g.residual_cover[j] <= g.params.delta * g.cover_targets[j]


def test_greedy_marginal_order_is_non_increasing():
    rng = random.Random(65)
    for trial in range(10):
        orc = random_oracle(rng, 7, FAMILIES[trial % 3])
        mask = rng.randrange(1, 1 << 7)
        order = greedy_marginal_order(orc, mask)
        assert mask_of(order) == mask
        gains = []
        prefix = 0
        for e in order:
            gains.append(marginal(orc, prefix, e))
            prefix |= 1 << e
        assert all(gains[i] >= gains[i + 1] for i in range(len(gains) - 1))


# ---------------------------------------------------------------------------
# rounding


def test_round_zero_vector_returns_chosen():
    inst = _norm_instance(70)
    g = _guess(inst, chosen=0b11, discarded=0, targets=(Fraction(1),))
    x_bar = {e: 0.0 for e in g.residual_elements()}
    out = round_and_filter(g, x_bar, random.Random(1))
    assert out.sampled == 0
    assert out.solution == 0b11


def test_round_no_critical_large_keeps_everything():
    inst = _norm_instance(71)
    g = _guess(inst, chosen=0, discarded=0, targets=(Fraction(1),))
    if g.critical_large:
        pytest.skip("instance happens to have critical-large elements")
    x_bar = {e: 0.7 for e in g.residual_elements()}
    out = round_and_filter(g, x_bar, random.Random(2))
    assert out.kept == out.sampled


def test_round_strips_critical_large():
    inst = normalize(make_instance([[1, 1, 0]], [[1, 1, 1]], [1], [1],
                                   LinearOracle([1, 1, 1])))
    g = _guess(inst, chosen=0, discarded=0, targets=(Fraction(1),))
    assert g.critical_pack == frozenset()
    # force criticality: chosen element saturates the packing row
    g2 = _guess(inst, chosen=0b1, discarded=0, targets=(Fraction(1),))
    assert 0 in g2.critical_pack
    assert g2.critical_large & 0b10
    x_bar = {e: 1.0 for e in g2.residual_elements()}
    out = round_and_filter(g2, x_bar, random.Random(3))
    assert out.sampled & g2.critical_large
    assert not out.kept & g2.critical_large


def test_scaled_point_expectation_bounds():
    # the x-bar weighted constraint sums (the rounding expectations) land
    # inside the residual bounds shrunk by 1/(1+delta)
    for seed in (90, 91, 92):
        inst = _norm_instance(seed)
        br = brute_optimum(inst)
        if not br.feasible_count:
            continue
        g = correct_guess_for(inst, RELAXED, br.best_set)
        x = continuous_greedy(g, steps=10, samples_per_grad=10, seed=seed)
        scale = 1 / (1 + float(RELAXED.delta))
        x_bar = {e: p * scale for e, p in x.items()}
        for i in range(inst.p):
            expect = sum(float(inst.packing[i][e]) * x_bar[e] for e in x_bar)
            assert expect <= float(g.residual_pack[i]) * scale + 1e-9
        for j in range(inst.c):
            expect = sum(float(inst.covering[j][e]) * x_bar[e] for e in x_bar)
            assert expect >= float(g.residual_cover[j]) * scale - 1e-9


def test_rounding_marginals_match_probabilities():
    inst = _norm_instance(72, n=8)
    g = _guess(inst, chosen=0, discarded=0, targets=(Fraction(1),))
    rng = random.Random(5)
    x_bar = {e: rng.random() * 0.9 for e in g.residual_elements()}
    trials = 4000
    counts = {e: 0 for e in x_bar}
    # the trials draw in turn from one Random, as a pair's trials do
    draws = random.Random(6)
    for _ in range(trials):
        out = round_and_filter(g, x_bar, draws)
        for e in counts:
            if (out.sampled >> e) & 1:
                counts[e] += 1
    for e, p in x_bar.items():
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts[e] / trials - p) <= 4 * sigma + 1e-12


# ---------------------------------------------------------------------------
# full pipeline


def test_solve_main_on_trivially_feasible_instance():
    inst = make_instance([[1, 1]], [], [2], [], LinearOracle([2, 3]))
    res = solve_main(inst, Fraction(1, 10), seed=0, budget=500, params=RELAXED,
                     trials=3, steps=4, samples_per_grad=4)
    assert res.found
    assert res.value >= inst.objective.eval(0)


def test_solve_main_hard_filter():
    for seed in range(3):
        rng = random.Random(200 + seed)
        inst = random_instance(rng, 6, p=1, c=1, family=FAMILIES[seed % 3])
        res = solve_main(inst, Fraction(1, 10), seed=seed, budget=2000,
                         params=RELAXED, trials=5, steps=6, samples_per_grad=8)
        if not res.found:
            continue
        norm = normalize(inst)
        assert all(v <= 1 for v in norm.pack_value(res.solution))
        assert all(v >= 1 - Fraction(1, 10) for v in norm.cover_value(res.solution))
        assert res.pack_ratio <= 1


def test_solve_main_reports_diagnostics():
    rng = random.Random(210)
    inst = random_instance(rng, 5, p=1, c=1)
    res = solve_main(inst, Fraction(1, 10), seed=0, budget=800, params=RELAXED,
                     trials=3, steps=4, samples_per_grad=4, diagnostics=True)
    assert res.guesses_enumerated > 0
    assert res.diagnostics
    d = res.diagnostics[0]
    assert d.filter_pass + d.filter_fail > 0 or d.infeasible_polytope


def test_solve_main_multi_row():
    params = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=4)
    found = 0
    for seed in range(4):
        rng = random.Random(300 + seed)
        inst = random_instance(rng, 6, p=2, c=2, family=FAMILIES[seed % 3])
        br = brute_optimum(inst)
        if not br.feasible_count:
            continue
        res = solve_main(inst, Fraction(1, 10), seed=seed, budget=3000,
                         params=params, trials=6, steps=6, samples_per_grad=8)
        if not res.found:
            continue
        found += 1
        norm = normalize(inst)
        assert all(v <= 1 for v in norm.pack_value(res.solution))
        assert all(v >= Fraction(9, 10) for v in norm.cover_value(res.solution))
        assert res.value <= br.best_value or any(
            l < b for l, b in zip(inst.cover_value(res.solution), inst.cover_bound))
    assert found >= 2


def _residual_free_guess(cover_load):
    """n = 2, bounds 1: E1 = {0} with covering load ``cover_load`` against
    a target of 1 and E0 = {1}, so no element is left undetermined."""
    inst = make_instance([[Fraction(1, 2), Fraction(1, 2)]], [[cover_load, 1]],
                         [1], [1], LinearOracle([2, 3]))
    return inst, _guess(inst, chosen=0b01, discarded=0b10, targets=(Fraction(1),))


def _unbounded(monkeypatch):
    """``solve_main`` walks the chosen sets in stream order, with every
    bound at infinity and neither prune of a walked E1, and so prunes none,
    as the pair-by-pair reference does."""
    def in_stream_order(solve, packing):
        for pos, chosen, value in packing:
            high_gain, live, _ = cont._gains(solve.inst.objective, chosen, value, solve.full,
                                             solve.params.gamma)
            yield pos, chosen, high_gain, live, math.inf

    monkeypatch.setattr(cont._Solve, "by_bound", in_stream_order)
    monkeypatch.setattr(cont._Solve, "cannot_win", lambda *args: False)


def _solve_guesses(monkeypatch, inst, guesses, trials):
    """solve_main over ``guesses`` alone, failing on any rounding draw: the
    cover grid is cut to the one target 1, which every guess has on every
    row, and the chosen sets to the guesses' E1, each with its E0, the
    mask of the elements outside E1 with a gain on it and no bound."""
    def no_draw(*args, **kw):
        raise AssertionError("a guess without residual elements drew a rounding")

    def live(g):
        oracle = g.instance.objective
        state = oracle.begin(g.chosen)
        return mask_of(e for e in range(g.instance.n)
                       if not (g.chosen >> e) & 1 and oracle.gain(state, e))

    assert all(set(g.cover_targets) <= {1} and not g.large_cover for g in guesses)
    monkeypatch.setattr(cont, "_target_grid", lambda *args: [Fraction(1)])
    rows = guesses[0]._parts[0].rows
    monkeypatch.setattr(cont, "_chosen_sets", lambda *args: (rows, len(guesses), [
        (pos, g.chosen, g.instance.objective.eval(g.chosen)) for pos, g in enumerate(guesses)]))
    monkeypatch.setattr(cont._Solve, "by_bound", lambda *args: (
        (pos, g.chosen, g.discarded, live(g), math.inf) for pos, g in enumerate(guesses)))
    monkeypatch.setattr(cont._Solve, "cannot_win", lambda *args: False)
    monkeypatch.setattr(cont, "round_and_filter", no_draw)
    return solve_main(inst, Fraction(1, 10), params=RELAXED, trials=trials,
                      steps=4, samples_per_grad=4, diagnostics=True)


@pytest.mark.parametrize("trials", [0, 3])
def test_residual_free_guess_counts_every_trial_without_drawing(monkeypatch, trials):
    inst, g = _residual_free_guess(Fraction(1))
    assert g.undetermined == 0 and g.residual_cover == (0,)
    assert continuous_greedy(g, steps=4, samples_per_grad=4) == {}
    res = _solve_guesses(monkeypatch, inst, [g], trials)
    assert [(d.filter_pass, d.filter_fail, d.infeasible_polytope, d.best_value)
            for d in res.diagnostics] == [(trials + 1, 0, False, 2)]
    assert res.counts == cont.GuessCounts(examined=1, ascended=1, filter_pass=trials + 1)
    assert (res.found, res.solution, res.value) == (True, 0b01, 2)


def test_residual_free_guess_inside_the_screen_margin_is_infeasible(monkeypatch):
    # E1 misses its target by 1e-7: inside the screen's margin, so only
    # phase 1 (tolerance lp.TOL_FEAS) can reject the 0-variable program
    short = Fraction(1, 10 ** 7)
    assert TOL_FEAS < short < cont.SCREEN_MARGIN
    inst, g = _residual_free_guess(1 - short)
    assert g.undetermined == 0 and g.residual_cover == (short,)
    assert not polytope_surely_empty([[]], g.residual_pack, [[]], g.residual_cover)
    with pytest.raises(GuessInfeasibleError):
        continuous_greedy(g, steps=4, samples_per_grad=4)
    res = _solve_guesses(monkeypatch, inst, [g], trials=3)
    assert [(d.filter_pass, d.filter_fail, d.infeasible_polytope)
            for d in res.diagnostics] == [(0, 0, True)]
    assert res.counts == cont.GuessCounts(examined=1, phase1_empty=1)
    assert not res.found


@pytest.mark.parametrize("trials", [0, 3])
@pytest.mark.parametrize("packing", [[], [[]]])
def test_solve_main_on_an_empty_ground_set(monkeypatch, packing, trials):
    # n = 0: the one guess has no residual element
    inst = make_instance(packing, [], [1] * len(packing), [], LinearOracle([]))
    guesses = enumerate_guesses(normalize(inst), RELAXED).guesses
    assert [g.undetermined for g in guesses] == [0]
    res = _solve_guesses(monkeypatch, inst, guesses, trials)
    assert [(d.filter_pass, d.filter_fail, d.infeasible_polytope)
            for d in res.diagnostics] == [(trials + 1, 0, False)]
    assert (res.found, res.solution, res.value) == (True, 0, 0)


def test_solve_main_deterministic():
    rng = random.Random(211)
    inst = random_instance(rng, 5, p=1, c=1)
    a = solve_main(inst, Fraction(1, 10), seed=9, budget=800, params=RELAXED,
                   trials=4, steps=4, samples_per_grad=5)
    b = solve_main(inst, Fraction(1, 10), seed=9, budget=800, params=RELAXED,
                   trials=4, steps=4, samples_per_grad=5)
    assert a.solution == b.solution and a.value == b.value


# ---------------------------------------------------------------------------
# golden equivalence: the enumeration and direction LP against their
# straightforward forms (each guess built twice, the discarded set through
# an intermediate guess H, every direction LP through the named _Builder)


def _ref_fields(inst, discarded, chosen, targets, params):
    """Every derived Guess field, computed element by element."""
    chosen_pack = inst.pack_value(chosen)
    chosen_cover = inst.cover_value(chosen)
    r = tuple(1 - v for v in chosen_pack)
    s = tuple(max(Fraction(0), Fraction(t) - v)
              for t, v in zip(targets, chosen_cover))
    y = frozenset(i for i, v in enumerate(r) if v <= params.delta)
    z = frozenset(j for j, v in enumerate(s) if v <= params.delta * targets[j])
    undet = ((1 << inst.n) - 1) & ~(discarded | chosen)
    large_p = mask_of(
        ell for ell in iter_bits(undet)
        if any(inst.packing[i][ell] >= params.alpha * r[i]
               for i in range(inst.p) if i not in y))
    large_c = mask_of(
        ell for ell in iter_bits(undet)
        if any(inst.covering[j][ell] >= params.alpha * s[j]
               for j in range(inst.c) if j not in z))
    large_crit = mask_of(
        ell for ell in iter_bits(undet)
        if any(inst.packing[i][ell] >= params.beta * r[i] for i in y))
    return dict(residual_pack=r, residual_cover=s, critical_pack=y,
                critical_cover=z, large_pack=large_p, large_cover=large_c,
                critical_large=large_crit, undetermined=undet)


def _all_fields(g):
    return (g.discarded, g.chosen, g.cover_targets, g.params, g.residual_pack,
            g.residual_cover, g.critical_pack, g.critical_cover, g.large_pack,
            g.large_cover, g.critical_large, g.undetermined)


def _ref_build_discarded(inst, chosen, targets, params):
    oracle = inst.objective
    threshold = oracle.eval(chosen) / params.gamma
    state = oracle.begin(chosen)
    high = mask_of(
        ell for ell in range(inst.n)
        if not (chosen >> ell) & 1 and oracle.gain(state, ell) > threshold)
    h = _ref_fields(inst, 0, chosen, targets, params)
    return high | h["large_pack"] | h["large_cover"]


def _ref_enumerate_guesses(inst, params, budget=100_000):
    n = inst.n
    grid_max = (0 if n <= 1 else
                math.ceil(math.log(n) / math.log(1 + float(params.delta))))
    grid = []
    point = Fraction(1)
    for _ in range(min(grid_max, budget) + 1):
        grid.append(point)
        point *= 1 + params.delta
    size_cap = min(n, math.ceil(params.gamma + (inst.p + inst.c)
                                / (params.alpha * params.delta)))
    chosen_sets = [mask_of(combo) for size in range(size_cap + 1)
                   for combo in combinations(range(n), size)]
    guesses = []
    pairs = 0
    for rest in product(grid, repeat=inst.c):
        targets = tuple(reversed(rest))      # the first row's target varies fastest
        for chosen in chosen_sets:
            if pairs >= budget:
                return GuessList(guesses=guesses, truncated=True, pairs_examined=pairs)
            pairs += 1
            if any(v > 1 for v in inst.pack_value(chosen)):
                continue
            discarded = _ref_build_discarded(inst, chosen, targets, params)
            guess = _guess(inst, chosen, discarded, targets, params)
            if guess.is_consistent():
                guesses.append(guess)
    return GuessList(guesses=guesses, truncated=False, pairs_examined=pairs)


def _ref_linear_max_over_polytope(weights, pack_rows, pack_bounds,
                                  cover_rows, cover_bounds):
    n = len(weights)
    bld = _Builder("max")
    for i in range(n):
        bld.var(f"x{i}")
    for i in range(n):
        bld.add({f"x{i}": 1}, "<=", 1)
    for row, b in zip(pack_rows, pack_bounds):
        bld.add({f"x{i}": row[i] for i in range(n)}, "<=", b)
    for row, b in zip(cover_rows, cover_bounds):
        bld.add({f"x{i}": row[i] for i in range(n)}, ">=", b)
    bld.set_objective({f"x{i}": _float_rat(weights[i]) for i in range(n)})
    sol = simplex_solve(bld.build())
    if sol.status != "optimal":
        return sol.status, None
    return "optimal", [min(1.0, max(0.0, sol.assignment[f"x{i}"])) for i in range(n)]


def _golden_cases():
    """(seed, n, p, c, family, budget, shape): n 5-9, p and c in {1, 2}, all
    three families; the smallest budgets truncate the enumeration.  Beyond
    the integer instances (shape None), ``_golden_instance`` gives rational
    data and rows with bound 0."""
    cases = []
    for k in range(42):
        n = 5 + k % 5
        p, c = (1, 1) if k % 3 else (1 + k % 2, 1 + (k // 2) % 2)
        budget = (100, 300, 600)[k % 3] if n > 5 else 600
        cases.append((500 + k, n, p, c, FAMILIES[k % 3], budget, None))
    for k in range(12):
        shape = ("rational", "zero_pack", "zero_cover")[k % 3]
        p, c = (1 + k % 2, 1 + (k // 3) % 2)
        if shape == "zero_cover" and k % 2:
            c = 2
        cases.append((900 + k, 5 + k % 4, p, c, FAMILIES[k % 3], (300, 600)[k % 2], shape))
    return cases


def _golden_instance(seed, n, p, c, family, shape):
    """``random_instance`` for shape None.  "rational": rational entries,
    then each row and its bound scaled by its own non-integer factor (as in
    the benchmark's rational twins), so a normalized row's denominators are
    not its bound's.  "zero_pack": packing row 0 gets bound 0, which
    normalize turns into entries 2.  "zero_cover": the last covering row
    gets bound 0, which normalize drops (leaving none when c = 1)."""
    rng = random.Random(seed)
    if shape != "rational":
        inst = random_instance(rng, n, p=p, c=c, family=family)
        pack_bound, cover_bound = list(inst.pack_bound), list(inst.cover_bound)
        if shape == "zero_pack":
            pack_bound[0] = 0
        elif shape == "zero_cover":
            cover_bound[-1] = 0
        return make_instance(inst.packing, inst.covering, pack_bound, cover_bound,
                             inst.objective)

    def entry():
        return Fraction(rng.randint(1, 9), rng.randint(1, 6)) if rng.random() < 0.7 else 0

    def factor():
        return Fraction(rng.randint(2, 9), rng.choice([2, 3, 5, 7]))

    packing = [[entry() for _ in range(n)] for _ in range(p)]
    covering = [[entry() for _ in range(n)] for _ in range(c)]
    planted = [i for i in range(n) if rng.random() < 0.5] or [rng.randrange(n)]
    rows, bounds = [], []
    for row in packing + covering:
        f = factor()
        rows.append([v * f for v in row])
        bounds.append(sum(row[i] for i in planted) * f)
    return make_instance(rows[:p], rows[p:], bounds[:p], bounds[p:],
                         random_oracle(rng, n, family))


def _ref_prepare_polytope(solves):
    """A stand-in for ``prepare_polytope`` with no phase 1 kept: each
    ``maximize`` re-solves the named program from scratch (and appends to
    ``solves``); the polytope is empty when the zero-weight program is."""
    def prepare(n, *rows):
        status, _ = _ref_linear_max_over_polytope([0.0] * n, *rows)
        if status != "optimal":
            return None

        def maximize(weights):
            solves.append(len(weights))
            return _ref_linear_max_over_polytope(weights, *rows)
        return SimpleNamespace(maximize=maximize)
    return prepare


def _ref_filter(norm, candidates, epsilon):
    """(filter_pass, filter_fail, best_value) of one guess's candidates,
    each checked and evaluated on its own."""
    passed = [c for c in candidates
              if all(v <= 1 for v in norm.pack_value(c))
              and all(v >= 1 - epsilon for v in norm.cover_value(c))]
    values = [norm.objective.eval(c) for c in passed]
    return len(passed), len(candidates) - len(passed), max(values, default=None)


def _empties_merged(res):
    """``res`` with its screened-empty pairs counted as phase-1 empty, as a
    run without the screen counts them."""
    c = res.counts
    return dataclasses.replace(res, counts=dataclasses.replace(
        c, screened_empty=0, phase1_empty=c.screened_empty + c.phase1_empty))


def test_golden_equivalence_guesses_and_main(monkeypatch):
    _unbounded(monkeypatch)
    truncated = multi_row = residual_free = 0
    solves = []
    for seed, n, p, c, family, budget, shape in _golden_cases():
        inst = _golden_instance(seed, n, p, c, family, shape)
        norm = normalize(inst)
        params = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=p + c)

        got = enumerate_guesses(norm, params, budget=budget)
        want = _ref_enumerate_guesses(norm, params, budget=budget)
        assert (got.truncated, got.pairs_examined) == (want.truncated,
                                                       want.pairs_examined)
        assert [_all_fields(g) for g in got.guesses] == [
            _all_fields(g) for g in want.guesses]
        for g in got.guesses:
            ref = _ref_fields(norm, g.discarded, g.chosen, g.cover_targets, params)
            assert {k: getattr(g, k) for k in ref} == ref
        truncated += got.truncated
        multi_row += max(p, c) > 1

        knobs = dict(seed=seed, budget=budget, params=params, trials=3,
                     steps=3, samples_per_grad=4, diagnostics=True)
        res = solve_main(inst, Fraction(1, 10), **knobs)
        rounded = []
        ascended = []

        def recording_round(guess, *args, **kw):
            out = round_and_filter(guess, *args, **kw)
            rounded.append((guess.chosen, out.solution))
            return out

        def recording_greedy(guess, *args, **kw):
            x_star = continuous_greedy(guess, *args, **kw)
            ascended.append(guess)
            return x_star

        with monkeypatch.context() as m:
            # the pair-by-pair loop over the reference list, with no screen
            m.setattr(cont, "prepare_polytope", _ref_prepare_polytope(solves))
            m.setattr(cont, "round_and_filter", recording_round)
            m.setattr(cont, "continuous_greedy", recording_greedy)
            ref_res = per_pair_solve_main(inst, Fraction(1, 10), guesses=want,
                                          screen=False, **knobs)
        assert _empties_merged(res) == ref_res
        assert repr(_empties_merged(res)) == repr(ref_res)
        # every guess with a point and a residual element rounds `trials`
        # times in a row; one without residual elements draws nothing, as
        # each draw would return E1.  Recount every guess's filter verdicts
        # one candidate at a time
        trials = knobs["trials"]
        feasible = [d for d in res.diagnostics if not d.infeasible_polytope]
        assert len(ascended) == len(feasible)
        with_residual = [g for g in ascended if g.undetermined]
        assert len(rounded) == trials * len(with_residual)
        draws = iter(rounded)
        for guess, diag in zip(ascended, feasible):
            if guess.undetermined:
                group = [next(draws) for _ in range(trials)]
                assert all(chosen == guess.chosen for chosen, _ in group)
                candidates = [guess.chosen] + [solution for _, solution in group]
            else:
                candidates = [guess.chosen] * (trials + 1)
            assert (diag.filter_pass, diag.filter_fail, diag.best_value) == _ref_filter(
                norm, candidates, Fraction(1, 10))
        residual_free += len(ascended) - len(with_residual)
    assert truncated >= 1 and multi_row >= 5 and residual_free >= 1
    # the reference really re-solved the named program at every step
    assert len(solves) > 0


def test_guess_stream_builds_the_enumerated_guesses():
    # each enumerated guess, built from the stream's shared parts, against
    # a standalone Guess that derives its parts on its own
    cases = [(normalize(_golden_instance(seed, n, p, c, family, shape)), p, c, budget)
             for seed, n, p, c, family, budget, shape in _golden_cases()]
    cases += [(make_instance(packing, [], [1] * len(packing), [], LinearOracle([])),
               len(packing), 0, 100_000) for packing in ([], [[]])]
    truncated = multi_row = empty = 0
    for norm, p, c, budget in cases:
        params = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=max(1, p + c))
        grid = cont._target_grid(norm.n, params, budget)
        enum = enumerate_guesses(norm, params, budget=budget)
        for g in enum.guesses:
            assert all(t in grid for t in g.cover_targets)
            fresh = _guess(norm, g.chosen, g.discarded, g.cover_targets, params)
            assert fresh == g and _all_fields(fresh) == _all_fields(g)
            assert fresh._parts == g._parts and fresh.is_consistent()
        truncated += enum.truncated
        multi_row += max(p, c) > 1
        empty += norm.n == 0 and len(enum.guesses) == 1
    assert truncated >= 1 and multi_row >= 5 and empty == 2


def _accounting_cases():
    """(instance, p + c): n = 0, c = 0, c = 2, and a packing row with bound
    0 that leaves only the sets of the elements with entry 0 packing."""
    rng = random.Random(71)
    zero_pack = random_instance(rng, 6, p=2, c=1, family="coverage")
    return [
        (make_instance([[]], [[]], [1], [1], LinearOracle([])), 2),
        (random_instance(rng, 6, p=1, c=0, family="linear"), 1),
        (random_instance(rng, 4, p=1, c=2, family="concave_of_modular"), 3),
        (make_instance(zero_pack.packing, zero_pack.covering, [0, zero_pack.pack_bound[1]],
                       zero_pack.cover_bound, zero_pack.objective), 3),
    ]


def test_stream_accounting_matches_the_reference_at_every_budget_edge():
    # the stream's pair count and truncation flag come from the product's
    # size alone; check them, and the guesses its records build, against
    # the pair-by-pair reference at the budgets around each pass boundary
    overpacking = 0
    for inst, b in _accounting_cases():
        norm = normalize(inst)
        assert norm.c == inst.c
        params = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=b)
        full = _ref_enumerate_guesses(norm, params)
        assert not full.truncated
        passes = len(cont._target_grid(norm.n, params, full.pairs_examined)) ** norm.c
        width = full.pairs_examined // passes
        total = passes * width
        budgets = {0, 1, width - 1, width, width + 1, total - 1, total, total + 1}
        budgets |= {k * width + d for k in (1, 2, passes - 1) for d in (-1, 1)}
        for budget in sorted(v for v in budgets if v >= 0):
            want = _ref_enumerate_guesses(norm, params, budget=budget)
            got = enumerate_guesses(norm, params, budget=budget)
            pairs, cut = got.pairs_examined, got.truncated
            assert (pairs, cut) == (want.pairs_examined, want.truncated)
            assert (pairs, cut) == (min(budget, total), budget < total)
            assert (cont._pair_total(norm, params, budget) > budget) == cut
            assert [_all_fields(g) for g in got.guesses] == [_all_fields(g) for g in want.guesses]
        overpacking += 2 * len({g.chosen for g in full.guesses}) < width
    assert overpacking == 1


def _ref_continuous_greedy(guess, steps, samples_per_grad, seed, directions):
    """The ascent without its gain memo: a fresh ``begin`` and every gain at
    each sample; each step's weights are appended to ``directions``."""
    inst = guess.instance
    elements = guess.residual_elements()
    polytope = prepare_polytope(len(elements),
                                [[row[e] for e in elements] for row in inst.packing],
                                guess.residual_pack,
                                [[row[e] for e in elements] for row in inst.covering],
                                guess.residual_cover)
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
        directions.append(weights)
        status, v = polytope.maximize(weights)
        if status != "optimal":
            raise GuessInfeasibleError("residual polytope became unsolvable")
        x = [min(1.0, xi + vi / steps) for xi, vi in zip(x, v)]
    return {e: x[idx] for idx, e in enumerate(elements)}


def _hex(values):
    return [v.hex() for v in values]


def test_ascent_matches_the_loop_without_memo(monkeypatch):
    # the guesses of an instance in turn, so gains kept from one guess's
    # ascent would reach the next.  The enumerated guesses discard every
    # element with a gain above f(E1) / gamma, which leaves these residual
    # gains near zero; guesses with nothing discarded and at most one chosen
    # element keep them.  The weights of every step are compared too: a
    # wrong gain often leaves the LP's vertex, and so the point, unchanged.
    # Phase 2 runs once per run of equal consecutive directions
    directions = []

    def spy(n, *rows):
        polytope = prepare_polytope(n, *rows)
        if polytope is None:
            return None

        def maximize(weights):
            directions.append(weights)
            return polytope.maximize(weights)
        return SimpleNamespace(maximize=maximize)

    monkeypatch.setattr(cont, "prepare_polytope", spy)
    ascents = weighted = steps = solved = 0
    for seed, n, p, c, family, budget, shape in _golden_cases():
        norm = normalize(_golden_instance(seed, n, p, c, family, shape))
        params = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=p + c)
        wide = [_guess(norm, chosen, 0, (Fraction(1),) * norm.c, params)
                for chosen in [0] + [1 << e for e in range(n)]]
        guesses = enumerate_guesses(norm, params, budget=budget).guesses + wide
        for g_idx, guess in enumerate(guesses):
            knobs = dict(steps=4, samples_per_grad=6, seed=seed * 1000 + g_idx)
            want_directions = []
            directions.clear()
            try:
                want = _ref_continuous_greedy(guess, directions=want_directions, **knobs)
            except GuessInfeasibleError:
                with pytest.raises(GuessInfeasibleError):
                    continuous_greedy(guess, **knobs)
                continue
            got = continuous_greedy(guess, **knobs)
            distinct = [w for k, w in enumerate(want_directions)
                        if k == 0 or w != want_directions[k - 1]]
            assert list(map(_hex, directions)) == list(map(_hex, distinct))
            assert {e: v.hex() for e, v in got.items()} == {
                e: v.hex() for e, v in want.items()}
            ascents += bool(want)
            weighted += any(map(any, want_directions))
            steps += len(want_directions)
            solved += len(directions)
    assert ascents >= 100 and weighted >= 100
    # the zero directions of the enumerated guesses repeat at every step
    assert solved < steps


def _gamma2(p, c):
    """The schedule of delta 1/5 with gamma 2, which leaves undetermined
    elements with non-zero gains."""
    delta = Fraction(1, 5)
    return Params(epsilon=Fraction(1, 10), delta=delta, alpha=delta ** 3,
                  beta=delta ** 2 / (3 * (p + c)), gamma=Fraction(2))


def test_solve_main_with_real_gradients_matches_the_reference(monkeypatch):
    # gamma = 2 leaves elements with non-zero gains undetermined, so the
    # ascents climb changing directions (the benchmark's gamma = 125 leaves
    # only zero gains).  The reference solves the materialized guess list,
    # with no screen, through the ascent without memo, repeated-direction
    # reuse or zero-gain skip.  Each ascent's seed comes from its pair's
    # E1 and target indices
    _unbounded(monkeypatch)
    changing = repeats = 0
    for seed, n, p, c, family, budget, shape in _golden_cases():
        inst = _golden_instance(seed, n, p, c, family, shape)
        norm = normalize(inst)
        params = _gamma2(p, c)
        knobs = dict(seed=seed, budget=budget, params=params, trials=3,
                     steps=4, samples_per_grad=6)
        res = solve_main(inst, Fraction(1, 10), **knobs)
        enum = enumerate_guesses(norm, params, budget=budget)
        grid = cont._target_grid(norm.n, params, budget)
        ascents = []

        def ref_greedy(guess, steps, samples_per_grad, seed):
            index = tuple(map(grid.index, guess.cover_targets))
            assert seed == cont._pair_seeds(knobs["seed"], guess.chosen, index)[0]
            ascents.append([])
            return _ref_continuous_greedy(guess, steps, samples_per_grad, seed,
                                          ascents[-1])

        with monkeypatch.context() as m:
            m.setattr(cont, "continuous_greedy", ref_greedy)
            ref_res = per_pair_solve_main(inst, Fraction(1, 10), guesses=enum,
                                          screen=False, **knobs)
        assert repr(_empties_merged(res)) == repr(ref_res)
        assert (res.guesses_enumerated, res.truncated) == (len(enum.guesses), enum.truncated)
        changing += sum(len({tuple(w) for w in directions}) > 1 for directions in ascents)
        repeats += res.counts.repeat
    assert changing >= 50 and repeats >= 1


def _pair_outcomes(monkeypatch, inst, knobs, skip=None):
    """Per pair solve_main ascends, keyed by (E1, c'): [ascent seed, the
    point's bits, each rounded set in turn].  ``skip`` (of a pair's grid
    indices) drops pairs before they are solved."""
    outcomes = {}

    def greedy(guess, steps, samples_per_grad, seed):
        x = continuous_greedy(guess, steps=steps, samples_per_grad=samples_per_grad,
                              seed=seed)
        outcomes[guess.chosen, guess.cover_targets] = [
            seed, {e: v.hex() for e, v in x.items()}]
        return x

    def rounding(guess, x_bar, rng):
        out = round_and_filter(guess, x_bar, rng)
        outcomes[guess.chosen, guess.cover_targets].append(out.solution)
        return out

    solve_pair = cont._Solve.pair

    def thinned(solve, position, index, *args):
        if not skip(index):
            solve_pair(solve, position, index, *args)

    with monkeypatch.context() as m:
        m.setattr(cont, "continuous_greedy", greedy)
        m.setattr(cont, "round_and_filter", rounding)
        if skip is not None:
            m.setattr(cont._Solve, "pair", thinned)
        solve_main(inst, Fraction(1, 10), **knobs)
    return outcomes


def test_cutting_or_skipping_pairs_changes_no_other_pairs_draws(monkeypatch):
    # a pair's draws come from its content: a smaller budget, which cuts
    # the stream, or pairs taken out of the stream before it, leave every
    # pair that is still ascended with the same seed, point and rounded sets
    _unbounded(monkeypatch)
    compared = varied = 0
    for seed, n, p, c, family, budget, shape in _golden_cases()[::4]:
        inst = _golden_instance(seed, n, p, c, family, shape)
        knobs = dict(seed=seed, budget=budget, params=_gamma2(p, c), trials=3, steps=4,
                     samples_per_grad=6)
        full = _pair_outcomes(monkeypatch, inst, knobs)
        cut = _pair_outcomes(monkeypatch, inst, dict(knobs, budget=budget // 3))
        skipped = _pair_outcomes(monkeypatch, inst, knobs, skip=lambda t: sum(t) % 2)
        for part in (cut, skipped):
            assert all(full[pair] == outcome for pair, outcome in part.items())
            compared += len(part)
        assert len(cut) <= len(full) and len(skipped) <= len(full)
        # seeds differ from pair to pair, and so do the trials of one pair
        assert len({outcome[0] for outcome in full.values()}) == len(full)
        varied += sum(len(set(outcome[2:])) > 1 for outcome in full.values())
    assert compared > 200 and varied > 20


def _origin_pairs(monkeypatch, inst, knobs):
    """solve_main with records on ``inst`` and, per pair that reaches
    ``_Solve.pair``, keyed by (E1, c'): (every s_j = 0, some undetermined
    element has a gain on E1, the covering rows with a non-zero entry on
    the undetermined elements), read from its guess and the oracle alone;
    with the set of pairs that went through ``continuous_greedy``."""
    norm = normalize(inst)
    oracle = norm.objective
    pairs = {}
    ascended = set()
    solve_pair = cont._Solve.pair

    def spy_pair(solve, position, index, chosen, discarded, cpart, tpart, *rest):
        g = Guess(norm, discarded, chosen, tpart.values, knobs["params"], parts=(cpart, tpart))
        state = oracle.begin(chosen)
        elements = g.residual_elements()
        pairs[chosen, g.cover_targets] = (
            not any(g.residual_cover), any(oracle.gain(state, e) for e in elements),
            sum(any(row[e] for e in elements) for row in norm.covering))
        solve_pair(solve, position, index, chosen, discarded, cpart, tpart, *rest)

    def spy_greedy(guess, **kw):
        ascended.add((guess.chosen, guess.cover_targets))
        return continuous_greedy(guess, **kw)

    with monkeypatch.context() as m:
        m.setattr(cont._Solve, "pair", spy_pair)
        m.setattr(cont, "continuous_greedy", spy_greedy)
        res = solve_main(inst, Fraction(1, 10), diagnostics=True, **knobs)
    return res, pairs, ascended


def _at_origin(zero_cover, live, rows):
    return zero_cover and not live and rows <= 1


def test_pairs_at_the_origin_skip_the_ascent(monkeypatch):
    # a pair whose targets E1 meets, with no live undetermined element and
    # at most one covering row on them, is settled without an ascent;
    # every pair with a live element or some s_j > 0 still ascends, and the
    # answer, counts and records are the pair-by-pair loop's
    _unbounded(monkeypatch)
    settled = with_live = short = 0
    for seed, n, p, c, family, budget, shape in _golden_cases():
        inst = _golden_instance(seed, n, p, c, family, shape)
        for params in (Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=p + c),
                       _gamma2(p, c)):
            knobs = dict(seed=seed, budget=budget, params=params, trials=3, steps=3,
                         samples_per_grad=4)
            res, pairs, ascended = _origin_pairs(monkeypatch, inst, knobs)
            assert ascended == {pair for pair, kind in pairs.items() if not _at_origin(*kind)}
            assert repr(res) == repr(per_pair_solve_main(inst, Fraction(1, 10),
                                                         diagnostics=True, **knobs))
            settled += sum(_at_origin(*kind) for kind in pairs.values())
            with_live += sum(live for _, live, _ in pairs.values())
            short += sum(not zero for zero, _, _ in pairs.values())
    assert settled >= 1000 and with_live >= 300 and short >= 300


def test_two_covering_rows_on_the_undetermined_elements_keep_the_tableau(monkeypatch):
    # E1 = {0} meets both targets and leaves elements 1 and 2 no gain, but
    # both covering rows have entries on them: that pair ascends through
    # phase 1, with the same output as the pair-by-pair loop
    _unbounded(monkeypatch)
    inst = make_instance([], [[1, 1, 1], [1, 1, 1]], [], [1, 1],
                         CoverageOracle(3, [[0, 1], [0], [1]], [1, 1, 1]))
    knobs = dict(seed=3, budget=1000, params=Params.from_delta(Fraction(1, 10),
                                                               Fraction(1, 5), b=2),
                 trials=3, steps=3, samples_per_grad=4)
    tableaus = []

    def spy(n, pack_rows, pack_bounds, cover_rows, cover_bounds):
        tableaus.append((n, tuple(cover_bounds)))
        return prepare_polytope(n, pack_rows, pack_bounds, cover_rows, cover_bounds)

    monkeypatch.setattr(cont, "prepare_polytope", spy)
    res, pairs, ascended = _origin_pairs(monkeypatch, inst, knobs)
    pair = (0b001, (Fraction(1), Fraction(1)))
    assert pairs[pair] == (True, False, 2) and pair in ascended
    assert (2, (0, 0)) in tableaus
    assert repr(res) == repr(per_pair_solve_main(inst, Fraction(1, 10), diagnostics=True,
                                                 **knobs))


def test_counts_add_up_to_the_pairs_examined(monkeypatch):
    # with the bound, and with it at infinity (nothing pruned)
    for bounded in (True, False):
        with monkeypatch.context() as m:
            if not bounded:
                _unbounded(m)
            totals = _count_totals()
        assert bool(totals.pruned) == bounded
        assert all(v for name, v in vars(totals).items() if name != "pruned"), totals


def _count_totals():
    """solve_main's counts summed over a third of the golden cases, each
    checked against its records and the guess list on the way."""
    totals = cont.GuessCounts()
    trials = 3
    for seed, n, p, c, family, budget, shape in _golden_cases()[::3]:
        inst = _golden_instance(seed, n, p, c, family, shape)
        for params in (_gamma2(p, c), Params.from_delta(Fraction(1, 10), Fraction(1, 5),
                                                        b=p + c)):
            knobs = dict(seed=seed, budget=budget, params=params, trials=trials, steps=3,
                         samples_per_grad=4)
            res = solve_main(inst, Fraction(1, 10), **knobs)
            detailed = solve_main(inst, Fraction(1, 10), diagnostics=True, **knobs)
            assert res.diagnostics == []
            assert dataclasses.replace(detailed, diagnostics=[]) == res
            k = res.counts
            enum = enumerate_guesses(normalize(inst), params, budget=budget)
            assert k.examined == res.guesses_enumerated == len(enum.guesses)
            assert k.examined == (k.repeat + k.screened_empty + k.phase1_empty + k.ascended
                                  + k.pruned)
            assert k.filter_pass + k.filter_fail == k.ascended * (trials + 1)
            records = detailed.diagnostics
            assert len(records) == k.examined - k.repeat - k.pruned
            assert sum(d.infeasible_polytope for d in records) == (k.screened_empty
                                                                 + k.phase1_empty)
            assert sum(d.filter_pass for d in records) == k.filter_pass
            assert sum(d.filter_fail for d in records) == k.filter_fail
            for name, value in vars(k).items():
                setattr(totals, name, getattr(totals, name) + value)
    return totals


@st.composite
def _walk_cases(draw):
    """(instance, params, budget): up to 7 elements, p and c in {1, 2, 3},
    any objective family, covering bounds cut to as little as a quarter of
    the planted set's loads (so that an E1 may cover a row several times
    over: its low targets repeat); delta 1/2 or 1/3, so the grid is short enough
    for a budget to reach past row 0's pass, with the schedule's gamma or
    gamma 2 (which leaves elements with gains undetermined); the budget at
    or next to the end of the k-th target pass, for k at and around the
    ends of row 0's first passes and of its first full sweep."""
    n, p, c = draw(st.integers(0, 7)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    inst = random_instance(rng, n, p=p, c=c, family=draw(st.sampled_from(FAMILIES)),
                           density=draw(st.sampled_from([0.4, 0.7, 1.0])))
    shrink = draw(st.sampled_from([1, 2, 4]))
    inst = make_instance(inst.packing, inst.covering, inst.pack_bound,
                         [Fraction(b, shrink) for b in inst.cover_bound], inst.objective)
    delta = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3)]))
    params = Params.from_delta(Fraction(1, 10), delta, b=p + c)
    if draw(st.booleans()):
        params = dataclasses.replace(params, gamma=Fraction(2))
    width = sum(math.comb(n, k) for k in range(cont._size_cap(inst, params) + 1))
    size = len(cont._target_grid(n, params, 10 ** 9))
    edges = {k * width + d for k in (1, 2, size - 1, size, size + 1, 2 * size, size * size)
             for d in (-1, 0, 1) if k <= size ** c}
    return inst, params, draw(st.sampled_from(sorted(v for v in edges if 0 <= v <= 5000)))


@settings(max_examples=150, deadline=None)
@given(_walk_cases(), st.integers(0, 2 ** 16))
def test_run_walk_matches_the_pair_by_pair_loop(case, seed):
    # the walk settles repeats and screened pairs by arithmetic, E1 by E1:
    # its counts, its records (in stream order) and its answer must be the
    # pair-by-pair loop's, at and around every target pass's end
    inst, params, budget = case
    knobs = dict(seed=seed, budget=budget, params=params, trials=2, steps=2,
                 samples_per_grad=3, diagnostics=True)
    with pytest.MonkeyPatch.context() as m:
        _unbounded(m)
        got = solve_main(inst, Fraction(1, 10), **knobs)
    assert repr(got) == repr(per_pair_solve_main(inst, Fraction(1, 10), **knobs))


@st.composite
def _bound_cases(draw):
    """(instance, params, budget): up to 7 elements, p and c in {1, 2}, any
    objective family; delta 1/5 with the schedule's gamma, or with gamma 2,
    which leaves elements with gains undetermined, so a bound is more than
    f(E1); or the small-cap schedule, under which E1 holds at most 4 to 7
    elements and the best set may come from a rounding.  The budget may
    cut the stream."""
    n, p, c = draw(st.integers(0, 7)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    inst = random_instance(rng, n, p=p, c=c, family=draw(st.sampled_from(FAMILIES)))
    params = draw(st.sampled_from([
        Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=p + c), _gamma2(p, c),
        dataclasses.replace(_SMALL_CAP, beta=_SMALL_CAP_DELTA ** 2 / (3 * (p + c)))]))
    return inst, params, draw(st.sampled_from([50, 400, 3000]))


def _pruned_matches_unpruned(inst, params, budget, seed):
    """solve_main on ``inst``, with the unpruned pair-by-pair loop's answer
    and pairs examined, its pruned pairs counted with no record."""
    knobs = dict(seed=seed, budget=budget, params=params, trials=4, steps=3,
                 samples_per_grad=3, diagnostics=True)
    got = solve_main(inst, Fraction(1, 10), **knobs)
    want = per_pair_solve_main(inst, Fraction(1, 10), **knobs)
    fields = ("found", "solution", "value", "cover_ratio", "pack_ratio", "truncated")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    k = got.counts
    assert k.examined == want.counts.examined
    assert k.examined == k.repeat + k.screened_empty + k.phase1_empty + k.ascended + k.pruned
    assert len(got.diagnostics) == k.examined - k.repeat - k.pruned
    return got


@settings(max_examples=80, deadline=None)
@given(_bound_cases(), st.integers(0, 2 ** 16))
def test_pruned_walk_finds_the_pair_by_pair_answer(case, seed):
    # the walk leaves out the chosen sets whose bound is below the best
    # value found, and those that cannot win a tie or reach the cover
    _pruned_matches_unpruned(*case, seed)


@settings(max_examples=60, deadline=None)
@given(_bound_cases(), st.integers(0, 2 ** 16))
def test_pruned_counts_the_pairs_of_the_chosen_sets_left_out(case, seed):
    # pruned is examined less the pair tallies, so the five counts add up
    # by construction; this pins it apart from them: the in-budget pairs
    # of every packing E1 the walk does not settle (left out by the bound,
    # or by the tie or the reach rule), from the subset filter's chosen
    # sets and the grid's length
    inst, params, budget = case
    cannot_win = cont._Solve.cannot_win
    settled = set()

    def spy(solve, chosen, *rest):
        verdict = cannot_win(solve, chosen, *rest)
        if not verdict:
            settled.add(chosen)
        return verdict

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cont._Solve, "cannot_win", spy)
        res = solve_main(inst, Fraction(1, 10), seed=seed, budget=budget, params=params,
                         trials=2, steps=2, samples_per_grad=3)
    norm = normalize(inst)
    width, every = filtered_chosen_sets(norm, params, budget)
    pairs = len(cont._target_grid(norm.n, params, budget)) ** norm.c
    assert res.counts.pruned == sum(min(pairs, -(-(budget - pos) // width))
                                    for pos, chosen in every if chosen not in settled)


_ZERO_WEIGHTS =(make_instance([], [], [], [], LinearOracle([0, 0, 0])),
                 Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=1), 3000)
# all three elements cover 9/10 of the one covering row, and no target
# (each at least 1) is within reach
_NINE_TENTHS = (make_instance([], [[3, 3, 3]], [], [10], LinearOracle([0, 0, 0])),
                *_ZERO_WEIGHTS[1:])


@st.composite
def _tie_cases(draw):
    """(instance, params, budget) whose values tie often: up to 7
    elements, p and c in {0, 1, 2} with small int entries and bounds;
    linear weights that are mostly 0 or 1, or a coverage oracle whose
    elements share a few sets; the delta-1/5 schedule, it with gamma 2,
    or the small-cap schedule, under which the best set may come from a
    rounding.  The budget may cut the stream."""
    n, p, c = draw(st.integers(0, 7)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    entry = st.sampled_from([0, 0, 1, 2, 3])
    packing = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(p)]
    covering = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(c)]
    if draw(st.booleans()):
        oracle = LinearOracle(draw(st.lists(st.sampled_from([0, 0, 1, 1, 2]), min_size=n,
                                            max_size=n)))
    else:
        pool = draw(st.lists(st.sets(st.integers(0, 3), max_size=2), min_size=1, max_size=3))
        oracle = CoverageOracle(4, [draw(st.sampled_from(pool)) for _ in range(n)],
                                [1, 1, 2, 3])
    # a covering bound of 10 lets a set cover 9/10 of it and no more
    bound = st.sampled_from([1, 2, 3, 5, 10])
    inst = make_instance(packing, covering, [draw(bound) for _ in packing],
                         [draw(bound) for _ in covering], oracle)
    b = max(1, p + c)
    schedule = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=b)
    params = draw(st.sampled_from([
        schedule, dataclasses.replace(schedule, gamma=Fraction(2)),
        dataclasses.replace(_SMALL_CAP, beta=_SMALL_CAP_DELTA ** 2 / (3 * b))]))
    return inst, params, draw(st.sampled_from([50, 400, 3000]))


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


@settings(max_examples=150, deadline=None)
@given(_tie_cases(), st.integers(0, 2 ** 16))
@example(_ZERO_WEIGHTS, 0)
@example(_NINE_TENTHS, 0)
def test_tie_and_reach_prunes_find_the_pair_by_pair_answer(case, seed):
    # ties everywhere: the answer is the unpruned loop's, and each E1 that
    # the tie or the reach rule prunes is checked by brute force when it
    # is pruned: no E1 + S with S in its keep set packs, covers 1 - eps and
    # beats the best set found so far.  (A reach rule that asked for full
    # cover would prune no E1 with an ascending pair, since each target is
    # at least 1, so only this check can see it.)  The tie rule runs first
    # on the wider keep set of the walk's early check, before E1's chosen
    # part is built: each E1 it settles there is checked over that set
    cannot_win, loses_tie = cont._Solve.cannot_win, cont._Solve.loses_tie

    def none_beats(solve, chosen, keep):
        norm = solve.inst
        for extra in _submasks(keep):
            cand = chosen | extra
            if (all(v <= 1 for v in norm.pack_value(cand))
                    and all(v >= solve.need_cover for v in norm.cover_value(cand))):
                assert not better(norm.objective.eval(cand), cand, solve.best)

    def checked(solve, chosen, keep, *rest):
        verdict = cannot_win(solve, chosen, keep, *rest)
        if verdict:
            none_beats(solve, chosen, keep)
        return verdict

    def checked_tie(solve, chosen, keep, *rest):
        verdict = loses_tie(solve, chosen, keep, *rest)
        if verdict:
            none_beats(solve, chosen, keep)
        return verdict

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cont._Solve, "cannot_win", checked)
        m.setattr(cont._Solve, "loses_tie", checked_tie)
        _pruned_matches_unpruned(*case, seed)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_least_candidate_over_more_elements_comes_no_later(data):
    # the walk's early tie check builds the least candidate over E1's free
    # elements less its high-gain set, a superset of the keep set that
    # ``cannot_win`` uses: that candidate never comes after the other one
    # in ``better``'s subset order, so when it loses the tie so does the other
    n = data.draw(st.integers(0, 8))
    p, c = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1))
    entry = st.sampled_from([0, 0, 1, 2, 3])
    rows = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(p + c)]
    bounds = [data.draw(st.integers(1, 6)) for _ in range(p + c)]
    inst = normalize(make_instance(rows[:p], rows[p:], bounds[:p], bounds[p:],
                                   LinearOracle([1] * n)))
    scaled = cont._scaled_rows(inst)
    full = (1 << n) - 1
    chosen = data.draw(st.integers(0, full))
    wide = data.draw(st.integers(0, full)) & ~chosen
    keep = data.draw(st.integers(0, full)) & wide
    room = scaled.room(chosen)
    assert room == cont._chosen_part(scaled, chosen, RELAXED).pack_room
    least = cont._least_candidate(chosen, keep, scaled, room)
    wider = cont._least_candidate(chosen, wide, scaled, room)
    assert wider == least or subset_less(wider, least)


def test_tie_rule_prunes_the_ties_that_cannot_win(monkeypatch):
    # no rows, every weight 0: the empty set (walked first, as equal
    # bounds go in stream order) wins, and each of the 7 other E1s ties it
    # with a least candidate that comes after it
    got = _pruned_matches_unpruned(*_ZERO_WEIGHTS, seed=0)
    assert (got.solution, got.value) == (0, 0)
    assert (got.counts.ascended, got.counts.pruned) == (1, 7)
    _unbounded(monkeypatch)
    assert _pruned_matches_unpruned(*_ZERO_WEIGHTS, seed=0).counts.ascended == 8


def test_reach_rule_prunes_chosen_sets_that_cannot_cover(monkeypatch):
    # covering row 1 1 0 with bound 2 needs elements 0 and 1 (9/10 of 2 is
    # 1.8), and packing row 0 1 1 with bound 1 keeps 1 and 2 apart.  E1 =
    # {0, 2} and {2} have the highest bounds (6 and 5), and element 1, the
    # one that could add cover, is high-gain on both: their cover reach
    # falls short, and their pairs, which the screen would settle as
    # empty, are pruned before any column is built
    inst = make_instance([[0, 1, 1]], [[1, 1, 0]], [1], [2], LinearOracle([1, 1, 5]))
    params = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=2)
    verdicts = {}
    cannot_win = cont._Solve.cannot_win

    def spy(solve, chosen, *rest):
        verdicts[chosen] = cannot_win(solve, chosen, *rest)
        return verdicts[chosen]

    monkeypatch.setattr(cont._Solve, "cannot_win", spy)
    got = _pruned_matches_unpruned(inst, params, 3000, seed=1)
    assert (got.solution, got.value) == (0b011, 2)
    assert verdicts == {0b101: True, 0b100: True, 0b011: False}
    monkeypatch.setattr(cont._Solve, "cannot_win", lambda *args: False)
    plain = solve_main(inst, Fraction(1, 10), params=params, budget=3000, trials=4, steps=3,
                       samples_per_grad=3)
    moved = got.counts.pruned - plain.counts.pruned
    grid = len(cont._target_grid(3, params, 3000))
    assert moved == 2 * grid == plain.counts.screened_empty - got.counts.screened_empty


@pytest.mark.parametrize("family", FAMILIES)
def test_bound_prunes_chosen_sets_in_the_benchmark_shape(monkeypatch, family):
    # the benchmark's criterion-7 shape: n = 8, p = c = 1, delta 1/5 (gamma
    # 125) and its knobs.  The bound leaves pairs out and ascends fewer,
    # with the same answer and the same pairs examined
    inst = random_instance(random.Random(8), 8, p=1, c=1, family=family)
    knobs = dict(seed=5, budget=6000, params=Params.from_delta(Fraction(1, 10),
                                                               Fraction(1, 5), b=2),
                 trials=8, steps=10, samples_per_grad=16)
    res = solve_main(inst, Fraction(1, 10), **knobs)
    _unbounded(monkeypatch)
    full = solve_main(inst, Fraction(1, 10), **knobs)
    assert res.counts.pruned > 0 and full.counts.pruned == 0
    assert res.counts.ascended < full.counts.ascended
    assert res.counts.examined == full.counts.examined
    assert res.found
    assert dataclasses.replace(res, counts=None) == dataclasses.replace(full, counts=None)


# the small-cap schedule: E1 holds few elements (see the rounding tests below)
_SMALL_CAP_DELTA = Fraction(17, 20)
_SMALL_CAP = Params(epsilon=Fraction(1, 10), delta=_SMALL_CAP_DELTA, alpha=_SMALL_CAP_DELTA,
                    beta=_SMALL_CAP_DELTA ** 2 / 6, gamma=Fraction(1))
_DELTA_5 = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=2)


@pytest.mark.parametrize("n, p, c, params, budget", [
    (0, 1, 1, _DELTA_5, 0), (0, 1, 1, _DELTA_5, 1), (0, 0, 0, _DELTA_5, 5),
    (6, 1, 1, _DELTA_5, 0), (6, 1, 1, _DELTA_5, 1), (6, 1, 1, _DELTA_5, 2),
    # cut inside size 2 (positions 7 to 21) and inside size 3
    (6, 1, 1, _DELTA_5, 10), (6, 2, 1, _DELTA_5, 30), (6, 1, 1, _DELTA_5, 10_000),
    # the small-cap schedule: sets of at most 4 of 9
    (9, 1, 1, _SMALL_CAP, 10_000), (9, 1, 1, _SMALL_CAP, 200),
    (7, 0, 1, _DELTA_5, 10_000), (7, 2, 0, _DELTA_5, 10_000), (7, 0, 0, _DELTA_5, 100),
    (9, 3, 2, _DELTA_5, 6000),
])
@pytest.mark.parametrize("family", FAMILIES)
def test_extended_chosen_sets_are_the_filtered_ones(n, p, c, params, budget, family):
    # extending packing sets finds, at the same positions, the sets the
    # subset filter keeps, with the same width, and f(E1) with each
    inst = normalize(random_instance(random.Random(n + 10 * p + 100 * c), n, p=p, c=c,
                                     family=family))
    assert (cont._size_cap(inst, params) < n) == (params is _SMALL_CAP)
    rows, width, packing = cont._chosen_sets(inst, params, budget)
    assert (width, [entry[:2] for entry in packing]) == filtered_chosen_sets(inst, params,
                                                                             budget)
    assert all(value == inst.objective.eval(chosen) for _, chosen, value in packing)
    assert rows == cont._scaled_rows(inst)


@pytest.mark.parametrize("family", FAMILIES)
def test_gains_are_taken_only_for_the_chosen_sets_refined(monkeypatch, family):
    # the benchmark's n = 9 shape (its stream cut by the budget): exact
    # gains are taken for fewer leftovers than a pass over every packing
    # E1 took, sum (n - |E1|), with the answer of the unpruned walk
    inst = random_instance(random.Random(9), 9, p=1, c=1, family=family)
    knobs = dict(seed=5, budget=6000, params=_DELTA_5, trials=8, steps=10,
                 samples_per_grad=16)
    _, every = filtered_chosen_sets(normalize(inst), _DELTA_5, 6000)
    calls = []
    gains = cont._gains

    class Counting:
        def __init__(self, oracle):
            self.oracle = oracle

        def begin(self, mask):
            return self.oracle.begin(mask)

        def gain(self, state, elem):
            calls.append(elem)
            return self.oracle.gain(state, elem)

    with monkeypatch.context() as m:
        m.setattr(cont, "_gains", lambda oracle, *args: gains(Counting(oracle), *args))
        res = solve_main(inst, Fraction(1, 10), **knobs)
    assert res.truncated and res.found
    assert 0 < len(calls) < sum(9 - chosen.bit_count() for _, chosen in every)
    _unbounded(monkeypatch)
    full = solve_main(inst, Fraction(1, 10), **knobs)
    assert dataclasses.replace(res, counts=None) == dataclasses.replace(full, counts=None)


def test_by_bound_refines_equal_caps_before_an_equal_bound(monkeypatch):
    # gamma 1 and n = 4: E1's cap is f(E1) (1 + n - |E1|).  Caps 6, 6, 4,
    # 4, 0 at positions 2, 3, 0, 1, 4, and bounds 4, 5, 4, 3 for the first
    # four.  Position 3 (bound 5) goes first; the caps of 4 are refined
    # before the bound of 4 at position 2 is given, so position 0 goes
    # before it.  A best value of 4 then leaves out position 1 (bound 3,
    # refined) and position 4 (cap 0, never refined)
    inst = make_instance([], [], [], [], LinearOracle([0] * 4))
    params = dataclasses.replace(_DELTA_5, gamma=Fraction(1))
    packing = [(0, 0b0001, 1), (1, 0b0010, 1), (2, 0b0011, 2), (3, 0b0111, 3), (4, 0b0100, 0)]
    bounds = {0b0001: 4, 0b0010: 3, 0b0011: 4, 0b0111: 5}
    refined = []

    def gains(oracle, chosen, value, full, gamma):
        refined.append(chosen)
        return 0, 0, bounds[chosen]

    monkeypatch.setattr(cont, "_gains", gains)
    solve = cont._Solve(inst, params, Fraction(1, 10), 0, 1, 1, 1, False)
    given = []
    for pos, chosen, _, _, bound in solve.by_bound(packing):
        given.append((pos, bound))
        solve.best = (chosen, 4)
    assert given == [(3, 5), (0, 4), (2, 4)]
    assert sorted(refined) == sorted(bounds)


@st.composite
def _ascent_guesses(draw):
    """A guess on up to 6 elements whose objective gives some or none of
    its residual elements a gain on E1: linear weights that may be 0, or a
    coverage oracle whose sets E1 may already cover."""
    n = draw(st.integers(1, 6))
    p, c = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    entry = st.sampled_from([0, 0, 1, 2, 3, 5])
    packing = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(p)]
    covering = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(c)]
    if draw(st.booleans()):
        oracle = LinearOracle(draw(st.lists(st.sampled_from([0, 0, 1, 3]), min_size=n,
                                            max_size=n)))
    else:
        sets = draw(st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=n,
                             max_size=n))
        oracle = CoverageOracle(4, sets, [1, 2, 3, 4])
    inst = normalize(make_instance(packing, covering, [draw(st.integers(1, 6)) for _ in packing],
                                   [draw(st.integers(1, 6)) for _ in covering], oracle))
    chosen = draw(st.integers(0, (1 << n) - 1))
    discarded = draw(st.integers(0, (1 << n) - 1)) & ~chosen
    targets = tuple(draw(st.sampled_from([Fraction(1), Fraction(6, 5), Fraction(3, 2)]))
                    for _ in range(inst.c))
    return _guess(inst, chosen, discarded, targets)


def _live(guess):
    oracle = guess.instance.objective
    state = oracle.begin(guess.chosen)
    return any(oracle.gain(state, e) for e in guess.residual_elements())


# E1 = {0} covers every set on the residual elements {1, 2}, or leaves one
# element a gain
_ALL_COVERED = make_instance([[1, 1, 1]], [[1, 1, 1]], [2], [1],
                             CoverageOracle(3, [[0, 1], [0], [1]], [1, 1, 1]))
_ONE_LIVE = make_instance([[1, 1, 1]], [[1, 1, 1]], [2], [1],
                          CoverageOracle(3, [[0, 1], [0], [2]], [1, 1, 1]))
# E1 = {0} covers every set but none of the covering row, which the
# residual elements {1, 2} must fill: no element is live, and the zero
# weights' vertex is not the origin
_COVER_REST = make_instance([[1, 1, 1]], [[0, 1, 1]], [3], [2],
                            CoverageOracle(3, [[0, 1], [0], [1]], [1, 1, 1]))


@settings(max_examples=150, deadline=None)
@given(_ascent_guesses(), st.integers(0, 5), st.integers(1, 6), st.integers(0, 1000))
@example(_guess(normalize(_ALL_COVERED), 0b1, 0, (Fraction(1),)), 4, 5, 7)
@example(_guess(normalize(_ONE_LIVE), 0b1, 0, (Fraction(1),)), 4, 5, 7)
@example(_guess(normalize(_ALL_COVERED), 0b1, 0, (Fraction(1),)), 0, 5, 7)
@example(_guess(normalize(_COVER_REST), 0b1, 0, (Fraction(1),)), 3, 5, 7)
def test_ascent_skipping_zero_gain_elements_matches_sampling_them(guess, steps, samples,
                                                                  seed):
    # bit for bit, whether some residual element has a gain on E1 or none
    for inst, live in ((_ALL_COVERED, False), (_ONE_LIVE, True), (_COVER_REST, False)):
        if guess.instance.objective is inst.objective:
            assert _live(guess) == live
    try:
        want = _ref_continuous_greedy(guess, steps, samples, seed, [])
    except GuessInfeasibleError:
        with pytest.raises(GuessInfeasibleError):
            continuous_greedy(guess, steps=steps, samples_per_grad=samples, seed=seed)
        return
    got = continuous_greedy(guess, steps=steps, samples_per_grad=samples, seed=seed)
    assert {e: v.hex() for e, v in got.items()} == {e: v.hex() for e, v in want.items()}


_OPEN_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=50).filter(
    lambda v: 0 < v < 1)


@given(st.integers(0, 12), st.integers(0, 2), st.integers(0, 2), _OPEN_UNIT, _OPEN_UNIT,
       st.fractions(min_value=1, max_value=20, max_denominator=7))
@example(9, 1, 1, _SMALL_CAP.delta, _SMALL_CAP.alpha, _SMALL_CAP.gamma)
@example(12, 1, 1, Fraction(1, 2), Fraction(1, 2), Fraction(1))   # 1 + 2 * 4 = 9 exactly
def test_size_cap_rounds_the_exact_bound_up(n, p, c, delta, alpha, gamma):
    inst = make_instance([[0] * n] * p, [[0] * n] * c, [1] * p, [1] * c, LinearOracle([1] * n))
    params = Params(epsilon=Fraction(1, 10), delta=delta, alpha=alpha, beta=Fraction(1, 2),
                    gamma=gamma)
    assert cont._size_cap(inst, params) == min(n, math.ceil(gamma + (p + c) / (alpha * delta)))


@settings(deadline=None)
@given(st.integers(0, 40), _OPEN_UNIT, st.integers(0, 80))
@example(9, Fraction(1, 5), 80)
def test_target_grid_is_the_repeated_products(n, delta, budget):
    # the grid's points, each built as a^t / b^t from 1 + delta = a / b,
    # are the products of repeated multiplication: under a delta
    # schedule, and under the analysis schedule, whose grid is cut at its
    # budget cap of budget + 1 points (its tiny delta would give n = 2
    # thousands of points)
    analysis = Params.from_epsilon(Fraction(1, 10), 2)
    for params in (Params.from_delta(Fraction(1, 10), delta, b=2), analysis):
        grid = cont._target_grid(n, params, budget)
        assert grid == multiplied_target_grid(n, params, budget)
        assert all(type(point) is Fraction for point in grid)
    assert len(grid) == (budget + 1 if n > 1 else 1)


# ---------------------------------------------------------------------------
# a shape where rounding decides answers: with ``_SMALL_CAP`` and p = c = 1
# E1 holds at most ceil(1 + 2 / (17/20)^2) = 4 elements, so an optimum of
# more elements is reached only through the ascent and its rounding


@pytest.mark.parametrize("seed, family", [(2, "concave_of_modular"), (7, "coverage")])
def test_rounding_lifts_the_value_where_e1_is_capped(monkeypatch, seed, family):
    inst = random_instance(random.Random(seed), 9, p=1, c=1, family=family)
    knobs = dict(seed=seed, budget=200_000, params=_SMALL_CAP, trials=8, steps=10,
                 samples_per_grad=16)
    assert cont._size_cap(normalize(inst), _SMALL_CAP) == 4
    res = solve_main(inst, Fraction(1, 10), **knobs)
    assert res.found and not res.truncated
    norm = normalize(inst)
    assert all(v <= 1 for v in norm.pack_value(res.solution))
    assert all(v >= Fraction(9, 10) for v in norm.cover_value(res.solution))
    assert res.solution.bit_count() > 4

    def e1_alone(guess, x_bar, rng):
        return cont.RoundOutcome(sampled=0, kept=0, solution=guess.chosen)

    monkeypatch.setattr(cont, "round_and_filter", e1_alone)
    without = solve_main(inst, Fraction(1, 10), **knobs)
    assert not without.found or without.value < res.value


_MEMO_PARAMS = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=4)
_MEMO_KNOBS = dict(seed=3, budget=1500, trials=4, steps=4, samples_per_grad=6)


def _memo_instance(name):
    """Two multi-row instances of one shape.  B keeps A's packing rows and
    bounds but raises every non-zero covering entry by 1 and has its own
    objective, so A's covering reaches fall short of B's (and A's filter
    verdicts are wrong for B): on this draw either leak changes B's result."""
    a = random_instance(random.Random(318), 7, p=2, c=2, family="linear")
    if name == "A":
        return a
    covering = [[v + 1 if v else 0 for v in row] for row in a.covering]
    return make_instance(a.packing, covering, a.pack_bound, a.cover_bound,
                         random_oracle(random.Random(1318), 7, "coverage"))


def _solve_alone(name):
    """repr of solve_main on ``_memo_instance(name)``, run in a fresh
    interpreter that has solved nothing before."""
    src = os.path.dirname(os.path.dirname(cont.__file__))
    script = ("from fractions import Fraction\n"
              "from pcsm.continuous import solve_main\n"
              "from test_continuous import _MEMO_KNOBS, _MEMO_PARAMS, _memo_instance\n"
              f"print(repr(solve_main(_memo_instance({name!r}), Fraction(1, 10),"
              " params=_MEMO_PARAMS, **_MEMO_KNOBS)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_solve_main_memos_stay_within_one_solve(monkeypatch):
    # A and B share a shape and are rebuilt before every call, so their ids
    # may be reused: state kept across solves would hand one the other's data
    alone = {name: _solve_alone(name) for name in "AB"}
    assert alone["A"] != alone["B"]

    def solve(name):
        return repr(solve_main(_memo_instance(name), Fraction(1, 10),
                               params=_MEMO_PARAMS, **_MEMO_KNOBS))

    assert [solve(name) for name in "ABA"] == [alone[name] for name in "ABA"]
    # the same again with the reuse forced: every solve's normalized
    # instance is one object, refilled with that solve's data
    shell = normalize(_memo_instance("A"))

    def refill(inst):
        vars(shell).update(vars(normalize(inst)))
        return shell

    monkeypatch.setattr(cont, "normalize", refill)
    assert [solve(name) for name in "ABA"] == [alone[name] for name in "ABA"]


def test_shared_reach_memo_screens_like_a_fresh_screen():
    # with one screen across an instance's guesses, in either order, the
    # screen's limits for a guess's E1 and undetermined elements are those
    # of their Fraction definition.  Each enumerated guess also comes with
    # E1 and E0 swapped: the same undetermined elements under another E1,
    # so another packing room and other covering loads
    settled = 0
    for seed in range(6):
        p, c = (1, 1) if seed % 2 else (2, 2)
        inst = normalize(random_instance(random.Random(700 + seed), 7, p=p, c=c,
                                         family=FAMILIES[seed % 3]))
        params = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=p + c)
        grid = cont._target_grid(inst.n, params, 1500)
        guesses = []
        for g in enumerate_guesses(inst, params, budget=1500).guesses:
            for h in (g, _guess(inst, g.discarded, g.chosen, g.cover_targets, params)):
                guesses.append((h, _ref_limits(inst, h, grid)))
        for order in (guesses, guesses[::-1]):
            screen = cont._Screen(grid)
            for g, limits in order:
                assert screen.limits(g.undetermined, g._parts[0]) == limits
                settled += any(map(ge, map(grid.index, g.cover_targets), limits))
    assert settled > 100


# ---------------------------------------------------------------------------
# exact ties: every threshold the guess loop and the screen compare against,
# met exactly and missed by one scaled unit

_TIE = Params(epsilon=Fraction(1, 10), delta=Fraction(1, 4), alpha=Fraction(1, 8),
              beta=Fraction(1, 2), gamma=Fraction(2))


def _tie_instance():
    """Bounds 1, entries in 32nds (D = K = 32).  E1 = {0} leaves r = delta
    with element 1 at exactly beta r, and covers 3/4, so a target of 1
    leaves s = delta c'; E1 = {} leaves r = 1 and s = c' = 1 with element 1
    at exactly alpha r and alpha s.  E1 = {4} (packing) and E1 = {2}
    (covering) leave a scaled threshold of 31/8, which element 3 (3/32)
    misses by a fraction of a unit."""
    f = Fraction
    return make_instance([[f(3, 4), f(1, 8), f(1, 16), f(3, 32), f(1, 32), 0]],
                         [[f(3, 4), f(1, 8), f(1, 32), f(3, 32), 0, f(1, 4)]],
                         [1], [1], LinearOracle([1] * 6))


def test_guess_thresholds_at_exact_ties_match_the_fraction_reference():
    inst = _tie_instance()
    delta, alpha, beta = _TIE.delta, _TIE.alpha, _TIE.beta
    g = _guess(inst, chosen=0b1, discarded=0, targets=(Fraction(1),), params=_TIE)
    assert g.residual_pack == (delta,) and g.critical_pack == {0}
    assert inst.packing[0][1] == beta * delta and g.critical_large & 0b10
    assert g.residual_cover == (delta,) and g.critical_cover == {0}
    g = _guess(inst, chosen=0, discarded=0, targets=(Fraction(1),), params=_TIE)
    assert not g.critical_pack and not g.critical_cover
    assert inst.packing[0][1] == alpha == inst.covering[0][1]
    assert g.large_pack & 0b10 and g.large_cover & 0b10
    g = _guess(inst, chosen=0b10000, discarded=0, targets=(Fraction(1),), params=_TIE)
    assert inst.packing[0][3] < alpha * g.residual_pack[0] and not g.large_pack & 0b1000
    g = _guess(inst, chosen=0b100, discarded=0, targets=(Fraction(1),), params=_TIE)
    assert inst.covering[0][3] < alpha * g.residual_cover[0] and not g.large_cover & 0b1000
    # and every (E1, c') against the element-by-element reference
    for chosen in range(1 << inst.n):
        for t in (1, Fraction(5, 4), Fraction(4, 3), Fraction(3, 2), 2):
            g = _guess(inst, chosen=chosen, discarded=0, targets=(Fraction(t),), params=_TIE)
            ref = _ref_fields(inst, 0, chosen, (Fraction(t),), _TIE)
            assert {k: getattr(g, k) for k in ref} == ref


def _ref_screen(inst, g):
    """(falls short, each row's shortfall, margin) in Fractions: a row falls
    short when its residual cover minus its reach exceeds the margin."""
    elements = g.residual_elements()
    reach = row_reaches([[row[e] for e in elements] for row in inst.packing],
                        g.residual_pack, [[row[e] for e in elements] for row in inst.covering])
    margin = MARGIN * max([1] + [abs(v) for v in g.residual_pack]
                          + [abs(v) for v in g.residual_cover])
    shortfalls = [s - r for r, s in zip(reach, g.residual_cover)]
    return any(v > margin for v in shortfalls), shortfalls, margin


def _screen_cases():
    """(instance, E1, E0, targets, margin scale): covering row 0 misses its
    residual by exactly the margin 3 M (M the screen margin) when x = 1 -
    3 M, the margin's scale 3 coming from the row's own residual, from
    another covering row's residual and from an overpacking E1's residual
    packing room (|1 - 4|), each above the other two."""
    m = MARGIN
    for dx in (0, Fraction(-1, 10 ** 9), Fraction(1, 10 ** 9)):
        x = 1 - 3 * m + dx
        yield (make_instance([[0, 0, 0]], [[1, 1, x]], [1], [1], LinearOracle([1] * 3)),
               0, 0, (3,), 3)
        yield (make_instance([[0, 0, 0, 0]], [[x, 0, 0, 0], [0, 1, 1, 1]], [1], [1, 1],
                             LinearOracle([1] * 4)), 0, 0, (1, 3), 3)
        yield (make_instance([[2, 2, 0]], [[0, 0, x]], [1], [1], LinearOracle([1] * 3)),
               0b11, 0, (1,), 3)


def test_screen_at_an_exact_margin_tie_matches_the_fraction_screen():
    # the per-program reference at its own margin's ties; phase 1, whose
    # tolerance is far below that margin, rejects every one of these
    # programs, so a pair that only the reference calls empty gives the
    # same outcome whichever of the two rejects it
    verdicts = []
    for inst, chosen, discarded, targets, scale in _screen_cases():
        targets = tuple(map(Fraction, targets))
        g = _guess(inst, chosen=chosen, discarded=discarded, targets=targets, params=_TIE)
        ref = _ref_fields(inst, discarded, chosen, targets, _TIE)
        assert {k: getattr(g, k) for k in ref} == ref
        short, shortfalls, margin = _ref_screen(inst, g)
        assert margin == scale * MARGIN
        elements = g.residual_elements()
        pack = [[row[e] for e in elements] for row in inst.packing]
        cover = [[row[e] for e in elements] for row in inst.covering]
        assert polytope_surely_empty(pack, g.residual_pack, cover, g.residual_cover) == short
        assert prepare_polytope(len(elements), pack, g.residual_pack, cover,
                                g.residual_cover) is None
        verdicts.append((shortfalls[0] == margin, short))
    # each case once at the tie (kept), once past it (empty), once inside
    assert verdicts == [(True, False)] * 3 + [(False, True)] * 3 + [(False, False)] * 3


# ---------------------------------------------------------------------------
# the screen's limits and the repeat rule against their definitions


def _ref_limits(inst, g, grid):
    """The screen's limits for ``g``'s E1 and undetermined elements from
    their definition, in Fractions: per covering row, the first grid index
    whose residual cover beats the row's reach over those elements by more
    than MARGIN * grid[-1], else len(grid)."""
    elements = g.residual_elements()
    reach = row_reaches([[row[e] for e in elements] for row in inst.packing],
                        g.residual_pack, [[row[e] for e in elements] for row in inst.covering])
    margin = MARGIN * grid[-1]
    return tuple(next((t for t, target in enumerate(grid) if target - q - r > margin),
                      len(grid))
                 for q, r in zip(inst.cover_value(g.chosen), reach))


def _check_stream(norm, params, budget):
    """Walk the guess stream with one screen, as ``solve_main`` does,
    and check every pair: its limits against ``_ref_limits``; a pair they
    settle against the per-program reference ``polytope_surely_empty``; a
    pair the reference calls empty but the limits keep against phase 1,
    which must reject it, so that no outcome depends on which of the two
    rejects it; and the repeat rule against the dedupe it replaced: a set
    of (E0, E1, S, b_j beside each S_j > 0).  Returns (settled, left to
    phase 1, repeats)."""
    grid = cont._target_grid(norm.n, params, budget)
    screen = cont._Screen(grid)
    refs = {}
    seen = set()
    settled = phase1 = repeated = 0
    for g in enumerate_guesses(norm, params, budget).guesses:
        chosen = g.chosen
        cpart, tpart = g._parts
        index = tuple(map(grid.index, g.cover_targets))
        s = tpart.residual_cover
        key = (g.discarded, chosen, s,
               tuple(t.denominator if v else 0 for v, t in zip(s, tpart.values)))
        assert repeats(index, s) == (key in seen)
        repeated += key in seen
        seen.add(key)
        limits = screen.limits(g.undetermined, cpart)
        ref = refs.get((chosen, g.undetermined))
        if ref is None:
            ref = refs[chosen, g.undetermined] = _ref_limits(norm, g, grid)
        assert limits == ref
        elements = g.residual_elements()
        pack = [[row[e] for e in elements] for row in norm.packing]
        cover = [[row[e] for e in elements] for row in norm.covering]
        empty = polytope_surely_empty(pack, g.residual_pack, cover, g.residual_cover)
        if any(map(ge, index, limits)):
            assert empty
            settled += 1
        elif empty:
            assert prepare_polytope(len(elements), pack, g.residual_pack, cover,
                                    g.residual_cover) is None
            phase1 += 1
    return settled, phase1, repeated


# alpha 3/4 keeps the quarter entries below every large threshold here
_QUARTERS = Params(epsilon=Fraction(1, 10), delta=Fraction(1, 4), alpha=Fraction(3, 4),
                   beta=Fraction(1, 2), gamma=Fraction(2))
_QUARTERS_GRID = cont._target_grid(3, _QUARTERS, 100)


def _margin_instance(gap):
    """E1 = {0} covers half of a target of 1; elements 1 and 2 (gain 0)
    reach 1/2 - gap.  E1 = {} discards the high-marginal element 0 and
    leaves the same undetermined elements, against s = 1."""
    return normalize(make_instance(
        [[0, 0, 0]], [[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4) - gap]],
        [1], [1], LinearOracle([1, 0, 0])))


def test_screen_limits_at_the_margin_match_their_definition():
    # M = MARGIN * grid[-1] exceeds the per-program margin of E1 = {0}
    # under a target of 1 (MARGIN: r = 1, s = 1/2), so a gap of 3/4 of that
    # margin is kept by both, and a gap of M is left by the limits to
    # phase 1.  E1 = {} has limit 0 whatever the gap: limits kept by the
    # undetermined elements and packing room alone (the reach's key, which
    # both E1 share) would hand it to E1 = {0}
    grid = _QUARTERS_GRID
    margin = MARGIN * grid[-1]
    assert margin > MARGIN
    for gap, top, empty in ((3 * MARGIN / 4, 1, False), (margin, 1, True),
                            (margin + Fraction(1, 10 ** 12), 0, True), (0, 1, False)):
        norm = _margin_instance(gap)
        records = {g.chosen: (g.discarded, g._parts[0])
                   for g in enumerate_guesses(norm, _QUARTERS, 100).guesses
                   if g.cover_targets == (grid[0],)}
        screen = cont._Screen(grid)
        for chosen, limit in ((0, 0), (0b1, top)):
            discarded, cpart = records[chosen]
            assert discarded | chosen == 0b1
            assert screen.limits(0b110, cpart) == (limit,)
        assert polytope_surely_empty([[0, 0]], [1], [[Fraction(1, 4), Fraction(1, 4) - gap]],
                                     [Fraction(1, 2)]) == empty
        settled, phase1, _ = _check_stream(norm, _QUARTERS, 100)
        assert settled > 0 and (phase1 > 0) == (gap == margin)


def test_screen_and_repeat_rule_on_the_golden_cases():
    settled = repeats = 0
    for seed, n, p, c, family, budget, shape in _golden_cases():
        norm = normalize(_golden_instance(seed, n, p, c, family, shape))
        params = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=p + c)
        got = _check_stream(norm, params, budget)
        settled += got[0]
        repeats += got[2]
    assert settled > 1000 and repeats > 100


@st.composite
def _normalized_instances(draw):
    """Bounds 1, p and c up to 2, entries in halves to eighths, some of them
    lowered by a few screen margins; objective weights 0 (never
    high-marginal) or positive; the relaxed schedule or the analysis one."""
    n = draw(st.integers(1, 6))
    p, c = draw(st.integers(0, 2)), draw(st.integers(1, 2))
    entry = st.builds(lambda k, d, w: max(Fraction(0), Fraction(k, d) - w * MARGIN),
                      st.integers(0, 6), st.sampled_from([2, 3, 4, 6, 8]),
                      st.sampled_from([0, 0, Fraction(1, 2), 1, 3]))
    row = st.lists(entry, min_size=n, max_size=n)
    packing = [draw(row) for _ in range(p)]
    covering = [draw(row) for _ in range(c)]
    weights = draw(st.lists(st.sampled_from([0, 0, 1, 3]), min_size=n, max_size=n))
    inst = normalize(make_instance(packing, covering, [1] * p, [1] * c, LinearOracle(weights)))
    if draw(st.booleans()):
        return inst, Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=p + c), 400
    return inst, Params.from_epsilon(Fraction(1, 2), p + c), 150


@settings(max_examples=80, deadline=None)
@given(_normalized_instances())
@example((_margin_instance(MARGIN * _QUARTERS_GRID[-1]), _QUARTERS, 100))
def test_screen_is_sound_and_repeats_match_the_residual_keys(case):
    _check_stream(*case)


# ---------------------------------------------------------------------------
# properties of the emptiness screen and the dense direction LP

_rationals = st.builds(Fraction, st.integers(0, 9), st.integers(1, 4))


@st.composite
def _polytopes(draw, max_rows=2):
    """Random box/packing/covering programs, degenerate and infeasible ones
    included: zero entries and rows, repeated rows, zero and negative
    packing bounds, covering bounds near or past a row's total load."""
    n = draw(st.integers(0, 6))
    row = st.lists(st.one_of(st.just(Fraction(0)), _rationals), min_size=n, max_size=n)
    pack = draw(st.lists(row, max_size=max_rows))
    cover = draw(st.lists(row, max_size=max_rows))
    if pack and draw(st.booleans()):
        pack.append(pack[0])
    pack_b = [draw(st.builds(Fraction, st.integers(-2, 12), st.integers(1, 4)))
              for _ in pack]
    # bounds near a row's total load sit near the feasibility boundary
    cover_b = [draw(st.one_of(
        st.builds(Fraction, st.integers(0, 16), st.integers(1, 4)),
        st.integers(0, 10).map(lambda k, row=row: sum(row) * Fraction(k, 8))))
        for row in cover]
    return n, pack, pack_b, cover, cover_b


@settings(max_examples=200, deadline=None)
@given(_polytopes())
@example((2, [[Fraction(1), Fraction(1)]], [Fraction(1)],
          [[Fraction(1), Fraction(1)]], [Fraction(3, 2)]))
def test_screen_empty_implies_simplex_infeasible(program):
    n, pack, pack_b, cover, cover_b = program
    if polytope_surely_empty(pack, pack_b, cover, cover_b):
        status, _ = _ref_linear_max_over_polytope([0.0] * n, pack, pack_b,
                                                  cover, cover_b)
        assert status == "infeasible"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(st.just(Fraction(0)), _rationals), min_size=n, max_size=n),
    st.lists(st.one_of(st.just(Fraction(0)), _rationals), min_size=n, max_size=n),
    st.builds(Fraction, st.integers(0, 20), st.integers(1, 4)))))
def test_knapsack_max_matches_lp_optimum(case):
    cover, pack, room = case
    n = len(cover)
    bld = _Builder("max")
    for i in range(n):
        bld.var(f"x{i}")
    for i in range(n):
        bld.add({f"x{i}": 1}, "<=", 1)
    bld.add({f"x{i}": pack[i] for i in range(n)}, "<=", room)
    bld.set_objective({f"x{i}": cover[i] for i in range(n)})
    sol = simplex_solve(bld.build())
    assert sol.status == "optimal"
    best = fractional_knapsack_max(cover, pack, room)
    assert abs(float(best) - sol.objective) <= 1e-9 * max(1.0, float(best))


_weights = st.one_of(st.just(0.0), st.just(-0.0), st.just(0.1),
                     st.floats(-5, 5, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(_polytopes(), st.data())
def test_dense_direction_lp_matches_named_program(program, data):
    n, pack, pack_b, cover, cover_b = program
    weights = data.draw(st.lists(_weights, min_size=n, max_size=n))
    got = linear_max_over_polytope(weights, pack, pack_b, cover, cover_b)
    want = _ref_linear_max_over_polytope(weights, pack, pack_b, cover, cover_b)
    assert got[0] == want[0]
    if want[1] is not None:
        assert [v.hex() for v in got[1]] == [v.hex() for v in want[1]]
    else:
        assert got[1] is None


_weight_batches = _polytopes().flatmap(lambda program: st.tuples(
    st.just(program),
    st.lists(st.lists(_weights, min_size=program[0], max_size=program[0]),
             min_size=1, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(_weight_batches)
@example(((0, [], [], [], []), [[]]))
@example(((3, [], [], [], []), [[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]]))
@example(((2, [[Fraction(1), Fraction(2)]], [Fraction(-1)], [], []), [[1.0, 1.0]]))
@example(((2, [[Fraction(1), Fraction(1)]], [Fraction(1)],
           [[Fraction(1), Fraction(1)]], [Fraction(3)]), [[1.0, 0.0]]))
@example(((2, [[Fraction(1), Fraction(1)]], [Fraction(3, 2)],
           [[Fraction(1), Fraction(0)]], [Fraction(1)]), [[0.1, 2.0], [2.0, 0.1]]))
def test_prepared_polytope_matches_fresh_solves(case):
    (n, pack, pack_b, cover, cover_b), batch = case
    polytope = prepare_polytope(n, pack, pack_b, cover, cover_b)
    zero, _ = linear_max_over_polytope([0.0] * n, pack, pack_b, cover, cover_b)
    named, _ = _ref_linear_max_over_polytope([0.0] * n, pack, pack_b, cover, cover_b)
    assert (polytope is None) == (zero == "infeasible") == (named == "infeasible")
    if polytope is None:
        return
    # the batch twice, the second time reversed: maximize leaves the
    # prepared tableau as it found it
    for weights in batch + batch[::-1]:
        got = polytope.maximize(weights)
        want = linear_max_over_polytope(weights, pack, pack_b, cover, cover_b)
        assert got[0] == want[0]
        if want[1] is not None:
            assert [v.hex() for v in got[1]] == [v.hex() for v in want[1]]
        else:
            assert got[1] is None
