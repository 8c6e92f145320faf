import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
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
    correct_guess_for,
    enumerate_guesses,
    fractional_knapsack_max,
    greedy_marginal_order,
    is_correct,
    multilinear_estimate,
    polytope_surely_empty,
    residual_objective,
    round_and_filter,
    solve_main,
)
from pcsm.core import (
    LinearOracle,
    Params,
    iter_bits,
    make_instance,
    marginal,
    mask_of,
    normalize,
)
from pcsm.lp import (
    _Builder,
    _float_rat,
    linear_max_over_polytope,
    prepare_polytope,
    simplex_solve,
)

from conftest import FAMILIES, exact_multilinear, random_instance, random_oracle

RELAXED = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=2)


def _norm_instance(seed, n=7, family="coverage"):
    rng = random.Random(seed)
    return normalize(random_instance(rng, n, p=1, c=1, family=family))


def _guess(inst, chosen, discarded, targets, params=RELAXED):
    return Guess(instance=inst, chosen=chosen, discarded=discarded,
                 cover_targets=targets, alpha=params.alpha, beta=params.beta,
                 delta=params.delta, gamma=params.gamma)


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
            assert any(inst.packing[i][ell] >= g.beta * g.residual_pack[i]
                       for i in g.critical_pack)
        for i in g.critical_pack:
            assert g.residual_pack[i] <= g.delta
        for j in g.critical_cover:
            assert g.residual_cover[j] <= g.delta * g.cover_targets[j]


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
    out = round_and_filter(g, x_bar, seed=1)
    assert out.sampled == 0
    assert out.solution == 0b11


def test_round_no_critical_large_keeps_everything():
    inst = _norm_instance(71)
    g = _guess(inst, chosen=0, discarded=0, targets=(Fraction(1),))
    if g.critical_large:
        pytest.skip("instance happens to have critical-large elements")
    x_bar = {e: 0.7 for e in g.residual_elements()}
    out = round_and_filter(g, x_bar, seed=2)
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
    out = round_and_filter(g2, x_bar, seed=3)
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
    for t in range(trials):
        out = round_and_filter(g, x_bar, seed=t)
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
                     trials=3, steps=4, samples_per_grad=4)
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
    return (g.discarded, g.chosen, g.cover_targets, g.alpha, g.beta, g.delta,
            g.gamma, g.residual_pack, g.residual_cover, g.critical_pack,
            g.critical_cover, g.large_pack, g.large_cover, g.critical_large,
            g.undetermined)


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
    """(seed, n, p, c, family, budget): n 5-9, p and c in {1, 2}, all three
    families; the smallest budgets truncate the enumeration."""
    cases = []
    for k in range(42):
        n = 5 + k % 5
        p, c = (1, 1) if k % 3 else (1 + k % 2, 1 + (k // 2) % 2)
        budget = (100, 300, 600)[k % 3] if n > 5 else 600
        cases.append((500 + k, n, p, c, FAMILIES[k % 3], budget))
    return cases


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


def test_golden_equivalence_guesses_and_main(monkeypatch):
    truncated = multi_row = 0
    solves = []
    for seed, n, p, c, family, budget in _golden_cases():
        rng = random.Random(seed)
        inst = random_instance(rng, n, p=p, c=c, family=family)
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
                     steps=3, samples_per_grad=4)
        res = solve_main(inst, Fraction(1, 10), **knobs)
        rounded = []

        def recording_round(guess, *args, **kw):
            out = round_and_filter(guess, *args, **kw)
            rounded.append((guess.chosen, out.solution))
            return out

        with monkeypatch.context() as m:
            # solve_main normalizes an equal instance; reuse the reference list
            m.setattr(cont, "enumerate_guesses", lambda *args, **kw: want)
            m.setattr(cont, "prepare_polytope", _ref_prepare_polytope(solves))
            m.setattr(cont, "reach_falls_short", lambda *args: False)
            m.setattr(cont, "round_and_filter", recording_round)
            ref_res = solve_main(inst, Fraction(1, 10), **knobs)
        assert res == ref_res
        assert repr(res) == repr(ref_res)
        # every guess with a point rounds `trials` times in a row; recount its
        # filter verdicts one candidate at a time
        trials = knobs["trials"]
        feasible = [d for d in res.diagnostics if not d.infeasible_polytope]
        assert len(rounded) == trials * len(feasible)
        for k, diag in enumerate(feasible):
            group = rounded[trials * k:trials * (k + 1)]
            candidates = [group[0][0]] + [solution for _, solution in group]
            assert (diag.filter_pass, diag.filter_fail, diag.best_value) == _ref_filter(
                norm, candidates, Fraction(1, 10))
    assert truncated >= 1 and multi_row >= 5
    # the reference really re-solved the named program at every step
    assert len(solves) > 0


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


def test_shared_reach_memo_screens_like_a_fresh_screen(monkeypatch):
    # with one memo across an instance's guesses, in either order, a guess
    # reaches the LP exactly when polytope_surely_empty clears it on its own
    reached = []

    def spy(n, *rows):
        reached.append(n)
        return prepare_polytope(n, *rows)

    monkeypatch.setattr(cont, "prepare_polytope", spy)
    screened = 0
    for seed in range(6):
        p, c = (1, 1) if seed % 2 else (2, 2)
        inst = normalize(random_instance(random.Random(700 + seed), 7, p=p, c=c,
                                         family=FAMILIES[seed % 3]))
        params = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=p + c)
        guesses = enumerate_guesses(inst, params, budget=1500).guesses
        for order in (guesses, guesses[::-1]):
            memo = {}
            for g in order:
                elements = g.residual_elements()
                empty = polytope_surely_empty(
                    [[row[e] for e in elements] for row in inst.packing], g.residual_pack,
                    [[row[e] for e in elements] for row in inst.covering], g.residual_cover)
                reached.clear()
                try:
                    continuous_greedy(g, steps=1, samples_per_grad=1, reach_memo=memo)
                except GuessInfeasibleError:
                    pass
                assert bool(reached) != empty
                screened += empty
    assert screened > 100


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
