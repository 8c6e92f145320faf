"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured quantities (run with -s to see them)."""

import functools
import math
import random
import statistics
import time
from fractions import Fraction

import pytest

from pcsm.brute import brute_optimum, brute_pareto
from pcsm.cli import generate_instance
from pcsm import forbidden_dp
from pcsm.continuous import Guess, round_and_filter, solve_main
from pcsm.core import (
    Params,
    iter_bits,
    make_instance,
    mask_of,
    normalize,
)
from pcsm.forbidden_dp import build_forbidden_index, big_elements, forbidden_dp_solve
from pcsm.greedy_dp import vanilla_dp
from pcsm.kmedian import TwoDistInstance, match_value, solve_two_distance
from pcsm.lp import (
    analytic_dual_witness,
    analytic_primal_witness,
    build_dual,
    build_lp,
    build_lp_f,
    check_exact,
    closed_form_optimum,
    simplex_solve,
    verify_upper_bound_construction,
)

from conftest import FAMILIES, random_oracle
from reference import residual_objective, upper_bound_value_formula


def criterion(label):
    """Print one line per criterion, whichever way it goes."""
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                message = fn()
            except BaseException as exc:
                print(f"{label} FAIL: {type(exc).__name__}: {exc}")
                raise
            print(f"{label} PASS: {message}")
        return run
    return wrap


LPF_TABLE = {
    2: 0.25,
    5: 0.31727598,
    10: 0.33592079,
    50: 0.34990649,
    100: 0.35160444,
}


@criterion("criterion 1")
def test_criterion_1_lpf_table_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for m, want in LPF_TABLE.items():
        sol = simplex_solve(build_lp_f(m))
        assert sol.status == "optimal"
        worst = max(worst, abs(sol.objective - want))
        assert abs(sol.objective - want) < 1e-6, (m, sol.objective, want)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60
    return (f"LP-F optima match the published table for m in "
            f"{sorted(LPF_TABLE)} (max |diff| {worst:.2e}, {elapsed:.1f}s)")


@criterion("criterion 2")
def test_criterion_2_lp_closed_form_and_witnesses():
    for m in (1, 2, 3, 5, 10, 50):
        want = closed_form_optimum(m)
        sol = simplex_solve(build_lp(m))
        assert sol.status == "optimal"
        assert abs(sol.objective - float(want)) < 1e-7, (m, sol.objective)
        primal = check_exact(build_lp(m), analytic_primal_witness(m))
        dual = check_exact(build_dual(m), analytic_dual_witness(m))
        assert primal.feasible and primal.max_violation == 0
        assert dual.feasible and dual.max_violation == 0
        assert primal.objective == want
        assert dual.objective == want
    return ("simplex matches (1-1/m)^m within 1e-7 and both analytic "
            "witnesses are exactly feasible with the closed-form value for "
            "m in [1, 2, 3, 5, 10, 50]")


@criterion("criterion 3")
def test_criterion_3_upper_bound_construction():
    for m in (10, 50, 100):
        res = verify_upper_bound_construction(m)
        assert res.feasible, (m, res.violated)
        assert res.objective == upper_bound_value_formula(m)
        assert res.objective < Fraction("0.3647"), (m, float(res.objective))
    return ("the perturbed point is feasible for m in [10, 50, 100] with "
            "value a_m - beta(alpha-1/2)/2 + 3beta/4m < 0.3647")


def _planted_suite(count=200):
    suite = []
    seed = 0
    while len(suite) < count:
        n = 6 + (seed % 6)                       # 6..11
        inst = generate_instance(n=n, p=1, c=1,
                                 family=FAMILIES[seed % 3],
                                 density=0.6, seed=seed)
        suite.append(inst)
        seed += 1
    return suite


_WARMUP_EPS = Fraction(1, 4)
_WARMUP_CACHE = {}


def _warmup_batch():
    """The 200-instance batch shared by criteria 4 and 5: the populated
    tables of every forbidden-DP run are kept for the disjointness check."""
    if not _WARMUP_CACHE:
        t0 = time.perf_counter()
        runs = []
        run_single_dp = forbidden_dp._run_single_dp

        def recording_dp(*args, **kw):
            tables.append(run_single_dp(*args, **kw))
            return tables[-1]

        with pytest.MonkeyPatch.context() as m:
            m.setattr(forbidden_dp, "_run_single_dp", recording_dp)
            for inst in _planted_suite(200):
                br = brute_optimum(inst)
                v = vanilla_dp(inst)
                tables = []
                f = forbidden_dp_solve(inst, _WARMUP_EPS)
                runs.append((inst, br, v, f, tables))
        _WARMUP_CACHE["runs"] = runs
        _WARMUP_CACHE["seconds"] = time.perf_counter() - t0
    return _WARMUP_CACHE["runs"], _WARMUP_CACHE["seconds"]


@criterion("criterion 4")
def test_criterion_4_warmup_floors():
    runs, elapsed = _warmup_batch()
    for inst, br, v, f, _tables in runs:
        assert br.feasible_count >= 1      # planted construction
        assert v.found
        assert 4 * v.best_value >= br.best_value
        cov = inst.cover_value(v.best_set)
        pak = inst.pack_value(v.best_set)
        assert all(2 * x >= b for x, b in zip(cov, inst.cover_bound))
        assert all(x <= b for x, b in zip(pak, inst.pack_bound))
        assert f.found
        assert 4 * f.best_value >= br.best_value
        assert inst.cover_value(f.best_set)[0] >= inst.cover_bound[0]
        assert (inst.pack_value(f.best_set)[0]
                <= (1 + _WARMUP_EPS) * inst.pack_bound[0])
    assert elapsed <= 300
    return (f"0.25 floors with the stated violation bounds hold on all "
            f"200 planted instances ({elapsed:.1f}s)")


@criterion("criterion 5")
def test_criterion_5_forbidden_disjointness():
    runs, _elapsed = _warmup_batch()
    checked_cells = 0
    for inst, _br, _v, _f, tables in runs:
        small = ((1 << inst.n) - 1) & ~big_elements(inst, _WARMUP_EPS)
        index = build_forbidden_index(inst, small_mask=small)
        forb = {}
        for table in tables:
            for (c_cur, p_cur), (mask, _value) in table.items():
                if p_cur not in forb:
                    forb[p_cur] = index.forbidden_mask(p_cur)
                assert mask & forb[p_cur] == 0
                checked_cells += 1
    return (f"all {checked_cells} populated cells across every "
            f"forbidden-DP run are disjoint from their forbidden sets")


def _fixed_guess(seed, n):
    rng = random.Random(seed)
    inst = normalize(make_instance(
        [[rng.randint(0, 9) for _ in range(n)]],
        [[rng.randint(0, 9) for _ in range(n)]],
        [max(1, 3 * n)], [max(1, 2 * n)],
        random_oracle(rng, n, FAMILIES[seed % 3])))
    params = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=2)
    guess = Guess(instance=inst, discarded=0, chosen=0,
                  cover_targets=(Fraction(1),) * inst.c, params=params)
    x_bar = {e: rng.random() * 0.9 for e in guess.residual_elements()}
    return inst, guess, x_bar


@criterion("criterion 6")
def test_criterion_6_rounding_statistics():
    trials = 10_000
    for seed in range(5):
        inst, guess, x_bar = _fixed_guess(seed, n=10 + seed)
        elements = sorted(x_bar)
        pack_sums = [0.0] * inst.p
        cover_sums = [0.0] * inst.c
        counts = {e: 0 for e in elements}
        draws = random.Random(seed)
        for _ in range(trials):
            out = round_and_filter(guess, x_bar, draws)
            for i in range(inst.p):
                pack_sums[i] += sum(float(inst.packing[i][e])
                                    for e in iter_bits(out.sampled))
            for j in range(inst.c):
                cover_sums[j] += sum(float(inst.covering[j][e])
                                     for e in iter_bits(out.sampled))
            for e in elements:
                if (out.sampled >> e) & 1:
                    counts[e] += 1
        for i in range(inst.p):
            mean = pack_sums[i] / trials
            expect = sum(float(inst.packing[i][e]) * x_bar[e] for e in elements)
            sigma = math.sqrt(sum(float(inst.packing[i][e]) ** 2
                                  * x_bar[e] * (1 - x_bar[e])
                                  for e in elements) / trials)
            assert abs(mean - expect) <= 4 * sigma + 1e-12, (seed, i)
        for j in range(inst.c):
            mean = cover_sums[j] / trials
            expect = sum(float(inst.covering[j][e]) * x_bar[e] for e in elements)
            sigma = math.sqrt(sum(float(inst.covering[j][e]) ** 2
                                  * x_bar[e] * (1 - x_bar[e])
                                  for e in elements) / trials)
            assert abs(mean - expect) <= 4 * sigma + 1e-12, (seed, j)
        for e in elements:
            p = x_bar[e]
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(counts[e] / trials - p) <= 4 * sigma + 1e-12, (seed, e)
    return (f"per-constraint means and per-element frequencies within "
            f"4 sigma over {trials} trials on 5 fixed guesses")


@criterion("criterion 7")
def test_criterion_7_hard_filter_and_median_ratio():
    t0 = time.perf_counter()
    eps = Fraction(1, 10)
    params = Params.from_delta(eps, Fraction(1, 5), b=2)
    ratios = []
    seed = 0
    runs = 0
    while runs < 50:
        n = 6 + (seed % 4)                      # 6..9
        inst = generate_instance(n=n, p=1, c=1, family=FAMILIES[seed % 3],
                                 density=0.6, seed=1000 + seed)
        seed += 1
        br = brute_optimum(inst)
        if not br.feasible_count or br.best_value == 0:
            continue
        runs += 1
        res = solve_main(inst, eps, seed=runs, budget=6000, params=params,
                         trials=8, steps=10, samples_per_grad=16)
        if not res.found:
            ratios.append(0.0)
            continue
        norm = normalize(inst)
        loads_p = norm.pack_value(res.solution)
        loads_c = norm.cover_value(res.solution)
        assert all(v <= 1 for v in loads_p), "packing filter must be exact"
        assert all(v >= 1 - eps for v in loads_c)
        ratios.append(float(Fraction(res.value) / br.best_value))
    med = statistics.median(ratios)
    elapsed = time.perf_counter() - t0
    assert med >= 0.5, f"median ratio {med}"
    return (f"packing filter exact on all 50 runs, cover >= 1-eps, "
            f"median value ratio {med:.3f} >= 0.5 ({elapsed:.1f}s)")


@criterion("criterion 8")
def test_criterion_8_kmedian_bound():
    from itertools import combinations
    rng = random.Random(808)
    done = 0
    while done < 100:
        nf = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        caps = tuple(rng.randint(1, 4) for _ in range(nf))
        pairs = frozenset((c, f) for c in range(nc) for f in range(nf)
                          if rng.random() < 0.45)
        inst = TwoDistInstance(caps, nc, pairs, 1, 3, rng.randint(1, nf))
        best = None
        for r in range(inst.k + 1):
            for combo in combinations(range(nf), r):
                if sum(caps[f] for f in combo) < nc:
                    continue
                m = match_value(inst, mask_of(combo))
                cost = m + 3 * (nc - m)
                if best is None or cost < best:
                    best = cost
        res = solve_two_distance(inst)
        if best is None:
            assert not res.found
            continue
        done += 1
        assert res.found
        assert res.cost == 3 * nc - 2 * res.matched     # exact cost identity
        assert res.cost <= 2.294 * best + 1e-9, (res.cost, best)
    return ("cost <= 2.294 x optimum and the cost identity holds exactly "
            "on 100 two-distance instances")


@criterion("criterion 9")
def test_criterion_9_oracle_equivalence():
    rng = random.Random(909)
    # pareto dominance over DP cells
    for trial in range(12):
        n = rng.randint(5, 10)
        inst = generate_instance(n=n, p=1, c=1, family=FAMILIES[trial % 3],
                                 density=0.6, seed=3000 + trial)
        pareto = brute_pareto(inst)
        res = vanilla_dp(inst, saturate_cover=False)
        for (q, cov, pak), (mask, value) in res.table.items():
            assert pareto[(cov, pak)][0] >= value
    # monotonicity / submodularity of the three families and the residual
    # objective
    for trial in range(60):
        family = FAMILIES[trial % 3]
        n = rng.randint(3, 10)
        orc = random_oracle(rng, n, family)
        pool = list(range(n))
        rng.shuffle(pool)
        cut = rng.randint(0, n - 1)
        a = mask_of(pool[: rng.randint(0, cut)])
        b = mask_of(pool[:cut])
        x = pool[-1]
        if (b >> x) & 1:
            continue
        bit = 1 << x
        assert orc.eval(a) <= orc.eval(b)
        assert orc.eval(a | bit) - orc.eval(a) >= orc.eval(b | bit) - orc.eval(b)
    for trial in range(20):
        n = rng.randint(4, 9)
        inst = normalize(generate_instance(n=n, p=1, c=1,
                                           family=FAMILIES[trial % 3],
                                           density=0.7, seed=4000 + trial))
        params = Params.from_delta(Fraction(1, 10), Fraction(1, 5), b=2)
        chosen = rng.randrange(1 << n)
        guess = Guess(instance=inst, discarded=0, chosen=chosen,
                      cover_targets=(Fraction(1),) * inst.c, params=params)
        rest = [i for i in range(n) if not (chosen >> i) & 1]
        if len(rest) < 2:
            continue
        rng.shuffle(rest)
        x = rest[-1]
        cut = rng.randint(0, len(rest) - 1)
        a = mask_of(rest[: rng.randint(0, cut)])
        b = mask_of(rest[:cut])
        bit = 1 << x
        ga = residual_objective(guess, a | bit) - residual_objective(guess, a)
        gb = residual_objective(guess, b | bit) - residual_objective(guess, b)
        assert ga >= gb
        assert residual_objective(guess, a) <= residual_objective(guess, b)
    return ("pareto dominates every DP cell; monotonicity and "
            "submodularity hold for all oracle families and residual "
            "objectives")
