"""Seeded workload generators.

A workload is a fixed number (its quota) of rounds; round ``r`` of seed
``s`` is drawn from its own ``random.Random`` keyed on ``(workload, s, r)``,
so the rounds are the same in every run with that seed.  A round is a list
of ops, each one public solver call plus the verifier for its output.  Every
round has the same shape (sizes, families, solvers); the seed draws the data.

Solver calls go through module attributes (``greedy_dp.vanilla_dp``, not a
name imported here) so the traced run can swap in its wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from pcsm import brute, continuous, forbidden_dp, greedy_dp, kmedian
from pcsm.core import (
    ConcaveOfModularOracle,
    CoverageOracle,
    LinearOracle,
    Params,
    make_instance,
    mask_of,
    normalize,
)
from pcsm.kmedian import TwoDistInstance

import checks

FAMILIES = ("linear", "coverage", "concave_of_modular")


@dataclass
class Op:
    solver: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], checks.Verdict]


@dataclass
class Round:
    ops: list = field(default_factory=list)
    oracles: list = field(default_factory=list)   # objectives the ops evaluate


# ---------------------------------------------------------------------------
# instance generators


def _oracle(rng, n, family):
    if family == "linear":
        return LinearOracle([rng.randint(0, 9) for _ in range(n)])
    if family == "coverage":
        sets = [[u for u in range(n) if rng.random() < 0.4] for _ in range(n)]
        return CoverageOracle(n, sets, [rng.randint(1, 5) for _ in range(n)])
    weights = [rng.randint(0, 9) for _ in range(n)]
    return ConcaveOfModularOracle(weights, max(1, sum(weights) // 2))


def _int_entry(rng):
    return rng.randint(1, 9) if rng.random() < 0.6 else 0


def _rational_entry(rng):
    return Fraction(rng.randint(1, 36), rng.randint(1, 4)) if rng.random() < 0.6 else 0


INT_ENTRY_MEAN = Fraction(3)                              # 0.6 * 5
RATIONAL_ENTRY_MEAN = Fraction(3, 5) * Fraction(37, 2) * Fraction(25, 48)


def planted_instance(rng, n, p, c, family, planted_size,
                     entry=_int_entry, entry_mean=INT_ENTRY_MEAN, slack=Fraction(0)):
    """Random instance whose bounds are the loads of a planted subset of
    ``planted_size`` elements.  Each row is redrawn until its planted load
    lies within ``slack`` (a share) of ``planted_size * entry_mean``: DP
    table sizes grow with the bounds, so pinning them keeps per-instance
    cost comparable from seed to seed.  The oracle is redrawn until the
    planted set has positive value.

    Returns (instance, planted mask)."""
    planted = rng.sample(range(n), planted_size)
    target = planted_size * entry_mean
    lo, hi = target * (1 - slack), target * (1 + slack)
    if slack == 0:
        lo = hi = round(target)

    def row():
        while True:
            values = [entry(rng) for _ in range(n)]
            if lo <= sum(values[i] for i in planted) <= hi:
                return values

    packing = [row() for _ in range(p)]
    covering = [row() for _ in range(c)]
    mask = mask_of(planted)
    while True:
        oracle = _oracle(rng, n, family)
        if oracle.eval(mask) > 0:
            break
    return make_instance(packing, covering,
                         [sum(r[i] for i in planted) for r in packing],
                         [sum(r[i] for i in planted) for r in covering],
                         oracle), mask


def dp_work(inst):
    """Cells of the greedy DP table times completion candidates: the number
    of (size, pack load, saturated cover load) signatures over the subsets
    whose packing fits, times the number of (pack, cover) pairs among them.
    ``dp_with_completion`` scans every candidate for every cell, so its time
    follows this count (correlation 0.91-0.98 over 30 draws of each shape).
    Counted from the rows alone, without pcsm."""
    pack_bound = tuple(int(b) for b in inst.pack_bound)
    cover_bound = tuple(int(b) for b in inst.cover_bound)
    states = {(0, (0,) * len(pack_bound), (0,) * len(cover_bound))}
    for e in range(inst.n):
        pack_e = [int(row[e]) for row in inst.packing]
        cover_e = [int(row[e]) for row in inst.covering]
        grown = set()
        for size, pack, cover in states:
            new_pack = tuple(a + b for a, b in zip(pack, pack_e))
            if all(a <= b for a, b in zip(new_pack, pack_bound)):
                grown.add((size + 1, new_pack, tuple(min(a + b, m) for a, b, m
                                                     in zip(cover, cover_e, cover_bound))))
        states |= grown
    return len(states) * len({(pack, cover) for _size, pack, cover in states})


def typical_instance(rng, n, p, c, family):
    """A planted instance, redrawn until its ``dp_work`` lies within
    DP_WORK_BAND of the shape's DP_WORK_TARGET.  Unselected, the completion
    time of one size varies up to 1:10 between draws and a run's total
    follows the seed; selected, it varies by about a tenth."""
    target = DP_WORK_TARGET[n, p, c]
    while True:
        inst, planted = planted_instance(rng, n, p, c, family, planted_size=n // 2)
        if abs(dp_work(inst) - target) <= DP_WORK_BAND * target:
            return inst, planted


def rational_twin(rng, inst):
    """Every row and its bound scaled by one random non-integer factor: the
    same feasible sets (so the same brute-force optimum) with rational data."""
    def factor():
        while True:
            f = Fraction(rng.randint(2, 9), rng.randint(2, 9))
            if f.denominator > 1:
                return f
    fp = [factor() for _ in inst.packing]
    fc = [factor() for _ in inst.covering]
    return make_instance(
        [[v * f for v in row] for row, f in zip(inst.packing, fp)],
        [[v * f for v in row] for row, f in zip(inst.covering, fc)],
        [b * f for b, f in zip(inst.pack_bound, fp)],
        [b * f for b, f in zip(inst.cover_bound, fc)],
        inst.objective)


def two_distance_instance(rng, nf, nc):
    """a = 1, b = 3 (b <= 3a, so the match-flow oracle path runs), redrawn
    until the k largest facilities can hold every client."""
    while True:
        caps = tuple(rng.randint(1, 4) for _ in range(nf))
        pairs = frozenset((cl, f) for cl in range(nc) for f in range(nf)
                          if rng.random() < 0.45)
        k = rng.randint(2, 4)
        if sum(sorted(caps, reverse=True)[:k]) >= nc:
            return TwoDistInstance(caps, nc, pairs, 1, 3, k)


# ---------------------------------------------------------------------------
# verify_dp: brute force, the greedy DP with completion, the forbidden-set DP,
# solve_polynomial and two-distance k-median, all against exact optima


FORBIDDEN_EPS = Fraction(1, 4)
POLY_EPS = Fraction(1, 2)
DP_SIZES = (10, 11, 12)          # p = c = 1; the completion scan dominates from 11
MULTI_ROW = ((10, 2, 1), (10, 1, 2))
POLY_LARGE_N = 30
KMEDIAN_SHAPES = ((8, 10), (9, 11))
# Median dp_work over 30 draws of each shape (n, p, c), and the share of it
# an instance may deviate by.
DP_WORK_TARGET = {(10, 1, 1): 21000, (11, 1, 1): 37000, (12, 1, 1): 100000,
                  (10, 2, 1): 64000, (10, 1, 2): 70000}
DP_WORK_BAND = 0.15


def _set_solver_ops(rnd, label, inst, planted, single_row, twin):
    truth = checks.Truth()
    rnd.oracles.append(inst.objective)
    rnd.ops.append(Op("brute_optimum", label, lambda: brute.brute_optimum(inst),
                      lambda r: checks.check_brute(inst, r, planted, truth)))
    rnd.ops.append(Op("vanilla_dp", label, lambda: greedy_dp.vanilla_dp(inst),
                      lambda r: checks.check_vanilla(inst, r, truth)))
    rnd.ops.append(Op("dp_with_completion", label,
                      lambda: greedy_dp.dp_with_completion(inst),
                      lambda r: checks.check_completion(inst, r, truth)))
    if not single_row:
        return
    rnd.ops.append(Op("forbidden_dp_solve", label,
                      lambda: forbidden_dp.forbidden_dp_solve(inst, FORBIDDEN_EPS),
                      lambda r: checks.check_forbidden(inst, r, FORBIDDEN_EPS, truth)))
    rnd.ops.append(Op("solve_polynomial", label + ".twin",
                      lambda: forbidden_dp.solve_polynomial(twin, POLY_EPS),
                      lambda r: checks.check_polynomial(twin, r, POLY_EPS, truth)))


def verify_dp_round(rng, index):
    rnd = Round()
    k = 0
    for n in DP_SIZES:
        for family in FAMILIES:
            inst, planted = typical_instance(rng, n, 1, 1, family)
            _set_solver_ops(rnd, f"r{index}.{k}.n{n}.{family}", inst, planted,
                            True, rational_twin(rng, inst))
            k += 1
    for n, p, c in MULTI_ROW:
        family = FAMILIES[(index + k) % 3]
        inst, planted = typical_instance(rng, n, p, c, family)
        _set_solver_ops(rnd, f"r{index}.{k}.n{n}.p{p}c{c}.{family}", inst, planted,
                        False, None)
        k += 1

    family = FAMILIES[index % 3]
    big, _ = planted_instance(rng, POLY_LARGE_N, 1, 1, family, planted_size=4,
                              entry=_rational_entry, entry_mean=RATIONAL_ENTRY_MEAN,
                              slack=Fraction(1, 4))
    rnd.oracles.append(big.objective)
    rnd.ops.append(Op("solve_polynomial", f"r{index}.{k}.n{POLY_LARGE_N}.{family}",
                      lambda: forbidden_dp.solve_polynomial(big, POLY_EPS),
                      lambda r: checks.check_polynomial(big, r, POLY_EPS)))
    k += 1
    for nf, nc in KMEDIAN_SHAPES:
        km = two_distance_instance(rng, nf, nc)
        rnd.ops.append(Op("solve_two_distance", f"r{index}.{k}.f{nf}c{nc}",
                          lambda km=km: kmedian.solve_two_distance(km),
                          lambda r, km=km: checks.check_kmedian(km, r)))
        k += 1
    return rnd


# ---------------------------------------------------------------------------
# continuous: the criterion-7 shape of solve_main, checked against brute force


MAIN_EPS = Fraction(1, 10)
MAIN_PARAMS = Params.from_delta(MAIN_EPS, Fraction(1, 5), b=2)
MAIN_SIZES = (6, 7, 8, 9)
MAIN_KNOBS = dict(budget=6000, trials=8, steps=10, samples_per_grad=16)
# solve_main's cost grows with the number of subsets that fit the packing
# row (each is a candidate chosen set for every cover target); instances are
# redrawn until that share of all 2^n subsets lies in this band.
PACK_FEASIBLE_SHARE = (Fraction(3, 20), Fraction(1, 4))


def pack_feasible_share(inst):
    fits = sum(all(l <= b for l, b in zip(inst.pack_value(m), inst.pack_bound))
               for m in range(1 << inst.n))
    return Fraction(fits, 1 << inst.n)


def continuous_round(rng, index):
    rnd = Round()
    lo, hi = PACK_FEASIBLE_SHARE
    for n in MAIN_SIZES:
        for family in FAMILIES:
            while True:
                inst, _ = planted_instance(rng, n, 1, 1, family, planted_size=n // 3)
                if lo <= pack_feasible_share(inst) <= hi:
                    break
            norm = normalize(inst)
            seed = rng.randrange(1 << 30)
            rnd.oracles.append(inst.objective)
            rnd.ops.append(Op(
                "solve_main", f"r{index}.n{n}.{family}",
                lambda inst=inst, seed=seed: continuous.solve_main(
                    inst, MAIN_EPS, seed=seed, params=MAIN_PARAMS, **MAIN_KNOBS),
                lambda r, inst=inst, norm=norm: checks.check_main(inst, norm, r, MAIN_EPS)))
    return rnd


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, int], Round]
    quota: int            # rounds in the fixed set of ops a run times


WORKLOADS = {
    "verify_dp": Workload("verify_dp", verify_dp_round, quota=4),
    "continuous": Workload("continuous", continuous_round, quota=9),
}


def make_round(workload, seed, index):
    return workload.make_round(random.Random(f"{workload.name}:{seed}:{index}"), index)
