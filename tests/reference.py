"""Reference code that only the tests call: the paper's existence argument
for a correct guess, the residual objective, a Monte-Carlo multilinear
estimator, a per-program emptiness screen on Fraction rows, the closed
form of the upper-bound construction's value, the ascent that samples
every residual element's gain and the oracles' bit-by-bit methods from
before the per-byte tables.  The solvers never run any of it."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from pcsm import continuous as cont
from pcsm.core import (
    ConcaveOfModularOracle,
    CoverageOracle,
    Instance,
    LinearOracle,
    Params,
    SubmodularOracle,
    iter_bits,
    mask_of,
)
from pcsm.lp import UB_ALPHA, UB_BETA, closed_form_optimum


def residual_objective(guess: cont.Guess, t_mask: int):
    """g(T) = f(T + E1) - f(E1): monotone, submodular, zero on the empty set."""
    if t_mask & ~guess.undetermined:
        raise ValueError("T must avoid both chosen and discarded elements")
    oracle = guess.instance.objective
    return oracle.eval(t_mask | guess.chosen) - oracle.eval(guess.chosen)


def greedy_marginal_order(oracle: SubmodularOracle, mask: int) -> tuple:
    """Order a set so each element has maximal marginal given its prefix."""
    remaining = list(iter_bits(mask))
    order = []
    cur = 0
    while remaining:
        state = oracle.begin(cur)
        best = max(remaining, key=lambda e: (oracle.gain(state, e), -e))
        order.append(best)
        remaining.remove(best)
        cur |= 1 << best
    return tuple(order)


def correct_guess_for(inst: Instance, params: Params, optimum: int) -> cont.Guess:
    """The guess the existence argument constructs for a known optimum:
    chosen = top-gamma greedy prefix plus the optimum's large elements,
    cover targets on the geometric grid just below the optimum's coverage."""
    oracle = inst.objective
    order = greedy_marginal_order(oracle, optimum)
    gamma_count = min(len(order), int(math.ceil(params.gamma)))
    top = mask_of(order[:gamma_count])
    threshold = params.alpha * params.delta
    cov = inst.cover_value(optimum)
    targets = tuple(_grid_floor(Fraction(v), params.delta) for v in cov)
    big = mask_of(
        ell for ell in iter_bits(optimum)
        if any(inst.packing[i][ell] >= threshold for i in range(inst.p))
        or any(inst.covering[j][ell] >= threshold * targets[j] for j in range(inst.c)))
    chosen = top | big
    # E0: the high-marginal leftovers and the large elements of the
    # intermediate guess H = (empty, E1, c')
    state = oracle.begin(chosen)
    high = mask_of(
        ell for ell in range(inst.n)
        if not (chosen >> ell) & 1
        and oracle.gain(state, ell) > oracle.eval(chosen) / params.gamma)
    h = _guess_of(inst, params, 0, chosen, targets)
    return _guess_of(inst, params, high | h.large_pack | h.large_cover, chosen, targets)


def _guess_of(inst, params, discarded, chosen, targets):
    return cont.Guess(instance=inst, discarded=discarded, chosen=chosen,
                      cover_targets=targets, alpha=params.alpha, beta=params.beta,
                      delta=params.delta, gamma=params.gamma)


def is_correct(guess: cont.Guess, optimum: int) -> bool:
    """The four correctness clauses against a fixed optimal solution."""
    inst = guess.instance
    if guess.chosen & ~optimum:
        return False
    if guess.discarded & optimum:
        return False
    order = greedy_marginal_order(inst.objective, optimum)
    # gamma may exceed |O|; then all of O must be chosen
    gamma_count = min(len(order), int(math.ceil(guess.gamma)))
    if mask_of(order[:gamma_count]) & ~guess.chosen:
        return False
    cov = inst.cover_value(optimum)
    for t, v in zip(guess.cover_targets, cov):
        if not (1 <= t <= v < (1 + guess.delta) * t):
            return False
    return True


def _grid_floor(value: Fraction, delta: Fraction) -> Fraction:
    """Largest (1+delta)^j <= value with j >= 0 (value must be >= 1)."""
    if value < 1:
        raise ValueError("grid point requires value >= 1")
    step = 1 + delta
    point = Fraction(1)
    while point * step <= value:
        point *= step
    return point


@dataclass(frozen=True)
class MultilinearEstimate:
    mean: float
    stderr: float
    mean_exact: object       # exact rational average of the sampled values


def multilinear_estimate(oracle: SubmodularOracle, x: Sequence[float],
                         samples: int, seed: int) -> MultilinearEstimate:
    """Monte-Carlo estimate of E[f(R)] with elements drawn independently."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(x) != oracle.n:
        raise ValueError("probability vector length mismatch")
    rng = random.Random(seed)
    fixed = 0
    for i, p in enumerate(x):
        if not 0 <= p <= 1:
            raise ValueError("probabilities must lie in [0, 1]")
        if p == 1:
            fixed |= 1 << i
    total = Fraction(0)
    total_sq = Fraction(0)
    for _ in range(samples):
        mask = fixed
        for i, p in enumerate(x):
            if 0 < p < 1:
                if rng.random() < p:
                    mask |= 1 << i
        v = Fraction(oracle.eval(mask))
        total += v
        total_sq += v * v
    mean = total / samples
    if samples > 1:
        var = (total_sq - samples * mean * mean) / (samples - 1)
        stderr = math.sqrt(max(0.0, float(var)) / samples)
    else:
        stderr = float("nan")
    return MultilinearEstimate(mean=float(mean), stderr=stderr, mean_exact=mean)


# the screen's margin: a share of the largest bound, at least 1
MARGIN = Fraction(1, 10 ** 6)


def knapsack_max(values, weights, room) -> Fraction:
    """max values.x over {x in [0,1]^n : weights.x <= room}, in Fractions:
    zero-weight items whole, the rest by falling value/weight ratio, each
    as far as the room (a negative room counts as 0) allows."""
    room = max(Fraction(room), Fraction(0))
    total = sum((Fraction(v) for v, w in zip(values, weights) if w == 0), Fraction(0))
    items = sorted(((Fraction(v), Fraction(w)) for v, w in zip(values, weights) if w),
                   key=lambda item: item[0] / item[1], reverse=True)
    for v, w in items:
        share = min(Fraction(1), room / w)
        total += share * v
        room -= share * w
    return total


def row_reaches(pack_rows, pack_bounds, cover_rows) -> list:
    """Per covering row, the most it can reach over the box [0,1]^n: the
    least of its plain sum and its maximum under each single packing row."""
    return [min([sum(map(Fraction, row), Fraction(0))]
                + [knapsack_max(row, prow, b) for prow, b in zip(pack_rows, pack_bounds)])
            for row in cover_rows]


def polytope_surely_empty(pack_rows, pack_bounds, cover_rows, cover_bounds) -> bool:
    """Whether {x in [0,1]^n : pack @ x <= pack_bounds, cover @ x >= cover_bounds}
    is empty by an exact certificate: some covering row misses its bound by
    more than MARGIN times the largest of 1 and every |bound|, even within
    the box and a single packing row.

    Each (covering, packing) pair relaxes the polytope, so the test is
    sound for any number of rows; with one row of each it is exact up to
    the margin.
    """
    bounds = [Fraction(b) for b in list(pack_bounds) + list(cover_bounds)]
    margin = MARGIN * max([Fraction(1)] + [abs(b) for b in bounds])
    return any(Fraction(b) - r > margin
               for r, b in zip(row_reaches(pack_rows, pack_bounds, cover_rows), cover_bounds))


def sampling_ascent(guess: cont.Guess, steps: int, samples_per_grad: int, seed: int) -> dict:
    """``continuous_greedy`` as it was before it skipped the elements with
    no gain on E1: every step samples every residual element's gain."""
    cont._check_ascent(steps, samples_per_grad)
    inst = guess.instance
    elements = guess.residual_elements()
    if not elements:
        if cont.empty_without_variables(guess.residual_pack, guess.residual_cover):
            raise cont.GuessInfeasibleError("empty residual polytope")
        return {}
    pack_rows, cover_rows = cont._residual_rows(inst.packing, inst.covering, elements)
    polytope = cont.prepare_polytope(len(elements), pack_rows, guess.residual_pack,
                                     cover_rows, guess.residual_cover)
    if polytope is None:
        raise cont.GuessInfeasibleError("empty residual polytope")

    oracle = inst.objective
    rng = random.Random(seed)
    x = [0.0] * len(elements)
    gains_of = {}
    last_weights = None
    for _step in range(steps):
        weights = [0.0] * len(elements)
        drawn = [(1 << e, p) for e, p in zip(elements, x) if p > 0]
        for _ in range(samples_per_grad):
            mask = guess.chosen
            for bit, p in drawn:
                if rng.random() < p:
                    mask |= bit
            gains = gains_of.get(mask)
            if gains is None:
                state = oracle.begin(mask)
                gains = [0.0 if (mask >> e) & 1 else float(oracle.gain(state, e))
                         for e in elements]
                gains = gains_of[mask] = gains if any(gains) else ()
            if gains:
                weights = [w + g for w, g in zip(weights, gains)]
        weights = [w / samples_per_grad for w in weights]
        if weights != last_weights:
            status, v = polytope.maximize(weights)
            if status != "optimal":
                raise cont.GuessInfeasibleError("residual polytope became unsolvable")
            last_weights = weights
        x = [min(1.0, xi + vi / steps) for xi, vi in zip(x, v)]
    return {e: x[idx] for idx, e in enumerate(elements)}


def upper_bound_value_formula(m: int) -> Fraction:
    """a_m - beta(alpha - 1/2)/2 + 3 beta/(4m) with a_m = (1 - 1/m)^m."""
    return (closed_form_optimum(m)
            - UB_BETA * (UB_ALPHA - Fraction(1, 2)) / 2 + 3 * UB_BETA / (4 * m))


# ---------------------------------------------------------------------------
# the oracle methods the per-byte tables replaced: one step per set bit


class IterBitsLinear(LinearOracle):
    def eval(self, mask):
        return sum(self.weights[i] for i in iter_bits(mask))


class IterBitsCoverage(CoverageOracle):
    def covered(self, mask):
        cov = 0
        for i in iter_bits(mask):
            cov |= self.element_masks[i]
        return cov

    def eval(self, mask):
        return sum(self.universe_weights[u] for u in iter_bits(self.covered(mask)))

    def begin(self, mask):
        return self.covered(mask)

    def gain(self, state, elem):
        new = self.element_masks[elem] & ~state
        return sum(self.universe_weights[u] for u in iter_bits(new))


class IterBitsConcave(ConcaveOfModularOracle):
    def eval(self, mask):
        return min(sum(self.weights[i] for i in iter_bits(mask)), self.cap)

    def begin(self, mask):
        return sum(self.weights[i] for i in iter_bits(mask))


def iter_bits_twin(oracle: SubmodularOracle) -> SubmodularOracle:
    """The bit-by-bit oracle with ``oracle``'s data."""
    if isinstance(oracle, CoverageOracle):
        return IterBitsCoverage(oracle.universe, map(iter_bits, oracle.element_masks),
                                oracle.universe_weights)
    if isinstance(oracle, ConcaveOfModularOracle):
        return IterBitsConcave(oracle.weights, oracle.cap)
    return IterBitsLinear(oracle.weights)
