"""Shared instance builders and the independent re-implementations used as
oracles.  Everything here deliberately avoids the package's evaluation and
enumeration code paths: values are recomputed from raw lists and plain sets
so the two sides can disagree."""

import math
import os
from fractions import Fraction
from itertools import combinations

from hypothesis import settings, strategies as st

from pcsm.core import (
    ConcaveOfModularOracle,
    CoverageOracle,
    LinearOracle,
    SubmodularOracle,
    make_instance,
)


# under CI (set by GitHub Actions) the draws are derandomized, so a failure
# there replays, and its blob is printed; local runs keep random draws
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def build_instance(packing, covering, pack_bound, cover_bound, oracle):
    return make_instance(packing, covering, pack_bound, cover_bound, oracle)


def random_oracle(rng, n, family):
    if family == "linear":
        return LinearOracle([rng.randint(0, 9) for _ in range(n)])
    if family == "coverage":
        u = max(n, 1)
        sets = [[x for x in range(u) if rng.random() < 0.4] for _ in range(n)]
        return CoverageOracle(u, sets, [rng.randint(1, 5) for _ in range(u)])
    if family == "concave_of_modular":
        w = [rng.randint(0, 9) for _ in range(n)]
        return ConcaveOfModularOracle(w, max(1, sum(w) // 2))
    raise ValueError(family)


def random_instance(rng, n, p=1, c=1, family="linear", density=0.7,
                    max_entry=9):
    """Planted-feasible random instance (bounds are a random subset's loads)."""
    def entry():
        return rng.randint(1, max_entry) if rng.random() < density else 0

    packing = [[entry() for _ in range(n)] for _ in range(p)]
    covering = [[entry() for _ in range(n)] for _ in range(c)]
    planted = [i for i in range(n) if rng.random() < 0.5]
    if n and not planted:
        planted = [rng.randrange(n)]
    pack_bound = [sum(row[i] for i in planted) for row in packing]
    cover_bound = [sum(row[i] for i in planted) for row in covering]
    return build_instance(packing, covering, pack_bound, cover_bound,
                          random_oracle(rng, n, family))


FAMILIES = ("linear", "coverage", "concave_of_modular")

# small weights, thirds among them: equal values (ties) come up often, and
# rational ones check that no solver rounds
SMALL_WEIGHTS = st.one_of(st.integers(0, 3),
                          st.fractions(min_value=0, max_value=3, max_denominator=3))


@st.composite
def small_oracles(draw, n):
    """An oracle of any family on n elements with small, often rational,
    weights."""
    family = draw(st.sampled_from(FAMILIES))
    weights = st.lists(SMALL_WEIGHTS, min_size=n, max_size=n)
    if family == "linear":
        return LinearOracle(draw(weights))
    if family == "coverage":
        u = draw(st.integers(1, 4))
        sets = [draw(st.sets(st.integers(0, u - 1))) for _ in range(n)]
        return CoverageOracle(u, sets, draw(st.lists(SMALL_WEIGHTS, min_size=u, max_size=u)))
    w = draw(weights)
    cap = draw(st.fractions(min_value=0, max_value=math.ceil(sum(w)) + 1, max_denominator=3))
    return ConcaveOfModularOracle(w, cap)


class EvalOnlyOracle(SubmodularOracle):
    """Implements ``eval`` alone (by asking ``inner``), so ``begin`` and
    ``gain`` fall back to the base class."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n

    def eval(self, mask):
        return self.inner.eval(mask)


# ---------------------------------------------------------------------------
# independent value computation (second implementation, sets not bitmasks)


def naive_value(oracle, subset):
    """Recompute f(subset) from the oracle's raw data using plain Python
    sets; shares no code with SubmodularOracle.eval."""
    subset = set(subset)
    if isinstance(oracle, LinearOracle):
        return sum(w for i, w in enumerate(oracle.weights) if i in subset)
    if isinstance(oracle, CoverageOracle):
        covered = set()
        for i in subset:
            covered |= {u for u in range(oracle.universe)
                        if (oracle.element_masks[i] >> u) & 1}
        return sum(oracle.universe_weights[u] for u in covered)
    if isinstance(oracle, ConcaveOfModularOracle):
        total = sum(w for i, w in enumerate(oracle.weights) if i in subset)
        return min(total, oracle.cap)
    raise TypeError(oracle)


def naive_best(inst):
    """Exhaustive feasibility scan with itertools, no Gray code, no masks.

    Returns (best value, best subset tuple, feasible count)."""
    best_val, best_sub, count = None, None, 0
    for r in range(inst.n + 1):
        for combo in combinations(range(inst.n), r):
            loads_p = [sum(row[i] for i in combo) for row in inst.packing]
            loads_c = [sum(row[i] for i in combo) for row in inst.covering]
            if any(l > b for l, b in zip(loads_p, inst.pack_bound)):
                continue
            if any(l < b for l, b in zip(loads_c, inst.cover_bound)):
                continue
            count += 1
            v = naive_value(inst.objective, combo)
            if best_val is None or v > best_val or (v == best_val and combo < best_sub):
                best_val, best_sub = v, combo
    return best_val, best_sub, count


def naive_signatures(inst):
    """All distinct (cover vector, pack vector) signatures with max value."""
    table = {}
    for r in range(inst.n + 1):
        for combo in combinations(range(inst.n), r):
            key = (tuple(sum(row[i] for i in combo) for row in inst.covering),
                   tuple(sum(row[i] for i in combo) for row in inst.packing))
            v = naive_value(inst.objective, combo)
            if key not in table or v > table[key]:
                table[key] = v
    return table


def exact_multilinear(oracle, x):
    """F(x) by full 2^n expansion (exponential; n <= ~14 only)."""
    n = oracle.n
    total = 0.0
    for mask in range(1 << n):
        prob = 1.0
        for i in range(n):
            prob *= x[i] if (mask >> i) & 1 else (1.0 - x[i])
        if prob:
            total += prob * float(oracle.eval(mask))
    return total


# ---------------------------------------------------------------------------
# vertex enumeration for cross-checking the LP direction oracle


def _solve_square(rows, rhs):
    """Fraction Gaussian elimination; None if singular."""
    k = len(rows)
    a = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(k)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][k] for r in range(k)]


def polytope_lp_by_vertices(weights, pack_rows, pack_bounds, cover_rows,
                            cover_bounds, n):
    """max w.x over the box/packing/covering polytope by enumerating all
    candidate vertices (intersections of n constraint hyperplanes)."""
    rows, rhs = [], []
    for i in range(n):                       # box: x_i <= 1
        rows.append([1 if j == i else 0 for j in range(n)]); rhs.append(1)
    for i in range(n):                       # x_i >= 0
        rows.append([1 if j == i else 0 for j in range(n)]); rhs.append(0)
    for row, b in zip(pack_rows, pack_bounds):
        rows.append(list(row)); rhs.append(b)
    for row, b in zip(cover_rows, cover_bounds):
        rows.append(list(row)); rhs.append(b)

    def feasible(x):
        if any(v < 0 or v > 1 for v in x):
            return False
        for row, b in zip(pack_rows, pack_bounds):
            if sum(Fraction(r) * v for r, v in zip(row, x)) > b:
                return False
        for row, b in zip(cover_rows, cover_bounds):
            if sum(Fraction(r) * v for r, v in zip(row, x)) < b:
                return False
        return True

    best = None
    for combo in combinations(range(len(rows)), n):
        x = _solve_square([rows[i] for i in combo], [rhs[i] for i in combo])
        if x is None or not feasible(x):
            continue
        val = sum(Fraction(w) * v for w, v in zip(weights, x))
        if best is None or val > best:
            best = val
    return best
