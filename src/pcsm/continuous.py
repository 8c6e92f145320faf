"""Guess enumeration, multilinear relaxation, continuous greedy and
randomized rounding.

The pipeline works on a normalized instance (all bounds equal to 1).  A
guess fixes chosen elements E1, discarded elements E0 and a geometric
estimate of the optimum's covering values; the residual problem over the
remaining elements is relaxed, ascended by discretized continuous greedy,
scaled down by 1/(1+delta), rounded independently, and stripped of the
elements that are large in some critical packing row.  The best rounded set
that packs within the bounds and covers at least (1-eps) wins.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from heapq import heapify, heappop, heappush
from itertools import islice, product
from operator import ge, itemgetter
from typing import NamedTuple, Optional

from .core import (
    BudgetExceededError,
    InfeasibleError,
    Instance,
    PackedLoads,
    Params,
    better,
    iter_bits,
    mask_of,
    normalize,
    packed_loads,
    subset_less,
    to_fraction,
)
# linear_max_over_polytope is unused here but stays a module attribute:
# perfbench's tracer wraps it by that name
from .lp import linear_max_over_polytope  # noqa: F401
from .lp import prepare_polytope


class GuessInfeasibleError(InfeasibleError):
    """The residual polytope of a guess is empty."""


# ---------------------------------------------------------------------------
# guesses


class _Rows(NamedTuple):
    """The normalized instance's rows scaled to integers, built once per
    instance from its ``core.packed_loads`` layout.  Packing row i times
    D_i, the lcm of its entries' denominators, has int entries and the int
    bound D_i (the normalized bound 1); covering row j times K_j likewise.
    Every exact comparison of the guess loop is then an int compare.

    Each ``*_index`` entry holds a row's int entries in ascending order and,
    for each position k, the mask of the elements at positions k and later,
    so the elements reaching a threshold are one bisect away.
    """

    n: int
    loads: PackedLoads           # the packed layout the rows come from
    pack: tuple                  # scaled packing rows, int entries
    pack_scale: tuple            # D_i, also row i's scaled bound
    cover: tuple                 # scaled covering rows, int entries
    cover_scale: tuple           # K_j
    pack_index: tuple
    cover_index: tuple
    columns: tuple               # per element: its packing, then covering entries
    cover_support: tuple         # per covering row, the mask of its non-zero entries

    def load(self, mask: int) -> tuple:
        """The scaled loads of ``mask``: packing rows, then covering rows."""
        return tuple(sum(row[e] for e in iter_bits(mask)) for row in self.loads.rows)

    def room(self, mask: int) -> tuple:
        """The packing room of ``mask``: each D_i less its scaled packing load."""
        bits = tuple(iter_bits(mask))
        return tuple(d - sum(row[e] for e in bits) for row, d in zip(self.pack, self.pack_scale))


def _scaled_rows(inst: Instance) -> _Rows:
    loads = packed_loads(inst)
    p = inst.p
    pack, cover = loads.rows[:p], loads.rows[p:]
    scales = tuple(scale for _, _, _, scale in loads.fields)
    return _Rows(inst.n, loads, pack, scales[:p], cover, scales[p:],
                 tuple(_row_index(row) for row in pack),
                 tuple(_row_index(row) for row in cover),
                 tuple(zip(*loads.rows)) or ((),) * inst.n,
                 tuple(mask_of(e for e, v in enumerate(row) if v) for row in cover))


def _row_index(row: tuple) -> tuple:
    n = len(row)
    order = sorted(range(n), key=row.__getitem__)
    suffix = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] | (1 << order[k])
    return tuple(row[e] for e in order), tuple(suffix)


def _ceil(num: int, den: int) -> int:
    return -(-num // den)


class _ChosenPart(NamedTuple):
    """The target-independent part of a guess: everything derived from E1."""

    rows: _Rows
    pack_room: tuple             # R_i = D_i - E1's scaled packing load: r_i = R_i / D_i
    critical_pack: frozenset     # y: rows with r_i <= delta
    cover_load: tuple            # Q_j, E1's scaled covering loads
    large_pack: int              # non-chosen elements >= alpha r_i in a row outside y
    critical_large: int          # non-chosen elements >= beta r_i in a row of y

    def fits(self, extra: int, cover_share: Fraction) -> bool:
        """Whether E1 plus ``extra`` (elements outside E1) packs within every
        bound and covers at least ``cover_share`` of every covering bound.
        Only the columns of ``extra`` are summed: each packing row's sum is
        held against the room R_i and each covering row's is added to Q_j."""
        rows = self.rows
        p = len(self.pack_room)
        # packing rows: added load - R_i, which must stay <= 0; covering rows: load
        load = [-r for r in self.pack_room] + list(self.cover_load)
        for e in iter_bits(extra):
            load = [v + a for v, a in zip(load, rows.columns[e])]
        num, den = cover_share.numerator, cover_share.denominator
        return (all(v <= 0 for v in load[:p])
                and all(q * den >= num * k for q, k in zip(load[p:], rows.cover_scale)))


def _chosen_part(rows: _Rows, chosen: int, params: Params) -> _ChosenPart:
    """E1's part, from its scaled loads ``rows.load(chosen)``."""
    alpha, beta, delta = params.alpha, params.beta, params.delta
    load = rows.load(chosen)
    room = tuple(d - v for d, v in zip(rows.pack_scale, load))
    y = frozenset(i for i, (r, d) in enumerate(zip(room, rows.pack_scale))
                  if r * delta.denominator <= delta.numerator * d)
    large_p = large_crit = 0
    # an entry reaches f r_i = f R_i / D_i when its scaled entry reaches f R_i
    for i, ((entries, suffix), r) in enumerate(zip(rows.pack_index, room)):
        if i in y:
            large_crit |= suffix[bisect_left(entries, _ceil(beta.numerator * r,
                                                            beta.denominator))]
        else:
            large_p |= suffix[bisect_left(entries, _ceil(alpha.numerator * r,
                                                         alpha.denominator))]
    free = ((1 << rows.n) - 1) & ~chosen
    return _ChosenPart(rows, room, y, load[len(rows.pack):], large_p & free,
                       large_crit & free)


class _Column(NamedTuple):
    """Covering row j against one scaled covering load Q_j of E1, per
    target c'_j = a_j / b_j of a list (the cover grid, or one target):
    the row's share of the target part of every pair of E1, indexed by the
    target's position t.  With S_j = max(0, a_j K_j - b_j Q_j), s_j = S_j
    / (K_j b_j); row j is critical when s_j <= delta c'_j, and otherwise
    its large mask holds the elements >= alpha s_j, E1's included."""

    zero_end: int                # S_j = 0 exactly for t < zero_end, as s_j grows with t
    residual: tuple              # per t: S_j
    critical: tuple              # per t: whether row j is critical
    large: tuple                 # per t: row j's large mask (0 where critical)
    runs: tuple                  # (start, stop, mask) per stretch of t with one large mask


def _column(rows: _Rows, j: int, load: int, points: list, params: Params) -> _Column:
    """Row j's column for the load ``load`` over the targets ``points``."""
    alpha, delta = params.alpha, params.delta
    k = rows.cover_scale[j]
    entries, suffix = rows.cover_index[j]
    residual, critical, large = [], [], []
    for point in points:
        a, b = point.numerator * k, point.denominator
        v = max(0, a - b * load)
        crit = v * delta.denominator <= delta.numerator * a
        residual.append(v)
        critical.append(crit)
        # an entry reaches alpha s_j when its scaled entry reaches alpha S_j / b_j
        large.append(0 if crit else
                     suffix[bisect_left(entries, _ceil(alpha.numerator * v,
                                                       alpha.denominator * b))])
    starts = [t for t, mask in enumerate(large) if t == 0 or mask != large[t - 1]]
    return _Column(residual.count(0), tuple(residual), tuple(critical), tuple(large),
                   tuple(zip(starts, starts[1:] + [len(large)], (large[t] for t in starts))))


def _columns(cache: dict, rows: _Rows, load: tuple, grid: list, params: Params) -> list:
    """Each covering row's column over ``grid`` for E1's scaled covering
    loads ``load``, kept in ``cache`` per (row, load)."""
    cols = []
    for j, q in enumerate(load):
        col = cache.get((j, q))
        if col is None:
            col = cache[j, q] = _column(rows, j, q, grid, params)
        cols.append(col)
    return cols


class _TargetPart(NamedTuple):
    """The part of a guess that depends on the cover targets c' and on E1
    only through its covering loads Q, so one part serves every E1 with
    those loads."""

    values: tuple                # c'_j as a Fraction
    residual_cover: tuple        # S_j: s_j = max(0, c'_j - Q_j / K_j) = S_j / (K_j b_j)
    critical_cover: frozenset    # z: rows with s_j <= delta c'_j
    large_cover: int             # elements >= alpha s_j in a row outside z, E1's included


def _target_part(cols: list, index: tuple, values: tuple) -> _TargetPart:
    """The target part of the targets ``values``, read off each row's
    column ``cols[j]`` at the targets' positions ``index``."""
    cells = list(zip(cols, index))
    large_c = 0
    for col, t in cells:
        large_c |= col.large[t]
    return _TargetPart(values, tuple(col.residual[t] for col, t in cells),
                       frozenset(j for j, (col, t) in enumerate(cells) if col.critical[t]),
                       large_c)


@dataclass(frozen=True)
class Guess:
    """A triplet (discarded, chosen, cover targets) with its derived data
    under the knobs ``params``.

    All derived fields are exact, computed against the normalized instance
    through its int-scaled rows: critical row sets, and the large-element
    masks for non-critical rows (which a consistent guess must keep empty)
    and for critical packing rows (stripped after rounding).  The residuals
    are Fractions made on access from the parts' ints.  ``parts`` passes in
    the chosen and target parts when the caller already derived them.
    """

    instance: Instance = field(compare=False)
    discarded: int               # E0 bitmask
    chosen: int                  # E1 bitmask
    cover_targets: tuple         # c', one positive rational per covering row
    params: Params
    critical_pack: frozenset = field(init=False, compare=False)
    critical_cover: frozenset = field(init=False, compare=False)
    large_pack: int = field(init=False, compare=False)
    large_cover: int = field(init=False, compare=False)
    critical_large: int = field(init=False, compare=False)
    undetermined: int = field(init=False, compare=False)
    parts: InitVar[Optional[tuple]] = None
    _parts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self, parts):
        inst = self.instance
        if len(self.cover_targets) != inst.c:
            raise ValueError("cover target per covering row required")
        if parts is None:
            rows = _scaled_rows(inst)
            cpart = _chosen_part(rows, self.chosen, self.params)
            values = tuple(map(Fraction, self.cover_targets))
            # one-point columns: each row's own target
            cols = [_column(rows, j, q, [t], self.params)
                    for j, (q, t) in enumerate(zip(cpart.cover_load, values))]
            parts = (cpart, _target_part(cols, (0,) * inst.c, values))
        cpart, tpart = parts
        undet = ((1 << inst.n) - 1) & ~(self.discarded | self.chosen)
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "critical_pack", cpart.critical_pack)
        object.__setattr__(self, "critical_cover", tpart.critical_cover)
        object.__setattr__(self, "large_pack", cpart.large_pack & undet)
        object.__setattr__(self, "large_cover", tpart.large_cover & undet)
        object.__setattr__(self, "critical_large", cpart.critical_large & undet)
        object.__setattr__(self, "undetermined", undet)

    @property
    def residual_pack(self) -> tuple:
        """r = 1 - E1's packing loads."""
        cpart = self._parts[0]
        return tuple(Fraction(r, d) for r, d in zip(cpart.pack_room, cpart.rows.pack_scale))

    @property
    def residual_cover(self) -> tuple:
        """s = max(0, c' - E1's covering loads)."""
        cpart, tpart = self._parts
        return tuple(Fraction(v, k * t.denominator) for v, k, t in
                     zip(tpart.residual_cover, cpart.rows.cover_scale, tpart.values))

    def is_consistent(self) -> bool:
        cpart, tpart = self._parts
        return (self.discarded & self.chosen == 0
                and all(t >= 1 for t in tpart.values)
                and all(r >= 0 for r in cpart.pack_room)
                and (cpart.large_pack | tpart.large_cover) & self.undetermined == 0)

    def residual_elements(self) -> tuple:
        return tuple(iter_bits(self.undetermined))


@dataclass
class GuessList:
    guesses: list
    truncated: bool
    pairs_examined: int


def enumerate_guesses(inst: Instance, params: Params, budget: int = 100_000) -> GuessList:
    """All consistent guesses from the (cover grid) x (chosen subsets)
    product, in the product's order, stopping with a truncation flag once
    the budget is spent.  The budget counts every pair of the product; the
    guesses are the pairs within it whose E1 packs within the bounds.  Each
    is consistent: its targets start at 1, and its E0 holds every large
    element of the intermediate guess H = (empty, E1, c'), whose rows and
    thresholds do not depend on E0, so the guess carries H's parts and its
    own large masks come out empty."""
    grid = _target_grid(inst.n, params, budget)
    rows, width, packing = _chosen_sets(inst, params, budget)
    total = _pair_total(inst, params, budget)
    full = (1 << inst.n) - 1
    # each E1's chosen part and base E0
    chosen_sets = []
    for pos, chosen, value in packing:
        part = _chosen_part(rows, chosen, params)
        high_gain = _gains(inst.objective, chosen, value, full, params.gamma)[0]
        chosen_sets.append((pos, chosen, part, high_gain | part.large_pack))
    columns = {}
    guesses = []
    # the first row's target varies fastest; the k-th targets' pairs start
    # at k * width, so only those with k < ceil(budget / width) are in the budget
    indices = (t[::-1] for t in product(range(len(grid)), repeat=inst.c))
    for k, index in enumerate(islice(indices, _ceil(budget, width))):
        values = tuple(grid[t] for t in index)
        for pos, chosen, part, discarded in chosen_sets:
            if k * width + pos >= budget:
                break
            tpart = _target_part(_columns(columns, rows, part.cover_load, grid, params),
                                 index, values)
            guesses.append(Guess(inst, discarded | (tpart.large_cover & ~chosen), chosen,
                                 values, params, parts=(part, tpart)))
    return GuessList(guesses, total > budget, min(total, budget))


def _target_grid(n: int, params: Params, budget: int) -> list:
    """The cover grid (1 + delta)^t, t = 0 .. ceil(log n / log(1 + delta)).
    Every target tuple costs at least one unit of budget, so a longer grid
    could never be reached anyway (matters under the strict schedule, whose
    tiny delta would otherwise materialize thousands of exact powers).
    With 1 + delta = a / b in lowest terms, point t is a^t / b^t."""
    ratio = 1 + params.delta
    a, b = ratio.numerator, ratio.denominator
    return [Fraction(a ** t, b ** t) for t in range(_grid_length(n, params, budget))]


def _grid_length(n: int, params: Params, budget: int) -> int:
    """``len(_target_grid(n, params, budget))``, with no power built."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    grid_max = (0 if n <= 1 else
                math.ceil(math.log(n) / math.log(1 + float(params.delta))))
    return min(grid_max, budget) + 1


def _size_cap(inst: Instance, params: Params) -> int:
    """The largest chosen set E1 a guess may hold: gamma + (p + c) / (alpha
    delta), rounded up, in ints: each solve asks for it twice."""
    g_num, g_den = params.gamma.numerator, params.gamma.denominator
    ad_num = params.alpha.numerator * params.delta.numerator
    ad_den = params.alpha.denominator * params.delta.denominator
    return min(inst.n, _ceil(g_num * ad_num + (inst.p + inst.c) * ad_den * g_den,
                             g_den * ad_num))


def _width(n: int, cap: int, budget: int) -> int:
    """The number of chosen sets in a target pass, the sets of at most
    ``cap`` of ``n`` elements, cut at ``budget + 1`` (the last one only
    flags truncation)."""
    return min(sum(math.comb(n, k) for k in range(cap + 1)), budget + 1)


def _pair_total(inst: Instance, params: Params, budget: int) -> int:
    """The size of ``enumerate_guesses``'s product, by arithmetic alone: more
    than ``budget`` exactly when the stream is truncated.  As there, the
    grid and the chosen sets are cut just past the budget."""
    return (_grid_length(inst.n, params, budget) ** inst.c
            * _width(inst.n, _size_cap(inst, params), budget))


def _chosen_sets(inst: Instance, params: Params, budget: int) -> tuple:
    """The chosen sets of the (cover grid) x (chosen sets) product, as
    ``(rows, width, packing)``: the instance's ``_Rows``; the number of
    chosen sets in a target pass, at most ``budget + 1`` (the last one only
    flags truncation); and, in stream order, ``(pos, chosen, f(E1))`` for
    each set E1 below the budget that packs, ``pos`` its position in a
    target pass.

    A pass lists the sets of each size up to ``_size_cap`` in the lex order
    of ``itertools.combinations``, smaller sizes first.  Entries are >= 0,
    so packing is closed under subsets: each packing set of size k + 1 is
    a packing set of size k plus an element above that set's top one.
    Extending the size-k sets in lex order, each by ascending elements,
    lists size k + 1 in lex order, and only the sets that pack are
    extended.  Positions are arithmetic: {c_0 < .. < c_{k-1}} is the k-set
    of lex rank C(n, k) - 1 - sum_i C(n - 1 - c_i, k - i) (the
    combinatorial number system, over the complements n - 1 - c_i), so
    E1 plus e sits at ``base + e`` with ``base`` = sum_{j <= k + 1} C(n,
    j) - n - sum_i C(n - 1 - c_i, k + 1 - i).  A child packs when the
    packing fields of its ``core.packed_loads`` word (``rows.loads``)
    have no guard bit set."""
    n = inst.n
    if any(b != 1 for b in inst.pack_bound) or any(b != 1 for b in inst.cover_bound):
        raise ValueError("guess enumeration expects a normalized instance")
    rows = _scaled_rows(inst)
    cap = _size_cap(inst, params)
    binom = [[math.comb(m, k) for k in range(cap + 2)] for m in range(n + 1)]
    width = _width(n, cap, budget)
    loads = rows.loads
    pack_fields, pack_guard = loads.pack_fields, loads.pack_guard
    # the packing fields alone decide whether a set packs; the words stay small
    offsets = [offset & pack_fields for offset in loads.offsets]
    oracle = inst.objective
    packing = [(0, 0, oracle.eval(0))] if budget else []
    # the packing sets of size k in lex order, with their words
    level = [(0, loads.start & pack_fields)]
    end = 1                      # the number of sets of size <= k
    for k in range(cap):
        end += binom[n][k + 1]   # now of size <= k + 1, the children's size
        grown = []
        for chosen, word in level:
            base = None
            for e in range(chosen.bit_length(), n):
                child_word = word + offsets[e]
                if child_word & pack_guard:
                    continue
                if base is None:
                    # E1 + e sits at base + e; taken once E1 has a child that packs
                    base = end - n
                    rest, i = chosen, k + 1
                    while rest:
                        low = rest & -rest
                        base -= binom[n - low.bit_length()][i]
                        rest ^= low
                        i -= 1
                if base + e >= budget:
                    # positions grow in this order: every later set is past it too
                    return rows, width, packing
                child = chosen | 1 << e
                grown.append((child, child_word))
                packing.append((base + e, child, oracle.eval(child)))
        level = grown
    return rows, width, packing


def _gains(oracle, chosen: int, value, full: int, gamma: Fraction) -> tuple:
    """``(high_gain, live, bound)`` of E1 = ``chosen`` with f(E1) =
    ``value``, from one pass of exact gains on E1 over the elements of
    ``full`` outside it: the elements with a gain above f(E1) / gamma (E1's
    base E0 under every target is these plus its chosen part's
    large_pack), those with a non-zero gain, and f(E1) plus the gains of
    the others.  The high-gain test is compared in the objective's exact
    values (gamma > 0)."""
    g_num = gamma.numerator
    threshold = gamma.denominator * value
    state = oracle.begin(chosen)
    high_gain = live = 0
    bound = value
    for ell in iter_bits(full & ~chosen):
        gain = oracle.gain(state, ell)
        if gain:
            live |= 1 << ell
        if g_num * gain > threshold:
            high_gain |= 1 << ell
        else:
            bound += gain
    return high_gain, live, bound


def _least_candidate(chosen: int, keep: int, rows: _Rows, room: tuple) -> int:
    """The least set in ``better``'s subset order of the form E1 =
    ``chosen`` plus elements of ``keep`` that packs: E1 plus, in ascending
    order, each element of ``keep`` below E1's top element that still fits
    E1's packing room ``room`` (see ``_Solve.walk``)."""
    least = chosen
    for e in iter_bits(keep & ((1 << max(chosen.bit_length() - 1, 0)) - 1)):
        column = rows.columns[e]
        # zip stops at the packing rows: the columns list them first
        if all(a <= r for a, r in zip(column, room)):
            room = tuple(r - a for a, r in zip(column, room))
            least |= 1 << e
    return least


# ---------------------------------------------------------------------------
# emptiness screen and continuous greedy


# A covering row must miss its bound by more than this share of the cover
# grid's top target before the screen calls the polytope empty.  That top
# is at least every bound of a guess's program, so the margin is at least
# 1000x the simplex's phase-1 tolerance ``lp.TOL_FEAS`` (a share of the
# largest bound, at least 1), and a program the screen rejects is one the
# simplex rejects too.
SCREEN_MARGIN = Fraction(1, 10 ** 6)


def fractional_knapsack_max(values, weights, room):
    """Exact max of values.x over {x in [0,1]^n : weights.x <= room}.

    Entries are non-negative rationals; a negative room counts as 0, which
    only enlarges the set.  Zero-weight items come free, the rest are taken
    by falling value/weight ratio and the last one fractionally.  With int
    entries only that last item makes a Fraction.
    """
    total = 0
    items = []
    for v, w in zip(values, weights):
        if w == 0:
            total += v
        elif v:
            items.append((v, w))
    # v1/w1 > v2/w2 iff v1 w2 > v2 w1 (weights are positive)
    items.sort(key=cmp_to_key(lambda a, b: b[0] * a[1] - a[0] * b[1]))
    room = max(room, 0)
    for v, w in items:
        if w > room:
            return total + Fraction(room * v, w)
        total += v
        room -= w
    return total


def cover_reach(pack_rows, pack_bounds, cover_rows) -> tuple:
    """For each covering row, the most it can reach over the box [0,1]^n
    and a single packing row: the least of its plain sum and its exact
    fractional-knapsack maximum under each packing row."""
    return tuple(min([sum(row)] + [fractional_knapsack_max(row, prow, room)
                                   for prow, room in zip(pack_rows, pack_bounds)])
                 for row in cover_rows)


def _residual_rows(packing, covering, elements: tuple) -> tuple:
    """The packing and covering rows restricted to ``elements``."""
    return ([[row[e] for e in elements] for row in packing],
            [[row[e] for e in elements] for row in covering])


def _check_ascent(steps: int, samples_per_grad: int) -> None:
    if samples_per_grad < 1:
        raise ValueError("samples_per_grad must be at least 1")
    if steps < 0:
        raise ValueError("steps must be non-negative")


class _Screen:
    """The emptiness screen of one solve over the cover grid ``grid``.

    ``limits(undetermined, part)`` gives, for the pairs of E1 (``part``)
    that leave ``undetermined`` undetermined, per covering row j the first
    index t into ``grid`` at which s_j beats the row's ``cover_reach``
    over those elements by more than M = SCREEN_MARGIN * grid[-1], else
    len(grid).  A pair with some t_j at its limit has an empty residual
    polytope.

    Every r_i lies in [0, 1], every s_k is at most c'_k <= grid[-1] and
    grid[0] = 1, so M is at least SCREEN_MARGIN times each of a pair's
    bounds, and the screen rejects no program the simplex accepts.  s_j
    grows with t_j, so each limit is a bisect, over the grid's points as
    int (numerator, denominator) pairs.  ``cover_reach`` reads only the
    undetermined elements and E1's packing room, so the reaches are kept
    per (undetermined, room) and the limits per (undetermined, room,
    covering loads)."""

    def __init__(self, grid: list):
        self.grid = [(point.numerator, point.denominator) for point in grid]
        margin = SCREEN_MARGIN * grid[-1]
        self.margin = margin.numerator, margin.denominator
        self.reaches = {}
        self.found = {}

    def reach(self, elements: int, part: _ChosenPart) -> tuple:
        """Each covering row's ``cover_reach`` over ``elements`` within
        E1's packing room, on the scaled rows (K_j times the normalized
        reach)."""
        key = (elements, part.pack_room)
        reach = self.reaches.get(key)
        if reach is None:
            rows = part.rows
            pack, cover = _residual_rows(rows.pack, rows.cover, tuple(iter_bits(elements)))
            reach = self.reaches[key] = cover_reach(pack, part.pack_room, cover)
        return reach

    def limits(self, undetermined: int, part: _ChosenPart) -> tuple:
        key = (undetermined, part.pack_room, part.cover_load)
        limits = self.found.get(key)
        if limits is None:
            rows = part.rows
            reach = self.reach(undetermined, part)
            mn, md = self.margin
            limits = []
            # over the scaled rows, covering row j's reach comes out K_j
            # times larger: with reach rn / rd, s_j = max(0, a K_j - b Q_j)
            # / (K_j b) beats g = rn / (rd K_j) + mn / md for the target
            # c'_j = a / b exactly when a u > b w (g > 0, so the max
            # never decides)
            for r, k, q in zip(reach, rows.cover_scale, part.cover_load):
                rn, rd = r.numerator, r.denominator
                u = k * md * rd
                w = q * md * rd + rn * md + mn * k * rd
                limits.append(bisect_left(self.grid, True,
                                          key=lambda point: point[0] * u > point[1] * w))
            limits = self.found[key] = tuple(limits)
        return limits


def continuous_greedy(guess: Guess, steps: int = 100,
                      samples_per_grad: int = 200, seed: int = 0) -> dict:
    """Discretized ascent over the residual polytope.

    Returns the fractional point as {element: float}.  Raises
    GuessInfeasibleError when the polytope is empty.
    """
    _check_ascent(steps, samples_per_grad)
    inst = guess.instance
    elements = guess.residual_elements()
    # phase 1 once: every step below maximizes over the same polytope
    pack_rows, cover_rows = _residual_rows(inst.packing, inst.covering, elements)
    polytope = prepare_polytope(len(elements), pack_rows, guess.residual_pack,
                                cover_rows, guess.residual_cover)
    if polytope is None:
        raise GuessInfeasibleError("empty residual polytope")
    if not elements:
        return {}

    oracle = inst.objective
    # the oracle is monotone and submodular, so an element with no gain on
    # E1 has none on any sampled set (a superset of E1): its weight stays
    # +0.0 and only the live elements' gains are sampled
    state = oracle.begin(guess.chosen)
    live = [(idx, e) for idx, e in enumerate(elements) if oracle.gain(state, e)]
    x = [0.0] * len(elements)
    if not live:
        # every weight stays +0.0: no set is sampled, and phase 2 runs once
        # on the zero weights; each step adds the same vertex
        if steps:
            v = _vertex(polytope, x)
            for _step in range(steps):
                x = [min(1.0, xi + vi / steps) for xi, vi in zip(x, v)]
        return dict(zip(elements, x))
    rng = random.Random(seed)
    # each sampled set's gains, one float per live element, for this ascent
    # only (at most steps * samples_per_grad sets, and 2^|elements|).  An
    # element of the set gets 0.0: a weight starts at +0.0, never becomes
    # -0.0, and so keeps its bits when 0.0 is added.  For the same reason an
    # all-zero vector is kept as () and not added at all
    gains_of = {}
    last_weights = None
    for _step in range(steps):
        sums = [0.0] * len(live)
        # the same draws as one rng.random() per element with x > 0, in order
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
                         for _, e in live]
                gains = gains_of[mask] = gains if any(gains) else ()
            if gains:
                sums = [w + g for w, g in zip(sums, gains)]
        weights = [0.0] * len(elements)
        for (idx, _), w in zip(live, sums):
            weights[idx] = w / samples_per_grad
        # phase 2 is deterministic, and equal weights (0.0 and -0.0 alike)
        # give equal costs: a repeated direction keeps the last vertex
        if weights != last_weights:
            v = _vertex(polytope, weights)
            last_weights = weights
        x = [min(1.0, xi + vi / steps) for xi, vi in zip(x, v)]
    return dict(zip(elements, x))


def _vertex(polytope, weights: list) -> list:
    """The polytope's vertex maximizing ``weights`` (phase 2)."""
    status, v = polytope.maximize(weights)
    if status != "optimal":
        raise GuessInfeasibleError("residual polytope became unsolvable")
    return v


# ---------------------------------------------------------------------------
# rounding


@dataclass(frozen=True)
class RoundOutcome:
    sampled: int             # R_D
    kept: int                # R'_D = R_D minus the critical-large elements
    solution: int            # S_D = E1 + R'_D


def round_and_filter(guess: Guess, x_bar: dict, rng: random.Random) -> RoundOutcome:
    """Independent inclusion with probabilities x_bar, drawn from ``rng``,
    then strip the elements that are large in some critical packing row."""
    sampled = 0
    for e in sorted(x_bar):
        p = x_bar[e]
        if not 0 <= p <= 1:
            raise ValueError("x_bar must lie in [0, 1]")
        if not (guess.undetermined >> e) & 1:
            raise ValueError("x_bar supported outside the residual elements")
        if p > 0 and rng.random() < p:
            sampled |= 1 << e
    kept = sampled & ~guess.critical_large
    return RoundOutcome(sampled=sampled, kept=kept, solution=guess.chosen | kept)


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass
class GuessDiagnostics:
    chosen_size: int
    discarded_size: int
    critical_pack_rows: int
    critical_cover_rows: int
    critical_large_size: int
    filter_pass: int
    filter_fail: int
    infeasible_polytope: bool
    best_value: object


@dataclass
class GuessCounts:
    """What ``solve_main`` did with the consistent pairs of the guess
    stream.  Each pair it ``examined`` is a ``repeat``, ``screened_empty``,
    ``phase1_empty`` (the ascent found its polytope empty), ``ascended``
    or ``pruned`` (its E1's bound is below the best value found, or ties
    it with no candidate that can win the tie-break, or E1 cannot reach
    1 - eps of some covering bound; see ``_Solve.walk``), so those five
    add up to ``examined``; each ascended pair filters ``trials + 1``
    candidates, each a ``filter_pass`` or a ``filter_fail``.  ``examined``,
    ``pruned`` and ``filter_fail`` are derived (see ``_Solve.walk``)."""

    examined: int = 0
    repeat: int = 0
    screened_empty: int = 0
    phase1_empty: int = 0
    ascended: int = 0
    pruned: int = 0
    filter_pass: int = 0
    filter_fail: int = 0


@dataclass
class MainResult:
    found: bool
    solution: int
    value: object
    cover_ratio: object
    pack_ratio: object
    trials: int
    truncated: bool
    counts: GuessCounts
    # one record per pair that is not a repeat, kept only when solve_main
    # is asked for them
    diagnostics: list = field(default_factory=list)

    @property
    def guesses_enumerated(self) -> int:
        """The consistent pairs the guess stream yielded within the budget."""
        return self.counts.examined


def solve_main(inst: Instance, epsilon, seed: int = 0, budget: int = 100_000,
               params: Optional[Params] = None, trials: int = 20,
               steps: int = 100, samples_per_grad: int = 200,
               diagnostics: bool = False) -> MainResult:
    """Enumerate guesses, ascend, round repeatedly, and keep the best set
    that packs within the bounds and covers at least (1 - eps).

    Without an explicit ``params`` override the analysis schedule is used;
    its constants are honest but astronomically conservative, so practical
    runs pass Params.from_delta with a workable delta.  Under the analysis
    schedule a guess stream longer than ``budget`` is refused with
    BudgetExceededError before any pair is solved; with explicit ``params``
    it is cut at the budget and the result says ``truncated``.
    ``diagnostics`` keeps a GuessDiagnostics record per pair that is not a
    repeat; the counts are kept either way.
    """
    # refuse bad settings before the enumeration, which can take long
    if trials < 0:
        raise ValueError("trials must be non-negative")
    _check_ascent(steps, samples_per_grad)
    epsilon = to_fraction(epsilon)
    norm = normalize(inst)
    schedule = params is None
    if schedule:
        params = Params.from_epsilon(epsilon, max(1, norm.p + norm.c))
    # decided before the grid's exact powers are built: at eps 1/100
    # building them alone takes seconds
    total = _pair_total(norm, params, budget)
    if schedule and total > budget:
        raise BudgetExceededError(
            f"the analysis schedule's guess stream has more than {budget} pairs "
            f"(delta {float(params.delta):.3g}); raise the budget or pass "
            "explicit params (--relaxed)")
    grid = _target_grid(norm.n, params, budget)
    rows, width, packing = _chosen_sets(norm, params, budget)
    solve = _Solve(norm, params, epsilon, seed, trials, steps, samples_per_grad, diagnostics)
    solve.walk(rows, grid, budget, width, packing)
    return solve.result(rows, total > budget)


class _Solve:
    """One ``solve_main`` call: its settings, its counts, the best set so
    far, each candidate's verdict (its f value if it passes the filter,
    else None) and, when asked, the records with their stream positions.
    Processing the pairs in any order gives the same result: a pair's
    draws depend on its content alone, ``better`` is a total order, and
    the records are put in stream order at the end.  So ``walk`` may take
    the chosen sets best bound first and leave out those that cannot win."""

    def __init__(self, inst: Instance, params: Params, epsilon: Fraction, seed: int,
                 trials: int, steps: int, samples_per_grad: int, diagnostics: bool):
        self.inst = inst
        self.params = params
        self.seed = seed
        self.trials = trials
        self.steps = steps
        self.samples_per_grad = samples_per_grad
        self.need_cover = 1 - epsilon
        self.scale = 1 / (1 + float(params.delta))
        self.full = (1 << inst.n) - 1
        self.counts = GuessCounts()
        self.records = [] if diagnostics else None
        self.verdicts = {}
        self.best = None

    def walk(self, rows: _Rows, grid: list, budget: int, width: int, packing: list) -> None:
        """Settle every pair of the guess stream over ``grid`` and the
        chosen sets of ``_chosen_sets`` (``rows``, ``width``, ``packing``),
        one E1 at a time.  The pair of E1 at position ``pos`` and grid
        indices (t_0, .., t_{c-1}) sits at stream position k * width + pos
        with k = t_0 + t_1 len(grid) + ..., and is in the budget when that
        is below ``budget``.

        The E1s go best bound first, equal bounds in stream order (see
        ``by_bound``), and the walk stops at the first E1 whose bound is
        below the best value found.  E1's bound is f(E1) plus the gains
        f(e | E1) of the elements e outside E1 and outside its
        ``high_gain`` set (``_gains``).  Every candidate of a pair of E1 is
        E1 plus a set S of the pair's undetermined elements, and those lie
        in ``keep``: outside E1, its ``high_gain`` set and its large_pack.
        f is monotone and submodular, so f(E1 + S) <= f(E1) + the sum of
        f(e | E1) over e in S <= the bound (Nemhauser, Wolsey and Fisher
        1978): every candidate of this E1, and of each later one, whose
        bound is no higher, has a lower value than the best set and loses
        ``better`` to it.  The pairs of the E1s left are ``pruned``, with
        no record.

        A walked E1 is pruned the same way, with all its pairs, when no
        candidate of it can win (``cannot_win``):

        - Tie rule.  When its bound equals the best value, a candidate
          wins only by equal value and ``subset_less`` than the best set.
          Let G be ``_least_candidate``: E1 plus, in ascending order, each
          element of ``keep`` below E1's top element that still fits E1's
          packing room.  No candidate T = E1 + S that packs (one that
          does not fails the filter) is ``subset_less`` than G.  Take the
          lowest element d where T and G differ.  If d is in T alone, it
          lies in ``keep`` and above E1's top: below it, E1, G's elements
          below d and d all lie in T, so they pack (packing is closed
          under subsets) and G's ascending pass would have taken d.  G
          has no element above E1's top, so T comes after G.  If d is in
          G alone, d is below E1's top, which T holds: T continues past d
          and comes after G.  So when G is not ``subset_less`` than the
          best set, no candidate is.
        - Early tie check.  Before E1's chosen part is built, a tied E1
          gets G', built as G is but over keep' = free & ~high_gain
          within the room ``rows.room(chosen)``; E1 is pruned when G' is
          not ``subset_less`` than the best set (``loses_tie``).  keep is
          keep' less large_pack, so G' <= G in that order: below the
          lowest element d where they differ both took the same elements
          from the same room, so if G holds d, d fits and lies in keep',
          and G' takes it too.  So d is in G' alone, and G goes on past
          d to E1's top.  Hence when G' does not come before the best
          set, G does not either, and the tie rule would prune E1.
        - Reach rule.  A candidate E1 + S that packs has S within E1's
          packing room, so in each covering row S adds at most its
          ``cover_reach`` over ``keep`` (a relaxation to the box and one
          packing row at a time).  When Q_j plus that reach is below (1 -
          eps) K_j in some covering row j, no candidate passes ``fits``.

        A pruned pair would not have moved the best set, and the best set
        only improves, so the order-free argument of ``_Solve`` holds.

        A pair repeats an earlier one exactly when some row j with S_j = 0
        has t_j > 0 (see ``_Column``): lowering that t_j keeps its
        residuals, critical rows, large masks and E0, and with E1 fixed a
        positive s_j fixes c'_j.  S_j = 0 exactly for t_j below the
        column's ``zero_end``, so for each tuple of the outer rows' indices
        (rows 1..c-1) the repeats are all of row 0's indices if some outer
        row repeats, else t_0 in [1, zero_end).  Row 0's indices are then
        walked in runs of one large-cover mask, which leave one
        undetermined set and so one tuple of screen limits: a run's pairs
        from row 0's limit on, or all of them if an outer row is past its
        own, are empty.  Only the other pairs reach ``pair``.

        The counts not tallied pair by pair are derived at the end: each
        packing E1 adds its min(len(grid)^c, ceil((budget - pos) / width))
        pairs in the budget to ``examined``, and ``pruned`` and
        ``filter_fail`` follow from the identities of ``GuessCounts``."""
        size = len(grid)
        c = len(rows.cover)
        params = self.params
        counts = self.counts
        records = self.records
        screen = _Screen(grid)
        columns = {}
        for pos, chosen, high_gain, live, bound in self.by_bound(packing):
            free = self.full & ~chosen
            # the tie rule over a wider keep set, before E1's chosen part
            if self.loses_tie(chosen, free & ~high_gain, bound, rows):
                continue
            cpart = _chosen_part(rows, chosen, params)
            base = high_gain | cpart.large_pack
            keep = free & ~base
            if self.cannot_win(chosen, keep, cpart, bound, screen):
                continue
            cols = _columns(columns, rows, cpart.cover_load, grid, params)
            if not c:
                # the one target tuple (); nothing to screen
                self.pair(pos, (), chosen, base, cpart, _target_part(cols, (), ()), live)
                continue
            first, outer_cols = cols[0], cols[1:]
            zero_end = first.zero_end
            # the targets' indices k within the budget: k < passes
            passes = _ceil(budget - pos, width)
            # the outer tuples in stream order, row 1's index fastest: the
            # m-th one starts at k = m * size
            outers = (t[::-1] for t in product(range(size), repeat=c - 1))
            for m, outer in enumerate(outers):
                first_k = m * size
                span = min(size, passes - first_k)
                if span <= 0:
                    break
                if any(0 < t < col.zero_end for t, col in zip(outer, outer_cols)):
                    counts.repeat += span
                    continue
                counts.repeat += max(0, min(span, zero_end) - 1)
                outer_mask = outer_critical = 0
                for t, col in zip(outer, outer_cols):
                    outer_mask |= col.large[t]
                    outer_critical += col.critical[t]
                # row 0's runs within [0, span), neighbours with one
                # undetermined set merged
                runs = []
                for start, stop, mask in first.runs:
                    if start >= span:
                        break
                    undetermined = keep & ~(mask | outer_mask)
                    if runs and runs[-1][2] == undetermined:
                        runs[-1][1] = min(stop, span)
                    else:
                        runs.append([start, min(stop, span), undetermined])
                for start, stop, undetermined in runs:
                    limits = screen.limits(undetermined, cpart)
                    # from row 0's index `cut` on, every pair of the run is empty
                    cut = (start if any(map(ge, outer, limits[1:]))
                           else min(stop, max(start, limits[0])))
                    discarded = free & ~undetermined
                    for settled in _fresh(cut, stop, zero_end):
                        counts.screened_empty += len(settled)
                        if records is not None:
                            for t in settled:
                                self.record((first_k + t) * width + pos, chosen, discarded,
                                            cpart, first.critical[t] + outer_critical,
                                            undetermined, True)
                    for pending in _fresh(start, cut, zero_end):
                        for t in pending:
                            index = (t, *outer)
                            tpart = _target_part(cols, index, tuple(grid[i] for i in index))
                            self.pair((first_k + t) * width + pos, index, chosen, discarded,
                                      cpart, tpart, live)
        counts.examined = sum(min(size ** c, _ceil(budget - pos, width))
                              for pos, _, _ in packing)
        counts.pruned = counts.examined - (counts.repeat + counts.screened_empty
                                           + counts.phase1_empty + counts.ascended)
        counts.filter_fail = counts.ascended * (self.trials + 1) - counts.filter_pass

    def by_bound(self, packing: list):
        """The E1s of ``packing`` (``_chosen_sets``) as ``(pos, chosen,
        high_gain, live, bound)`` (``_gains``), best bound first, equal
        bounds in stream order, up to the first bound below the best value
        found; ``walk`` counts the pairs of the E1s not given as pruned.

        Each gain outside ``high_gain`` is at most f(E1) / gamma, so with
        m = n - |E1| elements outside E1 an E1's bound is at most its cap
        f(E1) (1 + m / gamma), kept times gamma's numerator as an exact
        value (f >= 0; a negative f(E1) makes every element high-gain).
        Gains are taken only for the E1s refined.  One heap holds every E1
        left, keyed ``(-key, refined, pos)``: ``key`` is the cap of an
        unrefined E1 and gamma's numerator times the bound of a refined one,
        so on equal keys an unrefined E1 comes first.  An unrefined top is
        refined and pushed back with its bound, which is at most its cap; a
        refined top is given.  So the E1 given next has the highest bound,
        and the least position among equal bounds, of all the E1s left, and
        when the top key is below the best value, so is every bound left."""
        oracle = self.inst.objective
        gamma = self.params.gamma
        g_num, g_den = gamma.numerator, gamma.denominator
        n = self.inst.n
        heap = [(-(g_num * value + g_den * (n - chosen.bit_count()) * max(value, 0)), False,
                 pos, chosen, value) for pos, chosen, value in packing]
        heapify(heap)
        while heap and (self.best is None or -heap[0][0] >= g_num * self.best[1]):
            entry = heappop(heap)
            if entry[1]:
                yield entry[2:]
                continue
            _, _, pos, chosen, value = entry
            high_gain, live, bound = _gains(oracle, chosen, value, self.full, gamma)
            heappush(heap, (-g_num * bound, True, pos, chosen, high_gain, live, bound))

    def cannot_win(self, chosen: int, keep: int, cpart: _ChosenPart, bound,
                   screen: _Screen) -> bool:
        """Whether no candidate of E1 = ``chosen`` can change the answer,
        by the tie rule or the reach rule of ``walk``."""
        if self.loses_tie(chosen, keep, bound, cpart.rows, cpart.pack_room):
            return True
        num, den = self.need_cover.numerator, self.need_cover.denominator
        return any((q + r) * den < num * k for q, r, k in
                   zip(cpart.cover_load, screen.reach(keep, cpart), cpart.rows.cover_scale))

    def loses_tie(self, chosen: int, keep: int, bound, rows: _Rows,
                  room: Optional[tuple] = None) -> bool:
        """The tie rule of ``walk``: E1 = ``chosen`` of bound ``bound``
        ties the best value, and its least candidate over ``keep`` within
        its packing room (``room``, else ``rows.room(chosen)``) does not
        come before the best set."""
        if self.best is None or bound != self.best[1]:
            return False
        least = _least_candidate(chosen, keep, rows, rows.room(chosen) if room is None else room)
        return not subset_less(least, self.best[0])

    def record(self, position: int, chosen: int, discarded: int, cpart: _ChosenPart,
               critical_cover: int, undetermined: int, infeasible: bool) -> GuessDiagnostics:
        """Keep the record of the pair at ``position`` in the stream."""
        diag = GuessDiagnostics(
            chosen_size=chosen.bit_count(),
            discarded_size=discarded.bit_count(),
            critical_pack_rows=len(cpart.critical_pack),
            critical_cover_rows=critical_cover,
            critical_large_size=(cpart.critical_large & undetermined).bit_count(),
            filter_pass=0, filter_fail=0, infeasible_polytope=infeasible, best_value=None)
        self.records.append((position, diag))
        return diag

    def pair(self, position: int, index: tuple, chosen: int, discarded: int,
             cpart: _ChosenPart, tpart: _TargetPart, live: int) -> None:
        """Solve the pair at ``position`` in the stream, with grid indices
        ``index``, that is neither a repeat nor screened empty: ascend its
        guess, round the point ``trials`` times and filter the candidates.
        ``live`` masks the elements with a non-zero gain on E1.

        A pair whose targets E1 already meets (every S_j = 0), whose
        undetermined elements are none of them live, and whose undetermined
        elements have non-zero entries in at most one covering row is
        settled at the origin: it ascends, and its ``trials + 1``
        candidates are E1, with no ``Guess``, seeds, tableau or ``Random``.
        That is what the ascent and the rounding give it:

        - With no undetermined element, phase 1 sees zero covering
          bounds and packing rooms >= 0 (E1 packs): every artificial sits
          at 0, so the program is not empty and the point is {}.
        - Otherwise no element is live, so every weight is +0.0 and phase
          2 is optimal at its first basis.  Phase 1 starts with every
          covering right-hand side 0 and every packing room >= 0.  The
          covering rows with no entry on the undetermined elements stay
          inert: no pivot changes them.  While the one other covering
          row's artificial is basic, a column enters only with an entry
          above ``lp.TOL_OPT`` in that zero-rhs row, so the least ratio
          is 0 and each of Bland's pivots is degenerate; once that
          artificial leaves, phase 1 is optimal, and the eviction of the
          remaining artificials pivots on zero-rhs rows too.  So ``b``
          keeps its values, each structural is +0.0 or -0.0, and
          ``Polytope.maximize`` clamps it to 0.0.  Every step adds
          0.0 / steps, so the point is 0.0 on every element.  (This
          takes the ratio test's 1e-15 tie window to hold no row of
          positive rhs, which would need an entry 10^15 times that rhs.)
        - A point with no positive coordinate draws nothing: each rounding
          returns E1.  The pair's seeds read its content alone, so no
          other pair's draws move when these are skipped.
        """
        counts = self.counts
        undetermined = self.full & ~(discarded | chosen)
        diag = None
        if self.records is not None:
            diag = self.record(position, chosen, discarded, cpart, len(tpart.critical_cover),
                               undetermined, False)
        # a pair at the origin keeps the empty point, which draws nothing
        x_star = {}
        if (any(tpart.residual_cover) or undetermined & live
                or sum(1 for s in cpart.rows.cover_support if s & undetermined) > 1):
            guess = Guess(self.inst, discarded, chosen, tpart.values, self.params,
                          parts=(cpart, tpart))
            ascent_seed, round_seed = _pair_seeds(self.seed, chosen, index)
            try:
                x_star = continuous_greedy(guess, steps=self.steps,
                                           samples_per_grad=self.samples_per_grad,
                                           seed=ascent_seed)
            except GuessInfeasibleError:
                counts.phase1_empty += 1
                if diag:
                    diag.infeasible_polytope = True
                return
        counts.ascended += 1
        # trial 0 is the empty rounding outcome (always a possible draw).
        # With no positive coordinate every draw returns E1, so E1 is
        # settled once and stands for all trials + 1 candidates
        candidates = [chosen]
        weight = self.trials + 1
        if any(p > 0 for p in x_star.values()):
            x_bar = {e: p * self.scale for e, p in x_star.items()}
            rng = random.Random(round_seed)
            candidates += [round_and_filter(guess, x_bar, rng).solution
                           for _ in range(self.trials)]
            weight = 1
        verdicts = self.verdicts
        pair_pass = 0
        pair_best = None
        for cand in candidates:
            if cand not in verdicts:
                fits = cpart.fits(cand & ~chosen, self.need_cover)
                verdicts[cand] = self.inst.objective.eval(cand) if fits else None
            val = verdicts[cand]
            if val is None:
                continue
            pair_pass += weight
            if pair_best is None or val > pair_best:
                pair_best = val
            if better(val, cand, self.best):
                self.best = (cand, val)
        counts.filter_pass += pair_pass
        if diag:
            diag.filter_pass = pair_pass
            diag.filter_fail = self.trials + 1 - pair_pass
            diag.best_value = pair_best

    def result(self, rows: _Rows, truncated: bool) -> MainResult:
        """The answer, its ratios ``core.load_ratios`` of the normalized
        instance (every bound 1) read off the scaled rows ``rows``."""
        records = [diag for _, diag in sorted(self.records or (), key=itemgetter(0))]
        found = self.best is not None
        mask, value = self.best if found else (0, 0)
        cover_ratio = pack_ratio = None
        if found:
            ratios = [Fraction(v, d) for v, d in
                      zip(rows.load(mask), rows.pack_scale + rows.cover_scale)]
            p = len(rows.pack)
            pack_ratio = max(ratios[:p], default=Fraction(0))
            cover_ratio = min(ratios[p:], default=None)
        return MainResult(found=found, solution=mask, value=value, cover_ratio=cover_ratio,
                          pack_ratio=pack_ratio, trials=self.trials, truncated=truncated,
                          counts=self.counts, diagnostics=records)


def _fresh(start: int, stop: int, zero_end: int) -> tuple:
    """Row 0's grid indices t in [start, stop) that repeat no pair (t = 0
    and t >= zero_end, see ``_Solve.walk``), as two ranges."""
    return range(start, min(stop, 1)), range(max(start, zero_end, 1), stop)


_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """The splitmix64 finalizer of ``z + golden gamma``, on 64 bits."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _pair_seeds(seed: int, chosen: int, index: tuple) -> tuple:
    """(ascent seed, rounding seed) of the pair of E1 ``chosen`` and the
    targets at grid indices ``index``: a splitmix64 chain over ``seed``,
    E1's mask in 64-bit words and the indices.  It reads the pair's
    content alone, and no ``hash``, so cutting or skipping other pairs
    changes no pair's draws, under every PYTHONHASHSEED."""
    h = _mix64(seed & _MASK64)
    while True:
        h = _mix64(h ^ (chosen & _MASK64))
        chosen >>= 64
        if not chosen:
            break
    for t in index:
        h = _mix64(h ^ t)
    return h, _mix64(h)
