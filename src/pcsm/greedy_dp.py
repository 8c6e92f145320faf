"""Greedy dynamic program over (cardinality, cover vector, pack vector) cells.

Each cell holds the best set found so far with exactly that signature; cells
are extended greedily by every element not already present that fits its
packing rows.  Which elements fit depends only on the cell's packing fields,
so each distinct packing part gets its list of fitting elements once, and a
cell walks only that list.  A child set is offered to its layer once: every
route to it gives the same load word and the value f(child), so a repeat
could never win its cell.  That relies on a cell's value being exactly f of
its set, which the oracle contract's exact rationals guarantee; a custom
oracle whose ``eval`` returns floats would keep the first route's rounding.

The companion completion phase tops cells up to full feasibility with a
second copy of at most one unit per element.  It builds the same table (once:
``vanilla_dp``'s best-cell pass is not run), gives each distinct cell word the
first witness on the dominance staircase that fits it, and asks f once per
distinct support.  The scaling operation rounds a rational instance down to
a polynomially sized integer one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .core import (BudgetExceededError, Instance, PackedLoads, Rational, better,
                   packed_loads, subset_key, _rat)

CELL_BUDGET = 50_000_000


def _require_integer(inst: Instance) -> None:
    if not inst.is_integer():
        raise ValueError("dynamic program requires integer matrices and bounds")


@dataclass
class DpOutcome:
    best_set: int            # 0 when nothing qualifies
    best_value: object
    found: bool
    cells_populated: int
    _layers: list = field(repr=False, compare=False)    # per q: load word -> (mask, value)
    _loads: PackedLoads = field(repr=False, compare=False)

    @cached_property
    def table(self) -> dict:
        """(q, cover key, pack key) -> (set mask, value), decoded on first read."""
        decode = self._loads.decode
        return {(q, *decode(word)): entry
                for q, layer in enumerate(self._layers) for word, entry in layer.items()}


def _guard_table(inst: Instance, saturate: bool) -> None:
    # a coordinate runs up to its row's sum, and a packing one (or a
    # saturated covering one) up to the bound at most
    cells = inst.n + 1
    for row, b in zip(inst.covering, inst.cover_bound):
        cells *= int(min(b, sum(row)) if saturate else sum(row)) + 1
    for row, b in zip(inst.packing, inst.pack_bound):
        cells *= int(min(b, sum(row))) + 1
    if cells > CELL_BUDGET:
        raise BudgetExceededError(
            f"dense table bound {cells} exceeds cell budget {CELL_BUDGET}")


def _build_layers(inst: Instance, saturate_cover: bool) -> tuple:
    """The table's layers (per q: load word -> (mask, value)) and the packed
    layout their words use.

    A cell's packing fields alone decide which elements fit it: each holds
    a load of at most ``b``, so it is below ``2^w`` and adding an offset
    carries into no other field.  The elements that fit are listed once per
    distinct packing part, in index order, and a cell walks only that list.
    """
    _require_integer(inst)
    _guard_table(inst, saturate_cover)
    loads = packed_loads(inst)
    pack_guard, pack_fields = loads.pack_guard, loads.pack_fields
    cover_guard, keep = loads.want, loads.keep
    elems = [(elem, 1 << elem, offset) for elem, offset in enumerate(loads.offsets)]
    fit_lists: dict = {}    # a cell's packing fields -> the elements that fit
    oracle = inst.objective
    begin, gain = oracle.begin, oracle.gain

    # cells are keyed by their packed load word while the table grows
    layer = {loads.start: (0, oracle.eval(0))}
    layers = [layer]
    for q in range(inst.n):
        nxt: dict = {}
        offered = set()    # child masks this layer has already been offered
        for word, (mask, value) in layer.items():
            key = word & pack_fields
            fits = fit_lists.get(key)
            if fits is None:
                fits = fit_lists[key] = [
                    item for item in elems if not (word + item[2]) & pack_guard]
            state = begin(mask)
            for elem, bit, offset in fits:
                if mask & bit:
                    continue
                new_mask = mask | bit
                if new_mask in offered:
                    continue
                offered.add(new_mask)
                new = word + offset
                if saturate_cover:
                    new &= keep[new & cover_guard]
                new_value = value + gain(state, elem)
                if better(new_value, new_mask, nxt.get(new)):
                    nxt[new] = (new_mask, new_value)
        if not nxt:
            break
        layers.append(nxt)
        layer = nxt
    return layers, loads


def vanilla_dp(inst: Instance, saturate_cover: bool = True) -> DpOutcome:
    """Populate the table and return the best cell with cover >= c/2, pack <= p.

    With ``saturate_cover`` (the default) cover coordinates are clamped at the
    bound, which shrinks the key space without changing the output rule; pass
    False for exact table semantics.
    """
    layers, loads = _build_layers(inst, saturate_cover)
    c_bound = inst.cover_bound
    cells = sum(map(len, layers))
    best = None
    for layer in layers:
        for word, (mask, value) in layer.items():
            # decode a cell only when it would win
            if (better(value, mask, best)
                    and all(2 * v >= b for v, b in zip(loads.decode(word)[0], c_bound))):
                best = (mask, value)
    if best is None:
        return DpOutcome(0, 0, False, cells, layers, loads)
    return DpOutcome(best[0], best[1], True, cells, layers, loads)


# ---------------------------------------------------------------------------
# completion phase (duplicates allowed: one copy from the cell, one from the
# completion set)


@dataclass
class CompletionOutcome:
    found: bool
    base_set: int
    completion_set: int
    support: int
    value: object
    cover_with_multiplicity: tuple
    pack_with_multiplicity: tuple
    valid_cells: int
    cells_populated: int


def _reachable_completions(loads: PackedLoads) -> dict:
    """All (pack vector, cover vector) signatures reachable by a subset of
    the ground set, as packed load words, each with one witness mask.  Cover
    coordinates are saturated at the bound, which completion targets never
    exceed.

    The witness of a signature is the first subset found with it when the
    elements are added in index order; it is not the lexicographically
    smallest subset with that signature.  ``dp_with_completion`` picks the
    lexicographically smallest fitting witness among these, so changing
    which witness is kept here changes its output.  It searches only the
    witnesses on the dominance staircase of this set (``_witness_staircase``),
    which has the same first fitting witness for every cell.
    """
    pack_guard = loads.pack_guard
    states = {loads.start: 0}
    for elem, offset in enumerate(loads.offsets):
        updates = {}
        for word, mask in states.items():
            new = word + offset
            if new & pack_guard:
                continue
            new = loads.clamp(new)
            if new not in states and new not in updates:
                updates[new] = mask | (1 << elem)
        states.update(updates)
    return states


def _witness_staircase(loads: PackedLoads) -> list:
    """The reachable witnesses as ``(offset, mask)`` in tie-break order,
    minus every one that an earlier kept witness dominates.

    ``k`` dominates ``d`` when it puts no more load on any packing row and no
    less saturated cover on any covering row.  Then every cell that ``d``
    fits, ``k`` fits too, and ``k`` comes first, so no cell's first fitting
    witness is ever ``d``.  An offset's fields are loads in ``[0, b]`` and
    ``b < 2^w``, so ``guard + d - k`` holds ``2^w + d_i - k_i`` in
    ``(0, 2^(w+1))`` in each field: no field borrows, and its guard bit says
    ``d_i >= k_i``.  ``guard + k - d`` does the same the other way round.
    """
    start, guard, pack_guard, want = loads.start, loads.guard, loads.pack_guard, loads.want
    kept: list = []
    for word, mask in sorted(_reachable_completions(loads).items(),
                             key=lambda item: subset_key(item[1])):
        offset = word - start
        more, less = guard + offset, guard - offset
        for k, _ in kept:
            if (more - k) & pack_guard == pack_guard and (less + k) & want == want:
                break
        else:
            kept.append((offset, mask))
    return kept


def dp_with_completion(inst: Instance, saturate_cover: bool = True) -> CompletionOutcome:
    """Run the DP, then complete each cell to a feasible multiset if possible.

    The completion may repeat elements of the cell (at most two copies in
    total); the objective is still evaluated on the support, as f is a set
    function.
    """
    layers, loads = _build_layers(inst, saturate_cover)
    guard, want = loads.guard, loads.want
    # witnesses as load offsets, in tie-break order: the first that fits a
    # cell is the lexicographically smallest fitting one (the staircase drops
    # only witnesses that are never first).  A cell plus a witness is a
    # two-copy multiset, and its loads still fit the fields: each pack load
    # is at most b, so the sum is at most 2b; the witness's cover is
    # saturated at b and the cell's is at most b (or the row sum with exact
    # keys).  Either way a field stays below 2^(w+1), so
    # ``(cell + offset) & guard == want`` is the exact fit test.
    witnesses = _witness_staircase(loads)
    oracle = inst.objective

    best = None
    valid = 0
    witness_of: dict = {}    # cell load word -> witness or None
    seen = set()             # supports already offered to ``best``
    for layer in layers:
        for cell, (mask, _value) in layer.items():
            if cell in witness_of:
                witness = witness_of[cell]
            else:
                for offset, witness in witnesses:
                    if (cell + offset) & guard == want:
                        break
                else:
                    witness = None
                witness_of[cell] = witness
            if witness is None:
                continue
            valid += 1
            # cells share supports, and an equal (value, set) never wins
            support = mask | witness
            if support in seen:
                continue
            seen.add(support)
            val = oracle.eval(support)
            if better(val, support, best):
                best = (support, val, mask, witness)
    cells = sum(map(len, layers))
    if best is None:
        return CompletionOutcome(False, 0, 0, 0, 0, (), (), 0, cells)
    support, val, mask, witness = best
    cov_mult = tuple(a + b for a, b in zip(inst.cover_value(mask), inst.cover_value(witness)))
    pak_mult = tuple(a + b for a, b in zip(inst.pack_value(mask), inst.pack_value(witness)))
    return CompletionOutcome(
        found=True, base_set=mask, completion_set=witness, support=support,
        value=val, cover_with_multiplicity=cov_mult, pack_with_multiplicity=pak_mult,
        valid_cells=valid, cells_populated=cells,
    )


# ---------------------------------------------------------------------------
# scaling a rational instance down to integers


def scale_instance(inst: Instance, epsilon: Rational) -> Instance:
    """Round to integer data with K_c = eps c_max / n and K_p = eps p_max / 2n.

    Cover entries are pre-clamped at the row bound and elements too big for
    some packing bound are made unpackable (scaled entry bound+1), which is
    how the scaling argument removes them.  Any set feasible in the scaled
    instance covers at least (1 - eps) and packs at most (1 + eps) of the
    original bounds.
    """
    epsilon = _rat(epsilon)
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    n = inst.n
    new_cover_rows, new_cover_bounds = [], []
    for row, bound in zip(inst.covering, inst.cover_bound):
        row = tuple(min(v, bound) for v in row)
        c_max = max(row, default=0)
        if c_max == 0:
            new_cover_rows.append((0,) * n)
            new_cover_bounds.append(0 if bound == 0 else 1)
            continue
        k = epsilon * Fraction(c_max) / n
        new_cover_rows.append(tuple(_ceil_div(v, k) for v in row))
        new_cover_bounds.append(_ceil_div(bound, k))
    new_pack_rows, new_pack_bounds = [], []
    for row, bound in zip(inst.packing, inst.pack_bound):
        usable = [v for v in row if v <= bound]
        p_max = max(usable, default=0)
        if p_max == 0:
            new_pack_rows.append(tuple(0 if v <= bound else 1 for v in row))
            new_pack_bounds.append(0)
            continue
        k = epsilon * Fraction(p_max) / (2 * n)
        scaled_bound = _floor_div(bound, k)
        new_pack_rows.append(tuple(
            _floor_div(v, k) if v <= bound else scaled_bound + 1 for v in row))
        new_pack_bounds.append(scaled_bound)
    return Instance(
        n=n,
        packing=tuple(new_pack_rows),
        covering=tuple(new_cover_rows),
        pack_bound=tuple(new_pack_bounds),
        cover_bound=tuple(new_cover_bounds),
        objective=inst.objective,
    )


def _ceil_div(v: Rational, k: Fraction) -> int:
    return math.ceil(Fraction(v) / k)


def _floor_div(v: Rational, k: Fraction) -> int:
    return math.floor(Fraction(v) / k)
