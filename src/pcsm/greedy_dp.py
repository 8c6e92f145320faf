"""Greedy dynamic program over (cardinality, cover vector, pack vector) cells.

Each cell holds the best set found so far with exactly that signature; cells
are extended greedily by every element not already present.  The companion
completion phase tops cells up to full feasibility with a second copy of at
most one unit per element, and the scaling operation rounds a rational
instance down to a polynomially sized integer one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, ge, gt, le, sub

from .core import BudgetExceededError, Instance, Rational, better, subset_key, _rat

CELL_BUDGET = 50_000_000


def _require_integer(inst: Instance) -> None:
    if not inst.is_integer():
        raise ValueError("dynamic program requires integer matrices and bounds")


def _columns(rows, n):
    """Per-element columns of an integer matrix: entry ``e`` is the tuple of
    element ``e``'s values down the rows."""
    return tuple(tuple(int(row[e]) for row in rows) for e in range(n))


@dataclass
class DpOutcome:
    table: dict              # (q, cover key, pack key) -> (set mask, value)
    best_set: int            # 0 when nothing qualifies
    best_value: object
    found: bool
    cells_populated: int


def _guard_table(inst: Instance, saturate: bool) -> None:
    cells = inst.n + 1
    c_max = max((max(row, default=0) for row in inst.covering), default=0)
    for b in inst.cover_bound:
        cells *= (int(b) if saturate else inst.n * int(c_max)) + 1
    for b in inst.pack_bound:
        cells *= int(b) + 1
    if cells > CELL_BUDGET:
        raise BudgetExceededError(
            f"dense table bound {cells} exceeds cell budget {CELL_BUDGET}")


def vanilla_dp(inst: Instance, saturate_cover: bool = True) -> DpOutcome:
    """Populate the table and return the best cell with cover >= c/2, pack <= p.

    With ``saturate_cover`` (the default) cover coordinates are clamped at the
    bound, which shrinks the key space without changing the output rule; pass
    False for exact table semantics.
    """
    _require_integer(inst)
    _guard_table(inst, saturate_cover)
    p_bound = tuple(int(b) for b in inst.pack_bound)
    c_bound = tuple(int(b) for b in inst.cover_bound)
    n = inst.n
    pack_cols = _columns(inst.packing, n)
    cover_cols = _columns(inst.covering, n)
    oracle = inst.objective
    begin, gain = oracle.begin, oracle.gain

    zero = ((0,) * inst.c, (0,) * inst.p)
    layer = {zero: (0, oracle.eval(0))}
    table = {(0,) + zero: layer[zero]}
    cells = 1

    for q in range(n):
        nxt: dict = {}
        for (cov, pak), (mask, value) in layer.items():
            state = begin(mask)
            for elem in range(n):
                bit = 1 << elem
                if mask & bit:
                    continue
                new_pak = tuple(map(add, pak, pack_cols[elem]))
                if any(map(gt, new_pak, p_bound)):
                    continue
                new_cov = tuple(map(add, cov, cover_cols[elem]))
                if saturate_cover:
                    new_cov = tuple(map(min, new_cov, c_bound))
                new_value = value + gain(state, elem)
                new_mask = mask | bit
                key = (new_cov, new_pak)
                if better(new_value, new_mask, nxt.get(key)):
                    nxt[key] = (new_mask, new_value)
        for key, entry in nxt.items():
            table[(q + 1,) + key] = entry
        cells += len(nxt)
        layer = nxt
        if not layer:
            break

    best = None
    for (q, cov, pak), (mask, value) in table.items():
        if (all(2 * v >= b for v, b in zip(cov, c_bound))
                and all(map(le, pak, p_bound)) and better(value, mask, best)):
            best = (mask, value)
    if best is None:
        return DpOutcome(table, 0, 0, False, cells)
    return DpOutcome(table, best[0], best[1], True, cells)


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


def _reachable_completions(inst: Instance):
    """All (pack vector, cover vector) signatures reachable by a subset of
    the ground set, each with one witness mask.  Cover coordinates are
    saturated at the bound, which completion targets never exceed.

    The witness of a signature is the first subset found with it when the
    elements are added in index order; it is not the lexicographically
    smallest subset with that signature.  ``dp_with_completion`` picks the
    lexicographically smallest fitting witness among these, so changing
    which witness is kept here changes its output.
    """
    pack_cols = _columns(inst.packing, inst.n)
    cover_cols = _columns(inst.covering, inst.n)
    p_bound = tuple(int(b) for b in inst.pack_bound)
    c_bound = tuple(int(b) for b in inst.cover_bound)
    states = {((0,) * inst.p, (0,) * inst.c): 0}
    for elem in range(inst.n):
        updates = {}
        for (pak, cov), mask in states.items():
            new_pak = tuple(map(add, pak, pack_cols[elem]))
            if any(map(gt, new_pak, p_bound)):
                continue
            new_cov = tuple(map(min, map(add, cov, cover_cols[elem]), c_bound))
            key = (new_pak, new_cov)
            if key not in states and key not in updates:
                updates[key] = mask | (1 << elem)
        states.update(updates)
    return states


def dp_with_completion(inst: Instance, saturate_cover: bool = True) -> CompletionOutcome:
    """Run the DP, then complete each cell to a feasible multiset if possible.

    The completion may repeat elements of the cell (at most two copies in
    total); the objective is still evaluated on the support, as f is a set
    function.
    """
    outcome = vanilla_dp(inst, saturate_cover=saturate_cover)
    # witnesses in tie-break order: the first that fits a cell is the
    # lexicographically smallest fitting one
    completions = sorted(_reachable_completions(inst).items(),
                         key=lambda item: subset_key(item[1]))
    p_bound = tuple(int(b) for b in inst.pack_bound)
    c_bound = tuple(int(b) for b in inst.cover_bound)
    oracle = inst.objective

    best = None
    valid = 0
    witness_of: dict = {}    # (cover, pack) cell signature -> witness or None
    value_of: dict = {}      # support -> f(support); cells share supports
    for (q, cov, pak), (mask, value) in outcome.table.items():
        sig = (cov, pak)
        if sig in witness_of:
            witness = witness_of[sig]
        else:
            room = tuple(map(sub, p_bound, pak))
            need = tuple(map(sub, c_bound, cov))
            witness = witness_of[sig] = next(
                (cmask for (cpak, ccov), cmask in completions
                 if all(map(le, cpak, room)) and all(map(ge, ccov, need))), None)
        if witness is None:
            continue
        valid += 1
        support = mask | witness
        val = value_of.get(support)
        if val is None:
            val = value_of[support] = oracle.eval(support)
        if better(val, support, best):
            best = (support, val, mask, witness)
    if best is None:
        return CompletionOutcome(False, 0, 0, 0, 0, (), (), 0, outcome.cells_populated)
    support, val, mask, witness = best
    cov_mult = tuple(a + b for a, b in zip(inst.cover_value(mask), inst.cover_value(witness)))
    pak_mult = tuple(a + b for a, b in zip(inst.pack_value(mask), inst.pack_value(witness)))
    return CompletionOutcome(
        found=True, base_set=mask, completion_set=witness, support=support,
        value=val, cover_with_multiplicity=cov_mult, pack_with_multiplicity=pak_mult,
        valid_cells=valid, cells_populated=outcome.cells_populated,
    )


# ---------------------------------------------------------------------------
# scaling a rational instance down to integers


@dataclass(frozen=True)
class ScaledInstance:
    scaled: Instance
    k_cover: tuple     # per covering row scaling factor (0 for trivial rows)
    k_pack: tuple


def scale_instance(inst: Instance, epsilon: Rational) -> ScaledInstance:
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
    new_cover_rows, new_cover_bounds, k_cover = [], [], []
    for row, bound in zip(inst.covering, inst.cover_bound):
        row = tuple(min(v, bound) for v in row)
        c_max = max(row, default=0)
        if c_max == 0:
            new_cover_rows.append((0,) * n)
            new_cover_bounds.append(0 if bound == 0 else 1)
            k_cover.append(Fraction(0))
            continue
        k = epsilon * Fraction(c_max) / n
        new_cover_rows.append(tuple(_ceil_div(v, k) for v in row))
        new_cover_bounds.append(_ceil_div(bound, k))
        k_cover.append(k)
    new_pack_rows, new_pack_bounds, k_pack = [], [], []
    for row, bound in zip(inst.packing, inst.pack_bound):
        usable = [v for v in row if v <= bound]
        p_max = max(usable, default=0)
        if p_max == 0:
            scaled_bound = 0
            new_pack_rows.append(tuple(0 if v <= bound else 1 for v in row))
            new_pack_bounds.append(scaled_bound)
            k_pack.append(Fraction(0))
            continue
        k = epsilon * Fraction(p_max) / (2 * n)
        scaled_bound = _floor_div(bound, k)
        new_pack_rows.append(tuple(
            _floor_div(v, k) if v <= bound else scaled_bound + 1 for v in row))
        new_pack_bounds.append(scaled_bound)
        k_pack.append(k)
    scaled = Instance(
        n=n,
        packing=tuple(new_pack_rows),
        covering=tuple(new_cover_rows),
        pack_bound=tuple(new_pack_bounds),
        cover_bound=tuple(new_cover_bounds),
        objective=inst.objective,
    )
    return ScaledInstance(scaled=scaled, k_cover=tuple(k_cover), k_pack=tuple(k_pack))


def _ceil_div(v: Rational, k: Fraction) -> int:
    return math.ceil(Fraction(v) / k)


def _floor_div(v: Rational, k: Fraction) -> int:
    return math.floor(Fraction(v) / k)
