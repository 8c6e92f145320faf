"""Exhaustive enumeration: exact optima and the (cover, pack) pareto map.

This is the ground truth every approximation claim in the test suite is
checked against.  The constraint loads of a subset are one packed int word
(``core.packed_loads``).  ``brute_optimum`` searches depth first over the
subsets that pack, extending each by higher-index elements only, and cuts a
subtree as soon as the covering rows cannot all be met inside it; it asks
the oracle's ``eval`` only for the subsets that fit.  ``brute_pareto`` needs
every subset, so it walks them in Gray-code order, one element flipped and
one add or subtract per step.
"""

from dataclasses import dataclass

from .core import Instance, PackedLoads, better, packed_loads


@dataclass(frozen=True)
class BruteResult:
    best_value: object        # rational; 0 when nothing is feasible
    best_set: int             # bitmask; meaningful only if feasible_count > 0
    feasible_count: int


def _gray_walk(n: int, loads: PackedLoads):
    """Every subset of ``range(n)`` as ``(mask, packed load word)``, in
    Gray-code order: one element flipped per step."""
    offsets = loads.offsets
    mask, word = 0, loads.start
    yield mask, word
    for step in range(1, 1 << n):
        elem = (step & -step).bit_length() - 1
        bit = 1 << elem
        mask ^= bit
        if mask & bit:
            word += offsets[elem]
        else:
            word -= offsets[elem]
        yield mask, word


def _cover_rest(loads: PackedLoads, n: int) -> list:
    """``rest[i]``: the covering fields of elements ``i..n-1``, summed.  The
    packing fields are masked out, so adding ``rest[i]`` to a word carries
    into no other field."""
    rest = [0] * (n + 1)
    for e in range(n - 1, -1, -1):
        rest[e] = rest[e + 1] + (loads.offsets[e] & ~loads.pack_fields)
    return rest


def brute_optimum(inst: Instance, max_n: int = 22) -> BruteResult:
    """Maximum f over all feasible subsets.

    Entries are non-negative, so the subsets that pack are closed under
    taking subsets: a depth-first search that extends each set by
    higher-index elements only, and drops an extension that overflows a
    packing row, reaches every one of them.  A subtree whose set, with every
    remaining element's covering entries added, still misses a covering
    bound holds no covering set and is cut.  ``better`` picks the best set
    whatever order the sets are met in.
    """
    if inst.n > max_n:
        raise ValueError(f"n={inst.n} exceeds brute-force limit {max_n}")
    n = inst.n
    loads = packed_loads(inst)
    pack_guard, want = loads.pack_guard, loads.want
    rest = _cover_rest(loads, n)
    # tails[i]: the extensions by elements i.. as (bit, offset, rest after it, next index)
    steps = [(1 << e, loads.offsets[e], rest[e + 1], e + 1) for e in range(n)]
    tails = [steps[i:] for i in range(n + 1)]
    evaluate = inst.objective.eval
    best = None                     # (mask, value)
    feasible_count = 0
    # (set, its word, its first extension index); every set here packs
    stack = [(0, loads.start, 0)] if (loads.start + rest[0]) & want == want else []
    while stack:
        mask, word, nxt = stack.pop()
        if word & want == want:
            feasible_count += 1
            value = evaluate(mask)
            if better(value, mask, best):
                best = (mask, value)
        for bit, offset, later, after in tails[nxt]:
            child = word + offset
            if not child & pack_guard and (child + later) & want == want:
                stack.append((mask | bit, child, after))
    best_set, best_value = best or (0, 0)
    return BruteResult(best_value, best_set, feasible_count)


def brute_pareto(inst: Instance, max_n: int = 18) -> dict:
    """Map (cover vector, pack vector) -> (max f, witness set) over all subsets."""
    if inst.n > max_n:
        raise ValueError(f"n={inst.n} exceeds pareto enumeration limit {max_n}")
    loads = packed_loads(inst)
    table: dict = {}                # load word -> (mask, value) while enumerating
    for mask, word in _gray_walk(inst.n, loads):
        value = inst.objective.eval(mask)
        if better(value, mask, table.get(word)):
            table[word] = (mask, value)
    return {loads.decode(word): (value, mask) for word, (mask, value) in table.items()}
