"""Exhaustive enumeration: exact optima and the (cover, pack) pareto map.

This is the ground truth every approximation claim in the test suite is
checked against.  Enumeration walks subsets in Gray-code order so that each
step flips a single element; the constraint loads are one packed int word
(``core.packed_loads``) updated by one add or subtract, and the objective
value comes from the oracle's ``walker``.
"""

from dataclasses import dataclass

from .core import Instance, PackedLoads, better, packed_loads


@dataclass(frozen=True)
class BruteResult:
    best_value: object        # rational; 0 when nothing is feasible
    best_set: int             # bitmask; meaningful only if feasible_count > 0
    feasible_count: int


def _gray_walk(inst: Instance, loads: PackedLoads):
    """Every subset as ``(mask, packed load word, f(mask))``, one element
    flipped per step."""
    offsets = loads.offsets
    walk = inst.objective.walker()
    mask, word, value = 0, loads.start, inst.objective.eval(0)
    yield mask, word, value
    for step in range(1, 1 << inst.n):
        elem = (step & -step).bit_length() - 1
        bit = 1 << elem
        mask ^= bit
        if mask & bit:
            word += offsets[elem]
        else:
            word -= offsets[elem]
        yield mask, word, walk(elem)


def brute_optimum(inst: Instance, max_n: int = 22) -> BruteResult:
    """Maximum f over all feasible subsets, by full 2^n enumeration."""
    if inst.n > max_n:
        raise ValueError(f"n={inst.n} exceeds brute-force limit {max_n}")
    loads = packed_loads(inst)
    guard, want = loads.guard, loads.want
    best = None                     # (mask, value)
    feasible_count = 0
    for mask, word, value in _gray_walk(inst, loads):
        if word & guard == want:
            feasible_count += 1
            if better(value, mask, best):
                best = (mask, value)
    if best is None:
        return BruteResult(best_value=0, best_set=0, feasible_count=0)
    return BruteResult(best_value=best[1], best_set=best[0],
                       feasible_count=feasible_count)


def brute_pareto(inst: Instance, max_n: int = 18) -> dict:
    """Map (cover vector, pack vector) -> (max f, witness set) over all subsets."""
    if inst.n > max_n:
        raise ValueError(f"n={inst.n} exceeds pareto enumeration limit {max_n}")
    loads = packed_loads(inst)
    table: dict = {}                # load word -> (mask, value) while enumerating
    for mask, word, value in _gray_walk(inst, loads):
        if better(value, mask, table.get(word)):
            table[word] = (mask, value)
    return {loads.decode(word): (value, mask) for word, (mask, value) in table.items()}
