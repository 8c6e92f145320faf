"""Exhaustive enumeration: exact optima and the (cover, pack) pareto map.

This is the ground truth every approximation claim in the test suite is
checked against.  Enumeration walks subsets in Gray-code order so that each
step flips a single element; the constraint loads are one packed int word
(``core.packed_loads``) updated by one add or subtract.  ``brute_optimum``
asks the oracle's ``eval`` only for the subsets that fit, ``brute_pareto``
for every subset.
"""

from dataclasses import dataclass

from .core import Instance, PackedLoads, better, packed_loads


@dataclass(frozen=True)
class BruteResult:
    best_value: object        # rational; 0 when nothing is feasible
    best_set: int             # bitmask; meaningful only if feasible_count > 0
    feasible_count: int


def _gray_walk(n: int, loads: PackedLoads):
    """Every subset of ``range(n)`` as ``(mask, packed load word)``, one
    element flipped per step."""
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


def brute_optimum(inst: Instance, max_n: int = 22) -> BruteResult:
    """Maximum f over all feasible subsets, by full 2^n enumeration."""
    if inst.n > max_n:
        raise ValueError(f"n={inst.n} exceeds brute-force limit {max_n}")
    loads = packed_loads(inst)
    guard, want = loads.guard, loads.want
    best = None                     # (mask, value)
    feasible_count = 0
    for mask, word in _gray_walk(inst.n, loads):
        if word & guard == want:
            feasible_count += 1
            value = inst.objective.eval(mask)
            if better(value, mask, best):
                best = (mask, value)
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
