"""Exhaustive enumeration: exact optima and the (cover, pack) pareto map.

This is the ground truth every approximation claim in the test suite is
checked against.  Enumeration walks subsets in Gray-code order so that each
step flips a single element; the constraint loads are maintained here and
the objective value by the oracle's ``walker``.
"""

from dataclasses import dataclass

from .core import Instance, better


@dataclass(frozen=True)
class BruteResult:
    best_value: object        # rational; 0 when nothing is feasible
    best_set: int             # bitmask; meaningful only if feasible_count > 0
    feasible_count: int


class _IncrementalState:
    """Constraint loads plus the objective's ``walker`` value, updated one
    element at a time."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.pack = [0] * inst.p
        self.cover = [0] * inst.c
        self.value = inst.objective.eval(0)
        self._walk = inst.objective.walker()
        self.mask = 0

    def flip(self, elem: int) -> None:
        self.mask ^= 1 << elem
        sign = 1 if self.mask >> elem & 1 else -1
        for i, row in enumerate(self.inst.packing):
            self.pack[i] += sign * row[elem]
        for j, row in enumerate(self.inst.covering):
            self.cover[j] += sign * row[elem]
        self.value = self._walk(elem)

    def feasible(self) -> bool:
        return (all(l <= b for l, b in zip(self.pack, self.inst.pack_bound))
                and all(l >= b for l, b in zip(self.cover, self.inst.cover_bound)))


def brute_optimum(inst: Instance, max_n: int = 22) -> BruteResult:
    """Maximum f over all feasible subsets, by full 2^n enumeration."""
    if inst.n > max_n:
        raise ValueError(f"n={inst.n} exceeds brute-force limit {max_n}")
    state = _IncrementalState(inst)
    best = None                     # (mask, value)
    feasible_count = 0
    if state.feasible():
        feasible_count = 1
        best = (0, state.value)
    for step in range(1, 1 << inst.n):
        state.flip((step & -step).bit_length() - 1)
        if state.feasible():
            feasible_count += 1
            if better(state.value, state.mask, best):
                best = (state.mask, state.value)
    if best is None:
        return BruteResult(best_value=0, best_set=0, feasible_count=0)
    return BruteResult(best_value=best[1], best_set=best[0],
                       feasible_count=feasible_count)


def brute_pareto(inst: Instance, max_n: int = 18) -> dict:
    """Map (cover vector, pack vector) -> (max f, witness set) over all subsets."""
    if inst.n > max_n:
        raise ValueError(f"n={inst.n} exceeds pareto enumeration limit {max_n}")
    state = _IncrementalState(inst)
    table: dict = {}                # key -> (mask, value) while enumerating

    def record():
        key = (tuple(state.cover), tuple(state.pack))
        if better(state.value, state.mask, table.get(key)):
            table[key] = (state.mask, state.value)

    record()
    for step in range(1, 1 << inst.n):
        state.flip((step & -step).bit_length() - 1)
        record()
    return {key: (value, mask) for key, (mask, value) in table.items()}
