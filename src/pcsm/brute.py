"""Exhaustive enumeration: exact optima and the (cover, pack) pareto map.

This is the ground truth every approximation claim in the test suite is
checked against.  Enumeration walks subsets in Gray-code order so that each
step flips a single element and the constraint loads and oracle value are
maintained incrementally.
"""

from dataclasses import dataclass

from .core import Instance, better, iter_bits


@dataclass(frozen=True)
class BruteResult:
    best_value: object        # rational; 0 when nothing is feasible
    best_set: int             # bitmask; meaningful only if feasible_count > 0
    feasible_count: int


class _IncrementalState:
    """Oracle value plus constraint loads, updated one element at a time."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.oracle = inst.objective
        self.pack = [0] * inst.p
        self.cover = [0] * inst.c
        self.value = self.oracle.eval(0)
        self._kind = self.oracle.kind
        if self._kind == "linear":
            self._wsum = 0
        elif self._kind == "concave_of_modular":
            self._wsum = 0
        elif self._kind == "coverage":
            self._hits = [0] * self.oracle.universe
        self.mask = 0

    def flip(self, elem: int) -> None:
        adding = not (self.mask >> elem) & 1
        sign = 1 if adding else -1
        self.mask ^= 1 << elem
        for i, row in enumerate(self.inst.packing):
            self.pack[i] += sign * row[elem]
        for j, row in enumerate(self.inst.covering):
            self.cover[j] += sign * row[elem]
        o = self.oracle
        if self._kind == "linear":
            self.value += sign * o.weights[elem]
        elif self._kind == "concave_of_modular":
            self._wsum += sign * o.weights[elem]
            self.value = min(self._wsum, o.cap)
        elif self._kind == "coverage":
            for u in iter_bits(o.element_masks[elem]):
                before = self._hits[u]
                self._hits[u] += sign
                if adding and before == 0:
                    self.value += o.universe_weights[u]
                elif not adding and before == 1:
                    self.value -= o.universe_weights[u]
        else:
            self.value = o.eval(self.mask)

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
