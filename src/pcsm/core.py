"""Instance model, submodular oracles and feasibility predicates.

Everything in this module is exact: matrices, bounds and oracle values are
Fractions (or ints, which mix freely with Fractions).  Subsets of the ground
set are plain int bitmasks; Python ints are unbounded so this representation
works for any n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, or_
from typing import Iterable, Iterator, Sequence, Union

Rational = Union[int, Fraction]


class PcsmError(Exception):
    """Base class for solver errors."""


class BudgetExceededError(PcsmError):
    """A configured enumeration/table budget would be exceeded; refusing."""


class InfeasibleError(PcsmError):
    """The instance (or a residual subproblem) has no feasible solution."""


# ---------------------------------------------------------------------------
# bitmask subsets


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_tuple(mask: int) -> tuple:
    return tuple(iter_bits(mask))


def subset_key(mask: int) -> tuple:
    """Sort key realizing the 'lexicographically smallest subset' tie-break."""
    return mask_to_tuple(mask)


def subset_less(a: int, b: int) -> bool:
    """``subset_key(a) < subset_key(b)`` without building either tuple.

    Below the lowest differing bit ``d`` both index tuples agree.  If ``a``
    holds ``d`` it is smaller exactly when ``b`` continues past ``d``;
    otherwise ``a`` is smaller exactly when it stops before ``d`` (a proper
    prefix of ``b``).
    """
    diff = a ^ b
    low = diff & -diff
    if a & low:
        return b >= low << 1
    return a < low


def better(value, mask: int, cur) -> bool:
    """Whether ``(mask, value)`` beats the entry ``cur = (mask, value, ...)``.

    Higher value wins; equal values go to the lexicographically smallest
    subset.  ``cur`` may be None (nothing recorded yet).  Every solver breaks
    ties through this one comparator.
    """
    if cur is None:
        return True
    cur_value = cur[1]
    return value > cur_value or (value == cur_value and subset_less(mask, cur[0]))


# ---------------------------------------------------------------------------
# per-byte subset tables


def _byte_tables(values: Sequence, combine) -> tuple:
    """One table per block of 8 consecutive indices: entry ``m`` folds the
    block's values over the bits of ``m``, lowest first, starting from int 0.
    A short last block gets a table of ``2^(its length)`` entries."""
    tables = []
    for start in range(0, len(values), 8):
        table = [0]
        for v in values[start:start + 8]:
            table += [combine(t, v) for t in table]
        tables.append(table)
    return tuple(tables)


def _fold(tables: tuple, mask: int, combine):
    """The fold of ``mask``'s values with ``combine``: one lookup per block.
    A bit past the last index raises IndexError, as indexing the values
    would: past a short last block its table is too short, and past the
    last block the fold checks for leftover bits."""
    acc = 0
    for table in tables:
        acc = combine(acc, table[mask & 255])
        mask >>= 8
    if mask:
        raise IndexError("mask has a bit past the last index")
    return acc


# ---------------------------------------------------------------------------
# submodular oracles


class SubmodularOracle:
    """Value oracle for a monotone submodular set function.

    Subclasses implement ``eval(mask)`` returning an exact rational and must
    be monotone and submodular; both properties are exercised by sampled
    checks in the test suite rather than assumed.  ``begin``/``gain`` fall
    back to ``eval``; override them for a faster form.
    """

    kind = "abstract"
    n = 0

    def eval(self, mask: int) -> Rational:
        raise NotImplementedError

    def begin(self, mask: int):
        """Reusable state for repeated marginal queries against one base set."""
        return (mask, self.eval(mask))

    def gain(self, state, elem: int) -> Rational:
        mask, value = state
        return self.eval(mask | (1 << elem)) - value

    def to_json_obj(self) -> dict:
        raise NotImplementedError


class LinearOracle(SubmodularOracle):
    kind = "linear"

    def __init__(self, weights: Sequence[Rational]):
        self.weights = tuple(_rat(w) for w in weights)
        if any(w < 0 for w in self.weights):
            raise ValueError("linear weights must be non-negative")
        self.n = len(self.weights)
        self._sums = _byte_tables(self.weights, add)

    def eval(self, mask: int) -> Rational:
        return _fold(self._sums, mask, add)

    def begin(self, mask: int):
        return None

    def gain(self, state, elem: int) -> Rational:
        return self.weights[elem]

    def to_json_obj(self) -> dict:
        return {"kind": "linear", "weights": [_rat_json(w) for w in self.weights]}


class CoverageOracle(SubmodularOracle):
    """Weighted coverage: f(S) = total weight of universe items hit by S.

    One set of tables folds element sets into the items they hit, another
    folds item weights."""

    kind = "coverage"

    def __init__(self, universe: int, element_sets: Sequence[Iterable[int]],
                 universe_weights: Sequence[Rational]):
        self.universe = universe
        self.universe_weights = tuple(_rat(w) for w in universe_weights)
        if len(self.universe_weights) != universe:
            raise ValueError("universe_weights length must equal universe size")
        if any(w < 0 for w in self.universe_weights):
            raise ValueError("universe weights must be non-negative")
        self.element_masks = tuple(mask_of(s) for s in element_sets)
        for em in self.element_masks:
            if em >> universe:
                raise ValueError("element set references item outside universe")
        self.n = len(self.element_masks)
        self._unions = _byte_tables(self.element_masks, or_)
        self._sums = _byte_tables(self.universe_weights, add)

    def covered(self, mask: int) -> int:
        return _fold(self._unions, mask, or_)

    def eval(self, mask: int) -> Rational:
        return _fold(self._sums, self.covered(mask), add)

    def begin(self, mask: int):
        return self.covered(mask)

    def gain(self, state, elem: int) -> Rational:
        return _fold(self._sums, self.element_masks[elem] & ~state, add)

    def to_json_obj(self) -> dict:
        return {
            "kind": "coverage",
            "universe": self.universe,
            "element_sets": [sorted(iter_bits(m)) for m in self.element_masks],
            "universe_weights": [_rat_json(w) for w in self.universe_weights],
        }


class ConcaveOfModularOracle(SubmodularOracle):
    """f(S) = min(sum of weights over S, cap)."""

    kind = "concave_of_modular"

    def __init__(self, weights: Sequence[Rational], cap: Rational):
        self.weights = tuple(_rat(w) for w in weights)
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        self.cap = _rat(cap)
        if self.cap < 0:
            raise ValueError("cap must be non-negative")
        self.n = len(self.weights)
        self._sums = _byte_tables(self.weights, add)

    def eval(self, mask: int) -> Rational:
        return min(_fold(self._sums, mask, add), self.cap)

    def begin(self, mask: int):
        return _fold(self._sums, mask, add)

    def gain(self, state, elem: int) -> Rational:
        return min(state + self.weights[elem], self.cap) - min(state, self.cap)

    def to_json_obj(self) -> dict:
        return {
            "kind": "concave_of_modular",
            "weights": [_rat_json(w) for w in self.weights],
            "cap": _rat_json(self.cap),
        }


def marginal(oracle: SubmodularOracle, mask: int, elem: int) -> Rational:
    """f(A + elem) - f(A), which is non-negative for monotone oracles."""
    if not (0 <= elem < oracle.n):
        raise ValueError(f"element {elem} out of range [0, {oracle.n})")
    if mask >> elem & 1:
        raise ValueError(f"element {elem} already in subset")
    return oracle.gain(oracle.begin(mask), elem)


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class Instance:
    """Ground set with packing/covering matrices, bounds and an objective.

    Feasible sets S satisfy ``packing @ 1_S <= pack_bound`` and
    ``covering @ 1_S >= cover_bound`` componentwise.
    """

    n: int
    packing: tuple          # p rows, each a tuple of n rationals
    covering: tuple         # c rows
    pack_bound: tuple
    cover_bound: tuple
    objective: SubmodularOracle = field(compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be non-negative")
        for name, rows in (("packing", self.packing), ("covering", self.covering)):
            for row in rows:
                if len(row) != self.n:
                    raise ValueError(f"{name} row length {len(row)} != n={self.n}")
                if any(v < 0 for v in row):
                    raise ValueError(f"{name} entries must be non-negative")
        if len(self.pack_bound) != len(self.packing):
            raise ValueError("pack_bound length mismatch")
        if len(self.cover_bound) != len(self.covering):
            raise ValueError("cover_bound length mismatch")
        if any(v < 0 for v in self.pack_bound) or any(v < 0 for v in self.cover_bound):
            raise ValueError("bounds must be non-negative")
        if self.objective.n != self.n:
            raise ValueError("objective arity mismatch")

    @property
    def p(self) -> int:
        return len(self.packing)

    @property
    def c(self) -> int:
        return len(self.covering)

    def pack_value(self, mask: int) -> tuple:
        return tuple(sum(row[i] for i in iter_bits(mask)) for row in self.packing)

    def cover_value(self, mask: int) -> tuple:
        return tuple(sum(row[i] for i in iter_bits(mask)) for row in self.covering)

    def is_integer(self) -> bool:
        def ints(vals):
            return all(Fraction(v).denominator == 1 for v in vals)
        return (all(ints(r) for r in self.packing) and all(ints(r) for r in self.covering)
                and ints(self.pack_bound) and ints(self.cover_bound))


def make_instance(packing, covering, pack_bound, cover_bound, objective) -> Instance:
    """Build an Instance, normalizing all numeric entries to exact rationals."""
    packing = tuple(tuple(_rat(v) for v in row) for row in packing)
    covering = tuple(tuple(_rat(v) for v in row) for row in covering)
    return Instance(
        n=objective.n,
        packing=packing,
        covering=covering,
        pack_bound=tuple(_rat(v) for v in pack_bound),
        cover_bound=tuple(_rat(v) for v in cover_bound),
        objective=objective,
    )


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    pack_violations: tuple   # per packing row: max(0, load - bound)
    cover_deficits: tuple    # per covering row: max(0, bound - load)


def is_feasible(inst: Instance, mask: int) -> FeasibilityReport:
    loads_p = inst.pack_value(mask)
    loads_c = inst.cover_value(mask)
    pv = tuple(max(0, load - b) for load, b in zip(loads_p, inst.pack_bound))
    cd = tuple(max(0, b - load) for load, b in zip(loads_c, inst.cover_bound))
    return FeasibilityReport(
        feasible=all(v == 0 for v in pv) and all(d == 0 for d in cd),
        pack_violations=pv,
        cover_deficits=cd,
    )


# ---------------------------------------------------------------------------
# packed loads: every row's load in one int word


class _KeepMasks(dict):
    """Cover-guard pattern -> AND mask clearing the low bits of every
    covering field whose guard is set; each pattern is built on first use."""

    def __init__(self, cover_fields: tuple):
        super().__init__()
        self.cover_fields = cover_fields     # ``PackedLoads.fields`` of the covering rows

    def __missing__(self, pattern: int) -> int:
        clear = 0
        for shift, fmask, _, _ in self.cover_fields:
            low = fmask >> 1                 # the w bits below the guard
            if pattern & (low + 1) << shift:
                clear |= low << shift
        keep = self[pattern] = ~clear
        return keep


@dataclass(frozen=True)
class PackedLoads:
    """Every packing and covering load of a subset in one exact int word.

    Each row is scaled to ints by the lcm of its entries' and bound's
    denominators and gets a field of ``w + 1`` bits, ``w = max(row sum,
    bound, 1).bit_length()``.  A packing field stores ``load + 2^w - 1 - b``
    and a covering field ``load + 2^w - b``, so bit ``w`` of a field (its
    guard) is set exactly when the packing row overflows or the covering row
    is met.  A subset's word is ``start`` plus its elements' ``offsets``;
    each field stays in ``[0, 2^(w+1))``, so fields never carry into each
    other and removing an element is one subtraction.  A set is feasible
    exactly when ``word & guard == want``.  The scaling is int arithmetic,
    with no ``Fraction`` made; ``rows`` keeps the scaled rows.
    """

    start: int               # the empty set's word: the biases
    offsets: tuple           # per element: its scaled entries, shifted into place
    guard: int               # every field's guard bit
    want: int                # guard pattern of a feasible set: the covering guards
    pack_guard: int          # the packing guards: set bits mean an overflow
    pack_fields: int         # every bit of the packing fields, which sit lowest
    fields: tuple            # (shift, field mask, bias, scale): packing rows, then covering
    rows: tuple              # the scaled rows, int entries: packing rows, then covering
    p: int
    keep: _KeepMasks = field(compare=False, repr=False)

    def clamp(self, word: int) -> int:
        """Saturate each met covering row at its bound (``min(load, b)``).
        Hot loops inline this as ``word &= keep[word & want]``."""
        return word & self.keep[word & self.want]

    def decode(self, word: int) -> tuple:
        """``(cover loads, pack loads)`` of a word: ints, or Fractions for
        rows scaled by more than 1."""
        loads = []
        for shift, fmask, bias, scale in self.fields:
            load = (word >> shift & fmask) - bias
            loads.append(load if scale == 1 else Fraction(load, scale))
        return tuple(loads[self.p:]), tuple(loads[:self.p])


def packed_loads(inst: Instance) -> PackedLoads:
    """The packed load layout of ``inst``: packing rows in the low fields,
    covering rows above them."""
    offsets = [0] * inst.n
    start = guard = pack_guard = pack_fields = shift = 0
    fields, scaled = [], []
    rows = [(row, b, True) for row, b in zip(inst.packing, inst.pack_bound)]
    rows += [(row, b, False) for row, b in zip(inst.covering, inst.cover_bound)]
    for row, b, packing in rows:
        scale = math.lcm(b.denominator, *[v.denominator for v in row])
        entries = tuple([v.numerator * (scale // v.denominator) for v in row])
        bound = b.numerator * (scale // b.denominator)
        w = max(sum(entries), bound, 1).bit_length()
        bias = (1 << w) - bound - (1 if packing else 0)
        fmask = (2 << w) - 1
        offsets = [o + (v << shift) for o, v in zip(offsets, entries)]
        start += bias << shift
        guard |= 1 << (shift + w)
        if packing:
            pack_guard |= 1 << (shift + w)
            pack_fields |= fmask << shift
        fields.append((shift, fmask, bias, scale))
        scaled.append(entries)
        shift += w + 1
    return PackedLoads(start=start, offsets=tuple(offsets), guard=guard,
                       want=guard & ~pack_guard, pack_guard=pack_guard,
                       pack_fields=pack_fields, fields=tuple(fields), rows=tuple(scaled),
                       p=inst.p, keep=_KeepMasks(tuple(fields[inst.p:])))


def load_ratios(inst: Instance, mask: int) -> tuple:
    """(cover, pack) load/bound ratios of ``mask`` over rows with a positive
    bound: cover is the minimum (None without such a row), pack the maximum
    (0 without one)."""
    pack = max((Fraction(l) / b for l, b in zip(inst.pack_value(mask), inst.pack_bound)
                if b > 0), default=Fraction(0))
    cover = min((Fraction(l) / b for l, b in zip(inst.cover_value(mask), inst.cover_bound)
                 if b > 0), default=None)
    return cover, pack


def normalize(inst: Instance) -> Instance:
    """Rescale so every bound equals 1 (the continuous track's convention).

    Covering entries are clamped at their row bound first; a single element
    already covers a row completely, so every predicate of the form
    ``cover >= tau * bound`` with tau <= 1 is unchanged, and normalized
    entries stay in [0, 1].  Covering rows with bound 0 are always satisfied
    and get dropped.  A packing row with bound 0 keeps its feasible sets:
    elements with positive entries become entry 2 against bound 1, i.e.
    permanently unpackable.
    """
    packing, covering = [], []
    for row, b in zip(inst.packing, inst.pack_bound):
        if b == 0:
            packing.append(tuple(Fraction(2) if v > 0 else Fraction(0) for v in row))
        else:
            packing.append(tuple(Fraction(v, b) for v in row))
    for row, b in zip(inst.covering, inst.cover_bound):
        if b == 0:
            continue
        covering.append(tuple(Fraction(min(v, b), b) for v in row))
    return Instance(
        n=inst.n,
        packing=tuple(packing),
        covering=tuple(covering),
        pack_bound=tuple(Fraction(1) for _ in packing),
        cover_bound=tuple(Fraction(1) for _ in covering),
        objective=inst.objective,
    )


@dataclass(frozen=True)
class Params:
    """Knobs of the enumeration/rounding pipeline.

    The defaults tie alpha, beta and gamma to delta the way the analysis
    fixes them (alpha = delta^3, beta = delta^2 / 3b, gamma = 1 / delta^3).
    """

    epsilon: Fraction
    delta: Fraction
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        if not 0 < self.epsilon:
            raise ValueError("epsilon must be positive")
        for name in ("delta", "alpha", "beta"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")

    @classmethod
    def from_delta(cls, epsilon, delta, b: int) -> "Params":
        epsilon, delta = to_fraction(epsilon), to_fraction(delta)
        # checked before the schedule divides by delta and b
        if not 0 < epsilon:
            raise ValueError("epsilon must be positive")
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if b < 1:
            raise ValueError("b must be at least 1")
        return cls(
            epsilon=epsilon,
            delta=delta,
            alpha=delta ** 3,
            beta=delta ** 2 / (3 * b),
            gamma=1 / delta ** 3,
        )

    @classmethod
    def from_epsilon(cls, epsilon, b: int) -> "Params":
        """Schedule of the analysis: delta just below min{1/15b, eps/(30b^3+2)}."""
        if b < 1:
            raise ValueError("b must be at least 1")
        epsilon = to_fraction(epsilon)
        cap = min(Fraction(1, 15 * b), epsilon / (30 * b ** 3 + 2))
        return cls.from_delta(epsilon, cap * Fraction(999, 1000), b)


# ---------------------------------------------------------------------------
# JSON instance schema


def _rat(v) -> Rational:
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, float):
        if not v.is_integer():
            raise ValueError(
                f"refusing inexact float {v!r}; use an int or 'a/b' string")
        return int(v)
    if isinstance(v, str):
        return to_fraction(v)
    raise TypeError(f"cannot interpret {v!r} as a rational")


def to_fraction(v) -> Fraction:
    """Exact conversion for parameters; floats go through their decimal
    literal so 0.2 becomes 1/5, not the binary expansion.  A zero
    denominator is bad input (ValueError)."""
    if isinstance(v, float):
        return Fraction(str(v))
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v!r}") from None


def _json_rat(v) -> Rational:
    """``_rat`` of a value read from JSON, where a list, an object, a
    boolean or null is bad input."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f"cannot interpret {v!r} as a rational")
    return _rat(v)


def _json_of(v, kind, what: str):
    """``v`` when it is a JSON value of type ``kind``; anything else,
    a boolean where a number belongs included, is bad input."""
    if isinstance(v, bool) or not isinstance(v, kind):
        raise ValueError(f"expected {what}, not {v!r}")
    return v


def _json_int(v) -> int:
    return _json_of(v, int, "an integer")


def _json_rats(v) -> list:
    return [_json_rat(x) for x in _json_of(v, list, "a list")]


def _rat_json(v: Rational):
    f = Fraction(v)
    if f.denominator == 1:
        return f.numerator
    return f"{f.numerator}/{f.denominator}"


def oracle_from_json_obj(obj: dict) -> SubmodularOracle:
    kind = _json_of(obj, dict, "an object").get("kind")
    if kind == "linear":
        return LinearOracle(_json_rats(obj["weights"]))
    if kind == "coverage":
        return CoverageOracle(
            universe=_json_int(obj["universe"]),
            element_sets=[list(map(_json_int, _json_of(s, list, "a list")))
                          for s in _json_of(obj["element_sets"], list, "a list")],
            universe_weights=_json_rats(obj["universe_weights"]),
        )
    if kind == "concave_of_modular":
        return ConcaveOfModularOracle(
            weights=_json_rats(obj["weights"]),
            cap=_json_rat(obj["cap"]),
        )
    raise ValueError(f"unknown objective kind {kind!r}")


def instance_from_json_obj(obj: dict) -> Instance:
    oracle = oracle_from_json_obj(_json_of(obj, dict, "an object")["objective"])
    if _json_int(obj["n"]) != oracle.n:
        raise ValueError("n does not match objective arity")
    return make_instance(
        packing=[_json_rats(row) for row in _json_of(obj["packing"], list, "a list")],
        covering=[_json_rats(row) for row in _json_of(obj["covering"], list, "a list")],
        pack_bound=_json_rats(obj["pack_bound"]),
        cover_bound=_json_rats(obj["cover_bound"]),
        objective=oracle,
    )


def instance_to_json_obj(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "packing": [[_rat_json(v) for v in row] for row in inst.packing],
        "covering": [[_rat_json(v) for v in row] for row in inst.covering],
        "pack_bound": [_rat_json(v) for v in inst.pack_bound],
        "cover_bound": [_rat_json(v) for v in inst.cover_bound],
        "objective": inst.objective.to_json_obj(),
    }


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json_obj(json.load(fh))


def dump_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json_obj(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")
