"""Two-distance capacitated k-median via a submodular reduction.

With client-facility distances restricted to {a, b}, the number of clients
servable at the near distance by an open set F' is a monotone submodular
function (a capacitated matching value, computed by augmenting paths over
per-client facility masks).  Minimizing cost is then maximizing that
function subject to |F'| <= k and total open capacity >= #clients, which
the cardinality DP solves; the b > 3a and a = 0 regimes decompose into
zero/near-distance clusters and are solved exactly by a small
knapsack-style DP.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

from .core import SubmodularOracle, _json_int, _json_of, iter_bits, make_instance


@dataclass(frozen=True)
class TwoDistInstance:
    capacities: tuple        # one positive int per facility
    num_clients: int
    near_pairs: frozenset    # (client, facility) pairs at distance a
    a: object                # near distance, 0 <= a <= b
    b: object
    k: int
    # per client, the mask of its near facilities
    near_masks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(not isinstance(u, int) or u < 1 for u in self.capacities):
            raise ValueError("capacities must be positive integers")
        if not isinstance(self.num_clients, int) or self.num_clients < 0:
            raise ValueError("the number of clients must be a non-negative integer")
        if not 0 <= self.a <= self.b < math.inf:
            raise ValueError("distances must be finite and satisfy 0 <= a <= b")
        if not isinstance(self.k, int) or self.k < 0:
            raise ValueError("k must be a non-negative integer")
        for cl, fa in self.near_pairs:
            if not (isinstance(cl, int) and isinstance(fa, int)
                    and 0 <= cl < self.num_clients and 0 <= fa < len(self.capacities)):
                raise ValueError("near pair out of range")
        near = [0] * self.num_clients
        for cl, fa in self.near_pairs:
            near[cl] |= 1 << fa
        object.__setattr__(self, "near_masks", tuple(near))

    @property
    def num_facilities(self) -> int:
        return len(self.capacities)


def two_dist_from_json_obj(obj: dict) -> TwoDistInstance:
    facilities = _json_of(_json_of(obj, dict, "an object")["facilities"], list, "a list")
    return TwoDistInstance(
        capacities=tuple(_json_int(_json_of(f, dict, "an object")["cap"]) for f in facilities),
        num_clients=_json_int(obj["clients"]),
        near_pairs=frozenset(tuple(map(_json_int, _json_of(pair, list, "a list")))
                             for pair in _json_of(obj["dist_a_pairs"], list, "a list")),
        a=_json_of(obj["a"], (int, float), "a number"),
        b=_json_of(obj["b"], (int, float), "a number"),
        k=_json_int(obj["k"]),
    )


def load_two_dist(path) -> TwoDistInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return two_dist_from_json_obj(json.load(fh))


# ---------------------------------------------------------------------------
# near-distance matching


def _near_match(inst: TwoDistInstance, f_mask: int) -> list:
    """A maximum near-distance b-matching into the open facilities
    ``f_mask``: per client, its facility, or -1 if it stays unmatched.

    Clients are matched in index order, each by one augmenting-path search
    (the paths Hopcroft and Karp batch into phases, found here one at a
    time): its open near facilities are tried in index order; one with
    spare capacity takes the client, and a full one takes it only if the
    search can reroute one of the facility's clients elsewhere.  A search
    visits each facility at most once.  A client no search can match never
    becomes matchable later, so the matching is maximum.
    """
    near, caps = inst.near_masks, inst.capacities
    match = [-1] * inst.num_clients
    held = {f: [] for f in iter_bits(f_mask)}    # open facility -> its clients
    seen = 0

    def augment(cl: int) -> bool:
        nonlocal seen
        options = near[cl] & f_mask
        while options:
            bit = options & -options
            options ^= bit
            if seen & bit:
                continue
            seen |= bit
            f = bit.bit_length() - 1
            clients = held[f]
            if len(clients) < caps[f]:
                clients.append(cl)
                match[cl] = f
                return True
            for pos, other in enumerate(clients):
                if augment(other):
                    clients[pos] = cl
                    match[cl] = f
                    return True
        return False

    for cl in range(inst.num_clients):
        if near[cl] & f_mask:
            seen = 0
            augment(cl)
    return match


def match_value(inst: TwoDistInstance, f_mask: int) -> int:
    """Maximum number of clients assignable at the near distance to the open
    facilities, respecting capacities."""
    return inst.num_clients - _near_match(inst, f_mask).count(-1)


def match_assignment(inst: TwoDistInstance, f_mask: int) -> dict:
    """One maximum near-distance assignment client -> facility, in client
    order."""
    return {cl: f for cl, f in enumerate(_near_match(inst, f_mask)) if f >= 0}


class MatchOracle(SubmodularOracle):
    """match_value as a value oracle over facility subsets (memoized)."""

    kind = "match"

    def __init__(self, inst: TwoDistInstance):
        self.inst = inst
        self.n = inst.num_facilities
        self._cache: dict = {}

    def eval(self, mask: int) -> int:
        got = self._cache.get(mask)
        if got is None:
            got = self._cache[mask] = match_value(self.inst, mask)
        return got

    def to_json_obj(self) -> dict:
        raise TypeError("match oracle is not serializable")


# ---------------------------------------------------------------------------
# solver


@dataclass
class KMedianResult:
    found: bool
    open_mask: int
    assignment: dict         # client -> facility
    matched: int             # clients served at distance a
    cost: object


def _check_capacity_feasible(inst: TwoDistInstance) -> bool:
    caps = sorted(inst.capacities, reverse=True)[: inst.k]
    return sum(caps) >= inst.num_clients


def _near_components(inst: TwoDistInstance):
    """Connected components of the near-distance bipartite graph; verifies
    the complete-bipartite structure that a two-distance metric forces when
    b > 3a (or a = 0)."""
    nf, nc = inst.num_facilities, inst.num_clients
    parent = list(range(nf + nc))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for cl, fa in inst.near_pairs:
        union(fa, nf + cl)
    comps: dict = {}
    for fa in range(nf):
        comps.setdefault(find(fa), [[], []])[0].append(fa)
    for cl in range(nc):
        comps.setdefault(find(nf + cl), [[], []])[1].append(cl)
    # a near pair joins its facility and client, so it lies in one component
    pairs = Counter(find(fa) for _cl, fa in inst.near_pairs)
    for root, (facs, clients) in comps.items():
        if pairs[root] != len(facs) * len(clients):
            raise ValueError(
                "near-distance graph is not a union of complete bipartite "
                "clusters; the input is not a two-distance metric")
    return list(comps.values())


def _solve_clustered(inst: TwoDistInstance) -> KMedianResult:
    """Exact DP for the decomposable regimes (a = 0 or b > 3a): distribute k
    facilities over clusters, maximizing clients served at the near distance
    subject to total opened capacity >= number of clients.  Equal served
    counts keep the first state found, not ``core.better``'s subset order;
    the cost is the same either way, as equal served counts give equal cost."""
    comps = _near_components(inst)
    n = inst.num_clients
    cap_goal = n
    # options[g] = list of (facilities used, capacity (saturated), served, mask)
    options = []
    for facs, clients in comps:
        facs_sorted = sorted(facs, key=lambda f: (-inst.capacities[f], f))
        opts = []
        cum_cap = 0
        mask = 0
        opts.append((0, 0, 0, 0))
        for i, f in enumerate(facs_sorted, start=1):
            cum_cap += inst.capacities[f]
            mask |= 1 << f
            opts.append((i, min(cum_cap, cap_goal), min(cum_cap, len(clients)), mask))
        options.append(opts)

    # DP over clusters: state (facilities used, capacity saturated at goal)
    states = {(0, 0): (0, 0)}       # -> (served, mask)
    for opts in options:
        nxt: dict = {}
        for (used, cap), (served, mask) in states.items():
            for extra, ecap, eserved, emask in opts:
                nu = used + extra
                if nu > inst.k:
                    continue
                key = (nu, min(cap + ecap, cap_goal))
                cand = (served + eserved, mask | emask)
                cur = nxt.get(key)
                if cur is None or cand[0] > cur[0]:
                    nxt[key] = cand
        states = nxt
    best = None
    for (used, cap), (served, mask) in states.items():
        if cap >= cap_goal:
            if best is None or served > best[0]:
                best = (served, mask)
    if best is None:
        return KMedianResult(False, 0, {}, 0, 0)
    served, mask = best
    return _finish(inst, mask)


def _finish(inst: TwoDistInstance, open_mask: int) -> KMedianResult:
    assign = match_assignment(inst, open_mask)
    matched = len(assign)
    residual = {f: inst.capacities[f] for f in iter_bits(open_mask)}
    for f in assign.values():
        residual[f] -= 1
    for cl in range(inst.num_clients):
        if cl in assign:
            continue
        far = next(f for f, r in sorted(residual.items()) if r > 0)
        residual[far] -= 1
        assign[cl] = far
    cost = inst.a * matched + inst.b * (inst.num_clients - matched)
    return KMedianResult(True, open_mask, assign, matched, cost)


def solve_two_distance(inst: TwoDistInstance) -> KMedianResult:
    """Open at most k facilities and assign every client, minimizing total
    connection cost."""
    if not _check_capacity_feasible(inst):
        return KMedianResult(False, 0, {}, 0, 0)
    if inst.num_clients == 0:
        return KMedianResult(True, 0, {}, 0, 0)
    if inst.a == 0 or inst.b > 3 * inst.a:
        return _solve_clustered(inst)
    oracle = MatchOracle(inst)
    nf = inst.num_facilities
    reduction = make_instance(
        packing=[[1] * nf],
        covering=[list(inst.capacities)],
        pack_bound=[inst.k],
        cover_bound=[inst.num_clients],
        objective=oracle,
    )
    from .forbidden_dp import cardinality_solve
    outcome = cardinality_solve(reduction, inst.k)
    if not outcome.found:
        return KMedianResult(False, 0, {}, 0, 0)
    return _finish(inst, outcome.best_set)
