"""Dense simplex solver and the factor-revealing linear programs.

The three program families analyzed here are the multi-phase program over
variables (a_i, o_i), its dual, and the richer variant with forbidden-set
variables (b_i, f_i, g_i).  All constructors keep exact rational
coefficients so analytic witness points can be rechecked without floats;
only the simplex itself works in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .core import Rational, _rat

MAX_PHASES = 2000   # builders refuse beyond this; the dense tableau is the limit
TOL_FEAS = 1e-9     # infeasible if phase-1 artificials sum above this x max(1, max|rhs|)
TOL_OPT = 1e-9      # pivot, reduced-cost and eviction threshold


@dataclass(frozen=True)
class LinearProgram:
    sense: str                       # "min" | "max"
    variables: tuple                 # variable names; all have lower bound 0
    objective: dict                  # var index -> rational coefficient
    constraints: tuple               # (coeffs: dict, rel: "<="|">="|"==", rhs)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        nv = len(self.variables)
        for k in self.objective:
            if not 0 <= k < nv:
                raise ValueError("objective references undeclared variable")
        for coeffs, rel, _rhs in self.constraints:
            if rel not in ("<=", ">=", "=="):
                raise ValueError(f"bad relation {rel!r}")
            for k in coeffs:
                if not 0 <= k < nv:
                    raise ValueError("constraint references undeclared variable")

    def index(self, name: str) -> int:
        return self.variables.index(name)


@dataclass(frozen=True)
class LpSolution:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    objective: float
    assignment: dict                 # name -> float (empty unless optimal)


class _Builder:
    """Accumulates named variables and sparse constraints."""

    def __init__(self, sense):
        self.sense = sense
        self.names = []
        self.by_name = {}
        self.objective = {}
        self.rows = []

    def var(self, name):
        if name not in self.by_name:
            self.by_name[name] = len(self.names)
            self.names.append(name)
        return self.by_name[name]

    def add(self, coeffs: Mapping[str, Rational], rel: str, rhs: Rational):
        row = {}
        for name, v in coeffs.items():
            v = _rat(v)
            if v != 0:
                k = self.var(name)
                row[k] = row.get(k, 0) + v
        self.rows.append((row, rel, rhs))

    def set_objective(self, coeffs: Mapping[str, Rational]):
        self.objective = {self.var(n): v for n, v in coeffs.items() if v != 0}

    def build(self) -> LinearProgram:
        return LinearProgram(
            sense=self.sense,
            variables=tuple(self.names),
            objective=dict(self.objective),
            constraints=tuple((dict(r), rel, rhs) for r, rel, rhs in self.rows),
        )


# ---------------------------------------------------------------------------
# simplex


def simplex_solve(lp: LinearProgram) -> LpSolution:
    """Two-phase dense simplex with Bland's pivoting rule.

    Bland's rule guarantees termination on degenerate programs at the cost
    of extra iterations; the factor-revealing programs solved here are small
    enough that this does not matter.
    """
    nv = len(lp.variables)
    rows, rels, rhs = [], [], []
    for coeffs, rel, b in lp.constraints:
        b = float(b)
        dense = np.zeros(nv)
        for k, v in coeffs.items():
            dense[k] = float(v)
        if rel == "==":
            rows += [dense, -dense]
            rels += ["<=", "<="]
            rhs += [b, -b]
        else:
            rows.append(dense)
            rels.append(rel)
            rhs.append(b)
    cost = np.zeros(nv)
    for k, v in lp.objective.items():
        cost[k] = float(v)
    tableau = _phase1(rows, rels, rhs, nv)
    if tableau is None:
        return LpSolution("infeasible", float("nan"), {})
    status, x = tableau.optimize(cost, lp.sense == "max")
    if status != "optimal":
        return LpSolution(status, float("nan"), {})
    value = float(sum(float(v) * x[k] for k, v in lp.objective.items()))
    assignment = {name: float(x[k]) for k, name in enumerate(lp.variables)}
    return LpSolution("optimal", value, assignment)


class Polytope(NamedTuple):
    """A dense tableau after phase 1: its basis is feasible and the
    artificial columns are frozen at zero, so phase 2 may start from it
    under any cost vector.  ``prepare_polytope`` builds one for {x in
    [0,1]^n : pack @ x <= bounds, cover @ x >= bounds}; each ``maximize``
    runs phase 2 alone, on a copy of the same tableau."""

    A: np.ndarray
    b_vec: np.ndarray
    basis: np.ndarray
    nv: int                  # structural columns
    n_real: int              # structural plus slack columns

    def optimize(self, cost, maximize: bool):
        """Phase 2 for ``cost . x`` on a copy of the tableau.

        Returns (status, x) with x the structural values, None unless optimal.
        """
        A, b_vec, basis = self.A.copy(), self.b_vec.copy(), self.basis.copy()
        total = A.shape[1]
        obj = np.zeros(total)
        obj[:self.nv] = cost
        if maximize:
            obj = -obj
        status = _simplex_core(A, b_vec, basis, obj, forbidden_from=self.n_real)
        if status == "unbounded":
            return "unbounded", None
        return "optimal", _basic_values(A, b_vec, basis, total)[:self.nv]

    def maximize(self, weights: Sequence[float]):
        """argmax w.x over the polytope: (status, x), x None unless optimal."""
        if len(weights) != self.nv:
            raise ValueError("one weight per variable required")
        cost = np.array([_float_weight(w) for w in weights])
        status, x = self.optimize(cost, maximize=True)
        if status != "optimal":
            return status, None
        return "optimal", [min(1.0, max(0.0, float(v))) for v in x]


def _phase1(rows, rels, rhs, nv: int):
    """Phase 1 over dense rows: ``rows[i] . x  rels[i]  rhs[i]`` (each rel
    "<=" or ">="), x >= 0, with ``nv`` structural columns.

    Returns the feasible ``Polytope``, or None when the rows are infeasible.
    """
    norm = []
    for dense, rel, b in zip(rows, rels, rhs):
        # flip so that every row has non-negative rhs
        if b < 0:
            dense, b = -dense, -b
            rel = "<=" if rel == ">=" else ">="
        norm.append((dense, rel, b))

    m = len(norm)
    n_slack = m
    art_rows = [i for i, (_, rel, _) in enumerate(norm) if rel == ">="]
    n_art = len(art_rows)
    n_real = nv + n_slack
    total = n_real + n_art
    A = np.zeros((m, total))
    b_vec = np.zeros(m)
    basis = np.zeros(m, dtype=np.int64)
    art_pos = {}
    for j, i in enumerate(art_rows):
        art_pos[i] = n_real + j
    for i, (dense, rel, b) in enumerate(norm):
        A[i, :nv] = dense
        b_vec[i] = b
        A[i, nv + i] = 1.0 if rel == "<=" else -1.0
        if rel == ">=":
            A[i, art_pos[i]] = 1.0
            basis[i] = art_pos[i]
        else:
            basis[i] = nv + i

    if n_art:
        phase1 = np.zeros(total)
        phase1[n_real:] = 1.0
        status = _simplex_core(A, b_vec, basis, phase1)
        if status == "unbounded":          # phase-1 objective is bounded below by 0
            return None
        if float(phase1[n_real:] @ _basic_values(A, b_vec, basis, total)[n_real:]) > TOL_FEAS * max(1.0, abs(b_vec).max()):
            return None
        _evict_artificials(A, b_vec, basis, n_real)
        # freeze artificial columns out of phase 2
        A[:, n_real:] = 0.0
    return Polytope(A, b_vec, basis, nv, n_real)


def _basic_values(A, b_vec, basis, total):
    x = np.zeros(total)
    x[basis] = b_vec
    return x


def _evict_artificials(A, b_vec, basis, n_real):
    """Pivot zero-level artificials out of the basis where possible."""
    for i in range(len(basis)):
        if basis[i] >= n_real:
            row = A[i, :n_real]
            cand = np.flatnonzero(np.abs(row) > TOL_OPT)
            if cand.size:
                _pivot(A, b_vec, basis, i, int(cand[0]))
            # else: redundant row; harmless to leave the artificial at level 0


def _pivot(A, b_vec, basis, r, c):
    piv = A[r, c]
    A[r] /= piv
    b_vec[r] /= piv
    col = A[:, c].copy()
    col[r] = 0.0
    A -= np.outer(col, A[r])
    b_vec -= col * b_vec[r]
    basis[r] = c


def _simplex_core(A, b_vec, basis, obj, forbidden_from=None):
    """Minimize obj over the current tableau in place; Bland's rule."""
    m, total = A.shape
    limit = total if forbidden_from is None else forbidden_from
    max_iter = 50 * (m + total) + 10000
    for _ in range(max_iter):
        # reduced costs: c_j - c_B . B^{-1} A_j  (tableau form: y = obj - cb@A)
        cb = obj[basis]
        reduced = obj[:limit] - cb @ A[:, :limit]
        reduced[basis[basis < limit]] = 0.0
        entering = -1
        neg = np.flatnonzero(reduced < -TOL_OPT)
        if neg.size == 0:
            return "optimal"
        entering = int(neg[0])            # Bland: lowest index
        col = A[:, entering]
        pos = np.flatnonzero(col > TOL_OPT)
        if pos.size == 0:
            return "unbounded"
        ratios = b_vec[pos] / col[pos]
        best = ratios.min()
        ties = pos[np.flatnonzero(ratios <= best + 1e-15)]
        leaving = int(ties[np.argmin(basis[ties])])   # Bland: lowest basic index
        _pivot(A, b_vec, basis, leaving, entering)
    raise ArithmeticError("simplex failed to converge within iteration budget")


# ---------------------------------------------------------------------------
# factor-revealing program constructors


def _check_m(m: int):
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_PHASES:
        raise ValueError(f"m={m} exceeds supported phase count {MAX_PHASES}")


def build_lp(m: int) -> LinearProgram:
    """Multi-phase program: min a_m over the greedy-progress inequalities."""
    _check_m(m)
    bld = _Builder("min")
    for i in range(1, m + 1):
        bld.var(f"a{i}")
    for i in range(1, m + 1):
        bld.var(f"o{i}")
    bld.add({"a1": 1, "o1": -(1 - Fraction(1, m))}, ">=", 0)
    for i in range(2, m + 1):
        bld.add({f"a{i}": 1, f"a{i-1}": -1, f"o{i}": -(1 - Fraction(i, m))}, ">=", 0)
    for i in range(1, m + 1):
        coeffs = {f"a{i}": 1}
        for j in range(1, i + 1):
            coeffs[f"o{j}"] = Fraction(i, m)
        bld.add(coeffs, ">=", Fraction(i, m))
    bld.set_objective({f"a{m}": 1})
    return bld.build()


def build_dual(m: int) -> LinearProgram:
    """Dual of build_lp(m): max sum (i/m) y_i."""
    _check_m(m)
    bld = _Builder("max")
    for i in range(1, m + 1):
        bld.var(f"x{i}")
    for i in range(1, m + 1):
        bld.var(f"y{i}")
    for i in range(1, m):
        bld.add({f"x{i}": 1, f"y{i}": 1, f"x{i+1}": -1}, "<=", 0)
    bld.add({f"x{m}": 1, f"y{m}": 1}, "<=", 1)
    for i in range(1, m + 1):
        coeffs = {f"x{i}": -(1 - Fraction(i, m))}
        for j in range(i, m + 1):
            coeffs[f"y{j}"] = Fraction(j, m)
        bld.add(coeffs, "<=", 0)
    bld.set_objective({f"y{i}": Fraction(i, m) for i in range(1, m + 1)})
    return bld.build()


def build_lp_f(m: int) -> LinearProgram:
    """Forbidden-set variant: min c subject to the ten constraint families."""
    _check_m(m)
    bld = _Builder("min")
    bld.var("c")
    for grp in ("a", "b", "o", "f", "g"):
        for i in range(m + 1):
            bld.var(f"{grp}{i}")
    bld.add({"a0": 1, "o0": -1}, "==", 0)
    for i in range(1, m + 1):
        bld.add({f"a{i}": 1, f"a{i-1}": -1, f"o{i}": -(1 - Fraction(i, m))}, ">=", 0)
    for i in range(m + 1):
        bld.add({f"b{i}": 1, f"a{i}": -1, f"g{i}": -1}, ">=", 0)
    for i in range(m + 1):
        coeffs = {f"a{i}": 1, f"f{i}": Fraction(i, m) - 1, f"g{i}": 1}
        for j in range(i + 1):
            coeffs[f"o{j}"] = coeffs.get(f"o{j}", 0) + Fraction(i, m)
        bld.add(coeffs, ">=", Fraction(i, m))
    for i in range(m + 1):
        bld.add({f"b{i}": 1, f"f{i}": -1}, ">=", 0)
    for i in range(1, m + 1):
        bld.add({f"f{i}": 1, f"f{i-1}": -1}, "<=", 0)
    for i in range(m + 1):
        bld.add({f"g{i}": 1, f"f{i}": -1}, "<=", 0)
    for j in range(m + 1):
        coeffs = {f"f{j}": 1}
        for i in range(j + 1):
            coeffs[f"o{i}"] = coeffs.get(f"o{i}", 0) + 1
        bld.add(coeffs, "<=", 1)
    for i in range(m + 1):
        bld.add({"c": 1, f"b{i}": -1}, ">=", 0)
    bld.set_objective({"c": 1})
    return bld.build()


# ---------------------------------------------------------------------------
# exact rational rechecking and analytic witnesses


@dataclass(frozen=True)
class ExactCheck:
    feasible: bool
    objective: Fraction
    max_violation: Fraction
    violated: tuple          # indices of violated constraints


def check_exact(lp: LinearProgram, assignment: Mapping[str, Rational]) -> ExactCheck:
    """Recheck every constraint with Fraction arithmetic (no float doubt)."""
    x = [Fraction(0)] * len(lp.variables)
    for name, v in assignment.items():
        x[lp.index(name)] = Fraction(v)
    if any(v < 0 for v in x):
        raise ValueError("assignment violates a variable lower bound")
    worst = Fraction(0)
    bad = []
    for idx, (coeffs, rel, rhs) in enumerate(lp.constraints):
        lhs = sum(Fraction(v) * x[k] for k, v in coeffs.items())
        rhs = Fraction(rhs)
        if rel == "<=":
            viol = lhs - rhs
        elif rel == ">=":
            viol = rhs - lhs
        else:
            viol = abs(lhs - rhs)
        if viol > 0:
            bad.append(idx)
            worst = max(worst, viol)
    value = sum(Fraction(v) * x[k] for k, v in lp.objective.items())
    return ExactCheck(feasible=not bad, objective=value,
                      max_violation=worst, violated=tuple(bad))


def closed_form_optimum(m: int) -> Fraction:
    """(1 - 1/m)^m, the proven optimum of build_lp(m)."""
    return (1 - Fraction(1, m)) ** m


def analytic_primal_witness(m: int) -> dict:
    """Feasible point of build_lp(m) with value (1 - 1/m)^m."""
    base = 1 - Fraction(1, m)
    point = {}
    for i in range(1, m + 1):
        point[f"a{i}"] = Fraction(i, m) * base ** i
    for i in range(1, m):
        point[f"o{i}"] = Fraction(1, m) * base ** (i - 1)
    point[f"o{m}"] = 1 - sum(point[f"o{i}"] for i in range(1, m))
    return point


def analytic_dual_witness(m: int) -> dict:
    """Feasible point of build_dual(m) with value (1 - 1/m)^m."""
    base = 1 - Fraction(1, m)
    point = {}
    for i in range(1, m + 1):
        point[f"x{i}"] = base ** (m - i)
    for i in range(1, m):
        point[f"y{i}"] = Fraction(1, m) * base ** (m - i - 1)
    point[f"y{m}"] = Fraction(0)
    return point


UB_ALPHA = Fraction(5, 8)
UB_BETA = Fraction(517, 10000)
UB_GAMMA = Fraction(647, 10000)


def upper_bound_point(m: int) -> dict:
    """The perturbed feasible point showing the forbidden-set program stays
    strictly below the plain program's limit.

    The last mass coordinate o_m is the remainder 1 - sum of the others,
    matching the convention of the unperturbed point it is derived from;
    keeping the unperturbed o_m would push the total mass above 1.
    """
    if m <= 2 or m % 2:
        raise ValueError("construction requires even m > 2")
    base = 1 - Fraction(1, m)
    o = {i: Fraction(1, m) * base ** (i - 1) for i in range(1, m)}
    o[m] = 1 - sum(o.values())
    a = {i: Fraction(i, m) * base ** i for i in range(1, m + 1)}
    half = m // 2
    shift = UB_BETA * (UB_ALPHA - Fraction(1, 2)) / 2 - 3 * UB_BETA / (4 * m)

    point = {"a0": Fraction(0), "o0": Fraction(0),
             "f0": UB_GAMMA, "g0": UB_GAMMA, "b0": UB_GAMMA}
    for i in range(1, half):
        point[f"o{i}"] = o[i] - UB_BETA / m
        point[f"f{i}"] = point[f"g{i}"] = UB_GAMMA
        point[f"a{i}"] = a[i] - (UB_BETA / m) * sum(1 - Fraction(j, m)
                                                    for j in range(1, i + 1))
        point[f"b{i}"] = point[f"a{i}"] + UB_GAMMA
    point[f"o{half}"] = o[half] + UB_ALPHA * UB_BETA
    point[f"f{half}"] = point[f"g{half}"] = Fraction(0)
    point[f"a{half}"] = a[half] - shift
    point[f"b{half}"] = point[f"a{half}"]
    for i in range(half + 1, m + 1):
        point[f"o{i}"] = o[i]
        point[f"f{i}"] = point[f"g{i}"] = Fraction(0)
        point[f"a{i}"] = a[i] - shift
        point[f"b{i}"] = point[f"a{i}"]
    point[f"o{m}"] = 1 - sum(point[f"o{i}"] for i in range(m))
    point["c"] = max(point[f"b{i}"] for i in range(m + 1))
    return point


def verify_upper_bound_construction(m: int) -> ExactCheck:
    """Build the perturbed point and recheck it against build_lp_f(m) exactly."""
    return check_exact(build_lp_f(m), upper_bound_point(m))


# ---------------------------------------------------------------------------
# linear maximization over a packing/covering polytope


def prepare_polytope(n: int,
                     pack_rows: Sequence[Sequence[Rational]],
                     pack_bounds: Sequence[Rational],
                     cover_rows: Sequence[Sequence[Rational]],
                     cover_bounds: Sequence[Rational]) -> Optional[Polytope]:
    """Phase 1 over {x in [0,1]^n : pack @ x <= bounds, cover @ x >= bounds}:
    the ``Polytope`` to maximize over, or None when it is empty.

    The rows go straight into the dense simplex in the order a named
    program would list them (x_i <= 1, then packing, then covering), with
    the same float coefficients, so the pivots are those simplex_solve
    takes on that program.
    """
    rows = np.zeros((n + len(pack_rows) + len(cover_rows), n))
    rows[:n, :n] = np.eye(n)
    for k, row in enumerate(list(pack_rows) + list(cover_rows)):
        rows[n + k] = [float(_rat(v)) for v in row]
    rels = ["<="] * (n + len(pack_rows)) + [">="] * len(cover_rows)
    rhs = [1.0] * n + [float(b) for b in pack_bounds] + [float(b) for b in cover_bounds]
    return _phase1(rows, rels, rhs, n)


def linear_max_over_polytope(weights: Sequence[float],
                             pack_rows: Sequence[Sequence[Rational]],
                             pack_bounds: Sequence[Rational],
                             cover_rows: Sequence[Sequence[Rational]],
                             cover_bounds: Sequence[Rational]):
    """argmax w.x over {x in [0,1]^n : pack @ x <= bounds, cover @ x >= bounds}.

    Returns (status, x) where x is None unless status == "optimal".  An
    infeasible polytope is a normal outcome (the caller treats the guess
    as inconsistent).  To maximize several weight vectors over one
    polytope, call ``prepare_polytope`` once and ``maximize`` for each.
    """
    polytope = prepare_polytope(len(weights), pack_rows, pack_bounds,
                                cover_rows, cover_bounds)
    if polytope is None:
        return "infeasible", None
    return polytope.maximize(weights)


def _float_rat(v):
    if isinstance(v, (int, Fraction)):
        return v
    return Fraction(v).limit_denominator(10 ** 12)


def _float_weight(w) -> float:
    """``float(_float_rat(w))`` without the Fraction when ``w`` is a float
    whose exact value has a denominator of at most 10**12: such a float is
    its own nearest fraction, so it comes back unchanged, except -0.0,
    which becomes 0.0 as it does through a Fraction.  ``as_integer_ratio``
    raises for inf and nan just as ``Fraction`` does."""
    if isinstance(w, float) and w.as_integer_ratio()[1] <= 10 ** 12:
        return w + 0.0
    return float(_float_rat(w))
