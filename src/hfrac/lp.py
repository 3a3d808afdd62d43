"""Exact rational linear programming on one integer simplex engine.

Everything is exact; a returned optimum comes with a dual vector that
certifies optimality exactly.  A constraint row is a dict of its nonzero
coefficients by column, and nothing builds a dense row: ``check_solution``,
the exact gate, reads the rows as they are, and ``simplex_solve`` raises
``VerificationError`` (also under ``python -O``) if its optimum fails it.
Bland's rule is used throughout, so every solve terminates on every input.

``IntegerSimplex`` is the engine: a revised simplex over integer data that
keeps the basis inverse fraction-free as an integer adjugate over det(B)
with Bareiss-style exact-division updates.  The duals are kept the same
way, as integers over det(B), and each pivot updates them in O(m) from its
pivot row instead of summing them afresh.  Most pivots of a covering master
are unimodular: the pivot entry equals det, so det is kept and the
fraction-free update is a rank-one change that touches only the rows with
a nonzero entry in the entering column, and in them only the pivot row's
nonzeros.  Those pivots update in place; the others rewrite every row.

``simplex_solve`` is the general solver on it, cold for one LP.  Variable
bounds are folded away first: a finite lower bound shifts the variable, an
upper bound becomes a one-entry row, and a fully free variable is split
into a difference of two nonnegative ones.  Each row is shifted, flipped
so that its right-hand side is >= 0 and scaled to integers over its
nonzeros alone, which go straight into the engine's column supports.
Phase 1 minimizes the artificials (weighted so that each counts as one
unit of its unscaled row), drives the ones left at zero out of the basis
where a row allows it, and phase 2 optimizes the objective from there;
the duals are read off the dual numerators and unscaled.

``CoveringMaster`` is the primal master of a column-generation loop for
unit-cost covering LPs (min sum x_j with every row covered at least once).
It starts from the unit columns, whose basis is the identity, so no
phase 1 is needed, and prices its 0/1 columns as bare sums of dual
numerators.  A new column enters with one ratio test and one pivot; the
master is then re-optimized over the columns it already has before the
caller prices again, on the integer numerators.  The caller still owes a
final exact gate, on the same integers: the dual numerators must be >= 0,
sum to at most det on every held column and sum to det times the primal
value, and the column values must cover every row (``fraccover`` does
both).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import lcm
from operator import mul

from .budget import Budget
from .errors import DimensionMismatch, PreconditionError, VerificationError

REL_LE = "<="
REL_GE = ">="
REL_EQ = "="
_RELS = (REL_LE, REL_GE, REL_EQ)
_FLIPPED = {REL_LE: REL_GE, REL_GE: REL_LE, REL_EQ: REL_EQ}

F0 = Fraction(0)
F1 = Fraction(1)

Constraint = tuple[dict[int, Fraction], str, Fraction]
Bound = tuple[Fraction | None, Fraction | None]


_EXACT_TYPES = frozenset((int, Fraction))
_BOUND_TYPES = _EXACT_TYPES | {type(None)}


def _require_exact(values, field: str, keys=None, bound: bool = False) -> None:
    """LP data is exact: a float (or a bool) would turn the Fraction
    arithmetic of the solver and its certificate check inexact, and only a
    ``bound`` may be None (no bound).  ``field`` names the j-th value, or
    the one at the j-th of ``keys``, with ``field.format``.  The common
    case, only ints and Fractions (and None in a bound), is one pass over
    the types at C speed."""
    if (_BOUND_TYPES if bound else _EXACT_TYPES).issuperset(map(type, values)):
        return
    for j, value in zip(count() if keys is None else keys, values):
        if isinstance(value, (float, bool)) or (value is None and not bound):
            raise PreconditionError(f"LP {field.format(j)} must be an int or a Fraction, got {value!r}")


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . x + constant`` subject to constraints and bounds.

    Constraints are (coefficients, relation, rhs) triples with relation in
    {"<=", ">=", "="}; the coefficients are a dict from column to value that
    lists the row's nonzeros (a zero listed is ignored).  A column outside
    the variables raises ``DimensionMismatch``.  ``bounds`` gives
    per-variable (lower, upper) with ``None`` for unbounded; omitted bounds
    mean every variable is free.  Every number is an int or a ``Fraction``;
    a float, a bool or a ``None`` outside the bounds raises
    ``PreconditionError`` naming its field.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    constant: Fraction = F0
    bounds: tuple[Bound, ...] | None = None

    def __post_init__(self):
        nv = len(self.objective)
        _require_exact(self.objective, "objective[{}]")
        for i, (coeffs, rel, rhs) in enumerate(self.constraints):
            for j in coeffs:
                if type(j) is not int or not 0 <= j < nv:
                    raise DimensionMismatch(f"constraints[{i}] has column {j!r}, outside the {nv} variables")
            if rel not in _RELS:
                raise ValueError(f"relation must be one of {_RELS}, got {rel!r}")
            _require_exact(coeffs.values(), f"constraints[{i}] coefficient {{}}", coeffs)
            _require_exact((rhs,), f"constraints[{i}] rhs")
        _require_exact((self.constant,), "constant")
        if self.bounds is not None:
            if len(self.bounds) != nv:
                raise DimensionMismatch("bounds length must equal variable count")
            _require_exact([lo for lo, _ in self.bounds], "bounds[{}] lower", bound=True)
            _require_exact([up for _, up in self.bounds], "bounds[{}] upper", bound=True)

    def bound(self, j: int) -> Bound:
        return self.bounds[j] if self.bounds is not None else (None, None)


@dataclass(frozen=True)
class LpSolution:
    """status in {"optimal", "unbounded", "infeasible"}; on "optimal" the
    assignment is exactly feasible and the dual vector certifies optimality."""

    status: str
    value: Fraction | None = None
    assignment: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None


class IntegerSimplex:
    """Exact revised simplex for ``min cost . v  s.t.  A v = rhs, v >= 0``
    over integers, started from the basis ``basis``, whose i-th variable
    must have the column e_i, so that B = I.

    Structural variable j is the column with support ``columns[j]`` and the
    entries ``coeffs[j]`` on it, or 1 on every row of the support when that
    is None: such a 0/1 column is priced and imaged as a bare sum.
    Auxiliary variable ``~k`` is the column ``sign * e_row`` of
    ``aux[k] = (row, sign)``; the auxiliaries in ``fixed`` never enter.
    Variables are ordered for Bland's rule as the structural columns 0, 1,
    ... first and then the auxiliaries.

    The basis inverse is kept as the integer matrix ``det * B^-1`` with
    ``det = |det(B)| > 0``, and the basic values and the duals as integers
    over ``det``: a pivot divides exactly (Bareiss), so no ``Fraction`` is
    built until a caller asks for the ``values``.  When the pivot entry
    equals det (a unimodular step), row i becomes row_i - u_i * prow / det,
    exact entry by entry, so det, every row with u_i = 0 and every entry
    where the pivot row is zero stay as they are: only the pivot row's
    nonzeros are updated, in place, in the rows with u_i != 0 and in the
    dual numerators.  Any other pivot rewrites every row.  A negative
    pivot entry (only a pivot on a chosen row can have one) negates the
    pivot row of det * B^-1 and its basic value first, so det stays
    positive.  The dual numerators ``y * det`` = c_B (det B^-1) are the
    cost-weighted sum of the rows of ``det * B^-1``; a pivot updates that
    sum from its pivot row alone.  Every pivot spends one budget node.
    """

    def __init__(self, rhs: list[int], basis, columns: list, coeffs: list[list[int] | None],
                 costs: list[int], aux: list[tuple[int, int]], aux_costs: list[int],
                 fixed=frozenset(), budget: Budget | None = None):
        m = len(rhs)
        self.m = m
        self.columns, self._coeffs, self._costs = columns, coeffs, costs
        self._aux, self._aux_costs, self._fixed = aux, aux_costs, fixed
        self._budget = budget or Budget()
        self._det = 1
        self._inv = [[0] * m for _ in range(m)]
        for i, row in enumerate(self._inv):
            row[i] = 1
        self._x = list(rhs)  # basic values times det
        self._basis = list(basis)  # variable in each basis row
        self._cb = [self._cost(var) for var in self._basis]
        self._yn = list(self._cb)  # c_B (det B^-1) at det B^-1 = I

    def _reprice(self, costs: list[int], aux_costs: list[int]) -> None:
        """A new objective; its dual numerators are summed afresh over the
        rows whose basic variable has a cost."""
        self._costs, self._aux_costs = costs, aux_costs
        self._cb = [self._cost(var) for var in self._basis]
        yn = [0] * self.m
        for c, row in zip(self._cb, self._inv):
            if c:
                yn = [a + c * b for a, b in zip(yn, row)]
        self._yn = yn

    def _cost(self, var: int) -> int:
        return self._costs[var] if var >= 0 else self._aux_costs[~var]

    def _order(self, var: int) -> int:
        return var if var >= 0 else len(self.columns) + ~var

    @property
    def det(self) -> int:
        """The common denominator |det(B)| of the duals and the values."""
        return self._det

    def dual_numerators(self) -> list[int]:
        """y * det with y = c_B B^-1."""
        return list(self._yn)

    def _image(self, var: int) -> list[int]:
        """det * B^-1 a for the constraint column a of ``var``."""
        if var < 0:
            i, sign = self._aux[~var]
            return [sign * row[i] for row in self._inv]
        support, coeffs = self.columns[var], self._coeffs[var]
        if coeffs is None:
            return [sum(map(row.__getitem__, support)) for row in self._inv]
        return [sum(map(mul, map(row.__getitem__, support), coeffs)) for row in self._inv]

    def _pivot(self, var: int, r: int | None = None) -> bool:
        """Bring ``var`` into the basis at row ``r``, or at the row the
        ratio test picks; False if there is none (an unbounded ray)."""
        u = self._image(var)
        x, basis, inv = self._x, self._basis, self._inv
        if r is None:
            r = -1
            for i, ui in enumerate(u):
                if ui > 0:
                    if r < 0:
                        r = i
                        continue
                    lhs, rhs = x[i] * u[r], x[r] * ui  # x_i/u_i against x_r/u_r
                    if lhs < rhs or (lhs == rhs and self._order(basis[i]) < self._order(basis[r])):
                        r = i
            if r < 0:
                return False
        self._budget.spend()
        det, ur, cr, ce = self._det, u[r], self._cb[r], self._cost(var)
        cu = sum(map(mul, self._cb, u)) - cr * ur
        if ur < 0:
            ur, cr, inv[r], x[r] = -ur, -cr, [-a for a in inv[r]], -x[r]
        prow, px = inv[r], x[r]
        # y * det is the c_B-weighted sum of the rows of inv.  Each row
        # other than r becomes (ur * row - u_i * prow) / det, and row r,
        # weighted cr before and ce after, stays prow, so the new sum is
        # (ur * yn - k * prow) / det + ce * prow.
        k = ur * cr + cu
        if ur == det:
            # A unimodular step: det is kept, a row with u_i = 0 is kept,
            # and every other entry changes by an exact multiple of its
            # pivot-row entry, so only the pivot row's nonzeros move.
            nz = [(j, b) for j, b in enumerate(prow) if b]
            yn = self._yn
            for j, b in nz:
                yn[j] += ce * b - k * b // det
            for i, ui in enumerate(u):
                if ui and i != r:
                    row = inv[i]
                    for j, b in nz:
                        row[j] -= ui * b // det
                    x[i] -= ui * px // det
        else:
            self._yn = [(ur * a - k * b) // det + ce * b for a, b in zip(self._yn, prow)]
            for i, ui in enumerate(u):
                if i == r:
                    continue
                if ui:
                    inv[i] = [(ur * a - ui * b) // det for a, b in zip(inv[i], prow)]
                    x[i] = (ur * x[i] - ui * px) // det
                else:
                    inv[i] = [ur * a // det for a in inv[i]]
                    x[i] = ur * x[i] // det
            self._det = ur
        basis[r], self._cb[r] = var, ce
        return True

    def _entering(self) -> int | None:
        """The first variable in Bland's order with negative reduced cost."""
        yn, det = self._yn, self._det
        price = yn.__getitem__
        for j, (support, coeffs, c) in enumerate(zip(self.columns, self._coeffs, self._costs)):
            if (sum(map(price, support)) if coeffs is None
                    else sum(map(mul, map(price, support), coeffs))) > c * det:
                return j
        return next((~k for k, ((i, sign), c) in enumerate(zip(self._aux, self._aux_costs))
                     if sign * yn[i] > c * det and k not in self._fixed), None)

    def _optimize(self) -> bool:
        """Bland's rule to an optimal basis (True) or an unbounded ray."""
        while (var := self._entering()) is not None:
            if not self._pivot(var):
                return False
        return True

    def values(self) -> tuple[Fraction, ...]:
        """Value of every structural column (zero when nonbasic)."""
        out = [F0] * len(self.columns)
        for var, xv in zip(self._basis, self._x):
            if var >= 0:
                out[var] = Fraction(xv, self._det)
        return tuple(out)


def simplex_solve(lp: LinearProgram) -> LpSolution:
    """Exact optimum with primal assignment and certifying dual vector; each
    row is read over the coefficients it lists and nothing builds it dense."""
    nv = len(lp.objective)

    # Map each variable onto nonnegative columns.
    var_terms: list[list[tuple[int, int]]] = []  # var -> [(column, sign)]
    var_offset: list[Fraction] = []
    rows = list(lp.constraints)  # then the upper bounds, as one-entry rows
    ncol = 0
    for j in range(nv):
        lo, up = lp.bound(j)
        if lo is None and up is None:
            var_terms.append([(ncol, 1), (ncol + 1, -1)])
            var_offset.append(F0)
            ncol += 2
        elif lo is not None:
            var_terms.append([(ncol, 1)])
            var_offset.append(Fraction(lo))
            if up is not None:
                if up < lo:
                    return LpSolution("infeasible")
                rows.append(({j: 1}, REL_LE, up))
            ncol += 1
        else:
            var_terms.append([(ncol, -1)])
            var_offset.append(Fraction(up))
            ncol += 1

    # Each row is shifted by the offsets, flipped so that its rhs is >= 0,
    # scaled to integers and written into the column supports, nonzero by
    # nonzero.  A <= row then gets a slack, a >= row a surplus and an
    # artificial, an = row an artificial; the slacks and the artificials
    # are the starting basis.
    supports: list[list[int]] = [[] for _ in range(ncol)]
    entries: list[list[int]] = [[] for _ in range(ncol)]
    scales, rhs = [], []
    aux: list[tuple[int, int]] = []
    basis, artificial = [], set()
    for i, (coeffs, rel, b) in enumerate(rows):
        nonzeros = [(j, c) for j, c in coeffs.items() if c]
        b = Fraction(b) - sum(c * var_offset[j] for j, c in nonzeros)
        scale = lcm(*(c.denominator for _, c in nonzeros), b.denominator)
        if b < 0:
            scale, rel = -scale, _FLIPPED[rel]
        scales.append(scale)
        for j, c in nonzeros:
            c = int(c * scale)
            for col, sign in var_terms[j]:
                supports[col].append(i)
                entries[col].append(sign * c)
        rhs.append(int(b * scale))
        if rel == REL_GE:
            aux.append((i, -1))
        if rel != REL_LE:
            artificial.add(len(aux))
        basis.append(~len(aux))
        aux.append((i, 1))
    # phase 1 minimizes the sum of the artificials of the unscaled rows
    weight = lcm(*(scales[aux[k][0]] for k in artificial))
    engine = IntegerSimplex(rhs, basis, supports, entries, [0] * ncol, aux,
                            [weight // abs(scales[i]) if k in artificial else 0 for k, (i, _) in enumerate(aux)],
                            frozenset(artificial))

    if artificial:
        if not engine._optimize():  # phase 1 is always bounded
            raise VerificationError("internal error: phase 1 did not reach an optimum")
        if any(xv for xv, var in zip(engine._x, engine._basis) if var < 0 and ~var in artificial):
            return LpSolution("infeasible")
        # Drive artificials out of the basis; rows that resist are redundant
        # and stay pinned at zero for the rest of the run.
        free = [*range(ncol), *(~k for k in range(len(aux)) if k not in artificial)]
        for i in range(len(rows)):
            if ~engine._basis[i] in artificial:
                var = next((var for var in free if engine._image(var)[i]), None)
                if var is not None:
                    engine._pivot(var, i)

    cost = [F0] * ncol
    for j in range(nv):
        oj = Fraction(lp.objective[j])
        if oj:
            for col, sign in var_terms[j]:
                cost[col] += oj * sign
    cost_scale = lcm(*(c.denominator for c in cost))
    engine._reprice([int(-c * cost_scale) for c in cost], [0] * len(aux))
    if not engine._optimize():
        return LpSolution("unbounded")

    col_val = engine.values()
    assignment = []
    for j in range(nv):
        x = var_offset[j]
        for col, sign in var_terms[j]:
            x += sign * col_val[col]
        assignment.append(x)
    value = sum(Fraction(lp.objective[j]) * assignment[j] for j in range(nv)) + Fraction(lp.constant)

    # the engine minimized -cost_scale * cost over rows scaled by their scales
    dual = tuple(Fraction(-yn * scale, engine.det * cost_scale)
                 for scale, yn in zip(scales[:len(lp.constraints)], engine.dual_numerators()))

    sol = LpSolution("optimal", value, tuple(assignment), dual)
    if not check_solution(lp, sol):
        raise VerificationError("internal error: optimum failed its own certificate")
    return sol


class CoveringMaster(IntegerSimplex):
    """Warm-started exact primal master of a unit-cost covering LP::

        min sum_j x_j  s.t.  sum_{j : i in S_j} x_j - s_i = 1 for every row i,
                             x, s >= 0,

    where column j is the row set ``columns[j]``, a 0/1 column of cost 1.
    The first m columns are the unit columns (i,), and they form the
    starting basis; surplus s_i is the auxiliary ``~i``.  After
    construction and after every ``add_column`` the basis is optimal over
    the columns held so far, so a caller can price on ``dual_numerators()``
    (all >= 0) against ``det`` at no extra cost.
    """

    def __init__(self, m: int, budget: Budget | None = None):
        super().__init__([1] * m, range(m), [(i,) for i in range(m)], [None] * m, [1] * m,
                         [(i, -1) for i in range(m)], [0] * m, budget=budget)

    def _pivot(self, var: int, r: int | None = None) -> bool:
        if not super()._pivot(var, r):
            raise VerificationError("internal error: covering master is bounded below by 0")
        return True

    def add_column(self, support: tuple[int, ...]) -> None:
        """Price ``support`` in with one pivot, then re-optimize.  The
        column must have negative reduced cost at the current duals."""
        support = tuple(support)
        if sum(map(self._yn.__getitem__, support)) <= self._det:
            raise ValueError(f"column {support} does not improve the master")
        self.columns.append(support)
        self._coeffs.append(None)
        self._costs.append(1)
        self._pivot(len(self.columns) - 1)
        self._optimize()

    def value_numerator(self) -> int:
        """The objective value times det: every column costs 1, so it is
        the sum of the basic structural values' numerators."""
        return sum(xv for var, xv in zip(self._basis, self._x) if var >= 0)


def check_solution(lp: LinearProgram, sol: LpSolution) -> bool:
    """Exact feasibility of the assignment, and, when a dual is present,
    exact optimality certification (signs, reduced costs, value equality).

    Only the coefficients a row lists are visited: each row's activity is
    summed over them, and the reduced costs c - A^T y are built by
    scattering every nonzero y_i over row i.  The LP's own numbers are used
    as they are (``LinearProgram`` holds only ints and ``Fraction``s); the
    assignment and the dual, which nothing has checked, are read through
    ``Fraction``.
    """
    if sol.assignment is None:
        return False
    if len(sol.assignment) != len(lp.objective):
        raise DimensionMismatch("assignment length does not match variable count")
    x = [Fraction(v) for v in sol.assignment]
    nv = len(x)
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum((x[j] * c for j, c in coeffs.items()), F0)
        if rel == REL_LE and not lhs <= rhs:
            return False
        if rel == REL_GE and not lhs >= rhs:
            return False
        if rel == REL_EQ and lhs != rhs:
            return False
    for j in range(nv):
        lo, up = lp.bound(j)
        if lo is not None and x[j] < lo:
            return False
        if up is not None and x[j] > up:
            return False
    reduced = list(lp.objective)
    primal = sum((xj * c for c, xj in zip(reduced, x) if c), F0) + lp.constant
    if sol.value is not None and sol.value != primal:
        return False
    if sol.dual is None:
        return True
    if len(sol.dual) != len(lp.constraints):
        raise DimensionMismatch("dual length does not match constraint count")
    y = [Fraction(v) for v in sol.dual]
    for (_, rel, _), yi in zip(lp.constraints, y):
        if rel == REL_LE and yi < 0:
            return False
        if rel == REL_GE and yi > 0:
            return False
    dual_value = sum((yi * rhs for yi, (_, _, rhs) in zip(y, lp.constraints)), F0) + lp.constant
    for yi, (coeffs, _, _) in zip(y, lp.constraints):
        if yi:
            for j, c in coeffs.items():
                reduced[j] -= yi * c
    for j, r in enumerate(reduced):
        if r == 0:
            continue
        lo, up = lp.bound(j)
        if r > 0:
            if up is None:
                return False
            dual_value += r * up
        else:
            if lo is None:
                return False
            dual_value += r * lo
    return dual_value == primal

