"""Exact rational linear programming: a cold two-phase simplex and a
warm-started covering master.

Everything is exact; a returned optimum comes with a dual vector that
certifies optimality exactly.  ``check_solution`` is that exact gate: it
visits only the nonzero coefficients of the constraint matrix, and
``simplex_solve`` raises ``VerificationError`` (also under ``python -O``)
if its optimum fails it.  Bland's rule is used throughout, so both
solvers terminate on every input.

``simplex_solve`` is the general solver: a dense ``Fraction`` tableau
built from scratch for one LP.  Variable bounds are folded away before the
tableau is built: a finite lower bound shifts the variable, an upper bound
becomes an extra row, and a fully free variable is split into a
difference of two nonnegative ones.

``CoveringMaster`` is the primal master of a column-generation loop for
unit-cost covering LPs (min sum x_j with every row covered at least once).
It starts from the unit columns, whose basis is the identity, so no
phase 1 is needed, and keeps the basis inverse fraction-free as an
integer adjugate over det(B) with Bareiss-style exact-division updates.
The duals are kept the same way, as integers over det(B), and each pivot
updates them in O(m) from its pivot row instead of summing them afresh.
A new column enters with one ratio test and one pivot; the master is then
re-optimized over the columns it already has before the caller prices
again, on the integer numerators.  The caller still owes a final exact
gate, on the same integers: the dual numerators must be >= 0, sum to at
most det on every held column and sum to det times the primal value, and
the column values must cover every row (``fraccover`` does both).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .budget import Budget
from .errors import DimensionMismatch, PreconditionError, VerificationError

REL_LE = "<="
REL_GE = ">="
REL_EQ = "="
_RELS = (REL_LE, REL_GE, REL_EQ)

F0 = Fraction(0)
F1 = Fraction(1)

Constraint = tuple[tuple[Fraction, ...], str, Fraction]
Bound = tuple[Fraction | None, Fraction | None]


_EXACT_TYPES = frozenset((int, Fraction, type(None)))


def _require_exact(values, field: str) -> None:
    """LP data is exact: a float (or a bool) would turn the Fraction
    arithmetic of the solver and its certificate check inexact.  ``field``
    names the j-th value with ``field.format(j)``.  The common case, only
    ints, Fractions and None, is one pass over the types at C speed."""
    if _EXACT_TYPES.issuperset(map(type, values)):
        return
    for j, value in enumerate(values):
        if isinstance(value, (float, bool)):
            raise PreconditionError(f"LP {field.format(j)} must be an int or a Fraction, got {value!r}")


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . x + constant`` subject to constraints and bounds.

    Constraints are (coefficients, relation, rhs) triples with relation in
    {"<=", ">=", "="}.  ``bounds`` gives per-variable (lower, upper) with
    ``None`` for unbounded; omitted bounds mean every variable is free.
    Every number is an int or a ``Fraction``; a float or a bool raises
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
            if len(coeffs) != nv:
                raise DimensionMismatch(f"constraint width {len(coeffs)} != {nv} variables")
            if rel not in _RELS:
                raise ValueError(f"relation must be one of {_RELS}, got {rel!r}")
            _require_exact(coeffs, f"constraints[{i}] coefficient {{}}")
            _require_exact((rhs,), f"constraints[{i}] rhs")
        _require_exact((self.constant,), "constant")
        if self.bounds is not None:
            if len(self.bounds) != nv:
                raise DimensionMismatch("bounds length must equal variable count")
            _require_exact([lo for lo, _ in self.bounds], "bounds[{}] lower")
            _require_exact([up for _, up in self.bounds], "bounds[{}] upper")

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


def _pivot(tab: list[list[Fraction]], basis: list[int], r: int, c: int) -> None:
    prow = tab[r]
    piv = prow[c]
    if piv != 1:
        inv = F1 / piv
        for j, x in enumerate(prow):
            if x:
                prow[j] = x * inv
    nz = [j for j, x in enumerate(prow) if x]
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[c]
        if f:
            for j in nz:
                row[j] -= f * prow[j]
    basis[r] = c


def _optimize(tab: list[list[Fraction]], basis: list[int], cost: list[Fraction],
              enterable: list[bool]) -> str:
    m = len(tab)
    ncols = len(cost)
    while True:
        rows_y = [(i, cost[b]) for i, b in enumerate(basis) if cost[b]]
        entering = -1
        for j in range(ncols):
            if not enterable[j]:
                continue
            red = cost[j] - sum(yi * tab[i][j] for i, yi in rows_y if tab[i][j])
            if red > 0:
                entering = j  # Bland: lowest eligible index
                break
        if entering == -1:
            return "optimal"
        leaving = -1
        best: Fraction | None = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving == -1:
            return "unbounded"
        _pivot(tab, basis, leaving, entering)


def simplex_solve(lp: LinearProgram) -> LpSolution:
    """Exact optimum with primal assignment and certifying dual vector."""
    nv = len(lp.objective)

    # Map each variable onto nonnegative tableau columns.
    var_terms: list[list[tuple[int, int]]] = []  # var -> [(column, sign)]
    var_offset: list[Fraction] = []
    upper_rows: list[tuple[int, Fraction]] = []  # (column, bound on the shifted var)
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
                upper_rows.append((ncol, Fraction(up) - Fraction(lo)))
            ncol += 1
        else:
            var_terms.append([(ncol, -1)])
            var_offset.append(Fraction(up))
            ncol += 1

    # Internal rows: (structural coefficients, relation, rhs, original index, flipped)
    rows: list[tuple[list[Fraction], str, Fraction, int | None, bool]] = []
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        row = [F0] * ncol
        shift = Fraction(rhs) - sum(Fraction(coeffs[j]) * var_offset[j] for j in range(nv))
        for j in range(nv):
            cj = Fraction(coeffs[j])
            if cj:
                for col, sign in var_terms[j]:
                    row[col] += cj * sign
        rows.append((row, rel, shift, i, False))
    for col, ub in upper_rows:
        row = [F0] * ncol
        row[col] = F1
        rows.append((row, REL_LE, ub, None, False))

    norm_rows = []
    for row, rel, rhs, oi, _ in rows:
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
            rel = {REL_LE: REL_GE, REL_GE: REL_LE, REL_EQ: REL_EQ}[rel]
            norm_rows.append((row, rel, rhs, oi, True))
        else:
            norm_rows.append((row, rel, rhs, oi, False))

    m = len(norm_rows)
    n_aux = sum(2 if rel == REL_GE else 1 for _, rel, _, _, _ in norm_rows)
    width = ncol + n_aux
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    unit_col: list[int] = []  # column of the +e_i unit vector for each row
    artificial = [False] * width
    aux = ncol
    for row, rel, rhs, _, _ in norm_rows:
        full = row + [F0] * n_aux + [rhs]
        if rel == REL_LE:
            full[aux] = F1
            unit_col.append(aux)
            basis.append(aux)
            aux += 1
        elif rel == REL_GE:
            full[aux] = Fraction(-1)
            full[aux + 1] = F1
            artificial[aux + 1] = True
            unit_col.append(aux + 1)
            basis.append(aux + 1)
            aux += 2
        else:
            full[aux] = F1
            artificial[aux] = True
            unit_col.append(aux)
            basis.append(aux)
            aux += 1
        tab.append(full)

    if any(artificial):
        cost1 = [Fraction(-1) if artificial[j] else F0 for j in range(width)]
        enterable1 = [not artificial[j] for j in range(width)]
        if _optimize(tab, basis, cost1, enterable1) != "optimal":  # phase 1 is always bounded
            raise VerificationError("internal error: phase 1 did not reach an optimum")
        if any(tab[i][-1] for i in range(m) if artificial[basis[i]]):
            return LpSolution("infeasible")
        # Drive artificials out of the basis; rows that resist are redundant
        # and stay pinned at zero for the rest of the run.
        for i in range(m):
            if artificial[basis[i]]:
                for j in range(width):
                    if not artificial[j] and tab[i][j]:
                        _pivot(tab, basis, i, j)
                        break

    cost2 = [F0] * width
    for j in range(nv):
        oj = Fraction(lp.objective[j])
        if oj:
            for col, sign in var_terms[j]:
                cost2[col] += oj * sign
    enterable2 = [not artificial[j] for j in range(width)]
    status = _optimize(tab, basis, cost2, enterable2)
    if status == "unbounded":
        return LpSolution("unbounded")

    col_val = [F0] * width
    for i in range(m):
        col_val[basis[i]] = tab[i][-1]
    assignment = []
    for j in range(nv):
        x = var_offset[j]
        for col, sign in var_terms[j]:
            x += sign * col_val[col]
        assignment.append(x)
    value = sum(Fraction(lp.objective[j]) * assignment[j] for j in range(nv)) + Fraction(lp.constant)

    ybase = [cost2[b] for b in basis]
    dual = [F0] * len(lp.constraints)
    for i, (_, _, _, oi, flipped) in enumerate(norm_rows):
        if oi is None:
            continue
        c = unit_col[i]
        y = sum(ybase[r] * tab[r][c] for r in range(m) if tab[r][c])
        dual[oi] = -y if flipped else y

    sol = LpSolution("optimal", value, tuple(assignment), tuple(dual))
    if not check_solution(lp, sol):
        raise VerificationError("internal error: optimum failed its own certificate")
    return sol


class CoveringMaster:
    """Warm-started exact primal master of a unit-cost covering LP::

        min sum_j x_j  s.t.  sum_{j : i in S_j} x_j - s_i = 1 for every row i,
                             x, s >= 0,

    where column j is the row set ``columns[j]``.  The first m columns are
    the unit columns (i,), and they form the starting basis.  After
    construction and after every ``add_column`` the basis is optimal over
    the columns held so far.

    The basis inverse is kept as the integer matrix ``det * B^-1`` with
    ``det = |det(B)| > 0``, and the basic values and the duals as integers
    over ``det``: a pivot divides exactly (Bareiss), so no ``Fraction`` is
    built until a caller asks for the ``values``.  The dual
    numerators ``y * det`` are the sum of the rows of ``det * B^-1`` whose
    basic variable is a column; a pivot updates that sum from its pivot row
    alone, so a caller can price on ``dual_numerators()`` against ``det``
    at no extra cost.  Every pivot spends one budget node.
    Variables are ordered for Bland's rule as columns 0, 1, ... first and
    then the surplus variables s_0, s_1, ...; internally surplus i is
    numbered ``~i``.
    """

    def __init__(self, m: int, budget: Budget | None = None):
        self.m = m
        self.columns: list[tuple[int, ...]] = [(i,) for i in range(m)]
        self._budget = budget or Budget()
        self._det = 1
        self._inv = [[int(i == j) for j in range(m)] for i in range(m)]
        self._x = [1] * m  # basic values times det
        self._yn = [1] * m  # duals times det: every row's unit column is basic
        self._basis = list(range(m))  # variable in each basis row

    def _order(self, var: int) -> int:
        return var if var >= 0 else len(self.columns) + ~var

    @property
    def det(self) -> int:
        """The common denominator |det(B)| of the duals and the values."""
        return self._det

    def dual_numerators(self) -> list[int]:
        """y * det with y = c_B B^-1 (only column variables cost 1); every
        entry is >= 0 at an optimal basis."""
        return list(self._yn)

    def _image(self, var: int) -> list[int]:
        """det * B^-1 a for the constraint column a of ``var``."""
        if var < 0:
            return [-row[~var] for row in self._inv]
        support = self.columns[var]
        return [sum(map(row.__getitem__, support)) for row in self._inv]

    def _pivot(self, var: int) -> None:
        u = self._image(var)
        x, basis = self._x, self._basis
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
            raise VerificationError("internal error: covering master is bounded below by 0")
        self._budget.spend()
        det, ur = self._det, u[r]
        inv = self._inv
        prow, px = inv[r], x[r]
        # y * det is the sum of the basic column rows of inv, and each of
        # them other than r is updated below as (ur * row - u_i * prow) / det,
        # so the new sum follows from the old one and prow in O(m).
        leaves = basis[r] >= 0
        cu = sum(ui for ui, var_i in zip(u, basis) if var_i >= 0) - (ur if leaves else 0)
        yn = [a - b for a, b in zip(self._yn, prow)] if leaves else self._yn
        enters = int(var >= 0)
        self._yn = [(ur * a - cu * b) // det + enters * b for a, b in zip(yn, prow)]
        for i, ui in enumerate(u):
            if i == r:
                continue
            if ui:
                inv[i] = [(ur * a - ui * b) // det for a, b in zip(inv[i], prow)]
                x[i] = (ur * x[i] - ui * px) // det
            elif ur != det:
                inv[i] = [ur * a // det for a in inv[i]]
                x[i] = ur * x[i] // det
        self._det = ur
        basis[r] = var

    def _improves(self, support: tuple[int, ...]) -> bool:
        """Whether a column on ``support`` has negative reduced cost."""
        return sum(map(self._yn.__getitem__, support)) > self._det

    def _reoptimize(self) -> None:
        """Bland's rule over the held columns and the surplus variables."""
        while True:
            entering = next((j for j, col in enumerate(self.columns) if self._improves(col)), None)
            if entering is None:
                entering = next((~i for i, yi in enumerate(self._yn) if yi < 0), None)
            if entering is None:
                return
            self._pivot(entering)

    def add_column(self, support: tuple[int, ...]) -> None:
        """Price ``support`` in with one pivot, then re-optimize.  The
        column must have negative reduced cost at the current duals."""
        support = tuple(support)
        if not self._improves(support):
            raise ValueError(f"column {support} does not improve the master")
        self.columns.append(support)
        self._pivot(len(self.columns) - 1)
        self._reoptimize()

    def values(self) -> tuple[Fraction, ...]:
        """Value of every column (zero when nonbasic)."""
        out = [F0] * len(self.columns)
        for var, xv in zip(self._basis, self._x):
            if var >= 0:
                out[var] = Fraction(xv, self._det)
        return tuple(out)


def check_solution(lp: LinearProgram, sol: LpSolution) -> bool:
    """Exact feasibility of the assignment, and, when a dual is present,
    exact optimality certification (signs, reduced costs, value equality).

    Only nonzero coefficients are visited: each row's activity is summed
    over its nonzeros, and the reduced costs c - A^T y are built by
    scattering every nonzero y_i over the nonzeros of row i.  The LP's own
    numbers are used as they are (``LinearProgram`` holds only ints and
    ``Fraction``s); the assignment and the dual, which nothing has checked,
    are read through ``Fraction``.
    """
    if sol.assignment is None:
        return False
    if len(sol.assignment) != len(lp.objective):
        raise DimensionMismatch("assignment length does not match variable count")
    x = [Fraction(v) for v in sol.assignment]
    nv = len(x)
    support: list[list[tuple[int, Fraction]]] = []  # (column, coefficient) per row
    for coeffs, rel, rhs in lp.constraints:
        row = [(j, c) for j, c in enumerate(coeffs) if c]
        support.append(row)
        lhs = sum((x[j] * c for j, c in row), F0)
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
    for yi, row in zip(y, support):
        if yi:
            for j, c in row:
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

