"""Exact simplex: optima, certificates, and a floating-point cross-check."""

from __future__ import annotations

import copy
import random
import re
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from oracles import (
    FromScratchChecked,
    _master_lp,
    dense_check_solution,
    dual_numerators_from_scratch,
    master_duals,
    random_graph,
    tableau_simplex_solve,
)
from scipy.optimize import linprog

from hfrac.budget import Budget
from hfrac.errors import BudgetExhausted, DimensionMismatch, PreconditionError, VerificationError
from hfrac.fraccover import _certifies_optimum, fractional_clique_cover
from hfrac.graphs import cycle
from hfrac.lp import (
    REL_EQ,
    REL_GE,
    REL_LE,
    CoveringMaster,
    IntegerSimplex,
    LinearProgram,
    LpSolution,
    check_solution,
    simplex_solve,
)


def test_single_variable_box():
    lp = LinearProgram((F(1),), (({0: F(1)}, "<=", F(3, 2)),))
    sol = simplex_solve(lp)
    assert sol.status == "optimal" and sol.value == F(3, 2)
    assert check_solution(lp, sol)


def test_two_variable_cap():
    lp = LinearProgram(
        (F(1), F(1)),
        (
            ({0: F(1)}, "<=", F(1)),
            ({1: F(1)}, "<=", F(1)),
            ({0: F(1), 1: F(1)}, "<=", F(3, 2)),
        ),
    )
    sol = simplex_solve(lp)
    assert sol.value == F(3, 2)
    assert check_solution(lp, sol)


def test_infeasible_and_unbounded():
    lp = LinearProgram((F(1),), (({0: F(1)}, ">=", F(2)), ({0: F(1)}, "<=", F(1))))
    assert simplex_solve(lp).status == "infeasible"
    lp = LinearProgram((F(1),), (({0: F(1)}, ">=", F(0)),))
    assert simplex_solve(lp).status == "unbounded"


def test_check_solution_catches_tiny_violation():
    lp = LinearProgram((F(1),), (({0: F(1)}, "<=", F(1)),))
    inside = LpSolution("optimal", None, (F(1, 2),), None)
    assert check_solution(lp, inside)
    violated = LpSolution("optimal", None, (F(1) + F(1, 10**9),), None)
    assert not check_solution(lp, violated)


def test_check_solution_dimension_mismatch():
    lp = LinearProgram((F(1), F(1)), ())
    with pytest.raises(DimensionMismatch):
        check_solution(lp, LpSolution("optimal", None, (F(0),), None))


def test_equality_and_bounds():
    lp = LinearProgram(
        (F(2), F(3)),
        (({0: F(1), 1: F(1)}, "=", F(4)),),
        bounds=((F(0), F(3)), (F(0), F(3))),
    )
    sol = simplex_solve(lp)
    assert sol.status == "optimal" and sol.value == F(11)
    assert check_solution(lp, sol)


def test_negative_rhs_rows():
    # max -x subject to -x <= -2  (so x >= 2)
    lp = LinearProgram((F(-1),), (({0: F(-1)}, "<=", F(-2)),))
    sol = simplex_solve(lp)
    assert sol.status == "optimal" and sol.value == F(-2)
    assert check_solution(lp, sol)


def random_lp(rng):
    nv = rng.randint(1, 4)
    nc = rng.randint(1, 5)
    objective = tuple(F(rng.randint(-5, 5)) for _ in range(nv))
    constraints = []
    for _ in range(nc):
        coeffs = {j: c for j in range(nv) if (c := F(rng.randint(-4, 4)))}
        rel = rng.choice(("<=", ">=", "="))
        constraints.append((coeffs, rel, F(rng.randint(-6, 6))))
    bounds = tuple(
        rng.choice(
            (
                (None, None),
                (F(0), None),
                (F(-10), F(10)),
                (None, F(5)),
            )
        )
        for _ in range(nv)
    )
    return LinearProgram(objective, tuple(constraints), F(rng.randint(-3, 3)), bounds)


def scipy_status(lp, presolve=True):
    nv = len(lp.objective)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in lp.constraints:
        row = [float(coeffs.get(j, 0)) for j in range(nv)]
        if rel == "<=":
            a_ub.append(row)
            b_ub.append(float(rhs))
        elif rel == ">=":
            a_ub.append([-x for x in row])
            b_ub.append(-float(rhs))
        else:
            a_eq.append(row)
            b_eq.append(float(rhs))
    bounds = [
        (None if lo is None else float(lo), None if up is None else float(up))
        for lo, up in (lp.bound(j) for j in range(nv))
    ]
    res = linprog(
        [-float(c) for c in lp.objective],
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
        options={"presolve": presolve},
    )
    if res.status == 0:
        return "optimal", -res.fun + float(lp.constant)
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    raise RuntimeError(f"solver status {res.status}")


def test_random_lps_against_float_solver():
    rng = random.Random(12)
    solved = 0
    for _ in range(120):
        lp = random_lp(rng)
        mine = simplex_solve(lp)
        ref_status, ref_value = scipy_status(lp)
        if mine.status != ref_status:
            # HiGHS presolve can only conclude infeasible-or-unbounded and
            # labels it infeasible; rerun without presolve to adjudicate
            ref_status, ref_value = scipy_status(lp, presolve=False)
        assert mine.status == ref_status, (lp, mine.status, ref_status)
        if mine.status == "optimal":
            solved += 1
            assert abs(float(mine.value) - ref_value) < 1e-6
            assert check_solution(lp, mine)
    assert solved > 30  # the batch must actually exercise the optimal path


def test_strong_duality_is_exact():
    rng = random.Random(13)
    for _ in range(60):
        lp = random_lp(rng)
        sol = simplex_solve(lp)
        if sol.status != "optimal":
            continue
        # check_solution recomputes the dual objective and compares exactly
        assert check_solution(lp, sol)
        assert sol.dual is not None


def test_row_permutation_invariance():
    rng = random.Random(14)
    for _ in range(40):
        lp = random_lp(rng)
        base = simplex_solve(lp)
        perm = list(range(len(lp.constraints)))
        rng.shuffle(perm)
        permuted = LinearProgram(
            lp.objective,
            tuple(lp.constraints[i] for i in perm),
            lp.constant,
            lp.bounds,
        )
        other = simplex_solve(permuted)
        assert base.status == other.status
        if base.status == "optimal":
            assert base.value == other.value


def covering_dual(m, columns):
    """max sum y subject to sum_{i in S} y_i <= 1 per column S, y >= 0."""
    rows = tuple((dict.fromkeys(cols, F(1)), "<=", F(1)) for cols in columns)
    return LinearProgram(tuple(F(1) for _ in range(m)), rows, bounds=tuple((F(0), None) for _ in range(m)))


def test_covering_master_column_generation_matches_cold_solve():
    rng = random.Random(15)
    for _ in range(40):
        m = rng.randint(1, 7)
        pool = [tuple(sorted(rng.sample(range(m), rng.randint(1, m)))) for _ in range(rng.randint(1, 12))]
        master = CoveringMaster(m)
        while True:
            y = master_duals(master)
            best = max(pool, key=lambda cols: sum(y[i] for i in cols))
            if sum(y[i] for i in best) <= 1:
                break
            master.add_column(best)
        w = master.values()
        assert all(x >= 0 for x in w)
        lp = covering_dual(m, master.columns)
        assert check_solution(lp, LpSolution("optimal", sum(w, F(0)), y, w))
        assert sum(w, F(0)) == simplex_solve(covering_dual(m, master.columns + pool)).value


def test_covering_master_rejects_a_column_that_does_not_improve():
    master = CoveringMaster(3)
    master.add_column((0, 1, 2))
    with pytest.raises(ValueError):
        master.add_column((0, 1))
    assert master.columns == [(0,), (1,), (2,), (0, 1, 2)]
    assert master.values() == (F(0), F(0), F(0), F(1))


def test_covering_master_spends_one_node_per_pivot():
    budget = Budget(nodes=1)
    master = CoveringMaster(4, budget)
    master.add_column((0, 1))
    assert budget.nodes == 1
    with pytest.raises(BudgetExhausted):
        master.add_column((2, 3))


def test_a_covering_pivot_without_a_leaving_row_is_an_internal_error():
    # surplus s_0 of the starting basis has image -e_0: no ratio test row
    with pytest.raises(VerificationError, match="internal error: covering master"):
        CoveringMaster(2)._pivot(~0)


class _CheckedMaster(CoveringMaster):
    """Records, after every pivot, the entering and leaving variables and
    the maintained dual numerators beside the from-scratch sum."""

    def __init__(self, m: int):
        self.pivots: list[tuple[int, int, list[int], list[int]]] = []
        super().__init__(m)

    def _pivot(self, var: int, r: int | None = None) -> bool:
        before = list(self._basis)
        entered = super()._pivot(var, r)
        (leaving,) = (b for b, a in zip(before, self._basis) if a != b)
        self.pivots.append((var, leaving, self.dual_numerators(), dual_numerators_from_scratch(self)))
        return entered


@st.composite
def covering_runs(draw):
    """Column generation over a drawn pool of columns on up to 6 rows,
    entering a drawn improving column each round, until none improves."""
    m = draw(st.integers(1, 6))
    column = st.sets(st.integers(0, m - 1), min_size=1).map(lambda s: tuple(sorted(s)))
    pool = draw(st.lists(column, min_size=1, max_size=10))
    master = _CheckedMaster(m)
    while True:
        y = master_duals(master)
        improving = [c for c in pool if sum(y[i] for i in c) > 1]
        if not improving:
            return master
        master.add_column(draw(st.sampled_from(improving)))


@settings(max_examples=300, deadline=None)
@given(covering_runs())
def test_covering_master_maintains_its_dual_numerators(master):
    for _, _, maintained, from_scratch in master.pivots:
        assert maintained == from_scratch
    assert all(v >= 0 for v in master.dual_numerators())


@settings(max_examples=300, deadline=None)
@given(covering_runs(), st.data())
def test_the_integer_cover_gate_agrees_with_the_lp_certificate(master, data):
    # one unit of dual numerator moved between two rows, one numerator
    # changed, or nothing changed; the column values stay optimal
    numerators = master.dual_numerators()
    rows = st.integers(0, master.m - 1)
    edit = data.draw(st.sampled_from(("move", "change", "none")))
    if edit == "move":
        numerators[data.draw(rows)] -= 1
        numerators[data.draw(rows)] += 1
    elif edit == "change":
        numerators[data.draw(rows)] += data.draw(st.integers(-master.det, master.det))
    values = master.values()
    value = sum(values, F(0))
    duals = tuple(F(yn, master.det) for yn in numerators)
    old = check_solution(_master_lp(master.m, master.columns), LpSolution("optimal", value, duals, values))
    assert F(master.value_numerator(), master.det) == value
    assert _certifies_optimum(master.columns, numerators, master.det, master.value_numerator()) == old


@pytest.mark.parametrize("entering_column, leaving_column", [(True, True), (False, True), (True, False)])
def test_covering_runs_reach_every_pivot_kind(entering_column, leaving_column):
    # the update has one term for a leaving and one for an entering column
    find(covering_runs(), lambda master: any((e >= 0, lv >= 0) == (entering_column, leaving_column)
                                             for e, lv, _, _ in master.pivots),
         settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


# Zeros of both types are drawn often, so rows and columns are sparse.
NUMBERS = st.one_of(st.sampled_from((0, F(0))), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
# Numbers an exact LP refuses.
INEXACT = st.one_of(st.floats(-3, 3), st.booleans())


def _nudge(draw, values: list) -> None:
    """Change one entry of ``values`` in place, if there is one."""
    if values:
        i = draw(st.integers(0, len(values) - 1))
        values[i] = draw(NUMBERS)


def _row(coeffs: list) -> dict:
    """The row of the drawn coefficient list: an int 0 is left out and
    every other number listed at its column, so a row has both missing and
    listed zeros."""
    return {j: c for j, c in enumerate(coeffs) if type(c) is not int or c}


def _program(objective, constraints, constant, bounds) -> LinearProgram:
    return LinearProgram(tuple(objective), tuple((_row(c), rel, rhs) for c, rel, rhs in constraints),
                         constant, None if bounds is None else tuple(tuple(b) for b in bounds))


def _expect_refusal(draw, args) -> None:
    """One number of the LP arguments, drawn at random, becomes a float or a
    bool (or None, outside the bounds), and LinearProgram must refuse it
    with an error naming its field.

    A coefficient after a left-out int 0 sits at another place in its row
    dict than its column, so a refusal named by that place instead of the
    column shows only there: when the rows have such a coefficient, it is
    the one refused half the time."""
    objective, constraints, _, bounds = args
    slots = [((0, j), f"objective[{j}]") for j in range(len(objective))]
    shifted = []
    for i, (coeffs, _, _) in enumerate(constraints):
        row = [((1, i, 0, j), f"constraints[{i}] coefficient {j}") for j in range(len(coeffs))]
        slots += row
        left_out = [j for j, c in enumerate(coeffs) if type(c) is int and not c]
        shifted += row[left_out[0] + 1:] if left_out else []
        slots.append(((1, i, 2), f"constraints[{i}] rhs"))
    slots.append(((2,), "constant"))
    for j in range(len(bounds or ())):
        slots += [((3, j, 0), f"bounds[{j}] lower"), ((3, j, 1), f"bounds[{j}] upper")]
    path, field = draw(st.sampled_from(shifted if shifted and draw(st.booleans()) else slots))
    container = args
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = draw(INEXACT if path[0] == 3 else INEXACT | st.none())
    with pytest.raises(PreconditionError, match=re.escape(f"LP {field} ")):
        _program(*args)


@st.composite
def check_cases(draw):
    """An LP with all three relations, finite and None bounds, and a
    solution that is either its exact optimum or a random point, then
    perturbed: assignment, dual and value nudged, dropped or resized.
    Half the time the LP is first built once with a float or bool in it,
    which must be refused."""
    nv = draw(st.integers(0, 4))
    vector = st.lists(NUMBERS, min_size=nv, max_size=nv)
    constraints = draw(st.lists(st.tuples(vector, st.sampled_from((REL_LE, REL_GE, REL_EQ)), NUMBERS),
                                max_size=4))
    bound = st.tuples(st.none() | NUMBERS, st.none() | NUMBERS)
    args = [draw(vector), [list(row) for row in constraints], draw(NUMBERS),
            draw(st.none() | st.lists(bound.map(list), min_size=nv, max_size=nv))]
    if draw(st.booleans()):
        _expect_refusal(draw, copy.deepcopy(args))
    lp = _program(*args)
    sol = simplex_solve(lp)
    if sol.status == "optimal" and draw(st.booleans()):
        x, y, value = list(sol.assignment), list(sol.dual), sol.value
    else:
        x = draw(st.lists(NUMBERS, min_size=nv, max_size=nv))
        y = draw(st.lists(NUMBERS, min_size=len(constraints), max_size=len(constraints)))
        value = draw(st.none() | NUMBERS)
    if draw(st.booleans()):
        _nudge(draw, x)
    if draw(st.booleans()):
        _nudge(draw, y)
    if draw(st.booleans()):
        value = draw(st.none() | NUMBERS)
    for vec in (x, y):
        resize = draw(st.sampled_from((0, 0, 0, 0, 1, -1)))
        if resize > 0:
            vec.append(draw(NUMBERS))
        elif resize < 0 and vec:
            vec.pop()
    assignment = None if draw(st.integers(0, 9)) == 0 else tuple(x)
    dual = None if draw(st.integers(0, 4)) == 0 else tuple(y)
    return lp, LpSolution("optimal", value, assignment, dual)


def _outcome(check, lp, sol):
    """The verdict, or the message of the DimensionMismatch raised."""
    try:
        return check(lp, sol)
    except DimensionMismatch as exc:
        return str(exc)


@settings(max_examples=250, deadline=None)
@given(check_cases())
def test_check_solution_agrees_with_the_dense_oracle(case):
    assert _outcome(check_solution, *case) == _outcome(dense_check_solution, *case)


@pytest.mark.parametrize("outcome", [
    True,
    False,
    "assignment length does not match variable count",
    "dual length does not match constraint count",
])
def test_check_cases_reach_every_outcome(outcome):
    find(check_cases(), lambda case: _outcome(dense_check_solution, *case) == outcome,
         settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


@st.composite
def lps(draw):
    """LPs with 0-5 variables and 0-6 rows: all three relations, int and
    fractional numbers, every kind of bound (none, lower, upper, both, also
    crossed), and equality rows drawn again, which can leave a redundant
    artificial pinned at zero."""
    nv = draw(st.integers(0, 5))
    vector = st.lists(NUMBERS, min_size=nv, max_size=nv)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        equalities = [row for row in rows if row[1] == REL_EQ]
        if equalities and draw(st.booleans()):
            rows.append(draw(st.sampled_from(equalities)))
        else:
            rows.append((draw(vector), draw(st.sampled_from((REL_LE, REL_GE, REL_EQ))), draw(NUMBERS)))
    bound = st.tuples(st.none() | NUMBERS, st.none() | NUMBERS)
    bounds = draw(st.none() | st.lists(bound, min_size=nv, max_size=nv))
    return _program(draw(vector), rows, draw(NUMBERS), bounds)


@settings(max_examples=500, deadline=None)
@given(lps())
def test_simplex_solve_matches_the_tableau_oracle(lp):
    # the same pivots in the same order: status, value, assignment and dual
    assert simplex_solve(lp) == tableau_simplex_solve(lp)


def drive_outs(lp) -> set[str]:
    """What driving the artificials out of the basis did in simplex_solve:
    a pivot on a negative entry, and rows left redundant."""
    seen, engines = set(), []

    class Recorded(IntegerSimplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

        def _pivot(self, var: int, r: int | None = None) -> bool:
            if r is not None and self._image(var)[r] < 0:
                seen.add("negative entry")
            return super()._pivot(var, r)

    with mock.patch("hfrac.lp.IntegerSimplex", Recorded):
        status = simplex_solve(lp).status
    if status != "infeasible" and any(~var in engines[0]._fixed for var in engines[0]._basis):
        seen.add("redundant row")
    return seen


@pytest.mark.parametrize("kind", ["negative entry", "redundant row"])
def test_lps_reach_every_drive_out_kind(kind):
    # a negative entry negates det * B^-1 so that det stays positive
    find(lps(), lambda lp: kind in drive_outs(lp),
         settings=settings(max_examples=4000, database=None, phases=[Phase.generate]))


def _checked_engines(patched: str, base: type, run) -> list:
    """The engines that ``run()`` builds while ``patched`` names a
    subclass of ``base`` that checks every pivot from scratch."""
    engines = []

    class Checked(FromScratchChecked, base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    with mock.patch(patched, Checked):
        run()
    return engines


def _checked_cover(g) -> CoveringMaster:
    (master,) = _checked_engines("hfrac.fraccover.CoveringMaster", CoveringMaster,
                                 lambda: fractional_clique_cover(g))
    return master


def _checked_solve(lp) -> list[str]:
    """The kinds of the steps that simplex_solve took on ``lp``."""
    engines = _checked_engines("hfrac.lp.IntegerSimplex", IntegerSimplex, lambda: simplex_solve(lp))
    return [step for engine in engines for step in engine.steps]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.sampled_from((0.2, 0.4, 0.6, 0.8)), st.integers(0, 2**32 - 1))
def test_master_pivots_match_the_basis_inverted_from_scratch(n, prob, seed):
    # every pivot of the column generation is checked as it is taken
    _checked_cover(random_graph(random.Random(seed), n, prob))


@settings(max_examples=300, deadline=None)
@given(lps())
def test_solver_pivots_match_the_basis_inverted_from_scratch(lp):
    # every pivot of both phases and of the drive-out is checked as it is taken
    _checked_solve(lp)


@pytest.mark.parametrize("k", [5, 7, 9])
def test_odd_cycle_masters_take_both_step_kinds(k):
    # the optimal cover of C_k puts 1/2 on every edge, so det reaches 2
    master = _checked_cover(cycle(k))
    assert {"unimodular", "dense"} <= set(master.steps)
    assert max(master.dets) == 2 == master.det


@pytest.mark.parametrize("kind", ["unimodular", "dense"])
def test_solver_runs_reach_both_step_kinds(kind):
    find(lps(), lambda lp: kind in _checked_solve(lp),
         settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


def test_a_duplicated_equality_row_stays_redundant():
    lp = LinearProgram((1, 2), (({0: 1, 1: 1}, REL_EQ, 1), ({0: 1, 1: 1}, REL_EQ, 1)), bounds=((0, None), (0, None)))
    assert drive_outs(lp) == {"redundant row"}
    sol = simplex_solve(lp)
    assert sol == tableau_simplex_solve(lp) and sol.value == 2 and check_solution(lp, sol)


def test_phase_one_counts_each_artificial_in_units_of_its_unscaled_row():
    # the rows are scaled by 2 and 3 to integers; an artificial of a scaled
    # row counted as one unit took another first pivot, and the run ended
    # at the other vertex (0, 4/3, 50/9)
    lp = LinearProgram((0, 0, 0), (({0: -2, 1: -4, 2: F(3, 2)}, REL_GE, 3), ({0: F(1, 3), 1: 3}, REL_EQ, 4)),
                       bounds=((0, None),) * 3)
    sol = simplex_solve(lp)
    assert sol == tableau_simplex_solve(lp) and sol.assignment == (12, 0, 18)


@pytest.mark.parametrize("args, field", [
    (((1,), (), F(1, 3), ((None, 0.0),)), "bounds[0] upper"),
    (((0.5,), ()), "objective[0]"),
    (((1,), (({0: F(1)}, "<=", 1.0),)), "constraints[0] rhs"),
    (((1,), (({0: True}, "<=", 1),)), "constraints[0] coefficient 0"),
    (((1,), (), 0.0), "constant"),
    # named by its column, not by its place in the row
    (((1, 1, 1), (({0: 1}, "<=", 1), ({2: 0.5}, "<=", 1))), "constraints[1] coefficient 2"),
    # None means no bound, and nothing anywhere else
    (((None, 1), ()), "objective[0]"),
    (((1,), (({0: None}, "<=", 1),)), "constraints[0] coefficient 0"),
    (((1, 1, 1), (({0: 1}, "<=", 1), ({2: None}, "<=", 1))), "constraints[1] coefficient 2"),
    (((1,), (({0: 1}, "<=", None),)), "constraints[0] rhs"),
    (((1,), (), None), "constant"),
])
def test_an_lp_refuses_inexact_numbers(args, field):
    # the first case raised "optimum failed its own certificate": the float
    # bound turned the dual objective into a float unequal to 1/3
    with pytest.raises(PreconditionError, match=re.escape(f"LP {field} ")):
        simplex_solve(LinearProgram(*args))


@pytest.mark.parametrize("column", [2, -1, "0", 1.0, True])
def test_an_lp_refuses_a_column_outside_its_variables(column):
    with pytest.raises(DimensionMismatch, match=re.escape(f"constraints[1] has column {column!r}, ")):
        LinearProgram((1, 1), (({0: 1}, REL_LE, 1), ({0: 1, column: 1}, REL_LE, 1)))
