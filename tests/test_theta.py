"""Theta evaluators: circulant closed form, the exact LP, representations."""

from __future__ import annotations

from fractions import Fraction as F
from math import cos, isclose, pi, sqrt

import numpy as np
import pytest
from oracles import tableau_simplex_solve

from hfrac.errors import PreconditionError, UnsupportedFamily, VerificationError
from hfrac.graphs import complement, complete, cycle, empty, graph_from_edges
from hfrac.lp import check_solution, simplex_solve
from hfrac.theta import (
    OrthoRep,
    johnson_theta_formula,
    johnson_theta_program,
    odd_cycle_theta,
    orthorep_violation,
    pentagon_umbrella,
    theta_circulant,
    theta_johnson_lp,
    theta_lower_from_dual,
    theta_upper_from_orthorep,
)


def test_theta_c5_is_sqrt5():
    assert abs(theta_circulant(5, {1}) - sqrt(5)) <= 1e-9


def test_theta_c7_closed_form():
    expected = 7 * cos(pi / 7) / (1 + cos(pi / 7))  # independent evaluation
    assert abs(theta_circulant(7, {1}) - expected) <= 1e-9
    assert abs(odd_cycle_theta(7) - expected) <= 1e-12


def test_theta_complete_circulant_is_one():
    for n in (3, 4, 6, 9):
        assert abs(theta_circulant(n, set(range(1, n // 2 + 1))) - 1.0) <= 1e-9


def test_theta_circulant_rejects_unsupported_families():
    with pytest.raises(UnsupportedFamily):
        theta_circulant(7, {1, 2})
    with pytest.raises(PreconditionError):
        theta_circulant(7, set())


def test_theta_between_alpha_and_half_count_for_odd_cycles():
    for k in range(2, 7):
        n = 2 * k + 1
        value = theta_circulant(n, {1})
        assert k < value < F(n, 2)


@pytest.mark.parametrize("n", [8, 10, 12, 16, 20])
def test_theta_lp_equals_formula(n):
    assert theta_johnson_lp(2, n) == johnson_theta_formula(n)


def test_theta_lp_named_values():
    assert theta_johnson_lp(2, 8) == 8
    assert theta_johnson_lp(2, 10) == 15
    assert theta_johnson_lp(2, 12) == F(260, 11)
    assert theta_johnson_lp(2, 16) == F(16 * 14 * 21, 3 * 34)


def test_theta_lp_solution_is_exactly_feasible():
    for p, n in ((2, 8), (2, 12), (3, 10)):
        lp = johnson_theta_program(p, n)
        sol = simplex_solve(lp)
        assert sol.status == "optimal"
        assert check_solution(lp, sol)  # every constraint holds exactly, dual certifies


@pytest.mark.parametrize("p", [3, 5, 7, 11, 31])
def test_theta_lp_matches_the_tableau_oracle(p):
    n = 3 * (p + 1)
    sol = simplex_solve(johnson_theta_program(p, n))
    assert sol == tableau_simplex_solve(johnson_theta_program(p, n))
    assert theta_johnson_lp(p, n) == sol.value


def test_theta_lp_preconditions():
    with pytest.raises(PreconditionError):
        theta_johnson_lp(2, 5)  # needs n >= 2(p+1)


def test_umbrella_is_verified_for_cycle_and_complement():
    c5 = cycle(5)
    assert orthorep_violation(c5, pentagon_umbrella(1)) is None
    assert orthorep_violation(complement(c5), pentagon_umbrella(2)) is None
    assert orthorep_violation(c5, pentagon_umbrella(2)) is not None


def test_the_ortho_check_names_the_first_defect():
    # the 5-cycle without edges (0, 4) and (1, 2): the umbrella's vectors
    # for both pairs are not orthogonal, and (0, 4) comes first row-major
    g = graph_from_edges(5, [(0, 1), (2, 3), (3, 4)])
    assert orthorep_violation(g, pentagon_umbrella(1)) == "non-edge (0, 4) has inner product 6.180e-01"
    assert orthorep_violation(cycle(5), pentagon_umbrella(2)) == "non-edge (0, 2) has inner product 6.180e-01"


def test_theta_sandwich_c5():
    c5 = cycle(5)
    upper = theta_upper_from_orthorep(pentagon_umbrella(1))
    lower = theta_lower_from_dual(c5, pentagon_umbrella(2))
    assert upper <= sqrt(5) + 1e-6
    assert lower >= sqrt(5) - 1e-6


def test_ortho_evaluator_examples():
    # all vectors equal to the handle on a complete graph: value 1
    vecs = np.tile(np.array([1.0, 0.0]), (4, 1))
    rep = OrthoRep(vecs, np.array([1.0, 0.0]))
    assert orthorep_violation(complete(4), rep) is None
    assert isclose(theta_upper_from_orthorep(rep), 1.0)
    # orthogonal pair with the handle at 45 degrees: value 2
    rep = OrthoRep(np.eye(2), np.array([1.0, 1.0]) / sqrt(2))
    assert orthorep_violation(empty(2), rep) is None
    assert isclose(theta_upper_from_orthorep(rep), 2.0)
    # a vector orthogonal to the handle: unbounded
    rep = OrthoRep(np.eye(2), np.array([1.0, 0.0]))
    assert theta_upper_from_orthorep(rep) == float("inf")


def test_the_tolerance_travels_with_the_representation():
    # the umbrella scaled by 1 + 1e-6: within a tolerance of 1e-5, not the default
    u = pentagon_umbrella(1)
    scaled = OrthoRep(u.vectors * (1 + 1e-6), u.handle)
    assert scaled.tol == 1e-9 and orthorep_violation(cycle(5), scaled) is not None
    loose = OrthoRep(scaled.vectors, scaled.handle, tol=1e-5)
    assert orthorep_violation(cycle(5), loose) is None
    assert OrthoRep.from_json(loose.to_json()).tol == 1e-5


def test_dual_evaluator_examples():
    n = 4
    vecs = np.tile(np.array([1.0, 0.0]), (n, 1))
    rep = OrthoRep(vecs, np.array([1.0, 0.0]))
    assert isclose(theta_lower_from_dual(empty(n), rep), n)
    single = OrthoRep(np.array([[1.0]]), np.array([1.0]))
    assert isclose(theta_lower_from_dual(complete(1), single), 1.0)
    with pytest.raises(VerificationError):
        theta_lower_from_dual(cycle(5), pentagon_umbrella(1))  # wrong graph


def test_evaluators_never_dip_below_theta_on_cycles():
    for n in (5, 7, 9):
        g = cycle(n)
        rep = OrthoRep(np.eye(n), np.ones(n) / sqrt(n))
        assert orthorep_violation(g, rep) is None
        assert theta_upper_from_orthorep(rep) >= theta_circulant(n, {1}) - 1e-6
    assert theta_upper_from_orthorep(pentagon_umbrella(1)) >= theta_circulant(5, {1}) - 1e-6
