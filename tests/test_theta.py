"""Theta: the circulant closed form, the exact LP, the strongly regular bound."""

from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations
from math import cos, pi, sqrt
from random import Random

import numpy as np
import pytest
from oracles import pair_count_strongly_regular, random_graph, tableau_simplex_solve

from hfrac.errors import PreconditionError, UnsupportedFamily
from hfrac.graphs import graph_from_edges
from hfrac.independence import alpha
from hfrac.lp import check_solution, simplex_solve
from hfrac.theta import (
    johnson_theta_formula,
    johnson_theta_program,
    srg_theta_upper,
    strongly_regular,
    theta_circulant,
    theta_johnson_lp,
)


def test_theta_c5_is_sqrt5():
    assert abs(theta_circulant(5, {1}) - sqrt(5)) <= 1e-9


def test_theta_c7_closed_form():
    expected = 7 * cos(pi / 7) / (1 + cos(pi / 7))  # independent evaluation
    assert abs(theta_circulant(7, {1}) - expected) <= 1e-9


def test_theta_complete_circulant_is_one():
    for n in (3, 4, 6, 9):
        assert abs(theta_circulant(n, set(range(1, n // 2 + 1))) - 1.0) <= 1e-9


# The repr that ``theta-circulant`` prints, pinned bit for bit: every
# cover-lp op (odd cycles 5-21, offset 1), single offsets (a half offset,
# offsets sharing a factor with n, unreduced ones) and complete connection
# sets, written as offsets up to n/2 and as all of 1..n-1.  A complete set
# is K_n, whose theta is exactly 1.
PINNED_THETA = [
    (5, (1,), "2.2360679774997902"),
    (7, (1,), "3.317667207394096"),
    (9, (1,), "4.360089581434065"),
    (11, (1,), "5.386302911967422"),
    (13, (1,), "6.404168562937426"),
    (15, (1,), "7.41714824796913"),
    (17, (1,), "8.42701431365362"),
    (19, (1,), "9.434771374446237"),
    (21, (1,), "10.441032528715002"),
    (6, (3,), "3.0"),
    (8, (3,), "4.0"),
    (9, (2,), "4.360089581434066"),
    (10, (5,), "5.0"),
    (12, (4,), "4.00000000000001"),
    (15, (7,), "7.417148247969133"),
    (20, (10,), "10.0"),
    (25, (12,), "12.45052180805453"),
    (31, (5,), "15.460134989047601"),
    (39, (13,), "13.000000000000117"),
    (40, (7,), "20.0"),
    (40, (20,), "20.0"),
    (7, (6,), "3.317667207394096"),
    (11, (-3,), "5.386302911967422"),
    (3, (1,), "1.0"),
    (4, (1, 2), "1.0"),
    (6, range(1, 4), "1.0"),
    (9, range(1, 5), "1.0"),
    (10, range(1, 6), "1.0"),
    (17, range(1, 9), "1.0"),
    (25, range(1, 13), "1.0"),
    (40, range(1, 21), "1.0"),
    (9, range(1, 9), "1.0"),
    (40, range(1, 40), "1.0"),
]


@pytest.mark.parametrize("n, offsets, text", PINNED_THETA)
def test_theta_circulant_is_pinned_bit_for_bit(n, offsets, text):
    assert repr(theta_circulant(n, set(offsets))) == text


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


def _paley(q: int):
    squares = {x * x % q for x in range(1, q)}
    return graph_from_edges(q, [(u, v) for u, v in combinations(range(q), 2) if (v - u) % q in squares])


def _pairs(n: int):
    return list(combinations(range(n), 2))


# hand-built graphs: strongly regular ones with a surd bound (C5 and the
# Paley graphs), a square D (Petersen, T(6), K_{3,3}) and a vanishing
# rationalising denominator (disjoint cliques: K6, 3K4), and graphs that
# are not (C6 has two mu, the star two degrees, K1 and E3 no edge)
FAMILIES = {
    "C5": graph_from_edges(5, [(v, (v + 1) % 5) for v in range(5)]),
    "petersen": graph_from_edges(10, [(i, j) for i, j in _pairs(10) if not set(_pairs(5)[i]) & set(_pairs(5)[j])]),
    "paley13": _paley(13),
    "paley17": _paley(17),
    "T6": graph_from_edges(15, [(i, j) for i, j in _pairs(15) if len(set(_pairs(6)[i]) & set(_pairs(6)[j])) == 1]),
    "K6": graph_from_edges(6, _pairs(6)),
    "3K4": graph_from_edges(12, [(u, v) for u, v in _pairs(12) if u // 4 == v // 4]),
    "K3,3": graph_from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "C6": graph_from_edges(6, [(v, (v + 1) % 6) for v in range(6)]),
    "star": graph_from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    "K1": graph_from_edges(1, []),
    "E3": graph_from_edges(3, []),
}

FAMILY_PARAMS = {
    "C5": (2, 0, 1), "petersen": (3, 0, 1), "paley13": (6, 2, 3), "paley17": (8, 3, 4),
    "T6": (8, 4, 4), "K6": (5, 4, 0), "3K4": (3, 2, 0), "K3,3": (3, 0, 3),
    "C6": None, "star": None, "K1": None, "E3": None,
}

# (a, b, D) of each strongly regular family's bound
FAMILY_BOUNDS = {
    "C5": (0, 1, 5), "petersen": (4, 0, 0), "paley13": (0, 1, 13), "paley17": (0, 1, 17),
    "T6": (3, 0, 0), "K6": (1, 0, 0), "3K4": (3, 0, 0), "K3,3": (3, 0, 0),
}


def _at_least(a: F, b: F, d: int, x: int) -> bool:
    """a + b*sqrt(d) >= x, decided in rationals (b >= 0)."""
    return x <= a or b * b * d >= (x - a) ** 2


@pytest.mark.parametrize("name", FAMILIES)
def test_strongly_regular_reads_the_family_parameters(name):
    g = FAMILIES[name]
    assert strongly_regular(g) == pair_count_strongly_regular(g) == FAMILY_PARAMS[name]


def test_strongly_regular_matches_the_pair_oracle_on_random_graphs():
    rng = Random(31)
    found = 0
    for n in range(1, 13):
        for prob in (0.2, 0.5, 0.8, 1.0):
            for _ in range(8):
                g = random_graph(rng, n, prob)
                params = strongly_regular(g)
                assert params == pair_count_strongly_regular(g)
                if params is not None:
                    assert _at_least(*srg_theta_upper(n, *params), alpha(g)[0])
                    found += 1
    assert found >= 12  # the complete graphs at prob 1.0, among others


@pytest.mark.parametrize("name", FAMILIES)
def test_srg_bound_is_at_least_alpha_and_matches_the_eigenvalues(name):
    g = FAMILIES[name]
    params = strongly_regular(g)
    if params is None:
        assert name not in FAMILY_BOUNDS
        return
    a, b, d = srg_theta_upper(g.n, *params)
    assert b >= 0 and _at_least(a, b, d, alpha(g)[0])
    k, lam_min = params[0], np.linalg.eigvalsh(g.matrix.astype(float))[0]
    assert abs(float(a) + float(b) * sqrt(d) - g.n * -lam_min / (k - lam_min)) <= 1e-9
    assert (a, b, d) == FAMILY_BOUNDS[name]
