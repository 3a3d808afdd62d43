"""Fractional clique covers: exact values, certificates, oracle equivalence."""

from __future__ import annotations

import random
from fractions import Fraction as F
from unittest import mock

import pytest

from hfrac.budget import Budget
from hfrac.errors import BudgetExhausted, SearchCutoff
from hfrac.fraccover import (
    FractionalCover,
    cover_violation,
    fractional_clique_cover,
)
from hfrac.graphs import Graph, complete, cycle, generate
from hfrac.independence import alpha
from hfrac.lp import CoveringMaster, simplex_solve
from oracles import _master_lp, master_duals, maximal_cliques, random_graph


def full_lp_cover_value(g: Graph) -> F:
    """Independent reference: one cold simplex over all maximal cliques."""
    if g.n == 0:
        return F(0)
    sol = simplex_solve(_master_lp(g.n, maximal_cliques(g)))
    assert sol.status == "optimal"
    return sol.value


def test_pentagon_cover_is_the_five_edges_at_one_half():
    c5 = cycle(5)
    cover = fractional_clique_cover(c5)
    assert cover.value == F(5, 2)
    assert cover.d == 2
    assert cover_violation(c5, cover) is None
    classes = sorted(cover.classes)
    assert [w for _, w in classes] == [F(1, 2)] * 5
    assert sorted(cl for cl, _ in classes) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_complete_graph_cover_value_one():
    for k in (1, 2, 5):
        cover = fractional_clique_cover(complete(k))
        assert cover.value == 1
        assert cover_violation(complete(k), cover) is None


def test_odd_cycles():
    for k in (2, 3, 4, 5):
        g = cycle(2 * k + 1)
        cover = fractional_clique_cover(g)
        assert cover.value == F(2 * k + 1, 2), k
        assert cover.d == 2
        assert cover_violation(g, cover) is None


def test_triangle_is_covered_by_its_own_clique():
    # the 3-cycle is complete, so the optimal cover is a single class
    cover = fractional_clique_cover(cycle(3))
    assert cover.value == 1


def test_verify_cover_negatives():
    c5 = cycle(5)
    cover = fractional_clique_cover(c5)
    lowered = FractionalCover(
        tuple((cl, F(1, 4) if i == 0 else w) for i, (cl, w) in enumerate(cover.classes)),
        cover.value - F(1, 4),
        4,
    )
    assert cover_violation(c5, lowered) is not None  # a vertex is undercovered
    nonclique = FractionalCover((((0, 1, 2), F(1)), ((3,), F(1)), ((4,), F(1))), F(3), 1)
    assert "not a clique" in cover_violation(c5, nonclique)
    wrong_value = FractionalCover(cover.classes, cover.value + 1, cover.d)
    assert cover_violation(c5, wrong_value) is not None


# Degenerate product graphs, each with the largest cover denominator
# accepted: the one the re-solving dual master used to return, since
# hfrac only keeps a cover candidate whose d is at most dmax.
PRODUCT_COVER_DENOMINATORS = {
    "strong(cycle:5,cycle:3)": 2,
    "strong(cycle:5,complete:2)": 2,
    "lex(cycle:5,cycle:5)": 4,
    "complement(cycle:9)": 4,
}


def test_column_generation_matches_full_lp_on_small_graphs():
    rng = random.Random(31)
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 12), rng.random() * 0.8 + 0.1)
        assert fractional_clique_cover(g).value == full_lp_cover_value(g)
    for expr, seed_d in PRODUCT_COVER_DENOMINATORS.items():
        g = generate(expr)
        cover = fractional_clique_cover(g)
        assert cover.value == full_lp_cover_value(g), expr
        assert cover_violation(g, cover) is None, expr
        assert cover.d <= seed_d, expr


def test_budget_stops_the_master():
    g = generate("strong(cycle:5,cycle:5)")
    with pytest.raises((BudgetExhausted, SearchCutoff)):
        fractional_clique_cover(g, Budget(nodes=50))


def test_a_pricing_cutoff_reports_its_interval_in_dual_units():
    # pricing runs on y * det; the interval it surfaces must be in units of y
    masters = []

    class Recorded(CoveringMaster):
        def __init__(self, *args):
            super().__init__(*args)
            masters.append(self)

    g = generate("johnson:2,6")
    cuts = []
    with mock.patch("hfrac.fraccover.CoveringMaster", Recorded):
        for nodes in range(1, 1000):  # until the budget suffices
            try:
                fractional_clique_cover(g, Budget(nodes=nodes))
                break
            except SearchCutoff as cut:
                cuts.append((masters[-1], cut))
            except BudgetExhausted:
                pass
    assert any(master.det > 1 for master, _ in cuts)
    for master, cut in cuts:
        y = master_duals(master)
        assert type(cut.lower) is type(cut.upper) is F  # exact, never a float
        assert cut.lower == sum((y[v] for v in cut.witness), F(0)) <= cut.upper


def test_cover_value_at_least_alpha():
    rng = random.Random(32)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 9))
        assert fractional_clique_cover(g).value >= alpha(g)[0]


def test_cover_json_roundtrip():
    c7 = cycle(7)
    cover = fractional_clique_cover(c7)
    back = FractionalCover.from_json(cover.to_json())
    assert back == cover
    assert cover_violation(c7, back) is None


_EDGES = ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
_HALVES = tuple((e, F(1, 2)) for e in _EDGES)


@pytest.mark.parametrize("classes, value, d, message", [
    # an undercovered vertex with a fractional total, over one and over
    # mixed denominators, and one that no class covers
    ((((0, 1), F(1, 4)),) + _HALVES[1:], F(9, 4), 4, "vertex 0 is undercovered: total weight 3/4"),
    ((((0, 1), F(1, 3)), ((0, 4), F(1, 2)), ((1, 2), F(2, 3)), ((2, 3), F(1, 2)), ((3, 4), F(1, 2))),
     F(5, 2), 6, "vertex 0 is undercovered: total weight 5/6"),
    ((), F(0), 1, "vertex 0 is undercovered: total weight 0"),
    # a declared value that differs from the weight sum
    (_HALVES, F(7, 2), 2, "declared value 7/2 != weight sum 5/2"),
    ((((0, 1), F(2, 3)), ((0, 4), F(1, 3)), ((1, 2), F(1, 2)), ((2, 3), F(1, 2)), ((3, 4), F(2, 3))),
     F(5, 2), 6, "declared value 5/2 != weight sum 8/3"),
    # an incompatible d
    (_HALVES, F(5, 2), 3, "declared denominator 3 incompatible with weights (lcm 2)"),
    (_HALVES, F(5, 2), 0, "declared denominator 0 incompatible with weights (lcm 2)"),
    ((((0, 1), F(2, 3)), ((0, 4), F(1, 3)), ((1, 2), F(1, 2)), ((2, 3), F(1, 2)), ((3, 4), F(2, 3))),
     F(8, 3), 4, "declared denominator 4 incompatible with weights (lcm 6)"),
    # a negative weight, a stray vertex and a non-clique
    ((((0, 1), F(1)), ((2,), F(-1, 3)), ((2, 3), F(1)), ((4,), F(1))), F(8, 3), 3,
     "class 1 has negative weight -1/3"),
    ((((0, 5), F(1)),) + _HALVES, F(7, 2), 2, "class 0 has vertex 5 outside [0, 5)"),
    ((((0, 1, 2), F(1)), ((3,), F(1)), ((4,), F(1))), F(3), 1, "class 0 is not a clique: [0, 1, 2]"),
])
def test_cover_defects_are_named(classes, value, d, message):
    # the sums run in integers; each message names them as Fractions would
    assert cover_violation(cycle(5), FractionalCover(classes, value, d)) == message


def test_a_cover_over_mixed_denominators_passes():
    classes = _HALVES + (((1,), F(1, 6)),)
    assert cover_violation(cycle(5), FractionalCover(classes, F(8, 3), 6)) is None
    assert cover_violation(cycle(5), FractionalCover(classes, F(8, 3), 12)) is None
