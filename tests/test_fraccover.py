"""Fractional clique covers: exact values, certificates, oracle equivalence."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfrac.budget import Budget
from hfrac.errors import BudgetExhausted, SearchCutoff
from hfrac.fraccover import (
    FractionalCover,
    _master_cover,
    cover_violation,
    fractional_clique_cover,
)
from hfrac.graphs import Graph, complete, cycle, generate, graph_from_edges
from hfrac.independence import alpha, clique_cover_leq, greedy_stable_set, independent_set_violation
from hfrac.lp import CoveringMaster, simplex_solve
from oracles import (_master_lp, alpha_first_fractional_clique_cover, master_duals, maximal_cliques,
                     min_degree_stable_set, random_graph)


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
# accepted: the one the re-solving dual master used to return.  hfrac cites
# a cover at any d, but blows a strong-product factor's cover up to (n d)^2
# entries for its tensor candidate, which must fit under KRON_ENTRY_CAP.
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
    # the bare matrix names no automorphisms, so the master solves it
    g = Graph(generate("strong(cycle:5,cycle:5)").matrix)
    with pytest.raises((BudgetExhausted, SearchCutoff)):
        fractional_clique_cover(g, Budget(nodes=50))


def test_a_pricing_cutoff_reports_its_interval_in_dual_units():
    # pricing runs on y * det: the interval it surfaces must be in units of y
    masters = []

    class Recorded(CoveringMaster):
        def __init__(self, *args):
            super().__init__(*args)
            masters.append(self)

    # no automorphisms named, and the cover exceeds alpha (5 > 4, 25/4 > 4),
    # so no partition into alpha cliques exists and the master prices
    for expr in ("johnson:2,6", "lex(cycle:5,cycle:5)"):
        g = Graph(generate(expr).matrix)
        assert fractional_clique_cover(g).value > alpha(g)[0]
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
        assert any(master.det > 1 for master, _ in cuts), expr
        for master, cut in cuts:
            y = master_duals(master)
            assert type(cut.lower) is type(cut.upper) is F  # exact, never a float
            assert cut.lower == sum((y[v] for v in cut.witness), F(0)) <= cut.upper


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12), st.sampled_from((0.2, 0.4, 0.6, 0.8)), st.integers(0, 2**32 - 1))
def test_the_integral_step_and_the_master_agree_with_the_full_lp(n, prob, seed):
    g = random_graph(random.Random(seed), n, prob)
    with mock.patch("hfrac.fraccover.CoveringMaster", wraps=CoveringMaster) as masters:
        cover = fractional_clique_cover(g)
    assert cover_violation(g, cover) is None
    assert cover.value == full_lp_cover_value(g) == _master_cover(g, Budget()).value
    if not masters.called:
        # a partition into alpha cliques closed it, each clique at weight 1
        assert cover.d == 1 and cover.value == alpha(g)[0]
        assert all(w == 1 for _, w in cover.classes)


def test_a_bipartite_graph_is_closed_without_the_master():
    # a bipartite graph has a partition into alpha cliques (edges and
    # vertices, by Koenig)
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(2, 16)
        side = rng.randint(1, n - 1)
        g = graph_from_edges(n, [(u, v) for u in range(side) for v in range(side, n) if rng.random() < 0.4])
        with mock.patch("hfrac.fraccover.CoveringMaster", wraps=CoveringMaster) as masters:
            cover = fractional_clique_cover(g)
        assert masters.call_count == 0
        assert cover.d == 1 and cover.value == alpha(g)[0] and cover_violation(g, cover) is None
    # the bare C5 has no partition into alpha = 2 cliques: the master solves it
    with mock.patch("hfrac.fraccover.CoveringMaster", wraps=CoveringMaster) as masters:
        cover = fractional_clique_cover(Graph(cycle(5).matrix))
    assert masters.call_count == 1 and cover.value == F(5, 2)


def _after_its_allowance(search, spent=(0,)):
    """``search`` run on an allowance already spent to its limit on the
    calls numbered in ``spent``, counting from 0."""
    calls = itertools.count()

    def run(g, *args):
        allowance = args[-1]
        if next(calls) in spent:
            for _ in range(allowance.max_nodes):
                allowance.spend()
        return search(g, *args)
    return run


# Its greedy stable set is {0, 2}, with no partition into two cliques;
# alpha is 3 ({3, 4, 5}), and {0, 1, 3} {2, 4} {5} is a partition into 3
_GREEDY_SHORT = graph_from_edges(6, [(0, 1), (0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)])


def test_the_integral_step_spends_the_callers_budget():
    # the greedy set's descent, alpha's search and the descent at alpha
    # charge the caller's budget, and a budget that runs out during any of
    # them stops the cover
    g = _GREEDY_SHORT
    assert greedy_stable_set(g) == (0, 2) and alpha(g)[0] == 3
    budget = Budget()
    with mock.patch("hfrac.fraccover.clique_cover_leq", wraps=clique_cover_leq) as descents:
        assert fractional_clique_cover(g, budget).value == 3
    assert [call.args[1] for call in descents.call_args_list] == [2, 3]
    assert 0 < budget.nodes <= 5 * g.n + 2 and not budget.exhausted
    for nodes in range(budget.nodes):
        small = Budget(nodes=nodes)
        with mock.patch("hfrac.fraccover.CoveringMaster", wraps=CoveringMaster) as masters, \
                pytest.raises(BudgetExhausted):
            fractional_clique_cover(g, small)
        assert small.exhausted and masters.call_count == 0
    # the greedy descent's allowance running out hands the graph to alpha's
    # set; alpha's, or the second descent's, hands it to the master
    for target, search, spent, master_calls in (
            ("hfrac.fraccover.clique_cover_leq", clique_cover_leq, (0,), 0),
            ("hfrac.fraccover.alpha", alpha, (0,), 1),
            ("hfrac.fraccover.clique_cover_leq", clique_cover_leq, (1,), 1)):
        budget = Budget()
        with mock.patch(target, _after_its_allowance(search, spent)), \
                mock.patch("hfrac.fraccover.CoveringMaster", wraps=CoveringMaster) as masters:
            assert fractional_clique_cover(g, budget).value == 3
        assert masters.call_count == master_calls and not budget.exhausted


def test_a_set_of_alphas_no_larger_than_the_greedy_set_is_not_descended_on():
    # the file copy of C5: the greedy set {0, 2} is maximum and has no
    # partition into two cliques, so the descent at alpha = 2 would fail
    # again; the master solves the graph after one descent
    g = Graph(cycle(5).matrix)
    assert len(greedy_stable_set(g)) == alpha(g)[0] == 2
    with mock.patch("hfrac.fraccover.clique_cover_leq", wraps=clique_cover_leq) as descents, \
            mock.patch("hfrac.fraccover.alpha", wraps=alpha) as searches, \
            mock.patch("hfrac.fraccover.CoveringMaster", wraps=CoveringMaster) as masters:
        assert fractional_clique_cover(g).value == F(5, 2)
    assert (descents.call_count, searches.call_count, masters.call_count) == (1, 1, 1)


def test_the_greedy_partition_closes_a_graph_whose_alpha_search_runs_out():
    # alpha's search runs out of its 15 nodes here, and before the greedy
    # step the master solved the graph; the greedy set is maximum and its
    # partition closes the cover at the same value, with other cliques
    g = graph_from_edges(15, [(0, 2), (0, 5), (1, 3), (1, 5), (1, 9), (2, 9), (2, 11), (3, 5), (3, 12), (4, 8),
                              (4, 9), (4, 11), (5, 7), (5, 12), (5, 14), (7, 13), (7, 14), (8, 12), (8, 14),
                              (10, 14), (12, 13)])
    with pytest.raises(SearchCutoff):
        alpha(g, Budget(nodes=g.n))
    assert greedy_stable_set(g) == alpha(g)[1] == (0, 3, 6, 7, 8, 9, 10, 11)
    cover, before = fractional_clique_cover(g), alpha_first_fractional_clique_cover(g)
    assert cover.value == before.value == 8 and cover.d == before.d == 1
    assert [cl for cl, _ in cover.classes] == [(0, 2), (1, 3, 5), (4, 11), (6,), (7, 13), (8, 12), (9,), (10, 14)]
    assert cover.classes != before.classes


def test_the_greedy_set_is_maximal_and_the_cover_is_the_alpha_first_one():
    # the printed cover is the one alpha's set gave before the greedy step,
    # except where alpha's search ran out of its n nodes and the master
    # solved the graph: there the greedy set's partition, when it exists,
    # closes the cover first, at the same value
    rng = random.Random(50)
    for _ in range(240):
        g = random_graph(rng, rng.randint(5, 16), rng.choice((0.15, 0.3, 0.5, 0.7)))
        greedy = greedy_stable_set(g)
        members = sum(1 << v for v in greedy)
        assert greedy == min_degree_stable_set(g)
        assert independent_set_violation(g, greedy) is None
        assert all(g.adj[v] & members for v in range(g.n) if v not in greedy)  # maximal
        assert len(greedy) <= alpha(g)[0]
        cover, expected = fractional_clique_cover(g), alpha_first_fractional_clique_cover(g)
        if cover.to_json() != expected.to_json():
            with pytest.raises(SearchCutoff):
                alpha(g, Budget(nodes=g.n))
            assert cover_violation(g, cover) is None
            assert cover.d == 1 and cover.value == expected.value == len(greedy)


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
    # a repeated vertex, which counted twice covered vertex 0 at weight 1/2
    ((((0, 0), F(1, 2)), ((1, 2), F(1)), ((3, 4), F(1))), F(5, 2), 2, "class 0 lists a vertex twice"),
])
def test_cover_defects_are_named(classes, value, d, message):
    # the sums run in integers; each message names them as Fractions would
    assert cover_violation(cycle(5), FractionalCover(classes, value, d)) == message


def test_a_cover_over_mixed_denominators_passes():
    classes = _HALVES + (((1,), F(1, 6)),)
    assert cover_violation(cycle(5), FractionalCover(classes, F(8, 3), 6)) is None
    assert cover_violation(cycle(5), FractionalCover(classes, F(8, 3), 12)) is None
