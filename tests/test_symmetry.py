"""Automorphisms named by graph expressions: the check that admits them, the
one-branch root of ``alpha`` and the orbit cover of ``fracchrom``."""

from __future__ import annotations

import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import argwhere_edge_array

from hfrac import graphs
from hfrac.budget import Budget
from hfrac.cli import main
from hfrac.fraccover import cover_violation, fractional_clique_cover
from hfrac.graphs import Graph, generate, graph_from_edges
from hfrac.independence import alpha

LEAVES = st.one_of(
    st.integers(3, 7).map(lambda k: f"cycle:{k}"),
    st.integers(1, 4).map(lambda k: f"complete:{k}"),
    st.integers(1, 4).map(lambda k: f"empty:{k}"),
    st.integers(4, 6).map(lambda n: f"johnson:2,{n}"),
    st.integers(4, 6).map(lambda n: f"alon:2,2,{n}"),
)


def _combine(children):
    return st.one_of(
        children.map(lambda e: f"complement({e})"),
        st.tuples(st.sampled_from(("strong", "lex")), children, children).map(lambda t: f"{t[0]}({t[1]},{t[2]})"),
        children.map(lambda e: f"strong({e},{e})"),  # equal factors: the coordinate swap too
    )


EXPRESSIONS = st.recursive(LEAVES, _combine, max_leaves=3).filter(
    lambda e: graphs._order(graphs.parse_expr(e)) <= 48)


def is_automorphism(g: Graph, perm) -> bool:
    """Edge by edge: perm is a bijection of the vertices that maps every
    edge to an edge (and so, being a bijection, non-edges to non-edges)."""
    perm = [int(v) for v in perm]
    return sorted(perm) == list(range(g.n)) and all(g.matrix[perm[u], perm[v]] for u, v in argwhere_edge_array(g.matrix))


def orbit_of_zero(n: int, perms) -> set[int]:
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for perm in perms:
            if int(perm[v]) not in seen:
                seen.add(int(perm[v]))
                todo.append(int(perm[v]))
    return seen


def accepts(g: Graph, perms) -> bool:
    """What the check must decide, by loops over the edges and the orbit."""
    return g.n > 0 and all(is_automorphism(g, p) for p in perms) and orbit_of_zero(g.n, perms) == set(range(g.n))


# Matrices under the expression of another graph of the same order.  The
# first is the path 0-1-2-3-4; on the second, a root cut to one branch
# would find alpha = 2 instead of 3.
LYING_GRAPHS = {
    "path": (Graph(np.eye(5, k=1, dtype=bool) | np.eye(5, k=-1, dtype=bool), "cycle:5"), 3, F(3)),
    "cut-sensitive": (graph_from_edges(6, [(0, 2), (0, 5), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)],
                                       "cycle:6"), 3, F(3)),
}


def lying_graph_answers() -> list:
    """For each lying graph: whether it is refused, alpha and its cover value."""
    out = []
    for g, _, _ in LYING_GRAPHS.values():
        out += [g.transitive_automorphisms is None, alpha(g)[0], fractional_clique_cover(g).value]
    return out


def lying_graph_truth() -> list:
    return [x for _, a, value in LYING_GRAPHS.values() for x in (True, a, value)]


@settings(max_examples=150, deadline=None)
@given(EXPRESSIONS)
def test_every_named_automorphism_passes_the_check(expr):
    g = generate(expr)
    gens = g.transitive_automorphisms
    assert gens is not None, expr
    assert all(is_automorphism(g, p) for p in gens), expr
    assert orbit_of_zero(g.n, gens) == set(range(g.n)), expr


@settings(max_examples=100, deadline=None)
@given(EXPRESSIONS)
def test_alpha_is_the_full_search_result_in_no_more_nodes(expr):
    g = generate(expr)
    bare = Graph(g.matrix)  # no expression, so no automorphisms
    assert bare.transitive_automorphisms is None
    cut, full = Budget(), Budget()
    assert alpha(g, cut) == alpha(bare, full), expr
    assert cut.nodes <= full.nodes, expr


@settings(max_examples=60, deadline=None)
@given(EXPRESSIONS)
def test_the_orbit_cover_has_the_master_value(expr):
    g = generate(expr)
    cover = fractional_clique_cover(g)
    assert cover_violation(g, cover) is None
    assert cover.value == fractional_clique_cover(Graph(g.matrix)).value, expr


@settings(max_examples=100, deadline=None)
@given(EXPRESSIONS, st.data())
def test_a_generator_with_two_images_swapped_is_checked_again(expr, data):
    g = generate(expr)
    gens = list(graphs._automorphisms(graphs.parse_expr(expr)))
    if not gens or g.n < 2:
        return
    i = data.draw(st.integers(0, len(gens) - 1))
    u, v = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    forged = [p.copy() for p in gens]
    forged[i][[u, v]] = forged[i][[v, u]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_automorphisms", lambda ex: forged)
        admitted = Graph(g.matrix, expr).transitive_automorphisms
    assert (admitted is not None) == accepts(g, forged)


def test_a_swapped_image_is_refused():
    # one swap in the rotation of C5 maps the edge 0-1 to 0-2
    forged = [np.array([2, 1, 3, 4, 0]), np.array([0, 4, 3, 2, 1])]
    g = generate("cycle:5")
    assert not is_automorphism(g, forged[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_automorphisms", lambda ex: forged)
        assert Graph(g.matrix, "cycle:5").transitive_automorphisms is None


@pytest.mark.parametrize("gens", [[], [np.array([0, 4, 3, 2, 1])]])
def test_automorphisms_that_do_not_reach_every_vertex_are_refused(gens):
    # no generator, or the reflection of C5 alone, fixes vertex 0
    g = generate("cycle:5")
    assert accepts(g, gens) is False and all(is_automorphism(g, p) for p in gens)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_automorphisms", lambda ex: gens)
        assert Graph(g.matrix, "cycle:5").transitive_automorphisms is None


@pytest.mark.parametrize("name", LYING_GRAPHS)
def test_a_lying_expression_never_cuts(name):
    g, true_alpha, true_cover = LYING_GRAPHS[name]
    assert g.transitive_automorphisms is None
    assert alpha(g) == alpha(Graph(g.matrix)) and alpha(g)[0] == true_alpha
    assert fractional_clique_cover(g).value == true_cover


def test_the_cut_sensitive_lying_graph_would_cut_wrongly():
    # the test above is only as strong as this: admitted, its rotation and
    # reflection would cut the root to a branch without a maximum stable set
    g, true_alpha, _ = LYING_GRAPHS["cut-sensitive"]
    forged = Graph(g.matrix, g.expr)
    forged.__dict__["transitive_automorphisms"] = tuple(graphs._automorphisms(graphs.parse_expr(g.expr)))
    assert alpha(forged)[0] < true_alpha


def test_lex_squares_are_transitive_without_the_coordinate_swap():
    g = generate("lex(cycle:5,cycle:5)")
    swap = np.arange(25).reshape(5, 5).T.ravel()
    assert not is_automorphism(g, swap)
    gens = g.transitive_automorphisms
    assert gens is not None and len(gens) == 4
    assert not any(np.array_equal(p, swap) for p in gens)
    strong = generate("strong(cycle:5,cycle:5)").transitive_automorphisms
    assert len(strong) == 5 and np.array_equal(strong[-1], swap)
    # named with the swap, the lex square would be refused as a whole
    with_swap = [*graphs._automorphisms(graphs.parse_expr(g.expr)), swap]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_automorphisms", lambda ex: with_swap)
        assert Graph(g.matrix, g.expr).transitive_automorphisms is None


@pytest.mark.parametrize("expr", ["file", "universal:2,2,1", "strong(cycle:5,file)", "lex(file,cycle:5)"])
def test_graphs_without_named_automorphisms(tmp_path, expr):
    path = tmp_path / "c5.txt"
    graphs.write_graph_file(generate("cycle:5"), str(path))
    g = generate(expr.replace("file", f"file:{path}"))
    assert g.transitive_automorphisms is None


def test_alpha_of_johnson_2_12_within_2000_nodes():
    g = generate("johnson:2,12")
    size, witness = alpha(g, Budget(nodes=2000))
    assert size == 12 and graphs.is_independent_set(g, witness)


@pytest.mark.parametrize("expr, value, orbit", [
    ("johnson:2,10", F(120, 7), 3600),  # the Fano planes in a 10-set
    ("complement(johnson:2,10)", F(15), 45),
    ("johnson:2,12", F(220, 7), 23760),
])
def test_orbit_covers_of_large_vertex_transitive_graphs(expr, value, orbit):
    g = generate(expr)
    budget = Budget(nodes=30000)  # the clique search and one node per orbit member
    cover = fractional_clique_cover(g, budget)
    assert cover.value == value and len(cover.classes) == orbit and cover_violation(g, cover) is None
    assert budget.nodes < 30000


@pytest.mark.parametrize("argv, printed", [
    (("fracchrom", "--graph", "johnson:2,10"), "120/7"),
    (("fracchrom", "--graph", "complement(johnson:2,10)"), "15"),
    (("fracchrom", "--graph", "johnson:2,12"), "220/7"),
    (("alpha", "--graph", "johnson:2,12"), "12"),
])
def test_large_vertex_transitive_reports_verify(tmp_path, capsys, argv, printed):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == printed + "\n"
    path = tmp_path / "out.json"
    assert main([*argv, "--json"]) == 0
    path.write_text(capsys.readouterr().out)
    assert main(["verify", "--cert", str(path)]) == 0
    assert capsys.readouterr().out == "OK\n"


@pytest.mark.parametrize("dmax, printed", [("8", "[4, 5]"), ("4", "[4, 5]"), ("2", "[4, 5]")])
def test_hfrac_keeps_a_cover_within_dmax(capsys, dmax, printed):
    # the orbit cover of johnson:2,6 has d = 6 and the master's cover d = 2;
    # a --dmax below 6 once made the upper end come from the master's cover.
    # The cap is gone: each value it took is a usage error, and the upper
    # end is the orbit cover's own, kept at d = 6 whatever the old cap was
    assert main(["hfrac", "--graph", "johnson:2,6", "--p", "2", "--dmax", dmax]) == 64
    capsys.readouterr()
    assert main(["hfrac", "--graph", "johnson:2,6", "--p", "2"]) == 0
    assert capsys.readouterr().out == printed + "\n"
    assert main(["hfrac", "--graph", "johnson:2,6", "--p", "2", "--json"]) == 0
    cover = json.loads(capsys.readouterr().out)["witness_refs"][1]
    assert (cover["kind"], cover["d"]) == ("fraccover", 6)


@pytest.mark.parametrize("graph, p, printed, d", [
    ("johnson:2,6", "2", "[4, 5]", 6),
    ("johnson:2,9", "2", "[8, 12]", 90),
    ("johnson:2,10", "2", "[8, 120/7]", 210),
    ("complement(johnson:2,12)", "3", "[7, 55/3]", 315),
])
def test_hfrac_cites_the_orbit_cover(tmp_path, capsys, graph, p, printed, d):
    # the orbit cover witnesses the upper end at its own denominator.  The
    # cover was once kept only as a d x d block blow-up for d <= 8, and above
    # that the master was re-solved on the bare matrix: johnson:2,9 printed
    # [8, 15], johnson:2,10 [8, 28] after 12 s, and complement(johnson:2,12)
    # nothing in 300 s.  The budget stops such a run with exit 3.
    argv = ["hfrac", "--graph", graph, "--p", p, "--budget-ms", "20000"]
    assert main(argv) == 0
    assert capsys.readouterr().out == printed + "\n"
    assert main([*argv, "--json"]) == 0
    report = capsys.readouterr().out
    cover = json.loads(report)["witness_refs"][1]
    assert (cover["kind"], cover["d"]) == ("fraccover", d)
    path = tmp_path / "report.json"
    path.write_text(report)
    assert main(["verify", "--cert", str(path)]) == 0
    assert capsys.readouterr().out == "OK\n"
