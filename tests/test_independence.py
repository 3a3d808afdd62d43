"""Exact stable sets, clique covers, and the weighted oracle."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfrac import independence
from hfrac.budget import Budget
from hfrac.errors import BudgetExhausted, SearchCutoff
from hfrac.graphs import (
    complement,
    complete,
    cycle,
    empty,
    generate,
    graph_from_edges,
    is_clique,
    is_independent_set,
    lex_product,
    strong_product,
)
from hfrac.independence import (
    CliqueCover,
    alpha,
    alpha_lower_end,
    clique_cover_leq,
    clique_cover_violation,
    greedy_clique_cover,
    max_weight_independent_set,
)
from oracles import first_fit_clique_cover, maximal_cliques, random_graph, recursive_clique_cover_leq


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def weighted_graphs(draw):
    g = draw(small_graphs())
    weight = st.one_of(st.just(0), st.integers(0, 72))
    return g, draw(st.lists(weight, min_size=g.n, max_size=g.n))


def stable_sets(g):
    for size in range(g.n + 1):
        for s in combinations(range(g.n), size):
            if is_independent_set(g, s):
                yield s


def alpha_bruteforce(g):
    best = 0
    for size in range(g.n, -1, -1):
        for s in combinations(range(g.n), size):
            if is_independent_set(g, s):
                return size
    return best


def test_alpha_examples():
    size, witness = alpha(cycle(5))
    assert size == 2 and is_independent_set(cycle(5), witness)
    g = strong_product(cycle(5), cycle(5))
    size, witness = alpha(g)
    assert size == 5 and is_independent_set(g, witness)


def test_alpha_matches_bruteforce_on_small_graphs():
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert alpha(g)[0] == alpha_bruteforce(g)


def test_alpha_budget_cutoff_carries_interval():
    g = generate("johnson:2,10")
    with pytest.raises(SearchCutoff) as info:
        alpha(g, Budget(nodes=40))
    cut = info.value
    assert cut.lower <= cut.upper
    assert is_independent_set(g, cut.witness)
    assert len(cut.witness) == cut.lower
    # the cutoff interval must bracket the exact value (known for C5 x C5)
    g2 = strong_product(cycle(5), cycle(5))
    with pytest.raises(SearchCutoff) as info2:
        alpha(g2, Budget(nodes=3))
    assert info2.value.lower <= 5 <= info2.value.upper


def test_alpha_lower_end_is_alpha_or_the_cutoff_lower_end():
    g = generate("johnson:2,10")
    assert alpha_lower_end(g, Budget()) == alpha(g)
    with pytest.raises(SearchCutoff) as info:
        alpha(g, Budget(nodes=40))
    assert alpha_lower_end(g, Budget(nodes=40)) == (info.value.lower, info.value.witness)
    budget = Budget(nodes=0)  # trips at the root, before any witness is found
    lower, witness = alpha_lower_end(empty(3), budget)
    assert budget.exhausted and is_independent_set(empty(3), witness) and len(witness) == lower


def test_max_weight_independent_set():
    c5 = cycle(5)
    _, w = max_weight_independent_set(c5, [1] * 5)
    assert w == 2 and type(w) is int
    verts, w = max_weight_independent_set(c5, [0, 1, 0, 0, 0])
    assert w == 1 and 1 in verts
    with pytest.raises(ValueError):
        max_weight_independent_set(c5, [-1] * 5)


@pytest.mark.parametrize("weight", [F(1), F(1, 2), 1.0, True])
def test_max_weight_independent_set_refuses_a_weight_that_is_not_an_int(weight):
    with pytest.raises(ValueError, match="weights must be nonnegative ints"):
        max_weight_independent_set(cycle(5), [1, 1, weight, 1, 1])


def test_max_weight_matches_unweighted_alpha():
    rng = random.Random(22)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8))
        _, w = max_weight_independent_set(g, [1] * g.n)
        assert w == alpha(g)[0]


def test_clique_cover_examples():
    assert clique_cover_leq(complete(4), 1).classes == ((0, 1, 2, 3),)
    cover = clique_cover_leq(cycle(5), 3)
    assert cover is not None and clique_cover_violation(cycle(5), cover) is None
    sizes = sorted(len(c) for c in cover.classes)
    assert sizes == [1, 2, 2]  # two edges and one vertex
    assert clique_cover_leq(cycle(5), 2) is None


def test_clique_cover_violations_reported():
    c5 = cycle(5)
    assert clique_cover_violation(c5, CliqueCover(((0, 1, 2), (3, 4)))) is not None  # not a clique
    assert clique_cover_violation(c5, CliqueCover(((0, 1), (3, 4)))) is not None  # misses vertex 2
    assert clique_cover_violation(c5, CliqueCover(((0, 1), (1, 2), (3, 4)))) is not None  # reuse


def test_greedy_cover_is_valid_and_bounds_alpha():
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9))
        cover = greedy_clique_cover(g)
        assert clique_cover_violation(g, cover) is None
        assert len(cover) >= alpha(g)[0]


def test_alpha_multiplicative_under_lex():
    rng = random.Random(24)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 5))
        h = random_graph(rng, rng.randint(2, 5))
        assert alpha(lex_product(g, h))[0] == alpha(g)[0] * alpha(h)[0]


def test_alpha_strong_with_complement_diagonal():
    rng = random.Random(25)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 5))
        prod = strong_product(g, complement(g))
        diag = [i * g.n + i for i in range(g.n)]
        assert is_independent_set(prod, diag)
        assert alpha(prod)[0] >= g.n


def test_maximal_cliques_bruteforce():
    rng = random.Random(26)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7))
        found = set(maximal_cliques(g))
        # oracle: a set is a maximal clique iff clique and no strict clique superset
        expected = set()
        for size in range(1, g.n + 1):
            for s in combinations(range(g.n), size):
                if not is_clique(g, s):
                    continue
                if any(is_clique(g, set(s) | {v}) for v in range(g.n) if v not in s):
                    continue
                expected.add(s)
        assert found == expected


def test_greedy_cover_classes_are_pinned():
    expected = {
        "strong(cycle:5,cycle:5)": (
            (0, 1, 5, 6), (2, 3, 7, 8), (4, 9), (10, 11, 15, 16), (12, 13, 17, 18), (14, 19),
            (20, 21), (22, 23), (24,)),
        "johnson:2,8": (
            (0, 11, 18, 27, 31, 38, 40), (1, 7, 19, 23, 32, 39, 46), (2, 6, 20, 24, 29, 42, 47),
            (3, 9, 14, 21, 35, 44, 49), (4, 8, 17, 22, 34, 45, 52), (5, 12, 16, 26, 33, 51, 53),
            (10, 13, 15, 36, 43, 50, 54), (25, 28, 30, 37, 41, 48, 55)),
        "cycle:9": ((0, 1), (2, 3), (4, 5), (6, 7), (8,)),
    }
    for expr, classes in expected.items():
        assert greedy_clique_cover(generate(expr)).classes == classes


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=12))
def test_greedy_cover_is_first_fit(g):
    assert greedy_clique_cover(g).classes == first_fit_clique_cover(g)


def _cover_or_cutoff(search, g, k, nodes):
    budget = Budget(nodes=nodes)
    try:
        return search(g, k, budget), budget.nodes
    except BudgetExhausted:
        return "cutoff", budget.nodes


@st.composite
def seeded_graphs(draw, max_n=14):
    """G(n, p) from a drawn seed: denser mixes than ``small_graphs`` draws,
    so that the colouring searches backtrack."""
    n = draw(st.integers(0, max_n))
    prob = draw(st.sampled_from((0.2, 0.35, 0.5, 0.65, 0.8)))
    return random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, prob)


def _assert_same_dsatur(g, k, nodes):
    reference = Budget()
    expected = recursive_clique_cover_leq(g, k, reference)
    # the loop may not spend more nodes than the reference did
    assert _cover_or_cutoff(clique_cover_leq, g, k, reference.nodes) == (expected, reference.nodes)
    if expected is not None:
        assert len(expected) <= k and clique_cover_violation(g, expected) is None
    # cut off anywhere in the search, both stop after the same node
    small = min(nodes, reference.nodes)
    cut = _cover_or_cutoff(clique_cover_leq, g, k, small)
    assert cut == _cover_or_cutoff(recursive_clique_cover_leq, g, k, small)
    if small < reference.nodes:
        assert cut == ("cutoff", small + 1)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_graphs(max_n=14), seeded_graphs()), st.integers(1, 200))
def test_dsatur_loop_retraces_the_recursive_search(g, nodes):
    for k in range(1, g.n + 1):
        _assert_same_dsatur(g, k, nodes)


def test_dsatur_loop_retraces_backtracking_searches():
    # seeded graphs until five searches have backtracked and then found a
    # cover: only those reach the colour and saturation bookkeeping of
    # undone branches in an answer
    rng = random.Random(7)
    found = 0
    while found < 5:
        g = random_graph(rng, rng.randint(9, 13), rng.choice((0.35, 0.5, 0.65)))
        for k in range(1, g.n + 1):
            _assert_same_dsatur(g, k, rng.randint(1, 300))
            budget = Budget()
            if clique_cover_leq(g, k, budget) is not None and budget.nodes > g.n + 1:
                found += 1


def test_clique_cover_of_a_large_empty_graph():
    # one class per vertex, every colour tried at every level before None
    g = empty(1200)
    assert clique_cover_leq(g, 1200).classes == tuple((v,) for v in range(1200))
    assert clique_cover_leq(g, 1199) is None


def test_alpha_on_long_cycles():
    assert alpha(cycle(1500))[0] == 750
    assert alpha(cycle(1501))[0] == 750


def test_deep_search_runs_without_recursion():
    # 400 disjoint paths u-m-v: the greedy start takes the middles (400), so
    # reaching the optimum 800 takes a search about 800 levels deep
    k = 400
    g = graph_from_edges(3 * k, [e for i in range(k) for e in ((3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2))])
    size, witness = alpha(g)
    assert size == 2 * k and len(witness) == size and is_independent_set(g, witness)


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_alpha_property(g):
    size, witness = alpha(g)
    assert size == alpha_bruteforce(g)
    assert len(witness) == size and is_independent_set(g, witness)


@settings(max_examples=150, deadline=None)
@given(weighted_graphs())
def test_max_weight_property(gw):
    g, w = gw
    best = max(sum(w[v] for v in s) for s in stable_sets(g))
    witness, weight = max_weight_independent_set(g, w)
    assert weight == best
    assert is_independent_set(g, witness) and sum(w[v] for v in witness) == weight


@settings(max_examples=150, deadline=None)
@given(weighted_graphs(), st.integers(0, 40), st.booleans())
def test_cutoff_interval_brackets_the_optimum(gw, nodes, unit):
    g, w = gw
    if unit:
        w = [1] * g.n
    best = max(sum(w[v] for v in s) for s in stable_sets(g))
    search = (lambda b: alpha(g, b)[0]) if unit else (lambda b: max_weight_independent_set(g, w, b)[1])
    try:
        assert search(Budget(nodes=nodes)) == best
    except SearchCutoff as cut:
        assert cut.lower <= best <= cut.upper
        assert is_independent_set(g, cut.witness)
        assert sum(w[v] for v in cut.witness) == cut.lower


@st.composite
def tied_weights(draw):
    """A graph on up to 40 vertices and integer weights from a pool of at
    most three values, so that most vertices tie on weight and many on
    degree as well."""
    n = draw(st.integers(0, 40))
    g = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, draw(st.sampled_from((0.1, 0.5, 0.9))))
    pool = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    return g, draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(tied_weights())
def test_the_pricing_order_is_the_weight_degree_vertex_key(gw):
    # the search's bit order, reversed, is descending weight, then
    # descending degree, then ascending vertex
    g, w = gw
    with mock.patch.object(independence, "_max_stable", wraps=independence._max_stable) as search:
        max_weight_independent_set(g, w)
    order = list(search.call_args.args[1])
    assert order == sorted(range(g.n), key=lambda v: (-w[v], -g.adj[v].bit_count(), v))[::-1]
    with mock.patch.object(independence, "_max_stable", wraps=independence._max_stable) as search:
        alpha(g)
    assert list(search.call_args.args[1]) == sorted(range(g.n), key=lambda v: (-g.adj[v].bit_count(), v))[::-1]
