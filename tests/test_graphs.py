"""Generators, products, predicates, expression parsing, file format."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from hfrac import graphs
from hfrac.cli import main
from hfrac.errors import GraphParseError, GuardExceeded, PreconditionError
from hfrac.graphs import (
    DEFAULT_MAX_VERTICES,
    Graph,
    alon,
    bit_rows,
    complement,
    complete,
    cycle,
    edge_text,
    empty,
    format_graph,
    generate,
    graph_from_edges,
    is_clique,
    is_independent_set,
    is_prime,
    johnson,
    lex_product,
    parse_expr,
    read_graph_file,
    strong_product,
    subset_incidence,
    universal_graph,
    universal_vertex_count,
    write_graph_file,
)
from hfrac.minrank import graph_hash
from hfrac.serialize import excerpt
from oracles import (
    argwhere_edge_array,
    argwhere_edge_text,
    bitloop_adjacency_matrix,
    bitloop_complement,
    bitloop_edges,
    bitloop_lex_product,
    bitloop_strong_product,
    edge_loop_read_graph_file,
    fstring_format_graph,
    packbits_bit_rows,
    pair_loop_universal_graph,
    random_graph,
    set_intersection_subset_graph,
    trial_division_is_prime,
)


def test_cycle_basics():
    c5 = cycle(5)
    assert c5.n == 5 and c5.m == 5
    a = c5.matrix
    assert np.array_equal(a, a.T)
    assert c5.matrix[0, 1] and not c5.matrix[0, 2]


@pytest.mark.parametrize("matrix, message", [
    (np.array([[0, 1], [0, 0]], dtype=bool), r"not symmetric: entries \(0, 1\) and \(1, 0\) differ"),
    (np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=bool), "loop at vertex 2"),
    (np.zeros((2, 3), dtype=bool), r"must be square, got shape \(2, 3\)"),
    (np.zeros(3, dtype=bool), r"must be square, got shape \(3,\)"),
    (np.array([[0, 1], [1, 0]]), "must be boolean, got dtype int"),
])
def test_constructor_refuses_a_defective_matrix(matrix, message):
    with pytest.raises(ValueError, match=message):
        Graph(matrix)


def test_constructor_keeps_the_matrix_read_only_and_compares_by_it():
    mat = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
    g = Graph(mat, expr="path")
    assert g.n == 3 and g.m == 2 and b"".join(edge_text(g, b",;")) == b"0,1;1,2;"
    assert g.matrix is mat and not mat.flags.writeable
    assert g.adj == (0b010, 0b101, 0b010) and g.adj is g.adj
    h = graph_from_edges(3, [(1, 2), (0, 1)])
    assert g == h and hash(g) == hash(h) and len({g, h}) == 1  # expr is not compared
    assert g != complement(h) and g != empty(3) and g != cycle(3) and g != empty(4)


def test_johnson_2_4_is_empty():
    g = johnson(2, 4)
    assert g.n == 4 and g.m == 0
    # oracle: all pairs of distinct 3-subsets of [4] intersect in exactly 2
    for x, y in combinations(combinations(range(4), 3), 2):
        assert len(set(x) & set(y)) == 2


def test_alon_2_3_7_counts_match_exhaustive_oracle():
    g = alon(2, 3, 7)
    assert g.n == 21
    subsets = list(combinations(range(7), 5))
    expected = sum(
        1
        for x, y in combinations(subsets, 2)
        if len(set(x) & set(y)) % 2 == 1  # -1 mod 2
    )
    assert g.m == expected == 105


def test_johnson_adjacency_matches_labels():
    # the label of vertex i is the i-th itertools.combinations(range(6), 3)
    g = johnson(2, 6)
    labels = [set(x) for x in combinations(range(6), 3)]
    assert g.n == len(labels)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            expected = len(labels[u] & labels[v]) % 2 != 0
            assert g.matrix[u, v] == expected


def test_subset_vertex_order_is_lexicographic():
    # vertex i is the i-th itertools.combinations(range(n), size)
    for g, n, size, adjacent in ((johnson(3, 7), 7, 4, lambda c: c % 3 != 0),
                                 (alon(2, 3, 7), 7, 5, lambda c: c % 2 == 1)):
        subsets = [set(x) for x in combinations(range(n), size)]
        assert g.n == len(subsets)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert g.matrix[u, v] == adjacent(len(subsets[u] & subsets[v])), (g.expr, u, v)


def test_complement_examples():
    assert complement(empty(4)).adj == complete(4).adj
    c7 = cycle(7)
    assert complement(complement(c7)).adj == c7.adj
    cc5 = complement(cycle(5))
    assert cc5.n == 5 and cc5.m == 5  # self-complementary


def test_strong_product_c5_c5():
    g = strong_product(cycle(5), cycle(5))
    assert g.n == 25 and g.m == 100
    assert all(d == 8 for d in g.degrees)
    # oracle: adjacency from coordinate rule
    c5 = cycle(5)
    for a in range(25):
        for b in range(a + 1, 25):
            u1, u2 = divmod(a, 5)
            v1, v2 = divmod(b, 5)
            expected = (u1 == v1 or c5.matrix[u1, v1]) and (u2 == v2 or c5.matrix[u2, v2])
            assert g.matrix[a, b] == expected


def test_strong_product_identity_and_empty():
    h = cycle(6)
    assert strong_product(complete(1), h).adj == h.adj
    assert strong_product(empty(2), empty(3)).adj == empty(6).adj


def test_lex_product_examples():
    g = lex_product(cycle(5), empty(2))
    assert g.n == 10 and g.m == 20
    h = cycle(6)
    assert lex_product(h, complete(1)).adj == h.adj


def test_lex_complement_identity():
    g, h = cycle(5), empty(2)
    assert complement(lex_product(g, h)).adj == lex_product(complement(g), complement(h)).adj
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6))
        h = random_graph(rng, rng.randint(2, 6))
        assert complement(lex_product(g, h)).adj == lex_product(complement(g), complement(h)).adj


def test_product_cardinalities():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6))
        h = random_graph(rng, rng.randint(2, 6))
        assert strong_product(g, h).n == g.n * h.n
        assert lex_product(g, h).n == g.n * h.n


def test_universal_graph_counts():
    assert universal_graph(2, 2, 1).n == 6
    assert universal_graph(2, 3, 1).n == 28


def test_universal_vertex_count_is_the_closed_form():
    for p, n, d in ((2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 4, 1)):
        assert universal_vertex_count(p, n, d) == universal_graph(p, n, d).n, (p, n, d)
    assert universal_vertex_count(2, 11, 1) == 2_096_128
    with pytest.raises(GuardExceeded):
        universal_graph(2, 4, 1, max_vertices=119)  # it has 120 vertices


@pytest.mark.parametrize("p, n, d", [(2, 2, 1), (2, 3, 1), (2, 4, 1), (2, 2, 2), (3, 2, 1), (2, 3, 2)])
def test_universal_graph_matches_the_pair_loop(p, n, d):
    assert universal_graph(p, n, d) == pair_loop_universal_graph(p, n, d)


def test_universal_graph_nonadjacency_rule():
    # over GF(2) with n = 2, d = 1 the matrices in code order are 00, 10,
    # 01, 11 (the first entry least significant), and the pairs (A, B)
    # with AᵀB = 1 in order: (10,10), (10,11), (01,01), (01,11), (11,10),
    # (11,01); (e1, e1) and (e2, e2) are vertices 0 and 2
    g = universal_graph(2, 2, 1)
    assert not g.matrix[0, 2] and is_independent_set(g, [0, 2])


def test_independent_set_and_clique_predicates():
    c5 = cycle(5)
    assert is_independent_set(c5, {0, 2})
    assert not is_independent_set(c5, {0, 1})
    assert is_clique(complete(4), [0, 1, 2])
    assert is_clique(c5, [0, 1])
    assert not is_clique(c5, [0, 1, 2])
    with pytest.raises(ValueError):
        is_independent_set(c5, [7])


def test_coded_diagonal_in_strong_square():
    g = strong_product(cycle(5), cycle(5))
    assert not is_independent_set(g, [i * 5 + i for i in range(5)])
    assert is_independent_set(g, [i * 5 + (2 * i) % 5 for i in range(5)])


@pytest.mark.parametrize("p,n", [(2, 4), (2, 8), (3, 5)])
def test_johnson_block_independent_set(p, n):
    # blocks of size p+2 give an independent set of size n
    assert n % (p + 2) == 0
    g = johnson(p, n)
    index = {x: i for i, x in enumerate(combinations(range(n), p + 1))}  # the vertex order
    verts = []
    for b in range(n // (p + 2)):
        block = range(b * (p + 2), (b + 1) * (p + 2))
        verts.extend(index[x] for x in combinations(block, p + 1))
    assert len(verts) == n
    assert is_independent_set(g, verts)


def test_parse_roundtrip_and_errors():
    expr = parse_expr("strong(complement(cycle:5),lex(empty:2,complete:3))")
    assert str(expr) == "strong(complement(cycle:5),lex(empty:2,complete:3))"
    assert generate(expr).n == 5 * 6
    for bad in ["", "cycle", "cycle:", "unknown:3", "strong(cycle:5)", "cycle:5)", "johnson:4,6"]:
        with pytest.raises((GraphParseError, PreconditionError)):
            generate(bad)
    # parameters are ASCII digits: str.isdigit also holds for superscripts
    # (int() refused them with a ValueError) and other scripts' digits
    # and carry no sign, as graph files and command-line integers do not
    for bad in ["cycle:\u00b2", "cycle:\u0665", "johnson:2,\u00b9\u2070", "cycle:+5", "cycle:-5", "johnson:2,+8"]:
        with pytest.raises(GraphParseError):
            generate(bad)


def test_guards():
    with pytest.raises(GuardExceeded):
        generate("complete:100", max_vertices=50)
    with pytest.raises(GuardExceeded):
        universal_graph(2, 6, 2)  # 2^24 candidate pairs exceeds the cap
    with pytest.raises(PreconditionError):
        johnson(4, 8)  # 4 is not prime
    with pytest.raises(PreconditionError):
        alon(2, 4, 7)  # q not prime


def test_graph_file_roundtrip(tmp_path):
    g = strong_product(cycle(5), cycle(3))
    path = tmp_path / "g.txt"
    write_graph_file(g, str(path))
    h = read_graph_file(str(path))
    assert h.adj == g.adj
    assert generate(f"file:{path}").adj == g.adj


def test_graph_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n1 0\n")  # u >= v
    with pytest.raises(GraphParseError):
        read_graph_file(str(path))
    path.write_text("2 2\n0 1\n0 1\n")  # duplicate
    with pytest.raises(GraphParseError):
        read_graph_file(str(path))
    with pytest.raises(GraphParseError):
        read_graph_file(str(tmp_path / "missing.txt"))
    path.write_text("-1 0\n")
    with pytest.raises(GraphParseError):
        read_graph_file(str(path))


@pytest.mark.parametrize("text, message", [
    ("3 1\n0 x\n", "graph file token 'x' is not ASCII decimal digits"),
    ("-2 0\n", "graph file token '-2' is not ASCII decimal digits"),
    ("3 2\n0 1\n", "expected 2 edges (6 integers), found 4 integers"),
    ("3 1\n0 1\n1\n", "expected 1 edges (4 integers), found 5 integers"),
    ("3 1\n0 1 5\n", "expected 1 edges (4 integers), found 5 integers"),  # an odd count, one line
    ("3 2\n0 1\n2 1\n", "edge (2, 1) violates 0 <= u < v < n"),
    ("3 1\n1 1\n", "edge (1, 1) violates 0 <= u < v < n"),
    ("3 2\n0 1\n1 3\n", "edge (1, 3) violates 0 <= u < v < n"),
    ("3 2\n-1 1\n0 1\n", "graph file token '-1' is not ASCII decimal digits"),
    ("3 3\n0 1\n0 2\n0 1\n", "duplicate edge (0, 1)"),
    ("3 2\n0 1\n0 99999999999999999999\n", "edge (0, 99999999999999999999) violates 0 <= u < v < n"),
    ("3 1\n-99999999999999999999 1\n", "graph file token '-99999999999999999999' is not ASCII decimal digits"),
    # the first defect in file order is reported, whichever check finds it
    ("4 3\n0 1\n3 2\n0 1\n", "edge (3, 2) violates 0 <= u < v < n"),
    ("4 3\n0 1\n0 1\n3 2\n", "duplicate edge (0, 1)"),
    ("4 3\n0 1\n0 1\n0 99999999999999999999\n", "duplicate edge (0, 1)"),
    ("3 1\n0 \u00e9\n", "graph file token '\u00e9' is not ASCII decimal digits"),
    # text that int() reads but write_graph_file never writes: a sign, a
    # non-ASCII digit or space, an underscore
    ("3 1\n+0 2\n", "graph file token '+0' is not ASCII decimal digits"),
    ("3 1\n0 \u0662\n", "graph file token '\u0662' is not ASCII decimal digits"),
    ("3\u00a01\n0 2\n", "graph file token '3\\xa01' is not ASCII decimal digits"),
    ("3 2\n0 1\n1 0_2\n", "graph file token '0_2' is not ASCII decimal digits"),
    # texts of ASCII digits and whitespace, which numpy reads: the defect
    # walker names the defect of every one its checks refuse
    ("", "graph file needs a header 'n m'"),
    ("   \n", "graph file needs a header 'n m'"),  # numpy reads [0]
    ("\t\r\n", "graph file needs a header 'n m'"),
    ("3", "graph file needs a header 'n m'"),
    ("3 0\n0\n", "expected 0 edges (2 integers), found 3 integers"),
    ("3 2\n0 2\n1\n", "expected 2 edges (6 integers), found 5 integers"),  # 2m set entries
    ("3 2\n0 1", "expected 2 edges (6 integers), found 4 integers"),
    ("3 1\n0 3", "edge (0, 3) violates 0 <= u < v < n"),
    ("3\t2\r\n0\t1\r\n0\t1", "duplicate edge (0, 1)"),
    ("003 02\n00 01\n002 01\n", "edge (2, 1) violates 0 <= u < v < n"),
    # numpy reads a value above 2^63 - 1 as 2^63 - 1
    ("3 1\n0 9223372036854775807\n", "edge (0, 9223372036854775807) violates 0 <= u < v < n"),
    ("3 1\n0 9223372036854775808\n", "edge (0, 9223372036854775808) violates 0 <= u < v < n"),
    ("3 1\n9223372036854775807 1\n", "edge (9223372036854775807, 1) violates 0 <= u < v < n"),
    ("3 10000000000000000000\n0 1\n",
     "expected 10000000000000000000 edges (20000000000000000002 integers), found 4 integers"),
    ("3 9223372036854775807\n0 1\n",
     "expected 9223372036854775807 edges (18446744073709551616 integers), found 4 integers"),
])
def test_graph_file_defects_are_named(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GraphParseError) as exc:
        read_graph_file(str(path))
    assert str(exc.value) == message


_LONG = "7" * 4301  # one digit more than int() converts


@pytest.mark.parametrize("text, error, message", [
    (f"{_LONG} 0\n", GuardExceeded, f"graph file {{path}} would have {excerpt(_LONG)} vertices (cap 5000)"),
    (f"3 {_LONG}\n0 1\n", GraphParseError, f"expected {excerpt(_LONG)} edges, found 4 integers"),
    (f"3 1\n0 {_LONG}\n", GraphParseError, f"edge (0, {excerpt(_LONG)}) violates 0 <= u < v < n"),
    (f"3 2\n0 1\n{_LONG} 2\n", GraphParseError, f"edge ({excerpt(_LONG)}, 2) violates 0 <= u < v < n"),
    # leading zeros are not digits of the value
    ("3 1\n2 " + "0" * 5000 + "2\n", GraphParseError, "edge (2, 2) violates 0 <= u < v < n"),
], ids=["header", "count", "edge-end", "edge-start", "leading-zeros"])
def test_a_value_too_long_for_int_is_named(tmp_path, text, error, message):
    # each failed "non-integer token in graph file: Exceeds the limit (4300
    # digits) for integer string conversion ..."
    path = tmp_path / "long.txt"
    path.write_text(text)
    with pytest.raises(error) as exc:
        read_graph_file(str(path))
    assert str(exc.value) == message.format(path=path)


def test_a_graph_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    # a byte outside ASCII refuses the file before any decoding (it once
    # escaped as a UnicodeDecodeError with a traceback)
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 1\n0 \xff\n")
    with pytest.raises(GraphParseError) as exc:
        read_graph_file(str(path))
    assert str(exc.value) == "graph file token '\\\\xff' is not ASCII decimal digits"
    assert main(["alpha", "--graph", f"file:{path}"]) == 64
    assert capsys.readouterr().err == "usage error: graph file token '\\\\xff' is not ASCII decimal digits\n"


def test_a_written_graph_file_never_reaches_the_defect_walker(tmp_path, monkeypatch):
    def walked(*args):
        raise AssertionError("the defect walker read a written file")

    monkeypatch.setattr(graphs, "_refuse", walked)
    rng = random.Random(5)
    path = tmp_path / "g.txt"
    for g in (Graph(np.zeros((0, 0), dtype=bool)), empty(1), empty(4), cycle(5), complete(12),
              johnson(2, 8), random_graph(rng, 40), cycle(1200)):
        write_graph_file(g, str(path))
        assert read_graph_file(str(path)) == g


# tokens of 19 and 20 digits, which numpy reads as 2^63 - 1
_HUGE = (2**63 - 1, 2**63, 10**19, 10**20 - 1)


@st.composite
def graph_files(draw):
    """An ``n m`` header and m edge lines, each pair drawn from a few
    values around the vertex range, so that some files are defective.

    The layout is drawn too: spaces or tabs, LF or CRLF line ends,
    leading zeros, and a last line with or without its newline.  The
    header may be out of range, and some texts are whitespace alone.
    Returns the text and a vertex cap, which n may meet or exceed by one."""
    n = draw(st.integers(0, 9))
    # a negative value has a sign, a byte the reader refuses as the oracle does
    vertex = st.one_of(st.integers(-2, n + 1), st.sampled_from((-2**63 - 1, *_HUGE)))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    if draw(st.booleans()):  # a valid graph, edges in a drawn order
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.permutations(pairs))[:draw(st.integers(0, len(pairs)))]
    header = (n, len(edges))
    if draw(st.integers(0, 7)) == 0:
        header = (draw(st.sampled_from((n, *_HUGE))), draw(st.sampled_from((len(edges), *_HUGE))))
    width = draw(st.sampled_from((0, 0, 2, 3)))  # zero-padded to this width
    sep, eol = draw(st.sampled_from((" ", "\t", " \t "))), draw(st.sampled_from(("\n", "\r\n")))
    text = eol.join(sep.join(f"{x:0{width}d}" for x in row) for row in (header, *edges))
    if draw(st.booleans()):
        text += eol
    if draw(st.integers(0, 7)) == 0:
        text = draw(st.sampled_from(("", " ", "   \n", "\t\r\n")))
    cap = draw(st.sampled_from((n - 1, n))) if draw(st.integers(0, 3)) == 0 else DEFAULT_MAX_VERTICES
    return text, cap


@settings(max_examples=300, deadline=None)
@given(graph_files())
def test_graph_files_read_as_the_edge_loop_reads_them(tmp_path_factory, text_cap):
    text, cap = text_cap
    path = tmp_path_factory.mktemp("files") / "g.txt"
    path.write_bytes(text.encode())
    try:
        expected = edge_loop_read_graph_file(str(path), cap)
    except (GraphParseError, GuardExceeded) as exc:
        with pytest.raises(type(exc)) as got:
            read_graph_file(str(path), cap)
        assert str(got.value) == str(exc)
    else:
        g = read_graph_file(str(path), cap)
        assert g == expected and np.array_equal(g.matrix, bitloop_adjacency_matrix(g))


def test_adjacency_matrix_is_built_once_and_read_only(tmp_path):
    path = tmp_path / "g.txt"
    write_graph_file(cycle(5), str(path))
    for g in (cycle(5), read_graph_file(str(path))):
        a = g.matrix
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 2] = True
        assert np.array_equal(a, bitloop_adjacency_matrix(cycle(5)))


def test_graph_file_obeys_the_vertex_cap(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("100000000 0\n")
    with pytest.raises(GuardExceeded):
        read_graph_file(str(path))
    with pytest.raises(GuardExceeded):
        generate(f"complement(file:{path})")
    path.write_text("30 1\n0 29\n")
    assert generate(f"file:{path}").m == 1
    with pytest.raises(GuardExceeded):
        generate(f"file:{path}", max_vertices=29)
    path.write_text("6000 1\n0 5999\n")
    with pytest.raises(GuardExceeded):
        generate(f"file:{path}")
    assert format_graph(generate(f"file:{path}", max_vertices=6000)) == "6000 1\n0 5999\n"


def test_empty_graph_file(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("0 0\n")
    g = read_graph_file(str(path))
    assert g.n == 0 and list(edge_text(g, b" \n")) == [] and format_graph(g) == "0 0\n"
    assert g.matrix.shape == (0, 0)


def test_product_vertex_u_x_is_u_times_h_n_plus_x():
    rng = random.Random(12)
    for _ in range(10):
        g, h = random_graph(rng, rng.randint(1, 5)), random_graph(rng, rng.randint(1, 5))
        strong, lex = strong_product(g, h), lex_product(g, h)
        for (u, x), (v, y) in combinations([(u, x) for u in range(g.n) for x in range(h.n)], 2):
            a, b = u * h.n + x, v * h.n + y
            gu, hx = g.matrix[u, v], h.matrix[x, y]
            assert strong.matrix[a, b] == ((u == v or gu) and (x == y or hx))
            assert lex.matrix[a, b] == (gu or (u == v and hx))


@st.composite
def random_graphs(draw, max_n=41):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    prob = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return graph_from_edges(n, [e for e in pairs if rng.random() < prob])


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_dense_views_match_the_bit_loops(g):
    a = g.matrix
    assert a.dtype == bool and a.shape == (g.n, g.n)
    assert np.array_equal(a, bitloop_adjacency_matrix(g))
    assert argwhere_edge_array(a).tolist() == bitloop_edges(g)
    assert b"".join(edge_text(g, b",;")) == argwhere_edge_text(a, b",;")
    assert complement(complement(g)) == g


@settings(max_examples=200, deadline=None)
@given(random_graphs(max_n=70))
def test_degrees_and_degree_order_match_the_bit_counts(g):
    degrees = tuple(row.bit_count() for row in g.adj)
    assert g.degrees == degrees
    assert all(type(d) is int for d in g.degrees)
    assert g.degree_order == tuple(sorted(range(g.n), key=lambda v: (-degrees[v], v)))


@pytest.mark.parametrize("columns", [0, 1, 63, 64, 65, 200])
def test_bit_rows_match_the_packed_bytes(columns):
    # rows of at most 64 columns are one uint64 product; the top bit of
    # a 64-column row is bit 63 and must not wrap or go negative
    rng = np.random.default_rng(columns)
    for rows in (0, 1, 7):
        for prob in (0.0, 0.3, 0.9, 1.0):
            mat = rng.random((rows, columns)) < prob
            got = bit_rows(mat)
            assert got == packbits_bit_rows(mat)
            assert all(type(x) is int for x in got)
    # a non-contiguous view, as the relabelled searches pass
    mat = rng.random((9, columns + 3)) < 0.5
    view = mat[::-1, 3:]
    assert bit_rows(view) == packbits_bit_rows(np.ascontiguousarray(view))


@st.composite
def symmetric_matrices(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(("random", "empty", "complete")))
    if kind == "empty":
        return np.zeros((n, n), dtype=bool)
    if kind == "complete":
        return ~np.eye(n, dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < draw(st.sampled_from((0.1, 0.5, 0.9))), 1)
    return upper | upper.T


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_edge_array_matches_argwhere(matrix):
    # the edge text, as the graph file writes it, against the argwhere pairs
    got = b"".join(edge_text(Graph(matrix), b" \n"))
    assert got == argwhere_edge_text(matrix, b" \n")
    assert got.count(b"\n") == int(matrix.sum()) // 2


def test_edge_array_strategy_reaches_the_edge_cases():
    find(symmetric_matrices(), lambda m: m.shape == (0, 0))
    find(symmetric_matrices(), lambda m: m.shape == (1, 1))
    find(symmetric_matrices(), lambda m: m.shape[0] > 1 and not m.any())
    find(symmetric_matrices(), lambda m: m.shape[0] > 1 and m.sum() == m.shape[0] * (m.shape[0] - 1))
    find(symmetric_matrices(), lambda m: 0 < m.sum() < m.shape[0] * (m.shape[0] - 1))


@st.composite
def text_graphs(draw):
    """Graphs whose vertex ids have up to four digits (n crossing 10, 100
    and 1000, and n = 0 and 1), edgeless, complete or random, with about
    2,000 edges at most so that the f-string oracle stays quick; and a row
    block of one cell (one row per block), a few rows or the default."""
    n = draw(st.one_of(st.sampled_from((0, 1, 2, 10, 11, 100, 101, 1000, 1001)), st.integers(0, 120)))
    kind = draw(st.sampled_from(("empty", "complete", "random")) if n <= 60 else st.sampled_from(("empty", "random")))
    if kind == "empty":
        matrix = np.zeros((n, n), dtype=bool)
    elif kind == "complete":
        matrix = ~np.eye(n, dtype=bool)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        prob = draw(st.sampled_from((0.05, 0.5, 1.0))) * min(1.0, 4000 / max(n * n, 1))
        upper = np.triu(rng.random((n, n)) < prob, 1)
        matrix = upper | upper.T
    cells = draw(st.sampled_from((1, 5 * max(n, 1), graphs._TEXT_BLOCK_CELLS)))
    return Graph(matrix), cells


@settings(max_examples=60, deadline=None)
@given(text_graphs())
def test_edge_text_graph_hash_and_format_graph_match_the_argwhere_text(case):
    g, cells = case
    with mock.patch.object(graphs, "_TEXT_BLOCK_CELLS", cells):
        blocks = list(edge_text(g, b",;"))
        text = argwhere_edge_text(g.matrix, b",;")
        assert b"".join(blocks) == text and all(blocks)
        assert graph_hash(g) == hashlib.sha256(f"{g.n};".encode() + text[:-1]).hexdigest()
        assert format_graph(g) == f"{g.n} {g.m}\n" + argwhere_edge_text(g.matrix, b" \n").decode()


def test_edge_text_strategy_reaches_every_id_width_and_block_count():
    find(text_graphs(), lambda c: c[0].n == 0)
    find(text_graphs(), lambda c: c[0].n == 1)
    find(text_graphs(), lambda c: c[0].n > 1000 and c[0].m > 0)
    find(text_graphs(), lambda c: c[0].n > 100 and c[0].m == 0)
    # one row per block on a graph whose last rows hold no edge of the
    # upper triangle, so that the last blocks are empty
    find(text_graphs(), lambda c: c[1] == 1 and c[0].m > 0 and not c[0].matrix[-2:].any())


def test_dense_views_at_every_size_mod_8():
    rng = random.Random(8)
    for n in range(0, 34):
        for prob in (0.0, 0.3, 1.0):
            g = random_graph(rng, n, prob)
            assert np.array_equal(g.matrix, bitloop_adjacency_matrix(g))
            assert argwhere_edge_array(g.matrix).tolist() == bitloop_edges(g)
            assert b"".join(edge_text(g, b",;")) == argwhere_edge_text(g.matrix, b",;")


@pytest.mark.parametrize("p,q,n", [
    (2, None, 3), (2, None, 4), (2, None, 8), (2, None, 11), (2, None, 18),
    (3, None, 4), (3, None, 7), (3, None, 10),
    (257, None, 259),  # intersection sizes of 257 do not fit in a byte
    (2, 3, 5), (2, 3, 7), (2, 3, 8), (2, 2, 6), (2, 2, 7), (2, 2, 8), (3, 2, 8),
])
def test_subset_graphs_match_the_set_intersection_loop(p, q, n):
    if q is None:
        g, size, adjacent = johnson(p, n), p + 1, lambda c: c % p != 0
    else:
        g, size, adjacent = alon(p, q, n), p * q - 1, lambda c: c % p == p - 1
    oracle = set_intersection_subset_graph(n, size, adjacent)
    assert g.adj == oracle.adj
    assert np.array_equal(g.matrix, bitloop_adjacency_matrix(g))
    assert argwhere_edge_array(g.matrix).tolist() == bitloop_edges(g)
    assert b"".join(edge_text(g, b",;")) == argwhere_edge_text(g.matrix, b",;")


@pytest.mark.parametrize("block_entries", [1, 200])
def test_subset_graphs_do_not_depend_on_the_block_size(monkeypatch, block_entries):
    expected = {expr: generate(expr).adj for expr in ("johnson:2,8", "johnson:3,7", "alon:2,3,7")}
    monkeypatch.setattr(graphs, "_SUBSET_BLOCK_ENTRIES", block_entries)
    for expr, adj in expected.items():
        assert generate(expr).adj == adj


@pytest.mark.parametrize("n, size", [(3, 3), (5, 3), (7, 5), (6, 0)])
def test_subset_incidence_lists_the_subsets_in_vertex_order(n, size):
    inc = subset_incidence(n, size)
    assert inc.tolist() == [[int(j in x) for j in range(n)] for x in combinations(range(n), size)]


def test_subset_graph_ground_set_is_capped():
    # one vertex, but its incidence row would hold 10^6 + 4 entries
    with pytest.raises(GuardExceeded):
        johnson(1_000_003, 1_000_004)
    assert johnson(2, 3).n == 1


def test_is_prime_matches_trial_division():
    assert [p for p in range(10**5) if is_prime(p)] == [p for p in range(10**5) if trial_division_is_prime(p)]


def test_is_prime_rejects_strong_pseudoprimes_and_refuses_huge_inputs():
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(3825123056546413051)  # strong pseudoprime to bases 2 through 37
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    # the least strong pseudoprime to all 13 bases: no answer at or above it
    with pytest.raises(GuardExceeded):
        is_prime(3317044064679887385961981)
    with pytest.raises(GuardExceeded):
        is_prime(2**127 - 1)


def test_format_graph_matches_the_fstring_loop(tmp_path):
    path = tmp_path / "random.txt"
    write_graph_file(random_graph(random.Random(7), 23, 0.4), str(path))
    for expr in ("johnson:2,9", "cycle:5", "empty:3", f"file:{path}", "complete:1", "strong(cycle:5,cycle:7)"):
        g = generate(expr)
        assert format_graph(g) == fstring_format_graph(g), expr
        copy = tmp_path / "copy.txt"
        write_graph_file(g, str(copy))
        assert read_graph_file(str(copy)) == g


@st.composite
def small_graphs(draw):
    """A graph of 1 to 7 vertices: a random one, or one from an expression
    (a subset graph, nested products, and one-vertex factors among them)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return graph_from_edges(n, [e for e in pairs if draw(st.booleans())])
    return generate(draw(st.sampled_from((
        "complete:1", "empty:1", "empty:2", "complete:3", "cycle:5", "cycle:7", "johnson:2,4",
        "complement(johnson:2,4)", "strong(complete:1,cycle:3)", "lex(empty:2,complete:3)",
        "strong(complete:2,lex(empty:1,cycle:3))", "lex(strong(empty:1,complete:2),empty:3)",
    ))))


@settings(max_examples=300, deadline=None)
@given(small_graphs(), small_graphs())
def test_builders_match_the_bit_loops(g, h):
    for got, want in ((complement(g), bitloop_complement(g)),
                      (strong_product(g, h), bitloop_strong_product(g, h)),
                      (lex_product(g, h), bitloop_lex_product(g, h))):
        assert got.adj == want.adj and got.expr == want.expr
