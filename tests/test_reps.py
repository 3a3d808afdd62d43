"""Block certificates for the fractional bound: verification, tensoring,
cover blow-ups, span independence, interval search."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction as F
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    blockloop_drep_violation,
    drep_column_factors,
    kron_permutation_tensor,
    random_graph,
    stacked_rank,
    subspace_violation,
)

from hfrac.errors import GuardExceeded, SearchCutoff, VerificationError
from hfrac.fraccover import fractional_clique_cover
from hfrac.gfmat import KRON_ENTRY_CAP, FMatrix, rank
from hfrac.graphs import (
    Graph,
    complete,
    cycle,
    empty,
    generate,
    is_independent_set,
    strong_product,
)
from hfrac.independence import alpha, greedy_clique_cover
from hfrac.minrank import cover_certificate, minrank_exact
from hfrac.reps import (
    DRep,
    cycle_drep,
    drep_from_fractional_cover,
    drep_violation,
    hfrac_upper_search,
    tensor_dreps,
)


def drep_for(g, p=2):
    """A valid certificate for any graph: clique-partition matrix at d=1."""
    return DRep(1, cover_certificate(g, greedy_clique_cover(g), p).matrix)


def test_verify_drep_identity_on_empty_graph():
    assert drep_violation(empty(4), DRep(1, FMatrix(2, np.eye(4, dtype=np.int64)))) is None


def test_verify_drep_pinpoints_bad_block():
    c5 = cycle(5)
    rep = cycle_drep(2, 2)
    a = rep.matrix.a.copy()
    a[0, 4] = 1  # vertices 0 and 2 are non-adjacent; block (0,2) spans cols 4..5
    failure = drep_violation(c5, DRep(2, FMatrix(2, a)))
    assert failure is not None and "(0, 2)" in failure
    # off the first row and column of their blocks: blocks (1, 3) and
    # (3, 0) are both nonzero, and the first in row-major order is named
    a = rep.matrix.a.copy()
    a[3, 7] = a[7, 1] = 1
    assert drep_violation(c5, DRep(2, FMatrix(2, a))) == "nonzero block at non-edge (1, 3)"
    # a diagonal defect is reported before any non-edge block
    a[7, 6] = a[5, 4] = 1
    assert drep_violation(c5, DRep(2, FMatrix(2, a))) == "diagonal block of vertex 2 is not the identity"


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("p", [3, 257])
def test_drep_violation_finds_a_nonzero_at_every_offset_of_a_non_edge_block(d, p):
    # the identity blow-up fits every graph; one entry at offset (i, j) of
    # a non-edge block (u, v), and then a second in an earlier block, must
    # each be named as the block loop names them; p = 257 stores uint16
    g = random_graph(random.Random(d), 7, 0.4)
    base = np.eye(g.n * d, dtype=np.int64)
    non_edges = [(u, v) for u in range(g.n) for v in range(g.n) if u != v and not g.matrix[u, v]]
    assert len(non_edges) > 1
    for k, (u, v) in enumerate(non_edges):
        for i, j in product(range(d), repeat=2):
            a = base.copy()
            a[u * d + i, v * d + j] = 1 + (i + j) % (p - 1)
            rep = DRep(d, FMatrix(p, a))
            assert drep_violation(g, rep) == blockloop_drep_violation(g, rep) == f"nonzero block at non-edge ({u}, {v})"
            if k:
                a[non_edges[k - 1][0] * d + j, non_edges[k - 1][1] * d + i] = p - 1
                rep = DRep(d, FMatrix(p, a))
                assert drep_violation(g, rep) == blockloop_drep_violation(g, rep)
                assert drep_violation(g, rep) == "nonzero block at non-edge ({}, {})".format(*non_edges[k - 1])
        a = base.copy()
        a[u * d + d - 1, u * d] = 1  # an off-diagonal entry in a diagonal block comes first
        a[u * d, v * d] = 1
        rep = DRep(d, FMatrix(p, a))
        want = f"diagonal block of vertex {u} is not the identity" if d > 1 else f"nonzero block at non-edge ({u}, {v})"
        assert drep_violation(g, rep) == blockloop_drep_violation(g, rep) == want


def test_subspace_representations():
    # coordinate lines on the empty graph
    plane = np.eye(3, dtype=np.int64)
    assert subspace_violation(empty(3), [FMatrix(2, plane[:, v:v + 1]) for v in range(3)], 1) is None
    # all subspaces equal on a complete graph: no non-neighbors to avoid
    same = FMatrix(2, [[1], [0], [0]])
    assert subspace_violation(complete(3), [same] * 3, 1) is None
    # the column factors of the 5-cycle's certificate, in GF(3)^5
    factors = drep_column_factors(cycle_drep(2, 3))
    assert subspace_violation(cycle(5), factors, 2) is None
    assert {f.shape for f in factors} == {(5, 2)}


def test_subspace_violation():
    same = FMatrix(2, [[1], [0], [0]])
    assert subspace_violation(empty(3), [same] * 3, 1) == "subspace of vertex 0 meets its non-neighbors' span nontrivially"
    # a line where a plane is claimed
    line = FMatrix(3, [[1, 2], [0, 0], [1, 2]])
    assert subspace_violation(complete(1), [line], 2) == "subspace of vertex 0 has dimension below 2"


def _violation_by_enumeration(g, bases, d):
    """The subspace check by a loop over vectors: vertex v's basis has rank
    d when no nonzero coefficient vector c sends it to zero, and its space
    meets its non-neighbours' span trivially when no nonzero b_v c leaves
    the rank of that span unchanged."""
    p = bases[0].p if bases else 2
    nonzero = [np.array(c, dtype=np.int64) for c in product(range(p), repeat=d) if any(c)]
    for v, b in enumerate(bases):
        if any(not ((b.a.astype(np.int64) @ c) % p).any() for c in nonzero):
            return f"subspace of vertex {v} has dimension below {d}"
    for v, b in enumerate(bases):
        others = [bases[u] for u in range(g.n) if u != v and not g.matrix[u, v]]
        if not others:
            continue
        r = stacked_rank(others)
        for c in nonzero:
            x = FMatrix(p, ((b.a.astype(np.int64) @ c) % p)[:, None])
            if stacked_rank([*others, x]) == r:
                return f"subspace of vertex {v} meets its non-neighbors' span nontrivially"
    return None


def test_subspace_check_matches_the_pairwise_loop():
    # the stacked-rank subspace check against a loop over each vertex's
    # nonzero vectors, one span membership test per vector
    rng = random.Random(41)
    verdicts = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8)))
        p, n, d = rng.choice((2, 3)), rng.randint(1, 6), rng.randint(1, 2)
        if rng.random() < 0.3:  # valid ones, from the column factors of a certificate
            rep = drep_for(g, p)
            bases, d = drep_column_factors(rep), rep.d
        else:
            bases = tuple(FMatrix(p, [[rng.randrange(p) for _ in range(d)] for _ in range(n)])
                          for _ in range(g.n))
        verdict = subspace_violation(g, bases, d)
        assert verdict == _violation_by_enumeration(g, bases, d)
        verdicts.add(verdict if verdict is None else verdict.split()[-1])
    assert verdicts == {None, "nontrivially", str(1), str(2)}


def test_tensor_identity_certificates():
    a = DRep(1, FMatrix(2, np.eye(2, dtype=np.int64)))
    b = DRep(1, FMatrix(2, np.eye(3, dtype=np.int64)))
    t = tensor_dreps(a, b)
    assert drep_violation(empty(6), t) is None
    assert t.matrix == FMatrix(2, np.eye(6, dtype=np.int64))


def test_tensor_cycle_certificates():
    rep = cycle_drep(2, 2)
    sq = strong_product(cycle(5), cycle(5))
    t2 = tensor_dreps(rep, rep)
    assert t2.d == 4
    assert drep_violation(sq, t2) is None
    assert rank(t2.matrix) == 25
    assert t2.ratio() == rep.ratio() ** 2


def test_tensor_ratio_multiplies_on_random_certificates():
    rng = random.Random(52)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 4))
        h = random_graph(rng, rng.randint(2, 4))
        p = rng.choice((2, 3))
        rg, rh = drep_for(g, p), drep_for(h, p)
        t = tensor_dreps(rg, rh)
        assert drep_violation(strong_product(g, h), t) is None
        assert t.ratio() == rg.ratio() * rh.ratio()


@pytest.mark.parametrize("p", (2, 3, 5, 17, 257))
def test_tensor_matches_the_kron_and_permutation_oracle(p):
    rng = np.random.default_rng(p)
    for ng, d1, nh, d2 in ((2, 1, 3, 2), (3, 2, 2, 3), (1, 3, 4, 1), (4, 2, 4, 2), (5, 3, 2, 1)):
        rg = DRep(d1, FMatrix(p, rng.integers(0, p, (ng * d1, ng * d1))))
        rh = DRep(d2, FMatrix(p, rng.integers(0, p, (nh * d2, nh * d2))))
        for a, b in ((rg, rh), (rh, rg)):
            got, want = tensor_dreps(a, b), kron_permutation_tensor(a, b)
            assert got.d == want.d and got.matrix == want.matrix
            assert got.matrix.a.flags.c_contiguous and got.matrix.a.dtype == np.min_scalar_type(p - 1)


def _python_tensor(rep_g: DRep, rep_h: DRep) -> list:
    """Entry ((u, x, i, j), (v, y, i', j')) = G[u i, v i'] * H[x j, y j']
    mod p, in Python ints, rows and columns in that row-major order."""
    g, h, p = rep_g.matrix.a.tolist(), rep_h.matrix.a.tolist(), rep_g.matrix.p
    d1, d2 = rep_g.d, rep_h.d
    index = [(u, x, i, j) for u in range(rep_g.nvertices) for x in range(rep_h.nvertices)
             for i in range(d1) for j in range(d2)]
    return [[g[u * d1 + i][v * d1 + k] * h[x * d2 + j][y * d2 + m] % p for v, y, k, m in index]
            for u, x, i, j in index]


@pytest.mark.parametrize("p", (2, 3, 17, 251, 257, 65537, 2**31 - 1))
def test_tensor_matches_python_ints_in_the_storage_dtype(p):
    # from p = 17 on, (p - 1)^2 overflows the operands' dtype, so the
    # multiply has to compute in a wider one
    rng = np.random.default_rng(p)
    for ng, d1, nh, d2 in ((2, 1, 3, 2), (3, 2, 2, 1)):
        rg = DRep(d1, FMatrix(p, rng.integers(0, p, (ng * d1, ng * d1))))
        rh = DRep(d2, FMatrix(p, rng.integers(0, p, (nh * d2, nh * d2))))
        rg.matrix.a[0, 0] = rh.matrix.a[0, 0] = p - 1
        got = tensor_dreps(rg, rh)
        assert got.matrix.a.dtype == np.min_scalar_type(p - 1)
        assert got.matrix.a.tolist() == _python_tensor(rg, rh)


def test_tensor_refuses_a_result_above_the_entry_cap_before_allocating():
    rep = cycle_drep(2, 2)  # 10 x 10
    cube = tensor_dreps(tensor_dreps(rep, rep), rep)  # 1,000 x 1,000
    with mock.patch.object(np, "empty", side_effect=AssertionError("allocated")):
        with pytest.raises(GuardExceeded, match=f"100000000 entries \\(cap {KRON_ENTRY_CAP}\\)"):
            tensor_dreps(cube, rep)


def test_drep_from_fractional_cover_examples():
    c5 = cycle(5)
    rep = drep_from_fractional_cover(c5, fractional_clique_cover(c5), 2)
    assert rep.d == 2 and rep.ratio() == F(5, 2)
    assert drep_violation(c5, rep) is None

    k4 = complete(4)
    rep = drep_from_fractional_cover(k4, fractional_clique_cover(k4), 3)
    assert rep.d == 1 and rank(rep.matrix) == 1
    assert rep.matrix == FMatrix(3, np.ones((4, 4), dtype=np.int64))

    c7 = cycle(7)
    rep = drep_from_fractional_cover(c7, fractional_clique_cover(c7), 2)
    assert rep.ratio() == F(7, 2)


def test_cover_blowup_peak_stays_near_its_result():
    g = cycle(1001)
    cover = fractional_clique_cover(g)
    tracemalloc.start()
    try:
        rep = drep_from_fractional_cover(g, cover, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result and its boolean comparison, with no int64 copy (8 bytes an entry)
    assert peak < 3 * rep.matrix.a.nbytes
    # the same bytes as the int64 same-slot matrix over the slots in class
    # order, each vertex in its first d slots, narrowed by FMatrix
    slots: list[list[int]] = [[] for _ in range(g.n)]
    index = 0
    for cl, w in cover.classes:
        for _ in range(int(w * cover.d)):
            for v in cl:
                slots[v].append(index)
            index += 1
    assignment = np.array([s for v in range(g.n) for s in slots[v][:cover.d]])
    old = FMatrix(2, (assignment[:, None] == assignment[None, :]).astype(np.int64))
    assert rep.matrix.a.dtype == old.a.dtype and rep.matrix.a.tobytes() == old.a.tobytes()


def test_cycle_drep_k1_is_the_triangle_clique():
    rep = cycle_drep(1, 2)
    assert drep_violation(cycle(3), rep) is None
    assert rep.ratio() == 1  # complete graph: a single clique, not (2k+1)/2


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_cycle_drep_values(k, p):
    rep = cycle_drep(k, p)
    g = cycle(2 * k + 1)
    assert drep_violation(g, rep) is None
    assert rep.ratio() == F(2 * k + 1, 2)
    assert rep.ratio() >= alpha(g)[0]


def test_drep_ratio_at_least_alpha_for_verified_reps():
    rng = random.Random(53)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6))
        rep = drep_for(g, 2)
        assert drep_violation(g, rep) is None
        assert rep.ratio() >= alpha(g)[0]


def spans_meet_trivially(factors, s, t) -> bool:
    """Whether the spans of {A_v : v in S} and {A_v : v in T} intersect
    trivially: the rank of both together is the sum of their ranks."""
    if not s or not t:
        return True
    stack_s = [factors[v] for v in sorted(s)]
    stack_t = [factors[v] for v in sorted(t)]
    return stacked_rank(stack_s + stack_t) == stacked_rank(stack_s) + stacked_rank(stack_t)


def test_linind_examples():
    factors = drep_column_factors(cycle_drep(3, 2))  # the 7-cycle's
    assert spans_meet_trivially(factors, {3, 5}, {0, 1})
    assert spans_meet_trivially(factors, set(), {0})
    # across an edge the spans share the edge's clique slot
    assert not spans_meet_trivially(factors, {0}, {1})
    assert not spans_meet_trivially(factors, {3, 5}, {0, 4})


@st.composite
def certificates(draw):
    """A graph and a certificate of it: an odd cycle's certificate, or the
    cover certificate of a random graph on 5 to 7 vertices, over GF(2) or
    GF(3)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        k = draw(st.integers(2, 4))
        g, rep = cycle(2 * k + 1), cycle_drep(k, p)
    else:
        g = random_graph(rng, draw(st.integers(5, 7)))
        rep = drep_for(g, p)
    return g, rep


def valid_st_pairs(g, max_size=3):
    """Every (S, T) of sizes 1 to max_size with S independent, T disjoint
    from S, and no edge between S and T."""
    for ssize in range(1, max_size + 1):
        for s in combinations(range(g.n), ssize):
            if not is_independent_set(g, s):
                continue
            allowed = [v for v in range(g.n) if v not in s and not any(g.matrix[u, v] for u in s)]
            for tsize in range(1, max_size + 1):
                for t in combinations(allowed, tsize):
                    yield set(s), set(t)


@settings(max_examples=100, deadline=None)
@given(certificates())
def test_verified_pair_representations_have_independent_spans(case):
    g, rep = case
    assert drep_violation(g, rep) is None
    factors = drep_column_factors(rep)
    assert subspace_violation(g, factors, rep.d) is None
    for s, t in valid_st_pairs(g):
        assert spans_meet_trivially(factors, s, t), (sorted(s), sorted(t))


def test_search_cycle5():
    report = hfrac_upper_search(cycle(5), 2)
    assert (report.lower, report.upper) == (2, F(5, 2))


def test_search_empty_graph_is_tight():
    report = hfrac_upper_search(empty(4), 2)
    assert report.lower == report.upper == 4


def test_search_strong_square_uses_tensor_route():
    # with the square's own cover cut off, the tensor of the factors'
    # blown-up covers (d = 2 each) reaches 25/4
    g = generate("strong(cycle:5,cycle:5)")

    def cover_unless_square(h, budget=None, stable=None):
        if h.n == 25:
            raise SearchCutoff("fraccover", 0, 0)
        return fractional_clique_cover(h, budget, stable)

    with mock.patch("hfrac.reps.fractional_clique_cover", cover_unless_square):
        report = hfrac_upper_search(g, 2)
    assert (report.lower, report.upper) == (5, F(25, 4))
    rep = report.witnesses[1]
    assert isinstance(rep, DRep) and rep.d == 4 and drep_violation(g, rep) is None


def test_search_tensor_of_two_covers_is_left_to_the_square_cover():
    # the cover number multiplies under the strong product, so the square's
    # own cover ties the tensor of its factors' covers, which is not built
    g = generate("strong(cycle:5,cycle:5)")
    with mock.patch("hfrac.reps.tensor_dreps", wraps=tensor_dreps) as tensors:
        report = hfrac_upper_search(g, 2)
    assert report.upper == F(25, 4) and tensors.call_count == 0
    assert report.witnesses[1] == fractional_clique_cover(g)


def test_search_leaves_out_a_tensor_above_the_entry_cap(monkeypatch):
    # the tensor of cycle:5's blown-up cover (10 rows) and complete:2's fit
    # (2 rows) has 400 entries; above the cap it was a GuardExceeded that
    # escaped the search
    g = generate("strong(cycle:5,complete:2)")
    monkeypatch.setattr("hfrac.reps.KRON_ENTRY_CAP", 399)
    with mock.patch("hfrac.reps.drep_from_fractional_cover") as blowups:
        report = hfrac_upper_search(g, 2)
    assert blowups.call_count == 0  # the cap is checked before any blow-up
    assert (report.lower, report.upper) == (2, F(5, 2))
    monkeypatch.setattr("hfrac.reps.KRON_ENTRY_CAP", 400)
    with mock.patch("hfrac.reps.tensor_dreps", wraps=tensor_dreps) as tensors:
        assert hfrac_upper_search(g, 2).upper == F(5, 2)
    assert tensors.call_count == 1


def test_search_takes_alpha_once_and_each_factor_once():
    for g, interval, searched in (
        # above the minrank search cap at p = 2, so the minrank search stops
        (generate("strong(cycle:5,cycle:5)"), (5, F(25, 4)), ["strong(cycle:5,cycle:5)", "cycle:5"]),
        # the 25-vertex factor's own minrank search stops as well
        (generate("strong(strong(cycle:5,cycle:5),complete:2)"), (5, F(25, 4)),
         ["strong(strong(cycle:5,cycle:5),complete:2)", "strong(cycle:5,cycle:5)", "cycle:5", "complete:2"]),
        # names no automorphisms: its cover is three edges, against alpha's
        # stable set, which the cover takes from the search
        (Graph(cycle(6).matrix), (3, 3), [None]),
    ):
        # fraccover's own name too: the orbit cover searches the complement,
        # and a second search of g itself would show
        with mock.patch("hfrac.independence.alpha", wraps=alpha) as alphas, \
                mock.patch("hfrac.fraccover.alpha", wraps=alpha) as cover_alphas, \
                mock.patch("hfrac.reps.minrank_exact", wraps=minrank_exact) as searches:
            report = hfrac_upper_search(g, 2)
        assert (report.lower, report.upper) == interval
        assert [call.args[0].n for call in alphas.call_args_list] == [g.n]
        assert not any(call.args[0] == g for call in cover_alphas.call_args_list)
        assert [call.args[0].expr for call in searches.call_args_list] == searched


def test_search_report_json_is_witnessed():
    report = hfrac_upper_search(cycle(7), 2)
    obj = report.to_json()
    assert obj["lower"] == "3" and obj["upper"] == "7/2"
    kinds = [w.get("kind") for w in obj["witness_refs"]]
    assert kinds == ["independent_set", "fraccover"]
    assert obj["witness_refs"][1] == fractional_clique_cover(cycle(7)).to_json()


PRODUCTS = ["strong(cycle:5,complete:2)", "strong(cycle:5,cycle:3)", "strong(complete:2,cycle:5)",
            "lex(cycle:5,complete:2)", "complement(cycle:7)", "strong(empty:2,cycle:5)"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), p=st.sampled_from((2, 3)),
       product=st.sampled_from([None, *PRODUCTS]))
def test_search_upper_end_is_at_most_the_cover(seed, n, p, product):
    # hfrac_p(G) <= the fractional clique cover number, at every p
    g = generate(product) if product else random_graph(random.Random(seed), n)
    report = hfrac_upper_search(g, p)
    assert report.lower <= report.upper <= fractional_clique_cover(g).value


# Entry values a forged certificate might hold; each must be refused.
FORGED_ENTRIES = ["1.5", "true", '"1"', "-1", "2", "[1]", "null", str(2**70), "1e0"]


def forge_first_entry(text: str, head: str, value: str | None) -> str:
    """``text`` with the value right after ``head`` replaced by ``value``,
    or dropped together with its comma when ``value`` is None."""
    at = text.index(head) + len(head)
    end = text.index(",", at)
    return text[:at] + (text[end + 1:] if value is None else value + text[end:])
