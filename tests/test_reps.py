"""Certificate forms for the fractional bound: verification, conversion,
tensoring, cover blow-ups, span independence, interval search."""

from __future__ import annotations

import random
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from oracles import has_edge_subspacerep_violation, kron_permutation_tensor

from hfrac.errors import DimensionMismatch, GuardExceeded, PreconditionError, VerificationError
from hfrac.fraccover import fractional_clique_cover
from hfrac.gfmat import KRON_ENTRY_CAP, FMatrix, rank
from hfrac.graphs import (
    complete,
    cycle,
    empty,
    generate,
    graph_from_edges,
    strong_product,
)
from hfrac.independence import alpha, greedy_clique_cover
from hfrac.minrank import cover_certificate
from hfrac.reps import (
    DRep,
    PairRep,
    RankRRep,
    SubspaceRep,
    cycle_drep,
    drep_from_fractional_cover,
    drep_from_pairrep,
    drep_violation,
    hfrac_upper_search,
    linind_check,
    pairrep_from_drep,
    pairrep_violation,
    rankr_to_drep,
    rankrrep_violation,
    subspace_from_pairrep,
    subspacerep_violation,
    tensor_dreps,
)
from hfrac.serialize import canonical_json, load_json


def random_graph(rng, n, prob=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
    return graph_from_edges(n, edges)


def drep_for(g, p=2):
    """A valid certificate for any graph: clique-partition matrix at d=1."""
    return DRep(1, cover_certificate(g, greedy_clique_cover(g), p).matrix)


def test_verify_drep_identity_on_empty_graph():
    assert drep_violation(empty(4), DRep(1, FMatrix.identity(2, 4))) is None


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


def test_pairrep_from_cycle_certificate():
    c5 = cycle(5)
    rep = cycle_drep(2, 2)
    pair = pairrep_from_drep(rep)
    assert (pair.n, pair.d) == (5, 2)
    assert pairrep_violation(c5, pair) is None
    assert pair.ratio() == F(5, 2) == rep.ratio()


def test_pairrep_roundtrip_preserves_certificate():
    for p in (2, 3):
        rep = cycle_drep(3, p)
        pair = pairrep_from_drep(rep)
        back = drep_from_pairrep(pair)
        assert drep_violation(cycle(7), back) is None
        assert rank(back.matrix) == rank(rep.matrix)
        assert pair.n == rank(rep.matrix)


def test_pairrep_identity_example():
    g = empty(4)
    pair = pairrep_from_drep(DRep(1, FMatrix.identity(3, 4)))
    assert pair.n == 4 and pair.d == 1
    assert pairrep_violation(g, pair) is None


def test_pairrep_violation_detected():
    c5 = cycle(5)
    pair = pairrep_from_drep(cycle_drep(2, 2))
    bad_pairs = list(pair.pairs)
    a0, b0 = bad_pairs[0]
    bad_pairs[0] = (FMatrix(2, np.zeros_like(a0.a)), b0)
    assert pairrep_violation(c5, PairRep(pair.n, pair.d, tuple(bad_pairs), pair.p)) is not None


def test_pair_and_rank_checks_name_the_first_defect():
    c5 = cycle(5)  # non-edges (0, 2), (0, 3), (1, 3), (1, 4), (2, 4)
    # a pair form whose products A_uᵀB_v are the blocks of a planted matrix
    a = cycle_drep(2, 3).matrix.a.copy()
    a[7, 2] = 1  # block (3, 1) only: the product A_3ᵀB_1, not A_1ᵀB_3
    a[5, 9] = 2  # block (2, 4)
    pair = pairrep_from_drep(DRep(2, FMatrix(3, a)))
    assert pairrep_violation(c5, pair) == "nonzero cross product at non-edge (1, 3)"
    a[5, 1] = 1  # block (2, 0) only
    pair = pairrep_from_drep(DRep(2, FMatrix(3, a)))
    assert pairrep_violation(c5, pair) == "nonzero cross product at non-edge (0, 2)"
    a[4, 5] = 1  # the diagonal block of vertex 2
    pair = pairrep_from_drep(DRep(2, FMatrix(3, a)))
    assert pairrep_violation(c5, pair) == "A_vᵀB_v is not the identity at vertex 2"
    # block sizes 1, 2, 1, 2, 1 at offsets 0, 1, 3, 4, 6
    a = np.eye(7, dtype=np.int64)
    # a[2, 5] lies in block (1, 3) off its first row and column, a[5, 0] in
    # block (3, 0): (1, 3) is first in row-major order, (3, 0) in column-major
    a[2, 5] = a[5, 0] = 1
    rep = RankRRep(1, (1, 2, 1, 2, 1), FMatrix(2, a))
    assert rankrrep_violation(c5, rep) == "nonzero block at non-edge (1, 3)"
    a[2, 5], a[6, 3] = 0, 1  # blocks (3, 0) and (4, 2)
    rep = RankRRep(1, (1, 2, 1, 2, 1), FMatrix(2, a))
    assert rankrrep_violation(c5, rep) == "nonzero block at non-edge (3, 0)"
    a[4:6, 4:6] = 0
    rep = RankRRep(1, (1, 2, 1, 2, 1), FMatrix(2, a))
    assert rankrrep_violation(c5, rep) == "diagonal block of vertex 3 has rank below 1"


def test_subspace_representations():
    # coordinate lines on the empty graph
    plane = FMatrix.identity(2, 3)
    rep = SubspaceRep(3, 1, tuple(plane.block(0, 3, v, v + 1) for v in range(3)), 2)
    assert subspacerep_violation(empty(3), rep) is None
    # all subspaces equal on a complete graph: no non-neighbors to avoid
    same = FMatrix(2, [[1], [0], [0]])
    assert subspacerep_violation(complete(3), SubspaceRep(3, 1, (same, same, same), 2)) is None
    # derived from a verified pair representation of the 5-cycle
    pair = pairrep_from_drep(cycle_drep(2, 3))
    sub = subspace_from_pairrep(pair)
    assert subspacerep_violation(cycle(5), sub) is None
    assert sub.d == 2 and sub.n == 5


@pytest.mark.parametrize("cls, field, value", [
    (PairRep, "pairs", 3),
    (PairRep, "pairs", [7]),
    (SubspaceRep, "bases", 3),
])
def test_malformed_factor_lists_fail_verification(cls, field, value):
    # each of these raised a TypeError from iterating or indexing the value
    pair = pairrep_from_drep(cycle_drep(2, 3))
    rep = pair if cls is PairRep else subspace_from_pairrep(pair)
    doc = load_json(canonical_json(rep.to_json()))
    cls.from_json(doc)  # the unedited file reads
    doc[field] = value
    with pytest.raises(VerificationError):
        cls.from_json(doc)


def test_subspace_violation():
    same = FMatrix(2, [[1], [0], [0]])
    rep = SubspaceRep(3, 1, (same, same, same), 2)
    assert subspacerep_violation(empty(3), rep) is not None


def test_subspace_check_matches_the_has_edge_loop():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8)))
        p, n, d = rng.choice((2, 3)), rng.randint(1, 6), rng.randint(1, 2)
        if rng.random() < 0.3:  # valid ones, from the pair form of a certificate
            rep = subspace_from_pairrep(pairrep_from_drep(drep_for(g, p)))
        else:
            bases = tuple(FMatrix(p, [[rng.randrange(p) for _ in range(d)] for _ in range(n)])
                          for _ in range(g.n))
            rep = SubspaceRep(n, d, bases, p)
        verdict = subspacerep_violation(g, rep)
        assert verdict == has_edge_subspacerep_violation(g, rep)
        verdicts.add(verdict if verdict is None else verdict.split()[-1])
    assert verdicts == {None, "nontrivially", str(1), str(2)}


def test_pair_and_subspace_forms_carry_their_modulus():
    # an empty form still names its field, and writes it
    assert PairRep(1, 1, (), 5).to_json() == {"kind": "pairrep", "n": 1, "d": 1, "p": 5, "pairs": []}
    assert SubspaceRep(1, 1, (), 3).to_json()["p"] == 3
    pair = pairrep_from_drep(cycle_drep(2, 3))
    assert pair.p == 3 and subspace_from_pairrep(pair).p == 3
    doc = load_json(canonical_json(pair.to_json()))
    assert PairRep.from_json(doc).p == 3 and doc["p"] == 3


def random_rankr_rep(rng, g, r, p):
    sizes = tuple(rng.randint(r, r + 1) for _ in range(g.n))
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    a = np.zeros((offs[-1], offs[-1]), dtype=np.int64)
    for u in range(g.n):
        for v in range(g.n):
            if u == v or g.has_edge(u, v):
                a[offs[u]:offs[u + 1], offs[v]:offs[v + 1]] = [
                    [rng.randrange(p) for _ in range(sizes[v])] for _ in range(sizes[u])
                ]
    for v in range(g.n):
        while rank(FMatrix(p, a[offs[v]:offs[v + 1], offs[v]:offs[v + 1]])) < r:
            a[offs[v]:offs[v + 1], offs[v]:offs[v + 1]] = [
                [rng.randrange(p) for _ in range(sizes[v])] for _ in range(sizes[v])
            ]
    return RankRRep(r, sizes, FMatrix(p, a))


def test_rankr_to_drep_identity_blocks():
    g = empty(3)
    rep = RankRRep(2, (2, 2, 2), FMatrix(3, np.kron(np.eye(3, dtype=np.int64), np.eye(2, dtype=np.int64))))
    out = rankr_to_drep(g, rep)
    assert out.matrix == rep.matrix  # already an r-representation


def test_rankr_to_drep_selects_nonzero_corner():
    g = empty(1)
    rep = RankRRep(1, (2,), FMatrix(2, [[0, 0], [0, 1]]))
    out = rankr_to_drep(g, rep)
    assert out.d == 1 and out.matrix == FMatrix.identity(2, 1)


def test_rankr_to_drep_random_monotone():
    rng = random.Random(51)
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 5))
        p = rng.choice((2, 3))
        r = rng.choice((1, 2))
        rep = random_rankr_rep(rng, g, r, p)
        assert rankrrep_violation(g, rep) is None
        out = rankr_to_drep(g, rep)
        assert out.d == r
        assert drep_violation(g, out) is None
        assert rank(out.matrix) <= rank(rep.matrix)


def test_rankr_rejects_invalid_input():
    g = cycle(5)
    bad = RankRRep(2, (1,) * 5, FMatrix.identity(2, 5))  # diagonal rank 1 < 2
    with pytest.raises(VerificationError):
        rankr_to_drep(g, bad)


def test_tensor_identity_certificates():
    a = DRep(1, FMatrix.identity(2, 2))
    b = DRep(1, FMatrix.identity(2, 3))
    t = tensor_dreps(a, b)
    assert drep_violation(empty(6), t) is None
    assert t.matrix == FMatrix.identity(2, 6)


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
    assert rep.matrix == FMatrix.ones(3, 4, 4)

    c7 = cycle(7)
    rep = drep_from_fractional_cover(c7, fractional_clique_cover(c7), 2)
    assert rep.ratio() == F(7, 2)


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


def test_linind_examples():
    c7 = cycle(7)
    pair = pairrep_from_drep(cycle_drep(3, 2))
    assert linind_check(pair, c7, {3, 5}, {0, 1})
    assert linind_check(pair, c7, set(), {0})
    with pytest.raises(PreconditionError):
        linind_check(pair, c7, {0, 1}, {3})  # S not independent
    with pytest.raises(PreconditionError):
        linind_check(pair, c7, {0}, {0, 2})  # not disjoint
    with pytest.raises(PreconditionError):
        linind_check(pair, c7, {0}, {1})  # S-T edge


def test_search_cycle5():
    report = hfrac_upper_search(cycle(5), 2, dmax=2)
    assert (report.lower, report.upper) == (2, F(5, 2))


def test_search_empty_graph_is_tight():
    report = hfrac_upper_search(empty(4), 2)
    assert report.lower == report.upper == 4


def test_search_strong_square_uses_tensor_route():
    g = generate("strong(cycle:5,cycle:5)")
    report = hfrac_upper_search(g, 2, dmax=4)
    assert report.lower == 5
    assert report.upper <= F(25, 4)


def test_search_report_json_is_witnessed():
    report = hfrac_upper_search(cycle(7), 2, dmax=2)
    obj = report.to_json()
    assert obj["lower"] == "3" and obj["upper"] == "7/2"
    kinds = [w.get("kind") for w in obj["witness_refs"]]
    assert "independent_set" in kinds and "drep" in kinds


# Entry values a forged certificate might hold; each must be refused.
FORGED_ENTRIES = ["1.5", "true", '"1"', "-1", "2", "[1]", "null", str(2**70), "1e0"]


def forge_first_entry(text: str, head: str, value: str | None) -> str:
    """``text`` with the value right after ``head`` replaced by ``value``,
    or dropped together with its comma when ``value`` is None."""
    at = text.index(head) + len(head)
    end = text.index(",", at)
    return text[:at] + (text[end + 1:] if value is None else value + text[end:])


@pytest.mark.parametrize("value", [*FORGED_ENTRIES, None])
@pytest.mark.parametrize("head", ['"A":[', '"B":[', '"bases":[['])
def test_pair_and_subspace_json_refuse_malformed_entries(head, value):
    pair = pairrep_from_drep(cycle_drep(2, 2))
    rep = subspace_from_pairrep(pair) if head == '"bases":[[' else pair
    text = canonical_json(rep.to_json())
    assert type(rep).from_json(load_json(text)) == rep
    forged = load_json(forge_first_entry(text, head, value))
    with pytest.raises(DimensionMismatch if value is None else VerificationError):
        type(rep).from_json(forged)
