"""Fit matrices: verification, exhaustive minimum rank, certificates."""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb, prod
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import argwhere_edge_array, multilinear_evaluation, random_graph

from hfrac import graphs, minrank
from hfrac.budget import Budget
from hfrac.errors import PreconditionError, VerificationError
from hfrac.gfmat import FMatrix, rank, storage_dtype
from hfrac.graphs import (
    alon,
    complement,
    complete,
    cycle,
    empty,
    generate,
    graph_from_edges,
    johnson,
    strong_product,
    subset_incidence,
    write_graph_file,
)
from hfrac.independence import alpha, clique_cover_leq, greedy_clique_cover
from hfrac.minrank import (
    FitCertificate,
    alon_certificate,
    cover_certificate,
    fit_violation,
    graph_hash,
    johnson_certificate,
    minrank_exact,
)


def batched_rank(a, p):
    """Ranks over GF(p) of a stack of matrices, by Gauss-Jordan elimination
    run on all of them at once (independent of ``hfrac.gfmat``)."""
    a = a % p
    count, rows, cols = a.shape
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    every = np.arange(count)
    used = np.zeros((count, rows), dtype=bool)
    ranks = np.zeros(count, dtype=np.int64)
    for c in range(cols):
        candidates = (a[:, :, c] != 0) & ~used
        has = candidates.any(axis=1)
        piv = candidates.argmax(axis=1)
        pivot_row = a[every, piv] * inverse[a[every, piv, c]][:, None] % p
        factor = np.where(has[:, None], a[:, :, c], 0)
        a = (a - factor[:, :, None] * pivot_row[:, None, :]) % p
        a[every[has], piv[has]] = pivot_row[has]
        used[every[has], piv[has]] = True
        ranks += has
    return ranks


def minrank_bruteforce(g, p):
    """Oracle: enumerate every assignment of the 2|E| free entries."""
    edges = argwhere_edge_array(g.matrix).tolist()
    positions = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    values = np.array(list(product(range(p), repeat=len(positions))), dtype=np.int64)
    a = np.tile(np.eye(g.n, dtype=np.int64), (len(values), 1, 1))
    if positions:
        a[:, [u for u, _ in positions], [v for _, v in positions]] = values
    return int(batched_rank(a, p).min())


# p -> the most edges a drawn graph may have, so that the oracle's p^(2|E|)
# enumeration stays at a few thousand matrices
ORACLE_EDGES = {2: 6, 3: 4}


@st.composite
def oracle_graphs(draw):
    p = draw(st.sampled_from(sorted(ORACLE_EDGES)))
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=ORACLE_EDGES[p])) if pairs else []
    return graph_from_edges(n, sorted(edges)), p


def test_verify_fits_examples():
    assert fit_violation(empty(4), FMatrix(3, np.eye(4, dtype=np.int64))) is None
    assert fit_violation(complete(4), FMatrix(3, np.ones((4, 4), dtype=np.int64))) is None
    assert fit_violation(cycle(5), FMatrix(2, np.ones((5, 5), dtype=np.int64))) is not None
    zero_diag = FMatrix(2, np.zeros((5, 5), dtype=np.int64))
    assert fit_violation(cycle(5), zero_diag) is not None


def test_minrank_trivial_graphs():
    res = minrank_exact(empty(5), 2)
    assert res.exact and res.upper == 5
    assert res.certificate.matrix == FMatrix(2, np.eye(5, dtype=np.int64))  # only the identity fits
    res = minrank_exact(complete(5), 3)
    assert res.exact and res.upper == 1


def test_minrank_c5_exhaustive():
    c5 = cycle(5)
    for p in (2, 3):
        res = minrank_exact(c5, p)
        assert res.exact and res.lower == res.upper == 3
        assert res.certificate.check(c5)


def test_minrank_matches_bruteforce_on_tiny_graphs():
    rng = random.Random(41)
    done = 0
    while done < 8:
        g = random_graph(rng, rng.randint(2, 4), prob=0.4)
        if g.m > 4:  # keep the p^(2|E|) oracle enumeration tractable
            continue
        done += 1
        for p in (2, 3):
            assert minrank_exact(g, p).upper == minrank_bruteforce(g, p)


@settings(max_examples=150, deadline=None)
@given(oracle_graphs())
def test_minrank_property(gp):
    g, p = gp
    res = minrank_exact(g, p)
    assert res.exact and res.lower == res.upper == minrank_bruteforce(g, p)
    assert res.certificate.claimed_rank == res.upper and res.certificate.check(g)


@settings(max_examples=150, deadline=None)
@given(oracle_graphs(), st.integers(0, 60))
def test_minrank_budget_interval_brackets_the_minrank(gp, nodes):
    g, p = gp
    res = minrank_exact(g, p, Budget(nodes=nodes))
    assert res.lower <= minrank_bruteforce(g, p) <= res.upper
    assert res.exact == (res.lower == res.upper)
    assert res.certificate.claimed_rank == res.upper and res.certificate.check(g)


# The certificates found before the search gained its block-triangular
# bound; a valid bound must leave the first optimum in product order as is.
# The odd cycles' optimum is the greedy clique cover; the last graph's is a
# matrix the search found (its greedy cover has 4 classes).
PINNED_CERTIFICATES = {
    "cycle:9 p=3": (cycle(9), 3, ("110000000", "110000000", "001100000", "001100000", "000011000",
                                  "000011000", "000000110", "000000110", "000000001")),
    "cycle:13 p=2": (cycle(13), 2, ("1100000000000", "1100000000000", "0011000000000", "0011000000000",
                                    "0000110000000", "0000110000000", "0000001100000", "0000001100000",
                                    "0000000011000", "0000000011000", "0000000000110", "0000000000110",
                                    "0000000000001")),
    "cycle:7 p=3": (cycle(7), 3, ("1100000", "1100000", "0011000", "0011000", "0000110", "0000110",
                                  "0000001")),
    "6 vertices p=3": (graph_from_edges(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 4), (3, 5)]), 3,
                       ("100100", "010001", "001010", "100100", "001010", "010001")),
}


@pytest.mark.parametrize("case", sorted(PINNED_CERTIFICATES))
def test_minrank_certificates_are_pinned(case):
    g, p, rows = PINNED_CERTIFICATES[case]
    res = minrank_exact(g, p)
    assert res.exact and res.upper == rank(res.certificate.matrix)
    assert res.certificate.matrix == FMatrix(p, [[int(x) for x in row] for row in rows])


def test_minrank_at_least_alpha():
    rng = random.Random(42)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 5))
        res = minrank_exact(g, 2)
        assert res.exact and res.upper >= alpha(g)[0]


def test_minrank_interval_when_search_space_too_large():
    g = strong_product(cycle(5), cycle(5))
    res = minrank_exact(g, 2)  # 2^200 assignments: stopped after ATTEMPT_NODES nodes
    assert not res.exact
    assert res.lower == 5 and res.upper >= 8
    assert res.certificate.check(g)
    assert res.alpha_witness is not None and len(res.alpha_witness) == res.lower


@settings(max_examples=150, deadline=None)
@given(oracle_graphs(), st.integers(0, 40))
def test_a_search_above_the_cap_is_exact_iff_it_finishes(gp, allowance):
    g, p = gp
    full = Budget()
    minrank_exact(g, p, full)  # below the real cap: runs to the end
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minrank, "SEARCH_CAP", 0)  # every graph is above it
        mp.setattr(minrank, "ATTEMPT_NODES", allowance)
        budget = Budget()
        res, again = minrank_exact(g, p, budget), minrank_exact(g, p)
    assert res == again
    assert res.lower <= minrank_bruteforce(g, p) <= res.upper
    assert res.certificate.claimed_rank == res.upper and res.certificate.check(g)
    assert not budget.exhausted  # the allowance is not the caller's budget
    if full.nodes <= allowance:
        assert res.exact and res.alpha_witness is None
    else:
        # the interval exit, exact only where alpha meets the upper end
        assert res.lower == alpha(g)[0] == len(res.alpha_witness)


def test_minrank_budget_interval():
    g = cycle(5)
    res = minrank_exact(g, 3, Budget(nodes=20))
    assert not res.exact
    assert res.lower <= 3 <= res.upper
    assert res.certificate.check(g)


def test_johnson_certificates():
    cert = johnson_certificate(2, 4)
    assert cert.claimed_rank == 4 and cert.check(johnson(2, 4))
    cert = johnson_certificate(2, 8)
    assert cert.claimed_rank == 8 and cert.check(johnson(2, 8))
    cert = johnson_certificate(3, 5)
    assert cert.check(johnson(3, 5))


def test_cover_certificates():
    c4 = complete(4)
    cert = cover_certificate(c4, clique_cover_leq(c4, 1), 5)
    assert cert.claimed_rank == 1 and cert.matrix == FMatrix(5, np.ones((4, 4), dtype=np.int64))
    c5 = cycle(5)
    cover = clique_cover_leq(c5, 3)
    cert = cover_certificate(c5, cover, 2)
    assert cert.claimed_rank == 3 == minrank_exact(c5, 2).upper
    with pytest.raises(VerificationError):
        from hfrac.independence import CliqueCover

        cover_certificate(c5, CliqueCover(((0, 1, 2), (3, 4))), 2)


def test_kronecker_of_fit_certificates_fits_strong_product():
    rng = random.Random(43)
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 5))
        h = random_graph(rng, rng.randint(2, 5))
        p = rng.choice((2, 3))
        mg = cover_certificate(g, greedy_clique_cover(g), p).matrix
        mh = cover_certificate(h, greedy_clique_cover(h), p).matrix
        product = FMatrix(p, np.kron(mg.a.astype(np.int64), mh.a.astype(np.int64)))
        assert fit_violation(strong_product(g, h), product) is None


def alon_constants(variant: str, p: int, q: int) -> list[int]:
    """The constants c of the polynomials prod_c (<x_u, y> - c) of Alon's
    variants: the sizes below p - 1 (P) or q - 1 (Q), and the sizes
    ip - 1 for 0 < i < p (R)."""
    return {"P": list(range(p - 1)), "Q": list(range(q - 1)), "R": [i * p - 1 for i in range(1, p)]}[variant]


def subset_points(n: int, size: int) -> list[list[int]]:
    """The 0/1 vectors of the size-subsets of [n], in vertex order."""
    return [[int(j in x) for j in range(n)] for x in combinations(range(n), size)]


def test_alon_certificate_p_variant():
    g = alon(2, 3, 7)
    cert = alon_certificate("P", 2, 3, 7)
    assert cert.matrix.p == 2 and cert.check(g)
    assert cert.claimed_rank <= 1 + 7  # multilinear degree 1 span bound


def test_alon_certificate_q_variant():
    gc = complement(alon(2, 3, 7))
    cert = alon_certificate("Q", 2, 3, 7)
    assert cert.matrix.p == 3 and cert.check(gc)
    assert cert.claimed_rank <= 1 + 7 + comb(7, 2)


def test_alon_certificate_r_variant():
    cert = alon_certificate("R", 3, 3, 8)
    assert cert.matrix.p == 5
    # the own-point value of the defining product is p^(p-1) (p-1)! = 18
    assert multilinear_evaluation(5, alon_constants("R", 3, 3), subset_points(8, 8))[0, 0] == 18 % 5 == 3
    gc = complement(alon(3, 3, 9))
    assert alon_certificate("R", 3, 3, 9).check(gc)


def test_alon_certificate_preconditions():
    with pytest.raises(PreconditionError):
        alon_certificate("Q", 2, 2, 7)  # Q needs distinct primes
    with pytest.raises(PreconditionError):
        alon_certificate("R", 2, 3, 7)  # R needs q == p
    with pytest.raises(PreconditionError):
        alon_certificate("R", 3, 3, 8, modulus=3)  # characteristic must exceed p
    with pytest.raises(PreconditionError):
        alon_certificate("P", 2, 3, 7, modulus=3)


# (variant, p, q, n, modulus): every Alon case of test_cli's
# PINNED_CERTIFICATES, the eight of the certify-verify benchmark workload,
# and two larger ones
ALON_CASES = (
    ("P", 2, 3, 7, None), ("Q", 2, 3, 8, None), ("R", 2, 2, 8, None), ("P", 3, 2, 8, None),
    ("R", 3, 3, 9, None), ("R", 2, 2, 7, 23),
    ("Q", 2, 3, 7, None), ("P", 2, 3, 8, None), ("R", 2, 2, 6, None), ("R", 2, 2, 7, None),
    ("Q", 2, 5, 10, None), ("P", 5, 2, 10, None),
)
# the default field of each variant: GF(p), GF(q), the least prime above p
DEFAULT_MODULUS = {("P", 2, 3): 2, ("P", 3, 2): 3, ("P", 5, 2): 5, ("Q", 2, 3): 3, ("Q", 2, 5): 5,
                   ("R", 2, 2): 3, ("R", 3, 3): 5}


def test_multilinear_reduction_matches_unreduced_product():
    for variant, p, q, n, modulus in ALON_CASES:
        cert = alon_certificate(variant, p, q, n, modulus)
        m = modulus or DEFAULT_MODULUS[variant, p, q]
        constants, points = alon_constants(variant, p, q), subset_points(n, p * q - 1)
        e = multilinear_evaluation(m, constants, points)
        unreduced = [[prod(sum(map(mul, x, y)) - c for c in constants) % m for y in points] for x in points]
        assert e.tolist() == unreduced, (variant, p, q, n)
        # every point has weight pq - 1: one own-point value, scaled to 1
        own = int(e[0, 0])
        assert own and set(np.diag(e).tolist()) == {own}
        assert cert.matrix.p == m and cert.matrix.a.dtype == storage_dtype(m)
        assert cert.matrix.a.tolist() == (e * pow(own, -1, m) % m).tolist(), (variant, p, q, n)


@pytest.mark.parametrize("block_entries", [1, 200])
def test_alon_certificates_do_not_depend_on_the_block_size(monkeypatch, block_entries):
    cases = (("Q", 2, 3, 8, None), ("P", 3, 2, 8, None), ("R", 2, 2, 7, 23))
    one_block = {args: (alon_certificate(*args).matrix.a, alon(*args[1:4]).matrix) for args in cases}
    assert len(list(graphs.intersection_sizes(subset_incidence(8, 5)))) == 1
    monkeypatch.setattr(graphs, "_SUBSET_BLOCK_ENTRIES", block_entries)
    assert len(list(graphs.intersection_sizes(subset_incidence(8, 5)))) > 1
    for args, (matrix, adjacency) in one_block.items():
        assert np.array_equal(alon_certificate(*args).matrix.a, matrix), args
        assert np.array_equal(alon(*args[1:4]).matrix, adjacency), args


def test_fit_certificate_json_roundtrip():
    cert = johnson_certificate(2, 6)
    obj = cert.to_json()
    assert obj["kind"] == "fit" and "graph" not in obj  # the commands that write a file add it
    back = FitCertificate.from_json(obj)
    assert back.check(johnson(2, 6))
    assert back.graph_hash == graph_hash(johnson(2, 6))


def test_graph_hash_digests_are_pinned(tmp_path):
    # stored in every fit certificate, so these must never change
    expected = {
        "cycle:5": "73c59e3901ad3ea56dffe4fa88b9fa58e2ee8ae222de569a0c6239571153c06e",
        "johnson:2,8": "5dd24f4f410fbf126121b4d96b41a4974e59f82c49f26b605784040543a854a0",
        "alon:2,3,7": "7a17b8eadea9942afe5f2413ca3da3aaf9087d7cd655d25c7fd892798ca4d7b2",
        "complement(alon:2,3,7)": "12f37153ac37c6d680f3344c140283fa877cfbe7c706adcedc00cc39257cf600",
        "strong(cycle:5,cycle:5)": "ff94dc70d275ee836477342f23eefdce3e2d6c45b243022a06180e27e589d68a",
        "empty:3": "58a39c37238ac60eacc3fe90677482f2efc2534e5c581aa8a3689c5833fba7f2",
        # vertex ids of 3 and 4 digits, above 255 (a uint16 text)
        "johnson:2,14": "33591729a9db06f5b1a2ed866c469e42d08a8d72e15c210aa07322c7602cd130",
        "johnson:2,18": "cd4a7f55c1e85bd85881aa05bd6007c1047c03b1de6517efc9eb74900e96a84b",
        "cycle:1200": "bd658dafc4f07e3718e6f9ba4842e7ed23a015b27c363fe7b51add81f03847e6",
        # 4-digit ids in 8-byte words, 395,010 edges over many row blocks
        "johnson:2,22": "972bb619789021e05b763f5af522faf3349dc4b441d491fe1b7fb13678e2b645",
    }
    for expr, digest in expected.items():
        assert graph_hash(generate(expr)) == digest, expr
    path = tmp_path / "random.txt"
    write_graph_file(random_graph(random.Random(2024), 13, 0.4), str(path))
    g = generate(f"file:{path}")
    assert g.m == 35
    assert graph_hash(g) == "58cd6a60127e5407ea2095ded63103d7943142f5696e23f857fe79743ab122ce"
