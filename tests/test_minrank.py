"""Fit matrices: verification, exhaustive minimum rank, certificates."""

from __future__ import annotations

import random
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import multilinear_evaluation, random_graph

from hfrac.budget import Budget
from hfrac.errors import PreconditionError, VerificationError
from hfrac.gfmat import FMatrix, rank
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
    edges = g.edge_array().tolist()
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
    res = minrank_exact(g, 2)  # 2^200 assignments: guarded to an interval
    assert not res.exact
    assert res.lower == 5 and res.upper >= 8
    assert res.certificate.check(g)
    assert res.alpha_witness is not None and len(res.alpha_witness) == res.lower


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


def test_alon_certificate_p_variant():
    g = alon(2, 3, 7)
    cert, rep = alon_certificate("P", 2, 3, 7)
    assert cert.check(g) and rep.violation(g) is None
    assert cert.claimed_rank <= 1 + 7  # multilinear degree 1 span bound


def test_alon_certificate_q_variant():
    gc = complement(alon(2, 3, 7))
    cert, rep = alon_certificate("Q", 2, 3, 7)
    assert rep.modulus == 3
    assert cert.check(gc) and rep.violation(gc) is None
    assert cert.claimed_rank <= 1 + 7 + comb(7, 2)


def test_alon_certificate_r_variant():
    cert, rep = alon_certificate("R", 3, 3, 8)
    assert rep.modulus == 5
    # the own-point value of the defining product is p^(p-1) (p-1)! = 18
    assert rep.unreduced_value(0, 0) == 18 % 5 == 3
    gc = complement(alon(3, 3, 9))
    cert9, rep9 = alon_certificate("R", 3, 3, 9)
    assert cert9.check(gc) and rep9.violation(gc) is None


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


def test_multilinear_reduction_matches_unreduced_product():
    for args in ALON_CASES:
        _, rep = alon_certificate(*args)
        e = rep.evaluation_matrix()
        nv = len(rep.points)
        assert e.dtype == np.int64 and e.shape == (nv, nv), args
        assert np.array_equal(e, multilinear_evaluation(rep)), args
        assert [[rep.unreduced_value(u, v) for v in range(nv)] for u in range(nv)] == e.tolist(), args


# (variant, p, q, n): the messages ``violation`` gave while it evaluated
# one entry at a time, for vertex 3 given the polynomial of its first
# non-neighbor, and for vertices 2 and 5 given the constant 1
PLANTED_POLY_DEFECTS = {
    ("P", 2, 3, 7): ("polynomial of vertex 3 vanishes at its own point",
                     "polynomial of 2 is nonzero at non-neighbor 0"),
    ("Q", 2, 3, 7): ("polynomial of vertex 3 vanishes at its own point",
                     "polynomial of 2 is nonzero at non-neighbor 3"),
}


@pytest.mark.parametrize("args", sorted(PLANTED_POLY_DEFECTS))
def test_polynomial_representation_reports_the_first_defect(args):
    variant, p, q, n = args
    _, rep = alon_certificate(*args)
    g = alon(p, q, n) if variant == "P" else complement(alon(p, q, n))
    w = next(v for v in range(g.n) if v != 3 and not g.matrix[3, v])
    e = rep.evaluation_matrix()
    vanishing = e.copy()
    vanishing[3] = e[w]
    constant = e.copy()
    constant[[2, 5]] = 1
    assert (rep.violation(g, vanishing), rep.violation(g, constant)) == PLANTED_POLY_DEFECTS[args]


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
    }
    for expr, digest in expected.items():
        assert graph_hash(generate(expr)) == digest, expr
    path = tmp_path / "random.txt"
    write_graph_file(random_graph(random.Random(2024), 13, 0.4), str(path))
    g = generate(f"file:{path}")
    assert g.m == 35
    assert graph_hash(g) == "58cd6a60127e5407ea2095ded63103d7943142f5696e23f857fe79743ab122ce"
