"""Certificate forms for the fractional bound: verification, tensoring,
cover blow-ups, span independence, interval search."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import drep_column_factors, kron_permutation_tensor, pairwise_subspacerep_violation, random_graph

from hfrac.errors import DimensionMismatch, GuardExceeded, VerificationError
from hfrac.fraccover import fractional_clique_cover
from hfrac.gfmat import KRON_ENTRY_CAP, FMatrix, hstack, rank
from hfrac.graphs import (
    complete,
    cycle,
    empty,
    generate,
    is_independent_set,
    strong_product,
)
from hfrac.independence import alpha, greedy_clique_cover
from hfrac.minrank import cover_certificate
from hfrac.reps import (
    DRep,
    SubspaceRep,
    cycle_drep,
    drep_from_fractional_cover,
    drep_violation,
    hfrac_upper_search,
    subspacerep_violation,
    tensor_dreps,
)
from hfrac.serialize import canonical_json, load_json


def drep_for(g, p=2):
    """A valid certificate for any graph: clique-partition matrix at d=1."""
    return DRep(1, cover_certificate(g, greedy_clique_cover(g), p).matrix)


def subspace_rep(rep: DRep) -> SubspaceRep:
    """The column spaces of a certificate's column factors."""
    factors = drep_column_factors(rep)
    return SubspaceRep(factors[0].rows, rep.d, factors, rep.matrix.p)


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


def test_subspace_representations():
    # coordinate lines on the empty graph
    plane = np.eye(3, dtype=np.int64)
    rep = SubspaceRep(3, 1, tuple(FMatrix(2, plane[:, v:v + 1]) for v in range(3)), 2)
    assert subspacerep_violation(empty(3), rep) is None
    # all subspaces equal on a complete graph: no non-neighbors to avoid
    same = FMatrix(2, [[1], [0], [0]])
    assert subspacerep_violation(complete(3), SubspaceRep(3, 1, (same, same, same), 2)) is None
    # the column factors of the 5-cycle's certificate
    sub = subspace_rep(cycle_drep(2, 3))
    assert subspacerep_violation(cycle(5), sub) is None
    assert sub.d == 2 and sub.n == 5


@pytest.mark.parametrize("cls, field, value", [
    (SubspaceRep, "bases", 3),
    (SubspaceRep, "bases", [7]),
])
def test_malformed_factor_lists_fail_verification(cls, field, value):
    # a number where the list of bases goes raised a TypeError from
    # iterating it
    doc = load_json(canonical_json(subspace_rep(cycle_drep(2, 3)).to_json()))
    cls.from_json(doc)  # the unedited file reads
    doc[field] = value
    with pytest.raises(VerificationError):
        cls.from_json(doc)


def test_subspace_violation():
    same = FMatrix(2, [[1], [0], [0]])
    rep = SubspaceRep(3, 1, (same, same, same), 2)
    assert subspacerep_violation(empty(3), rep) is not None


def test_subspace_check_matches_the_pairwise_loop():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8)))
        p, n, d = rng.choice((2, 3)), rng.randint(1, 6), rng.randint(1, 2)
        if rng.random() < 0.3:  # valid ones, from the column factors of a certificate
            rep = subspace_rep(drep_for(g, p))
        else:
            bases = tuple(FMatrix(p, [[rng.randrange(p) for _ in range(d)] for _ in range(n)])
                          for _ in range(g.n))
            rep = SubspaceRep(n, d, bases, p)
        verdict = subspacerep_violation(g, rep)
        assert verdict == pairwise_subspacerep_violation(g, rep)
        verdicts.add(verdict if verdict is None else verdict.split()[-1])
    assert verdicts == {None, "nontrivially", str(1), str(2)}


def test_pair_and_subspace_forms_carry_their_modulus():
    # an empty form still names its field, and writes it
    assert SubspaceRep(1, 1, (), 5).to_json() == {"kind": "subspacerep", "n": 1, "d": 1, "p": 5, "bases": []}
    sub = subspace_rep(cycle_drep(2, 3))
    assert sub.p == 3
    doc = load_json(canonical_json(sub.to_json()))
    assert SubspaceRep.from_json(doc).p == 3 and doc["p"] == 3


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
    stack_s = hstack([factors[v] for v in sorted(s)])
    stack_t = hstack([factors[v] for v in sorted(t)])
    return rank(hstack([stack_s, stack_t])) == rank(stack_s) + rank(stack_t)


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
    for s, t in valid_st_pairs(g):
        assert spans_meet_trivially(factors, s, t), (sorted(s), sorted(t))


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
@pytest.mark.parametrize("head", ['"bases":[['])
def test_pair_and_subspace_json_refuse_malformed_entries(head, value):
    rep = subspace_rep(cycle_drep(2, 2))
    text = canonical_json(rep.to_json())
    assert SubspaceRep.from_json(load_json(text)) == rep
    forged = load_json(forge_first_entry(text, head, value))
    with pytest.raises(DimensionMismatch if value is None else VerificationError):
        SubspaceRep.from_json(forged)
