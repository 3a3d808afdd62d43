"""The desk-scale claim suite: every headline value this library is built
around, re-derived from scratch and checked exactly (or to the stated
tolerance), one PASS/FAIL line per claim.

Each claim is a pure function so the test suite and the command line can
run the same list.  Randomized invariant sweeps draw from a seeded RNG and
are reproducible byte for byte.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable

import numpy as np

from .fraccover import cover_violation, fractional_clique_cover
from .gfmat import FMatrix, kronecker, rank
from .graphs import (
    Graph,
    complement,
    cycle,
    generate,
    graph_from_edges,
    is_independent_set,
    johnson,
    lex_product,
    strong_product,
    universal_graph,
)
from .independence import alpha, clique_cover_leq, clique_cover_violation, greedy_clique_cover
from .minrank import alon_certificate, cover_certificate, johnson_certificate, minrank_exact
from .reps import (
    DRep,
    PairRep,
    RankRRep,
    cycle_drep,
    drep_violation,
    linind_check,
    pairrep_from_drep,
    pairrep_violation,
    rankr_to_drep,
    rankrrep_violation,
    tensor_dreps,
)
from .theta import (
    johnson_theta_formula,
    pentagon_umbrella,
    theta_circulant,
    theta_johnson_lp,
    theta_lower_from_dual,
    theta_upper_from_orthorep,
)


@dataclass(frozen=True)
class Claim:
    """One reproducible statement with its time budget in seconds."""

    id: str
    statement: str
    budget_s: float
    fn: Callable[[int], tuple[bool, str, str]]  # seed -> (passed, value, expected)
    quick: bool = True  # still run under --quick


@dataclass(frozen=True)
class ClaimResult:
    id: str
    statement: str
    passed: bool
    value: str
    expected: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.id:<26} value={self.value}  expected={self.expected}"
            f"  ({self.seconds * 1000.0:.1f} ms)"
        )

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "claim": self.statement,
            "pass": self.passed,
            "value": self.value,
            "expected": self.expected,
        }


# ---------------------------------------------------------------------------
# Individual claims


def _claim_theta_c5(seed: int):
    value = theta_circulant(5, {1})
    return abs(value - sqrt(5)) <= 1e-9, repr(value), "sqrt(5) +- 1e-9"


def _claim_theta_johnson_lp(seed: int):
    named = {8: Fraction(8), 10: Fraction(15), 12: Fraction(260, 11),
             16: Fraction(16 * 14 * 21, 3 * 34)}
    values = {}
    ok = True
    for n, expected in named.items():
        v = theta_johnson_lp(2, n)
        values[n] = v
        ok = ok and v == johnson_theta_formula(n) == expected
    return ok, str({n: str(v) for n, v in values.items()}), "LP == n(n-2)(2n-11)/(3(3n-14)) exactly"


def _claim_fracchrom_odd_cycles(seed: int):
    values = {}
    ok = True
    for k in (2, 3, 4, 5):
        g = cycle(2 * k + 1)
        cov = fractional_clique_cover(g)
        values[2 * k + 1] = cov.value
        ok = ok and cov.value == Fraction(2 * k + 1, 2) and cover_violation(g, cov) is None
    return ok, str({n: str(v) for n, v in values.items()}), "k + 1/2 exactly, covers verified"


def _claim_johnson_certificate(seed: int):
    cert = johnson_certificate(2, 8)
    g = johnson(2, 8)
    ok = cert.claimed_rank == 8 and cert.check(g)
    return ok, f"rank {cert.claimed_rank}", "verified fit of rank exactly 8"


def _claim_johnson_alpha(seed: int):
    g = johnson(2, 8)
    a, witness = alpha(g)
    ok = a == 8 and is_independent_set(g, witness)
    return ok, str(a), "8 (56-vertex exact search, witness verified)"


def _claim_minrank_c5(seed: int):
    g = cycle(5)
    values = {}
    ok = True
    for p in (2, 3):
        res = minrank_exact(g, p)
        values[p] = res.upper
        ok = ok and res.exact and res.lower == res.upper == 3 and res.certificate.check(g)
    return ok, str(values), "3 over both fields, by exhaustion"


def _claim_cover_c5sq(seed: int):
    g = generate("strong(cycle:5,cycle:5)")
    cov = clique_cover_leq(g, 8)
    if cov is None or clique_cover_violation(g, cov) is not None:
        return False, "no valid cover", "8-clique partition"
    cert = cover_certificate(g, cov, 2)
    ok = cert.claimed_rank == 8 and cert.check(g)
    return ok, f"{len(cov.classes)} cliques, certificate rank {cert.claimed_rank}", \
        "8-clique partition, fit certificate of rank 8"


def _claim_cycle_dreps(seed: int):
    ok = True
    checked = 0
    for k in (2, 3, 4, 5):
        g = cycle(2 * k + 1)
        a = alpha(g)[0]
        for p in (2, 3, 5):
            rep = cycle_drep(k, p)
            ok = ok and drep_violation(g, rep) is None and rep.ratio() == Fraction(2 * k + 1, 2)
            ok = ok and a == k and Fraction(a) <= rep.ratio()
            checked += 1
    return ok, f"{checked} certificates, ratios (2k+1)/2", \
        "verified intervals [k, k+1/2] for k=2..5, p in {2,3,5}"


def _claim_tensor_multiplicativity(seed: int):
    rep5 = cycle_drep(2, 2)
    c5 = cycle(5)
    sq = strong_product(c5, c5)
    t2 = tensor_dreps(rep5, rep5)
    ok = t2.d == 4 and drep_violation(sq, t2) is None and rank(t2.matrix) == 25
    cube = strong_product(sq, c5)
    t3 = tensor_dreps(t2, rep5)
    ok = ok and t3.d == 8 and drep_violation(cube, t3) is None and t3.ratio() == Fraction(125, 8)
    return ok, f"square rank {rank(t2.matrix)}/4, cube ratio {t3.ratio()}", \
        "rank 25 at d=4; triple ratio exactly 125/8"


def _claim_alon_certificates(seed: int):
    g = generate("alon:2,3,7")
    cert_p, rep_p = alon_certificate("P", 2, 3, 7)
    ok = cert_p.check(g) and rep_p.violation(g) is None and cert_p.claimed_rank <= 8
    gc = complement(g)
    cert_q, rep_q = alon_certificate("Q", 2, 3, 7)
    ok = ok and cert_q.check(gc) and rep_q.violation(gc) is None and cert_q.claimed_rank <= 29
    return ok, f"ranks {cert_p.claimed_rank} and {cert_q.claimed_rank}", \
        "P fits over GF(2) with rank <= 8; Q fits complement over GF(3) with rank <= 29"


def _claim_universal_graphs(seed: int):
    values = {}
    ok = True
    for n, count in ((2, 6), (3, 28)):
        g = universal_graph(2, n, 1)
        a, witness = alpha(g)
        values[n] = (g.n, a)
        ok = ok and g.n == count and a == n and is_independent_set(g, witness)
    return ok, str(values), "vertex counts 6 and 28; alpha(n, d=1) = n"


def _random_graph(rng: random.Random, n: int, prob: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
    return graph_from_edges(n, edges)


def _random_matrix(rng: random.Random, p: int, rows: int, cols: int) -> FMatrix:
    return FMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


def _random_invertible(rng: random.Random, p: int, n: int) -> FMatrix:
    while True:
        m = _random_matrix(rng, p, n, n)
        if rank(m) == n:
            return m


def _twist(rep: PairRep, rng: random.Random) -> PairRep:
    """Change of basis preserving all the pair products."""
    from .gfmat import inverse, matmul

    t = _random_invertible(rng, rep.p, rep.n)
    tinv_t = inverse(t).transpose()
    pairs = tuple((matmul(tinv_t, a), matmul(t, b)) for a, b in rep.pairs)
    return PairRep(rep.n, rep.d, pairs, rep.p)


def _valid_st_pairs(g: Graph, max_size: int = 3):
    """All (S, T): S independent, T disjoint from S, no S-T edges."""
    from itertools import combinations

    verts = range(g.n)
    for ssize in range(1, max_size + 1):
        for s in combinations(verts, ssize):
            if not is_independent_set(g, s):
                continue
            banned = set(s)
            for v in s:
                banned |= {u for u in verts if g.has_edge(u, v)}
            allowed = [v for v in verts if v not in banned]
            for tsize in range(1, max_size + 1):
                for t in combinations(allowed, tsize):
                    yield set(s), set(t)


def _claim_pairrep_independence(seed: int):
    rng = random.Random(seed)
    bases: list[tuple[Graph, PairRep]] = []
    for k in (2, 3, 4):
        g = cycle(2 * k + 1)
        for p in (2, 3):
            bases.append((g, pairrep_from_drep(cycle_drep(k, p))))
    while len(bases) < 20:
        g = _random_graph(rng, rng.randint(5, 7))
        p = rng.choice((2, 3))
        cert = cover_certificate(g, greedy_clique_cover(g), p)
        bases.append((g, pairrep_from_drep(DRep(1, cert.matrix))))
    reps = 0
    pairs = 0
    for i in range(100):
        g, base = bases[i % len(bases)]
        rep = _twist(base, rng)
        if pairrep_violation(g, rep) is not None:
            return False, f"rep {i} failed verification", "100 verified representations"
        reps += 1
        for s, t in _valid_st_pairs(g):
            pairs += 1
            if not linind_check(rep, g, s, t):
                return False, f"span overlap at rep {i}, S={sorted(s)}, T={sorted(t)}", \
                    "independent spans for every valid (S, T)"
    return True, f"{reps} reps, {pairs} (S,T) pairs, all independent", \
        "independent spans for every valid (S, T), |S|,|T| <= 3"


def _claim_theta_sandwich_c5(seed: int):
    c5 = cycle(5)
    upper = theta_upper_from_orthorep(pentagon_umbrella(1))
    lower = theta_lower_from_dual(c5, pentagon_umbrella(2))
    ok = upper <= sqrt(5) + 1e-6 and lower >= sqrt(5) - 1e-6
    return ok, f"[{lower!r}, {upper!r}]", "both within 1e-6 of sqrt(5)"


def _claim_shannon_lower_c5sq(seed: int):
    g = generate("strong(cycle:5,cycle:5)")
    a, witness = alpha(g)
    ok = a == 5 and is_independent_set(g, witness)
    ok = ok and abs(sqrt(a) - theta_circulant(5, {1})) <= 1e-9
    return ok, f"alpha = {a}, sqrt = {sqrt(a)!r}", "exactly 5; square root matches theta(C5)"


def _claim_invariant_suites(seed: int):
    passed, total, failures = run_invariant_suites(seed)
    return not failures, f"{passed}/{total} instances", "200 randomized instances, all invariants hold"


def run_invariant_suites(seed: int = 0) -> tuple[int, int, list[str]]:
    """200 seeded random instances across five invariant families."""
    rng = random.Random(seed)
    failures: list[str] = []
    total = 0

    for i in range(50):  # complement is an involution
        total += 1
        g = _random_graph(rng, rng.randint(3, 10))
        if complement(complement(g)) != g:
            failures.append(f"involution #{i}")

    for i in range(50):  # product vertex counts multiply
        total += 1
        g = _random_graph(rng, rng.randint(2, 6))
        h = _random_graph(rng, rng.randint(2, 6))
        sp, lx = strong_product(g, h), lex_product(g, h)
        if sp.n != g.n * h.n or lx.n != g.n * h.n:
            failures.append(f"cardinality #{i}")

    for i in range(30):  # alpha is multiplicative under the blow-up product
        total += 1
        g = _random_graph(rng, rng.randint(2, 5))
        h = _random_graph(rng, rng.randint(2, 5))
        if alpha(lex_product(g, h))[0] != alpha(g)[0] * alpha(h)[0]:
            failures.append(f"lex alpha #{i}")

    for i in range(40):  # kronecker rank multiplicativity
        total += 1
        p = rng.choice((2, 3, 5))
        a = _random_matrix(rng, p, rng.randint(1, 4), rng.randint(1, 4))
        b = _random_matrix(rng, p, rng.randint(1, 4), rng.randint(1, 4))
        if rank(kronecker(a, b)) != rank(a) * rank(b):
            failures.append(f"kronecker #{i}")

    for i in range(30):  # block-extraction conversion never raises the rank
        total += 1
        g = _random_graph(rng, rng.randint(3, 5))
        p = rng.choice((2, 3))
        r = rng.choice((1, 2))
        sizes = tuple(rng.randint(r, r + 1) for _ in range(g.n))
        offs = [0]
        for s in sizes:
            offs.append(offs[-1] + s)
        a = np.zeros((offs[-1], offs[-1]), dtype=np.int64)
        for u in range(g.n):
            for v in range(g.n):
                if u == v or g.has_edge(u, v):
                    block = np.array([[rng.randrange(p) for _ in range(sizes[v])]
                                      for _ in range(sizes[u])])
                    a[offs[u]:offs[u + 1], offs[v]:offs[v + 1]] = block
        for v in range(g.n):  # force full-rank diagonal blocks
            while rank(FMatrix(p, a[offs[v]:offs[v + 1], offs[v]:offs[v + 1]])) < r:
                a[offs[v]:offs[v + 1], offs[v]:offs[v + 1]] = np.array(
                    [[rng.randrange(p) for _ in range(sizes[v])] for _ in range(sizes[v])]
                )
        rep = RankRRep(r, sizes, FMatrix(p, a))
        if rankrrep_violation(g, rep) is not None:
            failures.append(f"rankr build #{i}")
            continue
        out = rankr_to_drep(g, rep)
        if drep_violation(g, out) is not None or rank(out.matrix) > rank(rep.matrix):
            failures.append(f"rankr monotonicity #{i}")

    return total - len(failures), total, failures


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


CLAIMS: tuple[Claim, ...] = (
    Claim("theta-c5", "theta(C5) = sqrt(5)", 1.0, _claim_theta_c5),
    Claim("theta-johnson-lp", "exact LP matches the closed formula for n in {8,10,12,16}",
          4.0, _claim_theta_johnson_lp),
    Claim("fracchrom-odd-cycles", "fractional clique cover of C(2k+1) is k + 1/2 for k=2..5",
          4.0, _claim_fracchrom_odd_cycles),
    Claim("johnson-certificate", "incidence certificate for the 3-subsets-of-[8] graph has rank 8",
          60.0, _claim_johnson_certificate),
    Claim("johnson-alpha", "alpha of the 3-subsets-of-[8] graph is 8",
          60.0, _claim_johnson_alpha, quick=False),
    Claim("minrank-c5", "minimum fit rank of C5 is 3 over GF(2) and GF(3)",
          10.0, _claim_minrank_c5),
    Claim("cover-c5sq", "C5 x C5 (strong) partitions into 8 cliques; certificate rank 8",
          60.0, _claim_cover_c5sq),
    Claim("cycle-dreps", "odd-cycle certificates achieve ratio (2k+1)/2 over every field tried",
          12.0, _claim_cycle_dreps),
    Claim("tensor-multiplicativity", "tensored cycle certificates: rank 25 at d=4, cube ratio 125/8",
          5.0, _claim_tensor_multiplicativity),
    Claim("alon-certificates", "polynomial certificates fit the 5-subsets-of-[7] graph and complement",
          10.0, _claim_alon_certificates),
    Claim("universal-graphs", "pair-universal graphs: 6 and 28 vertices, alpha = n at d=1",
          5.0, _claim_universal_graphs),
    Claim("pairrep-independence", "100 random verified pair representations have independent spans",
          60.0, _claim_pairrep_independence),
    Claim("theta-sandwich-c5", "umbrella evaluators bracket sqrt(5) within 1e-6",
          1.0, _claim_theta_sandwich_c5),
    Claim("shannon-lower-c5sq", "alpha(C5 x C5) = 5, so the capacity lower bound meets theta(C5)",
          10.0, _claim_shannon_lower_c5sq),
    Claim("invariant-suites", "five invariant families over 200 seeded random instances",
          120.0, _claim_invariant_suites),
)


def run_claims(quick: bool = False, seed: int = 0) -> list[ClaimResult]:
    results = []
    for claim in CLAIMS:
        if quick and not claim.quick:
            continue
        (passed, value, expected), secs = _timed(lambda: claim.fn(seed))
        results.append(ClaimResult(claim.id, claim.statement, passed, value, expected, secs))
    return results
