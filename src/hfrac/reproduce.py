"""The desk-scale claim suite: every headline value this library is built
around, re-derived from scratch and checked exactly (or to the stated
tolerance), one PASS/FAIL line per claim.

Each claim is a pure function of no arguments, so the test suite and the
command line run the same list and its output is byte-identical from run
to run.  Property checks over random instances live in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable

from .fraccover import cover_violation, fractional_clique_cover
from .gfmat import rank
from .graphs import (
    complement,
    cycle,
    generate,
    is_independent_set,
    johnson,
    strong_product,
    universal_graph,
)
from .independence import alpha, clique_cover_leq, clique_cover_violation
from .minrank import alon_certificate, cover_certificate, johnson_certificate, minrank_exact
from .reps import cycle_drep, drep_violation, tensor_dreps
from .theta import johnson_theta_formula, srg_theta_upper, strongly_regular, theta_circulant, theta_johnson_lp


@dataclass(frozen=True)
class Claim:
    """One reproducible statement with its time budget in seconds."""

    id: str
    statement: str
    budget_s: float
    fn: Callable[[], tuple[bool, str, str]]  # () -> (passed, value, expected)


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


def _claim_theta_c5():
    value = theta_circulant(5, {1})
    return abs(value - sqrt(5)) <= 1e-9, repr(value), "sqrt(5) +- 1e-9"


def _claim_theta_johnson_lp():
    named = {8: Fraction(8), 10: Fraction(15), 12: Fraction(260, 11),
             16: Fraction(16 * 14 * 21, 3 * 34)}
    values = {}
    ok = True
    for n, expected in named.items():
        v = theta_johnson_lp(2, n)
        values[n] = v
        ok = ok and v == johnson_theta_formula(n) == expected
    return ok, str({n: str(v) for n, v in values.items()}), "LP == n(n-2)(2n-11)/(3(3n-14)) exactly"


def _claim_fracchrom_odd_cycles():
    values = {}
    ok = True
    for k in (2, 3, 4, 5):
        g = cycle(2 * k + 1)
        cov = fractional_clique_cover(g)
        values[2 * k + 1] = cov.value
        ok = ok and cov.value == Fraction(2 * k + 1, 2) and cover_violation(g, cov) is None
    return ok, str({n: str(v) for n, v in values.items()}), "k + 1/2 exactly, covers verified"


def _claim_johnson_certificate():
    cert = johnson_certificate(2, 8)
    g = johnson(2, 8)
    ok = cert.claimed_rank == 8 and cert.check(g)
    return ok, f"rank {cert.claimed_rank}", "verified fit of rank exactly 8"


def _claim_johnson_alpha():
    g = johnson(2, 8)
    a, witness = alpha(g)
    ok = a == 8 and is_independent_set(g, witness)
    return ok, str(a), "8 (56-vertex exact search, witness verified)"


def _claim_minrank_c5():
    g = cycle(5)
    values = {}
    ok = True
    for p in (2, 3):
        res = minrank_exact(g, p)
        values[p] = res.upper
        ok = ok and res.exact and res.upper == 3 and res.certificate.check(g)
    return ok, str(values), "3 over both fields, by exhaustion"


def _claim_cover_c5sq():
    g = generate("strong(cycle:5,cycle:5)")
    cov = clique_cover_leq(g, 8)
    if cov is None or clique_cover_violation(g, cov) is not None:
        return False, "no valid cover", "8-clique partition"
    cert = cover_certificate(g, cov, 2)
    ok = cert.claimed_rank == 8 and cert.check(g)
    return ok, f"{len(cov.classes)} cliques, certificate rank {cert.claimed_rank}", \
        "8-clique partition, fit certificate of rank 8"


def _claim_cycle_dreps():
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


def _claim_tensor_multiplicativity():
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


def _claim_alon_certificates():
    g = generate("alon:2,3,7")
    cert_p = alon_certificate("P", 2, 3, 7)
    ok = cert_p.check(g) and cert_p.claimed_rank <= 8
    gc = complement(g)
    cert_q = alon_certificate("Q", 2, 3, 7)
    ok = ok and cert_q.check(gc) and cert_q.claimed_rank <= 29
    return ok, f"ranks {cert_p.claimed_rank} and {cert_q.claimed_rank}", \
        "P fits over GF(2) with rank <= 8; Q fits complement over GF(3) with rank <= 29"


def _claim_universal_graphs():
    values = {}
    ok = True
    for n, count in ((2, 6), (3, 28)):
        g = universal_graph(2, n, 1)
        a, witness = alpha(g)
        values[n] = (g.n, a)
        ok = ok and g.n == count and a == n and is_independent_set(g, witness)
    return ok, str(values), "vertex counts 6 and 28; alpha(n, d=1) = n"


def _claim_theta_sandwich_c5():
    c5 = cycle(5)
    params = strongly_regular(c5)
    a, b, d = srg_theta_upper(5, *params)
    diagonal = [5 * v + 2 * v % 5 for v in range(5)]
    independent = is_independent_set(strong_product(c5, c5), diagonal)
    ok = (a, b, d) == (0, 1, 5) and independent
    return ok, f"srg(5, {', '.join(map(str, params))}): theta <= {a} + {b}*{d}^(1/2); " \
        f"diagonal independent: {independent}", \
        "theta <= 0 + 1*5^(1/2) and alpha(C5 x C5) >= 5, so theta = Theta = sqrt(5)"


def _claim_shannon_lower_c5sq():
    g = generate("strong(cycle:5,cycle:5)")
    a, witness = alpha(g)
    ok = a == 5 and is_independent_set(g, witness)
    ok = ok and abs(sqrt(a) - theta_circulant(5, {1})) <= 1e-9
    return ok, f"alpha = {a}, sqrt = {sqrt(a)!r}", "exactly 5; square root matches theta(C5)"


CLAIMS: tuple[Claim, ...] = (
    Claim("theta-c5", "theta(C5) = sqrt(5)", 1.0, _claim_theta_c5),
    Claim("theta-johnson-lp", "exact LP matches the closed formula for n in {8,10,12,16}",
          4.0, _claim_theta_johnson_lp),
    Claim("fracchrom-odd-cycles", "fractional clique cover of C(2k+1) is k + 1/2 for k=2..5",
          4.0, _claim_fracchrom_odd_cycles),
    Claim("johnson-certificate", "incidence certificate for the 3-subsets-of-[8] graph has rank 8",
          60.0, _claim_johnson_certificate),
    Claim("johnson-alpha", "alpha of the 3-subsets-of-[8] graph is 8",
          60.0, _claim_johnson_alpha),
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
    Claim("theta-sandwich-c5", "theta(C5) = Theta(C5) = sqrt(5): srg bound above, coded diagonal below",
          1.0, _claim_theta_sandwich_c5),
    Claim("shannon-lower-c5sq", "alpha(C5 x C5) = 5, so the capacity lower bound meets theta(C5)",
          10.0, _claim_shannon_lower_c5sq),
)


def run_claims() -> list[ClaimResult]:
    results = []
    for claim in CLAIMS:
        t0 = time.perf_counter()
        passed, value, expected = claim.fn()
        results.append(ClaimResult(claim.id, claim.statement, passed, value, expected,
                                   time.perf_counter() - t0))
    return results
