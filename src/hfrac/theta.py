"""Lovasz theta values for structured graphs.

There is deliberately no general SDP solver here: theta is computed only
where a certifiable route exists: the eigenvalue closed form for
edge-transitive circulants, an exact rational LP for the intersection
graphs of (p+1)-subsets, and Lovasz's eigenvalue bound for strongly
regular graphs, exact in Q(sqrt(D)).  No float form of a representation
is kept: ``verify`` reads exact certificates only.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, cos, isqrt, pi

import numpy as np

from .errors import PreconditionError, UnsupportedFamily, VerificationError
from .graphs import Graph, require_prime
from .lp import F1, LinearProgram, simplex_solve


# ---------------------------------------------------------------------------
# Closed forms and the exact LP


def theta_circulant(n: int, connection: set[int] | frozenset[int]) -> float:
    """theta = n(-lam_min)/(lam_max - lam_min) for vertex- and
    edge-transitive circulants.

    Supported families: a single offset (disjoint cycles / a perfect
    matching) and the complete connection set.  Other connection sets are
    rejected rather than silently mis-valued.
    """
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    offs = {s % n for s in connection}
    if not offs or 0 in offs:
        raise PreconditionError("connection set must be nonempty without offset 0")
    offs = {min(s, n - s) for s in offs}
    if offs == set(range(1, n // 2 + 1)):
        return 1.0  # K_n: n * 1 / ((n - 1) + 1), exactly
    if len(offs) != 1:
        raise UnsupportedFamily(
            f"connection set {sorted(offs)} is not a supported edge-transitive family"
        )
    lams = []
    for j in range(n):
        lam = 0.0
        for s in offs:
            lam += cos(pi * j) if 2 * s == n else 2.0 * cos(2.0 * pi * j * s / n)
        lams.append(lam)
    lam_max, lam_min = max(lams), min(lams)
    return n * (-lam_min) / (lam_max - lam_min)


def johnson_theta_program(p: int, n: int) -> LinearProgram:
    """The p+2 constraint rows of the exact theta LP for the graph on
    (p+1)-subsets of [n] with intersection size nonzero mod p; p must be
    prime, as for the ``johnson`` graph family."""
    require_prime(p)
    if n < 2 * (p + 1):
        raise PreconditionError(f"need n >= 2(p+1) = {2 * (p + 1)}, got {n}")
    rows = []
    for u in range(p + 2):
        c1 = Fraction((p + 1 - u) * (n - p - u - 1) - u, (p + 1) * (n - p - 1))
        c2 = Fraction((-1) ** u * comb(n - p - u - 1, p + 1 - u), comb(n - p - 1, p + 1))
        rows.append(({0: c1, 1: c2}, ">=", Fraction(-1)))
    return LinearProgram(objective=(F1, F1), constraints=tuple(rows), constant=F1)


def theta_johnson_lp(p: int, n: int) -> Fraction:
    """Exact rational theta of the (p+1)-subset intersection graph,
    maximizing 1 + a_1 + a_{p+1} over the association-scheme constraints."""
    sol = simplex_solve(johnson_theta_program(p, n))
    if sol.status != "optimal":
        raise VerificationError(f"internal error: theta LP did not solve to optimality: {sol.status}")
    return sol.value


def johnson_theta_formula(n: int) -> Fraction:
    """Closed form n(n-2)(2n-11) / (3(3n-14)) for p = 2."""
    if 3 * n == 14:
        raise PreconditionError("formula denominator vanishes")
    return Fraction(n * (n - 2) * (2 * n - 11), 3 * (3 * n - 14))


# ---------------------------------------------------------------------------
# Strongly regular graphs


def strongly_regular(g: Graph) -> tuple[int, int, int] | None:
    """(k, lambda, mu) when every degree is k >= 1, the ends of every edge
    share lambda neighbours and every other pair of distinct vertices
    shares mu (0 on K_n, which has no such pair); else None.  The counts
    are A^2, one float32 product, exact while n < 2^24."""
    k = max(g.degrees, default=0)
    if k == 0 or min(g.degrees) < k:
        return None
    a = g.matrix.astype(np.float32)
    shared = a @ a
    lam = np.unique(shared[g.matrix])
    mu = np.unique(shared[~g.matrix & ~np.eye(g.n, dtype=bool)])
    if len(lam) != 1 or len(mu) > 1:
        return None
    return k, int(lam[0]), int(mu[0]) if len(mu) else 0


def srg_theta_upper(n: int, k: int, lam: int, mu: int) -> tuple[Fraction, Fraction, int]:
    """(a, b, D) with theta <= a + b*sqrt(D) on srg(n, k, lam, mu); a square
    D folds into a, giving b = 0 and D = 0.

    On the complement of the all-ones vector every eigenvalue of A is a
    root of x^2 - cx - (k - mu), c = lam - mu, so it is at least
    s = (c - sqrt(D))/2, D = c^2 + 4(k - mu).  Lovasz's bound for regular
    graphs, theta <= -n*l_min/(k - l_min) (IEEE Trans. IT 1979, Thm 9),
    falls as l_min rises, so theta <= -n*s/(k - s).  Rationalised, its
    denominator 4(k(k - lam + mu - 1) + mu) vanishes only on disjoint
    cliques (mu = 0, lam = k - 1), where D = (k + 1)^2 is a square.
    """
    c = lam - mu
    d = c * c + 4 * (k - mu)
    root = isqrt(d)
    if root * root == d:
        s = Fraction(c - root, 2)
        return -n * s / (k - s), Fraction(0), 0
    den = (2 * k - c) ** 2 - d
    return Fraction(-n * (d + c * (2 * k - c)), den), Fraction(2 * n * k, den), d
