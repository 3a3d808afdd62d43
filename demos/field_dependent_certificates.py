#!/usr/bin/env python3
"""Polynomial certificates that work over one field and not another.

On the (pq-1)-subsets of [n] with adjacency |X ∩ Y| ≡ -1 (mod p), a
degree-(p-1) polynomial per subset yields a small fit matrix over GF(p)
for the graph, while a degree-(q-1) polynomial yields a small fit matrix
over GF(q) for its *complement*.  Both graphs are large (their
independence numbers grow much slower than the certificate ranks shrink),
which is exactly the lever that separates the fractional bound across
characteristics.
"""

from math import comb, prod

from hfrac import alon, alon_certificate, alpha, complement


def main():
    p, q, n = 2, 3, 7
    g = alon(p, q, n)
    gc = complement(g)
    print(f"graph: {(p * q - 1)}-subsets of [{n}], {g.n} vertices, {g.m} edges")

    # variant P: f_u(y) = prod_{c < p-1} (<x_u, y> - c), degree p - 1
    cert_p = alon_certificate("P", p, q, n)
    bound_p = sum(comb(n, i) for i in range(p))
    print(f"\nvariant P over GF({cert_p.matrix.p}): fits the graph itself")
    print(f"  certificate rank {cert_p.claimed_rank} <= {bound_p} (degree {p - 1} span)")
    print(f"  verified: {cert_p.check(g)}, alpha(graph) = {alpha(g)[0]}")

    # variant Q: f_u(y) = prod_{c < q-1} (<x_u, y> - c), degree q - 1
    cert_q = alon_certificate("Q", p, q, n)
    bound_q = sum(comb(n, i) for i in range(q))
    print(f"\nvariant Q over GF({cert_q.matrix.p}): fits the complement")
    print(f"  certificate rank {cert_q.claimed_rank} <= {bound_q} (degree {q - 1} span)")
    print(f"  verified: {cert_q.check(gc)}, alpha(complement) = {alpha(gc)[0]}")

    # variant R: f_u(y) = prod_{i < p} (<x_u, y> - (ip - 1)); at its own
    # point <x_u, x_u> = p^2 - 1, so the product is p^(p-1) (p-1)!
    cert_r = alon_certificate("R", 3, 3, 9)
    g99 = complement(alon(3, 3, 9))
    modulus = cert_r.matrix.p
    own = prod(3 * 3 - 1 - (3 * i - 1) for i in range(1, 3)) % modulus
    print(f"\nvariant R (p = q = 3) over GF({modulus}): fits the complement")
    print(f"  own-point value of the defining product: {own} "
          f"(nonzero because the characteristic exceeds 3)")
    print(f"  verified: {cert_r.check(g99)}")


if __name__ == "__main__":
    main()
