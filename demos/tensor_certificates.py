#!/usr/bin/env python3
"""Why the fractional bound multiplies when the integer one does not.

The minrank of C5 is 3 over any prime field, but its strong square has an
8-clique partition, so minrank(C5 x C5) <= 8 < 9 = 3^2: the integer bound
is not multiplicative.  Block certificates fix this: tensoring a (5,2)
certificate with itself gives a verified d=4 certificate of rank exactly
25 on the square, and a third factor gives ratio 125/8 on the cube:
ratios multiply on the nose.
"""

from fractions import Fraction

from hfrac import (
    clique_cover_leq,
    cover_certificate,
    cycle,
    cycle_drep,
    drep_violation,
    fit_violation,
    minrank_exact,
    rank,
    strong_product,
    tensor_dreps,
)


def main():
    c5 = cycle(5)
    square = strong_product(c5, c5)

    res = minrank_exact(c5, 2)
    print(f"minrank(C5; GF(2)) = {res.upper}, so the naive square bound is {res.upper ** 2}")

    partition = clique_cover_leq(square, 8)
    cert = cover_certificate(square, partition, 2)
    print(f"but C5 x C5 splits into {len(partition.classes)} cliques:")
    for cls in partition.classes:
        print(f"  {cls}")
    print(f"clique-partition certificate rank: {cert.claimed_rank}, "
          f"fits: {fit_violation(square, cert.matrix) is None}")

    rep = cycle_drep(2, 2)
    print(f"\nblock certificate for C5: d = {rep.d}, ratio {rep.ratio()}")

    t2 = tensor_dreps(rep, rep)
    print(f"tensor on the square: d = {t2.d}, rank = {rank(t2.matrix)}, "
          f"ratio = {t2.ratio()}, verified: {drep_violation(square, t2) is None}")
    assert t2.ratio() == rep.ratio() ** 2

    cube = strong_product(square, c5)
    t3 = tensor_dreps(t2, rep)
    print(f"tensor on the cube:   d = {t3.d}, rank = {rank(t3.matrix)}, "
          f"ratio = {t3.ratio()}, verified: {drep_violation(cube, t3) is None}")
    assert t3.ratio() == Fraction(125, 8)
    print("\nratios multiply exactly: (5/2)^3 = 125/8")


if __name__ == "__main__":
    main()
