#!/usr/bin/env python3
"""The 5-cycle, end to end: every bound this library computes, on one graph.

The zero-error capacity of the 5-cycle sits inside a sandwich of
parameters.  This script derives each layer with a certificate:

  alpha(C5) = 2                      exact search, witness set
  alpha(C5 x C5) = 5 (strong)        the coded diagonal {(i, 2i mod 5)}
  theta(C5) = sqrt(5)                circulant eigenvalue closed form,
                                     plus umbrella certificates both ways
  chi_f cover of C5 = 5/2            exact LP, the five edges at weight 1/2
  minrank(C5; GF(2)) = 3             exhaustive over all fit matrices
  fractional bound <= 5/2            a verified (5,2) block certificate

So the capacity is sqrt(5) exactly: the product witness reaches it and
theta pins it from above, while the integer minrank (3) overshoots and the
fractional certificate (5/2) ties the cover bound.
"""

from fractions import Fraction
from math import sqrt

from hfrac import (
    alpha,
    cycle,
    cycle_drep,
    drep_violation,
    fractional_clique_cover,
    hfrac_upper_search,
    is_independent_set,
    minrank_exact,
    pentagon_umbrella,
    strong_product,
    theta_circulant,
    theta_lower_from_dual,
    theta_upper_from_orthorep,
)


def main():
    c5 = cycle(5)

    a, witness = alpha(c5)
    print(f"alpha(C5) = {a}, witness {sorted(witness)}")

    square = strong_product(c5, c5)
    a2, witness2 = alpha(square)
    coded = [i * 5 + (2 * i) % 5 for i in range(5)]
    print(f"alpha(C5 x C5) = {a2}; coded diagonal independent: "
          f"{is_independent_set(square, coded)}")
    print(f"  capacity lower bound: sqrt({a2}) = {sqrt(a2):.10f}")

    theta = theta_circulant(5, {1})
    upper = theta_upper_from_orthorep(pentagon_umbrella(1))
    lower = theta_lower_from_dual(c5, pentagon_umbrella(2))
    print(f"theta(C5) = {theta:.10f}  (sqrt(5) = {sqrt(5):.10f})")
    print(f"  umbrella certificates: lower {lower:.10f}, upper {upper:.10f}")

    cover = fractional_clique_cover(c5)
    print(f"fractional clique cover value = {cover.value}, classes:")
    for clique, weight in cover.classes:
        print(f"  clique {clique} at weight {weight}")

    res = minrank_exact(c5, 2)
    print(f"minrank over GF(2) = {res.upper} (exact: {res.exact})")

    rep = cycle_drep(2, 2)
    print(f"block certificate: d = {rep.d}, ratio = {rep.ratio()}, "
          f"verified: {drep_violation(c5, rep) is None}")

    report = hfrac_upper_search(c5, 2)
    print(f"fractional minrank interval over GF(2): "
          f"[{report.lower}, {report.upper}]")
    assert report.upper == Fraction(5, 2) < 3 <= res.upper


if __name__ == "__main__":
    main()
