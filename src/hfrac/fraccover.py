"""Exact fractional clique cover number with rational certificates.

``fractional_clique_cover(g)`` minimizes total clique weight subject to
covering every vertex with weight at least one, by column generation on
that primal master.  The master (``lp.CoveringMaster``) runs on the same
integer simplex engine as every other LP in ``lp``: it starts from the
singleton cliques and stays warm.  Each round reads the dual numerators
y * det that its pivots keep up to date, prices them as integer weights
with the exact maximum-weight stable-set oracle on the complement, and
brings the new clique in as a 0/1 column with one pivot, then
re-optimizes.  Pricing stops only when the best clique weight is <= det
exactly (weight <= 1 in units of y); the oracle only compares sums of
weights, so its witnesses are those it would find for y itself.

The returned cover is gated exactly on the master's integers: the dual
numerators must be >= 0, sum to at most det on every generated clique and
sum to det times the cover's value (one integer sum of the basic values'
numerators, over det).  Then y is feasible for the dual LP over the
generated cliques (at most one unit per clique, vertex weights >= 0) and
has the cover's value.  The cover itself must then pass
``cover_violation`` (nonnegative weights, every vertex covered, weights
summing to the value), and by weak duality both are optimal.  The gate
reads each clique through its members only, so it costs the size of the
cliques, not cliques x vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .budget import Budget
from .errors import SearchCutoff, VerificationError
from .graphs import Graph, complement, is_clique, stray_vertex
from .independence import max_weight_independent_set
from .lp import F0, CoveringMaster
from .serialize import frac_str, parse_frac, read_int, read_ints, read_objects


@dataclass(frozen=True)
class FractionalCover:
    """Weighted cliques covering every vertex with total weight >= 1.

    ``d`` is the least common denominator of the weights: scaling by d
    turns the cover into >= d integral clique-slots per vertex, which is
    what blow-up representation constructions consume downstream.
    """

    classes: tuple[tuple[tuple[int, ...], Fraction], ...]
    value: Fraction
    d: int

    def to_json(self) -> dict:
        out = {
            "kind": "fraccover",
            "value": frac_str(self.value),
            "d": self.d,
            "classes": [
                {"clique": list(cl), "weight": frac_str(w)} for cl, w in self.classes
            ],
        }
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "FractionalCover":
        classes = tuple(
            (read_ints(item["clique"], "clique"), parse_frac(item["weight"]))
            for item in read_objects(obj["classes"], "classes")
        )
        return cls(classes, parse_frac(obj["value"]), read_int(obj["d"], "d"))


def cover_violation(g: Graph, cover: FractionalCover) -> str | None:
    """None if every invariant holds exactly, else the first defect found.

    Coverage and value are summed in integers, in units of 1/L for L the
    lcm of the weight denominators; a ``Fraction`` is built only to name
    a sum in a defect message."""
    scale = lcm(*(w.denominator for _, w in cover.classes))
    total = 0
    coverage = [0] * g.n
    for idx, (cl, w) in enumerate(cover.classes):
        stray = stray_vertex(g, cl)
        if stray is not None:
            return f"class {idx} has vertex {stray} outside [0, {g.n})"
        if not is_clique(g, cl):
            return f"class {idx} is not a clique: {sorted(cl)}"
        if w < 0:
            return f"class {idx} has negative weight {w}"
        units = w.numerator * (scale // w.denominator)
        for v in cl:
            coverage[v] += units
        total += units
    for v, units in enumerate(coverage):
        if units < scale:
            return f"vertex {v} is undercovered: total weight {Fraction(units, scale)}"
    if total * cover.value.denominator != cover.value.numerator * scale:
        return f"declared value {cover.value} != weight sum {Fraction(total, scale)}"
    if cover.d % scale != 0 or cover.d < 1:
        return f"declared denominator {cover.d} incompatible with weights (lcm {scale})"
    return None


def _certifies_optimum(columns: list[tuple[int, ...]], numerators: list[int], det: int,
                       total: int) -> bool:
    """Whether y = numerators / det is feasible for the dual LP over the
    held columns (y >= 0, at most 1 on every column) with value total / det."""
    return (
        all(yn >= 0 for yn in numerators)
        and all(sum(map(numerators.__getitem__, col)) <= det for col in columns)
        and sum(numerators) == total
    )


def fractional_clique_cover(g: Graph, budget: Budget | None = None) -> FractionalCover:
    """Exact optimal fractional clique cover of g (equals the fractional
    chromatic number of the complement).

    Under a budget, raises BudgetExhausted from a master pivot or
    SearchCutoff from pricing."""
    if g.n == 0:
        return FractionalCover((), F0, 1)
    budget = budget or Budget()
    comp = complement(g)
    master = CoveringMaster(g.n, budget)
    while True:
        # price y * det: a clique improves the master iff its weight exceeds det
        try:
            witness, weight = max_weight_independent_set(comp, master.dual_numerators(), budget)
        except SearchCutoff as cut:
            raise SearchCutoff(cut.parameter, Fraction(cut.lower, master.det),
                               Fraction(cut.upper, master.det), cut.witness) from None
        if weight <= master.det:
            break
        master.add_column(tuple(sorted(witness)))
    cliques = master.columns
    weights = master.values()
    total = master.value_numerator()
    if not _certifies_optimum(cliques, master.dual_numerators(), master.det, total):
        raise VerificationError("internal error: master optimum failed its LP certificate")
    value = Fraction(total, master.det)
    # sorted, so the cover does not depend on the order pricing found its cliques
    classes = tuple(sorted((cl, w) for cl, w in zip(cliques, weights) if w != 0))
    d = lcm(*(w.denominator for _, w in classes)) if classes else 1
    cover = FractionalCover(classes, value, d)
    failure = cover_violation(g, cover)
    if failure is not None:
        raise VerificationError(f"internal error: optimal cover invalid: {failure}")
    return cover
