"""Exact fractional clique cover number with rational certificates.

``fractional_clique_cover(g)`` minimizes total clique weight subject to
covering every vertex with weight at least one.  It tries three paths in
turn: the orbit cover of a vertex-transitive graph, a partition into as
many cliques as a stable set has vertices, and column generation on that
primal master; each is described below, the master first.

The master (``lp.CoveringMaster``) runs on the same integer simplex engine
as every other LP in ``lp``: it starts from the singleton cliques and
stays warm.  Each round reads the dual numerators
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

A vertex-transitive graph (one with ``Graph.transitive_automorphisms``)
skips the master.  A clique search on the complement (``alpha``, which
branches once at the root there too) gives the clique number w and a
maximum clique C; every clique in the orbit of C under the automorphisms
gets weight n / (w * |orbit|).  Each vertex lies in the same number of
those cliques, so the cover has value n / w, and y = 1/w on every vertex
is dual-feasible because the search proves that no clique has more than w
vertices: by weak duality the orbit cover is optimal (Scheinerman and
Ullman, *Fractional Graph Theory*, ch. 3).  It passes the same
``cover_violation`` gate, with its declared value n / w.  An orbit of more
than ``ORBIT_ENTRIES`` clique entries is not listed; the master solves that
graph instead.

Any other graph first tries to close the cover with as many cliques as a
stable set S has vertices, by one DSATUR descent
(``clique_cover_leq(g, |S|)``) under an allowance of 2n + 1 nodes.  S is the caller's set when it
has searched one; otherwise the greedy set S0 (``greedy_stable_set``) is
tried first, and then alpha's set, searched under its own allowance of n
nodes, if it is larger than S0 (the descent depends only on the graph and
the size).  Every allowance lies within the caller's budget: each node
counts against both, and only the budget running out stops the cover.  A
partition of the vertices into |S| cliques, each at weight 1, has value
|S|, and y = 1 on S and 0 elsewhere is dual-feasible because no clique
meets a stable set twice; so both are optimal, and the sandwich alpha <=
Theta <= cover collapses to alpha (Shannon, *The zero error capacity of a
noisy channel*, 1956).  So S0 closes a cover only when it is maximum, with
the partition alpha's set would give; it closes 116 (seed 1) and 117 (seed
23) of the ``cover-lp`` workload's 140 random ``file:`` graphs, and
alpha's set 11 and 8 more.  Where alpha's search would run out of its n
nodes, S0 can close a graph that alpha's set leaves to the master.  The
partition passes ``cover_violation``, the set that closed it must be
independent and |S| must equal the number of cliques, or it is an
internal error.  When no descent finds such a partition the master runs
as it would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .budget import Budget
from .errors import BudgetExhausted, SearchCutoff, VerificationError
from .graphs import Graph, complement, is_clique, stray_vertex
from .independence import (alpha, clique_cover_leq, greedy_stable_set, independent_set_violation,
                           max_weight_independent_set)
from .lp import F0, F1, CoveringMaster
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
        if len(set(cl)) != len(cl):
            return f"class {idx} lists a vertex twice"
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


# The most clique entries (cliques x clique size) an orbit cover may list.
ORBIT_ENTRIES = 1 << 20


def _orbit(clique: tuple[int, ...], perms: list[list[int]], budget: Budget) -> list[tuple[int, ...]] | None:
    """The sorted orbit of a sorted vertex set under the permutations, or
    None once it would exceed ``ORBIT_ENTRIES`` entries; one budget node
    per member."""
    seen = {clique}
    todo = [clique]
    while todo:
        members = todo.pop()
        for perm in perms:
            image = tuple(sorted(map(perm.__getitem__, members)))
            if image not in seen:
                if (len(seen) + 1) * len(clique) > ORBIT_ENTRIES:
                    return None
                budget.spend()
                seen.add(image)
                todo.append(image)
    return sorted(seen)


def _orbit_cover(g: Graph, budget: Budget) -> FractionalCover | None:
    """The orbit cover of a vertex-transitive g, or None if its orbit is too
    large to list."""
    omega, clique = alpha(complement(g), budget)
    orbit = _orbit(clique, [p.tolist() for p in g.transitive_automorphisms], budget)
    if orbit is None:
        return None
    weight = Fraction(g.n, omega * len(orbit))
    cover = FractionalCover(tuple((cl, weight) for cl in orbit), Fraction(g.n, omega), weight.denominator)
    failure = cover_violation(g, cover)
    if failure is not None:
        raise VerificationError(f"internal error: orbit cover invalid: {failure}")
    return cover


def _partition_cover(g: Graph, stable: Sequence[int], budget: Budget) -> FractionalCover | None:
    """A partition of g into |S| cliques, each at weight 1, for the stable
    set S, or None when one DSATUR descent under an allowance of 2n + 1
    nodes finds none.  The allowance lies within the budget; when the
    budget runs out first, BudgetExhausted propagates."""
    if not stable:
        return None
    allowance = Budget(nodes=2 * g.n + 1, within=budget)
    try:
        partition = clique_cover_leq(g, len(stable), allowance)
    except BudgetExhausted:
        if allowance.exhausted:
            return None
        raise
    if partition is None:
        return None
    classes = tuple(sorted((cl, F1) for cl in partition.classes))
    cover = FractionalCover(classes, Fraction(len(classes)), 1)
    failure = cover_violation(g, cover) or independent_set_violation(g, stable)
    if failure is None and len(stable) != len(classes):
        failure = f"{len(classes)} cliques against a stable set of {len(stable)}"
    if failure is not None:
        raise VerificationError(f"internal error: integral cover invalid: {failure}")
    return cover


def _integral_cover(g: Graph, stable: Sequence[int] | None, budget: Budget) -> FractionalCover | None:
    """``_partition_cover`` for the caller's stable set or, without one,
    for the greedy set S0 first (it closes 116 and 117 of the ``cover-lp``
    workload's 140 ``file:`` graphs at seeds 1 and 23) and then, if that
    finds no partition, for alpha's set under an allowance of n nodes.  A
    set of alpha's no larger than S0 is not tried: the descent depends only
    on g and the size, so it would fail again."""
    if stable is not None:
        return _partition_cover(g, stable, budget)
    greedy = greedy_stable_set(g)
    cover = _partition_cover(g, greedy, budget)
    if cover is not None:
        return cover
    allowance = Budget(nodes=g.n, within=budget)
    try:
        _, stable = alpha(g, allowance)
    except SearchCutoff:
        if allowance.exhausted:
            return None
        raise BudgetExhausted("budget exhausted in the integral cover's alpha search") from None
    if len(stable) <= len(greedy):
        return None
    return _partition_cover(g, stable, budget)


def _master_cover(g: Graph, budget: Budget) -> FractionalCover:
    """The optimal cover of g (n >= 1) by column generation on
    ``lp.CoveringMaster``, gated on the master's integers."""
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


def fractional_clique_cover(g: Graph, budget: Budget | None = None,
                            stable: Sequence[int] | None = None) -> FractionalCover:
    """Exact optimal fractional clique cover of g (equals the fractional
    chromatic number of the complement): the orbit cover on a
    vertex-transitive graph, else a partition into as many cliques as a
    stable set has vertices (``stable``, the caller's, if it has one), else
    column generation.

    Under a budget, raises BudgetExhausted from a master pivot, the orbit
    listing or the integral step, or SearchCutoff from pricing or the
    clique search."""
    if g.n == 0:
        return FractionalCover((), F0, 1)
    budget = budget or Budget()
    if g.transitive_automorphisms is not None:
        cover = _orbit_cover(g, budget)
        if cover is not None:
            return cover
    return _integral_cover(g, stable, budget) or _master_cover(g, budget)
