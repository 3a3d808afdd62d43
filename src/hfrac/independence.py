"""Exact independence numbers, clique covers, and a weighted stable-set oracle.

``alpha`` and ``max_weight_independent_set`` share one explicit-stack
bitset branch-and-bound (MCS/BBMC style).  Vertices are renumbered so that
bit order is the colouring order: ascending weight, then ascending degree,
the higher vertex first on ties, so the search branches on heavy,
high-degree vertices first.  That order is one stable sort by weight of
the graph's cached ``Graph.degree_order`` (descending degree, then vertex),
reversed, so a pricing call pays for no degree count.  At every node
the candidates are split into cliques one class at a time; a vertex's bound
is the sum of the class maxima up to its class (its class index for unit
weights), and only vertices whose bound can still beat the incumbent are
kept and branched on, last-coloured first.  Weights are nonnegative
integers.  The renumbered bitset rows are one permutation of the graph's
adjacency matrix, packed.  ``greedy_clique_cover`` is the
same colouring over all vertices in descending-degree order.

``clique_cover_leq`` colours the complement by DSATUR backtracking
(Brélaz 1979) in one explicit-stack loop.  It keeps one member bitset per
colour and every vertex's saturation (the number of colours among its
complement neighbours) current as colours are set and cleared, so a node
costs one pass over the scores plus the neighbours of the vertex it
colours.  The next vertex has the largest (saturation, complement degree),
the lowest on ties, and tries the colours in use and then one new one.

When a budget runs out the searches surface a certified interval instead
of failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .budget import Budget
from .errors import BudgetExhausted, PreconditionError, SearchCutoff
from .graphs import Graph, bit_rows, complement, is_clique, is_independent_set, stray_vertex
from .serialize import read_ints, read_list


@dataclass(frozen=True)
class CliqueCover:
    """A partition of the vertex set into cliques."""

    classes: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {"kind": "cliquecover", "classes": [list(c) for c in self.classes]}

    @classmethod
    def from_json(cls, obj: dict) -> "CliqueCover":
        return cls(tuple(read_ints(c, "class") for c in read_list(obj["classes"], "classes")))


def clique_cover_violation(g: Graph, cover: CliqueCover) -> str | None:
    """None if the cover partitions V(g) into cliques, else the first defect."""
    seen: set[int] = set()
    for idx, cls in enumerate(cover.classes):
        stray = stray_vertex(g, cls)
        if stray is not None:
            return f"class {idx} has vertex {stray} outside [0, {g.n})"
        if not is_clique(g, cls):
            return f"class {idx} is not a clique: {sorted(cls)}"
        for v in cls:
            if v in seen:
                return f"vertex {v} covered twice"
            seen.add(v)
    if len(seen) != g.n:
        missing = next(v for v in range(g.n) if v not in seen)
        return f"vertex {missing} is uncovered"
    return None


def independent_set_violation(g: Graph, vertices: Sequence[int]) -> str | None:
    """None if the vertices are distinct vertices of g and pairwise
    non-adjacent, else why not."""
    stray = stray_vertex(g, vertices)
    if stray is not None:
        return f"vertex {stray} outside [0, {g.n})"
    if len(set(vertices)) != len(vertices):
        return "a vertex is listed twice"
    if not is_independent_set(g, vertices):
        return "vertex set is not independent"
    return None


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _relabel(g: Graph, order: Sequence[int]) -> list[int]:
    """Adjacency rows of g with vertex order[i] moved to bit i."""
    index = np.array(order, dtype=np.intp)
    return bit_rows(g.matrix.take(index, 0).take(index, 1))


def _colour(adj: list[int], w: list[int], cand: int, floor: int) -> tuple[list[int], list[int], int]:
    """Split cand into cliques, one class at a time in bit order.

    Returns the vertices whose cumulative bound (the sum of the class
    maxima of w up to their class) exceeds floor, in colouring order, their
    bounds, and the bound of the whole split.
    """
    verts: list[int] = []
    bounds: list[int] = []
    total = 0
    while cand:
        q = cand
        cls = 0
        top = 0
        while q:
            low = q & -q
            v = low.bit_length() - 1
            q &= adj[v]
            cls |= low
            if w[v] > top:
                top = w[v]
        cand ^= cls
        total += top
        if total > floor:
            start = len(verts)
            while cls:  # inline, not _bits: a generator here costs the search about 4%
                low = cls & -cls
                verts.append(low.bit_length() - 1)
                cls ^= low
            bounds += [total] * (len(verts) - start)
    return verts, bounds, total


def _complete(adj: list[int], chosen: int) -> int:
    """Extend the stable set chosen to a maximal one, highest bit first."""
    free = (1 << len(adj)) - 1
    for i in _bits(chosen):
        free &= ~adj[i] & ~(1 << i)
    while free:
        i = free.bit_length() - 1
        chosen |= 1 << i
        free &= ~adj[i] & ~(1 << i)
    return chosen


# A frame that is suspended under a child keeps at most this many colour
# list entries; a longer list is dropped and rebuilt when the frame resumes,
# so a deep search holds O(depth) small frames.
_KEEP = 32


def _max_stable(
    g: Graph, order: Sequence[int], weights: Sequence[int], budget: Budget, name: str
) -> tuple[int, tuple[int, ...]]:
    """Maximum-weight stable set of g for nonnegative integer weights.

    Bit i stands for vertex order[i].  The incumbent starts as the greedy
    stable set taken highest bit first.  A frame is [candidates, chosen
    set, its weight, colour list, bounds]; it branches on its candidates
    last-coloured first and is popped as soon as weight + bound <= best.
    Rebuilding a dropped list gives the same classes without the vertices
    already branched on, since those were coloured last.  One budget node
    per search node; on exhaustion raises SearchCutoff(name, incumbent
    weight, root bound, incumbent).
    """
    adj = _relabel(g, order)
    w = [weights[v] for v in order]
    cand = 0
    for i in range(g.n):
        if w[i]:
            cand |= 1 << i
    best_set = _complete(adj, 0)
    best = sum(w[i] for i in _bits(best_set))
    verts, bounds, root_bound = _colour(adj, w, cand, best)
    try:
        budget.spend()
        stack = [[cand, 0, 0, verts, bounds]]
        while stack:
            frame = stack[-1]
            cand, cur, size, verts, bounds = frame
            if verts is None:
                verts, bounds, _ = _colour(adj, w, cand, best - size)
                frame[3] = verts
                frame[4] = bounds
            if not verts or size + bounds[-1] <= best:
                stack.pop()
                continue
            v = verts.pop()
            bounds.pop()
            cand ^= 1 << v
            frame[0] = cand
            budget.spend()
            cur |= 1 << v
            size += w[v]
            if size > best:
                best = size
                best_set = cur
            cand &= ~adj[v]
            if cand:
                child_verts, child_bounds, _ = _colour(adj, w, cand, best - size)
                if child_verts:
                    if len(verts) > _KEEP:
                        frame[3] = frame[4] = None
                    stack.append([cand, cur, size, child_verts, child_bounds])
    except BudgetExhausted:
        raise SearchCutoff(name, best, root_bound, tuple(sorted(order[i] for i in _bits(best_set)))) from None
    # An optimum meets every vertex of positive weight, so what it misses
    # weighs nothing: complete it to a maximal stable set.
    return best, tuple(sorted(order[i] for i in _bits(_complete(adj, best_set))))


def greedy_clique_cover(g: Graph) -> CliqueCover:
    """First-fit clique partition in descending-degree order."""
    order = g.degree_order
    verts, bounds, _ = _colour(_relabel(g, order), [1] * g.n, (1 << g.n) - 1, 0)
    classes: list[list[int]] = []
    for v, k in zip(verts, bounds):
        if k > len(classes):
            classes.append([])
        classes[-1].append(order[v])
    return CliqueCover(tuple(tuple(sorted(c)) for c in classes))


def alpha(g: Graph, budget: Budget | None = None) -> tuple[int, tuple[int, ...]]:
    """Exact maximum independent set: (size, witness).

    Raises SearchCutoff carrying the certified interval [best found, root
    bound] and the best witness when the budget runs out.
    """
    return _max_stable(g, g.degree_order[::-1], [1] * g.n, budget or Budget(), "alpha")


def alpha_lower_end(g: Graph, budget: Budget) -> tuple[int, tuple[int, ...]]:
    """``alpha`` with its witness or, when the budget runs out, the
    certified lower end of the cut-off search with its witness."""
    try:
        return alpha(g, budget)
    except SearchCutoff as cut:
        return cut.lower, tuple(cut.witness or ())


def max_weight_independent_set(
    g: Graph, weights: Sequence[int], budget: Budget | None = None
) -> tuple[tuple[int, ...], int]:
    """Exact maximum-weight independent set for nonnegative integer weights:
    (witness, optimum).

    The witness is a maximal independent set: zero-weight vertices are
    added to the optimum where they fit.  Any weight that is not an int (a
    bool, float or ``Fraction`` among them) is refused with ValueError.
    Raises SearchCutoff (interval and witness as for ``alpha``) when the
    budget runs out.
    """
    if len(weights) != g.n:
        raise ValueError("one weight per vertex required")
    if not all(type(x) is int and x >= 0 for x in weights):
        raise ValueError("weights must be nonnegative ints")
    # ascending weight, then ascending degree, the higher vertex first:
    # the reversed degree order, stably sorted by weight
    order = sorted(reversed(g.degree_order), key=weights.__getitem__)
    best, witness = _max_stable(g, order, weights, budget or Budget(), "max_weight_independent_set")
    return witness, best


def clique_cover_leq(g: Graph, k: int, budget: Budget | None = None) -> CliqueCover | None:
    """A partition of V(g) into at most k cliques, or None if impossible.

    Equivalent to properly coloring the complement with k colors; the
    search is exact (DSATUR-ordered backtracking).  Raises BudgetExhausted
    if the budget trips before the search resolves.
    """
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    n = g.n
    if n == 0:
        return CliqueCover(())
    budget = budget or Budget()
    comp = complement(g).adj
    # score[v] = sat(v) * n + complement degree, less n * n while v is
    # coloured; sat(v) counts the colours among v's complement neighbours
    score = [row.bit_count() for row in comp]
    colour = [-1] * n
    members = [0] * min(k, n)  # the vertices of each colour
    used = 0  # colours 0 .. used-1 are in use: each node may open only the next one
    stack: list[list[int]] = []  # per coloured vertex: [vertex, next colour to try, colours in use before it]

    def paint(v: int, c: int) -> None:
        for u in _bits(comp[v]):
            if not comp[u] & members[c]:
                score[u] += n
        members[c] |= 1 << v
        colour[v] = c
        score[v] -= n * n

    def unpaint(v: int) -> None:
        c = colour[v]
        members[c] ^= 1 << v
        for u in _bits(comp[v]):
            if not comp[u] & members[c]:
                score[u] -= n
        colour[v] = -1
        score[v] += n * n

    while True:
        budget.spend()
        v = max(range(n), key=score.__getitem__)  # the lowest vertex on ties
        if score[v] < 0:
            break  # every vertex is coloured
        stack.append([v, 0, used])
        while stack:
            frame = stack[-1]
            v, c, used = frame
            if colour[v] >= 0:
                unpaint(v)
            last = min(used, k - 1)
            while c <= last and comp[v] & members[c]:
                c += 1
            if c <= last:
                paint(v, c)
                used += c == used
                frame[1] = c + 1
                break
            stack.pop()
        else:
            return None
    return CliqueCover(tuple(tuple(_bits(members[c])) for c in range(used)))
