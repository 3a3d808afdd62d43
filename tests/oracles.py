"""Slow reference implementations that the tests check the library against."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from hfrac.graphs import Graph


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques (Bron-Kerbosch with pivoting); test-scale oracle."""
    out: list[tuple[int, ...]] = []
    full = (1 << g.n) - 1

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(tuple(_bits(r)))
            return
        pivot_pool = p | x
        pivot = max(_bits(pivot_pool), key=lambda u: (g.adj[u] & p).bit_count())
        ext = p & ~g.adj[pivot]
        for v in _bits(ext):
            expand(r | 1 << v, p & g.adj[v], x & g.adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, full, 0)
    return sorted(out)


def first_fit_clique_cover(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Each vertex, in descending-degree order, joins the first class it is
    adjacent to entirely, or opens a new one."""
    classes: list[list[int]] = []
    for v in sorted(range(g.n), key=lambda u: (-g.degree(u), u)):
        for cls in classes:
            if all(g.adj[v] >> u & 1 for u in cls):
                cls.append(v)
                break
        else:
            classes.append([v])
    return tuple(tuple(sorted(cls)) for cls in classes)


def trial_division_is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def bitloop_adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=bool)
    for u, row in enumerate(g.adj):
        for v in _bits(row):
            a[u, v] = True
    return a


def bitloop_edges(g: Graph) -> list[tuple[int, int]]:
    return [(u, v) for u in range(g.n) for v in _bits(g.adj[u] >> (u + 1) << (u + 1))]


def fstring_format_graph(g: Graph) -> str:
    """The graph text format, one f-string per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def set_intersection_subset_graph(n: int, size: int, adjacent) -> Graph:
    """The graph on the size-subsets of [n], lexicographic, with u ~ v iff
    ``adjacent(|u ∩ v|)``, one pair of frozensets at a time."""
    verts = list(combinations(range(n), size))
    sets = [frozenset(x) for x in verts]
    adj = [0] * len(verts)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if adjacent(len(sets[i] & sets[j])):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(len(verts), tuple(adj), tuple(verts))
