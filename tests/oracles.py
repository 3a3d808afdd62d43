"""Slow reference implementations that the tests check the library against."""

from __future__ import annotations

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
