"""Slow reference implementations that the tests check the library against."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from hfrac.budget import Budget
from hfrac.errors import DimensionMismatch, GraphParseError, PreconditionError
from hfrac.gfmat import FMatrix, hstack, rank
from hfrac.graphs import Graph, graph_from_edges
from hfrac.independence import CliqueCover
from hfrac.lp import REL_EQ, REL_GE, REL_LE, CoveringMaster, LinearProgram, LpSolution
from hfrac.reps import DRep, SubspaceRep


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


def recursive_clique_cover_leq(g: Graph, k: int, budget: Budget | None = None) -> CliqueCover | None:
    """``independence.clique_cover_leq`` as a recursive DSATUR that
    recounts every saturation at every node: the vertex of largest
    (saturation, complement degree), lowest on ties, tries the colours in
    use and then one new one, up to k; one budget node per call."""
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if g.n == 0:
        return CliqueCover(())
    budget = budget or Budget()
    full = (1 << g.n) - 1
    comp = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]  # complement rows
    colors = [-1] * g.n

    def dfs() -> bool:
        budget.spend()
        best_v = -1
        best_key = (-1, -1)
        for v in range(g.n):
            if colors[v] != -1:
                continue
            sat = len({colors[u] for u in _bits(comp[v]) if colors[u] != -1})
            key = (sat, comp[v].bit_count())
            if key > best_key:
                best_key = key
                best_v = v
        if best_v == -1:
            return True
        used = {colors[u] for u in _bits(comp[best_v]) if colors[u] != -1}
        max_used = max((c for c in colors if c != -1), default=-1)
        for c in range(min(max_used + 1, k - 1) + 1):
            if c in used:
                continue
            colors[best_v] = c
            if dfs():
                return True
            colors[best_v] = -1
        return False

    if not dfs():
        return None
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return CliqueCover(tuple(tuple(sorted(cls)) for _, cls in sorted(classes.items())))


def has_edge_subspacerep_violation(g: Graph, rep: SubspaceRep) -> str | None:
    """``reps.subspacerep_violation`` with each vertex's non-neighbours
    listed by ``has_edge`` calls."""
    if len(rep.bases) != g.n:
        raise DimensionMismatch(f"{len(rep.bases)} subspaces for {g.n} vertices")
    for v, b in enumerate(rep.bases):
        if b.shape != (rep.n, rep.d):
            raise DimensionMismatch(f"basis of vertex {v} has shape {b.shape}")
    for v, b in enumerate(rep.bases):
        if rank(b) != rep.d:
            return f"subspace of vertex {v} has dimension below {rep.d}"
    for v in range(g.n):
        others = [rep.bases[u] for u in range(g.n) if u != v and not g.has_edge(u, v)]
        if not others:
            continue
        span = hstack(others)
        r_span = rank(span)
        if rank(hstack([rep.bases[v], span])) != rep.d + r_span:
            return f"subspace of vertex {v} meets its non-neighbors' span nontrivially"
    return None


def edge_loop_read_graph_file(path: str) -> Graph:
    """``graphs.read_graph_file`` (without the vertex cap) checking and
    setting one edge at a time, in file order."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise GraphParseError("graph file needs a header 'n m'")
    try:
        nums = [int(t) for t in tokens]
    except ValueError as exc:
        raise GraphParseError(f"non-integer token in graph file: {exc}") from exc
    n, m = nums[0], nums[1]
    if n < 0:
        raise GraphParseError(f"vertex count {n} is negative")
    if len(nums) != 2 + 2 * m:
        raise GraphParseError(f"expected {m} edges, found {(len(nums) - 2) // 2}")
    seen = set()
    edges = []
    for i in range(m):
        u, v = nums[2 + 2 * i], nums[3 + 2 * i]
        if not (0 <= u < v < n):
            raise GraphParseError(f"edge ({u}, {v}) violates 0 <= u < v < n")
        if (u, v) in seen:
            raise GraphParseError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return graph_from_edges(n, edges)


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


def dense_check_solution(lp: LinearProgram, sol: LpSolution) -> bool:
    """``lp.check_solution`` over every coefficient of the constraint
    matrix, twice: once per row for the activities and once per column for
    the reduced costs."""
    if sol.assignment is None:
        return False
    if len(sol.assignment) != len(lp.objective):
        raise DimensionMismatch("assignment length does not match variable count")
    x = [Fraction(v) for v in sol.assignment]
    nv = len(x)
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum(Fraction(coeffs[j]) * x[j] for j in range(nv))
        if rel == REL_LE and not lhs <= rhs:
            return False
        if rel == REL_GE and not lhs >= rhs:
            return False
        if rel == REL_EQ and lhs != rhs:
            return False
    for j in range(nv):
        lo, up = lp.bound(j)
        if lo is not None and x[j] < lo:
            return False
        if up is not None and x[j] > up:
            return False
    primal = sum(Fraction(lp.objective[j]) * x[j] for j in range(nv)) + Fraction(lp.constant)
    if sol.value is not None and sol.value != primal:
        return False
    if sol.dual is None:
        return True
    if len(sol.dual) != len(lp.constraints):
        raise DimensionMismatch("dual length does not match constraint count")
    y = [Fraction(v) for v in sol.dual]
    for (_, rel, _), yi in zip(lp.constraints, y):
        if rel == REL_LE and yi < 0:
            return False
        if rel == REL_GE and yi > 0:
            return False
    dual_value = sum(yi * Fraction(rhs) for yi, (_, _, rhs) in zip(y, lp.constraints)) + Fraction(lp.constant)
    for j in range(nv):
        r = Fraction(lp.objective[j]) - sum(
            yi * Fraction(coeffs[j]) for yi, (coeffs, _, _) in zip(y, lp.constraints)
        )
        if r == 0:
            continue
        lo, up = lp.bound(j)
        if r > 0:
            if up is None:
                return False
            dual_value += r * up
        else:
            if lo is None:
                return False
            dual_value += r * lo
    return dual_value == primal


def _master_lp(n: int, cliques: list[tuple[int, ...]]) -> LinearProgram:
    """The dual of the covering master over the generated cliques: max
    sum y_v with y >= 0 and at most 1 on every clique, in 0/1 integers.
    With the master's duals as assignment and its column values as dual
    vector, ``check_solution`` on it is the optimality gate
    ``fraccover`` checks on integers."""
    rows = []
    for cl in cliques:
        members = set(cl)
        rows.append((tuple(int(v in members) for v in range(n)), "<=", 1))
    return LinearProgram(
        objective=(1,) * n,
        constraints=tuple(rows),
        bounds=((0, None),) * n,
    )


def kron_permutation_tensor(rep_g: DRep, rep_h: DRep) -> DRep:
    """``tensor_dreps`` as ``np.kron`` followed by a row and column gather
    through a permutation built one block of d2 indices at a time."""
    mg, mh = rep_g.matrix, rep_h.matrix
    d1, d2 = rep_g.d, rep_h.d
    ng, nh = rep_g.nvertices, rep_h.nvertices
    kron = np.kron(mg.a, mh.a) % mg.p
    perm = np.empty(ng * nh * d1 * d2, dtype=np.int64)
    for u in range(ng):
        for i in range(d1):
            base_k = (u * d1 + i) * nh * d2
            for x in range(nh):
                base_t = ((u * nh + x) * d1 + i) * d2
                perm[base_t:base_t + d2] = np.arange(base_k + x * d2, base_k + (x + 1) * d2)
    return DRep(d1 * d2, FMatrix(mg.p, kron[np.ix_(perm, perm)], copy=False))


def master_duals(master: CoveringMaster) -> tuple[Fraction, ...]:
    """The row prices y = c_B B^-1 of the master's current basis."""
    return tuple(Fraction(yn, master.det) for yn in master.dual_numerators())


def dual_numerators_from_scratch(master: CoveringMaster) -> list[int]:
    """``CoveringMaster``'s duals times det, summed from scratch as
    c_B (det B^-1): the rows of det B^-1 whose basic variable is a column
    (cost 1), added up."""
    yn = [0] * master.m
    for row, var in zip(master._inv, master._basis):
        if var >= 0:
            yn = [a + b for a, b in zip(yn, row)]
    return yn
