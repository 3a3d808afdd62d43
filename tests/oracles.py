"""Slow reference implementations that the tests check the library against."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from hfrac.budget import Budget
from hfrac.errors import DimensionMismatch, GraphParseError, GuardExceeded, PreconditionError, VerificationError
from hfrac.gfmat import FMatrix, _pivots, rank
from hfrac.graphs import Graph, graph_from_edges
from hfrac.independence import CliqueCover
from hfrac.lp import (
    F0,
    F1,
    REL_EQ,
    REL_GE,
    REL_LE,
    CoveringMaster,
    IntegerSimplex,
    LinearProgram,
    LpSolution,
    check_solution,
)
from hfrac.reps import DRep


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def random_graph(rng, n: int, prob: float = 0.5) -> Graph:
    """A G(n, prob) graph drawn from ``rng``, a ``random.Random``."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
    return graph_from_edges(n, edges)


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
    for v in sorted(range(g.n), key=lambda u: (-g.degrees[u], u)):
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


def drep_column_factors(rep: DRep) -> tuple[FMatrix, ...]:
    """The column factors A_v of a block certificate's matrix M: the
    vertex-v columns of Cᵀ, C the pivot columns of M (``gfmat._pivots``).
    Those columns span M's column space, so M = C X for some X and block
    (u, v) of M is A_uᵀ X_v; no solve is needed to use that.  Each A_v is
    rank(M) x d."""
    m = rep.matrix
    ct = m.a[:, [c for _, c in _pivots(m.a, m.p)]].T
    return tuple(FMatrix(m.p, ct[:, v * rep.d:(v + 1) * rep.d]) for v in range(rep.nvertices))


def stacked_rank(mats) -> int:
    """Rank over GF(p) of the matrices set side by side (``np.hstack``)."""
    return rank(FMatrix(mats[0].p, np.hstack([m.a for m in mats])))


def subspace_violation(g: Graph, bases, d: int) -> str | None:
    """The fractional bound in its subspace form: None when the column
    spaces of ``bases`` (one matrix per vertex) are d-dimensional and each
    meets the span of its non-neighbours' spaces trivially, else the first
    defect.  The column factors of a verified ``DRep`` are one."""
    if len(bases) != g.n:
        raise DimensionMismatch(f"{len(bases)} subspaces for {g.n} vertices")
    for v, b in enumerate(bases):
        if rank(b) != d:
            return f"subspace of vertex {v} has dimension below {d}"
    for v in range(g.n):
        others = [bases[u] for u in range(g.n) if u != v and not g.matrix[u, v]]
        if others and stacked_rank([bases[v], *others]) != d + stacked_rank(others):
            return f"subspace of vertex {v} meets its non-neighbors' span nontrivially"
    return None


def int64_eliminate(a: np.ndarray, p: int) -> list[tuple[int, int]]:
    """Forward elimination over GF(p) on an int64 copy of a, every row
    updated whole and reduced with ``%``; returns the (original_row,
    column) pivots in elimination order, by the first-nonzero rule."""
    a = a.astype(np.int64)
    a %= p
    rows, cols = a.shape
    origin = list(range(rows))
    r = 0
    pivots: list[tuple[int, int]] = []
    for c in range(cols):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            origin[r], origin[i] = origin[i], origin[r]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = a[r] * inv % p
        below = np.nonzero(a[r + 1:, c])[0]
        if below.size:
            idx = below + r + 1
            a[idx] = (a[idx] - a[idx, c:c + 1] * a[r]) % p
        pivots.append((origin[r], c))
        r += 1
        if r == rows:
            break
    return pivots


def edge_loop_read_graph_file(path: str, max_vertices: int | None = None) -> Graph:
    """``graphs.read_graph_file`` checking and setting one edge at a time,
    in file order; with no ``max_vertices``, without the vertex cap."""
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
    if max_vertices is not None and n > max_vertices:
        raise GuardExceeded(f"graph file {path} would have {n} vertices (cap {max_vertices})")
    if len(nums) != 2 + 2 * m:
        raise GraphParseError(f"expected {m} edges ({2 + 2 * m} integers), found {len(nums)} integers")
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


def bitloop_edges(g: Graph) -> list[list[int]]:
    """The edges [u, v] with u < v in row-major order, read off the bitset
    rows, as ``argwhere_edge_array(g.matrix).tolist()`` lists them."""
    return [[u, v] for u in range(g.n) for v in _bits(g.adj[u] >> (u + 1) << (u + 1))]


def argwhere_edge_array(matrix: np.ndarray) -> np.ndarray:
    """The (u, v) pairs with u < v at which a symmetric matrix holds, in
    row-major order, as ``np.argwhere`` lists them."""
    return np.argwhere(np.triu(matrix, 1))


def argwhere_edge_text(matrix: np.ndarray, seps: bytes) -> bytes:
    """The edge text ``u<s0>v<s1>`` of every pair ``argwhere_edge_array``
    lists, one f-string per edge."""
    s0, s1 = seps.decode()
    return "".join(f"{u}{s0}{v}{s1}" for u, v in argwhere_edge_array(matrix).tolist()).encode()


def fstring_format_graph(g: Graph) -> str:
    """The graph text format, one f-string per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in argwhere_edge_array(g.matrix).tolist())
    return "\n".join(lines) + "\n"


def blockloop_drep_violation(g: Graph, rep: DRep) -> str | None:
    """``drep_violation``'s answer, block by block: the first vertex whose
    diagonal block is not the identity, else the first non-edge (u, v) in
    row-major order whose block holds a nonzero entry, else None."""
    d, a = rep.d, rep.matrix.a
    for v in range(g.n):
        if not np.array_equal(a[v * d:(v + 1) * d, v * d:(v + 1) * d], np.eye(d)):
            return f"diagonal block of vertex {v} is not the identity"
    for u in range(g.n):
        for v in range(g.n):
            if u != v and not g.matrix[u, v] and a[u * d:(u + 1) * d, v * d:(v + 1) * d].any():
                return f"nonzero block at non-edge ({u}, {v})"
    return None


def set_intersection_subset_graph(n: int, size: int, adjacent) -> Graph:
    """The graph on the size-subsets of [n], lexicographic, with u ~ v iff
    ``adjacent(|u ∩ v|)``, one pair of frozensets at a time."""
    verts = list(combinations(range(n), size))
    sets = [frozenset(x) for x in verts]
    mat = np.zeros((len(verts), len(verts)), dtype=bool)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if adjacent(len(sets[i] & sets[j])):
                mat[i, j] = mat[j, i] = True
    return Graph(mat)


def _mat_tmul(a: tuple, b: tuple, p: int, n: int, d: int) -> tuple:
    """AᵀB for flat row-major n x d tuples; returns a flat d x d tuple."""
    return tuple(sum(a[k * d + i] * b[k * d + j] for k in range(n)) % p for i in range(d) for j in range(d))


def pair_loop_universal_graph(p: int, n: int, d: int) -> Graph:
    """``graphs.universal_graph`` one pair at a time: the n x d matrices in
    code order (the row-major entries of matrix c are the base-p digits of
    c, least significant first), the pairs (A, B) with AᵀB = I in that
    order, and distinct (A, B), (C, D) adjacent unless AᵀD = CᵀB = 0."""
    mats = [tuple(c // p**e % p for e in range(n * d)) for c in range(p ** (n * d))]
    ident = tuple(int(i == j) for i in range(d) for j in range(d))
    zero = (0,) * (d * d)
    verts = [(a, b) for a in mats for b in mats if _mat_tmul(a, b, p, n, d) == ident]
    mat = np.zeros((len(verts), len(verts)), dtype=bool)
    for i, (a, b) in enumerate(verts):
        for j in range(i + 1, len(verts)):
            c, dd = verts[j]
            if not (_mat_tmul(a, dd, p, n, d) == zero and _mat_tmul(c, b, p, n, d) == zero):
                mat[i, j] = mat[j, i] = True
    return Graph(mat)


def _rows_graph(rows: list[int], expr) -> Graph:
    mat = np.zeros((len(rows), len(rows)), dtype=bool)
    for u, row in enumerate(rows):
        for v in _bits(row):
            mat[u, v] = True
    return Graph(mat, expr)


def bitloop_complement(g: Graph) -> Graph:
    """``graphs.complement`` on bitset rows."""
    full = (1 << g.n) - 1
    adj = [(full & ~row) & ~(1 << v) for v, row in enumerate(g.adj)]
    return _rows_graph(adj, f"complement({g.expr})" if g.expr else None)


def bitloop_strong_product(g: Graph, h: Graph) -> Graph:
    """``graphs.strong_product`` on bitset rows: the row of (u, x) is the
    closed neighbourhood of x shifted into every block of u's closed
    neighbourhood, less (u, x) itself."""
    adj = [0] * (g.n * h.n)
    for u in range(g.n):
        gu = g.adj[u] | 1 << u
        for x in range(h.n):
            a = u * h.n + x
            hu = h.adj[x] | 1 << x
            row = 0
            for v in _bits(gu):
                row |= hu << (v * h.n)
            adj[a] = row & ~(1 << a)
    return _rows_graph(adj, f"strong({g.expr},{h.expr})" if g.expr and h.expr else None)


def bitloop_lex_product(g: Graph, h: Graph) -> Graph:
    """``graphs.lex_product`` on bitset rows: the row of (u, x) is x's
    neighbourhood in block u plus every block of u's neighbourhood."""
    block_full = (1 << h.n) - 1
    adj = [0] * (g.n * h.n)
    for u in range(g.n):
        for x in range(h.n):
            row = h.adj[x] << (u * h.n)
            for v in _bits(g.adj[u]):
                row |= block_full << (v * h.n)
            adj[u * h.n + x] = row
    return _rows_graph(adj, f"lex({g.expr},{h.expr})" if g.expr and h.expr else None)


def dense_check_solution(lp: LinearProgram, sol: LpSolution) -> bool:
    """``lp.check_solution`` over every coefficient of the constraint
    matrix, a coefficient a row does not list read as zero, twice: once
    per row for the activities and once per column for the reduced costs."""
    if sol.assignment is None:
        return False
    if len(sol.assignment) != len(lp.objective):
        raise DimensionMismatch("assignment length does not match variable count")
    x = [Fraction(v) for v in sol.assignment]
    nv = len(x)
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum(Fraction(coeffs.get(j, 0)) * x[j] for j in range(nv))
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
            yi * Fraction(coeffs.get(j, 0)) for yi, (coeffs, _, _) in zip(y, lp.constraints)
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
    return LinearProgram(
        objective=(1,) * n,
        constraints=tuple((dict.fromkeys(cl, 1), "<=", 1) for cl in cliques),
        bounds=((0, None),) * n,
    )


def _ml_mul(f: dict, g: dict, m: int) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for s, a in f.items():
        for t, b in g.items():
            key = tuple(sorted(set(s) | set(t)))  # x^2 = x on 0/1 points
            out[key] = (out.get(key, 0) + a * b) % m
    return {k: v for k, v in out.items() if v}


def multilinear_evaluation(modulus: int, constants, points) -> np.ndarray:
    """E[u, v] = f_u(x_v) mod ``modulus``, for the polynomials
    f_u(y) = prod_c (<x_u, y> - c) over ``constants`` with x_u the 0/1
    vector ``points[u]``: each f_u is expanded into its multilinear
    monomials (x^2 = x on 0/1 points) and evaluated at each point one
    entry at a time, a reduced polynomial at a 0/1 point being the sum of
    the coefficients of the monomials that the point's support contains."""
    m = modulus
    members = [frozenset(j for j, bit in enumerate(x) if bit) for x in points]
    e = np.zeros((len(members), len(members)), dtype=np.int64)
    for u, xu in enumerate(members):
        f: dict = {(): 1 % m}
        for c in constants:
            factor = {(): (-c) % m, **{(j,): 1 % m for j in xu}}
            f = _ml_mul(f, {k: v for k, v in factor.items() if v}, m)
        for v, xv in enumerate(members):
            e[u, v] = sum(c for k, c in f.items() if xv.issuperset(k)) % m
    return e


def kron_permutation_tensor(rep_g: DRep, rep_h: DRep) -> DRep:
    """``tensor_dreps`` as ``np.kron`` followed by a row and column gather
    through a permutation built one block of d2 indices at a time."""
    mg, mh = rep_g.matrix, rep_h.matrix
    d1, d2 = rep_g.d, rep_h.d
    ng, nh = rep_g.nvertices, rep_h.nvertices
    kron = np.kron(mg.a.astype(np.int64), mh.a.astype(np.int64)) % mg.p
    perm = np.empty(ng * nh * d1 * d2, dtype=np.int64)
    for u in range(ng):
        for i in range(d1):
            base_k = (u * d1 + i) * nh * d2
            for x in range(nh):
                base_t = ((u * nh + x) * d1 + i) * d2
                perm[base_t:base_t + d2] = np.arange(base_k + x * d2, base_k + (x + 1) * d2)
    return DRep(d1 * d2, FMatrix(mg.p, kron[np.ix_(perm, perm)]))


def master_duals(master: CoveringMaster) -> tuple[Fraction, ...]:
    """The row prices y = c_B B^-1 of the master's current basis."""
    return tuple(Fraction(yn, master.det) for yn in master.dual_numerators())


def dual_numerators_from_scratch(master: IntegerSimplex) -> list[int]:
    """The engine's duals times det, summed from scratch as
    c_B (det B^-1): the rows of det B^-1, each weighted by the cost of the
    variable basic in it, added up."""
    yn = [0] * master.m
    for row, var in zip(master._inv, master._basis):
        cost = master._costs[var] if var >= 0 else master._aux_costs[~var]
        yn = [a + cost * b for a, b in zip(yn, row)]
    return yn


def engine_from_scratch(engine: IntegerSimplex, rhs: list[int]) -> tuple[int, list, list, list]:
    """|det B|, det * B^-1, the basic values times det and the dual
    numerators of the engine's current basis, from the definition: the
    basis columns, set up from the engine's column data, inverted by
    Gauss-Jordan elimination in ``Fraction``s, with ``det`` the engine's
    det; ``rhs`` is the right-hand side the engine started from."""
    m = engine.m
    mat = [[F0] * m + [F1 if i == j else F0 for j in range(m)] for i in range(m)]  # [B | I]
    for k, var in enumerate(engine._basis):
        if var < 0:
            i, sign = engine._aux[~var]
            mat[i][k] = Fraction(sign)
        else:
            support, coeffs = engine.columns[var], engine._coeffs[var]
            for i, c in zip(support, coeffs or [1] * len(support)):
                mat[i][k] = Fraction(c)
    det_b = F1
    for k in range(m):
        r = next(i for i in range(k, m) if mat[i][k])
        mat[k], mat[r] = mat[r], mat[k]
        if r != k:
            det_b = -det_b
        det_b *= mat[k][k]
        mat[k] = [a / mat[k][k] for a in mat[k]]
        for i in range(m):
            if i != k and mat[i][k]:
                mat[i] = [a - mat[i][k] * b for a, b in zip(mat[i], mat[k])]
    det = engine.det
    inv = [[a * det for a in row[m:]] for row in mat]
    x = [sum((a * b for a, b in zip(row[m:], rhs)), F0) * det for row in mat]
    costs = [engine._costs[var] if var >= 0 else engine._aux_costs[~var] for var in engine._basis]
    yn = [sum((c * row[j] for c, row in zip(costs, inv)), F0) for j in range(m)]
    return abs(det_b), inv, x, yn


class FromScratchChecked:
    """Mixin for an ``IntegerSimplex`` that checks, after every pivot,
    det, det * B^-1, the basic values and the dual numerators against
    ``engine_from_scratch``, and records each step's kind: "unimodular"
    when det is kept (the pivot entry equalled it), else "dense"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.start_rhs = list(self._x)  # B = I at the start
        self.steps: list[str] = []
        self.dets = [self.det]

    def _pivot(self, var: int, r: int | None = None) -> bool:
        det = self.det
        entered = super()._pivot(var, r)
        if entered:
            self.steps.append("unimodular" if self.det == det else "dense")
            self.dets.append(self.det)
            assert engine_from_scratch(self, self.start_rhs) == (self.det, self._inv, self._x, self._yn)
        return entered


def packbits_bit_rows(mat: np.ndarray) -> list[int]:
    """Bitset rows of a boolean matrix through packed little-endian bytes,
    one ``int.from_bytes`` per row."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def character_matrix_one_digit_text(values: np.ndarray, seps: bytes) -> bytes:
    """The text of one-digit non-negative integers, the i-th followed by
    ``seps[i % len(seps)]``, as a (values, 2) character matrix of digit
    and separator columns flattened row by row."""
    v = np.asarray(values).ravel()
    chars = np.empty((v.size, 2), dtype=np.uint8)
    chars[:, 0] = v + ord("0")
    chars[:, 1] = np.resize(np.frombuffer(seps, dtype=np.uint8), v.size)
    return chars.tobytes()


def strided_one_digit_entries(text: bytes) -> np.ndarray | None:
    """The uint8 values of ``text`` when it is k one-digit fields and their
    commas, read after a comma count as its even bytes less ``ord("0")``;
    None for any other text."""
    fields = text.count(b",") + 1
    b = np.frombuffer(text, dtype=np.uint8)
    if b.size != 2 * fields - 1:
        return None
    digits = b[0::2] - np.uint8(ord("0"))
    return digits if digits.max() <= 9 else None


def _tableau_pivot(tab: list[list[Fraction]], basis: list[int], r: int, c: int) -> None:
    prow = tab[r]
    piv = prow[c]
    if piv != 1:
        inv = F1 / piv
        for j, x in enumerate(prow):
            if x:
                prow[j] = x * inv
    nz = [j for j, x in enumerate(prow) if x]
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[c]
        if f:
            for j in nz:
                row[j] -= f * prow[j]
    basis[r] = c


def _tableau_optimize(tab: list[list[Fraction]], basis: list[int], cost: list[Fraction],
                      enterable: list[bool]) -> str:
    m = len(tab)
    ncols = len(cost)
    while True:
        rows_y = [(i, cost[b]) for i, b in enumerate(basis) if cost[b]]
        entering = -1
        for j in range(ncols):
            if not enterable[j]:
                continue
            red = cost[j] - sum(yi * tab[i][j] for i, yi in rows_y if tab[i][j])
            if red > 0:
                entering = j  # Bland: lowest eligible index
                break
        if entering == -1:
            return "optimal"
        leaving = -1
        best: Fraction | None = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving == -1:
            return "unbounded"
        _tableau_pivot(tab, basis, leaving, entering)


def tableau_simplex_solve(lp: LinearProgram) -> LpSolution:
    """``lp.simplex_solve`` as a dense ``Fraction`` tableau built from
    scratch for one LP (a coefficient a row does not list is zero), with the same standard form and the same pivots in
    the same order (Bland's rule over the same column order)."""
    nv = len(lp.objective)

    # Map each variable onto nonnegative tableau columns.
    var_terms: list[list[tuple[int, int]]] = []  # var -> [(column, sign)]
    var_offset: list[Fraction] = []
    upper_rows: list[tuple[int, Fraction]] = []  # (column, bound on the shifted var)
    ncol = 0
    for j in range(nv):
        lo, up = lp.bound(j)
        if lo is None and up is None:
            var_terms.append([(ncol, 1), (ncol + 1, -1)])
            var_offset.append(F0)
            ncol += 2
        elif lo is not None:
            var_terms.append([(ncol, 1)])
            var_offset.append(Fraction(lo))
            if up is not None:
                if up < lo:
                    return LpSolution("infeasible")
                upper_rows.append((ncol, Fraction(up) - Fraction(lo)))
            ncol += 1
        else:
            var_terms.append([(ncol, -1)])
            var_offset.append(Fraction(up))
            ncol += 1

    # Internal rows: (structural coefficients, relation, rhs, original index, flipped)
    rows: list[tuple[list[Fraction], str, Fraction, int | None, bool]] = []
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        row = [F0] * ncol
        shift = Fraction(rhs) - sum(Fraction(coeffs.get(j, 0)) * var_offset[j] for j in range(nv))
        for j in range(nv):
            cj = Fraction(coeffs.get(j, 0))
            if cj:
                for col, sign in var_terms[j]:
                    row[col] += cj * sign
        rows.append((row, rel, shift, i, False))
    for col, ub in upper_rows:
        row = [F0] * ncol
        row[col] = F1
        rows.append((row, REL_LE, ub, None, False))

    norm_rows = []
    for row, rel, rhs, oi, _ in rows:
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
            rel = {REL_LE: REL_GE, REL_GE: REL_LE, REL_EQ: REL_EQ}[rel]
            norm_rows.append((row, rel, rhs, oi, True))
        else:
            norm_rows.append((row, rel, rhs, oi, False))

    m = len(norm_rows)
    n_aux = sum(2 if rel == REL_GE else 1 for _, rel, _, _, _ in norm_rows)
    width = ncol + n_aux
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    unit_col: list[int] = []  # column of the +e_i unit vector for each row
    artificial = [False] * width
    aux = ncol
    for row, rel, rhs, _, _ in norm_rows:
        full = row + [F0] * n_aux + [rhs]
        if rel == REL_LE:
            full[aux] = F1
            unit_col.append(aux)
            basis.append(aux)
            aux += 1
        elif rel == REL_GE:
            full[aux] = Fraction(-1)
            full[aux + 1] = F1
            artificial[aux + 1] = True
            unit_col.append(aux + 1)
            basis.append(aux + 1)
            aux += 2
        else:
            full[aux] = F1
            artificial[aux] = True
            unit_col.append(aux)
            basis.append(aux)
            aux += 1
        tab.append(full)

    if any(artificial):
        cost1 = [Fraction(-1) if artificial[j] else F0 for j in range(width)]
        enterable1 = [not artificial[j] for j in range(width)]
        if _tableau_optimize(tab, basis, cost1, enterable1) != "optimal":  # phase 1 is always bounded
            raise VerificationError("internal error: phase 1 did not reach an optimum")
        if any(tab[i][-1] for i in range(m) if artificial[basis[i]]):
            return LpSolution("infeasible")
        # Drive artificials out of the basis; rows that resist are redundant
        # and stay pinned at zero for the rest of the run.
        for i in range(m):
            if artificial[basis[i]]:
                for j in range(width):
                    if not artificial[j] and tab[i][j]:
                        _tableau_pivot(tab, basis, i, j)
                        break

    cost2 = [F0] * width
    for j in range(nv):
        oj = Fraction(lp.objective[j])
        if oj:
            for col, sign in var_terms[j]:
                cost2[col] += oj * sign
    enterable2 = [not artificial[j] for j in range(width)]
    status = _tableau_optimize(tab, basis, cost2, enterable2)
    if status == "unbounded":
        return LpSolution("unbounded")

    col_val = [F0] * width
    for i in range(m):
        col_val[basis[i]] = tab[i][-1]
    assignment = []
    for j in range(nv):
        x = var_offset[j]
        for col, sign in var_terms[j]:
            x += sign * col_val[col]
        assignment.append(x)
    value = sum(Fraction(lp.objective[j]) * assignment[j] for j in range(nv)) + Fraction(lp.constant)

    ybase = [cost2[b] for b in basis]
    dual = [F0] * len(lp.constraints)
    for i, (_, _, _, oi, flipped) in enumerate(norm_rows):
        if oi is None:
            continue
        c = unit_col[i]
        y = sum(ybase[r] * tab[r][c] for r in range(m) if tab[r][c])
        dual[oi] = -y if flipped else y

    sol = LpSolution("optimal", value, tuple(assignment), tuple(dual))
    if not check_solution(lp, sol):
        raise VerificationError("internal error: optimum failed its own certificate")
    return sol
