"""Finite simple graphs: generators, products, complements, predicates.

Vertices are ``0..n-1``.  The canonical form of a graph is its tuple of
bitset adjacency rows (bit v of row u set iff uv is an edge); the dense
boolean adjacency matrix is derived from the rows with numpy once per
graph and shared read-only, the edge list comes from it, and the
set-system graphs are built from one matrix product of their incidence
matrix.  Generators attach labels describing where each
vertex came from (the subset for set-system graphs, the matrix pair for
homomorphism-universal graphs, coordinate pairs for products) and
remember the expression that produced the graph, so downstream
certificates stay reproducible and self-describing.

Expression grammar::

    expr := cycle:K | complete:K | empty:K
          | johnson:P,N            # (P+1)-subsets of [N], edge iff |X∩Y| ≢ 0 (mod P)
          | alon:P,Q,N             # (PQ-1)-subsets of [N], edge iff |X∩Y| ≡ -1 (mod P)
          | universal:P,N,D        # pairs (A,B) with AᵀB = I_D over GF(P)
          | complement(expr) | strong(expr,expr) | lex(expr,expr)
          | file:PATH              # text format, PATH without ',()' or whitespace

Vertex order is lexicographic for subset-labeled graphs and row-major for
products, so certificates indexed by vertex order are byte-reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable, NoReturn

import numpy as np

from .errors import GraphParseError, GuardExceeded, PreconditionError
from .serialize import int_text

DEFAULT_MAX_VERTICES = 5000
UNIVERSAL_PAIR_CAP = 10**7

_LEAF_OPS = {"cycle": 1, "complete": 1, "empty": 1, "johnson": 2, "alon": 3, "universal": 3}
_COMBINATOR_OPS = {"complement": 1, "strong": 2, "lex": 2}


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015); above it no answer is given.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises GuardExceeded at or above 3.3e24."""
    if p >= _MR_LIMIT:
        raise GuardExceeded(f"primality of {p} is not decided above {_MR_LIMIT}")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int, what: str = "p") -> None:
    if not is_prime(p):
        raise PreconditionError(f"{what}={p} is not prime")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with bitset adjacency rows (no loops)."""

    n: int
    adj: tuple[int, ...]
    labels: tuple | None = field(default=None, compare=False)
    expr: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        for v, row in enumerate(self.adj):
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            if row >> self.n:
                raise ValueError(f"adjacency bits beyond vertex range at {v}")
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("label count must equal vertex count")
            if len(set(self.labels)) != self.n:
                raise ValueError("labels must be unique")

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edges (u, v) with u < v in row-major order."""
        pairs = self.edge_array()
        names = np.arange(self.n).astype(object)  # one int object per vertex, shared by its edges
        return list(zip(names[pairs[:, 0]].tolist(), names[pairs[:, 1]].tolist()))

    def edge_array(self) -> np.ndarray:
        """The edges as an m x 2 int64 array, in the order of ``edges``."""
        return np.argwhere(np.triu(self.adjacency_matrix(), 1))

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency matrix (symmetric, zero diagonal).  It is
        built on the first call and every later call returns the same
        read-only array; copy it to modify it."""
        mat = self.__dict__.get("_matrix")
        if mat is None:
            width = (self.n + 7) // 8
            rows = b"".join(row.to_bytes(width, "little") for row in self.adj)
            packed = np.frombuffer(rows, dtype=np.uint8).reshape(self.n, width)
            mat = np.unpackbits(packed, axis=1, count=self.n, bitorder="little").view(bool)
            self._keep_matrix(mat)
        return mat

    @classmethod
    def from_matrix(cls, mat: np.ndarray, labels=None, expr=None) -> "Graph":
        """The graph of a symmetric boolean matrix with zero diagonal, which
        it keeps (read-only) as its ``adjacency_matrix``."""
        g = cls(len(mat), tuple(bit_rows(mat)), labels, expr)
        g._keep_matrix(mat)
        return g

    def _keep_matrix(self, mat: np.ndarray) -> None:
        mat.flags.writeable = False
        self.__dict__["_matrix"] = mat  # a cache, not a field: frozen, and left out of ==

    def first_nonedge(self, nonzero: np.ndarray) -> tuple[int, int] | None:
        """The first pair (u, v) with u != v, in row-major order, that is
        not an edge and at which the n x n boolean mask ``nonzero`` holds,
        or None.  For a symmetric mask that pair has u < v."""
        bad = nonzero & ~self.adjacency_matrix()
        np.fill_diagonal(bad, False)
        hits = np.flatnonzero(bad)
        return divmod(int(hits[0]), self.n) if hits.size else None

    def check_symmetric(self) -> bool:
        return all(
            (self.adj[u] >> v & 1) == (self.adj[v] >> u & 1)
            for u in range(self.n)
            for v in range(u + 1, self.n)
        )

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")


def bit_rows(mat: np.ndarray) -> list[int]:
    """The rows of a boolean matrix as bitsets: bit j of row i is mat[i, j]."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width:(i + 1) * width], "little") for i in range(len(packed))]


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]], labels=None, expr=None) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), labels, expr)


@dataclass(frozen=True)
class GraphExpr:
    """Parsed expression term; ``args`` holds ints, a path, or child terms."""

    op: str
    args: tuple

    def __str__(self) -> str:
        if self.op in _COMBINATOR_OPS:
            return f"{self.op}({','.join(str(a) for a in self.args)})"
        return f"{self.op}:{','.join(str(a) for a in self.args)}"


def parse_expr(text: str) -> GraphExpr:
    """Parse a graph expression; raises GraphParseError on any defect."""
    expr, pos = _parse(text, 0)
    if text[pos:].strip():
        raise GraphParseError(f"trailing input at position {pos}: {text[pos:]!r}")
    return expr


def _parse(s: str, i: int) -> tuple[GraphExpr, int]:
    while i < len(s) and s[i].isspace():
        i += 1
    j = i
    while j < len(s) and (s[j].isalpha() or s[j] == "_"):
        j += 1
    name = s[i:j]
    if not name:
        raise GraphParseError(f"expected a generator name at position {i}")
    if name in _COMBINATOR_OPS:
        if j >= len(s) or s[j] != "(":
            raise GraphParseError(f"{name} expects '(' at position {j}")
        args = []
        j += 1
        while True:
            child, j = _parse(s, j)
            args.append(child)
            while j < len(s) and s[j].isspace():
                j += 1
            if j < len(s) and s[j] == ",":
                j += 1
                continue
            if j < len(s) and s[j] == ")":
                j += 1
                break
            raise GraphParseError(f"expected ',' or ')' at position {j}")
        if len(args) != _COMBINATOR_OPS[name]:
            raise GraphParseError(f"{name} takes {_COMBINATOR_OPS[name]} argument(s), got {len(args)}")
        return GraphExpr(name, tuple(args)), j
    if name == "file":
        if j >= len(s) or s[j] != ":":
            raise GraphParseError("file expects ':PATH'")
        j += 1
        k = j
        while k < len(s) and s[k] not in ",()" and not s[k].isspace():
            k += 1
        if k == j:
            raise GraphParseError("empty file path")
        return GraphExpr("file", (s[j:k],)), k
    if name in _LEAF_OPS:
        if j >= len(s) or s[j] != ":":
            raise GraphParseError(f"{name} expects ':' parameters")
        j += 1
        params = []
        while True:
            k = j
            if k < len(s) and s[k] in "+-":
                k += 1
            while k < len(s) and s[k].isdigit():
                k += 1
            if k == j:
                raise GraphParseError(f"expected an integer at position {j}")
            params.append(int(s[j:k]))
            j = k
            if j < len(s) and s[j] == "," and len(params) < _LEAF_OPS[name]:
                j += 1
                continue
            break
        if len(params) != _LEAF_OPS[name]:
            raise GraphParseError(f"{name} takes {_LEAF_OPS[name]} parameter(s), got {len(params)}")
        return GraphExpr(name, tuple(params)), j
    raise GraphParseError(f"unknown generator {name!r}")


def generate(expr: GraphExpr | str, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Build the graph denoted by ``expr`` (string or parsed term)."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    op, args = expr.op, expr.args
    if op == "cycle":
        return cycle(args[0], max_vertices)
    if op == "complete":
        return complete(args[0], max_vertices)
    if op == "empty":
        return empty(args[0], max_vertices)
    if op == "johnson":
        return johnson(args[0], args[1], max_vertices)
    if op == "alon":
        return alon(args[0], args[1], args[2], max_vertices)
    if op == "universal":
        return universal_graph(args[0], args[1], args[2], max_vertices)
    if op == "complement":
        return complement(generate(args[0], max_vertices))
    if op == "strong":
        return strong_product(generate(args[0], max_vertices), generate(args[1], max_vertices), max_vertices)
    if op == "lex":
        return lex_product(generate(args[0], max_vertices), generate(args[1], max_vertices), max_vertices)
    if op == "file":
        return read_graph_file(args[0], max_vertices)
    raise GraphParseError(f"unknown operator {op!r}")


def _guard(n: int, max_vertices: int, what: str) -> None:
    if n > max_vertices:
        raise GuardExceeded(f"{what} would have {n} vertices (cap {max_vertices})")


def cycle(k: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    if k < 3:
        raise PreconditionError(f"cycle needs k >= 3, got {k}")
    _guard(k, max_vertices, "cycle")
    return graph_from_edges(k, [(v, (v + 1) % k) for v in range(k)], expr=f"cycle:{k}")


def complete(k: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    if k < 1:
        raise PreconditionError(f"complete needs k >= 1, got {k}")
    _guard(k, max_vertices, "complete")
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return graph_from_edges(k, edges, expr=f"complete:{k}")


def empty(k: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    if k < 1:
        raise PreconditionError(f"empty needs k >= 1, got {k}")
    _guard(k, max_vertices, "empty")
    return Graph(k, (0,) * k, expr=f"empty:{k}")


# Entries of the pairwise intersection-size array built at a time, in
# blocks of whole rows, so no N x N temporary is allocated.
_SUBSET_BLOCK_ENTRIES = 1 << 20


def _subset_graph(n: int, size: int, adjacent, expr: str, max_vertices: int) -> Graph:
    _guard(comb(n, size), max_vertices, expr)
    if n > max_vertices:  # the labels and the incidence matrix grow with n
        raise GuardExceeded(f"{expr} has a ground set of {n} (cap {max_vertices})")
    verts = list(combinations(range(n), size))
    count = len(verts)
    # every intersection size is at most `size`, so this dtype holds them all
    inc = np.zeros((count, n), dtype=np.min_scalar_type(size))
    inc[np.repeat(np.arange(count), size), np.array(verts, dtype=np.int64).ravel()] = 1
    step = max(1, _SUBSET_BLOCK_ENTRIES // count)
    adj: list[int] = []
    for start in range(0, count, step):
        block = adjacent(inc[start:start + step] @ inc.T)
        rows = np.arange(block.shape[0])
        block[rows, start + rows] = False
        adj.extend(bit_rows(block))
    return Graph(count, tuple(adj), tuple(verts), expr)


def johnson(p: int, n: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Graph on the (p+1)-subsets of [n]; edge iff |X∩Y| ≢ 0 (mod p)."""
    require_prime(p)
    if n < p + 1:
        raise PreconditionError(f"johnson needs n >= p+1, got n={n}, p={p}")
    return _subset_graph(n, p + 1, lambda c: c % p != 0, f"johnson:{p},{n}", max_vertices)


def alon(p: int, q: int, n: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Graph on the (pq-1)-subsets of [n]; edge iff |X∩Y| ≡ -1 (mod p)."""
    require_prime(p)
    require_prime(q, "q")
    if n < p * q - 1:
        raise PreconditionError(f"alon needs n >= pq-1, got n={n}, p={p}, q={q}")
    return _subset_graph(n, p * q - 1, lambda c: c % p == p - 1, f"alon:{p},{q},{n}", max_vertices)


def _mat_vecs(p: int, n: int, d: int):
    """All n x d matrices over GF(p) as flat tuples, lexicographic."""
    total = p**(n * d)
    for code in range(total):
        entries = []
        c = code
        for _ in range(n * d):
            entries.append(c % p)
            c //= p
        yield tuple(entries)


def _mat_tmul(a: tuple, b: tuple, p: int, n: int, d: int) -> tuple:
    """AᵀB for flat row-major n x d tuples; returns flat d x d tuple."""
    out = []
    for i in range(d):
        for j in range(d):
            s = 0
            for k in range(n):
                s += a[k * d + i] * b[k * d + j]
            out.append(s % p)
    return tuple(out)


def universal_vertex_count(p: int, n: int, d: int) -> int:
    """Pairs (A, B) of n x d matrices over GF(p) with AᵀB = I_d: A has full
    column rank (prod_{i<d} (p^n - p^i) choices), and for each A the
    solutions B form a coset of a space of dimension d(n - d)."""
    count = p ** (d * (n - d))
    for i in range(d):
        count *= p**n - p**i
    return count


def universal_graph(p: int, n: int, d: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Homomorphism-universal graph: vertices are pairs (A,B) of n x d
    matrices over GF(p) with AᵀB = I_d; distinct (A,B), (C,D) are
    non-adjacent iff AᵀD = CᵀB = 0."""
    require_prime(p)
    if not 1 <= d <= n:
        raise PreconditionError(f"universal needs 1 <= d <= n, got n={n}, d={d}")
    if p**(2 * n * d) > UNIVERSAL_PAIR_CAP:
        raise GuardExceeded(f"universal enumeration {p}^{2 * n * d} exceeds cap {UNIVERSAL_PAIR_CAP}")
    _guard(universal_vertex_count(p, n, d), max_vertices, "universal")
    ident = tuple(1 if i == j else 0 for i in range(d) for j in range(d))
    zero = (0,) * (d * d)
    mats = list(_mat_vecs(p, n, d))
    verts = [(a, b) for a in mats for b in mats if _mat_tmul(a, b, p, n, d) == ident]
    adj = [0] * len(verts)
    for i, (a, b) in enumerate(verts):
        for j in range(i + 1, len(verts)):
            c, dd = verts[j]
            nonadj = _mat_tmul(a, dd, p, n, d) == zero and _mat_tmul(c, b, p, n, d) == zero
            if not nonadj:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(len(verts), tuple(adj), tuple(verts), f"universal:{p},{n},{d}")


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    adj = tuple((full & ~row) & ~(1 << v) for v, row in enumerate(g.adj))
    expr = f"complement({g.expr})" if g.expr else None
    return Graph(g.n, adj, g.labels, expr)


def _vertex_label(g: Graph, v: int):
    return g.labels[v] if g.labels is not None else v


def strong_product(g: Graph, h: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Strong product; vertex (u,x) is at index u*h.n + x (row-major)."""
    n = g.n * h.n
    _guard(n, max_vertices, "strong product")
    adj = [0] * n
    for u in range(g.n):
        gu = g.adj[u] | 1 << u
        for x in range(h.n):
            a = u * h.n + x
            hu = h.adj[x] | 1 << x
            row = 0
            gm = gu
            while gm:
                v = (gm & -gm).bit_length() - 1
                gm &= gm - 1
                row |= hu << (v * h.n)
            row &= ~(1 << a)
            adj[a] = row
    labels = tuple((_vertex_label(g, u), _vertex_label(h, x)) for u in range(g.n) for x in range(h.n))
    expr = f"strong({g.expr},{h.expr})" if g.expr and h.expr else None
    return Graph(n, tuple(adj), labels, expr)


def lex_product(g: Graph, h: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Lexicographic product (blow-up): (u,x)~(v,y) iff uv ∈ E(g), or u=v and xy ∈ E(h)."""
    n = g.n * h.n
    _guard(n, max_vertices, "lex product")
    block_full = (1 << h.n) - 1
    adj = [0] * n
    for u in range(g.n):
        for x in range(h.n):
            a = u * h.n + x
            row = h.adj[x] << (u * h.n)
            gm = g.adj[u]
            while gm:
                v = (gm & -gm).bit_length() - 1
                gm &= gm - 1
                row |= block_full << (v * h.n)
            adj[a] = row
    labels = tuple((_vertex_label(g, u), _vertex_label(h, x)) for u in range(g.n) for x in range(h.n))
    expr = f"lex({g.expr},{h.expr})" if g.expr and h.expr else None
    return Graph(n, tuple(adj), labels, expr)


def stray_vertex(g: Graph, s: Iterable[int]) -> int | None:
    """The first member of s that is not a vertex of g, or None; lets a
    certificate check report a bad vertex instead of raising on it."""
    return next((v for v in s if not 0 <= v < g.n), None)


def is_independent_set(g: Graph, s: Iterable[int]) -> bool:
    verts = list(s)
    for v in verts:
        g._check_vertex(v)
    mask = 0
    for v in verts:
        mask |= 1 << v
    return all(g.adj[v] & mask == 0 for v in verts)


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    verts = list(s)
    for v in verts:
        g._check_vertex(v)
    mask = 0
    for v in verts:
        mask |= 1 << v
    return all((g.adj[v] | 1 << v) & mask == mask for v in verts)


def read_graph_file(path: str, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Text format: line 1 ``n m``, then m lines ``u v`` with 0-based u < v.

    The edges are checked and set in whole-array passes: every end in
    range (the list's min and max), then u < v, then no duplicate, since a
    duplicate leaves fewer than 2m matrix entries set.  Only a defective
    file is walked edge by edge, so that the message names its first bad
    edge."""
    if not os.path.exists(path):
        raise GraphParseError(f"graph file not found: {path}")
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise GraphParseError("graph file needs a header 'n m'")
    try:
        nums = list(map(int, tokens))
    except ValueError as exc:
        raise GraphParseError(f"non-integer token in graph file: {exc}") from exc
    n, m = nums[0], nums[1]
    if n < 0:
        raise GraphParseError(f"vertex count {n} is negative")
    _guard(n, max_vertices, f"graph file {path}")
    if len(nums) != 2 + 2 * m:
        raise GraphParseError(f"expected {m} edges, found {(len(nums) - 2) // 2}")
    ends = nums[2:]
    if ends and (min(ends) < 0 or max(ends) >= n):
        _first_bad_edge(nums, n)
    u, v = np.array(ends, dtype=np.intp).reshape(m, 2).T
    if not (u < v).all():
        _first_bad_edge(nums, n)
    mat = np.zeros((n, n), dtype=bool)
    mat[u, v] = mat[v, u] = True
    if np.count_nonzero(mat) != 2 * m:
        _first_bad_edge(nums, n)
    return Graph.from_matrix(mat, expr=f"file:{path}")


def _first_bad_edge(nums: list[int], n: int) -> NoReturn:
    """Raise for the first edge of a defective file, in file order."""
    seen = set()
    for u, v in zip(nums[2::2], nums[3::2]):
        if not (0 <= u < v < n):
            raise GraphParseError(f"edge ({u}, {v}) violates 0 <= u < v < n")
        if (u, v) in seen:
            raise GraphParseError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    raise AssertionError("no defective edge")


def format_graph(g: Graph) -> str:
    """The text format: an ``n m`` line, then one ``u v`` line per edge."""
    pairs = g.edge_array()
    return f"{g.n} {len(pairs)}\n" + int_text(pairs, b" \n").decode("ascii")


def write_graph_file(g: Graph, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_graph(g))
