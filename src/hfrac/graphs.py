"""Finite simple graphs: generators, products, complements, predicates.

Vertices are ``0..n-1``.  A graph is its boolean adjacency matrix, checked
once when the graph is built (square, symmetric, zero diagonal) and kept
read-only.  Every builder writes that matrix directly: the complement is
its negation, the strong and lexicographic products are Kronecker
products, and the set-system graphs come from one matrix product of their
incidence matrix.  The edge list and the bitset rows that the exact
searches use are derived from it.  Generators remember the expression that
produced the graph; a certificate carries that expression, and the
expression fixes the vertex order.

Expression grammar::

    expr := cycle:K | complete:K | empty:K
          | johnson:P,N            # (P+1)-subsets of [N], edge iff |X∩Y| ≢ 0 (mod P)
          | alon:P,Q,N             # (PQ-1)-subsets of [N], edge iff |X∩Y| ≡ -1 (mod P)
          | universal:P,N,D        # pairs (A,B) with AᵀB = I_D over GF(P)
          | complement(expr) | strong(expr,expr) | lex(expr,expr)
          | file:PATH              # text format, PATH without ',()' or whitespace

Vertex order is lexicographic for the subset graphs (vertex i is the i-th
``itertools.combinations(range(N), size)``), code order for the universal
graphs, and row-major for products (vertex (u, x) is u * h.n + x), so
certificates indexed by vertex order are byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb
from operator import lt
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


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on the vertices 0..n-1, held as its boolean
    adjacency matrix.

    The constructor checks the matrix once, in whole-array passes (square,
    boolean, zero diagonal, symmetric), and keeps it read-only: the graph
    takes the array over instead of copying it.  ``adj``, the rows as
    bitsets (bit v of row u set iff uv is an edge), is derived from the
    matrix on first use for the bitset searches.  Graphs compare and hash
    by their matrices alone, not by ``expr``."""

    n: int = field(init=False)
    matrix: np.ndarray = field(repr=False)
    expr: str | None = None

    def __post_init__(self):
        a = np.asarray(self.matrix)
        if a.dtype != bool:
            raise ValueError(f"adjacency matrix must be boolean, got dtype {a.dtype}")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
        if np.count_nonzero(a.diagonal()):
            raise ValueError(f"loop at vertex {np.flatnonzero(a.diagonal())[0]}")
        asymmetric = a != a.T
        if np.count_nonzero(asymmetric):
            u, v = np.argwhere(asymmetric)[0]
            raise ValueError(f"adjacency matrix is not symmetric: entries ({u}, {v}) and ({v}, {u}) differ")
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "n", len(a))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash(self.matrix.tobytes())

    @cached_property
    def adj(self) -> tuple[int, ...]:
        return tuple(bit_rows(self.matrix))

    @property
    def m(self) -> int:
        return int(np.count_nonzero(self.matrix)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.matrix[u, v])

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """The degree of every vertex: the row counts of the matrix."""
        return tuple(np.count_nonzero(self.matrix, axis=1).tolist())

    @cached_property
    def degree_order(self) -> tuple[int, ...]:
        """The vertices by descending degree, the lower vertex first on
        ties (a reversed sort keeps equal keys in their order)."""
        return tuple(sorted(range(self.n), key=self.degrees.__getitem__, reverse=True))

    def edge_array(self) -> np.ndarray:
        """The edges (u, v) with u < v as an m x 2 int64 array, in
        row-major order: the flat indices of the strict upper triangle,
        split into (row, column) by one divmod."""
        hits = np.flatnonzero(np.triu(self.matrix, 1))
        pairs = np.empty((hits.size, 2), dtype=np.int64)
        np.divmod(hits, self.n, out=(pairs[:, 0], pairs[:, 1]))
        return pairs

    def first_nonedge(self, nonzero: np.ndarray) -> tuple[int, int] | None:
        """The first pair (u, v) with u != v, in row-major order, that is
        not an edge and at which the n x n boolean mask ``nonzero`` holds,
        or None.  For a symmetric mask that pair has u < v."""
        bad = nonzero & ~self.matrix
        np.fill_diagonal(bad, False)
        hits = np.flatnonzero(bad)
        return divmod(int(hits[0]), self.n) if hits.size else None

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")


# bit j as a uint64, for the rows that fit in one machine word
_POW2 = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def bit_rows(mat: np.ndarray) -> list[int]:
    """The rows of a boolean matrix as bitsets: bit j of row i is mat[i, j].

    A row of at most 64 columns fits in a uint64, so those rows are one
    product of the matrix with the powers of two, read out by ``tolist``
    (bool times uint64 is uint64 under both numpy 1.x and 2.x promotion,
    and a sum of distinct powers below 2^64 cannot overflow).  A wider row
    does not fit: it is packed into little-endian bytes, and each row's
    bytes become one Python int."""
    if mat.shape[1] <= 64:
        return (mat @ _POW2[:mat.shape[1]]).tolist()
    packed = np.packbits(mat, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width:(i + 1) * width], "little") for i in range(len(packed))]


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]], expr: str | None = None) -> Graph:
    mat = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        mat[u, v] = mat[v, u] = True
    return Graph(mat, expr)


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
    return Graph(~np.eye(k, dtype=bool), expr=f"complete:{k}")


def empty(k: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    if k < 1:
        raise PreconditionError(f"empty needs k >= 1, got {k}")
    _guard(k, max_vertices, "empty")
    return Graph(np.zeros((k, k), dtype=bool), expr=f"empty:{k}")


# Entries of the pairwise intersection-size array built at a time, in
# blocks of whole rows, so no N x N temporary is allocated.
_SUBSET_BLOCK_ENTRIES = 1 << 20


def subset_incidence(n: int, size: int) -> np.ndarray:
    """The subsets x n 0/1 incidence matrix of the size-subsets of [n] in
    lexicographic order, which is the vertex order of the subset graphs and
    of their certificates.  Its dtype is the smallest that holds ``size``,
    so it also holds every intersection size of two rows (the counts that
    ``_subset_graph`` takes from a float32 product of it)."""
    subsets = list(combinations(range(n), size))
    inc = np.zeros((len(subsets), n), dtype=np.min_scalar_type(size))
    inc[np.repeat(np.arange(len(subsets)), size), np.array(subsets, dtype=np.int64).ravel()] = 1
    return inc


def _subset_graph(n: int, size: int, adjacent, expr: str, max_vertices: int) -> Graph:
    """The graph on the size-subsets of [n] whose edges are the pairs with
    ``adjacent(|X∩Y|)``.

    The intersection counts are a float32 product of the 0/1 incidence
    matrix, which runs in BLAS (numpy's integer ``@`` does not).  It is
    exact because every partial sum is an integer of at most ``size``, and
    float32 holds every integer below 2^24: two subsets need n > size, so
    size >= 2^24 would mean over 2^24 vertices, a 2^48-byte matrix.  The
    counts go back to the incidence dtype before ``adjacent`` takes them
    mod p.
    """
    _guard(comb(n, size), max_vertices, expr)
    if n > max_vertices:  # the incidence matrix grows with n
        raise GuardExceeded(f"{expr} has a ground set of {n} (cap {max_vertices})")
    inc = subset_incidence(n, size)
    count = len(inc)
    ones = inc.astype(np.float32)
    mat = np.empty((count, count), dtype=bool)
    step = max(1, _SUBSET_BLOCK_ENTRIES // count)
    for start in range(0, count, step):
        mat[start:start + step] = adjacent((ones[start:start + step] @ ones.T).astype(inc.dtype))
    np.fill_diagonal(mat, False)
    return Graph(mat, expr)


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
    # every n x d matrix in code order: the row-major entries of matrix c
    # are the base-p digits of c, least significant first.  Entry (a, b, i,
    # j) of gram is column i of A dot column j of B, a sum of n products
    # below p, so the narrowest dtype that holds n (p-1)^2 keeps it exact.
    digits = np.arange(p ** (n * d))[:, None] // p ** np.arange(n * d) % p
    mats = digits.astype(np.min_scalar_type(n * (p - 1) ** 2)).reshape(-1, n, d)
    gram = np.einsum("aki,bkj->abij", mats, mats)
    gram %= p
    zero = ~gram.any(axis=(2, 3))  # zero[a, b]: AᵀB = 0
    a, b = np.nonzero((gram == np.eye(d, dtype=gram.dtype)).all(axis=(2, 3)))
    # distinct (A, B), (C, D) are non-adjacent iff AᵀD = 0 and CᵀB = 0;
    # AᵀB = I is not 0, so the diagonal comes out adjacent and is cleared
    cross = zero[np.ix_(a, b)]
    mat = ~(cross & cross.T)
    np.fill_diagonal(mat, False)
    return Graph(mat, f"universal:{p},{n},{d}")


def complement(g: Graph) -> Graph:
    mat = ~g.matrix
    np.fill_diagonal(mat, False)
    expr = f"complement({g.expr})" if g.expr else None
    return Graph(mat, expr)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two boolean matrices: entry (u*k + x, v*k + y)
    is a[u, v] and b[x, y], for b of order k."""
    n = len(a) * len(b)
    return (a[:, None, :, None] & b[None, :, None, :]).reshape(n, n)


def strong_product(g: Graph, h: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Strong product, kron(A+I, B+I) off the diagonal; vertex (u,x) is at
    index u*h.n + x (row-major)."""
    n = g.n * h.n
    _guard(n, max_vertices, "strong product")
    mat = _kron(g.matrix | np.eye(g.n, dtype=bool), h.matrix | np.eye(h.n, dtype=bool))
    np.fill_diagonal(mat, False)
    expr = f"strong({g.expr},{h.expr})" if g.expr and h.expr else None
    return Graph(mat, expr)


def lex_product(g: Graph, h: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Lexicographic product (blow-up), kron(A, J) | kron(I, B):
    (u,x)~(v,y) iff uv ∈ E(g), or u=v and xy ∈ E(h)."""
    n = g.n * h.n
    _guard(n, max_vertices, "lex product")
    mat = _kron(g.matrix, np.ones((h.n, h.n), dtype=bool)) | _kron(np.eye(g.n, dtype=bool), h.matrix)
    expr = f"lex({g.expr},{h.expr})" if g.expr and h.expr else None
    return Graph(mat, expr)


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

    The file is read as bytes and decoded as UTF-8 in one call, which
    costs less than a text-mode read.  The edges are checked in whole-list
    passes at C speed: u < v on every line (one ``map``), which makes the
    least u and the greatest v the ends of the range check.  numpy then
    makes three calls: it allocates the matrix, sets both entries of every
    edge in one assignment and counts them, and a duplicate leaves fewer
    than 2m set.  Only a defective file is walked edge by edge, so that the
    message names its first bad edge."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise GraphParseError(f"graph file not found: {path}") from None
    try:
        tokens = data.decode().split()
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"graph file is not UTF-8 text: {exc}") from None
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
        raise GraphParseError(f"expected {m} edges ({2 + 2 * m} integers), found {len(nums)} integers")
    us, vs = nums[2::2], nums[3::2]
    if us and not (all(map(lt, us, vs)) and min(us) >= 0 and max(vs) < n):
        _first_bad_edge(nums, n)
    mat = np.zeros((n, n), dtype=bool)
    mat[us + vs, vs + us] = True
    if np.count_nonzero(mat) != 2 * m:
        _first_bad_edge(nums, n)
    return Graph(mat, expr=f"file:{path}")


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
