"""Minimum rank of fit matrices over GF(p), with certificate constructors.

A matrix fits a graph when its diagonal is all ones and both entries of
every non-adjacent pair vanish; edge entries are free and may be
asymmetric.  A d-block fit matrix (``DRep``) has identity diagonal blocks
and zero non-edge blocks; ``drep_violation`` checks that, and a fit matrix
is the case d = 1 (``fit_violation``).  ``minrank_exact`` searches the
free entries depth first, row by row, in one explicit-stack loop.  It
prunes with a block-triangular bound: the echelon rank of the assigned
rows plus a greedy stable set among the columns they leave zero.  Above
``SEARCH_CAP`` assignments the search gets a fixed allowance of
``ATTEMPT_NODES`` nodes within the caller's budget.  It
returns its best checked certificate and whether it finished, and
searches no lower end: each command picks its own.  The constructors
build the classical certificates: set-incidence Gram matrices for the
intersection-parity graphs, clique-partition matrices, and Alon's
polynomial certificates of the (pq-1)-subset graphs, each a table of the
polynomials' values looked up at the subsets' intersection sizes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np

from .budget import Budget
from .errors import BudgetExhausted, DimensionMismatch, PreconditionError, VerificationError
from .gfmat import FMatrix, check_modulus, matmul, rank, storage_dtype
from .graphs import (DEFAULT_MAX_VERTICES, Graph, alon, complement, edge_text, intersection_sizes, is_prime,
                     johnson, subset_incidence)
from .independence import CliqueCover, clique_cover_violation, greedy_clique_cover
from .serialize import read_int

# minrank_exact searches without a node allowance up to this many
# assignments; above it the search stops after ATTEMPT_NODES nodes.
SEARCH_CAP = 2**30
ATTEMPT_NODES = 2**8


def graph_hash(g: Graph) -> str:
    """SHA-256 of ``"n;u,v;u,v;...;u,v"``: the vertex count and ``;``, then
    the edges u < v in row-major order, each ``u,v`` in ASCII decimal and
    followed by ``;`` but the last.  These are ``edge_text(g, b",;")``'s
    blocks less their last byte, fed to the hash as they come."""
    h = hashlib.sha256(f"{g.n};".encode())
    last = b""
    for block in edge_text(g, b",;"):
        h.update(last)
        h.update(memoryview(block)[:-1])
        last = block[-1:]
    return h.hexdigest()


@dataclass(frozen=True)
class DRep:
    """d-block fit matrix: identity diagonal blocks, zero non-edge blocks."""

    d: int
    matrix: FMatrix

    @property
    def nvertices(self) -> int:
        return self.matrix.rows // self.d

    def ratio(self) -> Fraction:
        return Fraction(rank(self.matrix), self.d)

    def to_json(self) -> dict:
        out = self.matrix.to_json()
        out["kind"] = "drep"
        out["d"] = self.d
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "DRep":
        return cls(read_int(obj["d"], "d"), FMatrix.from_json(obj))


def drep_violation(g: Graph, rep: DRep) -> str | None:
    """None if rep's matrix is a d-block fit matrix of g, else the first
    defect found."""
    d, n, a = rep.d, g.n, rep.matrix.a
    if d < 1:
        raise DimensionMismatch(f"block size d must be at least 1, got {d}")
    if rep.matrix.rows != rep.matrix.cols or rep.matrix.rows != n * d:
        raise DimensionMismatch(
            f"matrix is {rep.matrix.rows}x{rep.matrix.cols}, expected {n * d} square"
        )
    vs = np.arange(n)
    diagonal = a.reshape(n, d, n, d)[vs, :, vs, :]  # the n diagonal blocks, (n, d, d)
    bad = np.flatnonzero(np.any(diagonal != np.eye(d, dtype=np.int64), axis=(1, 2)))
    if bad.size:
        return f"diagonal block of vertex {int(bad[0])} is not the identity"
    # OR the d rows of each block row together (one reduction over
    # contiguous rows, none at d = 1), then each block's d columns, one
    # strided pass per column offset, all in the entries' own dtype
    rows = (np.bitwise_or.reduce(a.reshape(n, d, n * d), axis=1) if d > 1 else a).reshape(n, n, d)
    nonzero = rows[:, :, 0]
    for j in range(1, d):
        nonzero = nonzero | rows[:, :, j]
    bad = g.first_nonedge(nonzero != 0)
    if bad is not None:
        return f"nonzero block at non-edge ({bad[0]}, {bad[1]})"
    return None


def fit_violation(g: Graph, m: FMatrix) -> str | None:
    """None if m fits g (the block check at d = 1), else the first defect."""
    return drep_violation(g, DRep(1, m))


@dataclass(frozen=True)
class FitCertificate:
    """A fit matrix together with the graph hash and its exact rank."""

    graph_hash: str
    matrix: FMatrix
    claimed_rank: int

    def check(self, g: Graph) -> bool:
        return (
            self.graph_hash == graph_hash(g)
            and fit_violation(g, self.matrix) is None
            and rank(self.matrix) == self.claimed_rank
        )

    def to_json(self) -> dict:
        out = self.matrix.to_json()
        out["kind"] = "fit"
        out["claimed_rank"] = self.claimed_rank
        out["graph_hash"] = self.graph_hash
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "FitCertificate":
        return cls(obj["graph_hash"], FMatrix.from_json(obj), read_int(obj["claimed_rank"], "claimed_rank"))


@dataclass(frozen=True)
class MinrankResult:
    """The search's best checked fit certificate, and whether the search
    ran to completion: only then is its rank the minimum fit rank."""

    certificate: FitCertificate
    exact: bool

    @property
    def upper(self) -> int:
        return self.certificate.claimed_rank


def _gated_fit(g: Graph, mat: FMatrix, least: int, most: int, what: str) -> FitCertificate:
    """The certificate of mat on g, after the exact gate that every fit
    certificate the program builds passes: mat fits g, and its rank lies
    in [least, most]."""
    failure = fit_violation(g, mat)
    if failure is not None:
        raise VerificationError(f"internal error: {what} does not fit the graph: {failure}")
    r = rank(mat)
    if not least <= r <= most:
        raise VerificationError(f"internal error: {what} has rank {r}, outside [{least}, {most}]")
    return FitCertificate(graph_hash(g), mat, r)


def _same_label_matrix(labels: np.ndarray, p: int) -> FMatrix:
    """The 0/1 matrix over GF(p) with a 1 exactly where the labels of its
    row and column agree: the boolean comparison, cast once into the
    storage dtype, with no int64 matrix between them."""
    check_modulus(p)
    return FMatrix._reduced(p, (labels[:, None] == labels[None, :]).astype(storage_dtype(p)))


def cover_certificate(g: Graph, cover: CliqueCover, p: int) -> FitCertificate:
    """Rank-|cover| certificate: 1 exactly on same-class pairs.

    Realizes the clique-cover upper bound on the minrank constructively.
    """
    if g.n == 0:
        raise PreconditionError("a fit certificate needs a graph with at least one vertex")
    failure = clique_cover_violation(g, cover)
    if failure is not None:
        raise VerificationError(f"invalid clique cover: {failure}")
    cls_of = [0] * g.n
    for idx, cls in enumerate(cover.classes):
        for v in cls:
            cls_of[v] = idx
    k = len(cover.classes)
    return _gated_fit(g, _same_label_matrix(np.array(cls_of), p), k, k, "clique-cover matrix")


def minrank_exact(g: Graph, p: int, budget: Budget | None = None, floor: int = 0) -> MinrankResult:
    """Exact minimum rank over all fit matrices by depth-first assignment
    of the free entries, row by row, with a block-triangular bound.

    Once rows 0..v are assigned with echelon rank r, let C be the columns
    that every assigned row leaves zero.  Up to a column permutation the
    matrix is [[X, 0], [Z, W]] with W = M[v+1.., C], so its rank is at
    least r + rank(W); a stable set I of G[C] makes W[I, I] the identity.
    A child is pruned when r + |greedy stable set of G[C]| reaches the
    incumbent rank.  The bound never cuts a subtree that could beat the
    incumbent, so the first optimal matrix in product order is found.

    ``floor`` is a lower bound on the minimum fit rank that the caller
    certifies (the size of a stable set).  A certificate of rank at most
    floor is optimal: the greedy cover's is returned before the search, and
    the search stops at the first matrix that reaches it, in both cases as
    a finished search.

    If the assignment space p^(2|E|) exceeds ``SEARCH_CAP``, the search
    may visit at most ``ATTEMPT_NODES`` nodes, each charged to ``budget``
    too.  Running out of the allowance leaves ``budget.exhausted`` False.
    When the allowance or the budget runs out mid-search, the result is
    not exact and its certificate, the greedy cover's or the search's
    incumbent, only bounds the minimum fit rank from above; the caller
    picks the lower end.
    """
    check_modulus(p)
    budget = budget or Budget()
    incumbent = cover_certificate(g, greedy_clique_cover(g), p)
    if incumbent.claimed_rank <= floor:
        return MinrankResult(incumbent, True)
    # the search's own node count, charged to the budget as well
    attempt = Budget(nodes=ATTEMPT_NODES if p ** (2 * g.m) > SEARCH_CAP else None, within=budget)

    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    free_cols = [np.flatnonzero(row).tolist() for row in g.matrix]

    # isolated vertices join every greedy stable set: count them at once
    isolated = sum(1 << v for v in range(n) if not adj[v])

    def bound(rank_so_far: int, touched: int) -> int:
        """rank_so_far plus a greedy stable set of the untouched columns."""
        cand = full & ~touched
        size = rank_so_far + (cand & isolated).bit_count()
        cand &= ~isolated
        while cand:
            low = cand & -cand
            cand &= ~(adj[low.bit_length() - 1] | low)
            size += 1
        return size

    best_rank = incumbent.claimed_rank
    best_matrix: list[list[int]] | None = None
    # Shared stacks: the current path's rows, and the echelon form of the
    # path (rows scaled so their pivot entry is 1) with its pivot columns.
    rows: list[list[int]] = []
    ech: list[list[int]] = []
    piv: list[int] = []
    # A frame is (vertex, iterator over its row's free entries, echelon
    # length at entry, columns touched by rows above it, its bound).
    root = bound(0, 0)
    stack = [(0, product(range(p), repeat=len(free_cols[0])), 0, 0, root)] if root < best_rank else []
    finished = True
    try:
        while stack:
            v, assignments, depth, touched, frame_bound = stack[-1]
            assignment = None if frame_bound >= best_rank else next(assignments, None)
            if assignment is None:
                stack.pop()
                continue
            attempt.spend()
            del rows[v:], ech[depth:], piv[depth:]
            row = [0] * n
            row[v] = 1
            support = touched | 1 << v
            for c, val in zip(free_cols[v], assignment):
                if val:
                    row[c] = val
                    support |= 1 << c
            rows.append(row)
            vals = row
            for er, pc in zip(ech, piv):
                f = vals[pc]
                if f:
                    vals = [(a - f * b) % p for a, b in zip(vals, er)]
            pc = next((c for c, x in enumerate(vals) if x), None)
            if pc is not None:
                inv = pow(vals[pc], -1, p)
                ech.append([a * inv % p for a in vals])
                piv.append(pc)
            child_bound = bound(len(ech), support)
            if child_bound >= best_rank:
                continue
            if v + 1 == n:
                # every column is touched, so child_bound is the full rank
                best_rank = child_bound
                best_matrix = list(rows)
                if best_rank <= floor:
                    break
            else:
                stack.append((v + 1, product(range(p), repeat=len(free_cols[v + 1])),
                              len(ech), support, child_bound))
    except BudgetExhausted:
        finished = False

    # the search's best matrix, finished or stopped, is checked before it is certified
    if best_matrix is not None:
        incumbent = _gated_fit(g, FMatrix(p, best_matrix), best_rank, best_rank, "minrank matrix")
    return MinrankResult(incumbent, finished)


def johnson_certificate(p: int, n: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> FitCertificate:
    """Gram matrix of the subset-incidence matrix over GF(p): fits the
    intersection-parity graph on (p+1)-subsets because the subset size
    p+1 is 1 mod p; rank is at most n.  The graph is built under the
    vertex cap ``max_vertices``."""
    g = johnson(p, n, max_vertices)
    check_modulus(p)
    inc = FMatrix._reduced(p, subset_incidence(n, p + 1).astype(storage_dtype(p)))
    return _gated_fit(g, matmul(inc, inc.transpose()), 0, n, "incidence Gram matrix")


# ---------------------------------------------------------------------------
# Alon's polynomial certificates on the subset graphs


def next_prime(p: int) -> int:
    q = p + 1
    while not is_prime(q):
        q += 1
    return q


def alon_certificate(
    variant: str,
    p: int,
    q: int,
    n: int,
    modulus: int | None = None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> FitCertificate:
    """Polynomial certificates for the intersection graphs on
    (pq-1)-subsets of [n].

    The polynomial of vertex u is f_u(y) = prod_c (<x_u, y> - c) over the
    variant's constants c, with x_u the 0/1 point of u's subset.  At the
    point of v, <x_u, x_v> = |X_u & X_v|, so the evaluation matrix is the
    value table T[s] = prod_c (s - c) mod the modulus looked up at the
    intersection sizes (``graphs.intersection_sizes``).  Every point has
    weight pq - 1, so every own-point value is T[pq - 1], and one inverse
    scales the table to a unit diagonal.  Reduced to a multilinear
    polynomial (x^2 = x on 0/1 points), f_u takes the same values, so the
    rank is at most the dimension of the polynomials of degree at most the
    number of constants.

    variant "P": over GF(p), fits the graph itself; degree p-1.
    variant "Q": requires q != p, over GF(q), fits the complement; degree q-1.
    variant "R": requires q == p, over a prime field with characteristic
        exceeding p (default: the next prime), fits the complement;
        degree p-1.  Characteristic-zero statements are realized over the
        chosen large prime and reported as such, never as char 0.

    The graph is built under the vertex cap ``max_vertices``.
    """
    if variant == "P":
        modulus = p if modulus is None else modulus
        if modulus != p:
            raise PreconditionError("variant P must use the field of characteristic p")
        constants = range(p - 1)
    elif variant == "Q":
        if q == p:
            raise PreconditionError("variant Q needs q != p")
        modulus = q if modulus is None else modulus
        if modulus != q:
            raise PreconditionError("variant Q must use the field of characteristic q")
        constants = range(q - 1)
    elif variant == "R":
        if q != p:
            raise PreconditionError("variant R needs q == p")
        modulus = next_prime(p) if modulus is None else modulus
        if modulus <= p or not is_prime(modulus):
            raise PreconditionError("variant R needs a prime modulus exceeding p")
        constants = [i * p - 1 for i in range(1, p)]
    else:
        raise PreconditionError(f"unknown variant {variant!r}")

    base = alon(p, q, n, max_vertices)
    target = base if variant == "P" else complement(base)
    size = p * q - 1
    # a modulus that passes keeps every product of two residues below int64's limit
    check_modulus(modulus)
    s = np.arange(size + 1, dtype=np.int64)
    table = np.ones_like(s)
    for c in constants:
        table = table * ((s - c) % modulus) % modulus
    if table[size] == 0:
        raise VerificationError("internal error: every polynomial vanishes at its own point")
    unit = (table * pow(int(table[size]), -1, modulus) % modulus).astype(storage_dtype(modulus))
    inc = subset_incidence(n, size)
    a = np.empty((len(inc), len(inc)), dtype=unit.dtype)
    for start, sizes in intersection_sizes(inc):
        a[start:start + len(sizes)] = unit[sizes.astype(np.intp)]
    span_bound = sum(comb(n, i) for i in range(len(constants) + 1))
    return _gated_fit(target, FMatrix._reduced(modulus, a), 0, span_bound, "evaluation matrix")
