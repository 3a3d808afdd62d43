"""The fractional minrank bound through its four certificate forms.

A block fit matrix with identity diagonal blocks and zero non-edge blocks
(``DRep``, defined and checked in ``minrank`` beside the fit matrices, its
case d = 1) witnesses the bound rank/d.  The equivalent forms (per-vertex
factor pairs (``PairRep``), variable block sizes with full-rank diagonal
blocks (``RankRRep``), and per-vertex subspaces in general position
(``SubspaceRep``)) come with constructive conversions that never worsen
the certified ratio.  Tensoring certificates multiplies ratios exactly,
which is what makes the bound multiplicative over strong products.

Certificates are the unit of truth here: every constructor verifies its
output, and the search orchestrator only ever reports intervals whose two
ends are witnessed.  Each form has a ``*_violation(g, rep)`` check that
returns None or the first defect; ``to_json`` writes the certificate
without its graph.  How ``verify`` reads and checks each kind, and which
report ends it may witness, is the table ``_KINDS`` in ``cli``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budget import Budget
from .errors import (
    BudgetExhausted,
    DimensionMismatch,
    GraphParseError,
    GuardExceeded,
    PreconditionError,
    SearchCutoff,
    VerificationError,
)
from .fraccover import FractionalCover, fractional_clique_cover
from .gfmat import (
    KRON_ENTRY_CAP,
    FMatrix,
    hstack,
    inverse,
    matmul,
    rank,
    select_full_rank_submatrix,
    solve_right,
    storage_dtype,
)
from .graphs import Graph, cycle, generate, is_independent_set, parse_expr
from .independence import alpha_lower_end
from .minrank import DRep, _block_defects, drep_violation, minrank_exact
from .report import BoundReport
from .serialize import read_int, read_ints, read_list, read_objects


@dataclass(frozen=True)
class PairRep:
    """Per-vertex factor pairs (A_v, B_v), n x d each, with A_vᵀB_v = I_d
    and vanishing cross products on non-edges."""

    n: int
    d: int
    pairs: tuple[tuple[FMatrix, FMatrix], ...]
    p: int

    def ratio(self) -> Fraction:
        return Fraction(self.n, self.d)

    def to_json(self) -> dict:
        out = {
            "kind": "pairrep",
            "n": self.n,
            "d": self.d,
            "p": self.p,
            "pairs": [{"A": a.a.ravel(), "B": b.a.ravel()} for a, b in self.pairs],
        }
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "PairRep":
        n, d, p = read_int(obj["n"], "n"), read_int(obj["d"], "d"), read_int(obj["p"], "p")
        pairs = tuple(
            (FMatrix.from_entries(p, n, d, item["A"]), FMatrix.from_entries(p, n, d, item["B"]))
            for item in read_objects(obj["pairs"], "pairs")
        )
        return cls(n, d, pairs, p)


@dataclass(frozen=True)
class RankRRep:
    """Variable block sizes d_v; diagonal blocks of rank >= r, zero
    non-edge blocks."""

    r: int
    sizes: tuple[int, ...]
    matrix: FMatrix

    def offsets(self) -> list[int]:
        out = [0]
        for s in self.sizes:
            out.append(out[-1] + s)
        return out

    def to_json(self) -> dict:
        out = self.matrix.to_json()
        out["kind"] = "rankrrep"
        out["r"] = self.r
        out["sizes"] = list(self.sizes)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "RankRRep":
        return cls(read_int(obj["r"], "r"), read_ints(obj["sizes"], "sizes"), FMatrix.from_json(obj))


@dataclass(frozen=True)
class SubspaceRep:
    """Per-vertex d-dimensional subspaces of GF(p)^n, each meeting the span
    of its non-neighbors' subspaces trivially."""

    n: int
    d: int
    bases: tuple[FMatrix, ...]
    p: int

    def to_json(self) -> dict:
        out = {
            "kind": "subspacerep",
            "n": self.n,
            "d": self.d,
            "p": self.p,
            "bases": [b.a.ravel() for b in self.bases],
        }
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SubspaceRep":
        n, d, p = read_int(obj["n"], "n"), read_int(obj["d"], "d"), read_int(obj["p"], "p")
        bases = tuple(FMatrix.from_entries(p, n, d, item) for item in read_list(obj["bases"], "bases"))
        return cls(n, d, bases, p)


# ---------------------------------------------------------------------------
# Verifiers


def pairrep_violation(g: Graph, rep: PairRep) -> str | None:
    """Checks the block matrix AᵀB of ``drep_from_pairrep``: each A_vᵀB_v,
    and both A_uᵀB_v and A_vᵀB_u for a non-edge uv."""
    if len(rep.pairs) != g.n:
        raise DimensionMismatch(f"{len(rep.pairs)} pairs for {g.n} vertices")
    for v, (a, b) in enumerate(rep.pairs):
        if a.shape != (rep.n, rep.d) or b.shape != (rep.n, rep.d):
            raise DimensionMismatch(f"pair of vertex {v} has shape {a.shape}, {b.shape}")
    if not rep.pairs:
        return None  # the graph has no vertices
    v, nonzero = _block_defects(drep_from_pairrep(rep).matrix.a, g.n, rep.d)
    if v is not None:
        return f"A_vᵀB_v is not the identity at vertex {v}"
    bad = g.first_nonedge(nonzero | nonzero.T)
    if bad is not None:
        return f"nonzero cross product at non-edge ({bad[0]}, {bad[1]})"
    return None


def rankrrep_violation(g: Graph, rep: RankRRep) -> str | None:
    if len(rep.sizes) != g.n:
        raise DimensionMismatch(f"{len(rep.sizes)} block sizes for {g.n} vertices")
    off = rep.offsets()
    total = off[-1]
    if rep.matrix.rows != total or rep.matrix.cols != total:
        raise DimensionMismatch(f"matrix is {rep.matrix.rows}x{rep.matrix.cols}, expected {total}")
    for v in range(g.n):
        block = rep.matrix.block(off[v], off[v + 1], off[v], off[v + 1])
        if rank(block) < rep.r:
            return f"diagonal block of vertex {v} has rank below {rep.r}"
    # every block is nonempty here (``block`` refuses an empty one), so the
    # block starts are increasing, as reduceat needs; entries are >= 0
    starts = off[:-1]
    largest = np.maximum.reduceat(np.maximum.reduceat(rep.matrix.a, starts, axis=0), starts, axis=1)
    bad = g.first_nonedge(largest != 0)
    if bad is not None:
        return f"nonzero block at non-edge ({bad[0]}, {bad[1]})"
    return None


def subspacerep_violation(g: Graph, rep: SubspaceRep) -> str | None:
    if len(rep.bases) != g.n:
        raise DimensionMismatch(f"{len(rep.bases)} subspaces for {g.n} vertices")
    for v, b in enumerate(rep.bases):
        if b.shape != (rep.n, rep.d):
            raise DimensionMismatch(f"basis of vertex {v} has shape {b.shape}")
    for v, b in enumerate(rep.bases):
        if rank(b) != rep.d:
            return f"subspace of vertex {v} has dimension below {rep.d}"
    nonadjacent = ~g.matrix
    np.fill_diagonal(nonadjacent, False)
    for v, row in enumerate(nonadjacent):
        others = [rep.bases[u] for u in np.flatnonzero(row).tolist()]
        if not others:
            continue
        span = hstack(others)
        r_span = rank(span)
        if rank(hstack([rep.bases[v], span])) != rep.d + r_span:
            return f"subspace of vertex {v} meets its non-neighbors' span nontrivially"
    return None


# ---------------------------------------------------------------------------
# Conversions


def pairrep_from_drep(rep: DRep) -> PairRep:
    """Factor the block matrix as AᵀB with as many rows as its rank, so the
    pair form certifies exactly rank/d."""
    m = rep.matrix
    r = rank(m)
    _, piv_cols = select_full_rank_submatrix(m, r)
    c = m.submatrix(range(m.rows), piv_cols)  # N x r column-space basis
    x = solve_right(c, m)  # r x N with C X = M
    a_full = c.transpose()
    pairs = []
    for v in range(rep.nvertices):
        lo, hi = v * rep.d, (v + 1) * rep.d
        pairs.append((a_full.block(0, r, lo, hi), x.block(0, r, lo, hi)))
    return PairRep(r, rep.d, tuple(pairs), m.p)


def drep_from_pairrep(rep: PairRep) -> DRep:
    """The block matrix AᵀB, A and B the side-by-side factors A_v and B_v,
    whose block (u, v) is A_uᵀB_v."""
    a = hstack([a for a, _ in rep.pairs])
    b = hstack([b for _, b in rep.pairs])
    return DRep(rep.d, matmul(a.transpose(), b))


def subspace_from_pairrep(rep: PairRep) -> SubspaceRep:
    """Column spaces of the A_v matrices.  The general-position property of
    the result is checked by callers/tests rather than assumed."""
    return SubspaceRep(rep.n, rep.d, tuple(a for a, _ in rep.pairs), rep.p)


def rankr_to_drep(g: Graph, rep: RankRRep) -> DRep:
    """Extract an r-representation: keep a full-rank r x r corner of every
    diagonal block, then normalize each block row by that corner's inverse.
    Row operations stay within one vertex, so zero non-edge blocks survive
    and the rank never increases."""
    failure = rankrrep_violation(g, rep)
    if failure is not None:
        raise VerificationError(f"invalid input representation: {failure}")
    off = rep.offsets()
    r = rep.r
    row_idx: list[int] = []
    col_idx: list[int] = []
    for v in range(g.n):
        block = rep.matrix.block(off[v], off[v + 1], off[v], off[v + 1])
        rows, cols = select_full_rank_submatrix(block, r)
        row_idx.extend(off[v] + i for i in rows)
        col_idx.extend(off[v] + j for j in cols)
    sub = rep.matrix.submatrix(row_idx, col_idx)
    out = np.zeros_like(sub.a)
    for v in range(g.n):
        lo, hi = v * r, (v + 1) * r
        inv = inverse(sub.block(lo, hi, lo, hi))
        out[lo:hi, :] = matmul(inv, sub.block(lo, hi, 0, sub.cols)).a
    result = DRep(r, FMatrix(sub.p, out))
    failure = drep_violation(g, result)
    if failure is not None:
        raise VerificationError(f"extraction produced an invalid certificate: {failure}")
    return result


def tensor_dreps(rep_g: DRep, rep_h: DRep) -> DRep:
    """Kronecker product of certificates, reindexed to the row-major vertex
    order of the strong product.  Ratios multiply exactly.

    Entry ((u, x, i, j), (v, y, i', j')) of the result, with (u, i) and
    (v, i') indexing G's matrix and (x, j) and (y, j') H's, is
    G[u i, v i'] * H[x j, y j'].  Each factor's rows are first spread over
    all n result columns, G's repeated over (y, j') and H's over (v, i');
    one broadcast multiply of the two then writes every entry in place,
    with whole rows as its inner loop, in the narrowest dtype that holds
    (p - 1)^2.  Products of GF(2) entries are already 0 or 1 and stay
    uint8; for larger p one in-place ``% p`` reduces them before they are
    stored narrow.  A result above ``KRON_ENTRY_CAP`` entries is refused
    before anything is allocated."""
    mg, mh = rep_g.matrix, rep_h.matrix
    p = mg.p
    if p != mh.p:
        raise DimensionMismatch(f"modulus mismatch: {p} vs {mh.p}")
    d1, d2 = rep_g.d, rep_h.d
    ng, nh = rep_g.nvertices, rep_h.nvertices
    n = ng * nh * d1 * d2
    if n * n > KRON_ENTRY_CAP:
        raise GuardExceeded(f"tensor certificate has {n * n} entries (cap {KRON_ENTRY_CAP})")
    cols = (ng, nh, d1, d2)
    g_rows = np.broadcast_to(mg.a.reshape(ng, d1, ng, 1, d1, 1), (ng, d1, *cols)).reshape(ng, 1, d1, 1, n)
    h_rows = np.broadcast_to(mh.a.reshape(nh, d2, 1, nh, 1, d2), (nh, d2, *cols)).reshape(1, nh, 1, d2, n)
    # the ufunc must compute in the wide dtype: an ``out`` alone does not
    # stop two uint8 operands from multiplying in uint8
    wide = np.min_scalar_type((p - 1) ** 2)
    out = np.empty((ng, nh, d1, d2, n), dtype=wide)
    np.multiply(g_rows, h_rows, out=out, dtype=wide)
    if p > 2:
        np.remainder(out, p, out=out)
    return DRep(d1 * d2, FMatrix._reduced(p, out.reshape(n, n).astype(storage_dtype(p), copy=False)))


def drep_from_fractional_cover(g: Graph, cover: FractionalCover, p: int = 2) -> DRep:
    """Blow-up certificate from an exact fractional clique cover.

    Scaling the weights by the cover denominator d gives every vertex at
    least d integral clique-slots; each of the d copies of a vertex is
    assigned to one slot (class order, slack slots dropped), and the 0/1
    same-slot matrix is a d-representation with rank at most the number of
    slots, hence ratio at most the cover value.
    """
    d = cover.d
    slot_count = 0
    slot_ids: list[list[int]] = [[] for _ in range(g.n)]
    for cl, w in cover.classes:
        mult = w * d
        if mult.denominator != 1:
            raise VerificationError(f"weight {w} does not scale to an integer by d={d}")
        for _ in range(int(mult)):
            for v in cl:
                slot_ids[v].append(slot_count)
            slot_count += 1
    for v in range(g.n):
        if len(slot_ids[v]) < d:
            raise VerificationError(f"vertex {v} has {len(slot_ids[v])} slots, needs {d}")
    assignment = np.array([slot_ids[v][i] for v in range(g.n) for i in range(d)], dtype=np.int64)
    a = (assignment[:, None] == assignment[None, :]).astype(np.int64)
    rep = DRep(d, FMatrix(p, a))
    failure = drep_violation(g, rep)
    if failure is not None:
        raise VerificationError(f"cover produced an invalid certificate: {failure}")
    return rep


def cycle_drep(k: int, p: int) -> DRep:
    """Verified certificate for the odd cycle on 2k+1 vertices, built from
    its optimal fractional clique cover.

    For k >= 2 the cover is the edge cover at weight 1/2 and the certified
    ratio is exactly (2k+1)/2.  For k = 1 the cycle is a triangle, the
    optimal cover is the single 3-clique, and the ratio is 1.
    """
    if k < 1:
        raise PreconditionError(f"need k >= 1, got {k}")
    g = cycle(2 * k + 1)
    rep = drep_from_fractional_cover(g, fractional_clique_cover(g), p)
    if k >= 2 and rep.ratio() != Fraction(2 * k + 1, 2):
        raise VerificationError(f"odd-cycle certificate has ratio {rep.ratio()}")
    return rep


def linind_check(rep: PairRep, g: Graph, s: set[int] | frozenset[int], t: set[int] | frozenset[int]) -> bool:
    """Whether the spans of {A_v : v in S} and {A_v : v in T} intersect
    trivially, i.e. dim(sum over S+T) = dim(sum over S) + dim(sum over T).

    Preconditions (reported distinctly): S and T disjoint, S independent,
    and no edges between S and T.  On verified representations the answer
    is guaranteed to be True; on unverified input it is just a rank fact.
    """
    s, t = set(s), set(t)
    if s & t:
        raise PreconditionError(f"S and T intersect: {sorted(s & t)}")
    if not is_independent_set(g, s):
        raise PreconditionError("S is not an independent set")
    for u in s:
        for v in t:
            if g.has_edge(u, v):
                raise PreconditionError(f"edge between S and T: ({u}, {v})")
    if not s or not t:
        return True
    stack_s = hstack([rep.pairs[v][0] for v in sorted(s)])
    stack_t = hstack([rep.pairs[v][0] for v in sorted(t)])
    return rank(hstack([stack_s, stack_t])) == rank(stack_s) + rank(stack_t)


# ---------------------------------------------------------------------------
# Upper/lower search


def hfrac_upper_search(
    g: Graph,
    p: int,
    dmax: int = 8,
    budget: Budget | None = None,
) -> BoundReport:
    """Best certified interval for the fractional minrank bound over GF(p).

    Upper candidates (certificates with block size at most dmax): the
    budgeted d = 1 minrank search, the blow-up of the optimal fractional
    clique cover (left out when the budget cuts the cover off; the
    master's cover when an orbit cover's denominator exceeds dmax), and, when
    the graph expression is a strong product, the tensor product of the
    factors' best certificates.  The lower end is the independence number
    (or its certified lower bound under budget).  The interval never
    claims the parameter exactly unless the two ends meet; whether any
    part was cut off shows in ``budget.exhausted``.
    """
    if dmax < 1:
        raise PreconditionError(f"dmax must be >= 1, got {dmax}")
    budget = budget or Budget()
    a, wit = alpha_lower_end(g, budget)
    upper, best = _best_upper(g, p, dmax, budget)
    return BoundReport(
        parameter=f"hfrac[gf({p})]",
        graph=g.expr or f"n={g.n},m={g.m}",
        lower=Fraction(a),
        upper=upper,
        witnesses=({"kind": "independent_set", "vertices": [int(v) for v in wit]}, best),
    )


def _best_upper(g: Graph, p: int, dmax: int, budget: Budget) -> tuple[Fraction, DRep]:
    """The smallest (ratio, certificate) among the upper candidates."""
    candidates: list[tuple[Fraction, DRep]] = []
    res = minrank_exact(g, p, budget)
    candidates.append((Fraction(res.upper), DRep(1, res.certificate.matrix)))

    try:
        cover = fractional_clique_cover(g, budget)
        if cover.d > dmax and g.transitive_automorphisms is not None:
            # an orbit cover's denominator can exceed that of the master's
            # optimum, which the bare matrix (no automorphisms) gets
            cover = fractional_clique_cover(Graph(g.matrix), budget)
    except (BudgetExhausted, SearchCutoff):
        cover = None  # the other candidates still certify the upper end
    if cover is not None and cover.d <= dmax:
        rep = drep_from_fractional_cover(g, cover, p)
        candidates.append((rep.ratio(), rep))

    if g.expr:
        try:
            ex = parse_expr(g.expr)
        except GraphParseError:
            ex = None
        if ex is not None and ex.op == "strong":
            (_, rep1), (_, rep2) = (_best_upper(generate(child), p, dmax, budget) for child in ex.args)
            if rep1.d * rep2.d <= dmax:
                tens = tensor_dreps(rep1, rep2)
                candidates.append((tens.ratio(), tens))

    return min(candidates, key=lambda c: c[0])
