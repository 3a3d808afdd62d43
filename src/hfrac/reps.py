"""The fractional minrank bound through its block certificates.

A block fit matrix with identity diagonal blocks and zero non-edge blocks
(``DRep``, defined and checked in ``minrank`` beside the fit matrices, its
case d = 1) witnesses the bound rank/d.  Tensoring block certificates
multiplies ratios exactly, which is what makes the bound multiplicative
over strong products.  A fractional clique cover of value v bounds it by v
over every field: its blow-up (``drep_from_fractional_cover``) is a block
certificate of ratio at most v.  So a report cites the cover itself, and
the search blows a cover up only to tensor it.

Certificates are the unit of truth here: every constructor verifies its
output, and the search orchestrator only ever reports intervals whose two
ends are witnessed.  How ``verify`` reads and checks each kind, and which
report ends it may witness, is the table ``_KINDS`` in ``cli``.
"""

from __future__ import annotations

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
from .gfmat import KRON_ENTRY_CAP, FMatrix, storage_dtype
from .graphs import Graph, cycle, generate, parse_expr
from .independence import alpha_lower_end
from .minrank import DRep, drep_violation, minrank_exact
from .report import BoundReport


# ---------------------------------------------------------------------------
# Constructions


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


# ---------------------------------------------------------------------------
# Upper/lower search


def hfrac_upper_search(g: Graph, p: int, budget: Budget | None = None) -> BoundReport:
    """Best certified interval for the fractional minrank bound over GF(p).

    Upper candidates: the budgeted d = 1 minrank search, the optimal
    fractional clique cover (left out when the budget cuts it off), and,
    when the graph expression is a strong product, the tensor product of
    the factors' best certificates.  The lower end is the independence
    number (or its certified lower bound under budget), searched once: the
    minrank search takes it as its own interval's lower end.  The interval
    never claims the parameter exactly unless the two ends meet; whether
    any part was cut off shows in ``budget.exhausted``.
    """
    budget = budget or Budget()
    a, wit = alpha_lower_end(g, budget)
    upper, best = _best_upper(g, p, budget, (a, wit), {})
    return BoundReport(
        parameter=f"hfrac[gf({p})]",
        graph=g.expr or f"n={g.n},m={g.m}",
        lower=Fraction(a),
        upper=upper,
        witnesses=({"kind": "independent_set", "vertices": [int(v) for v in wit]}, best),
    )


def _best_upper(
    g: Graph,
    p: int,
    budget: Budget,
    alpha_end: tuple[int, tuple[int, ...]] | None,
    factors: dict[str, tuple[Graph, tuple[Fraction, DRep | FractionalCover]]],
) -> tuple[Fraction, DRep | FractionalCover]:
    """The smallest (value, certificate) among the upper candidates; a
    cover stands for itself at its value, whatever its denominator.

    ``alpha_end`` is g's ``alpha_lower_end`` when the caller has it, and
    ``factors`` holds the graph and result of every strong-product factor
    solved so far in this search, by expression, so a repeated factor is
    solved once.  The tensor candidate blows up a factor whose best is a
    cover, and is formed only when its (n1 d1 n2 d2)^2 entries fit under
    ``KRON_ENTRY_CAP``, checked before any blow-up is built.  When both
    factors' bests are covers and g's own cover is a candidate it is left
    out: the cover number is multiplicative under the strong product, so
    that tensor could only tie.
    """
    candidates: list[tuple[Fraction, DRep | FractionalCover]] = []
    res = minrank_exact(g, p, budget, alpha_end)
    candidates.append((Fraction(res.upper), DRep(1, res.certificate.matrix)))

    try:
        cover = fractional_clique_cover(g, budget)
        candidates.append((cover.value, cover))
    except (BudgetExhausted, SearchCutoff):
        cover = None  # the other candidates still certify the upper end

    if g.expr:
        try:
            ex = parse_expr(g.expr)
        except GraphParseError:
            ex = None
        if ex is not None and ex.op == "strong":
            names = [str(child) for child in ex.args]
            for name in names:
                if name not in factors:
                    h = generate(name)
                    factors[name] = (h, _best_upper(h, p, budget, None, factors))
            (g1, (_, best1)), (g2, (_, best2)) = (factors[name] for name in names)
            both_covers = isinstance(best1, FractionalCover) and isinstance(best2, FractionalCover)
            rows = g1.n * best1.d * g2.n * best2.d
            if not (both_covers and cover is not None) and rows * rows <= KRON_ENTRY_CAP:
                tens = tensor_dreps(_as_drep(g1, best1, p), _as_drep(g2, best2, p))
                candidates.append((tens.ratio(), tens))

    return min(candidates, key=lambda c: c[0])


def _as_drep(g: Graph, best: DRep | FractionalCover, p: int) -> DRep:
    return drep_from_fractional_cover(g, best, p) if isinstance(best, FractionalCover) else best
