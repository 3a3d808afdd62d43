"""Certified bounds on the Shannon capacity of graphs.

The package computes and cross-verifies the classical sandwich of
parameters around the capacity: exact independence numbers, fractional
clique covers, the minimum rank of fit matrices over prime fields, its
fractional (block-certificate) refinement, and Lovasz theta for graph
families with a certifiable route.  Every bound is an interval whose ends
are witnessed by re-verifiable certificates.
"""

from .budget import Budget
from .errors import (
    BudgetExhausted,
    DimensionMismatch,
    GraphParseError,
    GuardExceeded,
    PreconditionError,
    SearchCutoff,
    UnsupportedFamily,
    VerificationError,
)
from .fraccover import FractionalCover, cover_violation, fractional_clique_cover
from .gfmat import FMatrix, inverse, matmul, rank, select_full_rank_submatrix
from .graphs import (
    Graph,
    GraphExpr,
    alon,
    complement,
    complete,
    cycle,
    empty,
    generate,
    is_clique,
    is_independent_set,
    johnson,
    lex_product,
    parse_expr,
    read_graph_file,
    strong_product,
    universal_graph,
    write_graph_file,
)
from .independence import (
    CliqueCover,
    alpha,
    clique_cover_leq,
    greedy_clique_cover,
    max_weight_independent_set,
)
from .lp import LinearProgram, LpSolution, check_solution, simplex_solve
from .minrank import (
    FitCertificate,
    MinrankResult,
    PolyRep,
    alon_certificate,
    cover_certificate,
    fit_violation,
    graph_hash,
    johnson_certificate,
    minrank_exact,
)
from .report import BoundReport
from .reps import (
    DRep,
    PairRep,
    RankRRep,
    SubspaceRep,
    cycle_drep,
    drep_from_fractional_cover,
    drep_from_pairrep,
    drep_violation,
    hfrac_upper_search,
    linind_check,
    pairrep_from_drep,
    pairrep_violation,
    rankr_to_drep,
    rankrrep_violation,
    subspace_from_pairrep,
    subspacerep_violation,
    tensor_dreps,
)
from .theta import (
    MatrixRep,
    OrthoRep,
    matrixrep_violation,
    orthorep_violation,
    pentagon_umbrella,
    theta_circulant,
    theta_johnson_lp,
    theta_lower_from_dual,
    theta_upper_from_orthorep,
)

__version__ = "0.1.0"
