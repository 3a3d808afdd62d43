"""Lovasz theta values for structured graphs, plus bound evaluators fed by
explicit orthonormal or matrix representations.

There is deliberately no general SDP solver here: theta is computed only
where a certifiable route exists: the eigenvalue closed form for
edge-transitive circulants, an exact rational LP for the intersection
graphs of (p+1)-subsets, and numeric evaluators that turn any supplied
representation into a bound that holds up to the stated tolerance.  The
tolerance is a field of each representation (``OrthoRep.tol``,
``MatrixRep.tol``): it is read from and written to the certificate file
with the vectors, and every check of the representation uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, cos, inf, pi, sin, sqrt

import numpy as np

from .errors import DimensionMismatch, PreconditionError, UnsupportedFamily, VerificationError
from .graphs import Graph, complement, require_prime
from .lp import F1, LinearProgram, simplex_solve
from .serialize import read_list, read_reals

DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Closed forms and the exact LP


def circulant_eigenvalues(n: int, connection: set[int]) -> list[float]:
    offs = {s % n for s in connection}
    offs = {min(s, n - s) for s in offs}
    lams = []
    for j in range(n):
        lam = 0.0
        for s in offs:
            if 2 * s == n:
                lam += cos(pi * j)
            else:
                lam += 2.0 * cos(2.0 * pi * j * s / n)
        lams.append(lam)
    return lams


def theta_circulant(n: int, connection: set[int] | frozenset[int]) -> float:
    """theta = n(-lam_min)/(lam_max - lam_min) for vertex- and
    edge-transitive circulants.

    Supported families: a single offset (disjoint cycles / a perfect
    matching) and the complete connection set.  Other connection sets are
    rejected rather than silently mis-valued.
    """
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    offs = {s % n for s in connection}
    if not offs or 0 in offs:
        raise PreconditionError("connection set must be nonempty without offset 0")
    offs = {min(s, n - s) for s in offs}
    if len(offs) != 1 and offs != set(range(1, n // 2 + 1)):
        raise UnsupportedFamily(
            f"connection set {sorted(offs)} is not a supported edge-transitive family"
        )
    lams = circulant_eigenvalues(n, offs)
    lam_max, lam_min = max(lams), min(lams)
    return n * (-lam_min) / (lam_max - lam_min)


def odd_cycle_theta(n: int) -> float:
    """Closed form n cos(pi/n) / (1 + cos(pi/n)) for odd cycles."""
    if n < 3 or n % 2 == 0:
        raise PreconditionError(f"odd cycle needed, got n={n}")
    c = cos(pi / n)
    return n * c / (1.0 + c)


def johnson_theta_program(p: int, n: int) -> LinearProgram:
    """The p+2 constraint rows of the exact theta LP for the graph on
    (p+1)-subsets of [n] with intersection size nonzero mod p; p must be
    prime, as for the ``johnson`` graph family."""
    require_prime(p)
    if n < 2 * (p + 1):
        raise PreconditionError(f"need n >= 2(p+1) = {2 * (p + 1)}, got {n}")
    rows = []
    for u in range(p + 2):
        c1 = Fraction((p + 1 - u) * (n - p - u - 1) - u, (p + 1) * (n - p - 1))
        c2 = Fraction((-1) ** u * comb(n - p - u - 1, p + 1 - u), comb(n - p - 1, p + 1))
        rows.append(({0: c1, 1: c2}, ">=", Fraction(-1)))
    return LinearProgram(objective=(F1, F1), constraints=tuple(rows), constant=F1)


def theta_johnson_lp(p: int, n: int) -> Fraction:
    """Exact rational theta of the (p+1)-subset intersection graph,
    maximizing 1 + a_1 + a_{p+1} over the association-scheme constraints."""
    sol = simplex_solve(johnson_theta_program(p, n))
    if sol.status != "optimal":
        raise VerificationError(f"theta LP did not solve to optimality: {sol.status}")
    return sol.value


def johnson_theta_formula(n: int) -> Fraction:
    """Closed form n(n-2)(2n-11) / (3(3n-14)) for p = 2."""
    if 3 * n == 14:
        raise PreconditionError("formula denominator vanishes")
    return Fraction(n * (n - 2) * (2 * n - 11), 3 * (3 * n - 14))


# ---------------------------------------------------------------------------
# Representation-based evaluators


def read_tol(value) -> float:
    """A certificate's tolerance: a finite number >= 0."""
    tol = float(read_reals(value, "tol", 0))
    if tol < 0:
        raise VerificationError(f"tol must be >= 0, got {value!r}")
    return tol


@dataclass(frozen=True)
class OrthoRep:
    """Unit vectors (rows) with non-adjacent pairs orthogonal, plus a unit
    handle vector."""

    vectors: np.ndarray  # shape (nv, N)
    handle: np.ndarray  # shape (N,)
    tol: float = field(default=DEFAULT_TOL)  # the tolerance every check allows

    def to_json(self) -> dict:
        return {
            "kind": "orthorep",
            "vectors": [[float(x) for x in row] for row in self.vectors],
            "handle": [float(x) for x in self.handle],
            "tol": self.tol,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OrthoRep":
        vectors = read_reals(obj["vectors"], "vectors", 2)
        handle = read_reals(obj["handle"], "handle", 1)
        if handle.shape[0] != vectors.shape[1]:
            raise DimensionMismatch(f"handle of length {handle.shape[0]} for vectors of "
                                    f"length {vectors.shape[1]}")
        return cls(vectors, handle, read_tol(obj.get("tol", DEFAULT_TOL)))


def orthorep_violation(g: Graph, rep: OrthoRep) -> str | None:
    if rep.vectors.shape[0] != g.n:
        return f"{rep.vectors.shape[0]} vectors for {g.n} vertices"
    norms = np.linalg.norm(rep.vectors, axis=1)
    bad = np.nonzero(np.abs(norms - 1.0) > rep.tol)[0]
    if bad.size:
        return f"vector of vertex {int(bad[0])} is not unit length"
    if abs(np.linalg.norm(rep.handle) - 1.0) > rep.tol:
        return "handle is not unit length"
    gram = rep.vectors @ rep.vectors.T
    bad = g.first_nonedge(np.triu(np.abs(gram) > rep.tol, 1))
    if bad is not None:
        return f"non-edge ({bad[0]}, {bad[1]}) has inner product {gram[bad]:.3e}"
    return None


def theta_upper_from_orthorep(rep: OrthoRep) -> float:
    """max_v 1/<x_v, h>^2; an upper bound on theta up to the verification
    tolerance.  A vanishing inner product makes the bound unbounded (inf)."""
    dots = rep.vectors @ rep.handle
    sq = dots * dots
    if np.any(sq < 1e-30):
        return inf
    return float(np.max(1.0 / sq))


def theta_lower_from_dual(g: Graph, rep_of_complement: OrthoRep) -> float:
    """Sum of <x_v, h>^2 over an orthonormal representation of the
    complement: the dual form, a lower bound on theta(g) up to the
    representation's tolerance."""
    failure = orthorep_violation(complement(g), rep_of_complement)
    if failure is not None:
        raise VerificationError(f"complement representation invalid: {failure}")
    dots = rep_of_complement.vectors @ rep_of_complement.handle
    return float(np.sum(dots * dots))


@dataclass(frozen=True)
class MatrixRep:
    """Per-vertex matrices with orthonormal columns (non-adjacent frames
    mutually orthogonal) and a handle matrix of unit columns."""

    frames: tuple[np.ndarray, ...]  # each N x d_v
    handle: np.ndarray  # N x k
    tol: float = field(default=DEFAULT_TOL)  # the tolerance every check allows

    def to_json(self) -> dict:
        return {
            "kind": "matrixrep",
            "frames": [[[float(x) for x in row] for row in f] for f in self.frames],
            "handle": [[float(x) for x in row] for row in self.handle],
            "tol": self.tol,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixRep":
        frames = tuple(read_reals(f, "frames", 2) for f in read_list(obj["frames"], "frames"))
        handle = read_reals(obj["handle"], "handle", 2)
        for f in frames:
            if f.shape[0] != handle.shape[0]:
                raise DimensionMismatch(f"a frame of {f.shape[0]} rows for a handle of "
                                        f"{handle.shape[0]} rows")
        return cls(frames, handle, read_tol(obj.get("tol", DEFAULT_TOL)))


def matrixrep_violation(g: Graph, rep: MatrixRep) -> str | None:
    if len(rep.frames) != g.n:
        return f"{len(rep.frames)} frames for {g.n} vertices"
    for v, f in enumerate(rep.frames):
        d = f.shape[1]
        if np.max(np.abs(f.T @ f - np.eye(d))) > rep.tol:
            return f"frame of vertex {v} is not orthonormal"
    hnorms = np.linalg.norm(rep.handle, axis=0)
    if np.any(np.abs(hnorms - 1.0) > rep.tol):
        return "a handle column is not unit length"
    if not rep.frames:
        return None  # the graph has no vertices
    # block (u, v) of the stacked frames' Gram matrix is M_uᵀM_v; a frame
    # that passed the check above has a column, so the block starts increase
    stacked = np.hstack(rep.frames)
    starts = np.cumsum([0] + [f.shape[1] for f in rep.frames[:-1]])
    cross = np.abs(stacked.T @ stacked)
    largest = np.maximum.reduceat(np.maximum.reduceat(cross, starts, axis=0), starts, axis=1)
    bad = g.first_nonedge(np.triu(largest > rep.tol, 1))
    if bad is not None:
        return f"non-edge ({bad[0]}, {bad[1]}) has non-orthogonal frames"
    return None


def pentagon_umbrella(step: int = 1) -> OrthoRep:
    """The classical five-vector umbrella in R^3 with <x_v, h>^2 = 5^{-1/2}.

    step 1 orients the azimuths so vertices at distance 2 on the 5-cycle
    are orthogonal (a representation of the cycle); step 2 makes
    consecutive vertices orthogonal (a representation of its complement).
    """
    if step not in (1, 2):
        raise PreconditionError("step must be 1 or 2")
    cos_phi = 5.0 ** -0.25  # cos^2(phi) = 1/sqrt(5)
    sin_phi = sqrt(1.0 - cos_phi * cos_phi)
    vecs = np.array(
        [
            [
                sin_phi * cos(2.0 * pi * step * v / 5.0),
                sin_phi * sin(2.0 * pi * step * v / 5.0),
                cos_phi,
            ]
            for v in range(5)
        ]
    )
    return OrthoRep(vecs, np.array([0.0, 0.0, 1.0]))
