"""Exact GF(p) linear algebra."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfrac import gfmat
from hfrac.errors import DimensionMismatch, GuardExceeded, PreconditionError, VerificationError
from hfrac.gfmat import (
    FMatrix,
    hstack,
    inverse,
    kronecker,
    matmul,
    rank,
    select_full_rank_submatrix,
    solve_right,
)
from hfrac.serialize import canonical_json, load_json


def random_fmatrix(rng, p, rows, cols):
    return FMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


def gf2_rank_bruteforce(rows):
    """Independent oracle: largest XOR-independent subset of the rows."""
    best = 0
    packed = [int("".join(map(str, r)), 2) for r in rows]
    for size in range(len(rows) + 1):
        for subset in combinations(packed, size):
            seen = set()
            basis = []
            ok = True
            # subset is independent iff no sub-XOR vanishes
            for mask in range(1, 1 << len(subset)):
                acc = 0
                for i in range(len(subset)):
                    if mask >> i & 1:
                        acc ^= subset[i]
                if acc == 0:
                    ok = False
                    break
            if ok:
                best = max(best, size)
    return best


def test_rank_examples():
    assert rank(FMatrix.identity(2, 5)) == 5
    assert rank(FMatrix.ones(3, 4, 4)) == 1


def test_rank_incidence_of_3_subsets_of_4():
    subsets = list(combinations(range(4), 3))
    rows = [[1 if i in s else 0 for s in subsets] for i in range(4)]
    m = FMatrix(2, rows)
    assert rank(m) == gf2_rank_bruteforce(rows) == 4


def test_modulus_must_be_prime():
    with pytest.raises(PreconditionError):
        FMatrix(4, [[1]])
    for make in (FMatrix.zeros, FMatrix.ones):
        with pytest.raises(PreconditionError):
            make(4, 2, 2)
    with pytest.raises(PreconditionError):
        FMatrix.identity(4, 2)
    # a file's modulus is checked too, and a bad one fails verification
    with pytest.raises(VerificationError):
        FMatrix.from_json({"p": 4, "rows": 1, "cols": 1, "entries": [1]})


def test_derived_matrices_own_their_arrays():
    rng = random.Random(3)
    m = random_fmatrix(rng, 5, 4, 6)
    derived = [m.transpose(), m.block(1, 3, 0, 4), m.submatrix([0, 2], [1, 5]),
               hstack([m, m]), FMatrix.from_json(m.to_json())]
    for d in derived:
        assert not np.shares_memory(d.a, m.a)
    assert derived[0].a.tolist() == m.a.T.tolist()
    assert derived[1].a.tolist() == m.a[1:3, 0:4].tolist()
    assert derived[4] == m
    with pytest.raises(DimensionMismatch):
        m.block(1, 1, 0, 4)


def test_a_decoded_matrix_takes_its_array_without_a_copy():
    # load_json's decoded array has no other owner; a to_json dict's is a view
    m = random_fmatrix(random.Random(4), 5, 3, 4)
    doc = load_json(canonical_json(m.to_json()))
    back = FMatrix.from_json(doc)
    assert back == m and np.shares_memory(back.a, doc["entries"])


def test_matmul_examples():
    rng = random.Random(0)
    m = random_fmatrix(rng, 5, 3, 4)
    assert matmul(FMatrix.identity(5, 3), m) == m
    a = FMatrix(2, [[1], [1]])
    b = FMatrix(2, [[0], [1]])
    assert matmul(a.transpose(), b) == FMatrix.identity(2, 1)
    with pytest.raises(DimensionMismatch):
        matmul(FMatrix.identity(2, 3), FMatrix.identity(2, 4))
    with pytest.raises(DimensionMismatch):
        matmul(FMatrix.identity(2, 3), FMatrix.identity(3, 3))


def test_int64_overflow_is_refused():
    p = 3037000493  # prime, (p-1)^2 + p < 2^63 <= 2 (p-1)^2
    a = FMatrix(p, [[p - 1, p - 1]])
    assert matmul(a.block(0, 1, 0, 1), a.block(0, 1, 0, 1)) == FMatrix(p, [[1]])
    with pytest.raises(GuardExceeded):
        matmul(a, a.transpose())  # 2 (p-1)^2 = 2 mod p, but it overflows int64
    assert rank(FMatrix(p, [[1, p - 1], [p - 1, 1]])) == 1
    with pytest.raises(GuardExceeded):
        FMatrix(3037000507, [[1]])  # the least prime with (p-1)^2 + p >= 2^63


def test_johnson_gram_has_unit_diagonal_over_gf2():
    # columns of odd weight p+1 = 3 give 1s on the Gram diagonal
    subsets = list(combinations(range(6), 3))
    inc = FMatrix(2, [[1 if i in s else 0 for s in subsets] for i in range(6)])
    gram = matmul(inc.transpose(), inc)
    assert all(gram[i, i] == 1 for i in range(len(subsets)))


def test_kronecker_examples():
    assert kronecker(FMatrix.identity(2, 2), FMatrix.identity(2, 3)) == FMatrix.identity(2, 6)
    a = FMatrix(3, np.arange(6).reshape(2, 3))
    b = FMatrix(3, np.arange(20).reshape(4, 5))
    assert kronecker(a, b).shape == (8, 15)
    rng = random.Random(1)
    m = random_fmatrix(rng, 5, 3, 3)
    assert rank(kronecker(FMatrix.identity(5, 2), m)) == 2 * rank(m)


def test_kronecker_rank_multiplicativity_random():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(200):
            a = random_fmatrix(rng, p, rng.randint(1, 4), rng.randint(1, 4))
            b = random_fmatrix(rng, p, rng.randint(1, 4), rng.randint(1, 4))
            assert rank(kronecker(a, b)) == rank(a) * rank(b)


def test_rank_of_product_bound_and_permutation_invariance():
    rng = random.Random(3)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        a = random_fmatrix(rng, p, rng.randint(1, 5), rng.randint(1, 5))
        b = random_fmatrix(rng, p, a.cols, rng.randint(1, 5))
        assert rank(matmul(a, b)) <= min(rank(a), rank(b))
        rows = list(range(a.rows))
        cols = list(range(a.cols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        assert rank(a.submatrix(rows, cols)) == rank(a)


def test_select_full_rank_submatrix():
    assert select_full_rank_submatrix(FMatrix.identity(2, 3), 2) == ([0, 1], [0, 1])
    m = FMatrix(5, [[0, 0, 0], [1, 2, 3], [2, 4, 2]])
    rows, cols = select_full_rank_submatrix(m, 1)
    assert rows[0] == 1  # zero first row skipped
    rng = random.Random(4)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        m = random_fmatrix(rng, p, rng.randint(2, 6), rng.randint(2, 6))
        r = rank(m)
        if r == 0:
            continue
        rows, cols = select_full_rank_submatrix(m, r)
        assert rank(m.submatrix(rows, cols)) == r
    with pytest.raises(PreconditionError):
        select_full_rank_submatrix(FMatrix.ones(2, 3, 3), 2)


def test_solve_and_inverse():
    rng = random.Random(5)
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 5)
        m = random_fmatrix(rng, p, n, n)
        if rank(m) < n:
            with pytest.raises(PreconditionError):
                inverse(m)
            continue
        inv = inverse(m)
        assert matmul(m, inv) == FMatrix.identity(p, n)
    c = FMatrix(3, [[1, 0], [1, 1], [0, 1]])
    m = matmul(c, FMatrix(3, [[1, 2, 0], [0, 1, 1]]))
    x = solve_right(c, m)
    assert matmul(c, x) == m


def test_json_roundtrip():
    m = FMatrix(7, [[1, 2, 3], [4, 5, 6]])
    assert FMatrix.from_json(m.to_json()) == m
    bad = m.to_json()
    bad["entries"] = bad["entries"][:-1]
    with pytest.raises(DimensionMismatch):
        FMatrix.from_json(bad)


# GF(2) matrices for the packed kernel: word boundaries (63, 64, 65, 127,
# 128, 129 columns) are drawn often, shapes are tall or wide, and the
# entries random, zero, a shifted identity, a few rows repeated, sparse, or
# a product of rank at most k.
GF2_COLS = st.one_of(st.sampled_from((1, 2, 63, 64, 65, 127, 128, 129, 140)), st.integers(1, 140))
GF2_KINDS = ("random", "zero", "identity", "repeated", "sparse", "low-rank")


@st.composite
def gf2_arrays(draw, rows=st.integers(1, 150), cols=GF2_COLS):
    rows, cols = draw(rows), draw(cols)
    kind = draw(st.sampled_from(GF2_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        a = rng.integers(0, 2, (rows, cols))
    elif kind == "zero":
        a = np.zeros((rows, cols), dtype=np.int64)
    elif kind == "identity":
        a = np.eye(rows, cols, k=draw(st.integers(-2, 2)), dtype=np.int64)[rng.permutation(rows)]
    elif kind == "repeated":
        base = rng.integers(0, 2, (draw(st.integers(1, 4)), cols))
        a = base[rng.integers(0, len(base), rows)]
    elif kind == "sparse":
        a = (rng.random((rows, cols)) < 0.03).astype(np.int64)
    else:
        k = draw(st.integers(1, 8))
        a = rng.integers(0, 2, (rows, k)) @ rng.integers(0, 2, (k, cols)) % 2
    return np.ascontiguousarray(a, dtype=np.int64)


def int64_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The int64 kernel's reduced echelon form, the oracle for p = 2."""
    red, pivots = gfmat._eliminate(a, p)
    return gfmat._back_substitute(red, pivots, p), [c for _, c in pivots]


def int64_solve_right(c: np.ndarray, m: np.ndarray, p: int) -> np.ndarray | None:
    red, piv_cols = int64_rref(np.hstack([c, m]), p)
    if piv_cols != list(range(c.shape[1])):
        return None
    return red[: c.shape[1], c.shape[1]:]


@settings(max_examples=300, deadline=None)
@given(gf2_arrays())
def test_packed_gf2_kernel_matches_the_int64_kernel(a):
    m = FMatrix(2, a)
    echelon, pivots = gfmat._eliminate(a, 2)
    words, packed_pivots = gfmat._eliminate_gf2(a)
    assert packed_pivots == pivots
    assert np.array_equal(gfmat._unpack_gf2(words, a.shape[1]), echelon)
    assert rank(m) == len(pivots)
    assert select_full_rank_submatrix(m, len(pivots)) == ([r for r, _ in pivots], [c for _, c in pivots])
    red, piv_cols = gfmat._rref(a, 2)
    want, want_cols = int64_rref(a, 2)
    assert piv_cols == want_cols and np.array_equal(red, want)
    assert np.array_equal(m.a, a)  # input unchanged


@settings(max_examples=150, deadline=None)
@given(gf2_arrays(rows=st.integers(1, 140)), st.integers(1, 70), st.booleans(), st.integers(0, 2**32 - 1))
def test_gf2_solve_right_and_inverse_match_the_int64_kernel(c, k, consistent, seed):
    rng = np.random.default_rng(seed)
    rhs = c @ rng.integers(0, 2, (c.shape[1], k)) % 2 if consistent else rng.integers(0, 2, (c.shape[0], k))
    want = int64_solve_right(c, rhs, 2)
    if want is None:
        with pytest.raises(PreconditionError):
            solve_right(FMatrix(2, c), FMatrix(2, rhs))
    else:
        assert np.array_equal(solve_right(FMatrix(2, c), FMatrix(2, rhs)).a, want)
    n = min(c.shape)
    square = c[:n, :n]
    want = int64_solve_right(square, np.eye(n, dtype=np.int64), 2)
    if want is None:
        with pytest.raises(PreconditionError):
            inverse(FMatrix(2, square))
    else:
        assert np.array_equal(inverse(FMatrix(2, square)).a, want)


# The storage rule: every matrix over GF(p) holds its entries in the
# narrowest unsigned dtype that holds p - 1, whatever built it.
STORAGE_PRIMES = (2, 3, 251, 257, 65537, 2**31 - 1)


@pytest.mark.parametrize("p", STORAGE_PRIMES)
def test_every_matrix_is_stored_in_the_narrowest_dtype(p):
    want = np.min_scalar_type(p - 1)
    assert want.kind == "u" and np.iinfo(want).max >= p  # so % p stays in the dtype
    rng = random.Random(p)
    m = random_fmatrix(rng, p, 2, 3)
    unit = FMatrix(p, [[1, p - 1], [0, 1]])  # unit upper triangular: invertible
    doc = load_json(canonical_json(m.to_json()))
    results = {
        "init": m, "init (negative, wide)": FMatrix(p, [[-1, 2**40]]),
        "zeros": FMatrix.zeros(p, 2, 2), "identity": FMatrix.identity(p, 3), "ones": FMatrix.ones(p, 1, 2),
        "transpose": m.transpose(), "block": m.block(0, 2, 1, 3), "submatrix": m.submatrix([1], [0, 2]),
        "matmul": matmul(unit, m), "kronecker": kronecker(unit, m),
        "solve_right": solve_right(unit, m), "inverse": inverse(unit), "hstack": hstack([m, unit]),
        "from_json": FMatrix.from_json(doc), "from_json (list)": FMatrix.from_json(m.to_json() | {
            "entries": m.a.ravel().tolist()}),
    }
    for name, got in results.items():
        assert got.a.dtype == want, name
        assert 0 <= int(got.a.min()) and int(got.a.max()) < p, name
    assert matmul(unit, solve_right(unit, m)) == m
    assert matmul(unit, inverse(unit)) == FMatrix.identity(p, 2)
    assert results["init (negative, wide)"].a.tolist() == [[p - 1, 2**40 % p]]


def _python_matmul(a: list, b: list, p: int) -> list:
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _python_kron(a: list, b: list, p: int) -> list:
    return [[x * y % p for x in ra for y in rb] for ra in a for rb in b]


@pytest.mark.parametrize("p", (17, 257, 65537))
def test_products_of_narrow_entries_match_python_ints(p):
    # products of two entries overflow the storage dtype at every one of these p
    rng = random.Random(p)
    for rows, inner, cols in ((1, 1, 1), (3, 4, 2), (5, 7, 6)):
        a, b = random_fmatrix(rng, p, rows, inner), random_fmatrix(rng, p, inner, cols)
        a.a[0, 0] = b.a[0, 0] = p - 1
        assert matmul(a, b).a.tolist() == _python_matmul(a.a.tolist(), b.a.tolist(), p)
        c = random_fmatrix(rng, p, cols, rows)
        c.a[-1, -1] = p - 1
        assert kronecker(a, c).a.tolist() == _python_kron(a.a.tolist(), c.a.tolist(), p)
