"""Exact GF(p) linear algebra."""

from __future__ import annotations

import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st
from oracles import int64_eliminate

from hfrac import gfmat
from hfrac.errors import DimensionMismatch, GuardExceeded, PreconditionError, VerificationError
from hfrac.gfmat import FMatrix, matmul, rank
from hfrac.serialize import canonical_json, load_json


def random_fmatrix(rng, p, rows, cols):
    return FMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


def identity(p, n):
    return FMatrix(p, np.eye(n, dtype=np.int64))


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
    assert rank(identity(2, 5)) == 5
    assert rank(FMatrix(3, np.ones((4, 4), dtype=np.int64))) == 1


def test_rank_incidence_of_3_subsets_of_4():
    subsets = list(combinations(range(4), 3))
    rows = [[1 if i in s else 0 for s in subsets] for i in range(4)]
    m = FMatrix(2, rows)
    assert rank(m) == gf2_rank_bruteforce(rows) == 4


def test_modulus_must_be_prime():
    with pytest.raises(PreconditionError):
        FMatrix(4, [[1]])
    for make in (np.zeros, np.ones):
        with pytest.raises(PreconditionError):
            FMatrix(4, make((2, 2), dtype=np.int64))
    # a file's modulus is checked too, and a bad one fails verification
    with pytest.raises(VerificationError):
        FMatrix.from_json({"p": 4, "rows": 1, "cols": 1, "entries": [1]})


def test_derived_matrices_own_their_arrays():
    rng = random.Random(3)
    m = random_fmatrix(rng, 5, 4, 6)
    derived = [m.transpose(), FMatrix.from_json(m.to_json())]
    for d in derived:
        assert not np.shares_memory(d.a, m.a)
    assert derived[0].a.tolist() == m.a.T.tolist()
    assert derived[1] == m
    with pytest.raises(DimensionMismatch):
        FMatrix(5, m.a[1:1, 0:4])


def test_a_decoded_matrix_takes_its_array_without_a_copy():
    # load_json's decoded array has no other owner; a to_json dict's is a view
    m = random_fmatrix(random.Random(4), 5, 3, 4)
    doc = load_json(canonical_json(m.to_json()))
    back = FMatrix.from_json(doc)
    assert back == m and np.shares_memory(back.a, doc["entries"])


def test_matmul_examples():
    rng = random.Random(0)
    m = random_fmatrix(rng, 5, 3, 4)
    assert matmul(identity(5, 3), m) == m
    a = FMatrix(2, [[1], [1]])
    b = FMatrix(2, [[0], [1]])
    assert matmul(a.transpose(), b) == identity(2, 1)
    with pytest.raises(DimensionMismatch):
        matmul(identity(2, 3), identity(2, 4))
    with pytest.raises(DimensionMismatch):
        matmul(identity(2, 3), identity(3, 3))


def test_int64_overflow_is_refused():
    p = 3037000493  # prime, (p-1)^2 + p < 2^63 <= 2 (p-1)^2
    a = FMatrix(p, [[p - 1, p - 1]])
    assert matmul(FMatrix(p, a.a[:, :1]), FMatrix(p, a.a[:, :1])) == FMatrix(p, [[1]])
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


def kron(a: FMatrix, b: FMatrix) -> FMatrix:
    """The Kronecker product over GF(p), by numpy's ``kron`` in int64."""
    return FMatrix(a.p, np.kron(a.a.astype(np.int64), b.a.astype(np.int64)))


def test_kronecker_examples():
    assert kron(identity(2, 2), identity(2, 3)) == identity(2, 6)
    rng = random.Random(1)
    m = random_fmatrix(rng, 5, 3, 3)
    assert rank(kron(identity(5, 2), m)) == 2 * rank(m)


def test_kronecker_rank_multiplicativity_random():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(200):
            a = random_fmatrix(rng, p, rng.randint(1, 4), rng.randint(1, 4))
            b = random_fmatrix(rng, p, rng.randint(1, 4), rng.randint(1, 4))
            assert rank(kron(a, b)) == rank(a) * rank(b)


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
        assert rank(FMatrix(p, a.a[np.ix_(rows, cols)])) == rank(a)


def test_the_pivots_induce_a_full_rank_submatrix():
    assert gfmat._pivots(identity(2, 3).a, 2) == [0, 1, 2]
    assert gfmat._pivots(FMatrix(5, [[0, 0, 0], [1, 2, 3], [2, 4, 2]]).a, 5) == [0, 2]  # column 1 is twice column 0
    rng = random.Random(4)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        m = random_fmatrix(rng, p, rng.randint(2, 6), rng.randint(2, 6))
        cols = gfmat._pivots(m.a, p)
        if not cols:
            continue
        # the pivot columns are independent, and there are rank(m) of them
        assert rank(FMatrix(p, m.a[:, cols])) == len(cols) == rank(m)


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


@settings(max_examples=300, deadline=None)
@given(gf2_arrays())
def test_packed_gf2_kernel_matches_the_int64_kernel(a):
    m = FMatrix(2, a)
    pivots = gfmat._eliminate(a, 2)
    assert gfmat._eliminate_gf2(a) == pivots
    assert rank(m) == len(pivots)
    assert np.array_equal(m.a, a)  # input unchanged


# The storage rule: every matrix over GF(p) holds its entries in the
# narrowest unsigned dtype that holds p - 1, whatever built it.
STORAGE_PRIMES = (2, 3, 251, 257, 65537, 2**31 - 1)


@pytest.mark.parametrize("p", STORAGE_PRIMES)
def test_every_matrix_is_stored_in_the_narrowest_dtype(p):
    want = np.min_scalar_type(p - 1)
    assert want.kind == "u" and np.iinfo(want).max >= p  # so % p stays in the dtype
    rng = random.Random(p)
    m = random_fmatrix(rng, p, 2, 3)
    unit = FMatrix(p, [[1, p - 1], [0, 1]])
    doc = load_json(canonical_json(m.to_json()))
    results = {
        "init": m, "init (negative, wide)": FMatrix(p, [[-1, 2**40]]),
        "zeros": FMatrix(p, np.zeros((2, 2), dtype=np.int64)), "identity": identity(p, 3),
        "ones": FMatrix(p, np.ones((1, 2), dtype=np.int64)), "transpose": m.transpose(),
        "matmul": matmul(unit, m),
        "from_json": FMatrix.from_json(doc), "from_json (list)": FMatrix.from_json(m.to_json() | {
            "entries": m.a.ravel().tolist()}),
    }
    for name, got in results.items():
        assert got.a.dtype == want, name
        assert 0 <= int(got.a.min()) and int(got.a.max()) < p, name
    assert results["init (negative, wide)"].a.tolist() == [[p - 1, 2**40 % p]]


def _python_matmul(a: list, b: list, p: int) -> list:
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


@pytest.mark.parametrize("p", (17, 257, 65537))
def test_products_of_narrow_entries_match_python_ints(p):
    # products of two entries overflow the storage dtype at every one of these p
    rng = random.Random(p)
    for rows, inner, cols in ((1, 1, 1), (3, 4, 2), (5, 7, 6)):
        a, b = random_fmatrix(rng, p, rows, inner), random_fmatrix(rng, p, inner, cols)
        a.a[0, 0] = b.a[0, 0] = p - 1
        assert matmul(a, b).a.tolist() == _python_matmul(a.a.tolist(), b.a.tolist(), p)


# The exactness rule: a product with inner dimension k runs in float32
# when k (p-1)^2 < 2^24 and in int64 below 2^63.  4093 is the largest
# prime with (p-1)^2 below 2^24, so it takes float32 at k = 1 and int64 at
# k = 2; 4099, the next prime, takes int64 at k = 1.
MATMUL_PRIMES = (2, 3, 257, 4093, 4099, 65537, 2**31 - 1)


def _matmul_path(p: int, inner: int) -> str:
    bound = inner * (p - 1) ** 2
    return next((name for limit, name in ((2**24, "float32"), (2**63, "int64")) if bound < limit),
                "refused")


@st.composite
def products(draw):
    p = draw(st.sampled_from(MATMUL_PRIMES))
    rows, inner, cols = draw(st.integers(1, 9)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(p - 1), st.integers(0, p - 1))  # p - 1 makes the largest partial sums
    a = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
    block_entries = draw(st.integers(1, 4 * cols))  # blocks of max(1, block_entries // cols) rows
    return p, a, b, block_entries


@settings(max_examples=300, deadline=None)
@given(products())
def test_matmul_matches_python_ints(case):
    p, a, b, block_entries = case
    left, right = FMatrix(p, a), FMatrix(p, b)
    with mock.patch.object(gfmat, "_MATMUL_BLOCK_ENTRIES", block_entries):
        if _matmul_path(p, len(b)) == "refused":
            with pytest.raises(GuardExceeded):
                matmul(left, right)
            return
        got = matmul(left, right)
    assert got.a.dtype == np.min_scalar_type(p - 1)
    assert got.a.tolist() == _python_matmul(a, b, p)


def test_matmul_strategy_reaches_every_dtype_and_ragged_blocks():
    def path(case):
        return _matmul_path(case[0], len(case[2]))

    def step(case):
        return max(1, case[3] // len(case[2][0]))

    for p, inner, want in ((4093, 1, "float32"), (4093, 2, "int64"), (4099, 1, "int64")):
        find(products(), lambda case: case[0] == p and len(case[2]) == inner and path(case) == want)
    find(products(), lambda case: path(case) == "refused")
    find(products(), lambda case: step(case) > 1 and len(case[1]) % step(case) != 0)
    find(products(), lambda case: len(case[1]) > step(case))


# The elimination work dtype: float32 while (p-1)^2 + p < 2^24, which 4093
# is the largest prime to meet, and int64 from 4099, the next prime, on
# (2^31 - 1 makes products no float32 can hold).
ELIMINATION_PRIMES = (3, 5, 4093, 4099, 2**31 - 1)
GFP_KINDS = ("random", "low-rank", "zero columns", "repeated rows", "zero")


@st.composite
def gfp_arrays(draw):
    p = draw(st.sampled_from(ELIMINATION_PRIMES))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(GFP_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # p - 1 is drawn often: it makes the largest products and differences
    a = np.where(rng.random((rows, cols)) < 0.3, p - 1, rng.integers(0, p, (rows, cols)))
    if kind == "low-rank":
        k = draw(st.integers(1, 6))
        a = rng.integers(0, p, (rows, k)) @ rng.integers(0, p, (k, cols)) % p
    elif kind == "zero columns":
        a[:, rng.random(cols) < 0.5] = 0
    elif kind == "repeated rows":
        a = a[rng.integers(0, min(rows, 3), rows)] * rng.integers(1, p, (rows, 1)) % p
    elif kind == "zero":
        a[:] = 0
    return p, FMatrix(p, a).a


@settings(max_examples=300, deadline=None)
@given(gfp_arrays())
def test_elimination_picks_the_int64_kernels_pivots(case):
    p, a = case
    before = a.copy()
    assert gfmat._eliminate(a, p) == int64_eliminate(a, p)
    assert np.array_equal(a, before)  # input unchanged


def test_elimination_strategy_reaches_each_prime_deficient_and_zero_columns():
    for p in ELIMINATION_PRIMES:
        find(gfp_arrays(), lambda case: case[0] == p and len(int64_eliminate(case[1], p)) < min(case[1].shape))
        find(gfp_arrays(), lambda case: case[0] == p and case[1].shape[1] > 1 and 0 < int(
            (~case[1].any(axis=0)).sum()) < case[1].shape[1])


@pytest.mark.parametrize("p, dtype", [(3, np.float32), (5, np.float32), (4093, np.float32),
                                      (4099, np.int64), (2**31 - 1, np.int64)])
def test_elimination_works_in_float32_up_to_4093(p, dtype):
    a = FMatrix(p, [[1, 2], [0, 1], [p - 1, 1]]).a
    with mock.patch.object(gfmat, "_reduce", wraps=gfmat._reduce) as reduce:
        assert gfmat._eliminate(a, p) == [0, 1]
    assert {call.args[0].dtype for call in reduce.call_args_list} == {np.dtype(dtype)}


@pytest.mark.parametrize("p", (2, 3, 4093))
def test_float32_reduction_matches_integer_remainder_below_2_24(p):
    # every integer |x| < 2^24, in blocks of 2^22 so no array passes 32 MB
    limit, block = 2**24, 2**22
    for start in range(-limit + 1, limit, block):
        x = np.arange(start, min(start + block, limit), dtype=np.int64)
        got = gfmat._reduce(x.astype(np.float32), p)
        assert got.dtype == np.float32
        assert np.array_equal(got, x % p), start
