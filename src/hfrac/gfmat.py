"""Dense exact linear algebra over prime fields GF(p).

A matrix over GF(p) stores its entries, reduced to [0, p), in the
narrowest unsigned dtype that holds p - 1 (``storage_dtype``: uint8 for
every p < 257, uint16 below 65537, uint32 for the rest), and every
constructor and operation returns that dtype.  Arithmetic that can leave
[0, p) runs wider and stores the reduced result narrow again.

The wide work dtype is float32 whenever that is exact and int64
otherwise (``PRODUCT_DTYPES``): float32 holds every integer below 2^24.
``matmul`` with inner dimension k has partial sums of at most
k (p-1)^2, so below 2^24 it runs in float32 BLAS and the result does not
depend on the order BLAS adds in; from 2^24 on it runs in int64, and it
refuses a product that could reach 2^63.  It converts the right operand
to the work dtype whole and forms the product one block of rows at a
time, so the wide product never exists at full size.  Elimination forms
x - y*z with x, y, z < p, so it runs in float32 when (p-1)^2 + p < 2^24,
that is for p <= 4093, and in int64 for larger primes.  Both reduce
their work arrays with ``_reduce``: a float32 one as x - p*floor(x/p) in
float32 (exact for the integers these operations form, below 2^24 in
magnitude with room for one more p), an int64 one with ``np.remainder``;
no float32 array goes through integer division.  p itself always fits
the storage dtype (p - 1 fits, and 2 is the only prime that is a power of
two), so ``% p`` on a stored array stays in its dtype.  All elimination
uses the deterministic first-nonzero pivot rule so that ranks and pivot
selections are byte-for-byte reproducible.  Only prime moduli are
supported; every construction downstream needs the field characteristic
only, which prime fields realize.

Forward elimination has two kernels, chosen by the modulus alone.  Over
GF(2) (``_eliminate_gf2``) each row is packed once into uint64 words, 64
columns a word; a pivot is found with an OR and a mask over one word
column, and the column below it is cleared by one XOR of the pivot row's
words from the pivot word on.  Every other prime runs ``_eliminate`` in
its work dtype, which normalises each pivot row and subtracts multiples
of it from the pivot column on.  Both pick the same (row, column) pivots
and return only those, whose count ``rank`` takes; the echelon form never
leaves the kernel, and nothing here reduces to RREF.

A matrix built from outside data (``FMatrix(p, entries)``) has its modulus
checked and its entries reduced.  The operations here build their results
from arrays already reduced modulo a checked prime, so they skip both
steps; each result still owns its array, never a view of another matrix's.

In JSON a matrix is ``{"p", "rows", "cols", "entries"}`` with row-major
entries.  ``to_json`` hands the stored array itself to the
``serialize`` writer, which writes its digits; ``from_json`` reads them
back through ``serialize.read_entries``, which accepts exactly rows * cols
integers in [0, p) and nothing else, and keeps the decoded array when it
already has the storage dtype.  A certificate's scalars must be JSON
integers (``serialize.read_int``), and a modulus that is not an
int64-safe prime fails verification like any other defect of the file.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, GuardExceeded, PreconditionError, VerificationError
from .graphs import is_prime
from .serialize import read_entries, read_int

KRON_ENTRY_CAP = 16_000_000
# Entries are stored narrow but computed on wider: elimination forms
# x - y*z with x, y, z < p, so FMatrix needs (p-1)^2 + p below this, and a
# product with inner dimension k needs k (p-1)^2 below it.
INT64_LIMIT = 2**63
# (limit, dtype): work whose integers stay below limit in magnitude runs
# in dtype.  float32 holds every integer below 2^24 exactly, so BLAS may
# add in any order (fused multiply-adds too) and stay exact.
PRODUCT_DTYPES = ((2**24, np.float32), (INT64_LIMIT, np.int64))
# Entries of a product computed at a time, in blocks of whole rows, so the
# wide product is never allocated at full size.
_MATMUL_BLOCK_ENTRIES = 1 << 14


def check_modulus(p: int) -> None:
    if _work_dtype((p - 1) ** 2 + p) is None:
        raise GuardExceeded(f"modulus {p} is too large for int64 elimination")
    if not is_prime(p):
        raise PreconditionError(f"modulus {p} is not prime")


def _work_dtype(bound: int):
    """The first dtype of ``PRODUCT_DTYPES`` that holds every integer below
    bound, or None."""
    return next((dtype for limit, dtype in PRODUCT_DTYPES if bound < limit), None)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place in x's dtype; returns x.

    A float32 array is reduced as x - p*floor(x/p) in float32, which is
    exact for every integer x with -2^24 + p <= x < 2^24: the quotient is
    rounded by less than 1/p, so its floor is exact, and p*floor(x/p) lies
    in (x - p, x], so it is an integer float32 holds.  (Nearer to -2^24
    that product can pass 2^24 and round.)  Every float32 array here is
    bounded by its ``PRODUCT_DTYPES`` limit, which includes that margin.
    Any other array is reduced with ``np.remainder``.
    """
    if x.dtype == np.float32:
        q = x / np.float32(p)
        np.floor(q, out=q)
        q *= np.float32(p)
        x -= q
    else:
        np.remainder(x, p, out=x)
    return x


def storage_dtype(p: int) -> np.dtype:
    """The dtype of every stored matrix over GF(p): the narrowest unsigned
    one that holds p - 1."""
    return np.min_scalar_type(p - 1)


def _nonempty(a: np.ndarray) -> np.ndarray:
    if a.size == 0:
        raise DimensionMismatch("matrix dimensions must be positive")
    return a


class FMatrix:
    """Immutable-by-convention dense matrix over GF(p)."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, entries):
        check_modulus(p)
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise DimensionMismatch(f"matrix must be 2-dimensional, got shape {a.shape}")
        self.p = p
        self.a = (_nonempty(a) % p).astype(storage_dtype(p))

    @classmethod
    def _reduced(cls, p: int, a: np.ndarray) -> "FMatrix":
        """A matrix over an already checked prime p from a 2-D array of
        ``storage_dtype(p)`` with entries in [0, p) that no other matrix
        holds."""
        m = object.__new__(cls)
        m.p = p
        m.a = _nonempty(a)
        return m

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def transpose(self) -> "FMatrix":
        return FMatrix._reduced(self.p, self.a.T.copy())

    def __getitem__(self, key) -> int:
        return int(self.a[key])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FMatrix)
            and self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.p, self.shape, self.a.tobytes()))

    def __repr__(self) -> str:
        return f"FMatrix(p={self.p}, shape={self.rows}x{self.cols})"

    def to_json(self) -> dict:
        """``entries`` is the row-major stored array (a view); the
        ``serialize`` writer writes it as a JSON int list."""
        return {"p": self.p, "rows": self.rows, "cols": self.cols, "entries": self.a.ravel()}

    @classmethod
    def from_json(cls, obj: dict) -> "FMatrix":
        """Strict: p, rows and cols must be JSON integers, and the entries
        exactly rows * cols integers in [0, p) (``from_entries``)."""
        p, rows, cols = read_int(obj["p"], "p"), read_int(obj["rows"], "rows"), read_int(obj["cols"], "cols")
        return cls.from_entries(p, rows, cols, obj["entries"])

    @classmethod
    def from_entries(cls, p: int, rows: int, cols: int, value) -> "FMatrix":
        """The rows x cols matrix over GF(p) whose row-major entries a
        certificate holds in ``value`` (``serialize.read_entries``).  The
        file is at fault for a modulus that is not an int64-safe prime, so
        that is a ``VerificationError``.  The entries are copied when they
        need another dtype or are a view of another array (as a ``to_json``
        dict's are); an array of the storage dtype that ``load_json``
        decoded has no other owner and is kept."""
        if rows < 1 or cols < 1:
            raise DimensionMismatch(f"matrix dimensions must be positive, got {rows}x{cols}")
        try:
            check_modulus(p)
        except (GuardExceeded, PreconditionError) as exc:
            raise VerificationError(f"certificate modulus: {exc}") from exc
        entries = read_entries(value, rows * cols, p)
        entries = entries.astype(storage_dtype(p), copy=entries.base is not None)
        return cls._reduced(p, entries.reshape(rows, cols))


def matmul(a: FMatrix, b: FMatrix) -> FMatrix:
    """The product over GF(p), computed exactly.

    With inner dimension k every partial sum is an integer in
    [0, k (p-1)^2], so the product runs in float32 BLAS below 2^24 and
    in int64 below 2^63 (``PRODUCT_DTYPES``); beyond that it is refused
    (``GuardExceeded``).  b is converted to that dtype whole; the rows of
    a go through in blocks, and each block's product is reduced mod p by
    ``_reduce`` in the work dtype (a float32 product never goes through
    integer division) and written into the narrow result.
    """
    if a.p != b.p:
        raise DimensionMismatch(f"modulus mismatch: {a.p} vs {b.p}")
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    p = a.p
    work = _work_dtype(a.cols * (p - 1) ** 2)
    if work is None:
        raise GuardExceeded(f"a product over GF({p}) with inner dimension {a.cols} overflows int64")
    right = b.a.astype(work)
    out = np.empty((a.rows, b.cols), dtype=storage_dtype(p))
    step = max(1, _MATMUL_BLOCK_ENTRIES // b.cols)
    for start in range(0, a.rows, step):
        out[start:start + step] = _reduce(a.a[start:start + step].astype(work) @ right, p)
    return FMatrix._reduced(p, out)


def _eliminate(a: np.ndarray, p: int) -> list[tuple[int, int]]:
    """Forward elimination on a copy of a, whose entries are in [0, p);
    returns its pivots.

    Pivots are (original_row, column) pairs in elimination order, chosen by
    the first-nonzero rule.  The copy has the work dtype of the bound
    (p-1)^2 + p (``PRODUCT_DTYPES``): float32 for p <= 4093, int64 above.
    Each pivot row is normalised and its multiples subtracted from the rows
    below, from the pivot column on (every remaining row is zero left of
    it), and both results go through ``_reduce``.  Runs for every prime;
    ``_pivots`` sends p = 2 to ``_eliminate_gf2`` instead, which picks the
    same pivots.
    """
    a = a.astype(_work_dtype((p - 1) ** 2 + p))
    rows, cols = a.shape
    origin = list(range(rows))
    r = 0
    pivots: list[tuple[int, int]] = []
    for c in range(cols):
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            origin[r], origin[i] = origin[i], origin[r]
        pivot = a[r, c:]
        inv = pow(int(pivot[0]), -1, p)
        if inv != 1:
            pivot *= inv
            _reduce(pivot, p)
        if nz.size > 1:
            # the swap moved row r, zero in column c, to row i, above the rest
            below = nz[1:] + r
            x = a[below, c:]
            x -= x[:, :1] * pivot
            a[below, c:] = _reduce(x, p)
        pivots.append((origin[r], c))
        r += 1
        if r == rows:
            break
    return pivots


def _pack_gf2(a: np.ndarray) -> np.ndarray:
    """Row-packed copy of a 0/1 matrix: word w of a row holds columns
    64w .. 64w + 63, column 64w + j in bit j; padding bits are 0."""
    rows, cols = a.shape
    bits = np.zeros((rows, -(-cols // 64) * 64), dtype=bool)
    np.not_equal(a, 0, out=bits[:, :cols])
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _eliminate_gf2(a: np.ndarray) -> list[tuple[int, int]]:
    """Forward elimination over GF(2) on packed rows; returns its pivots,
    equal to ``_eliminate(a, 2)``'s.

    The next pivot column is the lowest bit at or after the current column
    of the OR of the remaining rows' words, one word column at a time (so
    zero columns cost nothing), and its pivot row the first remaining row
    with that bit.  One XOR of the pivot row's words from the pivot word
    onward clears the column below; a pivot is always 1, so nothing is
    normalised.
    """
    words = _pack_gf2(a)
    rows, nwords = words.shape
    origin = list(range(rows))
    pivots: list[tuple[int, int]] = []
    r = w = b = 0  # next pivot row; current column 64w + b
    while r < rows and w < nwords:
        live = int(np.bitwise_or.reduce(words[r:, w])) >> b << b
        if not live:
            w, b = w + 1, 0
            continue
        bit = live & -live
        b = bit.bit_length() - 1
        hit = np.flatnonzero(words[r:, w] & np.uint64(bit))
        i = r + int(hit[0])
        if i != r:
            words[[r, i]] = words[[i, r]]
            origin[r], origin[i] = origin[i], origin[r]
        if hit.size > 1:
            words[r + hit[1:], w:] ^= words[r, w:]
        pivots.append((origin[r], 64 * w + b))
        r += 1
        w, b = (w + 1, 0) if b == 63 else (w, b + 1)
    return pivots


def _pivots(a: np.ndarray, p: int) -> list[tuple[int, int]]:
    return _eliminate_gf2(a) if p == 2 else _eliminate(a, p)


def rank(m: FMatrix) -> int:
    """Rank over GF(p) by Gaussian elimination; input unchanged."""
    return len(_pivots(m.a, m.p))

