"""JSON helpers: rational codec, canonical (byte-stable) serialization and
the matrix codec.

A matrix travels as its row-major ``entries``, a JSON list of integers in
[0, p).  In memory that list is a 1-D integer array, stored by ``gfmat``
in the narrowest unsigned dtype that holds p - 1.  ``json_pieces`` writes
a document as a sequence of ASCII byte pieces: one
``json.JSONEncoder`` pass encodes everything but the arrays, each of which
it leaves as a placeholder string, and the text is split at the
placeholders; between the pieces go ``[``, the digits of each array chunk
by chunk (``int_chunks``) less the last comma, and ``]``.  The pieces
serve both sinks: ``canonical_json`` joins them into one ``str``, and a
certificate file is written from them with ``writelines``, so its text
never exists as one object.  ``int_chunks`` (whose joined form
``int_text`` also writes the edge text of graph files and graph hashes)
computes the digits in the narrowest unsigned dtype that holds the
largest value, not in int64.  ``load_json`` lifts each
``"entries":[...]`` digit run out of the text and decodes it with numpy
before ``json.loads`` sees the rest; when every entry is a single digit it
is one strided pass, and the entries come back as those uint8 digits,
otherwise as int64.  The reader accepts only what the writer produces:
digits and commas, no empty field, no leading zero.  ``read_entries``
then checks the count (rows * cols) and the range [0, p) of an array of
any integer dtype.  A malformed list raises ``VerificationError``, a
wrong count ``DimensionMismatch``.  A certificate's scalars go through
``read_int`` (and lists of them through ``read_ints``), which take JSON
integers only, and its rationals through ``parse_frac``, which takes
strings only: a string, bool or float where an integer belongs, or a
malformed rational, is a ``VerificationError`` rather than a value
``int()`` or ``Fraction()`` would coerce.  The float arrays of the theta
representations go through ``read_reals``, which takes rectangular lists
of finite JSON numbers only.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import DimensionMismatch, VerificationError


def frac_str(x: Fraction | int) -> str:
    """Encode a rational as a ``num/den`` string (``/1`` omitted)."""
    f = Fraction(x)
    return str(f)


def parse_frac(s: str) -> Fraction:
    """The rational a ``frac_str`` string spells, for reading files."""
    if not isinstance(s, str):
        raise VerificationError(f"not a rational: {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise VerificationError(f"not a rational: {s!r}") from exc


# ---------------------------------------------------------------------------
# Integer text, both ways

# Values written or read at a time: temporaries stay small enough to be
# reused from one chunk to the next, however large the matrix.
_CHUNK = 1 << 16
# A decimal field of at most 18 digits fits int64; every modulus FMatrix
# accepts is below 2^32, so no entry needs more.
_MAX_DIGITS = 18
_COMMA, _ZERO = ord(","), ord("0")


def int_chunks(values: np.ndarray, seps: bytes) -> Iterator[np.ndarray]:
    """ASCII decimal digits of non-negative integers, the i-th followed by
    ``seps[i % len(seps)]``, as consecutive uint8 arrays of at most
    ``_CHUNK`` values each, made one at a time.

    The values of a chunk are written right-aligned into a fixed-width
    digit matrix with one separator column; masking out the leading zeros
    and flattening row by row gives the text.  The digit passes run in the
    narrowest unsigned dtype that holds the largest value
    (``np.min_scalar_type``: uint8 for every entry over GF(p), p < 257,
    uint16 for vertex ids below 65536), and a one-digit text is a single
    pass that fills the digit column.
    """
    v = np.asarray(values).ravel()
    if v.size == 0:
        return
    if v.dtype.kind not in "iu" or v.min() < 0:
        raise ValueError("int_text writes non-negative integers only")
    top = int(v.max())
    v = v.astype(np.min_scalar_type(top), copy=False)
    width = len(str(top))
    sep = np.frombuffer(seps, dtype=np.uint8)
    step = _CHUNK - _CHUNK % sep.size
    sep_column = np.tile(sep, step // sep.size)
    for lo in range(0, v.size, step):
        chunk = v[lo:lo + step]
        chars = np.empty((chunk.size, width + 1), dtype=np.uint8)
        chars[:, width] = sep_column[:chunk.size]
        rest = chunk
        for j in range(width - 1, 0, -1):
            rest, digit = np.divmod(rest, 10)
            np.add(digit, _ZERO, out=chars[:, j], casting="unsafe")
        np.add(rest, _ZERO, out=chars[:, 0], casting="unsafe")
        if width > 1:
            # column j holds a digit of the values with width - j digits or more
            keep = np.ones(chars.shape, dtype=bool)
            for j in range(width - 1):
                np.greater_equal(chunk, 10 ** (width - 1 - j), out=keep[:, j])
            yield chars[keep]
        else:
            yield chars.ravel()


def int_text(values: np.ndarray, seps: bytes) -> bytes:
    """The text of ``int_chunks`` as one bytes object."""
    return b"".join(int_chunks(values, seps))


def decode_entries(data: bytes, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Strict reader for ``data[start:stop]``, the text between the brackets
    of a canonical JSON int list; returns the values as a 1-D array.

    When every field is one digit (as every entry over GF(p), p < 10, is),
    the text is read in one pass: if the k fields, with their k - 1
    commas, take 2k - 1 bytes and the k bytes at even offsets are all
    digits, then the k - 1 commas fill the k - 1 odd offsets, so each field
    is exactly the digit before its comma and the values are the even
    bytes minus ``ord("0")``, returned as that uint8 array.  Any other
    text, malformed text included, goes chunk by chunk (each ends at a
    comma): the fields are located from the comma positions and read
    right-aligned, one digit column at a time, into an int64 array.
    """
    stop = len(data) if stop is None else stop
    if stop <= start:
        raise VerificationError("entries list is empty")
    if data[stop - 1] == _COMMA:  # a chunk may end at this comma, leaving no field after it
        raise VerificationError("entries have an empty field")
    b = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
    commas = data.count(b",", start, stop)
    if b.size == 2 * commas + 1:
        digits = b[0::2] - np.uint8(_ZERO)
        if digits.max() <= 9:
            return digits
    out = np.empty(commas + 1, dtype=np.int64)
    done = 0
    lo = start
    while lo < stop:
        hi = data.find(b",", min(lo + 2 * _CHUNK, stop), stop)
        hi = stop if hi == -1 else hi
        raw = b[lo - start:hi - start]
        digits = raw - np.uint8(_ZERO)  # bytes other than digits wrap above 9
        cuts = np.flatnonzero(digits > 9)
        if np.any(raw[cuts] != _COMMA):
            raise VerificationError("entries hold something other than digits and commas")
        ends = np.append(cuts, raw.size)
        starts = np.concatenate(([0], cuts + 1))
        widths = ends - starts
        if widths.min() == 0:
            raise VerificationError("entries have an empty field")
        width = int(widths.max())
        if width > _MAX_DIGITS:
            raise VerificationError(f"an entry has more than {_MAX_DIGITS} digits")
        if width > 1 and np.any((digits[starts] == 0) & (widths > 1)):
            raise VerificationError("an entry has a leading zero")
        values = out[done:done + ends.size]
        values[:] = digits[ends - 1]
        for j in range(1, width):
            values += np.where(widths > j, digits[ends - 1 - j], 0).astype(np.int64) * 10**j
        done += ends.size
        lo = hi + 1
    return out


def read_entries(value, count: int, p: int) -> np.ndarray:
    """The row-major entries of a count-entry matrix over GF(p), checked.

    ``value`` is the integer array (of any integer dtype) that
    ``load_json`` or a ``to_json`` put there, or a list (from plain
    ``json.loads`` or built by hand), which is written out compactly and
    read back by ``decode_entries``.
    """
    if isinstance(value, list):
        try:
            text = json.dumps(value, separators=(",", ":")).encode("ascii")
        except TypeError as exc:
            raise VerificationError(f"entries are not JSON integers: {exc}") from exc
        value = decode_entries(text, 1, len(text) - 1)
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iu" and value.ndim == 1):
        raise VerificationError("entries must be a list of integers")
    if value.size != count:
        raise DimensionMismatch(f"{value.size} entries for a matrix of {count}")
    if value.size and (int(value.min()) < 0 or int(value.max()) >= p):
        bad = value[(value < 0) | (value >= p)][0]  # p fits the dtype here: it is at most the max
        raise VerificationError(f"entry {bad} is outside [0, {p})")
    return value


def read_int(value, name: str) -> int:
    """A certificate's integer field ``name``: a JSON integer, not a string,
    bool or float."""
    if type(value) is not int:
        raise VerificationError(f"{name} must be an integer, got {value!r}")
    return value


def read_list(value, name: str) -> list:
    """A certificate's list field ``name``."""
    if not isinstance(value, list):
        raise VerificationError(f"{name} must be a list, got {value!r}")
    return value


def read_objects(value, name: str) -> list[dict]:
    """A certificate's list of JSON objects ``name``."""
    items = read_list(value, name)
    for item in items:
        if not isinstance(item, dict):
            raise VerificationError(f"each entry of {name} must be a JSON object, got {item!r}")
    return items


def read_ints(value, name: str) -> tuple[int, ...]:
    """A certificate's list of integers ``name`` (``read_int`` each)."""
    if not isinstance(value, list):
        raise VerificationError(f"{name} must be a list of integers, got {value!r}")
    return tuple(read_int(v, name) for v in value)


def read_reals(value, name: str, ndim: int) -> np.ndarray:
    """A certificate's field ``name``: finite JSON numbers (ints or floats,
    not bools or strings) in a rectangular list nested ``ndim`` deep with no
    empty level, as a float array; anything else is a VerificationError."""
    items = [value]
    for _ in range(ndim):
        items = [x for item in items for x in read_list(item, name)]
    bad = next((x for x in items if type(x) not in (int, float)), None)
    if bad is not None:
        raise VerificationError(f"{name} must hold numbers nested {ndim} deep, got {bad!r}")
    try:
        arr = np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise VerificationError(f"{name} is not a rectangular array of floats: {exc}") from exc
    if arr.ndim != ndim or arr.size == 0 or not np.isfinite(arr).all():
        raise VerificationError(f"{name} must be a nonempty array of finite numbers, {ndim} deep")
    return arr


# ---------------------------------------------------------------------------
# Documents

# What the encoder writes in place of an array: a JSON string whose text
# ``_SLOT`` marks where the array's digits go.
_PLACEHOLDER = "\0array\0"
_SLOT = json.dumps(_PLACEHOLDER)


def json_pieces(obj) -> Iterator[bytes | np.ndarray]:
    """The text of ``canonical_json(obj)`` as ASCII byte pieces (bytes or
    uint8 arrays), made one at a time.

    One ``json.JSONEncoder`` pass writes the document with each array as
    ``_PLACEHOLDER``; the text is split at the placeholders and each array
    goes between its two parts as ``[``, its digits and ``]``.  A string
    that spells the placeholder would misplace an array, so a split into
    any other number of parts than one more than the arrays raises
    ``ValueError``; a document without arrays is its encoder text as is.
    """
    arrays: list[np.ndarray] = []

    def placeholder(o):
        if not isinstance(o, np.ndarray):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        arrays.append(o)
        return _PLACEHOLDER

    text = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=placeholder).encode(obj)
    if not arrays:
        yield text.encode("ascii")
        return
    parts = text.split(_SLOT)
    if len(parts) != len(arrays) + 1:
        raise ValueError(f"a string in the document spells the array placeholder {_PLACEHOLDER!r}")
    yield parts[0].encode("ascii")
    for array, part in zip(arrays, parts[1:]):
        yield b"["
        # the digits of each value and its comma, less the last comma
        last = None
        for chunk in int_chunks(array, b","):
            if last is not None:
                yield last
            last = chunk
        if last is not None:
            yield last[:-1]
        yield b"]"
        yield part.encode("ascii")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, each int array
    written as the flat int list of its row-major values.  Byte-identical to
    ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` with every
    array ``a`` replaced by ``a.ravel().tolist()``; the pieces of
    ``json_pieces``, joined."""
    return b"".join(json_pieces(obj)).decode("ascii")


_ENTRIES = b'"entries":['


def load_json(data: bytes | str):
    """``json.loads`` for certificate text, with every ``"entries"`` list
    decoded by ``decode_entries`` into an integer array.

    Each ``"entries":[`` whose quote is not escaped (an even run of
    backslashes before it) is a key, so the digits up to the next ``]`` are
    lifted out and replaced by their index; the object hook puts the arrays
    back.  An ``"entries"`` value that was not lifted, any JSON error and any
    malformed list raise ``VerificationError``; what is accepted is exactly
    what ``json.loads`` returns, with arrays in place of the lists.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    arrays: list[np.ndarray] = []
    parts: list[bytes] = []
    pos = 0
    at = data.find(_ENTRIES)
    while at != -1:
        back = at
        while back > 0 and data[back - 1] == 0x5C:  # backslash
            back -= 1
        if (at - back) % 2:
            at = data.find(_ENTRIES, at + 1)
            continue
        lo = at + len(_ENTRIES)
        hi = data.find(b"]", lo)
        if hi == -1:
            raise VerificationError("an entries list is not closed")
        arrays.append(decode_entries(data, lo, hi))
        parts += [data[pos:lo - 1], b"%d" % (len(arrays) - 1)]
        pos = hi + 1
        at = data.find(_ENTRIES, pos)
    parts.append(data[pos:])
    placed = [False] * len(arrays)

    def place(pairs: list) -> dict:
        # every "entries" pair must hold the index of its own lifted list:
        # one that does not, or a second claim on an index, was not lifted
        for i, (key, value) in enumerate(pairs):
            if key == "entries":
                if type(value) is not int or not 0 <= value < len(arrays) or placed[value]:
                    raise VerificationError("entries must be a canonical list of integers")
                placed[value] = True
                pairs[i] = (key, arrays[value])
        return dict(pairs)

    try:
        obj = json.loads(b"".join(parts), object_pairs_hook=place)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        if isinstance(exc, VerificationError):
            raise
        raise VerificationError(f"not a JSON document: {exc}") from exc
    if not all(placed):
        raise VerificationError("entries must be a canonical list of integers")
    return obj
