"""JSON helpers: rational codec, canonical (byte-stable) serialization and
the matrix codec.

A matrix travels as its row-major ``entries``, a JSON list of integers in
[0, p).  In memory that list is a 1-D int64 array: ``canonical_json``
writes it as ``[``, the ``int_text`` digits less their last comma, and
``]``, three pieces of the one document it joins.  ``int_text`` (which
also writes the edge text of graph files and graph hashes) computes the
digits in the narrowest unsigned dtype that holds the largest value, not
in int64.  ``load_json`` lifts each ``"entries":[...]`` digit run out of
the text and decodes it with numpy before ``json.loads`` sees the rest,
in one strided pass when every entry is a single digit.  The reader
accepts only what the writer produces: digits and commas, no empty field,
no leading zero.  ``read_entries`` then checks the count (rows * cols) and
the range [0, p).  A malformed list raises ``VerificationError``, a wrong
count ``DimensionMismatch``.  A certificate's scalars go through ``read_int``
(and lists of them through ``read_ints``), which take JSON integers only,
and its rationals through ``parse_frac``, which takes strings only: a
string, bool or float where an integer belongs, or a malformed rational,
is a ``VerificationError`` rather than a value ``int()`` or ``Fraction()``
would coerce.  The float arrays of the theta representations go through
``read_reals``, which takes rectangular lists of finite JSON numbers only.
"""

from __future__ import annotations

import json
from fractions import Fraction

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


def int_text(values: np.ndarray, seps: bytes) -> bytes:
    """ASCII decimal digits of non-negative integers, the i-th followed by
    ``seps[i % len(seps)]``.

    The values of a chunk are written right-aligned into a fixed-width
    digit matrix with one separator column; masking out the leading zeros
    and flattening row by row gives the text.  The digit passes run in the
    narrowest unsigned dtype that holds the largest value
    (``np.min_scalar_type``: uint8 for every entry over GF(p), p < 256,
    uint16 for vertex ids below 65536), and a one-digit text is a single
    pass that fills the digit column.
    """
    v = np.asarray(values).ravel()
    if v.size == 0:
        return b""
    if v.dtype.kind not in "iu" or v.min() < 0:
        raise ValueError("int_text writes non-negative integers only")
    top = int(v.max())
    v = v.astype(np.min_scalar_type(top), copy=False)
    width = len(str(top))
    sep = np.frombuffer(seps, dtype=np.uint8)
    step = _CHUNK - _CHUNK % sep.size
    sep_column = np.tile(sep, step // sep.size)
    pieces = []
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
            chars = chars[keep]
        pieces.append(chars.tobytes())
    return b"".join(pieces)


def decode_entries(data: bytes, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Strict reader for ``data[start:stop]``, the text between the brackets
    of a canonical JSON int list; returns the values as a 1-D int64 array.

    When every field is one digit (as every entry over GF(p), p < 10, is),
    the text is read in one pass: if the k fields, with their k - 1
    commas, take 2k - 1 bytes and the k bytes at even offsets are all
    digits, then the k - 1 commas fill the k - 1 odd offsets, so each field
    is exactly the digit before its comma and the values are the even
    bytes minus ``ord("0")``.  Any other text, malformed text included,
    goes chunk by chunk (each ends at a comma): the fields are located
    from the comma positions and read right-aligned, one digit column at a
    time.
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
            return digits.astype(np.int64)
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

    ``value`` is the int64 array that ``load_json`` or a ``to_json`` put
    there, or a list (from plain ``json.loads`` or built by hand), which is
    written out compactly and read back by ``decode_entries``.
    """
    if isinstance(value, list):
        try:
            text = json.dumps(value, separators=(",", ":")).encode("ascii")
        except TypeError as exc:
            raise VerificationError(f"entries are not JSON integers: {exc}") from exc
        value = decode_entries(text, 1, len(text) - 1)
    if not (isinstance(value, np.ndarray) and value.dtype == np.int64 and value.ndim == 1):
        raise VerificationError("entries must be a list of integers")
    if value.size != count:
        raise DimensionMismatch(f"{value.size} entries for a matrix of {count}")
    if value.size and (value.min() < 0 or value.max() >= p):
        bad = value[(value < 0) | (value >= p)][0]
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

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_CONTAINERS = (dict, list, tuple, np.ndarray)


def _write(obj, out: list[str]) -> None:
    if isinstance(obj, np.ndarray):
        # the digits of each value and its comma, less the last comma
        out += ["[", str(memoryview(int_text(obj, b","))[:-1], "ascii"), "]"]
    elif isinstance(obj, dict) and any(isinstance(v, _CONTAINERS) for v in obj.values()):
        out.append("{")
        for i, (key, value) in enumerate(sorted(obj.items())):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(("," if i else "") + _encode(key) + ":")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) and any(isinstance(v, _CONTAINERS) for v in obj):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _write(value, out)
        out.append("]")
    else:
        out.append(_encode(obj))


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, each int array
    written as the flat int list of its row-major values.  Byte-identical to
    ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` with every
    array ``a`` replaced by ``a.ravel().tolist()``."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


_ENTRIES = b'"entries":['


def load_json(data: bytes | str):
    """``json.loads`` for certificate text, with every ``"entries"`` list
    decoded by ``decode_entries`` into an int64 array.

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
