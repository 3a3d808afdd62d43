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
never exists as one object.  ``int_chunks`` writes matrix entries only,
each followed by a comma (the edge text of graph files and graph hashes,
with its two separators, is ``graphs.edge_text``'s), and computes the
digits in the narrowest unsigned dtype that holds the largest value, not
in int64.  ``load_json`` reads a binary file in
blocks of at most ``_BLOCK`` bytes into one reused buffer, so the file is
never held whole.  It lifts each ``"entries":[...]`` digit run out of the text
and decodes it with numpy (``decode_entries``) as the blocks arrive, the
whole fields of each block straight into the list's array and the field
cut at a block's edge carried to the next; ``json.loads`` then reads the
rest.  A marker whose quote follows a backslash stays in the text: a JSON
key's quote follows ``{``, ``,`` or whitespace, so that marker is inside a
key or a string, or the text is no JSON.  A one-digit entry and the byte
after it are one little-endian uint16 word both ways: the writer makes
each chunk with one ``np.add`` of the values to the word of ``"0,"``, and
the reader checks and decodes a one-digit list word by word, with no comma
count, into uint8 entries; a list with a longer entry comes back as int64.
The reader accepts only what the writer produces: digits and commas, no
empty field, no leading zero.  ``read_entries`` then checks the count
(rows * cols) and the range [0, p) of an array of any integer dtype.  A
malformed list raises ``VerificationError``, a wrong count
``DimensionMismatch``.  A certificate's scalars go through
``read_int`` (and lists of them through ``read_ints``), which take JSON
integers only, and its rationals through ``parse_frac``, which takes
only the ASCII ``-?[0-9]+(/[0-9]+)?`` strings ``frac_str`` writes: a
string, bool or float where an integer belongs, or a malformed rational
(an exponent, a decimal point, whitespace or an underscore in it), is a
``VerificationError`` rather than a value ``int()`` or ``Fraction()``
would coerce.  Its message echoes the value through ``excerpt``, which
cuts a long repr and adds its length.  Every value a certificate holds
is an integer or a rational: no reader here takes a float.
"""

from __future__ import annotations

import io
import json
import os
import re
from fractions import Fraction
from typing import BinaryIO, Iterator

import numpy as np

from .errors import DimensionMismatch, VerificationError


# The most characters of a malformed value's repr an error message echoes:
# a value read from a file may be any size, and its message should not be.
_EXCERPT = 100


def excerpt(value) -> str:
    """``repr(value)``, cut to its first ``_EXCERPT`` characters with its
    full character count added when it is longer."""
    text = repr(value)
    if len(text) <= _EXCERPT:
        return text
    return f"{text[:_EXCERPT]}... ({len(text)} characters)"


def frac_str(x: Fraction | int) -> str:
    """Encode a rational as a ``num/den`` string (``/1`` omitted)."""
    f = Fraction(x)
    return str(f)


# What ``frac_str`` writes.  ``Fraction(str)`` also takes exponents,
# decimals, whitespace and underscores, and spends 5 s on "1e10000000".
_FRAC = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_frac(s: str) -> Fraction:
    """The rational a ``frac_str`` string spells, for reading files."""
    match = _FRAC.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise VerificationError(f"not a rational: {excerpt(s)}")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise VerificationError(f"not a rational: {excerpt(s)}") from exc


# ---------------------------------------------------------------------------
# Integer text, both ways

# Values written or read at a time: temporaries stay small enough to be
# reused from one chunk to the next, however large the matrix.
_CHUNK = 1 << 16
# A decimal field of at most 18 digits fits int64; every modulus FMatrix
# accepts is below 2^32, so no entry needs more.
_MAX_DIGITS = 18
_COMMA, _ZERO = ord(","), ord("0")
# The word of "0,": added to a digit's value it gives the word of the
# digit and its comma, and taken from that word it leaves the value.
_DIGIT_COMMA = np.uint16(_ZERO | _COMMA << 8)


def int_chunks(values: np.ndarray) -> Iterator[np.ndarray]:
    """ASCII decimal digits of non-negative integers, each followed by a
    comma, as consecutive uint8 arrays of at most ``_CHUNK`` values each,
    made one at a time.

    When every value has one digit (as every entry over GF(p), p < 10,
    has), a value and its comma are one little-endian uint16 word,
    ``ord("0") + value`` in the low byte and the comma in the high one, so
    a chunk is one ``np.add`` of the values to the word of ``"0,"``,
    viewed as bytes.  Otherwise the values of a chunk are written
    right-aligned into a fixed-width digit matrix with one comma column;
    masking out the leading zeros and flattening row by row gives the
    text.  The digit passes run in the narrowest unsigned dtype that holds
    the largest value (``np.min_scalar_type``: uint8 for every entry over
    GF(p), p < 257, and uint16 for p < 65537).
    """
    v = np.asarray(values).ravel()
    if v.size == 0:
        return
    if v.dtype.kind not in "iu" or v.min() < 0:
        raise ValueError("int_chunks writes non-negative integers only")
    top = int(v.max())
    v = v.astype(np.min_scalar_type(top), copy=False)
    width = len(str(top))
    if width == 1:
        for lo in range(0, v.size, _CHUNK):
            yield np.add(v[lo:lo + _CHUNK], _DIGIT_COMMA, dtype="<u2").view(np.uint8)
        return
    for lo in range(0, v.size, _CHUNK):
        chunk = v[lo:lo + _CHUNK]
        chars = np.empty((chunk.size, width + 1), dtype=np.uint8)
        chars[:, width] = _COMMA
        rest = chunk
        for j in range(width - 1, 0, -1):
            rest, digit = np.divmod(rest, 10)
            np.add(digit, _ZERO, out=chars[:, j], casting="unsafe")
        np.add(rest, _ZERO, out=chars[:, 0], casting="unsafe")
        # column j holds a digit of the values with width - j digits or more
        keep = np.ones(chars.shape, dtype=bool)
        for j in range(width - 1):
            np.greater_equal(chunk, 10 ** (width - 1 - j), out=keep[:, j])
        yield chars[keep]


def decode_entries(data: bytes | bytearray, start: int = 0, stop: int | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Strict reader for ``data[start:stop]``, the text between the brackets
    of a canonical JSON int list; returns the values as a 1-D array.

    When every field is one digit (as every entry over GF(p), p < 10, is),
    a text of 2k - 1 bytes is k - 1 little-endian uint16 words, each a
    digit and its comma, and a last digit.  ``ord("0") | ord(",") << 8``
    subtracted from a word (wrapping in uint16) leaves at most 9 exactly
    when the word is a digit followed by a comma, and then leaves the
    digit's value; so the words are read ``_CHUNK`` at a time, and if each
    of them and the last byte passes, the values go straight into a uint8
    array.  No comma count is needed.  Any other text, malformed text
    included, goes chunk by chunk (each ends at a comma): the fields are
    located from the comma positions and read right-aligned, one digit
    column at a time, into an int64 array.

    ``out``, when given, has at least one slot per field and receives the
    values, which are returned as its first slots; only when ``out`` is
    uint8 and a field has more than one digit do they come back in a new
    int64 array instead.
    """
    stop = len(data) if stop is None else stop
    if stop <= start:
        raise VerificationError("entries list is empty")
    if data[stop - 1] == _COMMA:  # a chunk may end at this comma, leaving no field after it
        raise VerificationError("entries have an empty field")
    if (stop - start) % 2:
        fields = (stop - start + 1) // 2
        if out is None:
            out = np.empty(fields, dtype=np.uint8)
        if _one_digit_fields(data, start, fields, out):
            # a whole array, not a view, is kept by FMatrix without a copy
            return out if out.size == fields else out[:fields]
    b = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
    fields = data.count(b",", start, stop) + 1
    if out is None or out.dtype != np.int64:
        out = np.empty(fields, dtype=np.int64)
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
    return out if out.size == fields else out[:fields]


def _one_digit_fields(data: bytes | bytearray, start: int, fields: int, out: np.ndarray) -> bool:
    """Whether ``data[start:start + 2 * fields - 1]`` is ``fields`` one-digit
    fields and their commas; if so, their values are in ``out[:fields]``
    (whose other slots may be written either way)."""
    last = data[start + 2 * fields - 2] - _ZERO
    if not 0 <= last <= 9:
        return False
    words = np.frombuffer(data, dtype="<u2", count=fields - 1, offset=start)
    work = np.empty(min(_CHUNK, words.size), dtype=np.uint16)
    for lo in range(0, words.size, _CHUNK):
        part = words[lo:lo + _CHUNK]
        digits = np.subtract(part, _DIGIT_COMMA, out=work[:part.size])
        if digits.max() > 9:
            return False
        out[lo:lo + digits.size] = digits
    out[fields - 1] = last
    return True


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
        raise VerificationError(f"{name} must be an integer, got {excerpt(value)}")
    return value


def read_list(value, name: str) -> list:
    """A certificate's list field ``name``."""
    if not isinstance(value, list):
        raise VerificationError(f"{name} must be a list, got {excerpt(value)}")
    return value


def read_objects(value, name: str) -> list[dict]:
    """A certificate's list of JSON objects ``name``."""
    items = read_list(value, name)
    for item in items:
        if not isinstance(item, dict):
            raise VerificationError(f"each entry of {name} must be a JSON object, got {excerpt(item)}")
    return items


def read_ints(value, name: str) -> tuple[int, ...]:
    """A certificate's list of integers ``name`` (``read_int`` each)."""
    if not isinstance(value, list):
        raise VerificationError(f"{name} must be a list of integers, got {excerpt(value)}")
    return tuple(read_int(v, name) for v in value)


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
        for chunk in int_chunks(array):
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
# Bytes ``load_json`` reads at a time: besides the decoded arrays and the
# document without them, the only text it holds.
_BLOCK = 1 << 20
# What a block may leave to the next at the front of the buffer: the start
# of a cut ``_ENTRIES``, or a field cut at the block's edge (a longer one is
# refused at once).
_KEEP = max(len(_ENTRIES) - 1, _MAX_DIGITS)


def _size_hint(source) -> int:
    """The size of the file behind ``source``, or 0 when it has none that
    ``fstat`` knows (a pipe, an in-memory stream).  Only a hint: it sizes
    the buffer and the arrays, and never decides where the text ends."""
    try:
        return os.fstat(source.fileno()).st_size
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return 0


def _extend(values: np.ndarray | None, filled: int, data: bytearray, start: int, stop: int,
            room: int) -> tuple[np.ndarray, int]:
    """Decode the whole fields of ``data[start:stop]``, a piece of an
    entries list cut at commas, into ``values[filled:]``; returns the array
    and its new fill.

    The piece has at most (stop - start + 1) // 2 fields, as many as when
    each has one digit, and that many slots are made ready without
    counting commas.  The array is made at the first piece with ``room``
    slots (or as many as the piece may need), grows in place geometrically
    when a piece may not fit, and is widened to int64 once, at the first
    field of more than one digit; it always owns its memory."""
    if stop == start:
        raise VerificationError("entries have an empty field")
    most = (stop - start + 1) // 2
    if values is None:
        values = np.empty(max(most, room), dtype=np.uint8)
    elif values.size < filled + most:
        values.resize(max(filled + most, 2 * values.size), refcheck=False)
    got = decode_entries(data, start, stop, values[filled:])
    if got.dtype != values.dtype:
        wide = np.empty(values.size, dtype=np.int64)
        wide[:filled] = values[:filled]
        wide[filled:filled + got.size] = got
        values = wide
    return values, filled + got.size


def load_json(source: BinaryIO | bytes | str):
    """``json.loads`` for certificate text, with every ``"entries"`` list
    decoded by ``decode_entries`` into an integer array.

    ``source`` is a binary file (bytes or str are read from an
    ``io.BytesIO``), read into one reused buffer at most ``_BLOCK`` bytes at
    a time.  The file's size, where ``fstat`` knows it, sizes the buffer (a
    file that fits is read at once) and the arrays.  Each
    ``"entries":[`` whose quote does not follow a backslash (at the front
    of the buffer, the text's last byte) is a key, as no key's quote
    follows one, so the digits up to the next ``]`` are lifted out and
    replaced by their index; the object hook puts the arrays back.  A
    list that ends in the block it starts in is decoded in one call; one
    that runs on is decoded piece by piece, each block's whole fields
    straight into its array, and the field cut at the block's edge is
    carried to the next.  Whatever the blocks, the arrays and what is
    accepted are the same (a text with several faults may be refused for
    another of them).  An ``"entries"`` value that was not lifted, any JSON
    error and any malformed list raise ``VerificationError``; what is
    accepted is exactly what ``json.loads`` returns, with arrays in place
    of the lists.
    """
    if isinstance(source, str):
        source = source.encode("utf-8")
    if isinstance(source, (bytes, bytearray)):
        hint, source = len(source), io.BytesIO(source)
    else:
        hint = _size_hint(source)
    arrays: list[np.ndarray] = []
    text = bytearray()  # the document with each lifted list replaced by its index
    size = min(_BLOCK, hint) or _BLOCK  # a file that fits is read at once
    buf = bytearray(_KEEP + size)
    view = memoryview(buf)
    kept = read = 0  # bytes left at the front of buf by the last block; bytes read in all
    inside = False  # whether the text at the front of buf is inside an entries list
    values, filled = None, 0  # the list that ran on from an earlier block, so far
    while n := source.readinto(view[kept:kept + size]):
        read += n
        end = kept + n
        lo = search = 0
        while True:
            if not inside:
                at = buf.find(_ENTRIES, search, end)
                if at == -1:
                    # a marker cut at the edge starts in the last len(_ENTRIES) - 1 bytes
                    cut = max(lo, end - len(_ENTRIES) + 1)
                    text += view[lo:cut]
                    lo = cut
                    break
                # the byte before the marker; at the front of buf, the text's last
                if (buf[at - 1:at] or text[-1:]) == b"\\":
                    search = at + 1  # inside a key or a string
                    continue
                text += view[lo:at + len(_ENTRIES) - 1]
                text += b"%d" % len(arrays)
                lo = at + len(_ENTRIES)
                inside = True
            hi = buf.find(b"]", lo, end)
            if hi == -1:
                comma = buf.rfind(b",", lo, end)
                if comma != -1:
                    # a field and its comma take two of the bytes left in the file
                    left = hint - read + end - lo
                    values, filled = _extend(values, filled, buf, lo, comma, (left + 1) // 2)
                    lo = comma + 1
                if end - lo > _MAX_DIGITS:  # a field too long to carry: raises for it
                    decode_entries(buf, lo, lo + _MAX_DIGITS + 1)
                break
            if values is None:
                arrays.append(decode_entries(buf, lo, hi))
            else:
                values, filled = _extend(values, filled, buf, lo, hi, 0)
                values.resize(filled, refcheck=False)
                arrays.append(values)
                values, filled = None, 0
            lo = search = hi + 1
            inside = False
        kept = end - lo
        if read > hint and size < _BLOCK:  # the hint was short: read whole blocks from now on
            size = _BLOCK
            grown = bytearray(_KEEP + size)
            grown[:kept] = buf[lo:end]
            buf, view = grown, memoryview(grown)
        else:
            view[:kept] = view[lo:end]
    if inside:
        raise VerificationError("an entries list is not closed")
    text += view[:kept]
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
        obj = json.loads(text, object_pairs_hook=place)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        if isinstance(exc, VerificationError):
            raise
        raise VerificationError(f"not a JSON document: {exc}") from exc
    if not all(placed):
        raise VerificationError("entries must be a canonical list of integers")
    return obj
