"""The matrix codec and canonical JSON: byte-identical writer, strict reader."""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import character_matrix_one_digit_text, strided_one_digit_entries

from hfrac import serialize
from hfrac.cli import main
from hfrac.errors import DimensionMismatch, VerificationError
from hfrac.gfmat import FMatrix
from hfrac.graphs import cycle, generate, is_prime
from hfrac.minrank import minrank_exact
from hfrac.reps import cycle_drep, hfrac_upper_search, tensor_dreps
from hfrac.serialize import canonical_json, decode_entries, int_chunks, load_json, read_entries

GUARD_PRIME = 3037000493  # the largest prime FMatrix accepts is near it


def _plain(obj):
    """``obj`` with every array replaced by its ``ravel().tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.ravel().tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _dumps(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def _next_prime(x: int) -> int:
    while not is_prime(x):
        x += 1
    return min(x, GUARD_PRIME)


@st.composite
def matrices(draw):
    p = draw(st.one_of(st.sampled_from((2, 3, 5, 7, 11, 101, 65537, GUARD_PRIME)),
                       st.integers(2, GUARD_PRIME).map(_next_prime)))
    rows, cols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    # the values where the digit count changes, and both ends of the range
    special = [v for k in range(19) for v in (10**k - 1, 10**k) if v < p] + [p - 1]
    mask = rng.random(a.shape) < draw(st.sampled_from((0.0, 0.3, 1.0)))
    a[mask] = rng.choice(special, size=int(mask.sum()))
    return p, a


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_codec_round_trip(case):
    p, a = case
    text = canonical_json(a)
    assert text == json.dumps(a.ravel().tolist(), separators=(",", ":"))
    data = text.encode()
    assert np.array_equal(decode_entries(data, 1, len(data) - 1), a.ravel())
    m = FMatrix(p, a) if (p - 1) ** 2 + p < 2**63 else None
    if m is not None:
        doc = canonical_json(m.to_json())
        assert doc == _dumps(m.to_json())
        assert FMatrix.from_json(load_json(doc)) == m
        assert FMatrix.from_json(json.loads(doc)) == m  # a plain list goes through the same reader


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_codec_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(serialize, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for p in (2, 11, 1009, GUARD_PRIME):
        a = rng.integers(0, p, size=(7, 9), dtype=np.int64)
        text = canonical_json(a)
        assert text == json.dumps(a.ravel().tolist(), separators=(",", ":"))
        data = text.encode()
        assert np.array_equal(decode_entries(data, 1, len(data) - 1), a.ravel())
    # the last three have 2k - 1 bytes for k fields, the length of k
    # one-digit fields, and must not pass for them
    for bad in (b"1,,2", b"1,02", b"0,1,x", b"12,3,", b"12,,3", b",12", b"1,x,2"):
        with pytest.raises(VerificationError):
            decode_entries(bad)


# Where the narrowest dtype that holds the largest value, or the width of
# the digit matrix, changes.
_EDGE_VALUES = (0, 1, 9, 10, 99, 100, 255, 256, 999, 1000, 65535, 65536, 2**32 - 1, 2**32, 2**32 + 1,
                10**18 - 1, 10**18, 2**63 - 1)


@st.composite
def int_chunks_cases(draw):
    top = draw(st.sampled_from(_EDGE_VALUES))
    # lengths about the chunk size
    size = draw(st.one_of(st.integers(1, 40), st.sampled_from(
        (serialize._CHUNK - 1, serialize._CHUNK, serialize._CHUNK + 1, 2 * serialize._CHUNK + 3))))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.choice([v for v in _EDGE_VALUES if v <= top], size=size)
    values[rng.integers(size)] = top
    dtype = draw(st.sampled_from([t for t in (np.uint8, np.uint16, np.int32, np.uint32, np.int64, np.uint64)
                                  if top <= np.iinfo(t).max]))
    return values.astype(dtype)


@settings(max_examples=150, deadline=None)
@given(int_chunks_cases())
def test_int_text_matches_the_decimal_strings(values):
    expected = b"".join(str(v).encode() + b"," for v in values.tolist())
    assert b"".join(int_chunks(values)) == expected


def _canonical_field(field: str) -> bool:
    return field.isdigit() and len(field) <= 18 and (field == "0" or field[0] != "0")


_ENTRY_TEXT = st.one_of(
    st.text("0123456789,x", max_size=40),
    st.lists(st.integers(0, 9), min_size=1, max_size=40).map(lambda xs: ",".join(map(str, xs))),
    st.lists(st.integers(0, 10**19), min_size=1, max_size=8).map(lambda xs: ",".join(map(str, xs))),
)


@settings(max_examples=400, deadline=None)
@given(text=_ENTRY_TEXT, chunk=st.sampled_from([1, 2, serialize._CHUNK]))
def test_decoder_agrees_with_the_reference_reader(text, chunk):
    fields = text.split(",")
    with mock.patch.object(serialize, "_CHUNK", chunk):
        if all(_canonical_field(f) for f in fields):
            got = decode_entries(text.encode())
            assert got.tolist() == [int(f) for f in fields]
            assert got.dtype == (np.uint8 if all(len(f) == 1 for f in fields) else np.int64)
        else:
            with pytest.raises(VerificationError):
                decode_entries(text.encode())


def test_canonical_json_matches_json_dumps_on_nested_reports():
    rep = cycle_drep(2, 2)
    reports = [
        hfrac_upper_search(cycle(7), 2).to_json(),
        hfrac_upper_search(generate("strong(cycle:5,cycle:5)"), 2).to_json(),
        {"witness_refs": [{**tensor_dreps(rep, rep).to_json(), "graph": "strong(cycle:5,cycle:5)"},
                          {"x": (1, [2.5, None])}]},
    ]
    res = minrank_exact(cycle(9), 3)
    cert = {**res.certificate.to_json(), "graph": "cycle:9"}
    reports.append({"cert": cert, "empty": {}, "list": [], "uni": "é\"\\"})
    for obj in reports:
        assert canonical_json(obj) == _dumps(obj)


@pytest.mark.parametrize("text", [
    '{"graph":"\\"entries\\":[1,2]"}',         # inside a string value
    '{"x\\"entries":[1,2]}',                   # a key ending in "entries
    '{"a\\\\\\"entries":[1,2]}',               # three backslashes: still inside the key
    '{"kind":"entries","v":[1,2]}',
    '{"entriesX":[1,2],"Xentries":[3]}',
])
def test_reader_never_lifts_what_is_not_an_entries_key(text):
    assert load_json(text) == json.loads(text)


def test_reader_lifts_every_entries_key():
    # two backslashes close the key "x\\"; the next key is a real "entries"
    text = '{"x\\\\":"\\"entries\\":[9]","entries":[1,2],"sub":[{"entries":[3]}]}'
    got = load_json(text)
    want = json.loads(text)
    assert _plain(got) == want
    assert isinstance(got["entries"], np.ndarray) and isinstance(got["sub"][0]["entries"], np.ndarray)
    # a repeated key keeps the last value, as json.loads does
    assert _plain(load_json('{"entries":[1],"entries":[2]}')) == {"entries": [2]}


@pytest.mark.parametrize("text", [
    '{"entries":[1.5]}', '{"entries":[true]}', '{"entries":["1"]}', '{"entries":[-1]}',
    '{"entries":[[1]]}', '{"entries":[null]}', '{"entries":[%d]}' % 2**70, '{"entries":[1e0]}',
    '{"entries":[01]}', '{"entries":[1,,2]}', '{"entries":[]}', '{"entries":[1,]}',
    '{"entries": [1]}', '{"entries":null}', '{"entries":7}', '{"entr\\u0069es":0}',
    '{"entries":[1],"k":{"entr\\u0069es":0}}', '{"entries":[1,2', '{"kind":"drep"',
    b'{"graph":"\xff"}',
    '{"a\\\\"entries":[1,2]}',  # an even run closes the key a\ and leaves entries":[ outside it
])
def test_reader_rejects_every_other_entries_form(text):
    with pytest.raises(VerificationError):
        load_json(text)
    for block in _BLOCKS:
        with mock.patch.object(serialize, "_BLOCK", block), pytest.raises(VerificationError):
            load_json(text)


@st.composite
def json_docs(draw):
    """Objects whose keys and strings are made of the characters that could
    fool a text-level reader, with some real matrices among them."""
    text = st.text(alphabet='"\\:[],entrisx0123 ', max_size=12)
    key = st.one_of(text, st.sampled_from(("entries", 'x"entries', "entries\\", "p")))
    leaf = st.one_of(text, st.integers(-3, 3), st.booleans(), st.none(),
                     st.integers(1, 4).map(lambda n: np.arange(n, dtype=np.int64)))
    return draw(st.recursive(leaf, lambda kids: st.one_of(st.lists(kids, max_size=3),
                                                          st.dictionaries(key, kids, max_size=3)),
                             max_leaves=12))


@settings(max_examples=400, deadline=None)
@given(json_docs())
def test_reader_returns_what_json_loads_returns_or_rejects(obj):
    text = canonical_json(obj)
    assert text == _dumps(obj)
    want = json.loads(text)
    try:
        got = load_json(text)
    except VerificationError:
        assert _has_malformed_entries(want)
        return
    assert _plain(got) == want


def _has_malformed_entries(obj) -> bool:
    """Whether some "entries" key holds anything but a non-empty list of
    non-negative ints: the only reason the reader may reject valid JSON."""
    if isinstance(obj, list):
        return any(_has_malformed_entries(v) for v in obj)
    if not isinstance(obj, dict):
        return False
    if "entries" in obj:
        v = obj["entries"]
        if not (isinstance(v, list) and v and all(type(x) is int and x >= 0 for x in v)):
            return True
    return any(_has_malformed_entries(v) for v in obj.values())


@pytest.mark.parametrize("value", [
    [1.5, 0], [True, 0], ["1", 0], [-1, 0], [2, 0], [[1], 0], [None, 0], [2**70, 0], [1.0, 0], "10", None,
])
def test_read_entries_rejects_malformed_lists(value):
    with pytest.raises(VerificationError):
        read_entries(value, 2, 2)


def test_read_entries_counts():
    assert read_entries([1, 0], 2, 2).tolist() == [1, 0]
    with pytest.raises(DimensionMismatch):
        read_entries([1], 2, 2)
    with pytest.raises(DimensionMismatch):
        read_entries(np.array([1, 0, 1]), 2, 2)


_ARRAY_DTYPES = (np.uint8, np.uint16, np.int64)


@st.composite
def _arrays(draw):
    dtype = draw(st.sampled_from(_ARRAY_DTYPES))
    values = draw(st.lists(st.integers(0, int(np.iinfo(dtype).max)), max_size=12))
    a = np.array(values, dtype=dtype)
    if a.size % 2 == 0 and draw(st.booleans()):
        a = a.reshape(2, -1)  # written in row-major order, as a flat list
    return a


def _trees(strings):
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), strings)
    return st.recursive(scalars, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(strings, kids, max_size=4)), max_leaves=16)


@st.composite
def writer_docs(draw):
    """Nested documents: either any strings (non-ASCII and NUL included)
    and no arrays, or 1-3 arrays put into containers at any depth."""
    count = draw(st.integers(0, 3))
    if not count:
        return draw(_trees(st.text()))
    doc = [draw(_trees(st.text(st.characters(min_codepoint=1), max_size=8)))]
    for _ in range(count):
        containers = []
        stack = [doc]
        while stack:
            node = stack.pop()
            containers.append(node)
            stack += [v for v in (node.values() if isinstance(node, dict) else node) if isinstance(v, (dict, list))]
        box = draw(st.sampled_from(containers))
        if isinstance(box, dict):
            box[draw(st.text(max_size=4))] = draw(_arrays())
        else:
            box.insert(draw(st.integers(0, len(box))), draw(_arrays()))
    return doc if draw(st.booleans()) else {"doc": doc}


@settings(max_examples=300, deadline=None)
@given(writer_docs())
def test_writer_matches_json_dumps(doc):
    assert canonical_json(doc) == _dumps(doc)
    assert b"".join(serialize.json_pieces(doc)) == _dumps(doc).encode("ascii")


@pytest.mark.parametrize("doc", [
    {"entries": np.arange(3), "graph": serialize._PLACEHOLDER},
    [np.arange(2, dtype=np.uint8), {serialize._PLACEHOLDER: 1}],
])
def test_a_string_that_spells_the_array_placeholder_raises(doc):
    with pytest.raises(ValueError, match="placeholder"):
        canonical_json(doc)


# ---------------------------------------------------------------------------
# The block reader: load_json must not depend on where the blocks end

# single bytes, a few bytes, and one either side of the marker's length
_BLOCKS = (1, 2, 3, 5, 11, len(serialize._ENTRIES) - 1, len(serialize._ENTRIES) + 1)


def _same(a, b) -> bool:
    """Equal keys (in order), values, types, array dtypes and array values."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and (a == b or (a != a and b != b))  # NaN


def _outcome(source):
    """What ``load_json`` returns for ``source``, or the error it refuses
    it with."""
    try:
        return load_json(source)
    except VerificationError as exc:
        return exc


def _assert_blocks_agree(text: bytes, blocks=_BLOCKS, messages: bool = False) -> None:
    """``text`` read in one block and ``block`` bytes at a time, sized from
    its length (as a file is from its size) and with no size to go by (as
    a pipe), gives the same document or is refused alike (with the same
    message, if ``messages``)."""
    whole = _outcome(text)
    for block in blocks:
        with mock.patch.object(serialize, "_BLOCK", block):
            for source in (text, io.BytesIO(text)):
                got = _outcome(source)
                if isinstance(whole, VerificationError):
                    assert isinstance(got, VerificationError), (block, text)
                    assert not messages or str(got) == str(whole), (block, text)
                else:
                    assert _same(got, whole), (block, text)


@pytest.mark.parametrize("text", [
    '{"a":1,"entries":[1,2,3],"b":[4]}',
    '{"entries":[123,45,6789],"x":"\\\\"}',
    '{"x\\\\":"\\"entries\\":[9]","entries":[1,2]}',  # backslash runs before markers, cut anywhere
    '{"a\\\\\\"entries":[1,2]}',  # an odd run: the marker is inside a key
    '{"\\\\\\\\\\\\":0,"entries":[1]}',
    '{"entries":[1,0],"sub":[{"entries":[3,10,2]},{"entries":[0]}]}',
    '{"entries":[1,2,3,4,5,6,7,8,9,10]}',  # widened at the last field
    '{"entries":[999999999999999999,0,100000000000000000]}',  # 18 digits, the longest field
    '{"entries":[1234567890123456789]}', '{"entries":[1,12345678901234567890]}',  # 19 and 20 digits
    '{"entries":[1,2', '{"entries":[12', '{"entries":[', '{"entries":[1,2,',  # left open at the end
    '{"entries":[]}', '{"entries":[1,]}', '{"entries":[,1]}', '{"entries":[1,,2]}', '{"entries":[01]}',
    '{"entries":[1,x,2]}', '{"entries":[1, 2]}', '{"entries":[1]]}', '{"entries":[1],"k":{"entries":0}}',
    '{"entries":[1]', '[{"entries":[7]},{"entries":[8,9]}]', '"entries":[1]', '',
])
def test_reader_does_not_depend_on_where_the_blocks_end(text):
    # every block size up to the text's length puts an edge at every offset;
    # each text has at most one fault, so it is refused for that one
    data = text.encode()
    _assert_blocks_agree(data, range(1, len(data) + 2), messages=True)


def _mutated(draw, text: str) -> str:
    """``text`` with a few bytes deleted, replaced or inserted, so that
    some of the drawn texts are malformed."""
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:at] + draw(st.sampled_from(('', ',', ']', '[', '"', '\\', '0', '7', 'x'))) + text[at + cut:]
    return text


@st.composite
def reader_texts(draw):
    """The documents of the reader and writer tests and the matrix codec's
    matrices, written canonically, some of them then broken."""
    doc = draw(st.one_of(json_docs(), writer_docs(), matrices().map(
        lambda case: {"entries": case[1].ravel(), "p": case[0], "rows": case[1].shape[0]})))
    text = canonical_json(doc)
    if draw(st.booleans()):
        text = _mutated(draw, text)
    return text.encode()


@settings(max_examples=150, deadline=None)
@given(reader_texts())
def test_reader_reads_drawn_documents_alike_in_any_blocks(text):
    _assert_blocks_agree(text)


@pytest.mark.parametrize("argv", [
    ["--kind", "johnson", "--p", "2", "--n", "8"],
    ["--kind", "alon", "--variant", "P", "--p", "2", "--q", "3", "--n", "7"],
    ["--kind", "alon", "--variant", "R", "--p", "2", "--q", "2", "--n", "6"],
    ["--kind", "cover", "--graph", "cycle:5", "--k", "3", "--p", "2"],
    ["--kind", "cycle-drep", "--k", "2", "--p", "3", "--power", "2"],
    ["--kind", "cycle-drep", "--k", "2", "--p", "11"],
])
def test_reader_reads_every_certificate_kind_alike_in_any_blocks(tmp_path, argv):
    path = tmp_path / "cert.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["certify", *argv, "--out", str(path)]) == 0
    _assert_blocks_agree(path.read_bytes())


def test_lists_that_run_across_blocks_are_read_into_arrays_that_own_their_memory():
    # FMatrix.from_json keeps such an array rather than copying it
    ones, wide = np.arange(40) % 10, np.arange(30) * 7  # the second is widened at 14
    with mock.patch.object(serialize, "_BLOCK", 8):
        got = load_json(canonical_json({"entries": ones, "sub": {"entries": wide}}))
    for array, want, dtype in ((got["entries"], ones, np.uint8), (got["sub"]["entries"], wide, np.int64)):
        assert array.dtype == dtype and array.base is None and np.array_equal(array, want)


def test_a_field_too_long_to_carry_is_refused_at_once():
    # nothing beyond a block past the 18 digits a field may have is read
    source = io.BytesIO(b'{"entries":[' + b"1" * 10_000 + b"]}")
    with mock.patch.object(serialize, "_BLOCK", 16):
        with pytest.raises(VerificationError, match="more than 18 digits"):
            load_json(source)
    assert source.tell() <= len(b'{"entries":[') + serialize._MAX_DIGITS + 2 * 16


class _CountedReads(io.BytesIO):
    reads = 0

    def readinto(self, buffer):
        self.reads += 1
        return super().readinto(buffer)


@pytest.mark.parametrize("hint, reads", [(0, 2), (5, 4), (10**4, 4), (20_040, 2), (10**7, 2)])
def test_the_file_size_is_only_a_hint(tmp_path, hint, reads):
    # a size that is missing, too small, right or too large reads the same
    # document
    path = tmp_path / "doc.json"
    path.write_text(canonical_json({"entries": np.arange(10_000) % 7, "x": [np.arange(5) * 300]}))
    assert path.stat().st_size == 20_040
    with open(path, "rb") as fh:
        whole = load_json(fh)
    for block in (7, 1 << 20):
        with mock.patch.object(serialize, "_BLOCK", block), \
                mock.patch.object(serialize, "_size_hint", return_value=hint), open(path, "rb") as fh:
            assert _same(load_json(fh), whole)
    # a file that fits in its hint is read in one read, and one more finds
    # its end; past a short hint the blocks are whole
    source = _CountedReads(path.read_bytes())
    with mock.patch.object(serialize, "_size_hint", return_value=hint):
        assert _same(load_json(source), whole)
    assert source.reads == reads


# ---------------------------------------------------------------------------
# One-digit entries as digit-separator words, against the character matrix
# and the strided reader they replaced

@st.composite
def one_digit_cases(draw):
    """One-digit values below a small prime, of lengths about a drawn chunk
    size, in the dtypes entries come in."""
    chunk = draw(st.sampled_from((1, 2, 3, serialize._CHUNK)))
    size = draw(st.one_of(st.integers(0, 40), st.sampled_from((0, 1, 2, chunk - 1, chunk, chunk + 1, chunk + 2))))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, p, size=size, dtype=np.int64)
    if values.size:
        values[rng.integers(values.size)] = p - 1
    dtype = draw(st.sampled_from((np.uint8, np.int64)))
    return chunk, values.astype(dtype)


@settings(max_examples=200, deadline=None)
@given(one_digit_cases())
def test_one_digit_words_round_trip_as_the_character_matrix_and_the_strided_reader(case):
    chunk, values = case
    with mock.patch.object(serialize, "_CHUNK", chunk):
        assert b"".join(int_chunks(values)) == character_matrix_one_digit_text(values)
        doc = canonical_json({"entries": values})
        if not values.size:
            with pytest.raises(VerificationError, match="entries list is empty"):
                load_json(doc)
            return
        want = strided_one_digit_entries(doc.encode()[len('{"entries":['):-len("]}")])
        for source in (doc, io.BytesIO(doc.encode())):
            got = load_json(source)["entries"]
            assert got.dtype == np.uint8 and np.array_equal(got, want) and np.array_equal(got, values)


@pytest.mark.parametrize("prefix", ['', '"a":10,'])  # the list starts at an even or an odd offset
def test_one_digit_lists_cut_at_block_edges_read_as_the_strided_reader(prefix):
    values = np.arange(41) % 10
    text = ("{" + prefix + canonical_json({"entries": values})[1:]).encode()
    want = strided_one_digit_entries(canonical_json(values)[1:-1].encode())
    spy = mock.Mock(wraps=serialize._one_digit_fields)
    with mock.patch.object(serialize, "_one_digit_fields", spy):
        for block in range(1, 24):
            with mock.patch.object(serialize, "_BLOCK", block):
                for source in (text, io.BytesIO(text)):
                    got = load_json(source)["entries"]
                    assert got.dtype == np.uint8 and np.array_equal(got, want), block
    # words were read from pieces at both even and odd offsets in the buffer
    assert {call.args[1] % 2 for call in spy.call_args_list} == {0, 1}
    wide = canonical_json({"entries": np.append(values, 10)}).encode()
    with mock.patch.object(serialize, "_BLOCK", 7):
        got = load_json(io.BytesIO(wide))["entries"]
    assert got.dtype == np.int64 and got.tolist() == [*values.tolist(), 10]


@pytest.mark.parametrize("text, message", [
    (b"1,x,2", "something other than digits and commas"),  # a non-digit at an even offset
    (b"1,2,x", "something other than digits and commas"),  # ... as the last byte
    (b"x", "something other than digits and commas"),
    (b"1,2,3;4,5", "something other than digits and commas"),  # a non-comma at an odd offset
    (b"1,012", "a leading zero"),  # a digit where a comma belongs
    (b"1,,,2", "an empty field"),
    (b",,1", "an empty field"),
    (b"1,2,", "an empty field"),  # a trailing comma
    (b"01", "a leading zero"),
    (b"1,2,01", "a leading zero"),
])
def test_malformed_one_digit_lists_are_refused_with_the_same_messages(text, message):
    assert strided_one_digit_entries(text) is None
    with pytest.raises(VerificationError, match=message):
        decode_entries(text)
    _assert_blocks_agree(b'{"entries":[' + text + b"]}", range(1, len(text) + 14), messages=True)


@pytest.mark.parametrize("value", [F(0), F(7), F(-3), F(5, 2), F(-25, 4), F(10**30 + 1, 3)])
def test_parse_frac_reads_what_frac_str_writes(value):
    assert serialize.parse_frac(serialize.frac_str(value)) == value


@pytest.mark.parametrize("text", ["1e5", "0.5", " 1/2", "1_0", "1/2\n", "+1", "\u0661", "1/0", "", "/2", "1/"])
def test_parse_frac_refuses_what_frac_str_never_writes(text):
    # Fraction() takes the first seven: an exponent, a decimal point,
    # whitespace, an underscore, a plus sign and a non-ASCII digit
    with pytest.raises(VerificationError):
        serialize.parse_frac(text)



# Each reader, the start of its refusal message, and the unit of a refused
# value (a string or a list, repeated to any length)
REFUSALS = {
    "parse_frac": (serialize.parse_frac, "not a rational: ", "x"),
    "read_int": (lambda v: serialize.read_int(v, "d"), "d must be an integer, got ", "7"),
    "read_list": (lambda v: serialize.read_list(v, "classes"), "classes must be a list, got ", "a"),
    "read_objects": (lambda v: serialize.read_objects([v], "classes"),
                     "each entry of classes must be a JSON object, got ", [1]),
    "read_ints": (lambda v: serialize.read_ints(v, "vertices"), "vertices must be a list of integers, got ", "1"),
}


@pytest.mark.parametrize("reader", sorted(REFUSALS))
@pytest.mark.parametrize("size", [1, 98, 99, 10**6])
def test_a_refused_value_is_echoed_whole_only_when_short(reader, size):
    read, prefix, unit = REFUSALS[reader]
    value = unit * size
    with pytest.raises(VerificationError) as err:
        read(value)
    text = repr(value)
    if len(text) <= 100:  # the message of old, byte for byte
        assert str(err.value) == prefix + text
    else:
        assert str(err.value) == f"{prefix}{text[:100]}... ({len(text)} characters)"
        assert len(str(err.value)) < 300
