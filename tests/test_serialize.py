"""The matrix codec and canonical JSON: byte-identical writer, strict reader."""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfrac import serialize
from hfrac.errors import DimensionMismatch, VerificationError
from hfrac.gfmat import FMatrix
from hfrac.graphs import cycle, generate, is_prime
from hfrac.minrank import minrank_exact
from hfrac.reps import cycle_drep, hfrac_upper_search, tensor_dreps
from hfrac.serialize import canonical_json, decode_entries, int_text, load_json, read_entries

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
def int_text_cases(draw):
    top = draw(st.sampled_from(_EDGE_VALUES))
    # lengths about the chunk size, odd ones included for a 2-byte pattern
    size = draw(st.one_of(st.integers(1, 40), st.sampled_from(
        (serialize._CHUNK - 1, serialize._CHUNK, serialize._CHUNK + 1, 2 * serialize._CHUNK + 3))))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.choice([v for v in _EDGE_VALUES if v <= top], size=size)
    values[rng.integers(size)] = top
    dtype = draw(st.sampled_from([t for t in (np.uint8, np.uint16, np.int32, np.uint32, np.int64, np.uint64)
                                  if top <= np.iinfo(t).max]))
    seps = draw(st.sampled_from((b",", b"\n", b",;", b" \n")))
    return values.astype(dtype), seps


@settings(max_examples=150, deadline=None)
@given(int_text_cases())
def test_int_text_matches_the_decimal_strings(case):
    values, seps = case
    expected = b"".join(str(v).encode() + seps[i % len(seps):i % len(seps) + 1]
                        for i, v in enumerate(values.tolist()))
    assert int_text(values, seps) == expected


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
            assert decode_entries(text.encode()).tolist() == [int(f) for f in fields]
        else:
            with pytest.raises(VerificationError):
                decode_entries(text.encode())


def test_canonical_json_matches_json_dumps_on_nested_reports():
    rep = cycle_drep(2, 2)
    reports = [
        hfrac_upper_search(cycle(7), 2, dmax=2).to_json(),
        hfrac_upper_search(generate("strong(cycle:5,cycle:5)"), 2, dmax=4).to_json(),
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
])
def test_reader_rejects_every_other_entries_form(text):
    with pytest.raises(VerificationError):
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
