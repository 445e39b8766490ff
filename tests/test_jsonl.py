"""The one record encoder every JSONL writer uses, and the one reader every loader uses."""

import decimal
import json
import math
import random
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from embkit import corpus, dense, evalagg, forge, jsonl, loss, rerank
from embkit.errors import EmbkitError

_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 0.1])
_TEXT = st.text() | st.sampled_from(["café", "ß", "İ", "\x85", " ", "é", "😀", '"\\\n'])
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(_TEXT, _VALUES, max_size=6))
def test_dumps_matches_json_dumps(record):
    assert jsonl.dumps(record) == json.dumps(record, ensure_ascii=False, separators=(", ", ": "))


# Every JSONL loader, with one record it accepts.
_LOADERS = {
    "corpus": (corpus.load_corpus, {"id": "d1", "text": "alpha", "title": "A"}),
    "queries": (corpus.load_queries, {"id": "q1", "text": "alpha", "task": "MSMARCO"}),
    "qrels": (corpus.load_qrels, {"query_id": "q1", "doc_id": "d1", "label": 1}),
    "pairs": (corpus.load_pairs, {"query": "a", "positives": ["b"], "task": "MSMARCO"}),
    "query-positives": (corpus.load_query_positives, {"query": "a", "positive": "b", "task": "MSMARCO"}),
    "vectors": (dense.load_vectors, {"id": "a", "vector": [1.0, 0]}),
    "scores": (rerank.load_scores, {"query_id": "q1", "doc_id": "d1", "score": -0.5}),
    "nli": (forge.load_nli, {"premise": "p", "hypothesis": "h", "label": "entailment"}),
    "training-records": (forge.load_training_records, {
        "task": "MSMARCO", "instruction": "i", "query": "q", "positive": "p", "positive_soft_score": 0.5,
        "negatives": [{"text": "n", "score": 0.25}], "prompt": "Instruct: i\nQuery: q</s>", "shortfall": False}),
    "instruction-overrides": (lambda path: forge.InstructionRegistry().merge_overrides(path),
                              {"task": "t", "instruction": "i"}),
    "eval-matrix": (evalagg.load_eval_matrix, {"model": "m", "task": "t", "category": "c", "score": 50}),
    "loss-batch": (loss.load_batch_file, {"s_pos": 1.0, "s_neg": [0.5], "teacher": [2, 1]}),
}
_FAULTS = [
    b'{"id": "\xff"}',  # not UTF-8
    b'{"id": ' + b"7" * 5000 + b"}",  # past Python's 4,300-digit limit for int()
    b"[" * 100_000 + b"]" * 100_000,  # deeper than the recursion limit
]
_FIELDS = {key: value for _, good in _LOADERS.values() for key, value in good.items()}
_FIELD_VALUES = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                             lambda inner: st.lists(inner, max_size=3), max_leaves=4)
# None stands for the loader's accepted record; the other lines are raw
# bytes, a fault, or records over every loader's fields with any values.
_LINES = st.lists(
    st.none() | st.binary(max_size=24) | st.sampled_from(_FAULTS)
    | st.fixed_dictionaries({}, optional={key: _FIELD_VALUES | st.just(value) for key, value in _FIELDS.items()})
    .map(lambda record: json.dumps(record).encode()),
    max_size=5,
)


@pytest.mark.parametrize("name", _LOADERS)
@settings(max_examples=100, deadline=None)
@given(lines=_LINES)
@example(lines=[None, _FAULTS[0]])
@example(lines=[None, _FAULTS[1]])
@example(lines=[None, _FAULTS[2]])
def test_loader_raises_only_embkit_error_on_any_bytes(tmp_path_factory, name, lines):
    load, good = _LOADERS[name]
    path = tmp_path_factory.getbasetemp() / f"{name}.jsonl"
    path.write_bytes(b"".join((json.dumps(good).encode() if line is None else line) + b"\n" for line in lines))
    try:
        load(path)
    except EmbkitError as exc:
        if lines[:1] == [None] and len(lines) > 1 and lines[1] in _FAULTS:
            assert f"{name}.jsonl:2: " in str(exc)
    else:
        assert not any(fault in lines for fault in _FAULTS)


def _read_one(tmp_path, literal: bytes):
    """The value `iter_orjson` reads for one number literal, or None if it raises."""
    path = tmp_path / "one.jsonl"
    path.write_bytes(b'{"x": ' + literal + b"}\n")
    try:
        return next(jsonl.iter_orjson(path))[1]["x"]
    except ValueError:
        return None


def _same_number(fast, literal: bytes) -> bool:
    """Whether fast is json's value for literal: the same float bit for bit,
    or the same int, which orjson gives as a float beyond 64 bits."""
    exact = json.loads(literal)
    if isinstance(exact, int) and -(2**63) <= exact < 2**64:
        return type(fast) is int and fast == exact
    return type(fast) is float and struct.pack("<d", fast) == struct.pack("<d", float(exact))


def _around_midpoint(x: float) -> list[bytes]:
    """Decimal literals for the exact midpoint between x and the next double up, and the decimals just either side of it."""
    mid = (decimal.Decimal(x) + decimal.Decimal(math.nextafter(x, math.inf))) / 2
    digits = len(mid.as_tuple().digits) + 2
    with decimal.localcontext(decimal.Context(prec=digits)):
        literals = [mid, mid.next_minus(), mid.next_plus()]
    return [str(d).encode() for d in literals]


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, max_value=1e308), st.integers(-(2**70), 2**70))
@example(x=5e-324, n=2**64)
@example(x=0.0, n=-(2**63) - 1)
@example(x=1.7976931348623155e308, n=2**70)
@example(x=2.0**53, n=2**64 - 1)
@example(x=0.1, n=-(2**63))
def test_orjson_reader_numbers_are_json_numbers(tmp_path_factory, x, n):
    tmp_path = tmp_path_factory.mktemp("numbers")
    for literal in [repr(x).encode(), str(n).encode(), *_around_midpoint(x)]:
        fast = _read_one(tmp_path, literal)
        assert fast is None or _same_number(fast, literal), literal


def test_orjson_reader_reads_midpoints_of_every_binade(tmp_path):
    """One file of midpoint literals across the whole double range reads as json reads it."""
    rng = random.Random(7)
    xs = [math.ldexp(rng.random() + 1.0, e) for e in range(-1074, 1023)] + [5e-324, 2.2250738585072014e-308]
    ints = [rng.getrandbits(bits) * rng.choice([-1, 1]) for bits in range(1, 71) for _ in range(20)]
    literals = [lit for x in xs for lit in _around_midpoint(x)] + [str(i).encode() for i in ints]
    path = tmp_path / "numbers.jsonl"
    path.write_bytes(b"".join(b'{"x": ' + lit + b"}\n" for lit in literals))
    values = [record["x"] for _, record in jsonl.iter_orjson(path)]
    assert len(values) == len(literals)
    assert all(_same_number(value, lit) for value, lit in zip(values, literals))


@pytest.mark.parametrize("line", [
    b'{"id": "d1"}\r',
    b'{"x": NaN}',
    b'{"x": -Infinity}',
    b'{"x": 1e400}',
    b'{"x": "\\ud800"}',
    b'{"x": "\xff"}',
    b'\xe2\x80\xa8',  # U+2028 alone: blank to `iter_records`, not JSON to orjson
    b'["d1"]',
    b'{"x": ' + b"[" * (jsonl.MAX_OPEN - 1) + b"]" * (jsonl.MAX_OPEN - 1) + b"}",
])
def test_orjson_reader_refuses_what_it_cannot_vouch_for(tmp_path, line):
    path = tmp_path / "fault.jsonl"
    path.write_bytes(b'{"id": "d0"}\n' + line + b"\n")
    with pytest.raises(ValueError):
        list(jsonl.iter_orjson(path))


# Literals the loaders of `mine` read, two in three of them valid.  The
# faults: integers orjson gives as floats, NaN and the infinities, lone
# surrogates, bytes that are not UTF-8 and values of the wrong type.
_BIG_INTS = [b"18446744073709551616", b"18446744073709551617", b"-9223372036854775809", b"1180591620717411303427"]
_NUMBER_LITERALS = st.one_of(
    st.sampled_from([b"1", b"2", b"0.5", b"-0.0", b"1e-400", *_BIG_INTS]),
    st.integers(1, 2**70).map(lambda i: str(i).encode()),
    st.sampled_from([b"0", b"-0", b"NaN", b"Infinity", b"-Infinity", b"1e400", b"true", b"null", b'"1"']),
)
_STRING_LITERALS = st.one_of(
    st.sampled_from(["d1", "d2", "q1", "alpha beta", " ", "\U0001f600"]).map(lambda s: json.dumps(s).encode()),
    st.sampled_from([b'"d2"', b'"caf\xc3\xa9"', b'"\\ud83d\\ude00"', b'"a\\nb"']),
    st.sampled_from([b'""', b'" "', b'"\\ud800"', b'"x\\udc00"', b'"\xff"', b'"\xed\xa0\x80"', b"7", b"null"]),
)
_NUMBER_FIELDS = {"label", "score"}
# The loaders of `mine` and the fields each one reads.
_MINE_LOADERS = {
    "corpus": (corpus.load_corpus, ["id", "text"]),
    "queries": (corpus.load_queries, ["id", "text", "task"]),
    "qrels": (corpus.load_qrels, ["query_id", "doc_id", "label"]),
    "scores": (rerank.load_scores, ["query_id", "doc_id", "score"]),
}
# Deeper than `json` decodes even under the recursion limit hypothesis raises.
_DEEP = b"[" * 100_000 + b"]" * 100_000
_OTHER_LINES = st.sampled_from([
    b"", b"  ", b"\t", b"\x0c", "\u2028".encode(), "\x85".encode(), "\u3000 ".encode(), b"\x1c",
    b'["d1"]', b'"d1"', b"3", b"null", b"{}", b"{",
])


@st.composite
def _mine_files(draw, name):
    """A loader's name and JSONL bytes for it: records over its fields with
    extra, repeated and over-deep keys, faulty values, \\r inside a record,
    blank and non-object lines, and \\r or \\r\\n line ends."""
    fields = _MINE_LOADERS[name][1]
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            line = draw(_OTHER_LINES)
        else:
            keys = fields + draw(st.lists(st.sampled_from(fields + ["title", "deep"]), max_size=2))
            items = [json.dumps(key).encode() + b": " + (_DEEP if key == "deep" else draw(
                _NUMBER_LITERALS if key in _NUMBER_FIELDS else _STRING_LITERALS)) for key in keys]
            line = b"{" + draw(st.sampled_from([b", "] * 6 + [b",\r", b",\r\n"])).join(items) + b"}"
        lines.append(line + draw(st.sampled_from([b"\n"] * 4 + [b"\r\n", b"\r"])))
    return name, b"".join(lines)


def _outcome(load, path):
    """What a loader gives for path: its result as text, or its error's type and message."""
    try:
        result = load(path)
    except EmbkitError as exc:
        return type(exc), str(exc)
    return repr(result.items() if isinstance(result, rerank.ScoreSet) else result)


@settings(max_examples=600, deadline=None)
@given(case=st.sampled_from(sorted(_MINE_LOADERS)).flatmap(_mine_files))
@example(case=("corpus", b'{"id": "d1",\r"text": "x"}\n'))
@example(case=("corpus", b'{"id": "d1", "text": "x", "deep": ' + _DEEP + b"}\n"))
@example(case=("qrels", b'{"query_id": "q1", "doc_id": "d1", "label": 18446744073709551616}\n'))
@example(case=("scores", b'{"query_id": "q1", "doc_id": "d1", "score": 1180591620717411303427}\n'))
@example(case=("queries", b'\xe2\x80\xa8\n{"id": "q1", "text": "a", "task": "t"}\n{"id": "q1"}\n'))
def test_mine_loaders_match_json_reading(tmp_path_factory, case):
    """Each loader of `mine` gives what building from `iter_records` alone gives."""
    name, content = case
    load = _MINE_LOADERS[name][0]
    path = tmp_path_factory.mktemp(name) / f"{name}.jsonl"
    path.write_bytes(content)

    def refuse(path):
        raise ValueError("orjson reader off")

    fast = _outcome(load, path)
    with mock.patch.object(jsonl, "iter_orjson", refuse):
        assert fast == _outcome(load, path)
