"""The one record encoder every JSONL writer uses, and the one reader every loader uses."""

import json

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
