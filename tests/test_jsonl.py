"""The one record encoder every JSONL writer uses."""

import json

from hypothesis import given, settings, strategies as st

from embkit import jsonl

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

