"""top_n: partial-sort ranking against a full sort of every scored id; RankedList's checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embkit.errors import ValidationError
from embkit.ranking import CHANNEL_LEXICAL, RankedList, top_n


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.text(alphabet="abc", max_size=4), st.sampled_from([-1.5, 0.0, 0.25, 2.0, 3.0])),
        unique_by=lambda pair: pair[0], max_size=30,
    ),
    n=st.integers(min_value=1, max_value=40),
)
def test_equals_full_sort_with_ties_at_the_cut(pairs, n):
    # Five score values over up to 30 ids: most cuts fall inside a run of ties.
    ids = [doc_id for doc_id, _ in pairs]
    scores = np.array([score for _, score in pairs], dtype=np.float64)
    expected = sorted(pairs, key=lambda e: (-e[1], e[0]))[:n]
    assert list(top_n(ids, scores, n, CHANNEL_LEXICAL).entries) == expected


def test_empty_input_and_n_beyond_length():
    assert top_n([], np.array([]), 3, CHANNEL_LEXICAL).entries == ()
    assert top_n(["b", "a"], [1.0, 1.0], 5, CHANNEL_LEXICAL).doc_ids() == ["a", "b"]


@pytest.mark.parametrize("entries, channel, message", [
    ((("a", 1.0),), "bm25", "unknown channel 'bm25'"),
    ((("a", 2.0), ("b", 1.0), ("a", 0.5)), CHANNEL_LEXICAL, "duplicate doc id 'a' in lexical list"),
    ((("a", 1.0), ("b", 1.5)), CHANNEL_LEXICAL, r"non-increasing in lexical list \(saw 1.5 after 1.0\)"),
], ids=["unknown-channel", "repeated-doc-id", "rising-score"])
def test_ranked_list_rejections(entries, channel, message):
    with pytest.raises(ValidationError, match=message):
        RankedList(entries=entries, channel=channel)
