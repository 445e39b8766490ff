"""Tokenizer, inverted index, and BM25 scoring against a naive oracle."""

import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embkit import lexical
from embkit.corpus import Document, Query
from embkit.errors import ValidationError
from embkit.lexical import (
    Bm25Params,
    bm25_score,
    build_index,
    idf,
    search_lexical,
    tokenize,
)

from conftest import make_docs


class NaiveBm25:
    """Full-scan transcription of the BM25 formula, no inverted index."""

    def __init__(self, docs, k1=1.2, b=0.75):
        self.tokens = {
            d.id: re.findall(r"[^\W_]+", d.text.lower(), re.UNICODE) for d in docs
        }
        self.N = len(docs)
        self.avglen = sum(len(t) for t in self.tokens.values()) / self.N
        self.k1, self.b = k1, b

    def idf(self, term):
        df = sum(1 for toks in self.tokens.values() if term in toks)
        return math.log(1 + (self.N - df + 0.5) / (df + 0.5))

    def score(self, query_text, doc_id):
        toks = self.tokens[doc_id]
        total = 0.0
        for term in re.findall(r"[^\W_]+", query_text.lower(), re.UNICODE):
            f = toks.count(term)
            if f == 0:
                continue
            denom = f + self.k1 * (1 - self.b + self.b * len(toks) / self.avglen)
            total += self.idf(term) * f * (self.k1 + 1) / denom
        return total

    def search(self, query_text, n):
        scored = [(d, self.score(query_text, d)) for d in self.tokens]
        scored = [(d, s) for d, s in scored if s > 0]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:n]


def query(text):
    return Query(id="q", text=text, task="MSMARCO")


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("The cat, the CAT!") == ["the", "cat", "the", "cat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_alphanumerics_kept_together(self):
        assert tokenize("a1-b2") == ["a1", "b2"]

    def test_underscore_is_a_boundary(self):
        assert tokenize("snake_case") == ["snake", "case"]

    def test_unicode_letters(self):
        assert tokenize("Café métro") == ["café", "métro"]

    # ASCII text skips the regex; these characters sit on the edges of its classes.
    _ASCII_EDGES = st.sampled_from("_09AZaz \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x7f-.'@[`{")
    # Non-ASCII text keeps the regex: case folds that change length, a
    # non-breaking space and NEL, and combining marks.
    _UNICODE_EDGES = st.sampled_from("ßİ\x85\xa0\u0301\u0308\u2028é")

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=_ASCII_EDGES | st.characters(max_codepoint=127)))
    def test_ascii_matches_regex(self, text):
        assert tokenize(text) == lexical._TOKEN.findall(text.lower())

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=_ASCII_EDGES | _UNICODE_EDGES | st.characters()))
    def test_mixed_matches_regex(self, text):
        assert tokenize(text) == lexical._TOKEN.findall(text.lower())


class TestBuildIndex:
    def test_postings_and_lengths(self):
        index = build_index(make_docs({"d1": "a a b"}))
        assert list(index.doc_ids) == ["d1"]
        assert index.lengths.tolist() == [3]
        assert index.postings["a"].tolist() == [[0, 2]]
        assert index.postings["b"].tolist() == [[0, 1]]

    def test_avg_length(self):
        index = build_index(make_docs({"d1": "a b", "d2": "a b c", "d3": "a b c d"}))
        assert index.avg_length == 3.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_index([])

    def test_duplicate_doc_id_rejected(self):
        # Two rows with one id would make the id -> row lookup ambiguous.
        with pytest.raises(ValidationError, match="duplicate document id 'd1'"):
            build_index(make_docs({"d1": "a"}) + make_docs({"d1": "b"}))

    def test_permutation_invariance(self):
        docs = make_docs({"d1": "a b c", "d2": "b c d", "d3": "c d e"})
        params = Bm25Params()
        forward = build_index(docs)
        backward = build_index(list(reversed(docs)))
        assert np.array_equal(forward.doc_ids, backward.doc_ids)
        assert np.array_equal(forward.lengths, backward.lengths)
        assert forward.postings.keys() == backward.postings.keys()
        assert all(np.array_equal(forward.postings[t], backward.postings[t]) for t in forward.postings)
        q = query("c d")
        assert search_lexical(forward, params, q, 10) == search_lexical(backward, params, q, 10)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from("abAB019_ -.\x1f")), min_size=1, max_size=8))
def test_ascii_index_equals_regex_index(texts):
    docs = make_docs({f"d{i}": text for i, text in enumerate(texts)})
    fast = build_index(docs)
    with mock.patch.object(lexical, "tokenize", lambda text: lexical._TOKEN.findall(text.lower())):
        slow = build_index(docs)
    assert np.array_equal(fast.lengths, slow.lengths) and fast.avg_length == slow.avg_length
    assert fast.postings.keys() == slow.postings.keys()
    assert all(np.array_equal(fast.postings[t], slow.postings[t]) for t in fast.postings)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "dd", "e1", "ß"]), max_size=6), min_size=1, max_size=8))
def test_postings_equal_brute_force_counts(token_lists):
    docs = make_docs({f"d{i}": " ".join(tokens) or "_" for i, tokens in enumerate(token_lists)})
    index = build_index(docs)
    rows = {doc_id: row for row, doc_id in enumerate(index.doc_ids)}
    vocab = {t for tokens in token_lists for t in tokens}
    assert len(index.postings) == len(vocab) and set(index.postings) == vocab
    for term in vocab:
        expected = sorted((rows[f"d{i}"], tokens.count(term)) for i, tokens in enumerate(token_lists) if term in tokens)
        assert index.postings[term].tolist() == [list(pair) for pair in expected]
        assert index.postings.get(term).tolist() == index.postings[term].tolist()
        assert term in index.postings and index.doc_frequency(term) == len(expected)


def test_absent_terms_never_join_the_vocabulary():
    index = build_index(make_docs({"d1": "a b", "d2": "b c"}))
    assert index.postings.get("absent") is None and index.postings.get("absent", ()) == ()
    assert "absent" not in index.postings
    with pytest.raises(KeyError):
        index.postings["absent"]
    assert search_lexical(index, Bm25Params(), query("absent b zzz"), 10).doc_ids() == ["d1", "d2"]
    assert bm25_score(index, Bm25Params(), query("absent"), "d1") == 0.0
    assert len(index.postings) == 3 and set(index.postings) == {"a", "b", "c"}


class TestIdf:
    def test_hand_values(self):
        index = build_index(make_docs({"d1": "a b", "d2": "c", "d3": "d"}))
        assert idf(index, "a") == pytest.approx(math.log(8 / 3), abs=1e-12)
        assert idf(index, "zzz") == pytest.approx(math.log(8), abs=1e-12)

    def test_single_doc(self):
        index = build_index(make_docs({"d1": "a"}))
        assert idf(index, "a") == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_never_negative(self):
        # Term in every document: df = N.
        index = build_index(make_docs({"d1": "a", "d2": "a", "d3": "a"}))
        assert idf(index, "a") > 0


class TestBm25Params:
    def test_string_k1_rejected(self):
        with pytest.raises(ValidationError, match="k1: must be a number, got 'x'"):
            Bm25Params(k1="x")

    def test_int_beyond_float_range_rejected(self):
        # JSON parses such an int exactly; scoring with it would overflow.
        with pytest.raises(ValidationError, match="k1: must be a number"):
            Bm25Params(k1=10**400)

    def test_every_problem_named_at_once(self):
        with pytest.raises(ValidationError) as caught:
            Bm25Params(k1=math.inf, b=2)
        assert caught.value.problems == ["k1: must be finite, got inf", "b: must be in [0, 1], got 2"]


class TestBm25Score:
    def test_zero_overlap(self):
        index = build_index(make_docs({"d1": "a a b"}))
        assert bm25_score(index, Bm25Params(), query("zzz"), "d1") == 0.0

    def test_single_doc_hand_case(self):
        index = build_index(make_docs({"d1": "a a b"}))
        expected = math.log(4 / 3) * 4.4 / 3.2
        got = bm25_score(index, Bm25Params(k1=1.2, b=0.75), query("a"), "d1")
        assert got == pytest.approx(expected, abs=1e-5)
        assert got == pytest.approx(0.39556, abs=1e-5)

    def test_repeated_query_terms_double(self):
        index = build_index(make_docs({"d1": "a a b", "d2": "b c"}))
        params = Bm25Params()
        assert bm25_score(index, params, query("a a"), "d1") == pytest.approx(
            2 * bm25_score(index, params, query("a"), "d1"), abs=1e-12
        )

    def test_unknown_doc_rejected(self):
        index = build_index(make_docs({"d1": "a"}))
        with pytest.raises(ValidationError, match="nope"):
            bm25_score(index, Bm25Params(), query("a"), "nope")

    def test_monotone_in_term_frequency(self):
        # Same length, increasing tf of the query term.
        docs = make_docs({"d1": "a x x x", "d2": "a a x x", "d3": "a a a x"})
        index = build_index(docs)
        params = Bm25Params()
        scores = [bm25_score(index, params, query("a"), d) for d in ("d1", "d2", "d3")]
        assert scores[0] < scores[1] < scores[2]

    def test_scores_nonnegative_random(self):
        rng = random.Random(9)
        vocab = [f"w{i}" for i in range(30)]
        docs = make_docs({
            f"d{i}": " ".join(rng.choices(vocab, k=rng.randint(3, 20)))
            for i in range(25)
        })
        index = build_index(docs)
        params = Bm25Params()
        for _ in range(50):
            q = query(" ".join(rng.choices(vocab, k=3)))
            doc_id = f"d{rng.randrange(25)}"
            assert bm25_score(index, params, q, doc_id) >= 0.0


class TestSearchLexical:
    def test_n_larger_than_corpus(self):
        index = build_index(make_docs({"d1": "a b", "d2": "a c", "d3": "x y"}))
        result = search_lexical(index, Bm25Params(), query("a"), 100)
        assert result.doc_ids() == ["d1", "d2"]

    def test_tie_broken_by_ascending_id(self):
        index = build_index(make_docs({"d2": "a b", "d1": "a b"}))
        result = search_lexical(index, Bm25Params(), query("a"), 10)
        assert result.doc_ids() == ["d1", "d2"]
        assert result.entries[0][1] == result.entries[1][1]

    def test_n_must_be_positive(self):
        index = build_index(make_docs({"d1": "a"}))
        with pytest.raises(ValidationError):
            search_lexical(index, Bm25Params(), query("a"), 0)

    def test_matches_naive_full_scan_on_20_docs(self):
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(40)]
        texts = {
            f"d{i:02d}": " ".join(rng.choices(vocab, k=rng.randint(4, 30)))
            for i in range(20)
        }
        docs = make_docs(texts)
        index = build_index(docs)
        params = Bm25Params()
        naive = NaiveBm25(docs)
        for _ in range(25):
            qtext = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            expected = naive.search(qtext, 20)
            got = search_lexical(index, params, query(qtext), 20)
            assert got.doc_ids() == [d for d, _ in expected]
            for (_, got_score), (_, want_score) in zip(got.entries, expected):
                assert got_score == pytest.approx(want_score, abs=1e-9)

