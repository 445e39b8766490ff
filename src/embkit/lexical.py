"""Lexical search channel: tokenizer, inverted index, and BM25 scoring.

The scoring function is Okapi BM25 with the smoothed non-negative IDF

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))

which never goes negative on common terms, so every match contributes a
positive score.  Tokenization is lowercasing plus Unicode alphanumeric
segmentation; no stemming, no stopwords, fully deterministic.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .corpus import Document, Query
from .errors import ValidationError
from .ranking import CHANNEL_LEXICAL, RankedList, top_n

# Runs of Unicode alphanumerics; underscore is a boundary, not a word char.
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on Unicode non-alphanumeric boundaries."""
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    """k1 controls term-frequency saturation, b length normalization in [0, 1]."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if not self.k1 > 0:
            raise ValidationError(f"k1 must be > 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValidationError(f"b must be in [0, 1], got {self.b}")


@dataclass
class InvertedIndex:
    """Term -> (doc id, term frequency) postings plus the corpus statistics BM25 needs."""

    postings: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    doc_lengths: dict[str, int] = field(default_factory=dict)
    doc_count: int = 0
    avg_length: float = 0.0

    def doc_frequency(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def term_frequency(self, term: str, doc_id: str) -> int:
        for posting_doc, tf in self.postings.get(term, ()):
            if posting_doc == doc_id:
                return tf
        return 0


def build_index(corpus: Iterable[Document]) -> InvertedIndex:
    """Build an inverted index; result is independent of document order.

    Postings are sorted by doc id so two permutations of the same corpus
    produce identical indexes (and therefore identical query results).
    """
    doc_lengths: dict[str, int] = {}
    term_docs: dict[str, dict[str, int]] = {}
    for doc in corpus:
        tokens = tokenize(doc.text)
        doc_lengths[doc.id] = len(tokens)
        for term, tf in Counter(tokens).items():
            term_docs.setdefault(term, {})[doc.id] = tf
    if not doc_lengths:
        raise ValidationError("cannot index an empty corpus")
    postings = {
        term: sorted(docs.items()) for term, docs in sorted(term_docs.items())
    }
    doc_count = len(doc_lengths)
    avg_length = sum(doc_lengths.values()) / doc_count
    return InvertedIndex(
        postings=postings,
        doc_lengths=doc_lengths,
        doc_count=doc_count,
        avg_length=avg_length,
    )


def idf(index: InvertedIndex, term: str) -> float:
    """Smoothed inverse document frequency; defined (and positive) even at df = 0."""
    df = index.doc_frequency(term)
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


def _term_weight(index: InvertedIndex, params: Bm25Params, term: str, tf: int, length: int) -> float:
    if tf == 0:
        return 0.0
    norm = params.k1 * (1.0 - params.b + params.b * length / index.avg_length)
    return idf(index, term) * tf * (params.k1 + 1.0) / (tf + norm)


def bm25_score(index: InvertedIndex, params: Bm25Params, query: Query, doc_id: str) -> float:
    """BM25 score of one document for one query.

    Sums the saturated-tf * idf weight over query tokens, repeats included:
    the query "a a" scores exactly twice the query "a".  Query terms absent
    from the document contribute zero.
    """
    if doc_id not in index.doc_lengths:
        raise ValidationError(f"unknown document id '{doc_id}'")
    length = index.doc_lengths[doc_id]
    score = 0.0
    for term in tokenize(query.text):
        score += _term_weight(index, params, term, index.term_frequency(term, doc_id), length)
    return score


def search_lexical(index: InvertedIndex, params: Bm25Params, query: Query, n: int) -> RankedList:
    """Top-n matching documents by BM25, ties broken by ascending doc id.

    Only documents sharing at least one token with the query appear; fewer
    than n matches yields a shorter list.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    scores: dict[str, float] = {}
    for term in tokenize(query.text):
        for doc_id, tf in index.postings.get(term, ()):
            weight = _term_weight(index, params, term, tf, index.doc_lengths[doc_id])
            scores[doc_id] = scores.get(doc_id, 0.0) + weight
    return top_n(scores, n, CHANNEL_LEXICAL)

