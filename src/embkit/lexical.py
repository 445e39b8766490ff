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
from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .corpus import Document, Query
from .errors import ValidationError, number_problems
from .ranking import CHANNEL_LEXICAL, RankedList, top_n

# Runs of Unicode alphanumerics; underscore is a boundary, not a word char.
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)
# On ASCII text `_TOKEN` matches exactly [A-Za-z0-9]+, so lowercasing every
# letter and blanking every other ASCII character lets split() find the
# same tokens in one pass.
_ASCII_TOKENS = str.maketrans({c: chr(c).lower() if chr(c).isalnum() else " " for c in range(128)})


def tokenize(text: str) -> list[str]:
    """Lowercase and split on Unicode non-alphanumeric boundaries."""
    if text.isascii():
        return text.translate(_ASCII_TOKENS).split()
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    """k1 controls term-frequency saturation, b length normalization in [0, 1]."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        problems = (number_problems("k1", self.k1, "> 0", lambda v: v > 0)
                    + number_problems("b", self.b, "in [0, 1]", lambda v: 0 <= v <= 1))
        if problems:
            raise ValidationError(*problems)


class Postings(Mapping):
    """Read-only term -> (row, tf) pairs, cut on lookup from one array sorted
    by (term, row), so building the index makes no object per term."""

    def __init__(self, term_ids: dict[str, int], pairs: np.ndarray, bounds: list[int]):
        self._term_ids, self._pairs, self._bounds = term_ids, pairs, bounds

    def __getitem__(self, term: str) -> np.ndarray:
        t = self._term_ids[term]
        return self._pairs[self._bounds[t]:self._bounds[t + 1]]

    def __iter__(self):
        return iter(self._term_ids)

    def __len__(self) -> int:
        return len(self._term_ids)


@dataclass
class InvertedIndex:
    """Term postings plus the corpus statistics BM25 needs.

    Row r is the r-th document in ascending id order: `doc_ids[r]` is its id
    and `lengths[r]` its token count.  `postings[term]` is a (df, 2) int
    array of (row, tf) pairs, rows ascending; see `Postings`.
    """

    doc_ids: np.ndarray
    lengths: np.ndarray
    postings: Postings
    avg_length: float

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    def doc_frequency(self, term: str) -> int:
        return len(self.postings.get(term, ()))


def build_index(corpus: Iterable[Document]) -> InvertedIndex:
    """Build an inverted index; result is independent of document order.

    Rows follow ascending doc id, so two permutations of the same corpus
    produce identical indexes (and therefore identical query results).
    """
    docs = sorted(corpus, key=lambda doc: doc.id)
    if not docs:
        raise ValidationError("cannot index an empty corpus")
    ids = [doc.id for doc in docs]
    duplicate = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
    if duplicate is not None:
        raise ValidationError(f"duplicate document id '{duplicate}'")
    doc_count = len(docs)
    # Each new term gets the next id on first sight; only one document's
    # tokens are alive at a time.
    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__
    lengths = np.empty(doc_count, dtype=np.int64)
    term_of_token = array("q")
    for row, doc in enumerate(docs):
        start = len(term_of_token)
        term_of_token.extend(map(vocab.__getitem__, tokenize(doc.text)))
        lengths[row] = len(term_of_token) - start
    # One key per token, term-major, written over the term ids in place:
    # sorting groups each term's rows in ascending order.
    keys = np.frombuffer(term_of_token, dtype=np.int64)
    keys *= doc_count
    keys += np.repeat(np.arange(doc_count), lengths)
    keys, tfs = np.unique(keys, return_counts=True)
    term_of_key, row_of_key = np.divmod(keys, doc_count)
    pairs = np.column_stack((row_of_key, tfs))
    bounds = np.searchsorted(term_of_key, np.arange(len(vocab) + 1)).tolist()
    vocab.default_factory = None  # frozen: an absent term raises KeyError, never joins
    return InvertedIndex(
        doc_ids=np.array(ids, dtype=object),
        lengths=lengths,
        postings=Postings(vocab, pairs, bounds),
        avg_length=int(lengths.sum()) / doc_count,
    )


def idf(index: InvertedIndex, term: str) -> float:
    """Smoothed inverse document frequency; defined (and positive) even at df = 0."""
    return _idf(index, index.doc_frequency(term))


def _idf(index: InvertedIndex, df: int) -> float:
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


def _term_weight(index: InvertedIndex, params: Bm25Params, term_idf: float, tf, length):
    """Saturated-tf * idf weight of one term; tf and length may be scalars or aligned arrays."""
    norm = params.k1 * (1.0 - params.b + params.b * length / index.avg_length)
    return term_idf * tf * (params.k1 + 1.0) / (tf + norm)


def bm25_score(index: InvertedIndex, params: Bm25Params, query: Query, doc_id: str) -> float:
    """BM25 score of one document for one query.

    Sums the saturated-tf * idf weight over query tokens, repeats included:
    the query "a a" scores exactly twice the query "a".  Query terms absent
    from the document contribute zero.
    """
    row = bisect_left(index.doc_ids, doc_id)
    if row == index.doc_count or index.doc_ids[row] != doc_id:
        raise ValidationError(f"unknown document id '{doc_id}'")
    length = int(index.lengths[row])
    score = 0.0
    for term in tokenize(query.text):
        posting = index.postings.get(term)
        if posting is None:
            continue
        at = int(np.searchsorted(posting[:, 0], row))
        if at < len(posting) and posting[at, 0] == row:
            score += _term_weight(index, params, _idf(index, len(posting)), int(posting[at, 1]), length)
    return score


def search_lexical(index: InvertedIndex, params: Bm25Params, query: Query, n: int) -> RankedList:
    """Top-n matching documents by BM25, ties broken by ascending doc id.

    Only documents sharing at least one token with the query appear; fewer
    than n matches yields a shorter list.  Weights are added per document in
    query-token order, the order `bm25_score` uses.
    """
    acc = np.zeros(index.doc_count)
    matched = np.zeros(index.doc_count, dtype=bool)
    for term in tokenize(query.text):
        posting = index.postings.get(term)
        if posting is None:
            continue
        rows, tfs = posting[:, 0], posting[:, 1]
        acc[rows] += _term_weight(index, params, _idf(index, len(posting)), tfs, index.lengths[rows])
        matched[rows] = True
    rows = np.flatnonzero(matched)
    return top_n(index.doc_ids[rows], acc[rows], n, CHANNEL_LEXICAL)
