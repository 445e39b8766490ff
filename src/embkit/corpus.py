"""Corpus ingestion: documents, queries, relevance judgments, raw training pairs.

Loaders validate eagerly and fail loudly with the offending line number:
a silently dropped or overwritten record corrupts every downstream artifact.
`jsonl` owns what every input shares: UTF-8 JSON objects, required fields
and their types.  The loaders here add only their own rules: non-empty
ids and text, unique ids and qrels, labels >= 1.
All stores are plain immutable-after-load containers; concurrent readers
are safe.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import jsonl
from .errors import RecordError, ValidationError


@dataclass(frozen=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class Query:
    id: str
    text: str
    task: str


@dataclass(frozen=True)
class Qrel:
    query_id: str
    doc_id: str
    label: int


@dataclass(frozen=True)
class RawPair:
    """A query with one or more positive passages, as found in source datasets."""

    query: str
    positives: tuple[str, ...]
    source_task: str


@dataclass(frozen=True)
class QueryPositive:
    """A single (query, positive) training pair."""

    query: str
    positive: str
    source_task: str


@dataclass
class Corpus:
    documents: dict[str, Document] = field(default_factory=dict)

    def text(self, doc_id: str) -> str:
        if doc_id not in self.documents:
            raise ValidationError(f"unknown document id '{doc_id}'")
        return self.documents[doc_id].text


def load_corpus(path) -> Corpus:
    """Load a JSONL corpus of {"id", "text"} records; other fields are ignored.

    Duplicate ids are a hard error: last-wins would silently invalidate any
    qrels pointing at the overwritten document.  Text must be non-empty
    after trimming.
    """
    return jsonl.load(path, _read_corpus)


def _read_corpus(path, records: jsonl.Records) -> Corpus:
    documents: dict[str, Document] = {}
    for lineno, record in records:
        doc_id = jsonl.string(record, "id", path, lineno, non_empty=True)
        text = jsonl.string(record, "text", path, lineno)
        if not text.strip():
            raise RecordError(path, lineno, f"document '{doc_id}' has empty text")
        if doc_id in documents:
            raise RecordError(path, lineno, f"duplicate document id '{doc_id}'")
        documents[doc_id] = Document(id=doc_id, text=text)
    return Corpus(documents=documents)


def load_queries(path) -> dict[str, Query]:
    """Load a JSONL query set of {"id", "text", "task"} records."""
    return jsonl.load(path, _read_queries)


def _read_queries(path, records: jsonl.Records) -> dict[str, Query]:
    queries: dict[str, Query] = {}
    for lineno, record in records:
        qid = jsonl.string(record, "id", path, lineno, non_empty=True)
        text = jsonl.string(record, "text", path, lineno, non_empty=True)
        task = jsonl.string(record, "task", path, lineno, non_empty=True)
        if qid in queries:
            raise RecordError(path, lineno, f"duplicate query id '{qid}'")
        queries[qid] = Query(id=qid, text=text, task=task)
    return queries


def load_qrels(path) -> list[Qrel]:
    """Load relevance judgments {"query_id", "doc_id", "label"} with label >= 1."""
    return jsonl.load(path, _read_qrels)


def _read_qrels(path, records: jsonl.Records) -> list[Qrel]:
    qrels: list[Qrel] = []
    seen: set[tuple[str, str]] = set()
    for lineno, record in records:
        qid = jsonl.string(record, "query_id", path, lineno, non_empty=True)
        did = jsonl.string(record, "doc_id", path, lineno, non_empty=True)
        label = jsonl.require(record, "label", path, lineno)
        if not isinstance(label, int) or isinstance(label, bool) or label < 1:
            raise RecordError(path, lineno, "field 'label' must be an integer >= 1")
        key = (qid, did)
        if key in seen:
            raise RecordError(path, lineno, f"duplicate qrel for {key}")
        seen.add(key)
        qrels.append(Qrel(query_id=qid, doc_id=did, label=label))
    return qrels


def load_pairs(path) -> list[RawPair]:
    """Load raw pairs {"query", "positives": [...], "task"}; positives non-empty."""
    pairs: list[RawPair] = []
    for lineno, record in jsonl.iter_records(path):
        query = jsonl.string(record, "query", path, lineno, non_empty=True)
        task = jsonl.string(record, "task", path, lineno, non_empty=True)
        positives = jsonl.require(record, "positives", path, lineno)
        if (
            not isinstance(positives, list)
            or not positives
            or not all(isinstance(p, str) for p in positives)
        ):
            raise RecordError(path, lineno, "field 'positives' must be a non-empty list of strings")
        pairs.append(RawPair(query=query, positives=tuple(positives), source_task=task))
    return pairs


def expand_pairs(pairs: Iterable[RawPair]) -> Iterator[QueryPositive]:
    """Split each multi-positive pair into one record per positive.

    A query with positives [p1, p2] becomes two training pairs (query, p1)
    and (query, p2), in the original positive order.  Text is never altered.
    """
    for pair in pairs:
        for positive in pair.positives:
            yield QueryPositive(query=pair.query, positive=positive, source_task=pair.source_task)


def dedup_key(query: str, positive: str) -> tuple[str, str]:
    """Normalized identity of a (query, positive) pair.

    Unicode NFC plus leading/trailing whitespace trim on both sides;
    case-preserving so semantically distinct casings are never merged.
    """
    return (
        unicodedata.normalize("NFC", query).strip(),
        unicodedata.normalize("NFC", positive).strip(),
    )


def dedup(records: Iterable[QueryPositive]) -> list[QueryPositive]:
    """Drop records whose normalized (query, positive) pair occurred before.

    Keeps the first occurrence verbatim and preserves relative order, so the
    output is always a subsequence of the input and the operation is
    idempotent.
    """
    seen: set[tuple[str, str]] = set()
    kept: list[QueryPositive] = []
    for record in records:
        key = dedup_key(record.query, record.positive)
        if key in seen:
            continue
        seen.add(key)
        kept.append(record)
    return kept


def load_query_positives(path) -> list[QueryPositive]:
    """Load expanded pairs {"query", "positive", "task"} from JSONL."""
    records: list[QueryPositive] = []
    for lineno, record in jsonl.iter_records(path):
        query = jsonl.string(record, "query", path, lineno, non_empty=True)
        positive = jsonl.string(record, "positive", path, lineno, non_empty=True)
        task = jsonl.string(record, "task", path, lineno, non_empty=True)
        records.append(QueryPositive(query=query, positive=positive, source_task=task))
    return records


def save_query_positives(path, records: Iterable[QueryPositive]) -> int:
    return jsonl.write_records(
        path,
        (
            {"query": r.query, "positive": r.positive, "task": r.source_task}
            for r in records
        ),
    )
