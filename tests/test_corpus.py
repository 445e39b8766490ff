"""Corpus ingestion, pair expansion, and deduplication."""

import random

import pytest

from embkit.corpus import (
    Document,
    QueryPositive,
    RawPair,
    dedup,
    expand_pairs,
    load_corpus,
    load_pairs,
    load_qrels,
    load_queries,
    load_query_positives,
    save_query_positives,
)
from embkit.errors import RecordError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCorpus:
    def test_three_well_formed_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [
            '{"id": "d1", "text": "alpha"}',
            '{"id": "d2", "text": "beta", "title": 7}',
            '{"id": "d3", "text": "gamma"}',
        ])
        corpus = load_corpus(path)
        assert len(corpus.documents) == 3
        assert corpus.text("d2") == "beta"
        # Fields other than id and text, such as a title of any type, are ignored.
        assert corpus.documents["d2"] == Document(id="d2", text="beta")

    def test_empty_text_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [
            '{"id": "d1", "text": "alpha"}',
            '{"id": "d2", "text": "   "}',
        ])
        with pytest.raises(RecordError, match=r":2:"):
            load_corpus(path)

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [
            '{"id": "d1", "text": "alpha"}',
            '{"id": "d1", "text": "beta"}',
        ])
        with pytest.raises(RecordError, match="d1"):
            load_corpus(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, ['{"id": "d1", "text": "alpha"}', "{not json"])
        with pytest.raises(RecordError, match=r":2:"):
            load_corpus(path)

    def test_deterministic_across_reads(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [
            '{"id": "d2", "text": "beta"}',
            '{"id": "d1", "text": "alpha"}',
        ])
        first = load_corpus(path)
        second = load_corpus(path)
        assert list(first.documents) == list(second.documents) == ["d2", "d1"]


class TestLoadOthers:
    def test_queries_roundtrip_and_duplicate(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        write_lines(path, [
            '{"id": "q1", "text": "alpha", "task": "MSMARCO"}',
            '{"id": "q1", "text": "beta", "task": "MSMARCO"}',
        ])
        with pytest.raises(RecordError, match="q1"):
            load_queries(path)

    def test_qrels_label_must_be_positive_int(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        write_lines(path, ['{"query_id": "q1", "doc_id": "d1", "label": 0}'])
        with pytest.raises(RecordError, match="label"):
            load_qrels(path)

    def test_qrels_ok(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        write_lines(path, [
            '{"query_id": "q1", "doc_id": "d1", "label": 1}',
            '{"query_id": "q1", "doc_id": "d2", "label": 3}',
        ])
        qrels = load_qrels(path)
        assert [(r.query_id, r.doc_id, r.label) for r in qrels] == [
            ("q1", "d1", 1), ("q1", "d2", 3),
        ]

    def test_pairs_require_nonempty_positives(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, ['{"query": "A", "positives": [], "task": "MSMARCO"}'])
        with pytest.raises(RecordError, match="positives"):
            load_pairs(path)


class TestExpandPairs:
    def test_two_positives_become_two_records(self):
        pairs = [RawPair(query="A", positives=("A1", "A2"), source_task="MSMARCO")]
        out = list(expand_pairs(pairs))
        assert out == [
            QueryPositive(query="A", positive="A1", source_task="MSMARCO"),
            QueryPositive(query="A", positive="A2", source_task="MSMARCO"),
        ]

    def test_empty_input(self):
        assert list(expand_pairs([])) == []

    def test_counts_sum_over_positives(self):
        pairs = [
            RawPair(query="a", positives=("p",), source_task="t"),
            RawPair(query="b", positives=("p", "q"), source_task="t"),
            RawPair(query="c", positives=("p", "q", "r"), source_task="t"),
        ]
        out = list(expand_pairs(pairs))
        assert len(out) == 6
        assert [r.positive for r in out] == ["p", "p", "q", "p", "q", "r"]


class TestDedup:
    def qp(self, q, p):
        return QueryPositive(query=q, positive=p, source_task="t")

    def test_exact_duplicate_removed(self):
        records = [self.qp("q", "p1"), self.qp("q", "p1")]
        assert dedup(records) == [self.qp("q", "p1")]

    def test_distinct_positives_kept(self):
        records = [self.qp("q", "p1"), self.qp("q", "p2")]
        assert dedup(records) == records

    def test_whitespace_normalization(self):
        records = [self.qp("Q ", "p"), self.qp("Q", "p")]
        out = dedup(records)
        assert out == [self.qp("Q ", "p")]  # first occurrence kept verbatim

    def test_nfc_normalization(self):
        # e + combining acute vs precomposed e-acute normalize to the same key.
        records = [self.qp("café", "p"), self.qp("café", "p")]
        assert len(dedup(records)) == 1

    def test_case_preserved_not_merged(self):
        records = [self.qp("Q", "p"), self.qp("q", "p")]
        assert dedup(records) == records

    def test_idempotent_and_subsequence_on_random_fixture(self):
        rng = random.Random(42)
        records = [
            self.qp(f"q{rng.randrange(20)}", f"p{rng.randrange(20)}")
            for _ in range(1000)
        ]
        once = dedup(records)
        assert dedup(once) == once
        # Subsequence check: every kept record appears in order in the input.
        it = iter(records)
        assert all(record in it for record in once)


def test_query_positive_file_roundtrip(tmp_path):
    path = tmp_path / "qp.jsonl"
    records = [
        QueryPositive(query="a", positive="p", source_task="MSMARCO"),
        QueryPositive(query="b", positive="q", source_task="SQuAD"),
    ]
    save_query_positives(path, records)
    assert load_query_positives(path) == records
