"""Reciprocal rank fusion against a brute-force oracle, plus rank-only properties."""

import json
import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from embkit.corpus import Query
from embkit.errors import ValidationError
from embkit.fusion import (
    TeacherScoreSet,
    build_teacher_scores,
    rrf_fuse,
    save_teacher_scores,
)
from embkit.ranking import RankedList, top_n


def ranked(ids_scores, channel="lexical"):
    return RankedList(entries=tuple(ids_scores), channel=channel)


def from_ids(ids, channel="lexical"):
    # Descending synthetic scores; RRF must ignore the values anyway.
    return ranked([(doc, float(len(ids) - i)) for i, doc in enumerate(ids)], channel)


def brute_force_rrf(lists_of_ids, k):
    """Independent transcription: sum 1/(k + rank) over lists containing the doc,
    rounded once from the exact sum."""
    terms = {}
    for ids in lists_of_ids:
        for rank, doc in enumerate(ids, start=1):
            terms.setdefault(doc, []).append(1.0 / (k + rank))
    scores = {doc: math.fsum(doc_terms) for doc, doc_terms in terms.items()}
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


class TestRrfFuse:
    def test_single_list_scores(self):
        fused = rrf_fuse([from_ids(["a", "b"])], k=60)
        assert list(fused.entries) == [("a", 1 / 61), ("b", 1 / 62)]

    def test_ranked_1_2_1_across_three_lists(self):
        lists = [
            from_ids(["d", "x"], "lexical"),
            from_ids(["y", "d"], "semantic"),
            from_ids(["d", "z"], "reranker"),
        ]
        fused = rrf_fuse(lists, k=60)
        assert fused.scores()["d"] == pytest.approx(1 / 61 + 1 / 62 + 1 / 61, abs=1e-12)
        assert fused.scores()["d"] == pytest.approx(0.048916, abs=1e-6)

    def test_absent_from_other_lists_contributes_nothing(self):
        lists = [
            from_ids(["a"], "lexical"),
            from_ids(["b"], "semantic"),
            from_ids(["c"], "reranker"),
        ]
        fused = rrf_fuse(lists, k=60)
        assert fused.scores() == {"a": 1 / 61, "b": 1 / 61, "c": 1 / 61}

    def test_empty_collection_rejected(self):
        with pytest.raises(ValidationError):
            rrf_fuse([], k=60)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValidationError):
            rrf_fuse([from_ids(["a"])], k=0)

    def test_rank_only_dependence(self):
        ids = ["a", "b", "c"]
        low = ranked([("a", 3.0), ("b", 2.0), ("c", 1.0)])
        high = ranked([("a", 3000.0), ("b", 17.5), ("c", 0.001)])
        assert rrf_fuse([low]) == rrf_fuse([high])
        assert rrf_fuse([from_ids(ids)]) == rrf_fuse([low])

    def test_permutation_invariance(self):
        lists = [
            from_ids(["a", "b", "c"], "lexical"),
            from_ids(["c", "a"], "semantic"),
            from_ids(["b"], "reranker"),
        ]
        forward = rrf_fuse(lists)
        backward = rrf_fuse(list(reversed(lists)))
        assert forward == backward

    def test_score_bounds(self):
        rng = random.Random(3)
        docs = [f"d{i}" for i in range(12)]
        for _ in range(50):
            lists = []
            for channel in ("lexical", "semantic", "reranker"):
                ids = rng.sample(docs, rng.randint(1, len(docs)))
                lists.append(from_ids(ids, channel))
            fused = rrf_fuse(lists, k=60)
            for _, score in fused.entries:
                assert 0.0 < score <= 3 / 61

    def test_improving_rank_never_decreases_score(self):
        base = rrf_fuse([from_ids(["a", "b", "c"]), from_ids(["x", "b"], "semantic")])
        better = rrf_fuse([from_ids(["b", "a", "c"]), from_ids(["x", "b"], "semantic")])
        assert better.scores()["b"] > base.scores()["b"]

    def test_matches_brute_force_on_random_fixtures(self):
        rng = random.Random(21)
        docs = [f"d{i}" for i in range(9)]
        for _ in range(100):
            id_lists = [
                rng.sample(docs, rng.randint(1, len(docs)))
                for _ in range(rng.randint(1, 4))
            ]
            fused = rrf_fuse([from_ids(ids) for ids in id_lists], k=60)
            assert list(fused.entries) == brute_force_rrf(id_lists, 60)


def exact(fused):
    """A RankedList with every score spelled out bit for bit."""
    return fused.channel, [(doc_id, score.hex()) for doc_id, score in fused.entries]


@settings(max_examples=200, deadline=None)
@given(
    id_lists=st.lists(
        st.lists(st.sampled_from([f"d{i}" for i in range(40)]), unique=True, min_size=1),
        min_size=2, max_size=4,
    ),
    k=st.floats(min_value=0.5, max_value=1000.0),
)
def test_rrf_fuse_bitwise_invariant_under_every_list_permutation(id_lists, k):
    lists = [from_ids(ids) for ids in id_lists]
    expected = exact(rrf_fuse(lists, k))
    for order in permutations(lists):
        assert exact(rrf_fuse(list(order), k)) == expected


class TestBuildTeacherScores:
    def query(self):
        return Query(id="q1", text="anything", task="MSMARCO")

    def test_agreement_on_single_doc(self):
        ts = build_teacher_scores(
            self.query(),
            from_ids(["d"], "lexical"),
            from_ids(["d"], "semantic"),
            from_ids(["d"], "reranker"),
            k=60,
        )
        assert ts.candidates[0].fused_score == pytest.approx(3 / 61, abs=1e-15)

    def test_disjoint_channels(self):
        ts = build_teacher_scores(
            self.query(),
            from_ids(["a"], "lexical"),
            from_ids(["b"], "semantic"),
            from_ids(["c"], "reranker"),
            k=60,
        )
        assert ts.fused() == {"a": 1 / 61, "b": 1 / 61, "c": 1 / 61}

    def test_channel_evidence_retained(self):
        ts = build_teacher_scores(
            self.query(),
            ranked([("a", 2.0), ("b", 1.0)], "lexical"),
            ranked([("b", 0.9)], "semantic"),
            ranked([("a", 7.0), ("b", 5.0)], "reranker"),
            k=60,
        )
        assert {c.doc_id: c.reranker_score for c in ts.candidates} == {"a": 7.0, "b": 5.0}
        assert ts.reranker() == {"a": 7.0, "b": 5.0}

    def test_mistagged_channel_rejected(self):
        with pytest.raises(ValidationError, match="semantic"):
            build_teacher_scores(
                self.query(),
                from_ids(["a"], "lexical"),
                from_ids(["b"], "lexical"),
                from_ids(["c"], "reranker"),
            )

    def test_five_doc_fixture_matches_brute_force(self):
        lex_ids = ["d1", "d3", "d5", "d2"]
        sem_ids = ["d2", "d1", "d4"]
        rer_ids = ["d1", "d2", "d3", "d4", "d5"]
        ts = build_teacher_scores(
            self.query(),
            from_ids(lex_ids, "lexical"),
            from_ids(sem_ids, "semantic"),
            from_ids(rer_ids, "reranker"),
            k=60,
        )
        expected = brute_force_rrf([lex_ids, sem_ids, rer_ids], 60)
        assert [(c.doc_id, c.fused_score) for c in ts.candidates] == expected


CHANNEL_SCORES = st.dictionaries(
    st.sampled_from([f"d{i}" for i in range(12)]), st.floats(allow_nan=False, allow_infinity=False), min_size=1,
)


@settings(max_examples=200, deadline=None)
@given(lex=CHANNEL_SCORES, sem=CHANNEL_SCORES, rer=CHANNEL_SCORES)
def test_teacher_set_carries_fused_and_reranker_scores(lex, sem, rer):
    lists = [top_n(list(scores), list(scores.values()), len(scores), channel)
             for scores, channel in ((lex, "lexical"), (sem, "semantic"), (rer, "reranker"))]
    ts = build_teacher_scores("q1", *lists)
    assert ts.reranker() == lists[2].scores()
    assert ts.fused() == rrf_fuse(lists).scores()


def test_teacher_score_set_ordering_enforced():
    from embkit.fusion import Candidate

    with pytest.raises(ValidationError, match="sorted"):
        TeacherScoreSet(
            query_id="q",
            candidates=(Candidate("a", 0.1), Candidate("b", 0.5)),
        )
    with pytest.raises(ValidationError, match="non-positive"):
        TeacherScoreSet(query_id="q", candidates=(Candidate("a", 0.0),))


def test_teacher_scores_file_repeated_doc_id_rejected(tmp_path):
    from embkit.fusion import Candidate

    path = tmp_path / "teacher.jsonl"
    with pytest.raises(ValidationError, match="candidate 'a' appears twice"):
        save_teacher_scores(path, [TeacherScoreSet(
            query_id="q1", candidates=(Candidate("a", 0.5), Candidate("a", 0.5)),
        )])
    assert not path.exists()


def test_teacher_scores_file_roundtrip(tmp_path):
    q = Query(id="q1", text="t", task="MSMARCO")
    ts = build_teacher_scores(
        q,
        from_ids(["a", "b"], "lexical"),
        from_ids(["b"], "semantic"),
        from_ids(["a"], "reranker"),
    )
    path = tmp_path / "teacher.jsonl"
    assert save_teacher_scores(path, [ts]) == 1
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [{
        "query_id": "q1",
        "candidates": [{"doc_id": c.doc_id, "score": c.fused_score} for c in ts.candidates],
    }]
