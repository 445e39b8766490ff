"""Margin threshold, candidate filtering, and seeded negative sampling."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from embkit.errors import ValidationError
from embkit.fusion import Candidate, TeacherScoreSet
from embkit.mining import (
    MiningConfig,
    filter_candidates,
    margin_threshold,
    mine,
    sample_negatives,
    subseed,
)


def teacher_set(query_id="q1", **scores):
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return TeacherScoreSet(
        query_id=query_id,
        candidates=tuple(Candidate(doc_id=d, fused_score=s) for d, s in ordered),
    )


class TestMarginThreshold:
    def test_hand_case(self):
        assert margin_threshold(0.8, 0.95) == 0.76

    def test_identity_margin(self):
        assert margin_threshold(0.37, 1.0) == 0.37

    def test_larger_scale(self):
        assert margin_threshold(10.0, 0.95) == 9.5

    @pytest.mark.parametrize("positive_score", [0.0, -2.0])
    def test_positive_at_or_below_zero_rejected(self, positive_score):
        # positive_score * margin would lie at or above the positive itself.
        with pytest.raises(ValidationError, match="positive: score must be > 0"):
            margin_threshold(positive_score, 0.95)

    def test_margin_range_enforced(self):
        with pytest.raises(ValidationError):
            margin_threshold(1.0, 0.0)
        with pytest.raises(ValidationError):
            margin_threshold(1.0, 1.5)


class TestFilterCandidates:
    def test_hand_case_excludes_above_threshold(self):
        ts = teacher_set(d1=0.9, d2=0.7, d3=0.5, p=0.8)
        pool = filter_candidates(ts, "p", margin=0.95)
        # threshold = 0.76; d1 at 0.9 is too close to the positive.
        assert [d for d, _ in pool.survivors] == ["d2", "d3"]
        assert pool.threshold == 0.76
        assert pool.positive_score == 0.8

    def test_boundary_score_retained(self):
        ts = teacher_set(p=0.8, d1=0.76, d2=0.5)
        pool = filter_candidates(ts, "p", margin=0.95)
        assert [d for d, _ in pool.survivors] == ["d1", "d2"]

    def test_positive_always_removed(self):
        ts = teacher_set(p=0.2, d1=0.1)
        pool = filter_candidates(ts, "p", margin=1.0)
        assert all(d != "p" for d, _ in pool.survivors)

    def test_positive_absent_without_score_is_error(self):
        ts = teacher_set(d1=0.9)
        with pytest.raises(ValidationError, match="positive 'p' absent from candidates for query 'q1'"):
            filter_candidates(ts, "p", margin=0.95)

    def test_widening_margin_never_shrinks_survivors(self):
        rng = random.Random(5)
        for _ in range(50):
            scores = {f"d{i}": rng.uniform(0, 1) for i in range(15)}
            scores["p"] = rng.uniform(0.3, 1.0)
            ts = teacher_set(**scores)
            survivors = [
                {d for d, _ in filter_candidates(ts, "p", margin=m).survivors}
                for m in (0.5, 0.7, 0.9, 1.0)
            ]
            for smaller, larger in zip(survivors, survivors[1:]):
                assert smaller <= larger

    def test_reranker_score_source(self):
        candidates = (
            Candidate("p", 0.04, reranker_score=9.0),
            Candidate("d1", 0.03, reranker_score=8.9),
            Candidate("d2", 0.02, reranker_score=2.0),
            Candidate("d3", 0.01),  # never seen by the reranker
        )
        ts = TeacherScoreSet(query_id="q1", candidates=candidates)
        pool = filter_candidates(ts, "p", margin=0.95, score_source="reranker")
        # threshold = 8.55; d1 at 8.9 excluded, d3 has no reranker score at all.
        assert [d for d, _ in pool.survivors] == [("d2")]
        assert pool.threshold == pytest.approx(9.0 * 0.95)


    def test_negative_reranker_positive_names_query_and_positive(self):
        candidates = (
            Candidate("d1", 0.03, reranker_score=-1.95),
            Candidate("p", 0.02, reranker_score=-2.0),
            Candidate("d2", 0.01, reranker_score=-5.0),
        )
        ts = TeacherScoreSet(query_id="q1", candidates=candidates)
        config = MiningConfig(margin=0.95, top_k=2, num_negatives=1)
        with pytest.raises(ValidationError, match="positive 'p' of query 'q1': score must be > 0"):
            mine(ts, "p", config, score_source="reranker")


@settings(max_examples=300, deadline=None)
@given(
    scores=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=12),
    margin=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_no_mined_negative_scores_above_its_positive(scores, margin):
    # Reranker scores of any sign; the positive is the first candidate.
    ids = [f"d{i:02d}" for i in range(len(scores))]
    candidates = tuple(
        Candidate(doc_id, 1.0 / (60 + i), reranker_score=score)
        for i, (doc_id, score) in enumerate(zip(ids, scores))
    )
    ts = TeacherScoreSet(query_id="q1", candidates=candidates)
    config = MiningConfig(margin=margin, top_k=len(ids), num_negatives=len(ids) - 1)
    try:
        mined = mine(ts, ids[0], config, score_source="reranker")
    except ValidationError:
        assert not scores[0] > 0
        return
    assert all(score <= scores[0] for _, score in mined.negatives)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(st.floats(min_value=1e-6, max_value=1.0),
                            st.floats(allow_nan=False, allow_infinity=False), st.booleans()),
                  min_size=1, max_size=12),
    margin=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    score_source=st.sampled_from(["fused", "reranker"]),
)
def test_no_mined_negative_is_a_qrel_positive_of_its_query(rows, margin, score_source):
    # Each row is (fused score, reranker score, labelled positive?); the
    # first row is always labelled, so every query has a positive to mine.
    rows = sorted(rows, key=lambda row: -row[0])
    ids = [f"d{i:02d}" for i in range(len(rows))]
    candidates = tuple(Candidate(doc_id, fused, reranker_score=reranker)
                       for doc_id, (fused, reranker, _) in zip(ids, rows))
    ts = TeacherScoreSet(query_id="q1", candidates=candidates)
    positives = [doc_id for i, (doc_id, (_, _, labelled)) in enumerate(zip(ids, rows)) if labelled or i == 0]
    config = MiningConfig(margin=margin, top_k=len(ids), num_negatives=len(ids))
    for positive_id in positives:
        try:
            mined = mine(ts, positive_id, config, score_source=score_source, positives=positives)
        except ValidationError:
            assert score_source == "reranker"
            continue
        assert not {doc_id for doc_id, _ in mined.negatives} & set(positives)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.dictionaries(st.text("abxy", min_size=1, max_size=3),
                         st.tuples(st.sampled_from([0.01, 0.02, 0.03]), st.sampled_from([None, 1.0, 2.0, 3.0])),
                         min_size=1, max_size=12),
    margin=st.sampled_from([0.5, 2 / 3, 1.0]),
    score_source=st.sampled_from(["fused", "reranker"]),
    data=st.data(),
)
def test_tied_survivors_rank_by_score_then_doc_id(rows, margin, score_source, data):
    # Scores come from three values, so most pools hold ties; in reranker mode
    # the candidates arrive in fused order, which the survivors must not keep.
    ordered = sorted(rows.items(), key=lambda row: (-row[1][0], row[0]))
    ts = TeacherScoreSet("q1", tuple(Candidate(d, fused, reranker_score=rer) for d, (fused, rer) in ordered))
    scored = ts.fused() if score_source == "fused" else ts.reranker()
    assume(scored)
    positive_id = data.draw(st.sampled_from(sorted(scored)))
    positives = data.draw(st.lists(st.sampled_from(sorted(rows)), max_size=2))
    threshold = scored[positive_id] * margin
    kept = [(d, s) for d, s in scored.items() if d not in {positive_id, *positives} and s <= threshold]
    pool = filter_candidates(ts, positive_id, margin, score_source=score_source, positives=positives)
    assert pool.survivors == tuple(sorted(kept, key=lambda e: (-e[1], e[0])))


def test_other_positive_below_the_threshold_is_not_mined():
    ts = teacher_set(p=1.0, p2=0.5, d1=0.4)
    config = MiningConfig(margin=0.95, top_k=5, num_negatives=2)
    assert {d for d, _ in mine(ts, "p", config).negatives} == {"p2", "d1"}
    mined = mine(ts, "p", config, positives=["p", "p2"])
    assert mined.negatives == (("d1", 0.4),)
    assert mined.threshold == 0.95


class TestSampleNegatives:
    def config(self, **kwargs):
        defaults = dict(margin=0.95, top_k=10, num_negatives=7, seed=1234)
        defaults.update(kwargs)
        return MiningConfig(**defaults)

    def big_pool(self, n=20):
        ts = teacher_set(p=1.0, **{f"d{i:02d}": 0.9 - i * 0.01 for i in range(n)})
        return filter_candidates(ts, "p", margin=0.95)

    def test_sample_from_top_k_reproducible(self):
        pool = self.big_pool(20)
        config = self.config()
        first = sample_negatives(pool, config)
        second = sample_negatives(pool, config)
        assert first == second
        assert len(first.negatives) == 7
        assert not first.shortfall
        top_ten = {d for d, _ in pool.survivors[:10]}
        assert {d for d, _ in first.negatives} <= top_ten

    def test_shortfall_returns_all(self):
        ts = teacher_set(p=1.0, **{f"d{i}": 0.5 - i * 0.01 for i in range(5)})
        pool = filter_candidates(ts, "p", margin=0.95)
        mined = sample_negatives(pool, self.config())
        assert len(mined.negatives) == 5
        assert mined.shortfall

    def test_empty_pool_flags_shortfall(self):
        ts = teacher_set(p=0.5, d1=0.9)  # d1 above threshold, nothing survives
        pool = filter_candidates(ts, "p", margin=0.95)
        mined = sample_negatives(pool, self.config())
        assert mined.negatives == ()
        assert mined.shortfall

    def test_invariants_hold_across_100_seeds(self):
        pool = self.big_pool(20)
        samples = set()
        for seed in range(100):
            mined = sample_negatives(pool, self.config(seed=seed))
            ids = [d for d, _ in mined.negatives]
            assert len(ids) == len(set(ids)) == 7
            assert pool.positive_id not in ids
            for _, score in mined.negatives:
                assert score <= mined.threshold
            assert mined.threshold == pool.positive_score * 0.95
            samples.add(tuple(ids))
        assert len(samples) > 1  # different seeds really do vary the draw

    def test_subseed_depends_on_query_and_seed(self):
        assert subseed(1, "q1") != subseed(1, "q2")
        assert subseed(1, "q1") != subseed(2, "q1")
        assert subseed(1, "q1") == subseed(1, "q1")

    def test_determinism_independent_of_processing_order(self):
        pools = {f"q{i}": self.big_pool(15) for i in range(5)}
        config = self.config()

        def run(order):
            out = {}
            for qid in order:
                pool = pools[qid]
                pool = type(pool)(
                    query_id=qid,
                    positive_id=pool.positive_id,
                    positive_score=pool.positive_score,
                    threshold=pool.threshold,
                    survivors=pool.survivors,
                )
                out[qid] = sample_negatives(pool, config)
            return out

        forward = run(sorted(pools))
        backward = run(sorted(pools, reverse=True))
        assert forward == backward


class TestMiningConfig:
    def test_num_negatives_bounded_by_top_k(self):
        with pytest.raises(ValidationError, match="top_k"):
            MiningConfig(margin=0.95, top_k=5, num_negatives=7, seed=0)

    def test_margin_range(self):
        with pytest.raises(ValidationError, match="margin"):
            MiningConfig(margin=1.5, top_k=10, num_negatives=7, seed=0)

    def test_fractional_top_k_rejected(self):
        with pytest.raises(ValidationError, match="top_k: must be an integer >= 1, got 10.5"):
            MiningConfig(top_k=10.5, num_negatives=2)


def test_mine_composes_filter_and_sample():
    ts = teacher_set(p=1.0, **{f"d{i:02d}": 0.9 - i * 0.02 for i in range(12)})
    config = MiningConfig(margin=0.95, top_k=8, num_negatives=4, seed=7)
    mined = mine(ts, "p", config)
    assert len(mined.negatives) == 4
    assert all(score <= mined.threshold for _, score in mined.negatives)
    assert mined.seed == subseed(7, "q1")

