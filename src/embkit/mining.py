"""Adaptive margin-based hard-negative mining.

A negative candidate is admissible only while its teacher score stays at or
below a fixed fraction of the positive's score:

    threshold = positive_score * margin

Candidates scoring above the threshold are too close to the positive and
are excluded as likely false negatives; the boundary itself is inclusive
("maximum allowable" means allowed).  A labelled positive of the query is a
certain false negative: when the query has several qrels, every one of them
is dropped from the candidates of each, whatever it scores, while the
threshold still comes from the positive being mined.  The margin rule needs a
positive score above zero, which fused scores always have; a raw reranker
score at or below zero is rejected.  From the survivors, the top_k best
are kept and a seeded random subset of num_negatives is drawn to promote
diversity without sacrificing reproducibility.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable

from . import jsonl
from .errors import ValidationError, is_integer, number_problems
from .fusion import TeacherScoreSet

SCORE_SOURCE_FUSED = "fused"
SCORE_SOURCE_RERANKER = "reranker"


@dataclass(frozen=True)
class MiningConfig:
    """Margin-filter and sampler settings; every value is checked at construction."""

    margin: float = 0.95
    top_k: int = 100
    num_negatives: int = 7
    seed: int = 0

    def __post_init__(self):
        problems = _margin_problems(self.margin)
        for name, value in (("top_k", self.top_k), ("num_negatives", self.num_negatives)):
            if not is_integer(value) or value < 1:
                problems.append(f"{name}: must be an integer >= 1, got {value!r}")
        if (is_integer(self.top_k) and is_integer(self.num_negatives)
                and 1 <= self.top_k < self.num_negatives):
            problems.append(f"num_negatives: must not exceed top_k {self.top_k}, got {self.num_negatives}")
        if not is_integer(self.seed):
            problems.append(f"seed: must be an integer, got {self.seed!r}")
        if problems:
            raise ValidationError(*problems)


@dataclass(frozen=True)
class CandidatePool:
    """Margin-filtered negative candidates for one (query, positive) pair.

    Survivors are ordered by teacher score descending (ties by ascending
    doc id) and every survivor satisfies score <= threshold.
    """

    query_id: str
    positive_id: str
    positive_score: float
    threshold: float
    survivors: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class MinedNegatives:
    query_id: str
    positive_id: str
    positive_score: float
    threshold: float
    negatives: tuple[tuple[str, float], ...]
    shortfall: bool
    seed: int


def _margin_problems(margin) -> list[str]:
    return number_problems("margin", margin, "in (0, 1]", lambda v: 0 < v <= 1)


def margin_threshold(positive_score: float, margin: float, positive: str = "positive") -> float:
    """Maximum allowable teacher score for a negative: positive_score * margin.

    Defined for a positive score > 0 only: at or below zero the product lies
    at or above the positive.  `positive` names the positive in the error.
    """
    problems = _margin_problems(margin)
    if not positive_score > 0:
        problems.append(f"{positive}: score must be > 0 for the margin rule, got {positive_score!r}")
    if problems:
        raise ValidationError(*problems)
    return positive_score * margin


def filter_candidates(
    candidates: TeacherScoreSet,
    positive_id: str,
    margin: float,
    score_source: str = SCORE_SOURCE_FUSED,
    *,
    positives: Iterable[str] = (),
) -> CandidatePool:
    """Drop the query's positives and everything scoring above the margin threshold.

    `positives` are the query's qrel doc ids; `positive_id` is dropped even
    when they omit it.  The teacher score is the fused value by default, or
    the raw reranker score when score_source is "reranker" (candidates the
    reranker never saw are then out of consideration).  The positive's score is read from
    the candidate set, so a positive absent from it is an error.
    """
    if score_source == SCORE_SOURCE_FUSED:
        scored = candidates.fused()
    elif score_source == SCORE_SOURCE_RERANKER:
        scored = candidates.reranker()
    else:
        raise ValidationError(f"unknown score source '{score_source}'")

    if positive_id not in scored:
        raise ValidationError(
            f"positive '{positive_id}' absent from candidates for query '{candidates.query_id}'"
        )
    positive_score = scored[positive_id]

    threshold = margin_threshold(
        positive_score, margin, f"positive '{positive_id}' of query '{candidates.query_id}'")
    labelled = {positive_id, *positives}
    survivors = [
        (doc_id, score)
        for doc_id, score in scored.items()
        if doc_id not in labelled and score <= threshold
    ]
    survivors.sort(key=lambda item: (-item[1], item[0]))
    return CandidatePool(
        query_id=candidates.query_id,
        positive_id=positive_id,
        positive_score=positive_score,
        threshold=threshold,
        survivors=tuple(survivors),
    )


def subseed(seed: int, query_id: str) -> int:
    """Stable per-query seed derived from the global seed.

    Hash-based so results do not depend on thread count or the order
    queries are processed in.
    """
    digest = hashlib.sha256(f"{seed}:{query_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_negatives(pool: CandidatePool, config: MiningConfig) -> MinedNegatives:
    """Draw num_negatives survivors uniformly without replacement from the top_k.

    The draw is seeded by (config.seed, query_id); identical inputs always
    reproduce the identical sample.  When fewer than num_negatives survive,
    all of them are returned and the shortfall flag is set.
    """
    top = list(pool.survivors[: config.top_k])
    draw_seed = subseed(config.seed, pool.query_id)
    take = min(config.num_negatives, len(top))
    rng = random.Random(draw_seed)
    negatives = tuple(rng.sample(top, take))
    return MinedNegatives(
        query_id=pool.query_id,
        positive_id=pool.positive_id,
        positive_score=pool.positive_score,
        threshold=pool.threshold,
        negatives=negatives,
        shortfall=take < config.num_negatives,
        seed=draw_seed,
    )


def mine(
    candidates: TeacherScoreSet,
    positive_id: str,
    config: MiningConfig,
    score_source: str = SCORE_SOURCE_FUSED,
    *,
    positives: Iterable[str] = (),
) -> MinedNegatives:
    """Filter by margin, truncate to top_k, then sample: the full mining step.

    `positives` are the query's qrel doc ids; none of them is mined.
    """
    pool = filter_candidates(candidates, positive_id, config.margin, score_source=score_source,
                             positives=positives)
    return sample_negatives(pool, config)


def save_mined(path, mined: Iterable[MinedNegatives]) -> int:
    return jsonl.write_records(
        path,
        (
            {
                "query_id": m.query_id,
                "positive_id": m.positive_id,
                "positive_score": m.positive_score,
                "threshold": m.threshold,
                "negatives": [{"doc_id": d, "score": s} for d, s in m.negatives],
                "shortfall": m.shortfall,
                "seed": m.seed,
            }
            for m in mined
        ),
    )

