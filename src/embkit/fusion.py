"""Reciprocal Rank Fusion and soft teacher-label assembly.

RRF combines rankings purely through rank positions: a document ranked r
(1-based) in a list contributes 1/(k + r), and the contributions are summed
across all lists that contain it.  Documents absent from a list get no term
for that list rather than a penalty rank, which keeps scores comparable
across candidate pools of different sizes.  The constant k defaults to 60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import jsonl
from .corpus import Query
from .errors import RecordError, ValidationError
from .ranking import (
    CHANNEL_FUSED,
    CHANNEL_LEXICAL,
    CHANNEL_RERANKER,
    CHANNEL_SEMANTIC,
    RankedList,
)

DEFAULT_RRF_K = 60.0


@dataclass(frozen=True)
class ChannelEvidence:
    """Raw score and 1-based rank a document had in one input channel."""

    score: float
    rank: int


@dataclass(frozen=True)
class Candidate:
    doc_id: str
    fused_score: float
    per_channel: Mapping[str, ChannelEvidence] | None = None


@dataclass(frozen=True)
class TeacherScoreSet:
    """Per-query soft labels: fused scores plus per-channel audit evidence.

    Candidates are sorted by fused score descending, ties by ascending doc
    id, and every fused score is strictly positive (each candidate appears
    in at least one input ranking).
    """

    query_id: str
    candidates: tuple[Candidate, ...]

    def __post_init__(self):
        previous: tuple[float, str] | None = None
        for cand in self.candidates:
            if cand.fused_score <= 0.0:
                raise ValidationError(
                    f"candidate '{cand.doc_id}' has non-positive fused score"
                )
            key = (-cand.fused_score, cand.doc_id)
            if previous is not None and key < previous:
                raise ValidationError("candidates must be sorted by fused score desc, id asc")
            previous = key

    def fused(self) -> dict[str, float]:
        return {c.doc_id: c.fused_score for c in self.candidates}

    def channel_scores(self, channel: str) -> dict[str, float]:
        """Raw scores of candidates present in one channel."""
        out: dict[str, float] = {}
        for cand in self.candidates:
            if cand.per_channel and channel in cand.per_channel:
                out[cand.doc_id] = cand.per_channel[channel].score
        return out


def rrf_fuse(lists: Sequence[RankedList], k: float = DEFAULT_RRF_K) -> RankedList:
    """Fuse rankings by summing 1/(k + rank) per document across lists.

    The result depends only on rank positions, never on the raw scores
    inside the inputs.  Each document's terms are summed exactly rounded
    (math.fsum), so the result is bitwise invariant to the order of the lists.
    """
    if not lists:
        raise ValidationError("rrf_fuse needs at least one input list")
    if not k > 0:
        raise ValidationError(f"k must be > 0, got {k}")
    terms: dict[str, list[float]] = {}
    for ranked in lists:
        for rank, (doc_id, _) in enumerate(ranked.entries, start=1):
            terms.setdefault(doc_id, []).append(1.0 / (k + rank))
    scores = {doc_id: math.fsum(doc_terms) for doc_id, doc_terms in terms.items()}
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return RankedList(entries=tuple(ordered), channel=CHANNEL_FUSED)


def build_teacher_scores(
    query: Query | str,
    lex: RankedList,
    sem: RankedList,
    rer: RankedList,
    k: float = DEFAULT_RRF_K,
) -> TeacherScoreSet:
    """Fuse the three retrieval channels into soft labels for one query.

    Fused scores equal rrf_fuse over (lex, sem, rer); the raw score and rank
    a candidate had in each channel are retained for audit.
    """
    for ranked, channel in ((lex, CHANNEL_LEXICAL), (sem, CHANNEL_SEMANTIC), (rer, CHANNEL_RERANKER)):
        if ranked.channel != channel:
            raise ValidationError(
                f"expected a {channel} list, got channel '{ranked.channel}'"
            )
    fused = rrf_fuse([lex, sem, rer], k)
    evidence: dict[str, dict[str, ChannelEvidence]] = {}
    for ranked in (lex, sem, rer):
        for rank, (doc_id, score) in enumerate(ranked.entries, start=1):
            evidence.setdefault(doc_id, {})[ranked.channel] = ChannelEvidence(score=score, rank=rank)
    query_id = query.id if isinstance(query, Query) else str(query)
    candidates = tuple(
        Candidate(doc_id=doc_id, fused_score=score, per_channel=evidence[doc_id])
        for doc_id, score in fused.entries
    )
    return TeacherScoreSet(query_id=query_id, candidates=candidates)


def save_teacher_scores(path, sets: Iterable[TeacherScoreSet]) -> int:
    """Persist one query per line: {"query_id", "candidates": [{"doc_id", "score"}, ...]}."""
    return jsonl.write_records(
        path,
        (
            {
                "query_id": ts.query_id,
                "candidates": [
                    {"doc_id": c.doc_id, "score": c.fused_score} for c in ts.candidates
                ],
            }
            for ts in sets
        ),
    )


def load_teacher_scores(path) -> list[TeacherScoreSet]:
    sets: list[TeacherScoreSet] = []
    for lineno, record in jsonl.iter_records(path):
        qid = jsonl.require(record, "query_id", path, lineno)
        raw = jsonl.require(record, "candidates", path, lineno)
        if not isinstance(raw, list):
            raise RecordError(path, lineno, "'candidates' must be a list")
        try:
            candidates = tuple(
                Candidate(doc_id=str(c["doc_id"]), fused_score=float(c["score"]))
                for c in raw
            )
            sets.append(TeacherScoreSet(query_id=str(qid), candidates=candidates))
        except (KeyError, TypeError, ValidationError) as exc:
            raise RecordError(path, lineno, f"invalid teacher score set: {exc}") from exc
    return sets
