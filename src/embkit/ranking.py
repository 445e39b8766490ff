"""Ranked result lists shared by the lexical, dense, reranker, fusion and mining stages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

CHANNEL_LEXICAL = "lexical"
CHANNEL_SEMANTIC = "semantic"
CHANNEL_RERANKER = "reranker"
CHANNEL_FUSED = "fused"

_CHANNELS = (CHANNEL_LEXICAL, CHANNEL_SEMANTIC, CHANNEL_RERANKER, CHANNEL_FUSED)


@dataclass(frozen=True)
class RankedList:
    """An ordered (doc_id, score) list produced by one scorer or by fusion.

    Scores are non-increasing and doc ids unique; both are enforced at
    construction so downstream rank arithmetic can trust positions.
    """

    entries: tuple[tuple[str, float], ...]
    channel: str

    def __post_init__(self):
        if self.channel not in _CHANNELS:
            raise ValidationError(f"unknown channel '{self.channel}'")
        object.__setattr__(self, "entries", tuple((str(d), float(s)) for d, s in self.entries))
        seen: set[str] = set()
        previous = None
        for doc_id, score in self.entries:
            if doc_id in seen:
                raise ValidationError(f"duplicate doc id '{doc_id}' in {self.channel} list")
            seen.add(doc_id)
            if previous is not None and score > previous:
                raise ValidationError(
                    f"scores must be non-increasing in {self.channel} list "
                    f"(saw {score} after {previous})"
                )
            previous = score

    def __len__(self) -> int:
        return len(self.entries)

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.entries]

    def scores(self) -> dict[str, float]:
        return dict(self.entries)


def top_n(ids: Sequence[str], scores, n: int, channel: str) -> RankedList:
    """Rank ids by descending score, ties broken by ascending id, keep n.

    This is the one place that order is defined: retrieval, fusion and the
    margin filter all rank through it.  `scores` is aligned with `ids`.  A
    partial sort finds the n-th largest score and only the ids scoring at or
    above it are fully sorted, so an id tied at the cut competes on id
    exactly as in a sort of every id.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    nan = np.flatnonzero(np.isnan(scores))
    if len(nan):
        raise ValidationError(f"score of '{ids[nan[0]]}' is NaN in {channel} list")
    keep = np.arange(len(scores))
    if n < len(scores):
        cut = np.partition(scores, len(scores) - n)[len(scores) - n]
        keep = np.flatnonzero(scores >= cut)
    ordered = sorted(zip((ids[i] for i in keep.tolist()), scores[keep].tolist()),
                     key=lambda item: (-item[1], item[0]))
    return RankedList(entries=tuple(ordered[:n]), channel=channel)
