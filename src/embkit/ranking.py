"""Ranked result lists shared by the lexical, dense, reranker, and fusion stages."""

from __future__ import annotations

from dataclasses import dataclass

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


def top_n(scored: dict[str, float], n: int, channel: str) -> RankedList:
    """Rank scored docs descending, ties broken by ascending doc id, keep n."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    ordered = sorted(scored.items(), key=lambda item: (-item[1], item[0]))
    return RankedList(entries=tuple(ordered[:n]), channel=channel)
