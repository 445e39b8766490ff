"""Semantic search channel: fixed-dimension vectors scored by dot product.

Search is an exact full scan at double precision; there is no approximate
structure, so every downstream number is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonl
from .errors import RecordError, ValidationError
from .ranking import CHANNEL_SEMANTIC, RankedList, top_n


@dataclass
class VectorStore:
    dim: int = 0
    vectors: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, vec_id: str) -> bool:
        return vec_id in self.vectors

    def get(self, vec_id: str) -> np.ndarray:
        if vec_id not in self.vectors:
            raise ValidationError(f"unknown vector id '{vec_id}'")
        return self.vectors[vec_id]

    def add(self, vec_id: str, vector) -> None:
        try:
            arr = np.asarray(vector, dtype=np.float64)
        except OverflowError as exc:
            raise ValidationError(f"vector '{vec_id}' has a component beyond float range") from exc
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"vector '{vec_id}' must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"vector '{vec_id}' contains a non-finite component")
        if not self.vectors:
            self.dim = int(arr.size)
        elif arr.size != self.dim:
            raise ValidationError(
                f"vector '{vec_id}' has dimension {arr.size}, expected {self.dim}"
            )
        if vec_id in self.vectors:
            raise ValidationError(f"duplicate vector id '{vec_id}'")
        self.vectors[vec_id] = arr


def load_vectors(path) -> VectorStore:
    """Load {"id", "vector": [...]} records; dimension is fixed by the first one."""
    store = VectorStore()
    for lineno, record in jsonl.iter_records(path):
        vec_id = jsonl.require(record, "id", path, lineno)
        raw = jsonl.require(record, "vector", path, lineno)
        if not isinstance(vec_id, str) or not vec_id:
            raise RecordError(path, lineno, "field 'id' must be a non-empty string")
        if not isinstance(raw, list) or not raw or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
        ):
            raise RecordError(path, lineno, "field 'vector' must be a non-empty list of numbers")
        try:
            store.add(vec_id, raw)
        except ValidationError as exc:
            raise RecordError(path, lineno, str(exc)) from exc
    return store


def semantic_score(q_vec, d_vec) -> float:
    """Plain dot product between a query vector and a document vector."""
    q = np.asarray(q_vec, dtype=np.float64)
    d = np.asarray(d_vec, dtype=np.float64)
    if q.shape != d.shape:
        raise ValidationError(f"vector length mismatch: {q.shape} vs {d.shape}")
    return float(np.dot(q, d))


def search_semantic(store: VectorStore, q_vec, n: int) -> RankedList:
    """Top-n by dot product over the whole store, ties broken by ascending id."""
    q = np.asarray(q_vec, dtype=np.float64)
    if q.ndim != 1 or q.size != store.dim:
        raise ValidationError(f"query vector has dimension {q.size}, store expects {store.dim}")
    scores = {vec_id: float(np.dot(q, vec)) for vec_id, vec in store.vectors.items()}
    return top_n(scores, n, CHANNEL_SEMANTIC)

