"""Semantic search channel: fixed-dimension vectors scored by dot product.

Search is an exact full scan at double precision, but scores are not bit-for-bit
the same on every CPU: OpenBLAS picks `np.vecdot`'s kernel by CPU (ROADMAP item 2).
"""

from __future__ import annotations

import numpy as np

from . import jsonl
from .errors import RecordError, ValidationError
from .ranking import CHANNEL_SEMANTIC, RankedList, top_n


class VectorStore:
    """Vectors as the rows of one float64 matrix, in the order they were added.

    `add` checks each vector before it stores it, and `VectorStore(ids, matrix)` checks nothing.
    `load_vectors` writes rows straight into the matrix and checks finiteness once, over all of it.
    """

    def __init__(self, ids: list[str] | None = None, matrix: np.ndarray | None = None):
        self.ids: list[str] = list(ids or ())
        self._rows: dict[str, int] = dict(zip(self.ids, range(len(self.ids))))
        self._buffer = np.empty((0, 0)) if matrix is None else matrix
        self.dim = self._buffer.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def matrix(self) -> np.ndarray:
        """One row per vector, aligned with `ids`."""
        return self._buffer[: len(self.ids)]

    def get(self, vec_id: str) -> np.ndarray:
        if vec_id not in self._rows:
            raise ValidationError(f"unknown vector id '{vec_id}'")
        return self._buffer[self._rows[vec_id]]

    def add(self, vec_id: str, vector) -> None:
        try:
            arr = np.asarray(vector, dtype=np.float64)
        except OverflowError as exc:
            raise ValidationError(f"vector '{vec_id}' has a component beyond float range") from exc
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"vector '{vec_id}' must be a non-empty 1-d array")
        if not np.isfinite(arr).all():
            raise ValidationError(f"vector '{vec_id}' contains a non-finite component")
        if self.ids and arr.size != self.dim:
            raise ValidationError(f"vector '{vec_id}' has dimension {arr.size}, expected {self.dim}")
        if vec_id in self._rows:
            raise ValidationError(f"duplicate vector id '{vec_id}'")
        self._append(vec_id, arr)

    def _append(self, vec_id: str, vector) -> None:
        """`add` for a list of numbers, less its finiteness check; a number
        beyond float range raises OverflowError."""
        row = len(self.ids)
        # A one-number list would broadcast over a row; `add` raises on it.
        if (row and len(vector) != self.dim) or vec_id in self._rows:
            return self.add(vec_id, vector)
        if not row:
            self.dim = len(vector)
            self._buffer = np.empty((0, self.dim))
        if row == len(self._buffer):
            # Doubling keeps appends amortised O(dim) without a copy per row.
            grown = np.empty((max(1, 2 * row), self.dim))
            grown[:row] = self.matrix
            self._buffer = grown
        self._buffer[row] = vector
        self._rows[vec_id] = row
        self.ids.append(vec_id)


def load_vectors(path) -> VectorStore:
    """Load {"id", "vector": [...]} records, at least one; the first fixes the dimension.

    Rows go straight into the store's matrix and finiteness is checked once,
    over all of it.  If any check fails, the file is read again through
    `add`, record by record, so the error is the one `add` gives.  The
    store returned holds its rows alone, not the spare rows of its buffer.
    """
    store = jsonl.load(path, _read_fast, lambda path, records: _read_vectors(path, records, VectorStore.add))
    store._buffer = store.matrix.copy()
    return store


def _read_fast(path, records: jsonl.Records) -> VectorStore:
    store = _read_vectors(path, records, VectorStore._append)
    if not np.isfinite(store.matrix).all():
        raise ValidationError(f"{path}: a vector has a non-finite component")
    return store


def _read_vectors(path, records: jsonl.Records, add) -> VectorStore:
    store = VectorStore()
    for lineno, record in records:
        vec_id = jsonl.string(record, "id", path, lineno, non_empty=True)
        raw = jsonl.require(record, "vector", path, lineno)
        # type() is exact, so bool (an int subclass) is rejected too.
        if not isinstance(raw, list) or not raw or not set(map(type, raw)) <= {int, float}:
            raise RecordError(path, lineno, "field 'vector' must be a non-empty list of numbers")
        try:
            add(store, vec_id, raw)
        except ValidationError as exc:
            raise RecordError(path, lineno, str(exc)) from exc
    if not store.ids:
        raise ValidationError(f"{path}: no vector records")
    return store


def search_semantic(store: VectorStore, q_vec, n: int) -> RankedList:
    """Top-n by dot product over the whole store, ties broken by ascending id."""
    q = np.asarray(q_vec, dtype=np.float64)
    if q.ndim != 1 or q.size != store.dim:
        raise ValidationError(f"query vector has dimension {q.size}, store expects {store.dim}")
    # vecdot takes each row's dot product exactly as np.dot does, whatever
    # the row's position, so scores do not depend on the order of the file.
    return top_n(store.ids, np.vecdot(store.matrix, q), n, CHANNEL_SEMANTIC)

