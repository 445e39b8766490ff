"""Semantic search channel: fixed-dimension vectors scored by dot product.

Search is an exact full scan at double precision, but scores are not bit-for-bit
the same on every CPU: OpenBLAS picks `np.vecdot`'s kernel by CPU (ROADMAP item 2).
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from . import jsonl
from .errors import RecordError, ValidationError
from .ranking import CHANNEL_SEMANTIC, RankedList, top_n


class VectorStore:
    """Vectors as the rows of one float64 matrix, aligned with `ids`; the constructor checks nothing."""

    def __init__(self, ids: list[str], matrix: np.ndarray):
        self.ids = ids
        self.matrix = matrix
        self.dim = matrix.shape[1]
        self._rows = dict(zip(ids, range(len(ids))))

    def __len__(self) -> int:
        return len(self.ids)

    def get(self, vec_id: str) -> np.ndarray:
        if vec_id not in self._rows:
            raise ValidationError(f"unknown vector id '{vec_id}'")
        return self.matrix[self._rows[vec_id]]


def load_vectors(path) -> VectorStore:
    """Load {"id", "vector": [...]} records, at least one; the first fixes the dimension.

    Each record is checked in turn, and an error names its line: the id, the
    components (numbers within float range), then finiteness, the dimension
    and a repeated id.  The returned matrix holds exactly its rows.
    """
    return jsonl.load(path, _read_vectors)


def _read_vectors(path, records: jsonl.Records) -> VectorStore:
    """`load_vectors` over records, each checked in full, finiteness included, before the next is read."""
    ids, flat, dim = {}, array("d"), 0  # ids: a dict, so in file order with a fast membership test
    for lineno, record in records:
        vec_id = jsonl.string(record, "id", path, lineno, non_empty=True)
        raw = jsonl.require(record, "vector", path, lineno)
        # type() is exact, so bool (an int subclass) is rejected too.
        if not isinstance(raw, list) or not raw or not set(map(type, raw)) <= {int, float}:
            raise RecordError(path, lineno, "field 'vector' must be a non-empty list of numbers")
        try:
            flat.fromlist(raw)
        except OverflowError:
            raise RecordError(path, lineno, f"vector '{vec_id}' has a component beyond float range") from None
        # A finite sum has only finite terms; the 0.0 start keeps a sum of ints a float.
        if not math.isfinite(sum(raw, 0.0)) and not all(map(math.isfinite, raw)):
            raise RecordError(path, lineno, f"vector '{vec_id}' contains a non-finite component")
        dim = dim or len(raw)
        if len(raw) != dim:
            raise RecordError(path, lineno, f"vector '{vec_id}' has dimension {len(raw)}, expected {dim}")
        if vec_id in ids:
            raise RecordError(path, lineno, f"duplicate vector id '{vec_id}'")
        ids[vec_id] = None
    if not ids:
        raise ValidationError(f"{path}: no vector records")
    return VectorStore(list(ids), np.frombuffer(flat).reshape(len(ids), dim).copy())


def search_semantic(store: VectorStore, q_vec, n: int) -> RankedList:
    """Top-n by dot product over the whole store, ties broken by ascending id."""
    q = np.asarray(q_vec, dtype=np.float64)
    if q.ndim != 1 or q.size != store.dim:
        raise ValidationError(f"query vector has dimension {q.size}, store expects {store.dim}")
    # vecdot takes each row's dot product exactly as np.dot does, whatever
    # the row's position, so scores do not depend on the order of the file.
    return top_n(store.ids, np.vecdot(store.matrix, q), n, CHANNEL_SEMANTIC)

