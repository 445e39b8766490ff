"""Semantic search channel: fixed-dimension vectors scored by dot product.

Search is an exact full scan at double precision, but scores are not bit-for-bit
the same on every CPU: OpenBLAS picks `np.vecdot`'s kernel by CPU (ROADMAP item 2).
"""

from __future__ import annotations

from array import array

import numpy as np

from . import jsonl
from .errors import EmbkitError, RecordError, ValidationError
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
    """`load_vectors` over records.  Finiteness is checked over all rows at the end, and
    first whenever another check fails, so the error is the one a check of each record in turn gives."""
    ids, lines, seen, flat, dim = [], [], set(), array("d"), 0
    try:
        for lineno, record in records:
            vec_id = jsonl.string(record, "id", path, lineno, non_empty=True)
            raw = jsonl.require(record, "vector", path, lineno)
            # type() is exact, so bool (an int subclass) is rejected too.
            if not isinstance(raw, list) or not raw or not set(map(type, raw)) <= {int, float}:
                raise RecordError(path, lineno, "field 'vector' must be a non-empty list of numbers")
            try:  # on an error fromlist leaves flat as it was
                flat.fromlist(raw)
            except OverflowError:
                raise RecordError(path, lineno, f"vector '{vec_id}' has a component beyond float range") from None
            # The row is in before its own checks, so that on their failure
            # `_check_finite` finds a non-finite component of it first.
            ids.append(vec_id)
            lines.append(lineno)
            dim = dim or len(raw)
            if len(raw) != dim:
                raise RecordError(path, lineno, f"vector '{vec_id}' has dimension {len(raw)}, expected {dim}")
            if vec_id in seen:
                raise RecordError(path, lineno, f"duplicate vector id '{vec_id}'")
            seen.add(vec_id)
    except EmbkitError:
        _check_finite(path, flat, dim, ids, lines)
        raise
    if not ids:
        raise ValidationError(f"{path}: no vector records")
    _check_finite(path, flat, dim, ids, lines)
    return VectorStore(ids, np.frombuffer(flat).reshape(len(ids), dim).copy())


def _check_finite(path, flat: array, dim: int, ids: list[str], lines: list[int]) -> None:
    """RecordError for the first row of flat with a non-finite component; every row but the last has dim components."""
    bad = np.flatnonzero(~np.isfinite(np.frombuffer(flat)))
    if bad.size:
        row = min(bad[0] // dim, len(ids) - 1)
        raise RecordError(path, lines[row], f"vector '{ids[row]}' contains a non-finite component")


def search_semantic(store: VectorStore, q_vec, n: int) -> RankedList:
    """Top-n by dot product over the whole store, ties broken by ascending id."""
    q = np.asarray(q_vec, dtype=np.float64)
    if q.ndim != 1 or q.size != store.dim:
        raise ValidationError(f"query vector has dimension {q.size}, store expects {store.dim}")
    # vecdot takes each row's dot product exactly as np.dot does, whatever
    # the row's position, so scores do not depend on the order of the file.
    return top_n(store.ids, np.vecdot(store.matrix, q), n, CHANNEL_SEMANTIC)

