"""Vector store, vector loading, and full-scan search."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from embkit import jsonl
from embkit.dense import VectorStore, load_vectors, search_semantic
from embkit.errors import RecordError, ValidationError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadVectors:
    def test_dim_inferred_from_first(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_lines(path, [
            '{"id": "a", "vector": [1, 0, 0, 0]}',
            '{"id": "b", "vector": [0, 1, 0, 0]}',
        ])
        store = load_vectors(path)
        assert store.dim == 4
        assert len(store) == 2

    def test_store_holds_exactly_its_rows(self, tmp_path):
        # 1,025 rows would leave a doubling buffer at 2,048; the matrix is no view into such a buffer.
        path = tmp_path / "vectors.jsonl"
        write_lines(path, [f'{{"id": "v{i}", "vector": [{i}, 1]}}' for i in range(1025)])
        store = load_vectors(path)
        owner = store.matrix
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        assert owner.base is None and owner.nbytes == store.matrix.nbytes
        assert store.matrix.shape == (1025, 2)
        assert store.get("v1024").tolist() == [1024.0, 1.0]

    def test_dimension_mismatch_names_id(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_lines(path, [
            '{"id": "a", "vector": [1, 0, 0, 0]}',
            '{"id": "b", "vector": [0, 1, 0]}',
        ])
        with pytest.raises(RecordError, match="'b'"):
            load_vectors(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_lines(path, ['{"id": "a", "vector": [1, NaN]}'])
        with pytest.raises(RecordError):
            load_vectors(path)

    def test_component_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_lines(path, ['{"id": "a", "vector": [1, 0]}', '{"id": "b", "vector": [1, 1%s]}' % ("0" * 400)])
        with pytest.raises(RecordError, match="vectors.jsonl:2: vector 'b'"):
            load_vectors(path)

    @pytest.mark.parametrize("component", ["true", '"1.5"', "null"])
    def test_non_number_component_rejected(self, tmp_path, component):
        path = tmp_path / "vectors.jsonl"
        write_lines(path, ['{"id": "a", "vector": [1, 0]}', '{"id": "b", "vector": [1, %s]}' % component])
        with pytest.raises(RecordError, match="vectors.jsonl:2: field 'vector'"):
            load_vectors(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        write_lines(path, [
            '{"id": "a", "vector": [1, 0]}',
            '{"id": "a", "vector": [0, 1]}',
        ])
        with pytest.raises(RecordError, match="duplicate"):
            load_vectors(path)

    @pytest.mark.parametrize("text", ["", "\n \n\r\n\t\n"], ids=["empty", "blank-lines"])
    def test_file_without_records_rejected(self, tmp_path, text):
        path = tmp_path / "vectors.jsonl"
        path.write_bytes(text.encode())
        with pytest.raises(ValidationError, match=re.escape(f"{path}: no vector records")):
            load_vectors(path)


class ReferenceStore:
    """Reference loader for `load_vectors`: each record is converted, checked
    in `add`'s order and appended before the next is read."""

    def __init__(self):
        self.dim = 0
        self.ids: list[str] = []
        self._rows: dict[str, int] = {}
        self.rows: list[np.ndarray] = []

    def add(self, vec_id, vector):
        try:
            arr = np.asarray(vector, dtype=np.float64)
        except OverflowError as exc:
            raise ValidationError(f"vector '{vec_id}' has a component beyond float range") from exc
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"vector '{vec_id}' must be a non-empty 1-d array")
        if not np.isfinite(arr).all():
            raise ValidationError(f"vector '{vec_id}' contains a non-finite component")
        if not self.ids:
            self.dim = int(arr.size)
        elif arr.size != self.dim:
            raise ValidationError(
                f"vector '{vec_id}' has dimension {arr.size}, expected {self.dim}"
            )
        if vec_id in self._rows:
            raise ValidationError(f"duplicate vector id '{vec_id}'")
        self._rows[vec_id] = len(self.ids)
        self.ids.append(vec_id)
        self.rows.append(arr)

    @classmethod
    def load(cls, path):
        store = cls()
        for lineno, record in jsonl.iter_records(path):
            vec_id = jsonl.string(record, "id", path, lineno, non_empty=True)
            raw = jsonl.require(record, "vector", path, lineno)
            if not isinstance(raw, list) or not raw or not set(map(type, raw)) <= {int, float}:
                raise RecordError(path, lineno, "field 'vector' must be a non-empty list of numbers")
            try:
                store.add(vec_id, raw)
            except ValidationError as exc:
                raise RecordError(path, lineno, str(exc)) from exc
        return store


_COMPONENTS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-2**70, 2**70).map(str)
_FAULTS = st.sampled_from(["true", '"0.5"', "null", "NaN", "-Infinity", "1e400", "-1e400", "9" * 400])


@st.composite
def vector_files(draw):
    """JSONL text of vector records with faults: bad components (two on one
    line at most), wrong dimensions, repeated ids, blank and \\r lines."""
    dim = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "{"])))
            continue
        size = draw(st.sampled_from([dim] * 6 + [dim - 1, dim + 1, 1]))
        components = draw(st.lists(_COMPONENTS, min_size=size, max_size=size))
        for _ in range(draw(st.sampled_from([0] * 6 + [1, 2])) if components else 0):
            components[draw(st.integers(0, len(components) - 1))] = draw(_FAULTS)
        vec_id = draw(st.sampled_from("abcdef"))
        lines.append('{"id": "%s", "vector": [%s]}' % (vec_id, ", ".join(components)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=400, deadline=None)
@given(vector_files())
@example('{"id": "a", "vector": [1, NaN]}\n{"id": "b", "vector": [1, 2, true]}\n')
@example('{"id": "a", "vector": [1, 2]}\n{"id": "b", "vector": [NaN, 2, 3]}\n{"id": "a", "vector": [1]}\n')
@example('{"id": "a", "vector": [1, 2]}\n{"id": "a", "vector": [1e400, %s]}\n' % ("9" * 400))
@example('{"id": "a", "vector": [1, 2]}\n{"id": "a", "vector": [3, 4]}\n')
@example('{"id": "a", "vector": [1, 2]}\n{"id": "b", "vector": [3]}\n')
@example('{"id": "a", "vector": [1, Infinity]}\n{\n')
@example('{"id": "a", "vector": [NaN, 1]}\n{"id": "b", "vector": [1, 2]}\n{"id": "a", "vector": [3, 4]}\n')
@example('{"id": "a", "vector": [1, NaN]}\n{"id": "b", "vector": [1, %s]}\n' % ("9" * 400))
@example('{"id": "a", "vector": [1, 2]}\n{"id": "b", "vector": [NaN, 2]}\n{"id": "c", "vector": [1, 2, 3]}\n')
@example('{"id": "a", "vector": [1, 2]}\r\n{"id": "b", "vector": [3, 4.5]}\r\n')
@example('{"id": "a", "vector": [%s, %s]}\n' % (("1" + "0" * 308,) * 2))
@example('{"id": "a", "vector": [1e308, 1e308, -1e308]}\n')
@example('{"id": "a", "vector": [Infinity, -Infinity]}\n')
def test_load_vectors_matches_per_row_loader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "vectors.jsonl"
    path.write_bytes(text.encode())
    try:
        expected = ReferenceStore.load(path)
    except RecordError as exc:
        with pytest.raises(RecordError) as got:
            load_vectors(path)
        assert str(got.value) == str(exc)
        return
    if not expected.ids:
        with pytest.raises(ValidationError, match="no vector records"):
            load_vectors(path)
        return
    store = load_vectors(path)
    assert store.ids == expected.ids and store.dim == expected.dim
    assert store.matrix.tobytes() == np.array(expected.rows).tobytes()


class TestSearchSemantic:
    def make_store(self, vectors):
        return VectorStore(list(vectors), np.array(list(vectors.values()), dtype=np.float64))

    def test_identity_retrieval(self):
        store = self.make_store({"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})
        result = search_semantic(store, [0, 1, 0], 3)
        assert result.doc_ids()[0] == "b"
        assert result.entries[0][1] == 1.0

    def test_matches_brute_force_on_50_vectors(self):
        rng = np.random.default_rng(11)
        vectors = {f"v{i:02d}": rng.normal(size=6) for i in range(50)}
        store = self.make_store(vectors)
        for _ in range(20):
            q = rng.normal(size=6)
            expected = sorted(
                ((vec_id, float(np.dot(q, vec))) for vec_id, vec in vectors.items()),
                key=lambda item: (-item[1], item[0]),
            )[:10]
            got = search_semantic(store, q, 10)
            assert list(got.entries) == expected

    def test_n_zero_rejected(self):
        store = self.make_store({"a": [1, 0]})
        with pytest.raises(ValidationError):
            search_semantic(store, [1, 0], 0)

    def test_dimension_mismatch_rejected(self):
        store = self.make_store({"a": [1, 0]})
        with pytest.raises(ValidationError):
            search_semantic(store, [1, 0, 0], 1)

    def test_dot_product_overflowing_to_nan_rejected(self):
        # Finite vectors whose products overflow to +inf and -inf sum to NaN,
        # which has no rank.
        store = self.make_store({"a": [1e200, 1e200, -1e200, -1e200] * 4, "b": [1.0, 0, 0, 0] * 4})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValidationError, match="'a' is NaN"):
            search_semantic(store, [1e200] * 16, 1)

    def test_tie_broken_by_ascending_id(self):
        store = self.make_store({"b": [1.0, 0.0], "a": [1.0, 0.0]})
        assert search_semantic(store, [1.0, 0.0], 2).doc_ids() == ["a", "b"]

    def test_load_order_invariance(self, tmp_path):
        lines = ['{"id": "a", "vector": [1, 0]}', '{"id": "b", "vector": [0, 1]}']
        fwd, rev = tmp_path / "f.jsonl", tmp_path / "r.jsonl"
        write_lines(fwd, lines)
        write_lines(rev, list(reversed(lines)))
        q = [0.5, 0.4]
        assert search_semantic(load_vectors(fwd), q, 2) == search_semantic(load_vectors(rev), q, 2)

