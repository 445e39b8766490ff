"""Vector store, dot-product scoring, and full-scan search."""

import numpy as np
import pytest

from embkit.dense import (
    VectorStore,
    load_vectors,
    search_semantic,
    semantic_score,
)
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


class TestSemanticScore:
    def test_orthogonal(self):
        assert semantic_score([1, 0], [0, 1]) == 0.0

    def test_hand_case(self):
        assert semantic_score([1, 2], [3, 4]) == 11.0

    def test_unit_self_similarity(self):
        assert semantic_score([1, 0, 0], [1, 0, 0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            semantic_score([1, 2], [1, 2, 3])

    def test_bilinear_in_first_argument(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            q = rng.normal(size=8)
            d = rng.normal(size=8)
            alpha = rng.normal()
            assert semantic_score(alpha * q, d) == pytest.approx(
                alpha * semantic_score(q, d), rel=1e-12, abs=1e-12
            )


class TestSearchSemantic:
    def make_store(self, vectors):
        store = VectorStore()
        for vec_id, vec in vectors.items():
            store.add(vec_id, vec)
        return store

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

