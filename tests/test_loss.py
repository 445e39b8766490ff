"""Contrastive loss values, gradients, and the finite-difference harness."""

import math

import numpy as np
import pytest

from embkit.errors import RecordError, ValidationError
from embkit.loss import (
    SimBatch,
    TeacherDistribution,
    blended_grad,
    blended_loss,
    cosine_sim,
    distill_grad_check,
    flatten_sims,
    infonce_grad,
    infonce_grad_check,
    infonce_loss,
    load_batch_file,
    soft_distill_loss,
    with_sims,
)


def batch(pos, negs, tau=1.0, in_batch=False):
    return SimBatch(
        sims_pos=np.array(pos, dtype=float),
        sims_neg=[np.array(n, dtype=float) for n in negs],
        tau=tau,
        in_batch=in_batch,
    )


def random_batch(rng, max_queries=16, max_negs=9, in_batch=False):
    n = int(rng.integers(1, max_queries + 1))
    tau = float(rng.uniform(0.3, 2.0))
    pos = rng.uniform(-2, 2, size=n)
    negs = [rng.uniform(-2, 2, size=int(rng.integers(1, max_negs + 1))) for _ in range(n)]
    return SimBatch(sims_pos=pos, sims_neg=negs, tau=tau, in_batch=in_batch)


def random_teacher(rng, b, tau=None):
    scores = [
        rng.uniform(-2, 2, size=1 + b.sims_neg[i].size) for i in range(b.size)
    ]
    return TeacherDistribution(scores=scores, tau=float(tau if tau else rng.uniform(0.3, 2.0)))


class TestCosine:
    def test_identity(self):
        assert cosine_sim([2.0, 1.0], [2.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_sim([1, 0], [0, 1]) == 0.0

    def test_hand_case(self):
        assert cosine_sim([1, 0], [1, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert cosine_sim([1, 0], [1, 1]) == pytest.approx(0.70711, abs=1e-5)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            cosine_sim([0, 0], [1, 0])

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u, v = rng.normal(size=5), rng.normal(size=5)
            assert -1.0 <= cosine_sim(u, v) <= 1.0


class TestInfonce:
    def test_symmetric_point_is_ln2(self):
        assert infonce_loss(batch([0.0], [[0.0]])) == pytest.approx(math.log(2), abs=1e-12)

    def test_separated_point(self):
        value = infonce_loss(batch([1.0], [[0.0]]))
        assert value == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)
        assert value == pytest.approx(0.31326, abs=1e-5)

    def test_strictly_positive_with_negatives(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            assert infonce_loss(random_batch(rng)) > 0.0

    def test_zero_without_negatives(self):
        assert infonce_loss(batch([3.0], [[]])) == 0.0

    def test_monotone_in_pos_and_neg(self):
        rng = np.random.default_rng(2)
        delta = 1e-3
        for _ in range(50):
            b = random_batch(rng)
            base = infonce_loss(b)
            i = int(rng.integers(b.size))
            up = flatten_sims(b).copy()
            up[i] += delta
            assert infonce_loss(with_sims(b, up)) < base  # decreasing in s_pos
            j = b.size + sum(s.size for s in b.sims_neg[:i])  # first neg of query i
            up = flatten_sims(b).copy()
            up[j] += delta
            assert infonce_loss(with_sims(b, up)) > base  # increasing in s_neg

    def test_per_query_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            b = random_batch(rng, in_batch=False)
            shifted_pos = b.sims_pos.copy()
            shifted_negs = [s.copy() for s in b.sims_neg]
            i = int(rng.integers(b.size))
            c = float(rng.uniform(-5, 5))
            shifted_pos[i] += c
            shifted_negs[i] = shifted_negs[i] + c
            shifted = SimBatch(shifted_pos, shifted_negs, tau=b.tau)
            assert infonce_loss(shifted) == pytest.approx(infonce_loss(b), abs=1e-9)

    def test_overflow_guard(self):
        value = infonce_loss(batch([1000.0], [[999.0]], tau=0.01))
        assert math.isfinite(value)

    def test_in_batch_appends_other_positives(self):
        b = batch([0.0, 0.0], [[], []], in_batch=True)
        # Each query sees the other's positive as its only negative.
        assert infonce_loss(b) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValidationError):
            batch([0.0], [[0.0]], tau=0.0)

    def test_ragged_negative_lists_supported(self):
        b = batch([0.5, 0.2, 0.9], [[0.1], [0.1, 0.2, 0.3], []])
        assert math.isfinite(infonce_loss(b))


class TestSoftDistill:
    def test_zero_when_distributions_match(self):
        b = batch([0.7], [[0.1, -0.4]])
        teacher = TeacherDistribution(scores=[np.array([0.7, 0.1, -0.4])], tau=1.0)
        assert soft_distill_loss(b, teacher) == 0.0

    def test_one_hot_teacher_vs_uniform_student_is_ln2(self):
        b = batch([0.0], [[0.0]])
        teacher = TeacherDistribution(scores=[np.array([40.0, 0.0])], tau=1.0)
        assert soft_distill_loss(b, teacher) == pytest.approx(math.log(2), abs=1e-9)

    def test_nonnegative_on_1000_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            b = random_batch(rng, max_queries=4, max_negs=5)
            teacher = random_teacher(rng, b)
            assert soft_distill_loss(b, teacher) >= 0.0

    def test_positive_when_distributions_differ(self):
        b = batch([1.0], [[0.0]])
        teacher = TeacherDistribution(scores=[np.array([0.0, 1.0])], tau=1.0)
        assert soft_distill_loss(b, teacher) > 0.0

    def test_misaligned_candidate_counts_rejected(self):
        b = batch([0.0], [[0.0, 0.0]])
        teacher = TeacherDistribution(scores=[np.array([1.0, 0.0])], tau=1.0)
        with pytest.raises(ValidationError, match="candidates"):
            soft_distill_loss(b, teacher)

    def test_teacher_needs_two_candidates(self):
        with pytest.raises(ValidationError):
            TeacherDistribution(scores=[np.array([1.0])], tau=1.0)


class TestBlend:
    def test_blend_interpolates(self):
        b = batch([0.3], [[0.1]])
        teacher = TeacherDistribution(scores=[np.array([0.5, 0.2])], tau=1.0)
        nce = infonce_loss(b)
        kd = soft_distill_loss(b, teacher)
        assert blended_loss(b, teacher, 1.0) == pytest.approx(nce, abs=1e-12)
        assert blended_loss(b, teacher, 0.0) == pytest.approx(kd, abs=1e-12)
        mid = blended_loss(b, teacher, 0.5)
        assert mid == pytest.approx(0.5 * nce + 0.5 * kd, abs=1e-12)

    def test_blend_weight_range(self):
        b = batch([0.3], [[0.1]])
        teacher = TeacherDistribution(scores=[np.array([0.5, 0.2])], tau=1.0)
        with pytest.raises(ValidationError):
            blended_loss(b, teacher, 1.5)


class TestGradCheck:
    def test_symmetric_point_gradient_is_minus_half(self):
        b = batch([0.0], [[0.0]])
        grad = infonce_grad(b)
        assert grad[0] == pytest.approx(-0.5, abs=1e-12)
        assert grad[1] == pytest.approx(0.5, abs=1e-12)
        assert infonce_grad_check(b) < 1e-6

    def test_infonce_random_batches(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            b = random_batch(rng, in_batch=bool(rng.integers(2)))
            worst = max(worst, infonce_grad_check(b, eps=1e-5))
        assert worst < 1e-4

    def test_distill_random_batches(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            b = random_batch(rng)
            teacher = random_teacher(rng, b)
            worst = max(worst, distill_grad_check(b, teacher, eps=1e-5))
        assert worst < 1e-4

    def test_blended_gradient_matches_fd(self):
        from embkit.loss import grad_check

        rng = np.random.default_rng(7)
        for _ in range(20):
            b = random_batch(rng, max_queries=4)
            teacher = random_teacher(rng, b)
            err = grad_check(
                lambda x: blended_loss(x, teacher, 0.3),
                lambda x: blended_grad(x, teacher, 0.3),
                b,
            )
            assert err < 1e-4

    def test_eps_range_enforced(self):
        b = batch([0.0], [[0.0]])
        with pytest.raises(ValidationError):
            infonce_grad_check(b, eps=1e-8)
        with pytest.raises(ValidationError):
            infonce_grad_check(b, eps=1e-2)


class TestBatchFile:
    def test_load_and_evaluate(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            '{"s_pos": 0.0, "s_neg": [0.0]}\n'
            '{"s_pos": 1.0, "s_neg": [0.0, -0.5]}\n',
            encoding="utf-8",
        )
        b, teacher = load_batch_file(path, tau=1.0)
        assert teacher is None
        assert b.size == 2
        assert infonce_loss(b) > math.log(2)

    def test_teacher_alignment_checked(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            '{"s_pos": 0.0, "s_neg": [0.0], "teacher": [1.0, 0.0, 0.0]}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="candidates"):
            load_batch_file(path)

    def test_teacher_all_or_nothing(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            '{"s_pos": 0.0, "s_neg": [0.0], "teacher": [1.0, 0.0]}\n'
            '{"s_pos": 0.0, "s_neg": [0.0]}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="every line"):
            load_batch_file(path)

    @pytest.mark.parametrize("line, field", [
        ('{"s_pos": "x", "s_neg": [0.0]}', "s_pos"),
        ('{"s_pos": null, "s_neg": [0.0]}', "s_pos"),
        ('{"s_pos": true, "s_neg": [0.0]}', "s_pos"),
        ('{"s_pos": "1.5", "s_neg": [0.0]}', "s_pos"),
        ('{"s_pos": NaN, "s_neg": [0.0]}', "s_pos"),
        ('{"s_pos": 1%s, "s_neg": [0.0]}' % ("0" * 400), "s_pos"),
        ('{"s_pos": 0.0, "s_neg": 0.5}', "s_neg"),
        ('{"s_pos": 0.0, "s_neg": [true]}', "s_neg"),
        ('{"s_pos": 0.0, "s_neg": [0.0], "teacher": 5}', "teacher"),
        ('{"s_pos": 0.0, "s_neg": [0.0], "teacher": [1.0, "0"]}', "teacher"),
    ], ids=["string", "null", "bool", "numeric-string", "nan", "beyond-float-range",
            "scalar-negatives", "bool-negative", "scalar-teacher", "string-teacher-score"])
    def test_bad_field_names_line_and_field(self, tmp_path, line, field):
        good = '{"s_pos": 0.0, "s_neg": [0.0]%s}' % (', "teacher": [1.0, 0.0]' if field == "teacher" else "")
        path = tmp_path / "batch.jsonl"
        path.write_text(good + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(RecordError, match=f"batch.jsonl:2: field '{field}'"):
            load_batch_file(path)
