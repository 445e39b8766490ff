"""Numerical lab for the contrastive training objectives.

Everything here operates on plain similarity values, not on model
parameters: the point is to verify the loss arithmetic and its gradients
exactly, at desk scale.

Two objectives are provided.  The InfoNCE loss for a batch of queries with
positives and per-query hard negatives,

    L = -sum_i log( exp(s_pos_i / tau)
                    / (exp(s_pos_i / tau) + sum_j exp(s_neg_ij / tau)) )

optionally appends the other queries' positive similarities to each
negative set (in-batch negatives, used for retrieval batches).  The soft
distillation loss compares the student's softmax over each candidate set
against a teacher distribution,

    D = mean_i KL( softmax(t_i / tau_t) || softmax(s_i / tau) )

and is zero exactly when the two distributions coincide on every query.
Both use max-subtraction before exponentiation, so adding a per-query
constant to all similarities changes nothing and nothing overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jsonl
from .errors import RecordError, ValidationError, is_number, number_problems

GRAD_EPS_MIN = 1e-7
GRAD_EPS_MAX = 1e-3

# Floor for the relative-error denominator: coordinates this small are
# compared absolutely, everything else relatively.
_REL_FLOOR = 1e-6


def cosine_sim(u, v) -> float:
    """Cosine similarity dot(u, v) / (|u| |v|); zero vectors are an error."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValidationError(f"vector length mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValidationError("cosine similarity is undefined for a zero vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


@dataclass
class SimBatch:
    """Similarity values for a batch: one positive and a ragged negative list per query."""

    sims_pos: np.ndarray
    sims_neg: list[np.ndarray] = field(default_factory=list)
    tau: float = 1.0
    in_batch: bool = False

    def __post_init__(self):
        self.sims_pos = np.asarray(self.sims_pos, dtype=np.float64).reshape(-1)
        self.sims_neg = [np.asarray(s, dtype=np.float64).reshape(-1) for s in self.sims_neg]
        _check_number("temperature", self.tau, "> 0", lambda v: v > 0)
        if len(self.sims_neg) != self.size:
            raise ValidationError(
                f"{self.size} positives but {len(self.sims_neg)} negative lists"
            )

    @property
    def size(self) -> int:
        return int(self.sims_pos.size)

    def candidates(self, i: int) -> np.ndarray:
        """Candidate similarities of query i: positive, own negatives, then
        the other queries' positives when in-batch negatives are on."""
        parts = [self.sims_pos[i:i + 1], self.sims_neg[i]]
        if self.in_batch and self.size > 1:
            parts.append(np.delete(self.sims_pos, i))
        return np.concatenate(parts)


@dataclass
class TeacherDistribution:
    """Teacher scores per query over [positive, negatives...], plus its temperature."""

    scores: list[np.ndarray]
    tau: float = 1.0

    def __post_init__(self):
        self.scores = [np.asarray(s, dtype=np.float64).reshape(-1) for s in self.scores]
        _check_number("teacher temperature", self.tau, "> 0", lambda v: v > 0)
        for i, s in enumerate(self.scores):
            if s.size < 2:
                raise ValidationError(f"query {i}: teacher needs at least 2 candidates")


def _check_number(name: str, value, rule: str, in_range) -> None:
    """Raise ValidationError unless value is a finite number that in_range accepts."""
    problems = number_problems(name, value, rule, in_range)
    if problems:
        raise ValidationError(*problems)


def _log_softmax(values: np.ndarray) -> np.ndarray:
    shifted = values - np.max(values)
    return shifted - np.log(np.sum(np.exp(shifted)))


def infonce_loss(batch: SimBatch) -> float:
    """Summed InfoNCE over the batch; strictly positive unless negatives are empty."""
    total = 0.0
    for i in range(batch.size):
        log_p = _log_softmax(batch.candidates(i) / batch.tau)
        total -= float(log_p[0])
    return total


def infonce_grad(batch: SimBatch) -> np.ndarray:
    """Gradient of infonce_loss w.r.t. the flattened similarities.

    Layout matches flatten_sims: all positives first, then each query's
    negatives in order.  With in-batch negatives on, a positive also picks
    up contributions from every other query's denominator.
    """
    grad_pos = np.zeros(batch.size)
    grad_neg = [np.zeros(s.size) for s in batch.sims_neg]
    for i in range(batch.size):
        p = np.exp(_log_softmax(batch.candidates(i) / batch.tau))
        grad_pos[i] += (p[0] - 1.0) / batch.tau
        n = batch.sims_neg[i].size
        grad_neg[i] += p[1:1 + n] / batch.tau
        if batch.in_batch and batch.size > 1:
            others = np.delete(np.arange(batch.size), i)
            grad_pos[others] += p[1 + n:] / batch.tau
    return np.concatenate([grad_pos] + grad_neg)


def _aligned_student(batch: SimBatch, teacher: TeacherDistribution) -> list[np.ndarray]:
    """Per-query student candidate vectors [positive, negatives...], teacher-aligned.

    Distillation always runs over a query's own candidates; in-batch
    extras belong to the InfoNCE term only, since the teacher never scored
    them.
    """
    if len(teacher.scores) != batch.size:
        raise ValidationError(
            f"teacher covers {len(teacher.scores)} queries, batch has {batch.size}"
        )
    students = []
    for i in range(batch.size):
        student = np.concatenate([batch.sims_pos[i:i + 1], batch.sims_neg[i]])
        if teacher.scores[i].size != student.size:
            raise ValidationError(
                f"query {i}: teacher has {teacher.scores[i].size} candidates, "
                f"student has {student.size}"
            )
        students.append(student)
    return students


def soft_distill_loss(batch: SimBatch, teacher: TeacherDistribution) -> float:
    """Mean KL from the teacher's softmax to the student's, over queries."""
    students = _aligned_student(batch, teacher)
    total = 0.0
    for i, student in enumerate(students):
        log_pt = _log_softmax(teacher.scores[i] / teacher.tau)
        log_ps = _log_softmax(student / batch.tau)
        pt = np.exp(log_pt)
        # 0 * log 0 contributes nothing when a teacher probability underflows.
        mask = pt > 0.0
        total += float(np.sum(pt[mask] * (log_pt[mask] - log_ps[mask])))
    return total / batch.size


def soft_distill_grad(batch: SimBatch, teacher: TeacherDistribution) -> np.ndarray:
    """Gradient of soft_distill_loss w.r.t. the flattened similarities."""
    students = _aligned_student(batch, teacher)
    grad_pos = np.zeros(batch.size)
    grad_neg = [np.zeros(s.size) for s in batch.sims_neg]
    for i, student in enumerate(students):
        pt = np.exp(_log_softmax(teacher.scores[i] / teacher.tau))
        ps = np.exp(_log_softmax(student / batch.tau))
        g = (ps - pt) / (batch.tau * batch.size)
        grad_pos[i] += g[0]
        grad_neg[i] += g[1:]
    return np.concatenate([grad_pos] + grad_neg)


def _check_blend(blend) -> None:
    _check_number("blend weight", blend, "in [0, 1]", lambda v: 0 <= v <= 1)


def blended_loss(batch: SimBatch, teacher: TeacherDistribution, blend: float = 0.5) -> float:
    """Convex mix blend * InfoNCE + (1 - blend) * distillation."""
    _check_blend(blend)
    return blend * infonce_loss(batch) + (1.0 - blend) * soft_distill_loss(batch, teacher)


def blended_grad(batch: SimBatch, teacher: TeacherDistribution, blend: float = 0.5) -> np.ndarray:
    _check_blend(blend)
    return blend * infonce_grad(batch) + (1.0 - blend) * soft_distill_grad(batch, teacher)


def flatten_sims(batch: SimBatch) -> np.ndarray:
    """All positives, then each query's negatives, as one coordinate vector."""
    return np.concatenate([batch.sims_pos] + list(batch.sims_neg))


def with_sims(batch: SimBatch, flat: np.ndarray) -> SimBatch:
    """Rebuild a batch with the same shape but new similarity values."""
    flat = np.asarray(flat, dtype=np.float64)
    pos = flat[: batch.size].copy()
    negs = []
    offset = batch.size
    for s in batch.sims_neg:
        negs.append(flat[offset: offset + s.size].copy())
        offset += s.size
    return SimBatch(sims_pos=pos, sims_neg=negs, tau=batch.tau, in_batch=batch.in_batch)


def grad_check(loss_fn, grad_fn, batch: SimBatch, eps: float = 1e-5) -> float:
    """Max relative disagreement between analytic and central-difference gradients.

    Coordinates below the relative floor are compared absolutely, which
    keeps roundoff noise in near-zero gradients from masquerading as a
    large relative error.
    """
    if not GRAD_EPS_MIN <= eps <= GRAD_EPS_MAX:
        raise ValidationError(f"eps must be in [{GRAD_EPS_MIN}, {GRAD_EPS_MAX}], got {eps}")
    flat = flatten_sims(batch)
    analytic = np.asarray(grad_fn(batch), dtype=np.float64)
    numeric = np.zeros_like(flat)
    for k in range(flat.size):
        bumped = flat.copy()
        bumped[k] += eps
        upper = loss_fn(with_sims(batch, bumped))
        bumped[k] -= 2 * eps
        lower = loss_fn(with_sims(batch, bumped))
        numeric[k] = (upper - lower) / (2 * eps)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))


def infonce_grad_check(batch: SimBatch, eps: float = 1e-5) -> float:
    return grad_check(infonce_loss, infonce_grad, batch, eps)


def distill_grad_check(batch: SimBatch, teacher: TeacherDistribution, eps: float = 1e-5) -> float:
    return grad_check(
        lambda b: soft_distill_loss(b, teacher),
        lambda b: soft_distill_grad(b, teacher),
        batch,
        eps,
    )


def load_batch_file(
    path, tau: float = 1.0, tau_teacher: float | None = None, in_batch: bool = False,
) -> tuple[SimBatch, TeacherDistribution | None]:
    """Read {"s_pos", "s_neg", "teacher"?} lines, at least one, into a batch and optional teacher.

    Every similarity and teacher score must be a finite JSON number.
    Teacher scores, when present, must appear on every line and align with
    [positive, negatives...]; the teacher temperature defaults to the
    student's.
    """
    pos: list[float] = []
    negs: list[list[float]] = []
    teacher_rows: list[list[float]] = []
    for lineno, record in jsonl.iter_records(path):
        pos.append(jsonl.number(jsonl.require(record, "s_pos", path, lineno), "s_pos", path, lineno))
        negs.append(_number_list(record, "s_neg", path, lineno))
        if "teacher" in record:
            teacher_rows.append(_number_list(record, "teacher", path, lineno))
    if not pos:
        raise ValidationError(f"{path}: no batch records")
    if teacher_rows and len(teacher_rows) != len(pos):
        raise ValidationError(
            f"{path}: 'teacher' must be present on every line or none "
            f"({len(teacher_rows)} of {len(pos)} lines have it)"
        )
    batch = SimBatch(
        sims_pos=np.array(pos), sims_neg=[np.array(n) for n in negs],
        tau=tau, in_batch=in_batch,
    )
    teacher = None
    if teacher_rows:
        teacher = TeacherDistribution(
            scores=[np.array(t) for t in teacher_rows],
            tau=tau if tau_teacher is None else tau_teacher,
        )
        _aligned_student(batch, teacher)
    return batch, teacher


def _number_list(record: dict, name: str, path, lineno: int) -> list[float]:
    values = jsonl.require(record, name, path, lineno)
    if not isinstance(values, list) or not all(is_number(v) for v in values):
        raise RecordError(path, lineno, f"field '{name}' must be a list of finite numbers")
    return [float(v) for v in values]
