"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import contextlib
import json
import math
import random
import re
import time

import numpy as np
import pytest

from embkit import pipeline
from embkit.corpus import QueryPositive, RawPair, dedup, expand_pairs
from embkit.evalagg import EvalMatrix, borda_rank, task_mean
from embkit.forge import NliRecord, convert_nli
from embkit.fusion import Candidate, TeacherScoreSet, rrf_fuse
from embkit.lexical import Bm25Params, build_index, search_lexical
from embkit.loss import (
    SimBatch,
    TeacherDistribution,
    distill_grad_check,
    infonce_grad_check,
    infonce_loss,
    soft_distill_loss,
)
from embkit.mining import MiningConfig, filter_candidates, margin_threshold, mine
from embkit.ranking import RankedList

from conftest import FIXTURES, make_docs

PIPELINE_FIXTURE = FIXTURES / "pipeline"


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"PASS  criterion {number}: {description}  ({elapsed:.2f}s)")


def test_criterion_1_leaderboard_mean_reconstruction():
    with criterion(1, "published category means recompose every task mean", 1.0):
        with open(FIXTURES / "leaderboard_categories.json", encoding="utf-8") as handle:
            data = json.load(handle)
        counts = data["category_task_counts"]
        tasks = [
            (f"{cat}-{i + 1}", cat) for cat, n in counts.items() for i in range(n)
        ]
        assert len(tasks) == 41
        models = [row["model"] for row in data["models"]]
        assert len(models) == 11
        scores = {
            (row["model"], task): row["category_means"][cat]
            for row in data["models"]
            for task, cat in tasks
        }
        matrix = EvalMatrix(models=models, tasks=tasks, scores=scores)
        for row in data["models"]:
            assert task_mean(matrix, row["model"]) == pytest.approx(
                row["task_mean"], abs=0.005
            ), row["model"]
        assert task_mean(matrix, "LGAI-Embedding-Preview") == pytest.approx(74.12, abs=0.005)
        assert task_mean(matrix, "Seed1.5-Embedding") == pytest.approx(74.76, abs=0.005)


def _ranked_from_ids(ids, channel="lexical"):
    return RankedList(
        entries=tuple((doc, float(len(ids) - i)) for i, doc in enumerate(ids)),
        channel=channel,
    )


def test_criterion_2_rrf_oracle():
    with criterion(2, "reciprocal rank fusion matches hand value and brute force", 1.0):
        lists = [
            _ranked_from_ids(["d", "a"], "lexical"),
            _ranked_from_ids(["b", "d"], "semantic"),
            _ranked_from_ids(["d", "c"], "reranker"),
        ]
        fused = rrf_fuse(lists, k=60)
        assert fused.scores()["d"] == pytest.approx(1 / 61 + 1 / 62 + 1 / 61, abs=1e-9)
        assert fused.scores()["d"] == pytest.approx(0.048916, abs=1e-6)

        # 5-doc / 3-channel fixture against an independent brute-force script.
        rng = random.Random(2024)
        docs = ["d1", "d2", "d3", "d4", "d5"]
        for _ in range(20):
            id_lists = [rng.sample(docs, rng.randint(1, 5)) for _ in range(3)]
            terms = {}
            for ids in id_lists:
                for rank, doc in enumerate(ids, start=1):
                    terms.setdefault(doc, []).append(1.0 / (60 + rank))
            expected = {doc: math.fsum(doc_terms) for doc, doc_terms in terms.items()}
            want = sorted(expected.items(), key=lambda item: (-item[1], item[0]))
            got = rrf_fuse([_ranked_from_ids(ids) for ids in id_lists], k=60)
            assert list(got.entries) == want


def test_criterion_3_margin_rule():
    with criterion(3, "margin threshold exact; mined negatives never exceed it", 1.0):
        assert margin_threshold(0.8, 0.95) == 0.76

        candidates = {"d1": 0.9, "d2": 0.7, "d3": 0.5, "d4": 0.65, "d5": 0.3, "p": 0.8}
        ordered = sorted(candidates.items(), key=lambda kv: (-kv[1], kv[0]))
        teacher = TeacherScoreSet(
            query_id="q1",
            candidates=tuple(Candidate(doc_id=d, fused_score=s) for d, s in ordered),
        )
        for seed in range(25):
            config = MiningConfig(margin=0.95, top_k=4, num_negatives=2, seed=seed)
            mined = mine(teacher, "p", config)
            assert all(s <= 0.95 * 0.8 for _, s in mined.negatives)
            assert all(d != "d1" for d, _ in mined.negatives)  # 0.9 > threshold, always out
        pool = filter_candidates(teacher, "p", margin=0.95)
        assert "d1" not in {d for d, _ in pool.survivors}


def test_criterion_4_bm25_oracle_equivalence():
    with criterion(4, "indexed BM25 search equals the naive full-scan scorer", 1.0):
        from embkit.corpus import Query
        from embkit.lexical import bm25_score

        # Hand case: single doc "a a b", query "a", k1=1.2, b=0.75.
        index1 = build_index(make_docs({"d1": "a a b"}))
        got = bm25_score(index1, Bm25Params(), Query(id="q", text="a", task="t"), "d1")
        assert got == pytest.approx(math.log(4 / 3) * 4.4 / 3.2, abs=1e-9)
        assert got == pytest.approx(0.39556, abs=1e-5)

        rng = random.Random(404)
        vocab = [f"w{i}" for i in range(35)]
        docs = make_docs({
            f"d{i:02d}": " ".join(rng.choices(vocab, k=rng.randint(5, 25)))
            for i in range(20)
        })
        index = build_index(docs)
        params = Bm25Params()

        token_lists = {
            d.id: re.findall(r"[^\W_]+", d.text.lower(), re.UNICODE) for d in docs
        }
        avglen = sum(len(t) for t in token_lists.values()) / len(docs)

        def naive_rank(query_text, n):
            ranked = []
            for doc_id, toks in token_lists.items():
                total = 0.0
                for term in re.findall(r"[^\W_]+", query_text.lower(), re.UNICODE):
                    f = toks.count(term)
                    if f == 0:
                        continue
                    df = sum(1 for other in token_lists.values() if term in other)
                    idf = math.log(1 + (20 - df + 0.5) / (df + 0.5))
                    denom = f + 1.2 * (1 - 0.75 + 0.75 * len(toks) / avglen)
                    total += idf * f * 2.2 / denom
                if total > 0:
                    ranked.append((doc_id, total))
            ranked.sort(key=lambda item: (-item[1], item[0]))
            return ranked[:n]

        for _ in range(30):
            qtext = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            expected = naive_rank(qtext, 20)
            got = search_lexical(index, params, Query(id="q", text=qtext, task="t"), 20)
            assert got.doc_ids() == [d for d, _ in expected]
            for (_, have), (_, want) in zip(got.entries, expected):
                assert have == pytest.approx(want, abs=1e-9)


def test_criterion_5_loss_lab():
    with criterion(5, "loss values, distillation identities, gradient checks", 10.0):
        sym = SimBatch(sims_pos=np.array([0.0]), sims_neg=[np.array([0.0])], tau=1.0)
        assert infonce_loss(sym) == pytest.approx(math.log(2), abs=1e-9)

        sep = SimBatch(sims_pos=np.array([1.0]), sims_neg=[np.array([0.0])], tau=1.0)
        assert infonce_loss(sep) == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-9)
        assert infonce_loss(sep) == pytest.approx(0.31326, abs=1e-5)

        matched = TeacherDistribution(scores=[np.array([0.7, 0.1, -0.4])], tau=1.0)
        student = SimBatch(sims_pos=np.array([0.7]), sims_neg=[np.array([0.1, -0.4])], tau=1.0)
        assert soft_distill_loss(student, matched) == pytest.approx(0.0, abs=1e-12)

        one_hot = TeacherDistribution(scores=[np.array([40.0, 0.0])], tau=1.0)
        uniform = SimBatch(sims_pos=np.array([0.0]), sims_neg=[np.array([0.0])], tau=1.0)
        assert soft_distill_loss(uniform, one_hot) == pytest.approx(math.log(2), abs=1e-9)

        rng = np.random.default_rng(505)
        worst_nce = worst_kd = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 17))
            batch = SimBatch(
                sims_pos=rng.uniform(-2, 2, size=n),
                sims_neg=[
                    rng.uniform(-2, 2, size=int(rng.integers(1, 10))) for _ in range(n)
                ],
                tau=float(rng.uniform(0.3, 2.0)),
                in_batch=bool(rng.integers(2)),
            )
            worst_nce = max(worst_nce, infonce_grad_check(batch, eps=1e-5))
            teacher = TeacherDistribution(
                scores=[rng.uniform(-2, 2, size=1 + s.size) for s in batch.sims_neg],
                tau=float(rng.uniform(0.3, 2.0)),
            )
            worst_kd = max(worst_kd, distill_grad_check(batch, teacher, eps=1e-5))
        assert worst_nce < 1e-4, f"infonce max relative FD error {worst_nce}"
        assert worst_kd < 1e-4, f"distill max relative FD error {worst_kd}"


def test_criterion_6_borda_properties():
    with criterion(6, "Borda conservation, rank-only invariance, mean divergence", 5.0):
        rng = random.Random(606)

        def random_matrix():
            n_models = rng.randint(2, 6)
            n_tasks = rng.randint(1, 8)
            models = [f"m{m}" for m in range(n_models)]
            tasks = [(f"t{i}", "cat") for i in range(n_tasks)]
            scores = {
                (model, task): round(rng.uniform(0, 100), 1)
                for model in models
                for task, _ in tasks
            }
            return EvalMatrix(models=models, tasks=tasks, scores=scores)

        for _ in range(200):
            matrix = random_matrix()
            points = borda_rank(matrix).points
            m, t = len(matrix.models), len(matrix.tasks)
            assert sum(points.values()) == pytest.approx(t * m * (m - 1) / 2, abs=1e-9)

        for _ in range(50):
            matrix = random_matrix()
            transformed = {}
            for task, _ in matrix.tasks:
                a, b = rng.uniform(0.1, 4.0), rng.uniform(-30, 30)
                cube = rng.random() < 0.5
                for model in matrix.models:
                    y = a * matrix.score(model, task) + b
                    transformed[(model, task)] = y ** 3 if cube else y
            same = EvalMatrix(models=matrix.models, tasks=matrix.tasks, scores=transformed)
            assert borda_rank(same).points == borda_rank(matrix).points

        # A model can win Borda while losing the task mean.
        matrix = EvalMatrix(
            models=["A", "B"],
            tasks=[("t1", "c"), ("t2", "c"), ("t3", "c")],
            scores={
                ("A", "t1"): 61.0, ("A", "t2"): 61.0, ("A", "t3"): 58.0,
                ("B", "t1"): 100.0, ("B", "t2"): 40.0, ("B", "t3"): 41.0,
            },
        )
        result = borda_rank(matrix)
        assert result.points == {"A": 2.0, "B": 1.0}
        assert result.ranking[0] == "A"
        assert task_mean(matrix, "B") > task_mean(matrix, "A")


def test_criterion_7_pipeline_determinism(tmp_path):
    with criterion(7, "run_mine output bytes invariant across runs and worker counts", 5.0):
        outputs = {}
        for name, workers in (("run1", 1), ("run2", 1), ("w4", 4)):
            config = pipeline.load_config(PIPELINE_FIXTURE / "config.json")
            assert config.settings["mining"]["seed"] == 42
            config.paths["output_dir"] = str(tmp_path / name)
            pipeline.run_mine(config, workers=workers)
            outputs[name] = {
                f: (tmp_path / name / f).read_bytes()
                for f in (
                    pipeline.TRAINING_RECORDS_FILE,
                    pipeline.MINED_FILE,
                    pipeline.TEACHER_SCORES_FILE,
                    pipeline.MANIFEST_FILE,
                )
            }
        assert outputs["run1"] == outputs["run2"]
        assert outputs["run1"] == outputs["w4"]


def test_criterion_8_data_forge():
    with criterion(8, "NLI conversion counts, dedup idempotence, pair expansion", 1.0):
        records = [
            NliRecord("p1", "h1", "entailment"),
            NliRecord("p2", "h2", "neutral"),
            NliRecord("p3", "h3", "contradiction"),
            NliRecord("p4", "h4", "neutral"),
            NliRecord("p5", "h5", "entailment"),
            NliRecord("p6", "h6", "contradiction"),
        ]
        converted = convert_nli(records)
        assert len(converted) == 4
        assert {r.sentence_a for r in converted} == {"p1", "p3", "p5", "p6"}

        rng = random.Random(808)
        fixture = [
            QueryPositive(
                query=f"q{rng.randrange(25)}",
                positive=f"p{rng.randrange(25)}",
                source_task="t",
            )
            for _ in range(1000)
        ]
        once = dedup(fixture)
        assert dedup(once) == once

        expanded = list(expand_pairs([RawPair(query="A", positives=("A1", "A2"), source_task="t")]))
        assert expanded == [
            QueryPositive(query="A", positive="A1", source_task="t"),
            QueryPositive(query="A", positive="A2", source_task="t"),
        ]
