"""Smoke tests for the benchmark: fixture-sized runs end to end, and the checks' teeth.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from check import admissible_ranks, check_fused, check_mined, load_teacher  # noqa: E402
from workloads import SMOKE, generate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "mine-retrieval", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_unreadable_outputs_fail_every_iteration(monkeypatch, capsys):
    import run

    def missing(out):
        raise FileNotFoundError(out / "teacher_scores.jsonl")
    monkeypatch.setattr(run, "load_teacher", missing)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "mine-retrieval", "--seed", "3", "--seconds", "1", "--trace", "0",
                     "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] >= 3


@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    from embkit import pipeline

    gen = generate(SMOKE["mine-retrieval"], 5, tmp_path_factory.mktemp("mine"))
    pipeline.run_mine(pipeline.load_config(gen.config))
    return gen, gen.config.parent / "out"


def test_checks_pass_on_real_output(mined):
    gen, out = mined
    teacher = load_teacher(out)
    assert check_mined(out, teacher, len(gen.queries)) == []
    assert check_fused(gen, teacher, list(range(len(gen.queries)))) == []


def test_check_fused_rejects_a_drifted_or_foreign_candidate(mined):
    gen, out = mined
    teacher = load_teacher(out)
    qid = gen.queries[0][0]
    doc = next(iter(teacher[qid]))
    teacher[qid][doc] += 1e-7
    assert check_fused(gen, teacher, [0])
    teacher = load_teacher(out)
    outsider = next(d for d in gen.reference.doc_ids if d not in teacher[qid])
    teacher[qid][outsider] = 0.001
    assert check_fused(gen, teacher, [0])


@pytest.mark.parametrize("mutate", ["above_margin", "duplicate", "positive"])
def test_check_mined_rejects_a_bad_negative(mined, tmp_path, mutate):
    gen, out = mined
    records = [json.loads(line) for line in (out / "mined_negatives.jsonl").read_text().splitlines()]
    negatives = records[0]["negatives"]
    if mutate == "above_margin":
        negatives[0]["score"] = records[0]["threshold"] * 1.5
    elif mutate == "duplicate":
        negatives[1] = dict(negatives[0])
    else:
        negatives[0]["doc_id"] = records[0]["positive_id"]
    (tmp_path / "mined_negatives.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert check_mined(tmp_path, load_teacher(out), len(gen.queries))


def test_near_ties_may_trade_ranks_and_cross_the_cut():
    scores = np.array([3.0, 2.0, 2.0 + 5e-10, 1.0])
    order = np.array([0, 2, 1, 3])
    assert admissible_ranks(order, scores, 2) == {0: (1,), 2: (2, None), 1: (2, None)}
    assert admissible_ranks(order, scores, 4)[3] == (4,)
