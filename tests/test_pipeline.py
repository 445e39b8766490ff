"""Config validation, end-to-end mining, determinism, and the CLI surface."""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from embkit import corpus as corpus_mod
from embkit import dense, jsonl, pipeline, rerank
from embkit.cli import build_parser, main
from embkit.errors import PipelineStageError, RerankTransportError, ValidationError
from embkit.forge import load_training_records

from conftest import FIXTURES, ScoringServer, child_pids, default_score

PIPELINE_FIXTURE = FIXTURES / "pipeline"
README = Path(__file__).resolve().parents[1] / "README.md"

# Every leaf setting: (section, key), or (None, key) at the top level.
KNOWN_SETTINGS = [
    (section, key) for section, default in pipeline.DEFAULTS.items() if isinstance(default, dict) for key in default
] + [(None, key) for key, default in pipeline.DEFAULTS.items() if not isinstance(default, dict)]
# Two draws in three are bare numbers, NaN and the infinities included.
JSON_VALUES = st.integers() | st.floats() | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def fixture_config(tmp_path, out_name="out", **overrides):
    config = pipeline.load_config(PIPELINE_FIXTURE / "config.json")
    config.paths["output_dir"] = str(tmp_path / out_name)
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.settings[key].update(value)
        else:
            config.settings[key] = value
    return config


def output_bytes(out_dir):
    return {
        name: (out_dir / name).read_bytes()
        for name in (
            pipeline.TRAINING_RECORDS_FILE,
            pipeline.MINED_FILE,
            pipeline.TEACHER_SCORES_FILE,
            pipeline.RERANKER_SCORES_FILE,
            pipeline.MANIFEST_FILE,
        )
    }


class TestValidateConfig:
    def test_valid_fixture_config(self, tmp_path):
        config = fixture_config(tmp_path)
        assert pipeline.validate_config(config) == []

    def test_margin_out_of_range_named(self, tmp_path):
        config = fixture_config(tmp_path, mining={"margin": 1.5})
        problems = pipeline.validate_config(config)
        assert any("mining.margin" in p for p in problems)

    def test_num_negatives_cross_field(self, tmp_path):
        config = fixture_config(tmp_path, mining={"num_negatives": 20, "top_k": 5})
        problems = pipeline.validate_config(config)
        assert any("num_negatives" in p and "top_k" in p for p in problems)

    def test_all_problems_reported_in_one_pass(self, tmp_path):
        config = fixture_config(tmp_path, rrf_k=-1, mining={"margin": 2.0}, pool_sise=5)
        config.paths["corpus"] = str(tmp_path / "missing.jsonl")
        problems = pipeline.validate_config(config)
        assert len(problems) >= 4
        joined = "\n".join(problems)
        assert "rrf_k" in joined and "mining.margin" in joined
        assert "pool_sise: unknown setting" in joined and "paths.corpus" in joined

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(KNOWN_SETTINGS), JSON_VALUES, min_size=1, max_size=3))
    def test_any_json_value_yields_problems_or_buildable_config(self, placed):
        config = pipeline.PipelineConfig()
        for (section, key), value in placed.items():
            if section is None:
                config.settings[key] = value
            else:
                config.settings[section][key] = value
        problems = pipeline.validate_settings(config)
        assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
        if not problems:
            params, mining_config = config.bm25_params(), config.mining_config()
            assert all(math.isfinite(v) for v in (params.k1, params.b, mining_config.margin, config["rrf_k"]))

    def test_bm25_and_mining_problems_in_one_pass(self, tmp_path):
        config = fixture_config(tmp_path, mining={"margin": 0, "top_k": 1.5}, bm25={"b": -0.5})
        problems = pipeline.validate_settings(config)
        assert sorted(p.split(": ")[0] for p in problems) == ["bm25.b", "mining.margin", "mining.top_k"]

    def test_reranker_source_required(self, tmp_path):
        config = fixture_config(tmp_path)
        config.paths["reranker_scores"] = None
        problems = pipeline.validate_config(config)
        assert any("reranker" in p for p in problems)

    def test_output_dir_holding_the_input_score_file_rejected(self, tmp_path):
        # The run would rename its own reranker scores over the input.
        config = fixture_config(tmp_path)
        config.paths["output_dir"] = str(PIPELINE_FIXTURE)
        problems = pipeline.validate_config(config)
        assert any(p.startswith("paths.output_dir:") and "reranker_scores" in p for p in problems)
        config.paths["output_dir"] = str(tmp_path / "elsewhere")
        assert pipeline.validate_config(config) == []

    def test_unknown_path_keys_rejected(self, tmp_path):
        # A misspelt score file would otherwise send every pair to the endpoint.
        config = fixture_config(tmp_path)
        config.paths["reranker_score"] = config.paths.pop("reranker_scores")
        config.paths["reranker_endpoint"] = "http://127.0.0.1:9/score"
        config.paths["outptu_dir"] = str(tmp_path / "typo")
        assert pipeline.validate_config(config) == [
            "paths.reranker_score: unknown path", "paths.outptu_dir: unknown path"]


def test_readme_defaults_match_pipeline_defaults():
    block = re.search(r"### Configuration.*?```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    documented = json.loads(block.group(1))
    assert list(documented.pop("paths")) == list(pipeline.PATH_KEYS)
    assert documented == pipeline.DEFAULTS


def test_readme_cli_block_lists_exactly_the_subcommands():
    block = re.search(r"## CLI.*?```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    documented = re.findall(r"^embkit (?:--config \S+ )?([\w-]+)", block.group(1), re.M)
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(subparsers.choices)


class TestRunMine:
    def test_outputs_and_manifest(self, tmp_path):
        config = fixture_config(tmp_path)
        manifest = pipeline.run_mine(config)
        out = tmp_path / "out"
        records = load_training_records(out / pipeline.TRAINING_RECORDS_FILE)
        assert len(records) == 4  # q1 has two positives
        for record in records:
            assert record.prompt.endswith("</s>")
            assert len(record.negatives) <= 3
            assert record.positive_soft_score is not None
        mined = [json.loads(line) for line in (out / pipeline.MINED_FILE).read_text().splitlines()]
        for entry in mined:
            for negative in entry["negatives"]:
                assert negative["score"] <= entry["threshold"]
            assert entry["threshold"] == pytest.approx(0.95 * entry["positive_score"])
        assert manifest["counts"] == {"queries": 3, "pairs": 4}
        assert set(manifest["inputs"]) == {
            "corpus", "queries", "qrels", "doc_vectors", "query_vectors", "reranker_scores",
        }
        assert set(manifest["outputs"]) == {
            pipeline.TRAINING_RECORDS_FILE, pipeline.MINED_FILE, pipeline.TEACHER_SCORES_FILE,
            pipeline.RERANKER_SCORES_FILE,
        }

    def test_reranker_scores_file_holds_every_pool_pair(self, tmp_path):
        pipeline.run_mine(fixture_config(tmp_path))
        written = tmp_path / "out" / pipeline.RERANKER_SCORES_FILE
        rows = [json.loads(line) for line in written.read_text().splitlines()]
        assert [(r["query_id"], r["doc_id"]) for r in rows] == sorted((r["query_id"], r["doc_id"]) for r in rows)
        # The 24 pairs of the fixture's three pools are exactly the fixture's score file.
        fixture_scores = rerank.load_scores(PIPELINE_FIXTURE / "reranker_scores.jsonl")
        assert len(rows) == 24
        assert sorted(rerank.load_scores(written).items()) == sorted(fixture_scores.items())

    def test_endpoint_run_reproduces_from_its_reranker_scores(self, tmp_path, scoring_server):
        config = fixture_config(tmp_path, out_name="wire")
        config.paths["reranker_scores"] = None
        config.paths["reranker_endpoint"] = scoring_server.endpoint
        manifest = pipeline.run_mine(config)
        assert pipeline.RERANKER_SCORES_FILE in manifest["outputs"]
        posts = scoring_server.calls
        config = fixture_config(tmp_path, out_name="replay")
        config.paths["reranker_scores"] = str(tmp_path / "wire" / pipeline.RERANKER_SCORES_FILE)
        assert pipeline.validate_config(config) == []
        pipeline.run_mine(config)
        assert scoring_server.calls == posts
        wire, replay = output_bytes(tmp_path / "wire"), output_bytes(tmp_path / "replay")
        wire.pop(pipeline.MANIFEST_FILE), replay.pop(pipeline.MANIFEST_FILE)
        assert wire == replay

    def test_unknown_query_in_qrels_fails_before_any_post(self, tmp_path, scoring_server):
        broken = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, broken)
        with open(broken / "qrels.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"query_id": "q9", "doc_id": "d1", "label": 1}\n')
        config = pipeline.load_config(broken / "config.json")
        config.paths["output_dir"] = str(tmp_path / "out")
        config.paths["reranker_scores"] = None
        config.paths["reranker_endpoint"] = scoring_server.endpoint
        with pytest.raises(PipelineStageError) as excinfo:
            pipeline.run_mine(config)
        assert (excinfo.value.stage, excinfo.value.query_id) == ("mine", "q9")
        assert "qrel references unknown query 'q9'" in str(excinfo.value)
        assert scoring_server.calls == 0

    def test_unknown_document_in_qrels_fails_before_any_query_is_retrieved(self, tmp_path, monkeypatch):
        broken = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, broken)
        with open(broken / "qrels.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"query_id": "q2", "doc_id": "d99", "label": 1}\n')
        config = pipeline.load_config(broken / "config.json")
        config.paths["output_dir"] = str(tmp_path / "out")
        retrieved = []
        retrieve = pipeline.retrieve_query
        monkeypatch.setattr(pipeline, "retrieve_query",
                            lambda config, inputs, query, *args: retrieved.append(query.id)
                            or retrieve(config, inputs, query, *args))
        with pytest.raises(PipelineStageError) as excinfo:
            pipeline.run_mine(config)
        assert (excinfo.value.stage, excinfo.value.query_id) == ("mine", "q2")
        assert "qrel references unknown document 'd99'" in str(excinfo.value)
        assert retrieved == []

    @pytest.mark.parametrize("vector", [[1.8, 0.2, 0.0, 0.0], [-1.0, -1.0, -1.0, -1.0]],
                             ids=["retrieved", "never-retrieved"])
    def test_unknown_document_in_doc_vectors_fails_before_any_post(self, tmp_path, scoring_server, vector):
        """d9 is scaled from d1, so q1 retrieves it, or points away from every query, so with
        pool_size 2 none does; d0 follows it, so the first unknown id in file order is named."""
        config = pipeline.load_config(copy_fixture(tmp_path, doc_vectors=lambda text: text + "".join(
            json.dumps({"id": doc_id, "vector": v}) + "\n" for doc_id, v in [("d9", vector), ("d0", [-1.0] * 4)])))
        config.settings["pool_size"] = 2
        config.paths["reranker_scores"] = None
        config.paths["reranker_endpoint"] = scoring_server.endpoint
        with pytest.raises(PipelineStageError) as excinfo:
            pipeline.run_mine(config)
        assert (excinfo.value.stage, excinfo.value.query_id) == ("mine", None)
        assert str(excinfo.value) == "stage 'mine': doc vector references unknown document 'd9'"
        assert scoring_server.calls == 0

    @pytest.mark.parametrize("wire", [False, True], ids=["score-file", "endpoint"])
    def test_shuffled_input_lines_write_the_same_data_files(self, tmp_path, scoring_server, wire):
        """Shuffling the lines of all six input files changes no byte of the four data files."""
        names = ("corpus", "queries", "qrels", "doc_vectors", "query_vectors", "reranker_scores")

        def data_files(config_path):
            config = pipeline.load_config(config_path)
            if wire:
                config.paths["reranker_scores"] = None
                config.paths["reranker_endpoint"] = scoring_server.endpoint
            pipeline.run_mine(config)
            written = output_bytes(Path(config.path("output_dir")))
            written.pop(pipeline.MANIFEST_FILE)  # it digests the inputs
            return written

        def shuffle(rng):
            def edit(text):
                lines = text.splitlines()
                rng.shuffle(lines)
                return "\n".join(lines) + "\n"
            return edit

        expected = data_files(copy_fixture(tmp_path / "unshuffled"))
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            shuffled = copy_fixture(tmp_path / f"seed-{seed}", **{name: shuffle(rng) for name in names})
            assert (shuffled.parent / "corpus.jsonl").read_text() != (PIPELINE_FIXTURE / "corpus.jsonl").read_text()
            assert data_files(shuffled) == expected, f"seed {seed}"

    @pytest.mark.parametrize("below", ["", "sub"], ids=["is-a-file", "under-a-file"])
    def test_output_dir_blocked_by_a_file_fails_before_any_post(self, tmp_path, scoring_server, below):
        (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
        config = fixture_config(tmp_path, out_name=os.path.join("taken", below))
        config.paths["reranker_scores"] = None
        config.paths["reranker_endpoint"] = scoring_server.endpoint
        with pytest.raises(ValidationError, match=r"paths\.output_dir: .*taken is not a directory"):
            pipeline.run_mine(config)
        assert scoring_server.calls == 0

    def test_a_query_text_shared_by_two_ids_is_scored_once_per_doc(self, tmp_path):
        inputs = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, inputs)
        with open(inputs / "queries.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"id": "q4", "text": "mars rover mission", "task": "MSMARCO"}\n')  # q1's text
        with open(inputs / "query_vectors.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"id": "q4", "vector": [0.1, 1.0, 0.1, 0.0]}\n')
        lock = threading.Lock()
        scored = []

        def counting_score(query, doc):
            with lock:
                scored.append((query, doc))
            return default_score(query, doc)

        config = pipeline.load_config(inputs / "config.json")
        config.paths["output_dir"] = str(tmp_path / "out")
        config.paths["reranker_scores"] = None
        with ScoringServer(score_fn=counting_score) as server:
            config.paths["reranker_endpoint"] = server.endpoint
            pipeline.run_mine(config)
        # Four pools of all 8 docs, of which q1's and q4's are the same 8 text pairs.
        assert len(scored) == len(set(scored)) == 24
        written = rerank.load_scores(tmp_path / "out" / pipeline.RERANKER_SCORES_FILE)
        assert len(written) == 32
        assert all(written.score("q4", d) == s for q, d, s in written.items() if q == "q1")

    @pytest.mark.parametrize("overrides, message", [
        ({"pool_size": True}, "pool_size: must be an integer >= 1, got True"),
        ({"strict": "no"}, "strict: must be a boolean, got 'no'"),
        ({"pool_size": 2.5}, "pool_size: must be an integer >= 1, got 2.5"),
        ({"prompt": {"shots": {"MSMARCO": [["only a query"]]}}},
         "prompt.shots.MSMARCO: must be a list of [query, passage] pairs"),
        ({"prompt": {"eos_marker": 5}}, "prompt.eos_marker: must be a non-empty string"),
        ({"rrf_k": float("inf")}, "rrf_k: must be finite, got inf"),
    ], ids=["bool-pool-size", "string-strict", "fractional-pool-size", "one-element-shot", "int-eos-marker",
            "infinite-rrf-k"])
    def test_invalid_config_rejected_before_any_input_is_read(self, tmp_path, overrides, message):
        with pytest.raises(ValidationError) as excinfo:
            pipeline.run_mine(fixture_config(tmp_path, **overrides))
        assert str(excinfo.value).startswith("invalid config:\n  ")
        assert message in str(excinfo.value)
        assert not (tmp_path / "out").exists()

    def test_shot_config_lands_in_prompt(self, tmp_path):
        pipeline.run_mine(fixture_config(tmp_path))
        records = load_training_records(tmp_path / "out" / pipeline.TRAINING_RECORDS_FILE)
        msmarco = [r for r in records if r.task == "MSMARCO"]
        assert msmarco and all("capital of france" in r.prompt for r in msmarco)
        others = [r for r in records if r.task != "MSMARCO"]
        assert others and all("capital of france" not in r.prompt for r in others)

    def test_byte_identical_across_runs(self, tmp_path):
        pipeline.run_mine(fixture_config(tmp_path, out_name="run1"))
        pipeline.run_mine(fixture_config(tmp_path, out_name="run2"))
        assert output_bytes(tmp_path / "run1") == output_bytes(tmp_path / "run2")

    def test_byte_identical_across_in_flight_limits(self, tmp_path, monkeypatch):
        with ScoringServer(max_batch_size=2) as server:
            for name, limit in (("serial", 1), ("concurrent", rerank.MAX_IN_FLIGHT)):
                monkeypatch.setattr(rerank, "MAX_IN_FLIGHT", limit)
                config = fixture_config(tmp_path, out_name=name)
                config.paths["reranker_scores"] = None
                config.paths["reranker_endpoint"] = server.endpoint
                pipeline.run_mine(config)
        assert output_bytes(tmp_path / "serial") == output_bytes(tmp_path / "concurrent")

    def test_config_change_changes_hash_and_digests(self, tmp_path):
        base = pipeline.run_mine(fixture_config(tmp_path, out_name="base"))
        bumped = pipeline.run_mine(fixture_config(tmp_path, out_name="bumped", rrf_k=70))
        assert base["config_hash"] != bumped["config_hash"]
        assert base["inputs"] == bumped["inputs"]
        assert (
            base["outputs"][pipeline.TEACHER_SCORES_FILE]
            != bumped["outputs"][pipeline.TEACHER_SCORES_FILE]
        )

    def test_fixture_config_hash_is_pinned(self, tmp_path):
        # Any change to what the hash covers, or to how it is serialized,
        # changes every manifest; this makes such a change visible.
        assert fixture_config(tmp_path).config_hash() == (
            "0f7ebe7eb44851b385d7fb37fd83c986f6f643f6bfe08694e76e34434c349398"
        )

    def test_fixture_output_digests_are_pinned(self, tmp_path):
        """A refactor leaves every data file byte-identical.  A change meant
        to alter an output updates these values and says so in CHANGES.md."""
        manifest = pipeline.run_mine(fixture_config(tmp_path))
        assert manifest["outputs"] == {
            pipeline.TRAINING_RECORDS_FILE: "0e6d0fec0c9ce23ff30fa5e2db1b956f687579227a40dd3ec308654d5ccff773",
            pipeline.MINED_FILE: "fc656ab8577ce9e8e55f1209cefa6e9c50be2689c35236d5eeda872a1cff78e3",
            pipeline.TEACHER_SCORES_FILE: "516184ddbca22f17382f0cf9e2ae7397f3e030eca05da1dbbca590da6f526499",
            pipeline.RERANKER_SCORES_FILE: "af77084026f212cb22ede0ebfc5ee7bf343bcf514dca9de1efadaf99b4db51ef",
        }

    def test_fixture_inputs_load_without_iter_records(self, tmp_path, monkeypatch):
        """The orjson reader serves every input of the fixture, so a load that
        fell back to `iter_records` without need would show here."""
        config = fixture_config(tmp_path)
        expected = pipeline.load_inputs(config)

        def refuse(path):
            raise AssertionError(f"{path} was read by iter_records")

        monkeypatch.setattr(jsonl, "iter_records", refuse)
        inputs = pipeline.load_inputs(config)
        assert (inputs.corpus, inputs.queries, inputs.qrels) == (expected.corpus, expected.queries, expected.qrels)
        for got, want in [(inputs.doc_vectors, expected.doc_vectors), (inputs.query_vectors, expected.query_vectors)]:
            assert got.ids == want.ids and got.matrix.tobytes() == want.matrix.tobytes()
        assert inputs.gateway.scores.items() == expected.gateway.scores.items()
        assert len(inputs.gateway.scores) > 0

    def test_reranker_mode_never_mines_a_co_positive(self, tmp_path):
        # q1 has qrels d1 and d2.  In reranker mode d2 scores 8.4, within
        # d1's threshold 9.1 x 0.95, so only the qrel rule keeps it out.
        pipeline.run_mine(fixture_config(tmp_path, score_source="reranker"))
        lines = (tmp_path / "out" / pipeline.MINED_FILE).read_text(encoding="utf-8").splitlines()
        mined = {(r["query_id"], r["positive_id"]): r for r in map(json.loads, lines)}
        q1_d1 = mined["q1", "d1"]
        assert q1_d1["threshold"] == 9.1 * 0.95 >= 8.4
        assert "d2" not in [n["doc_id"] for n in q1_d1["negatives"]]
        assert "d1" not in [n["doc_id"] for n in mined["q1", "d2"]["negatives"]]

    def test_strict_missing_score_aborts_naming_pair(self, tmp_path):
        trimmed = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, trimmed)
        lines = (trimmed / "reranker_scores.jsonl").read_text().splitlines()
        kept = [line for line in lines if '"q2", "doc_id": "d7"' not in line]
        assert len(kept) == len(lines) - 1
        (trimmed / "reranker_scores.jsonl").write_text("\n".join(kept) + "\n")
        config = pipeline.load_config(trimmed / "config.json")
        config.paths["output_dir"] = str(tmp_path / "out")
        with pytest.raises(PipelineStageError) as excinfo:
            pipeline.run_mine(config)
        assert excinfo.value.stage == "rerank"
        assert excinfo.value.query_id == "q2"
        assert "(q2, d7)" in str(excinfo.value)

    def test_lenient_mode_drops_missing_candidate(self, tmp_path):
        trimmed = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, trimmed)
        lines = (trimmed / "reranker_scores.jsonl").read_text().splitlines()
        kept = [line for line in lines if '"q2", "doc_id": "d7"' not in line]
        (trimmed / "reranker_scores.jsonl").write_text("\n".join(kept) + "\n")
        config = pipeline.load_config(trimmed / "config.json")
        config.paths["output_dir"] = str(tmp_path / "out")
        config.settings["strict"] = False
        manifest = pipeline.run_mine(config)
        assert manifest["counts"]["pairs"] == 4
        written = rerank.load_scores(tmp_path / "out" / pipeline.RERANKER_SCORES_FILE)
        assert len(written) == 23 and ("q2", "d7") not in written

    def test_lenient_mode_query_without_any_score_fails_naming_it(self, tmp_path):
        trimmed = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, trimmed)
        lines = (trimmed / "reranker_scores.jsonl").read_text().splitlines()
        kept = [line for line in lines if '"query_id": "q2"' not in line]
        assert 0 < len(kept) < len(lines)
        (trimmed / "reranker_scores.jsonl").write_text("\n".join(kept) + "\n")
        config = pipeline.load_config(trimmed / "config.json")
        config.paths["output_dir"] = str(tmp_path / "out")
        config.settings["strict"] = False
        with pytest.raises(PipelineStageError) as excinfo:
            pipeline.run_mine(config)
        assert excinfo.value.stage == "rerank"
        assert excinfo.value.query_id == "q2"
        assert "no reranker scores available for query 'q2'" in str(excinfo.value)
        assert not (tmp_path / "out").exists()

    def test_unknown_task_fails_in_emit(self, tmp_path):
        broken = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, broken)
        queries = (broken / "queries.jsonl").read_text().replace("MSMARCO", "NoSuchTask")
        (broken / "queries.jsonl").write_text(queries)
        config = pipeline.load_config(broken / "config.json")
        config.paths["output_dir"] = str(tmp_path / "out")
        with pytest.raises(PipelineStageError) as excinfo:
            pipeline.run_mine(config)
        assert excinfo.value.stage == "emit"

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()], ids=["os-error", "interrupt"])
    def test_partial_output_removed_on_write_failure(self, tmp_path, monkeypatch, error):
        config = fixture_config(tmp_path)
        save_mined = pipeline.mining.save_mined

        def boom(path, mined):
            raise error

        monkeypatch.setattr(pipeline.mining, "save_mined", boom)
        with pytest.raises(type(error)):
            pipeline.run_mine(config)
        out = tmp_path / "out"
        assert not any(out.iterdir())
        monkeypatch.setattr(pipeline.mining, "save_mined", save_mined)
        pipeline.run_mine(config)
        before = output_bytes(out)
        monkeypatch.setattr(pipeline.mining, "save_mined", boom)
        with pytest.raises(type(error)):
            pipeline.run_mine(fixture_config(tmp_path, rrf_k=70))
        assert output_bytes(out) == before
        assert sorted(p.name for p in out.iterdir()) == sorted(before)

    def test_failed_rerun_keeps_previous_outputs(self, tmp_path, monkeypatch):
        config = fixture_config(tmp_path)
        pipeline.run_mine(config)
        out = tmp_path / "out"
        before = output_bytes(out)

        def boom(path, teacher_sets):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.fusion, "save_teacher_scores", boom)
        with pytest.raises(OSError):
            pipeline.run_mine(fixture_config(tmp_path, rrf_k=70))
        assert output_bytes(out) == before
        assert sorted(p.name for p in out.iterdir()) == sorted(before)

    def test_every_output_is_fsynced_before_the_first_rename(self, tmp_path, monkeypatch):
        events = []
        fsync, replace = os.fsync, os.replace

        def traced_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def traced_replace(src, dst):
            events.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", traced_fsync)
        monkeypatch.setattr(os, "replace", traced_replace)
        pipeline.run_mine(fixture_config(tmp_path))
        assert [kind for kind, _ in events] == ["fsync"] * 5 + ["replace"] * 5
        assert {inode for _, inode in events[:5]} == {inode for _, inode in events[5:]}

    def test_pairs_of_all_queries_share_one_post(self, tmp_path, scoring_server):
        config = fixture_config(tmp_path)
        config.paths["reranker_scores"] = None
        config.paths["reranker_endpoint"] = scoring_server.endpoint
        pipeline.run_mine(config)
        # The 24 distinct pairs of the three queries fit one batch of the default 32.
        assert scoring_server.calls == 1

    def test_retrieval_error_costs_no_reranker_call(self, tmp_path, scoring_server):
        broken = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, broken)
        lines = (broken / "query_vectors.jsonl").read_text().splitlines()
        (broken / "query_vectors.jsonl").write_text("\n".join(line for line in lines if '"q3"' not in line) + "\n")
        config = pipeline.load_config(broken / "config.json")
        config.paths["output_dir"] = str(tmp_path / "out")
        config.paths["reranker_scores"] = None
        config.paths["reranker_endpoint"] = scoring_server.endpoint
        with pytest.raises(PipelineStageError) as excinfo:
            pipeline.run_mine(config)
        assert (excinfo.value.stage, excinfo.value.query_id) == ("search-semantic", "q3")
        assert scoring_server.calls == 0

    def test_unreachable_endpoint_names_rerank_and_keeps_previous_outputs(self, tmp_path):
        pipeline.run_mine(fixture_config(tmp_path))
        out = tmp_path / "out"
        before = output_bytes(out)
        config = fixture_config(tmp_path)
        config.paths["reranker_scores"] = None
        config.paths["reranker_endpoint"] = "http://127.0.0.1:9/score"
        with pytest.raises(PipelineStageError) as excinfo:
            pipeline.run_mine(config)
        assert (excinfo.value.stage, excinfo.value.query_id) == ("rerank", None)
        assert output_bytes(out) == before
        assert sorted(p.name for p in out.iterdir()) == sorted(before)

    def test_endpoint_serves_missing_scores(self, tmp_path, scoring_server):
        config = fixture_config(tmp_path)
        config.paths["reranker_scores"] = None
        config.paths["reranker_endpoint"] = scoring_server.endpoint
        manifest = pipeline.run_mine(config)
        assert manifest["counts"]["pairs"] == 4
        assert scoring_server.calls >= 1
        records = load_training_records(tmp_path / "out" / pipeline.TRAINING_RECORDS_FILE)
        assert len(records) == 4


    def test_manifest_names_the_settings_it_hashes(self, tmp_path):
        config = fixture_config(tmp_path, rrf_k=70)
        pipeline.run_mine(config)
        written = json.loads((tmp_path / "out" / pipeline.MANIFEST_FILE).read_text(encoding="utf-8"))
        assert written["settings"] == config.settings
        canonical = json.dumps(written["settings"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == written["config_hash"]

    def test_a_query_is_fused_before_the_wire_pass_ends(self, tmp_path, monkeypatch):
        # 24 pairs in 12 chunks of 2, six in flight, so two rounds of replies:
        # q1's 8 pairs are all in the first round.
        monkeypatch.setattr(rerank, "BATCH_SIZE", 2)
        answered_at_fuse = []
        score_query = pipeline.score_query
        with ScoringServer(max_batch_size=2, delay=0.05) as server:
            def recording(config, inputs, query, *args):
                answered_at_fuse.append(server.answered)
                return score_query(config, inputs, query, *args)

            monkeypatch.setattr(pipeline, "score_query", recording)
            config = fixture_config(tmp_path)
            config.paths["reranker_scores"] = None
            config.paths["reranker_endpoint"] = server.endpoint
            pipeline.run_mine(config)
        assert server.calls == server.answered == 12
        assert len(answered_at_fuse) == 3
        assert answered_at_fuse[0] < server.answered

    def test_only_pairs_missing_from_the_score_file_are_posted(self, tmp_path):
        inputs = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, inputs)
        lines = (inputs / "reranker_scores.jsonl").read_text().splitlines()
        (inputs / "reranker_scores.jsonl").write_text("\n".join(lines[::2]) + "\n")
        stored = rerank.load_scores(inputs / "reranker_scores.jsonl")
        queries = corpus_mod.load_queries(inputs / "queries.jsonl")
        documents = corpus_mod.load_corpus(inputs / "corpus.jsonl").documents
        missing = {(queries[q].text, documents[d].text) for q, d, _ in
                   rerank.load_scores(PIPELINE_FIXTURE / "reranker_scores.jsonl").items() if (q, d) not in stored}
        posted = []
        with ScoringServer(score_fn=lambda query, doc: posted.append((query, doc)) or default_score(query, doc)
                           ) as server:
            config = pipeline.load_config(inputs / "config.json")
            config.paths["output_dir"] = str(tmp_path / "out")
            config.paths["reranker_endpoint"] = server.endpoint
            pipeline.run_mine(config)
        assert len(stored) == len(missing) == 12
        assert sorted(posted) == sorted(missing)
        # The file's scores and the wire's are merged in the written file.
        written = rerank.load_scores(tmp_path / "out" / pipeline.RERANKER_SCORES_FILE)
        assert len(written) == 24
        assert all(written.score(q, d) == s for q, d, s in stored.items())

    def test_queries_are_released_in_order_once_their_pairs_are_stored(self, tmp_path, monkeypatch):
        # One pair per POST, six in flight: 24 pairs take four rounds of replies.
        monkeypatch.setattr(rerank, "BATCH_SIZE", 1)
        seen = []
        score_query = pipeline.score_query
        with ScoringServer(delay=0.05) as server:
            def recording(config, inputs, query, lex, sem, docs):
                assert all(inputs.gateway.scores.score(query.id, doc_id) is not None for doc_id, _ in docs)
                seen.append((query.id, server.answered))
                return score_query(config, inputs, query, lex, sem, docs)

            monkeypatch.setattr(pipeline, "score_query", recording)
            config = fixture_config(tmp_path)
            config.paths["reranker_scores"] = None
            config.paths["reranker_endpoint"] = server.endpoint
            pipeline.run_mine(config)
        assert [query_id for query_id, _ in seen] == ["q1", "q2", "q3"]
        assert seen[0][1] < server.answered == 24

    @pytest.mark.parametrize("error", [
        RuntimeError("scoring stopped"),
        PipelineStageError("fuse", "q1", ValidationError("scoring stopped")),
    ], ids=["other-error", "stage-error"])
    def test_an_error_that_stops_the_pass_cuts_no_more_chunks(self, tmp_path, monkeypatch, error):
        monkeypatch.setattr(rerank, "BATCH_SIZE", 1)

        def failing(*args):
            raise error

        monkeypatch.setattr(pipeline, "score_query", failing)
        with ScoringServer(delay=0.1) as server:
            config = fixture_config(tmp_path)
            config.paths["reranker_scores"] = None
            config.paths["reranker_endpoint"] = server.endpoint
            with pytest.raises(type(error), match="scoring stopped") as excinfo:
                pipeline.run_mine(config)
            assert excinfo.value is error
            posted = server.calls
            time.sleep(0.2)
            assert server.calls == posted < 24
            assert server.answered == posted

    def test_wire_failure_mid_pass_names_rerank_after_queries_were_fused(self, tmp_path, monkeypatch):
        pipeline.run_mine(fixture_config(tmp_path))
        out = tmp_path / "out"
        before = output_bytes(out)
        # One pair per POST, six in flight, rounds 0.1 s apart.  Requests 1-18
        # are answered and the 19th on (round 4) get a 503; the last answered
        # one is held back 0.5 s, so its worker learns of the failure only
        # after the other workers have failed.  q1's 8 pairs land in round 2.
        monkeypatch.setattr(rerank, "BATCH_SIZE", 1)
        monkeypatch.setattr(rerank, "RETRIES", 0)
        lock = threading.Lock()
        scored = 0
        calls_after_last_answer = None

        def score_fn(query, doc):
            nonlocal scored, calls_after_last_answer
            with lock:
                scored += 1
                last = scored == 18
            if last:
                time.sleep(0.5)
                calls_after_last_answer = server.calls
            return 1.0

        fused = []
        build = pipeline.fusion.build_teacher_scores

        def recording_build(query, *args):
            fused.append((query.id, server.calls))
            return build(query, *args)

        monkeypatch.setattr(pipeline.fusion, "build_teacher_scores", recording_build)
        with ScoringServer(score_fn=score_fn, delay=0.1, fail_from=19) as server:
            config = fixture_config(tmp_path, rrf_k=70)
            config.paths["reranker_scores"] = None
            config.paths["reranker_endpoint"] = server.endpoint
            with pytest.raises(PipelineStageError) as excinfo:
                pipeline.run_mine(config)
        assert (excinfo.value.stage, excinfo.value.query_id) == ("rerank", None)
        assert isinstance(excinfo.value.cause, RerankTransportError)
        # q1 was fused before any request was refused.
        assert fused[0][0] == "q1"
        assert fused[0][1] < 19
        assert server.answered == 18
        # No chunk was cut once a failure was known.
        assert server.calls == calls_after_last_answer
        assert output_bytes(out) == before
        assert sorted(p.name for p in out.iterdir()) == sorted(before)


def use_worker(monkeypatch, worker: bool) -> list[int]:
    """Make `load_inputs` fork its vector worker, or load serially, whatever
    the host's CPU count.  Returns the pids `os.fork` will hand the parent."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if worker else {0})
    forks: list[int] = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def copy_fixture(tmp_path, **edits) -> Path:
    """The pipeline fixture copied under tmp_path with each named file's text
    passed through its edit; returns the copied config."""
    inputs = tmp_path / "inputs"
    shutil.copytree(PIPELINE_FIXTURE, inputs)
    for name, edit in edits.items():
        path = inputs / f"{name}.jsonl"
        path.write_text(edit(path.read_text()))
    raw = json.loads((inputs / "config.json").read_text())
    raw["paths"]["output_dir"] = str(tmp_path / "out")
    (inputs / "config.json").write_text(json.dumps(raw))
    return inputs / "config.json"


def mine_outcome(config_path, monkeypatch, capsys, worker: bool):
    """Whether a fork was made, and what `embkit mine` and `run_mine` report on config_path."""
    forks = use_worker(monkeypatch, worker)
    code = main(["--config", str(config_path), "mine"])
    err = capsys.readouterr().err
    with pytest.raises((PipelineStageError, OSError)) as caught:
        pipeline.run_mine(pipeline.load_config(config_path))
    exc = caught.value
    return bool(forks), (code, err, type(exc), str(exc), getattr(exc, "stage", None), getattr(exc, "query_id", None))


# Each load stage, in the order they fail, with an input file and an edit of it that fails that stage
# and no earlier one.
BREAKS = {
    "load-corpus": ("corpus", lambda text: text + '{"id": "d9"}\n'),
    "load-queries": ("queries", lambda text: text + '{"id": "q9", "text": "moon"}\n'),
    "load-qrels": ("qrels", lambda text: text + '{"query_id": "q1", "doc_id": "d1", "label": 0}\n'),
    "index-lexical": ("corpus", lambda text: ""),
    "load-scores": ("reranker_scores", lambda text: text + '{"query_id": "q1", "doc_id": "d1"}\n'),
    "load-doc-vectors": ("doc_vectors", lambda text: text + '{"id": "d9", "vector": [0.1, "x", 0.0, 0.0]}\n'),
    "load-query-vectors": ("query_vectors", lambda text: ""),
}


@pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="the vector worker needs os.fork and os.memfd_create")
class TestVectorWorker:
    """`load_inputs` parses the vector files in a forked child where it can."""

    def test_worker_and_serial_loads_are_equal(self, tmp_path, monkeypatch):
        config = fixture_config(tmp_path)
        use_worker(monkeypatch, False)
        serial = pipeline.load_inputs(config)
        forks = use_worker(monkeypatch, True)
        forked = pipeline.load_inputs(config)
        assert len(forks) == 1
        for got, want in [(forked.doc_vectors, serial.doc_vectors), (forked.query_vectors, serial.query_vectors)]:
            assert (got.ids, got.dim, len(got)) == (want.ids, want.dim, len(want))
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert all(got.get(vec_id).tobytes() == want.get(vec_id).tobytes() for vec_id in want.ids)
        assert (forked.corpus, forked.queries, forked.qrels) == (serial.corpus, serial.queries, serial.qrels)
        assert forked.gateway.scores.items() == serial.gateway.scores.items()

    def test_worker_and_serial_runs_write_the_same_bytes(self, tmp_path, monkeypatch):
        use_worker(monkeypatch, False)
        pipeline.run_mine(fixture_config(tmp_path, "serial"))
        forks = use_worker(monkeypatch, True)
        pipeline.run_mine(fixture_config(tmp_path, "forked"))
        assert len(forks) == 1
        assert output_bytes(tmp_path / "forked") == output_bytes(tmp_path / "serial")

    def test_fixture_vectors_come_from_the_worker(self, tmp_path, monkeypatch):
        """The parent forks once and never loads a vector file itself, so a
        silent fallback to a serial load fails here."""
        forks = use_worker(monkeypatch, True)
        counted_fork = os.fork

        def refuse(path):
            raise AssertionError(f"{path} was loaded by the parent process")

        def fork_then_refuse():
            pid = counted_fork()
            if pid:  # the child keeps the real loader
                monkeypatch.setattr(dense, "load_vectors", refuse)
            return pid

        monkeypatch.setattr(os, "fork", fork_then_refuse)
        inputs = pipeline.load_inputs(fixture_config(tmp_path))
        assert len(forks) == 1
        assert (len(inputs.doc_vectors), len(inputs.query_vectors)) == (8, 3)
        assert inputs.query_vectors.get("q2").tobytes() == np.asarray(inputs.query_vectors.matrix[1]).tobytes()

    def test_no_fork_while_another_thread_runs(self, tmp_path, monkeypatch):
        forks = use_worker(monkeypatch, True)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            inputs = pipeline.load_inputs(fixture_config(tmp_path))
        finally:
            release.set()
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert forks == [] and len(inputs.doc_vectors) == 8

    @pytest.mark.parametrize("edits, stage", [
        ({"doc_vectors": lambda text: text + '{"id": "d9", "vector": [0.1, "x", 0.0, 0.0]}\n'},
         "load-doc-vectors"),
        ({"query_vectors": lambda text: text + '{"id": "q9", "vector": [0.1, 1e999, 0.0, 0.0]}\n'},
         "load-query-vectors"),
        ({"doc_vectors": lambda text: ""}, "load-doc-vectors"),
        ({"query_vectors": lambda text: "\n  \n"}, "load-query-vectors"),
        ({"corpus": lambda text: '{"id": "d1"}\n' + text,
          "doc_vectors": lambda text: text + '{"id": "d9", "vector": [true]}\n'}, "load-corpus"),
        ({"reranker_scores": lambda text: text + '{"query_id": "q1", "doc_id": "d1"}\n'}, "load-scores"),
        ({"reranker_scores": lambda text: text + '{"query_id": "q1", "doc_id": "d1"}\n',
          "query_vectors": lambda text: ""}, "load-scores"),
    ], ids=["bad-doc-vector-line", "bad-query-vector-line", "empty-doc-vectors", "blank-query-vectors",
            "bad-corpus-and-doc-vectors", "bad-score-line", "bad-scores-and-empty-query-vectors"])
    def test_worker_failure_reports_the_serial_error(self, tmp_path, monkeypatch, capsys, edits, stage):
        config = copy_fixture(tmp_path, **edits)
        serial_forked, serial = mine_outcome(config, monkeypatch, capsys, worker=False)
        forked, outcome = mine_outcome(config, monkeypatch, capsys, worker=True)
        assert (serial_forked, forked) == (False, True)
        assert outcome == serial
        assert outcome[0] == 2 and outcome[4] == stage and outcome[5] is None

    @pytest.mark.parametrize("worker", [False, True], ids=["serial", "forked"])
    def test_inputs_fail_in_one_stage_order(self, tmp_path, monkeypatch, worker):
        """With every stage from one on broken, that one is reported, forked or not."""
        forks, order = use_worker(monkeypatch, worker), list(BREAKS)
        for first, stage in enumerate(order):
            edits = {}
            for later in reversed(order[first:]):  # an earlier stage's edit of a file wins
                name, edit = BREAKS[later]
                edits[name] = edit
            config = pipeline.load_config(copy_fixture(tmp_path / stage, **edits))
            with pytest.raises(PipelineStageError) as excinfo:
                pipeline.load_inputs(config)
            assert (excinfo.value.stage, len(forks)) == (stage, first + 1 if worker else 0)

    @pytest.mark.parametrize("name", ["doc_vectors", "query_vectors"])
    def test_unreadable_vector_file_reports_the_serial_error(self, tmp_path, monkeypatch, capsys, name):
        """A vector file replaced by a directory after the config check
        cannot be opened; both loads raise the same OSError."""
        config = copy_fixture(tmp_path)
        vectors = config.parent / f"{name}.jsonl"
        vectors.unlink()
        vectors.mkdir()
        monkeypatch.setattr(pipeline, "validate_paths", lambda config: [])
        serial_forked, serial = mine_outcome(config, monkeypatch, capsys, worker=False)
        forked, outcome = mine_outcome(config, monkeypatch, capsys, worker=True)
        assert (serial_forked, forked) == (False, True)
        assert outcome == serial
        assert outcome[0] == 1 and issubclass(outcome[2], OSError) and str(vectors) in outcome[1]

    def test_worker_crash_falls_back_to_a_serial_load(self, tmp_path, monkeypatch):
        parent = os.getpid()
        load = dense.load_vectors

        def crash_in_child(path):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return load(path)

        monkeypatch.setattr(dense, "load_vectors", crash_in_child)
        config = fixture_config(tmp_path)
        forks = use_worker(monkeypatch, True)
        inputs = pipeline.load_inputs(config)
        assert len(forks) == 1
        use_worker(monkeypatch, False)
        expected = pipeline.load_inputs(config)
        assert inputs.doc_vectors.matrix.tobytes() == expected.doc_vectors.matrix.tobytes()

    def test_child_without_a_clean_exit_is_a_failed_worker(self, tmp_path, monkeypatch):
        """What the child wrote counts only once it has exited with 0."""
        parent, load, exit_ = os.getpid(), dense.load_vectors, os._exit
        loaded_here = []

        def load_counted(path):
            if os.getpid() == parent:
                loaded_here.append(path)
            return load(path)

        monkeypatch.setattr(dense, "load_vectors", load_counted)
        monkeypatch.setattr(os, "_exit", lambda code: exit_(3))  # only the child exits
        config = fixture_config(tmp_path)
        forks = use_worker(monkeypatch, True)
        inputs = pipeline.load_inputs(config)
        assert len(forks) == 1 and loaded_here == [config.path("doc_vectors"), config.path("query_vectors")]
        assert inputs.doc_vectors.ids == [f"d{i}" for i in range(1, 9)]

    @pytest.mark.parametrize("error, raised", [(ValidationError("bad corpus"), PipelineStageError),
                                               (KeyboardInterrupt(), KeyboardInterrupt)],
                             ids=["stage-error", "interrupt"])
    def test_main_process_failure_kills_a_busy_worker(self, tmp_path, monkeypatch, error, raised):
        started = tmp_path / "worker-started"

        def slow_load(path):  # runs in the child
            started.touch()
            time.sleep(60)

        def fail_once_the_worker_runs(path):
            deadline = time.monotonic() + 10
            while not started.exists():
                assert time.monotonic() < deadline, "the worker never started"
                time.sleep(0.01)
            raise error

        monkeypatch.setattr(dense, "load_vectors", slow_load)
        monkeypatch.setattr(corpus_mod, "load_corpus", fail_once_the_worker_runs)
        forks = use_worker(monkeypatch, True)
        begun = time.monotonic()
        with pytest.raises(raised):
            pipeline.load_inputs(fixture_config(tmp_path))
        assert time.monotonic() - begun < 10
        assert len(forks) == 1 and forks[0] not in child_pids()


class TestCli:
    def write_config(self, tmp_path, **overrides):
        raw = json.loads((PIPELINE_FIXTURE / "config.json").read_text())
        raw["paths"] = {
            key: (str(PIPELINE_FIXTURE / value) if key != "output_dir" else str(tmp_path / "out"))
            for key, value in raw["paths"].items()
        }
        for key, value in overrides.items():
            if isinstance(value, dict):
                raw[key].update(value)
            else:
                raw[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_mine_ok_exit_zero(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["--config", str(config), "mine"]) == 0
        assert (tmp_path / "out" / pipeline.TRAINING_RECORDS_FILE).exists()
        assert "4 pairs" in capsys.readouterr().out

    def test_invalid_config_exit_one(self, tmp_path, capsys):
        config = self.write_config(tmp_path, mining={"margin": 1.5})
        assert main(["--config", str(config), "mine"]) == 1
        assert "mining.margin" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"pool_size": 2.9}, "pool_size: must be an integer >= 1, got 2.9"),
        ({"workers": 4}, "workers: unknown setting"),
        ({"mining": {"top_kk": 5}}, "mining.top_kk: unknown setting"),
        ({"rrf_k": "x"}, "\n  rrf_k: must be a number, got 'x'"),
        ({"bm25": {"k1": float("inf")}}, "bm25.k1: must be finite, got inf"),
        ({"rrf_k": float("inf")}, "rrf_k: must be finite, got inf"),
        ({"retrieval_tasks": ["MSMARCO"]}, "retrieval_tasks: unknown setting"),
        ({"paths": {"reranker_endpoint": "not a url"}},
         "paths.reranker_endpoint: must be an http:// or https:// URL with a host and a numeric port "
         "if it names one, got 'not a url'"),
        ({"paths": {"reranker_endpoint": "http://127.0.0.1:notaport/score"}},
         "paths.reranker_endpoint: must be an http:// or https:// URL with a host and a numeric port "
         "if it names one, got 'http://127.0.0.1:notaport/score'"),
    ], ids=["fractional-pool-size", "unknown-key", "unknown-section-key", "string-rrf-k",
            "infinite-k1", "infinite-rrf-k", "removed-retrieval-tasks", "endpoint-not-a-url",
            "endpoint-port-not-a-number"])
    def test_bad_setting_exit_one(self, tmp_path, capsys, overrides, message):
        config = self.write_config(tmp_path, **overrides)
        assert main(["--config", str(config), "mine"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        b'{"rrf_k": 60, "note": "\xff"}',
        b'{"rrf_k": ' + b"6" * 5000 + b"}",
        b'{"prompt": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ], ids=["not-utf8", "5000-digit-integer", "deep-nesting"])
    def test_unreadable_config_exit_one(self, tmp_path, capsys, body):
        config = tmp_path / "config.json"
        config.write_bytes(body)
        assert main(["--config", str(config), "mine"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: invalid JSON: ") and "Traceback" not in err

    def test_stage_error_exit_two(self, tmp_path, capsys):
        trimmed = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, trimmed)
        lines = (trimmed / "reranker_scores.jsonl").read_text().splitlines()
        (trimmed / "reranker_scores.jsonl").write_text("\n".join(lines[1:]) + "\n")
        raw = json.loads((trimmed / "config.json").read_text())
        raw["paths"]["output_dir"] = str(tmp_path / "out")
        config = trimmed / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["--config", str(config), "mine"]) == 2
        assert "stage 'rerank'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, stage", [("doc_vectors", "load-doc-vectors"),
                                             ("query_vectors", "load-query-vectors")])
    @pytest.mark.parametrize("body", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_vector_file_without_records_stops_at_its_load_stage(self, tmp_path, capsys, name, stage, body):
        inputs = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, inputs)
        (inputs / f"{name}.jsonl").write_text(body)
        raw = json.loads((inputs / "config.json").read_text())
        raw["paths"]["output_dir"] = str(tmp_path / "out")
        (inputs / "config.json").write_text(json.dumps(raw))
        assert main(["--config", str(inputs / "config.json"), "mine"]) == 2
        err = capsys.readouterr().err
        assert f"stage '{stage}': {inputs / name}.jsonl: no vector records" in err

    def test_lenient_config_mines_past_a_missing_score(self, tmp_path):
        trimmed = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, trimmed)
        lines = (trimmed / "reranker_scores.jsonl").read_text().splitlines()
        (trimmed / "reranker_scores.jsonl").write_text("\n".join(lines[1:]) + "\n")
        raw = json.loads((trimmed / "config.json").read_text())
        raw["strict"] = False
        raw["paths"]["output_dir"] = str(tmp_path / "out")
        config = trimmed / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["--config", str(config), "mine"]) == 0  # lenient: drops the candidate

    def test_seed_override_changes_output(self, tmp_path):
        config = self.write_config(tmp_path)
        main(["--config", str(config), "mine"])
        first = (tmp_path / "out" / pipeline.MINED_FILE).read_bytes()
        main(["--config", str(config), "--seed", "43", "mine"])
        second = (tmp_path / "out" / pipeline.MINED_FILE).read_bytes()
        assert first != second

    def test_convert_nli_subcommand(self, tmp_path):
        src = tmp_path / "nli.jsonl"
        src.write_text(
            '{"premise": "p1", "hypothesis": "h1", "label": "entailment"}\n'
            '{"premise": "p2", "hypothesis": "h2", "label": "neutral"}\n'
            '{"premise": "p3", "hypothesis": "h3", "label": "contradiction"}\n',
            encoding="utf-8",
        )
        dst = tmp_path / "sts.jsonl"
        assert main(["convert-nli", "--input", str(src), "--output", str(dst)]) == 0
        lines = [json.loads(line) for line in dst.read_text().splitlines()]
        assert [l["similarity"] for l in lines] == [1.0, 0.0]

    def test_convert_nli_missing_input_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert main(["convert-nli", "--input", str(missing), "--output", str(tmp_path / "sts.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.jsonl" in err
        assert not (tmp_path / "sts.jsonl").exists()

    def test_dedup_subcommand_expands_pairs(self, tmp_path):
        src = tmp_path / "pairs.jsonl"
        src.write_text(
            '{"query": "A", "positives": ["A1", "A2"], "task": "MSMARCO"}\n'
            '{"query": "A", "positives": ["A1"], "task": "MSMARCO"}\n',
            encoding="utf-8",
        )
        dst = tmp_path / "unique.jsonl"
        assert main(["dedup", "--input", str(src), "--output", str(dst)]) == 0
        lines = [json.loads(line) for line in dst.read_text().splitlines()]
        assert [(l["query"], l["positive"]) for l in lines] == [("A", "A1"), ("A", "A2")]

    def test_format_prompts_subcommand(self, tmp_path):
        src = tmp_path / "queries.jsonl"
        src.write_text('{"id": "q1", "text": "hello", "task": "STS12"}\n', encoding="utf-8")
        dst = tmp_path / "prompts.jsonl"
        assert main(["format-prompts", "--input", str(src), "--output", str(dst)]) == 0
        row = json.loads(dst.read_text())
        assert row["prompt"] == "Instruct: Retrieve semantically similar text.\nQuery: hello</s>"

    def test_loss_and_grad_check_subcommands(self, tmp_path, capsys):
        batch = tmp_path / "batch.jsonl"
        batch.write_text(
            '{"s_pos": 0.0, "s_neg": [0.0], "teacher": [40.0, 0.0]}\n', encoding="utf-8"
        )
        assert main(["loss", "--batch", str(batch), "--tau", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "infonce 0.6931471806" in out
        assert "distill 0.6931471806" in out
        assert main(["grad-check", "--batch", str(batch)]) == 0
        out = capsys.readouterr().out
        assert "grad-check infonce" in out and "grad-check distill" in out

    @pytest.mark.parametrize("settings, message", [
        ({"prompt": {"eos_marker": ""}}, "prompt.eos_marker: must be a non-empty string"),
        ({"prompt": {"shots": {"STS12": "oops"}}},
         "prompt.shots.STS12: must be a list of [query, passage] pairs"),
        ({"loss": {"tau": 1}}, "loss: unknown setting"),
        ({"prompt": "x"}, "prompt: must be an object, got 'x'"),
        ({"paths": {"corpus": 5}}, "paths: must map names to strings or null"),
    ], ids=["empty-eos", "bad-shots", "loss-section", "prompt-not-object", "path-not-string"])
    def test_commands_without_paths_still_check_settings(self, tmp_path, capsys, settings, message):
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"id": "q1", "text": "hello", "task": "STS12"}\n', encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings), encoding="utf-8")
        prompts = tmp_path / "prompts.jsonl"
        assert main(["--config", str(config), "format-prompts", "--input", str(queries),
                     "--output", str(prompts)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--tau", "inf"], "temperature: must be finite, got inf"),
        (["--tau-teacher", "inf"], "teacher temperature: must be finite, got inf"),
        (["--lambda", "2"], "blend weight: must be in [0, 1], got 2.0"),
    ], ids=["infinite-tau", "infinite-tau-teacher", "lambda-above-one"])
    def test_bad_loss_flag_exit_one_before_any_output(self, tmp_path, capsys, flags, message):
        batch = tmp_path / "batch.jsonl"
        # A batch with teacher scores and one without: a flag is checked whether or not it is used.
        for line in ('{"s_pos": 0.0, "s_neg": [0.0], "teacher": [40.0, 0.0]}', '{"s_pos": 0.0, "s_neg": [0.0]}'):
            batch.write_text(line + "\n", encoding="utf-8")
            assert main(["loss", "--batch", str(batch), *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    @pytest.mark.parametrize("command", ["loss", "grad-check"])
    def test_batch_without_records_exits_one_before_any_output(self, tmp_path, capsys, command):
        batch = tmp_path / "empty.jsonl"
        batch.write_text("\n", encoding="utf-8")
        assert main([command, "--batch", str(batch)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and f"{batch}: no batch records" in captured.err

    def test_grad_check_rejects_lambda(self, tmp_path, capsys):
        # grad-check never blends, so it has no blend weight to take.
        batch = tmp_path / "b.jsonl"
        batch.write_text('{"s_pos": 0.0, "s_neg": [0.0]}\n', encoding="utf-8")
        with pytest.raises(SystemExit) as caught:
            main(["grad-check", "--batch", str(batch), "--lambda", "7"])
        assert caught.value.code == 2
        assert "--lambda" in capsys.readouterr().err

    def test_eval_subcommand(self, tmp_path, capsys):
        scores = tmp_path / "scores.jsonl"
        rows = [
            {"model": "a", "task": "t1", "category": "c", "score": 70.0},
            {"model": "b", "task": "t1", "category": "c", "score": 60.0},
        ]
        scores.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        json_out = tmp_path / "leaderboard.json"
        assert main(["eval", "--scores", str(scores), "--json", str(json_out)]) == 0
        assert "mean(task)" in capsys.readouterr().out
        assert json.loads(json_out.read_text())[0]["model"] == "a"

    @pytest.mark.parametrize("argv, flag", [
        (["--config", "/nonexistent.json", "--seed", "7", "loss", "--batch", "b.jsonl"], "--config"),
        (["--seed", "3", "eval", "--scores", "s.jsonl"], "--seed"),
        (["--seed", "3", "format-prompts", "--input", "q.jsonl", "--output", "p.jsonl"], "--seed"),
        (["--config", "c.json", "dedup", "--input", "i.jsonl", "--output", "o.jsonl"], "--config"),
    ], ids=["config-to-loss", "seed-to-eval", "seed-to-format-prompts", "config-to-dedup"])
    def test_global_flag_a_command_does_not_read_exits_one(self, tmp_path, monkeypatch, capsys, argv, flag):
        # Valid inputs, so the command alone would succeed.
        inputs = {
            "b.jsonl": '{"s_pos": 0.0, "s_neg": [0.0]}',
            "s.jsonl": '{"model": "a", "task": "t1", "category": "c", "score": 70.0}\n'
                       '{"model": "b", "task": "t1", "category": "c", "score": 60.0}',
            "q.jsonl": '{"id": "q1", "text": "hello", "task": "STS12"}',
            "i.jsonl": '{"query": "A", "positive": "A1", "task": "MSMARCO"}',
            "c.json": "{}",
        }
        for name, line in inputs.items():
            (tmp_path / name).write_text(line + "\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and flag in captured.err
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(inputs)

    def test_missing_config_is_validation_error(self, capsys):
        assert main(["mine"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exit_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[]", encoding="utf-8")
        assert main(["--config", str(config), "mine"]) == 1
        assert capsys.readouterr().err == f"error: {config}: config must be a JSON object\n"

    @pytest.mark.parametrize("key, value, message", [
        ("corpus", None, "paths.corpus: required"),
        ("reranker_scores", "absent.jsonl", "paths.reranker_scores: no such file: "),
        ("output_dir", None, "paths.output_dir: required"),
    ], ids=["no-corpus", "scores-not-a-file", "no-output-dir"])
    def test_unusable_path_exit_one_before_any_input_is_read(self, tmp_path, monkeypatch, capsys, key, value,
                                                               message):
        raw = json.loads(self.write_config(tmp_path).read_text())
        raw["paths"][key] = value
        if value is None:
            del raw["paths"][key]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))

        def unread(config):
            raise AssertionError("an input was read")

        monkeypatch.setattr(pipeline, "load_inputs", unread)
        assert main(["--config", str(config), "mine"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dedup_subcommand_reads_expanded_pairs(self, tmp_path):
        src = tmp_path / "pairs.jsonl"
        src.write_text(
            '{"query": "A", "positive": "A1", "task": "MSMARCO"}\n'
            '{"query": "A", "positive": "A2", "task": "MSMARCO"}\n'
            '{"query": "A", "positive": "A1", "task": "MSMARCO"}\n',
            encoding="utf-8",
        )
        dst = tmp_path / "unique.jsonl"
        assert main(["dedup", "--input", str(src), "--output", str(dst)]) == 0
        lines = [json.loads(line) for line in dst.read_text().splitlines()]
        assert [(l["query"], l["positive"]) for l in lines] == [("A", "A1"), ("A", "A2")]

    def test_format_prompts_registry_overrides_an_instruction(self, tmp_path):
        src = tmp_path / "queries.jsonl"
        src.write_text('{"id": "q1", "text": "hello", "task": "STS12"}\n'
                       '{"id": "q2", "text": "world", "task": "MyTask"}\n', encoding="utf-8")
        registry = tmp_path / "registry.jsonl"
        registry.write_text('{"task": "STS12", "instruction": "Custom."}\n'
                            '{"task": "MyTask", "instruction": "Do the thing."}\n', encoding="utf-8")
        dst = tmp_path / "prompts.jsonl"
        assert main(["format-prompts", "--input", str(src), "--output", str(dst), "--registry", str(registry)]) == 0
        rows = [json.loads(line) for line in dst.read_text().splitlines()]
        assert [row["prompt"] for row in rows] == ["Instruct: Custom.\nQuery: hello</s>",
                                                   "Instruct: Do the thing.\nQuery: world</s>"]

    @pytest.mark.parametrize("char", ["\ud800", "\U0001f600"], ids=["lone-surrogate", "surrogate-pair"])
    @pytest.mark.parametrize("case", ["corpus-text", "mine-eos-marker", "nli-premise", "format-prompts-eos-marker"])
    def test_lone_surrogate_escape_fails_where_it_is_read(self, tmp_path, capsys, case, char):
        # json.dumps writes char as a \u escape: one for the lone surrogate, a pair for the emoji.
        inputs = tmp_path / "inputs"
        shutil.copytree(PIPELINE_FIXTURE, inputs)
        raw = json.loads((inputs / "config.json").read_text())
        raw["paths"]["output_dir"] = str(tmp_path / "out")
        if case == "mine-eos-marker":
            raw["prompt"]["eos_marker"] = char
        (inputs / "config.json").write_text(json.dumps(raw))
        if case == "corpus-text":
            lines = (inputs / "corpus.jsonl").read_text().splitlines(keepends=True)
            lines[0] = json.dumps({"id": "d1", "text": "the mars rover" + char}) + "\n"
            (inputs / "corpus.jsonl").write_text("".join(lines))
        nli = tmp_path / "nli.jsonl"
        nli.write_text(json.dumps({"premise": "p" + char, "hypothesis": "h", "label": "entailment"}) + "\n")
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"prompt": {"eos_marker": char}}))
        output = tmp_path / "output.jsonl"
        argv, path, failure = {
            "corpus-text": (["--config", str(inputs / "config.json"), "mine"], tmp_path / "out",
                            f"error: stage 'load-corpus': {inputs / 'corpus.jsonl'}:1: malformed JSON: "),
            "mine-eos-marker": (["--config", str(inputs / "config.json"), "mine"], tmp_path / "out",
                                f"error: {inputs / 'config.json'}: invalid JSON: "),
            "nli-premise": (["convert-nli", "--input", str(nli), "--output", str(output)], output,
                            f"error: {nli}:1: malformed JSON: "),
            "format-prompts-eos-marker": (["--config", str(settings), "format-prompts", "--input",
                                           str(inputs / "queries.jsonl"), "--output", str(output)], output,
                                          f"error: {settings}: invalid JSON: "),
        }[case]
        code = main(argv)
        err = capsys.readouterr().err
        if char == "\ud800":
            assert code == (2 if case == "corpus-text" else 1)
            assert err == failure + "lone surrogate '\\ud800' in a string\n"
            assert not path.exists()
        else:
            assert (code, err) == (0, "")
            assert path.exists()
