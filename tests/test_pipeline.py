"""Config validation, end-to-end mining, determinism, and the CLI surface."""

import json
import shutil

import pytest

from embkit import pipeline
from embkit.cli import main
from embkit.errors import PipelineStageError
from embkit.forge import load_training_records
from embkit.mining import load_mined

from conftest import FIXTURES

PIPELINE_FIXTURE = FIXTURES / "pipeline"


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
        config = fixture_config(tmp_path, rrf_k=-1, mining={"margin": 2.0}, workers=0)
        config.paths["corpus"] = str(tmp_path / "missing.jsonl")
        problems = pipeline.validate_config(config)
        assert len(problems) >= 4
        joined = "\n".join(problems)
        assert "rrf_k" in joined and "mining.margin" in joined
        assert "workers" in joined and "paths.corpus" in joined

    def test_reranker_source_required(self, tmp_path):
        config = fixture_config(tmp_path)
        config.paths["reranker_scores"] = None
        problems = pipeline.validate_config(config)
        assert any("reranker" in p for p in problems)


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
        mined = load_mined(out / pipeline.MINED_FILE)
        for entry in mined:
            for _, score in entry.negatives:
                assert score <= entry.threshold
            assert entry.threshold == pytest.approx(0.95 * entry.positive_score)
        assert manifest["counts"] == {"queries": 3, "pairs": 4}
        assert set(manifest["inputs"]) == {
            "corpus", "queries", "qrels", "doc_vectors", "query_vectors", "reranker_scores",
        }

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

    def test_byte_identical_across_worker_counts(self, tmp_path):
        pipeline.run_mine(fixture_config(tmp_path, out_name="w1"), workers=1)
        pipeline.run_mine(fixture_config(tmp_path, out_name="w4"), workers=4)
        assert output_bytes(tmp_path / "w1") == output_bytes(tmp_path / "w4")

    def test_config_change_changes_hash_and_digests(self, tmp_path):
        base = pipeline.run_mine(fixture_config(tmp_path, out_name="base"))
        bumped = pipeline.run_mine(fixture_config(tmp_path, out_name="bumped", rrf_k=70))
        assert base["config_hash"] != bumped["config_hash"]
        assert base["inputs"] == bumped["inputs"]
        assert (
            base["outputs"][pipeline.TEACHER_SCORES_FILE]
            != bumped["outputs"][pipeline.TEACHER_SCORES_FILE]
        )

    def test_settings_mine_never_reads_leave_outputs_unchanged(self, tmp_path):
        pipeline.run_mine(fixture_config(tmp_path, out_name="base"))
        pipeline.run_mine(fixture_config(
            tmp_path, out_name="edited", workers=4, loss={"tau": 0.05}, nli={"high": 0.9}
        ))
        assert output_bytes(tmp_path / "base") == output_bytes(tmp_path / "edited")

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

    def test_partial_output_removed_on_write_failure(self, tmp_path, monkeypatch):
        config = fixture_config(tmp_path)

        def boom(path, mined):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.mining, "save_mined", boom)
        with pytest.raises(OSError):
            pipeline.run_mine(config)
        out = tmp_path / "out"
        assert not any(out.iterdir())

    def test_endpoint_serves_missing_scores(self, tmp_path, scoring_server):
        config = fixture_config(tmp_path)
        config.paths["reranker_scores"] = None
        config.paths["reranker_endpoint"] = scoring_server.endpoint
        manifest = pipeline.run_mine(config)
        assert manifest["counts"]["pairs"] == 4
        assert scoring_server.calls >= 1
        records = load_training_records(tmp_path / "out" / pipeline.TRAINING_RECORDS_FILE)
        assert len(records) == 4


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

    def test_strict_flag_overrides_lenient_config(self, tmp_path, capsys):
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
        assert main(["--config", str(config), "--strict", "mine"]) == 2
        assert "missing reranker score" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        config = self.write_config(tmp_path)
        main(["--config", str(config), "mine"])
        first = (tmp_path / "out" / pipeline.MINED_FILE).read_bytes()
        main(["--config", str(config), "--seed", "43", "mine"])
        second = (tmp_path / "out" / pipeline.MINED_FILE).read_bytes()
        assert first != second

    def test_index_and_fuse_subcommands(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["--config", str(config), "fuse"]) == 0
        out = tmp_path / "out"
        assert (out / "teacher_scores.jsonl").exists()

    def test_rerank_subcommand_writes_cache(self, tmp_path):
        config = self.write_config(tmp_path)
        assert main(["--config", str(config), "rerank"]) == 0
        cache = (tmp_path / "out" / "reranker_scores.jsonl").read_text().splitlines()
        assert len(cache) == 24  # full fixture score set round-trips through the gateway

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

    @pytest.mark.parametrize("settings, command, message", [
        ({"prompt": {"eos_marker": ""}}, "format-prompts",
         "prompt.eos_marker: must be a non-empty string"),
        ({"prompt": {"shots": {"STS12": "oops"}}}, "format-prompts",
         "prompt.shots.STS12: must be a list of [query, passage] pairs"),
        ({"loss": {"tau": "1"}}, "loss", "loss.tau: must be a number, got '1'"),
        ({"prompt": "x"}, "format-prompts", "prompt: must be an object, got 'x'"),
        ({"paths": {"corpus": 5}}, "format-prompts", "paths: must map names to strings or null"),
    ], ids=["empty-eos", "bad-shots", "string-tau", "prompt-not-object", "path-not-string"])
    def test_commands_without_paths_still_check_settings(self, tmp_path, capsys,
                                                         settings, command, message):
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"id": "q1", "text": "hello", "task": "STS12"}\n', encoding="utf-8")
        batch = tmp_path / "batch.jsonl"
        batch.write_text('{"s_pos": 0.0, "s_neg": [0.0]}\n', encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings), encoding="utf-8")
        command_args = {
            "format-prompts": ["--input", str(queries), "--output", str(tmp_path / "prompts.jsonl")],
            "loss": ["--batch", str(batch)],
        }[command]
        assert main(["--config", str(config), command, *command_args]) == 1
        assert message in capsys.readouterr().err

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

    def test_missing_config_is_validation_error(self, capsys):
        assert main(["mine"]) == 1
        assert "--config" in capsys.readouterr().err
