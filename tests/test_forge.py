"""NLI conversion, instruction registry, prompt template, record emission."""

import json
import re

import pytest

from embkit.corpus import Corpus, Document, Query
from embkit.errors import RecordError, ValidationError
from embkit.forge import (
    BUILTIN_INSTRUCTIONS,
    InstructionRegistry,
    NliRecord,
    TrainingRecord,
    convert_nli,
    emit_training_records,
    format_prompt,
    load_nli,
    load_training_records,
    save_training_records,
)
from embkit.mining import MinedNegatives


def nli(label, premise="a premise", hypothesis="a hypothesis"):
    return NliRecord(premise=premise, hypothesis=hypothesis, label=label)


class TestConvertNli:
    def test_entailment_gets_high_similarity(self):
        out = convert_nli([nli("entailment")])
        assert len(out) == 1
        assert out[0].similarity == 1.0
        assert out[0].sentence_a == "a premise"

    def test_neutral_dropped(self):
        assert convert_nli([nli("neutral")]) == []

    def test_contradiction_gets_low_similarity(self):
        out = convert_nli([nli("contradiction")], high=0.9, low=0.1)
        assert out[0].similarity == 0.1

    def test_mixed_counts(self):
        records = [
            nli("entailment"), nli("neutral"), nli("contradiction"),
            nli("neutral"), nli("entailment"), nli("contradiction"),
        ]
        out = convert_nli(records)
        assert len(out) == 4
        assert [r.similarity for r in out] == [1.0, 0.0, 1.0, 0.0]

    def test_order_preserved(self):
        records = [nli("entailment", premise=f"p{i}") for i in range(5)]
        out = convert_nli(records)
        assert [r.sentence_a for r in out] == [f"p{i}" for i in range(5)]

    def test_unknown_label_reports_index(self):
        records = [nli("entailment"), NliRecord("p", "h", "maybe")]
        with pytest.raises(ValidationError, match="record 1"):
            convert_nli(records)

    def test_anchor_range_validated(self):
        with pytest.raises(ValidationError):
            convert_nli([], high=0.2, low=0.8)
        with pytest.raises(ValidationError):
            convert_nli([], high=1.5, low=0.0)

    def test_load_nli_validates_labels(self, tmp_path):
        path = tmp_path / "nli.jsonl"
        path.write_text(
            '{"premise": "p", "hypothesis": "h", "label": "entailment"}\n'
            '{"premise": "p", "hypothesis": "h", "label": "unknown"}\n',
            encoding="utf-8",
        )
        with pytest.raises(RecordError, match=":2:"):
            load_nli(path)


class TestInstructionRegistry:
    def test_known_tasks_verbatim(self):
        registry = InstructionRegistry()
        assert registry.instruction_for("ArguAna") == (
            "Given a claim, find documents that refute the claim."
        )
        assert registry.instruction_for("STS12") == "Retrieve semantically similar text."
        assert registry.instruction_for("STS22") == registry.instruction_for("STSBenchmark")

    def test_unknown_task_lists_known(self):
        registry = InstructionRegistry()
        with pytest.raises(ValidationError, match="ArguAna"):
            registry.instruction_for("NoSuchTask")

    def test_every_builtin_is_reachable(self):
        registry = InstructionRegistry()
        for task, instruction in BUILTIN_INSTRUCTIONS.items():
            assert registry.instruction_for(task) == instruction

    def test_overrides_merge_over_builtins(self, tmp_path):
        path = tmp_path / "overrides.jsonl"
        path.write_text(
            '{"task": "ArguAna", "instruction": "Custom."}\n'
            '{"task": "MyTask", "instruction": "Do the thing."}\n',
            encoding="utf-8",
        )
        registry = InstructionRegistry()
        registry.merge_overrides(path)
        assert registry.instruction_for("ArguAna") == "Custom."
        assert registry.instruction_for("MyTask") == "Do the thing."
        assert registry.instruction_for("FEVER") == BUILTIN_INSTRUCTIONS["FEVER"]


class TestFormatPrompt:
    def test_zero_shot_template(self):
        prompt = format_prompt("Do X.", (), "my query")
        assert prompt == "Instruct: Do X.\nQuery: my query</s>"

    def test_one_shot_layout(self):
        prompt = format_prompt("Do X.", [("shot q", "shot p")], "my query")
        assert prompt == (
            "Instruct: Do X.\nQuery: shot q\nResponse: shot p"
            "\n\n"
            "Instruct: Do X.\nQuery: my query</s>"
        )

    def test_two_shots_blank_line_separated(self):
        prompt = format_prompt("I.", [("q1", "p1"), ("q2", "p2")], "q")
        assert prompt.count("\n\n") == 2
        assert prompt.endswith("Query: q</s>")

    def test_custom_eos_marker(self):
        prompt = format_prompt("I.", (), "q", eos_marker="<|eot|>")
        assert prompt.endswith("<|eot|>")

    def test_injective_on_delimiter_free_texts(self):
        seen = {}
        cases = [
            ("inst", (), "q"),
            ("inst", (("q", "p"),), "q"),
            ("inst", (("q", "p"), ("q2", "p2")), "q"),
            ("inst2", (), "q"),
            ("inst", (), "q2"),
        ]
        for instruction, shots, q in cases:
            prompt = format_prompt(instruction, shots, q)
            assert prompt not in seen, f"collision with {seen.get(prompt)}"
            seen[prompt] = (instruction, shots, q)


class TestEmitTrainingRecords:
    def registry(self):
        return InstructionRegistry()

    def queries(self, *qids, task="MSMARCO"):
        return {qid: Query(id=qid, text=f"query {qid}", task=task) for qid in qids or ("q1",)}

    def corpus(self, negatives=7):
        docs = [Document("d1", "positive text")]
        docs += [Document(f"n{i}", f"negative text {i}") for i in range(negatives)]
        return Corpus(documents={doc.id: doc for doc in docs})

    def mined_entry(self, qid="q1", positive_id="d1", negatives=7, shortfall=False):
        return MinedNegatives(
            query_id=qid, positive_id=positive_id, positive_score=0.05,
            threshold=0.0475,
            negatives=tuple((f"n{i}", 0.04 - i * 0.001) for i in range(negatives)),
            shortfall=shortfall, seed=1,
        )

    def test_retrieval_pair_with_seven_negatives(self):
        records = list(emit_training_records(
            [self.mined_entry()], self.queries(), self.corpus(), self.registry(),
        ))
        assert len(records) == 1
        record = records[0]
        assert len(record.negatives) == 7
        assert record.negatives[0] == ("negative text 0", 0.04)
        assert record.positive == "positive text"
        assert record.query == "query q1"
        assert record.positive_soft_score == 0.05
        assert record.prompt.endswith("</s>")
        assert record.instruction == BUILTIN_INSTRUCTIONS["MSMARCO"]

    def test_negative_id_missing_from_corpus_is_error(self):
        with pytest.raises(ValidationError, match="'n3'"):
            list(emit_training_records(
                [self.mined_entry()], self.queries(), self.corpus(negatives=3), self.registry(),
            ))

    @pytest.mark.parametrize("field, unknown", [("qid", "q9"), ("positive_id", "d9")])
    def test_unknown_query_or_positive_id_is_error(self, field, unknown):
        with pytest.raises(ValidationError, match=f"'{unknown}'"):
            list(emit_training_records(
                [self.mined_entry(**{field: unknown})], self.queries(), self.corpus(), self.registry(),
            ))

    def test_shortfall_flag_passes_through(self):
        records = list(emit_training_records(
            [self.mined_entry(negatives=1, shortfall=True)], self.queries(), self.corpus(1), self.registry(),
        ))
        assert records[0].shortfall

    def test_output_order_is_input_order(self):
        qids = [f"q{i}" for i in (3, 1, 4, 0, 2)]
        records = list(emit_training_records(
            [self.mined_entry(qid) for qid in qids], self.queries(*qids, task="SQuAD"),
            self.corpus(), self.registry(),
        ))
        assert [r.query for r in records] == [f"query {qid}" for qid in qids]

    def test_prompt_roundtrips_from_stored_fields(self):
        shots = {"MSMARCO": [("sq", "sp")]}
        records = list(emit_training_records(
            [self.mined_entry()], self.queries(), self.corpus(), self.registry(), shots=shots,
        ))
        record = records[0]
        rebuilt = format_prompt(record.instruction, shots["MSMARCO"], record.query)
        assert rebuilt == record.prompt


def test_training_record_file_roundtrip(tmp_path):
    record = TrainingRecord(
        task="MSMARCO",
        instruction=BUILTIN_INSTRUCTIONS["MSMARCO"],
        query="q", positive="p", positive_soft_score=0.5,
        negatives=(("neg a", 0.4), ("neg b", 0.3)),
        prompt="Instruct: i\nQuery: q</s>", shortfall=False,
    )
    bare = TrainingRecord(
        task="STS12", instruction=BUILTIN_INSTRUCTIONS["STS12"],
        query="q2", positive="p2", positive_soft_score=None,
        negatives=(), prompt="Instruct: i\nQuery: q2</s>", shortfall=True,
    )
    path = tmp_path / "records.jsonl"
    save_training_records(path, [record, bare])
    assert load_training_records(path) == [record, bare]


GOOD_RECORD = {"task": "MSMARCO", "instruction": "i", "query": "q", "positive": "p", "positive_soft_score": 0.5,
               "negatives": [{"text": "a", "score": 0.4}], "prompt": "Instruct: i\nQuery: q</s>", "shortfall": False}


@pytest.mark.parametrize("field, record", [
    ("positive_soft_score", {"positive_soft_score": "x"}),
    ("positive_soft_score", {"positive_soft_score": "1.5"}),
    ("positive_soft_score", {"positive_soft_score": True}),
    ("positive_soft_score", {"positive_soft_score": float("nan")}),
    ("negatives[1].score", {"negatives": [{"text": "a", "score": 0.4}, {"text": "b", "score": "x"}]}),
    ("negatives[0].score", {"negatives": [{"text": "a", "score": None}]}),
    ("negatives[0].score", {"negatives": [{"text": "a", "score": float("nan")}]}),
    ("task", {"task": 7}),
    ("instruction", {"instruction": None}),
    ("query", {"query": ["q"]}),
    ("positive", {"positive": 1.5}),
    ("prompt", {"prompt": {"text": "p"}}),
    ("negatives[1].text", {"negatives": [{"text": "a", "score": 0.4}, {"text": 3, "score": 0.3}]}),
    ("shortfall", {"shortfall": "false"}),
    ("shortfall", {"shortfall": 0}),
], ids=["string-positive", "numeric-string-positive", "bool-positive", "nan-positive", "string-negative",
        "null-negative", "nan-negative", "int-task", "null-instruction", "list-query", "float-positive",
        "object-prompt", "int-negative-text", "string-shortfall", "int-shortfall"])
def test_training_record_file_bad_score_names_line_and_field(tmp_path, field, record):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps({**GOOD_RECORD, **record}) + "\n", encoding="utf-8")
    with pytest.raises(RecordError, match=rf"records.jsonl:2: field '{re.escape(field)}'"):
        load_training_records(path)


@pytest.mark.parametrize("record, message", [
    ({key: value for key, value in GOOD_RECORD.items() if key != "task"}, "missing required field 'task'"),
    ({**GOOD_RECORD, "negatives": 5}, "field 'negatives' must be a list of objects"),
    ({**GOOD_RECORD, "negatives": ["abc"]}, "field 'negatives' must be a list of objects"),
    ({**GOOD_RECORD, "negatives": [{"text": "a"}]}, "field 'negatives[0].score' must be a finite number, got None"),
], ids=["missing-task", "int-negatives", "string-negative", "negative-without-score"])
def test_training_record_file_bad_shape_names_line_and_field(tmp_path, record, message):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(RecordError) as excinfo:
        load_training_records(path)
    assert str(excinfo.value) == f"{path}:2: {message}"
