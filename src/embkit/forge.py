"""Training-data assembly: NLI conversion, instructions, prompts, final records.

NLI sentence pairs become similarity supervision by mapping entailment to a
high similarity anchor and contradiction to a low one; neutral pairs are
semantically ambiguous and are dropped outright.  Each training example is
then wrapped in a task instruction and optional few-shot demonstrations and
rendered into a single prompt string terminated by an end-of-sequence
marker, so an encoder can pool the final-token representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from . import jsonl
from .corpus import Corpus, Query
from .errors import RecordError, ValidationError
from .mining import MinedNegatives

NLI_LABELS = ("entailment", "neutral", "contradiction")

DEFAULT_EOS_MARKER = "</s>"
DEFAULT_HIGH_SIMILARITY = 1.0
DEFAULT_LOW_SIMILARITY = 0.0

# Instruction text per training task; multiple STS tasks share one template.
_STS_INSTRUCTION = "Retrieve semantically similar text."

BUILTIN_INSTRUCTIONS: dict[str, str] = {
    "ArguAna": "Given a claim, find documents that refute the claim.",
    "ELI5": "Provided a user question, retrieve the highest voted answers on Reddit ELI5 forum.",
    "FEVER": "Given a claim, retrieve documents that support or refute the claim.",
    "FiQA2018": "Given a financial question, retrieve user replies that best answer the question.",
    "HotpotQA": "Given a multi-hop question, retrieve documents that can help answer the question.",
    "MSMARCO": "Given a web search query, retrieve relevant passages that answer the query.",
    "Natural Question": "Given a question, retrieve Wikipedia passages that answer the question.",
    "QuoraDupQuestion": "Given a question, retrieve questions that are semantically equivalent to the given question.",
    "SQuAD": "Given a question, retrieve passages that answer the question",
    "STS12": _STS_INSTRUCTION,
    "STS22": _STS_INSTRUCTION,
    "STSBenchmark": _STS_INSTRUCTION,
    "AmazonCounterfactualClassification": "Classify a given Amazon customer review text as either counterfactual or not-counterfactual.",
    "AmazonReviewsClassification": "Classify the given Amazon review into its appropriate rating category.",
    "Banking77Classification": "Given a online banking query, find the corresponding intents.",
    "EmotionClassification": "Classify the emotion expressed in the given Twitter message into one of the six emotions: anger, fear, joy, love, sadness, and surprise.",
    "ImdbClassification": "Classify the sentiment expressed in the given movie review text from the IMDB dataset.",
    "MTOPIntentClassification": "Classify the intent of the given utterance in task-oriented conversation.",
    "ToxicConversationsClassification": "Classify the given comments as either toxic or not toxic.",
    "TweetSentimentExtractionClassification": "Classify the sentiment of a given tweet as either positive, negative, or neutral.",
    "ArxivClusteringP2P": "Identify the main and secondary category of Arxiv papers based on the titles and abstracts.",
    "ArxivClusteringS2S": "Identify the main and secondary category of Arxiv papers based on the titles.",
    "BiorxivClusteringP2P": "Identify the main category of Biorxiv papers based on the titles and abstracts.",
    "BiorxivClusteringS2S": "Identify the main category of Biorxiv papers based on the titles.",
    "MedrxivClusteringP2P": "Identify the main category of Medrxiv papers based on the titles and abstracts.",
    "MedrxivClusteringS2S": "Identify the main category of Medrxiv papers based on the titles.",
    "RedditClustering": "Identify the topic or theme of Reddit posts based on the titles.",
    "RedditClusteringS2S": "Identify the topic or theme of Reddit posts based on the titles and posts.",
    "StackexchangeClustering": "Identify the topic or theme of StackExchange posts based on the titles.",
    "StackexchangeClusteringP2P": "Identify the topic or theme of StackExchange posts based on the given paragraphs.",
    "TwentyNewsgroupsClustering": "Identify the topic or theme of the given news articles.",
    "SciDocsRR": "Given a title of a scientific paper, retrieve the titles of other relevant papers.",
    "StackOverflowDupQuestions": "Retrieve duplicate questions from StackOverflow forum.",
}


@dataclass(frozen=True)
class NliRecord:
    premise: str
    hypothesis: str
    label: str


@dataclass(frozen=True)
class StsRecord:
    sentence_a: str
    sentence_b: str
    similarity: float


class InstructionRegistry:
    """Task name -> instruction text, seeded with the built-in templates."""

    def __init__(self):
        self.entries: dict[str, str] = dict(BUILTIN_INSTRUCTIONS)

    def instruction_for(self, task: str) -> str:
        if task not in self.entries:
            known = ", ".join(sorted(self.entries))
            raise ValidationError(f"unknown task '{task}'; known tasks: {known}")
        return self.entries[task]

    def merge_overrides(self, path) -> None:
        """Merge {"task", "instruction"} records over the built-in entries."""
        for lineno, record in jsonl.iter_records(path):
            task = jsonl.string(record, "task", path, lineno)
            instruction = jsonl.string(record, "instruction", path, lineno)
            self.entries[task] = instruction


def load_nli(path) -> list[NliRecord]:
    records: list[NliRecord] = []
    for lineno, record in jsonl.iter_records(path):
        premise = jsonl.string(record, "premise", path, lineno)
        hypothesis = jsonl.string(record, "hypothesis", path, lineno)
        label = jsonl.require(record, "label", path, lineno)
        if label not in NLI_LABELS:
            raise RecordError(
                path, lineno, f"label must be one of {NLI_LABELS}, got {label!r}"
            )
        records.append(NliRecord(premise=premise, hypothesis=hypothesis, label=label))
    return records


def convert_nli(
    records: Iterable[NliRecord],
    high: float = DEFAULT_HIGH_SIMILARITY,
    low: float = DEFAULT_LOW_SIMILARITY,
) -> list[StsRecord]:
    """Map NLI pairs to similarity pairs: entailment -> high, contradiction -> low.

    Neutral pairs are discarded; input order is preserved for the rest.
    """
    if not (0.0 <= low < high <= 1.0):
        raise ValidationError(f"need 0 <= low < high <= 1, got low={low}, high={high}")
    converted: list[StsRecord] = []
    for index, record in enumerate(records):
        if record.label == "neutral":
            continue
        if record.label not in NLI_LABELS:
            raise ValidationError(f"record {index}: unknown NLI label {record.label!r}")
        similarity = high if record.label == "entailment" else low
        converted.append(
            StsRecord(sentence_a=record.premise, sentence_b=record.hypothesis, similarity=similarity)
        )
    return converted


def save_sts(path, records: Iterable[StsRecord]) -> int:
    return jsonl.write_records(
        path,
        (
            {"sentence_a": r.sentence_a, "sentence_b": r.sentence_b, "similarity": r.similarity}
            for r in records
        ),
    )


def format_prompt(
    instruction: str,
    shots: Sequence[Sequence[str]] = (),
    query: str = "",
    eos_marker: str = DEFAULT_EOS_MARKER,
) -> str:
    """Render instruction, demonstrations, and query into one input string.

    Each demonstration is a full instruct/query/response block; blocks are
    separated by a blank line, the target query comes last, and the marker
    terminates the sequence so last-token pooling sees a fixed anchor:

        Instruct: {instruction}
        Query: {shot query}
        Response: {shot passage}

        Instruct: {instruction}
        Query: {query}{eos_marker}
    """
    blocks = [
        f"Instruct: {instruction}\nQuery: {shot_query}\nResponse: {shot_passage}"
        for shot_query, shot_passage in shots
    ]
    blocks.append(f"Instruct: {instruction}\nQuery: {query}")
    return "\n\n".join(blocks) + eos_marker


@dataclass(frozen=True)
class TrainingRecord:
    task: str
    instruction: str
    query: str
    positive: str
    positive_soft_score: float | None
    negatives: tuple[tuple[str, float], ...]
    prompt: str
    shortfall: bool = False


def emit_training_records(
    mined: Iterable[MinedNegatives],
    queries: Mapping[str, Query],
    corpus: Corpus,
    registry: InstructionRegistry,
    shots: Mapping[str, Sequence[Sequence[str]]] | None = None,
    eos_marker: str = DEFAULT_EOS_MARKER,
) -> Iterator[TrainingRecord]:
    """Build one training record per mined entry, in input order.

    The task and query text come from the entry's query; the positive and
    every negative are resolved against the corpus.  An unknown query or
    document id is a ValidationError naming it.
    """
    for m in mined:
        query = queries.get(m.query_id)
        if query is None:
            raise ValidationError(f"unknown query id '{m.query_id}'")
        instruction = registry.instruction_for(query.task)
        yield TrainingRecord(
            task=query.task,
            instruction=instruction,
            query=query.text,
            positive=corpus.text(m.positive_id),
            positive_soft_score=m.positive_score,
            negatives=tuple((corpus.text(doc_id), score) for doc_id, score in m.negatives),
            prompt=format_prompt(instruction, shots.get(query.task, ()) if shots else (), query.text, eos_marker),
            shortfall=m.shortfall,
        )


def save_training_records(path, records: Iterable[TrainingRecord]) -> int:
    return jsonl.write_records(
        path,
        (
            {
                "task": r.task,
                "instruction": r.instruction,
                "query": r.query,
                "positive": r.positive,
                "positive_soft_score": r.positive_soft_score,
                "negatives": [{"text": t, "score": s} for t, s in r.negatives],
                "prompt": r.prompt,
                "shortfall": r.shortfall,
            }
            for r in records
        ),
    )


def load_training_records(path) -> list[TrainingRecord]:
    records: list[TrainingRecord] = []
    for lineno, record in jsonl.iter_records(path):
        text = {field: jsonl.string(record, field, path, lineno)
                for field in ("task", "instruction", "query", "positive", "prompt")}
        score = jsonl.require(record, "positive_soft_score", path, lineno)
        if score is not None:
            score = jsonl.number(score, "positive_soft_score", path, lineno)
        shortfall = jsonl.require(record, "shortfall", path, lineno)
        if not isinstance(shortfall, bool):
            raise RecordError(path, lineno, f"field 'shortfall' must be a boolean, got {shortfall!r}")
        negatives = jsonl.require(record, "negatives", path, lineno)
        if not isinstance(negatives, list) or not all(isinstance(n, dict) for n in negatives):
            raise RecordError(path, lineno, "field 'negatives' must be a list of objects")
        records.append(
            TrainingRecord(
                **text,
                positive_soft_score=score,
                negatives=tuple(
                    (jsonl.as_string(n.get("text"), f"negatives[{i}].text", path, lineno),
                     jsonl.number(n.get("score"), f"negatives[{i}].score", path, lineno))
                    for i, n in enumerate(negatives)
                ),
                shortfall=shortfall,
            )
        )
    return records
