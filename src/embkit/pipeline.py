"""End-to-end mining pipeline and its configuration.

One config file drives every stage: lexical and semantic retrieval feed a
candidate union, the reranker scores it, reciprocal rank fusion turns the
three rankings into soft labels, the margin filter and seeded sampler mine
negatives, and the forge emits final training records.  A run writes a
manifest with the config hash and input/output digests, and the output
bytes are fully determined by (config, inputs, seed) regardless of worker
count.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import corpus as corpus_mod
from . import dense, fusion, lexical, mining, rerank
from .errors import EmbkitError, PipelineStageError, ValidationError
from .forge import (
    DEFAULT_EOS_MARKER,
    InstructionRegistry,
    KeyedPair,
    emit_training_records,
    save_training_records,
)
from .ranking import CHANNEL_RERANKER, top_n

DEFAULTS: dict = {
    "bm25": {"k1": 1.2, "b": 0.75},
    "rrf_k": 60.0,
    "pool_size": 50,
    "score_source": mining.SCORE_SOURCE_FUSED,
    "mining": {"margin": 0.95, "top_k": 100, "num_negatives": 7, "seed": 0},
    "loss": {"tau": 1.0, "tau_teacher": None, "lambda": 0.5},
    "nli": {"high": 1.0, "low": 0.0},
    "prompt": {"eos_marker": DEFAULT_EOS_MARKER, "shots": {}},
    "strict": True,
    "workers": 1,
    "retrieval_tasks": None,
}

_HASHED_KEYS = ("bm25", "rrf_k", "pool_size", "score_source", "mining", "prompt",
                "strict", "retrieval_tasks")
_INPUT_PATH_KEYS = ("corpus", "queries", "qrels", "doc_vectors", "query_vectors")

TRAINING_RECORDS_FILE = "training_records.jsonl"
MINED_FILE = "mined_negatives.jsonl"
TEACHER_SCORES_FILE = "teacher_scores.jsonl"
MANIFEST_FILE = "manifest.json"


@dataclass
class PipelineConfig:
    """Effective pipeline settings plus resolved input/output paths."""

    settings: dict = field(default_factory=lambda: copy.deepcopy(DEFAULTS))
    paths: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.settings[key]

    def path(self, key: str) -> str | None:
        return self.paths.get(key)

    def mining_config(self) -> mining.MiningConfig:
        section = self.settings["mining"]
        return mining.MiningConfig(
            margin=section["margin"],
            top_k=section["top_k"],
            num_negatives=section["num_negatives"],
            seed=section["seed"],
        )

    def bm25_params(self) -> lexical.Bm25Params:
        return lexical.Bm25Params(
            k1=self.settings["bm25"]["k1"], b=self.settings["bm25"]["b"]
        )

    def prompt_shots(self) -> dict[str, list[tuple[str, str]]]:
        """Few-shot (query, passage) examples per task."""
        return {task: [tuple(pair) for pair in entries]
                for task, entries in self.settings["prompt"].get("shots", {}).items()}

    def config_hash(self) -> str:
        """Digest of the settings that can change `mine` output bytes.

        Paths are excluded (inputs are digested by content in the manifest
        instead), and so are `workers`, `loss` and `nli`, which `mine` never reads.
        """
        mined_by = {key: self.settings.get(key) for key in _HASHED_KEYS}
        canonical = json.dumps(mined_by, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config(path) -> PipelineConfig:
    """Parse a JSON config file; relative paths resolve against its directory."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    settings = copy.deepcopy(DEFAULTS)
    for key, value in raw.items():
        if key == "paths":
            continue
        if isinstance(settings.get(key), dict):
            if not isinstance(value, dict):
                raise ValidationError(f"{path}: {key}: must be an object, got {value!r}")
            settings[key].update(value)
        else:
            settings[key] = value
    raw_paths = raw.get("paths", {})
    if not isinstance(raw_paths, dict) or not all(v is None or isinstance(v, str) for v in raw_paths.values()):
        raise ValidationError(f"{path}: paths: must map names to strings or null")
    paths = {}
    base = path.parent
    for key, value in raw_paths.items():
        if key == "reranker_endpoint" or value is None:
            paths[key] = value
        else:
            paths[key] = str((base / value) if not os.path.isabs(value) else Path(value))
    return PipelineConfig(settings=settings, paths=paths)


def validate_config(config: PipelineConfig) -> list[str]:
    """All range, cross-field, and path problems, reported in one pass."""
    return validate_settings(config) + validate_paths(config)


def validate_settings(config: PipelineConfig) -> list[str]:
    """Range and cross-field problems of the settings; paths are not looked at."""
    errors: list[str] = []
    s = config.settings

    def check(condition: bool, message: str) -> None:
        if not condition:
            errors.append(message)

    def number(section: str, key: str, value) -> bool:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{section}.{key}: must be a number, got {value!r}")
            return False
        return True

    bm25 = s.get("bm25", {})
    if number("bm25", "k1", bm25.get("k1")):
        check(bm25["k1"] > 0, f"bm25.k1: must be > 0, got {bm25['k1']}")
    if number("bm25", "b", bm25.get("b")):
        check(0 <= bm25["b"] <= 1, f"bm25.b: must be in [0, 1], got {bm25['b']}")
    if number("", "rrf_k", s.get("rrf_k")):
        check(s["rrf_k"] > 0, f"rrf_k: must be > 0, got {s['rrf_k']}")
    if number("", "pool_size", s.get("pool_size")):
        check(int(s["pool_size"]) >= 1, f"pool_size: must be >= 1, got {s['pool_size']}")
    check(
        s.get("score_source") in (mining.SCORE_SOURCE_FUSED, mining.SCORE_SOURCE_RERANKER),
        f"score_source: must be 'fused' or 'reranker', got {s.get('score_source')!r}",
    )

    m = s.get("mining", {})
    if number("mining", "margin", m.get("margin")):
        check(0 < m["margin"] <= 1, f"mining.margin: must be in (0, 1], got {m['margin']}")
    for key in ("top_k", "num_negatives"):
        value = m.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            errors.append(f"mining.{key}: must be an integer >= 1, got {value!r}")
    if isinstance(m.get("top_k"), int) and isinstance(m.get("num_negatives"), int):
        check(
            m["num_negatives"] <= m["top_k"],
            f"mining.num_negatives: {m['num_negatives']} exceeds mining.top_k {m['top_k']}",
        )
    check(isinstance(m.get("seed"), int) and not isinstance(m.get("seed"), bool),
          f"mining.seed: must be an integer, got {m.get('seed')!r}")

    loss_cfg = s.get("loss", {})
    if number("loss", "tau", loss_cfg.get("tau")):
        check(loss_cfg["tau"] > 0, f"loss.tau: must be > 0, got {loss_cfg['tau']}")
    if loss_cfg.get("tau_teacher") is not None and number("loss", "tau_teacher", loss_cfg.get("tau_teacher")):
        check(loss_cfg["tau_teacher"] > 0,
              f"loss.tau_teacher: must be > 0, got {loss_cfg['tau_teacher']}")
    if number("loss", "lambda", loss_cfg.get("lambda")):
        check(0 <= loss_cfg["lambda"] <= 1,
              f"loss.lambda: must be in [0, 1], got {loss_cfg['lambda']}")

    nli = s.get("nli", {})
    if number("nli", "high", nli.get("high")) and number("nli", "low", nli.get("low")):
        check(0 <= nli["low"] < nli["high"] <= 1,
              f"nli: need 0 <= low < high <= 1, got low={nli['low']}, high={nli['high']}")

    prompt = s.get("prompt", {})
    check(isinstance(prompt.get("eos_marker"), str) and prompt.get("eos_marker") != "",
          "prompt.eos_marker: must be a non-empty string")
    shots = prompt.get("shots", {})
    if not isinstance(shots, dict):
        errors.append("prompt.shots: must be a map of task -> [[query, passage], ...]")
    else:
        for task, entries in shots.items():
            ok = isinstance(entries, list) and all(
                isinstance(e, (list, tuple)) and len(e) == 2
                and all(isinstance(x, str) for x in e)
                for e in entries
            )
            check(ok, f"prompt.shots.{task}: must be a list of [query, passage] pairs")

    workers = s.get("workers")
    check(isinstance(workers, int) and not isinstance(workers, bool) and workers >= 1,
          f"workers: must be an integer >= 1, got {workers!r}")
    check(isinstance(s.get("strict"), bool), f"strict: must be a boolean, got {s.get('strict')!r}")
    tasks = s.get("retrieval_tasks")
    check(tasks is None or (isinstance(tasks, list) and all(isinstance(t, str) for t in tasks)),
          "retrieval_tasks: must be null or a list of task names")
    return errors


def validate_paths(config: PipelineConfig) -> list[str]:
    """Missing input files and output locations that `mine` needs."""
    errors: list[str] = []
    for key in _INPUT_PATH_KEYS:
        value = config.path(key)
        if value is None:
            errors.append(f"paths.{key}: required")
        elif not os.path.isfile(value):
            errors.append(f"paths.{key}: no such file: {value}")
    scores_path = config.path("reranker_scores")
    if scores_path is not None and not os.path.isfile(scores_path):
        errors.append(f"paths.reranker_scores: no such file: {scores_path}")
    if scores_path is None and not config.path("reranker_endpoint"):
        errors.append("paths: need reranker_scores and/or reranker_endpoint")
    if config.path("output_dir") is None:
        errors.append("paths.output_dir: required")
    return errors


def _digest_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class PipelineInputs:
    corpus: corpus_mod.Corpus
    queries: dict[str, corpus_mod.Query]
    qrels: list[corpus_mod.Qrel]
    index: lexical.InvertedIndex
    doc_vectors: dense.VectorStore
    query_vectors: dense.VectorStore
    gateway: rerank.RerankGateway


def _stage(name: str, query_id: str | None, fn, *args, **kwargs):
    """Call fn; an EmbkitError escapes as a PipelineStageError naming the
    stage and query.  A PipelineStageError from a nested stage passes as is."""
    try:
        return fn(*args, **kwargs)
    except PipelineStageError:
        raise
    except EmbkitError as exc:
        raise PipelineStageError(name, query_id, exc) from exc


def load_inputs(config: PipelineConfig) -> PipelineInputs:
    """Load and index every input the retrieval stages need."""
    corpus = _stage("load-corpus", None, corpus_mod.load_corpus, config.path("corpus"))
    queries = _stage("load-queries", None, corpus_mod.load_queries, config.path("queries"))
    qrels = _stage("load-qrels", None, corpus_mod.load_qrels, config.path("qrels"))
    index = _stage("index-lexical", None, lexical.build_index, corpus.documents.values())
    doc_vectors = _stage("load-doc-vectors", None, dense.load_vectors, config.path("doc_vectors"))
    query_vectors = _stage("load-query-vectors", None, dense.load_vectors, config.path("query_vectors"))
    scores_path = config.path("reranker_scores")
    scores = _stage("load-scores", None, rerank.load_scores, scores_path) if scores_path else rerank.ScoreSet()
    client = None
    endpoint = config.path("reranker_endpoint")
    if endpoint:
        client = rerank.RerankClient(endpoint)
    return PipelineInputs(
        corpus=corpus, queries=queries, qrels=qrels, index=index,
        doc_vectors=doc_vectors, query_vectors=query_vectors,
        gateway=rerank.RerankGateway(scores=scores, client=client),
    )


def score_query(config: PipelineConfig, inputs: PipelineInputs,
                query: corpus_mod.Query, positives: list[str]) -> fusion.TeacherScoreSet:
    """Retrieve, rerank, and fuse one query into a teacher score set.

    The rerank pool is the union of both channels' top candidates plus the
    query's known positives, so the positive always carries a teacher score
    even when neither channel retrieved it.
    """
    n = int(config["pool_size"])
    strict = bool(config["strict"])
    lex = _stage("search-lexical", query.id,
                 lambda: lexical.search_lexical(inputs.index, config.bm25_params(), query, n))
    sem = _stage("search-semantic", query.id,
                 lambda: dense.search_semantic(inputs.doc_vectors, inputs.query_vectors.get(query.id), n))
    pool = sorted(set(lex.doc_ids()) | set(sem.doc_ids()) | set(positives))

    def rerank_pool():
        docs = [(doc_id, inputs.corpus.text(doc_id)) for doc_id in pool]
        found = inputs.gateway.ensure_scores(query.id, query.text, docs)
        missing = sorted(doc_id for doc_id, score in found.items() if score is None)
        if missing and strict:
            raise ValidationError(
                f"missing reranker score for pair ({query.id}, {missing[0]})"
            )
        scored = {doc_id: score for doc_id, score in found.items() if score is not None}
        if not scored:
            raise ValidationError(f"no reranker scores available for query '{query.id}'")
        return top_n(scored, len(scored), CHANNEL_RERANKER)

    rer = _stage("rerank", query.id, rerank_pool)
    return _stage("fuse", query.id, fusion.build_teacher_scores, query, lex, sem, rer, float(config["rrf_k"]))


def score_all_queries(config: PipelineConfig, inputs: PipelineInputs,
                      workers: int | None = None) -> dict[str, fusion.TeacherScoreSet]:
    """Teacher score sets for every query, keyed by query id.

    Queries are scored by a bounded worker pool; results are keyed, not
    ordered, so worker count can never change downstream bytes.
    """
    positives_by_query: dict[str, list[str]] = {}
    for qrel in inputs.qrels:
        positives_by_query.setdefault(qrel.query_id, []).append(qrel.doc_id)
    count = workers if workers is not None else int(config["workers"])
    ordered = list(inputs.queries.values())

    def run(query: corpus_mod.Query) -> fusion.TeacherScoreSet:
        return score_query(config, inputs, query, positives_by_query.get(query.id, []))

    if count <= 1:
        results = [run(query) for query in ordered]
    else:
        with ThreadPoolExecutor(max_workers=count) as pool:
            results = list(pool.map(run, ordered))
    return {ts.query_id: ts for ts in results}


def run_mine(config: PipelineConfig, workers: int | None = None) -> dict:
    """Execute the full pipeline and write records plus a run manifest.

    Any stage failure aborts the run with the stage name and query id, and
    no partial output file is left behind.  Returns the manifest.
    """
    inputs = load_inputs(config)
    teacher_sets = score_all_queries(config, inputs, workers)
    mining_config = config.mining_config()
    score_source = config["score_source"]

    pairs: list[KeyedPair] = []
    for qrel in sorted(inputs.qrels, key=lambda r: (r.query_id, r.doc_id)):
        if qrel.query_id not in inputs.queries:
            raise PipelineStageError(
                "mine", qrel.query_id, ValidationError(f"qrel references unknown query '{qrel.query_id}'")
            )
        query = inputs.queries[qrel.query_id]
        pairs.append(
            KeyedPair(
                query_id=qrel.query_id, query=query.text, task=query.task, positive_id=qrel.doc_id,
                positive=_stage("mine", qrel.query_id, inputs.corpus.text, qrel.doc_id),
            )
        )

    mined: dict[tuple[str, str], mining.MinedNegatives] = {
        (pair.query_id, pair.positive_id): _stage(
            "mine", pair.query_id, mining.mine, teacher_sets[pair.query_id], pair.positive_id,
            mining_config, score_source=score_source,
        )
        for pair in pairs
    }

    doc_texts = {doc_id: doc.text for doc_id, doc in inputs.corpus.documents.items()}
    records = _stage("emit", None, lambda: list(
        emit_training_records(
            pairs, InstructionRegistry(), mined=mined, doc_texts=doc_texts, shots=config.prompt_shots(),
            eos_marker=config["prompt"].get("eos_marker", DEFAULT_EOS_MARKER),
            retrieval_tasks=config["retrieval_tasks"],
        )
    ))

    output_dir = Path(config.path("output_dir"))
    output_dir.mkdir(parents=True, exist_ok=True)
    out_records = output_dir / TRAINING_RECORDS_FILE
    out_mined = output_dir / MINED_FILE
    out_teacher = output_dir / TEACHER_SCORES_FILE
    out_manifest = output_dir / MANIFEST_FILE
    written: list[Path] = []
    try:
        written.append(out_records)
        save_training_records(out_records, records)
        written.append(out_mined)
        mining.save_mined(out_mined, [mined[(p.query_id, p.positive_id)] for p in pairs])
        written.append(out_teacher)
        fusion.save_teacher_scores(
            out_teacher, [teacher_sets[qid] for qid in sorted(teacher_sets)]
        )

        manifest = {
            "config_hash": config.config_hash(),
            "inputs": {
                key: _digest_file(config.path(key))
                for key in (*_INPUT_PATH_KEYS, "reranker_scores")
                if config.path(key)
            },
            "outputs": {
                TRAINING_RECORDS_FILE: _digest_file(out_records),
                MINED_FILE: _digest_file(out_mined),
                TEACHER_SCORES_FILE: _digest_file(out_teacher),
            },
            "counts": {"queries": len(inputs.queries), "pairs": len(pairs)},
        }
        written.append(out_manifest)
        with open(out_manifest, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except Exception:
        for partial in written:
            partial.unlink(missing_ok=True)
        raise
    return manifest
