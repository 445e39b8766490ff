"""End-to-end mining pipeline and its configuration.

One config file drives every stage: lexical and semantic retrieval feed a
candidate union, the reranker scores it, reciprocal rank fusion turns the
three rankings into soft labels, the margin filter and seeded sampler mine
negatives, and the forge emits final training records.  A run writes the
records, the teacher scores, every reranker score it used and a manifest
with the config hash and input/output digests, and the output bytes are
fully determined by (config, inputs, seed).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import pickle
import signal
import threading
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import corpus as corpus_mod
from . import dense, fusion, jsonl, lexical, mining, rerank
from .errors import EmbkitError, PipelineStageError, ValidationError, is_integer, number_problems
from .forge import (
    DEFAULT_EOS_MARKER,
    InstructionRegistry,
    emit_training_records,
    save_training_records,
)
from .ranking import CHANNEL_RERANKER, RankedList, top_n

DEFAULTS: dict = {
    "bm25": dataclasses.asdict(lexical.Bm25Params()),
    "rrf_k": fusion.DEFAULT_RRF_K,
    "pool_size": 50,
    "score_source": mining.SCORE_SOURCE_FUSED,
    "mining": dataclasses.asdict(mining.MiningConfig()),
    "prompt": {"eos_marker": DEFAULT_EOS_MARKER, "shots": {}},
    "strict": True,
}

_INPUT_PATH_KEYS = ("corpus", "queries", "qrels", "doc_vectors", "query_vectors")
PATH_KEYS = (*_INPUT_PATH_KEYS, "reranker_scores", "reranker_endpoint", "output_dir")

TRAINING_RECORDS_FILE = "training_records.jsonl"
MINED_FILE = "mined_negatives.jsonl"
TEACHER_SCORES_FILE = "teacher_scores.jsonl"
RERANKER_SCORES_FILE = "reranker_scores.jsonl"
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
        return mining.MiningConfig(**self.settings["mining"])

    def bm25_params(self) -> lexical.Bm25Params:
        return lexical.Bm25Params(**self.settings["bm25"])

    def config_hash(self) -> str:
        """Digest of the settings, all of which `mine` reads.

        Paths are excluded: inputs are digested by content in the manifest
        instead.
        """
        canonical = json.dumps(self.settings, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config(path) -> PipelineConfig:
    """Parse a JSON config file; relative paths resolve against its directory."""
    path = Path(path)
    try:
        raw = jsonl.parse(path.read_bytes())
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
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


def require_valid(problems: list[str]) -> None:
    """Raise the problems a validator found as one ValidationError, if any."""
    if problems:
        raise ValidationError("invalid config:\n  " + "\n  ".join(problems))


def validate_settings(config: PipelineConfig) -> list[str]:
    """Unknown keys, range and cross-field problems of the settings; paths are not looked at.

    `Bm25Params` and `MiningConfig` own the rules of the `bm25` and `mining`
    sections; their problems are reported here with the section prefixed.
    """
    s = config.settings
    errors = [f"{key}: unknown setting" for key in s if key not in DEFAULTS]
    for section, known in DEFAULTS.items():
        if isinstance(known, dict) and isinstance(s.get(section), dict):
            errors += [f"{section}.{key}: unknown setting" for key in s[section] if key not in known]
    for section, owner in (("bm25", lexical.Bm25Params), ("mining", mining.MiningConfig)):
        fields = {key: value for key, value in s.get(section, {}).items() if key in DEFAULTS[section]}
        try:
            owner(**fields)
        except ValidationError as exc:
            errors += [f"{section}.{problem}" for problem in exc.problems]

    def check(condition: bool, message: str) -> None:
        if not condition:
            errors.append(message)

    errors += number_problems("rrf_k", s.get("rrf_k"), "> 0", lambda v: v > 0)
    pool_size = s.get("pool_size")
    check(is_integer(pool_size) and pool_size >= 1, f"pool_size: must be an integer >= 1, got {pool_size!r}")
    check(
        s.get("score_source") in (mining.SCORE_SOURCE_FUSED, mining.SCORE_SOURCE_RERANKER),
        f"score_source: must be 'fused' or 'reranker', got {s.get('score_source')!r}",
    )

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

    check(isinstance(s.get("strict"), bool), f"strict: must be a boolean, got {s.get('strict')!r}")
    return errors


def validate_paths(config: PipelineConfig) -> list[str]:
    """Unknown keys, missing input files and output locations that `mine` cannot use."""
    errors = [f"paths.{key}: unknown path" for key in config.paths if key not in PATH_KEYS]
    for key in _INPUT_PATH_KEYS:
        value = config.path(key)
        if value is None:
            errors.append(f"paths.{key}: required")
        elif not os.path.isfile(value):
            errors.append(f"paths.{key}: no such file: {value}")
    scores_path = config.path("reranker_scores")
    if scores_path is not None and not os.path.isfile(scores_path):
        errors.append(f"paths.reranker_scores: no such file: {scores_path}")
    endpoint = config.path("reranker_endpoint")
    if scores_path is None and not endpoint:
        errors.append("paths: need reranker_scores and/or reranker_endpoint")
    if endpoint:
        try:
            rerank.parse_endpoint(endpoint)
        except ValidationError as exc:
            errors.append(f"paths.reranker_endpoint: {exc}")
    output_dir = config.path("output_dir")
    if output_dir is None:
        return errors + ["paths.output_dir: required"]
    # The nearest part of the path that exists must be a directory, or mkdir fails after every query is scored.
    nearest = next(path for path in (Path(output_dir), *Path(output_dir).parents) if os.path.lexists(path))
    if not os.path.isdir(nearest):
        errors.append(f"paths.output_dir: {nearest} is not a directory")
    elif scores_path is not None and os.path.isfile(scores_path):
        target = os.path.join(output_dir, RERANKER_SCORES_FILE)
        if os.path.exists(target) and os.path.samefile(target, scores_path):
            errors.append(f"paths.output_dir: its {RERANKER_SCORES_FILE} is the input paths.reranker_scores, "
                          "which the run would replace")
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
    stage and query.  No stage runs inside another."""
    try:
        return fn(*args, **kwargs)
    except EmbkitError as exc:
        raise PipelineStageError(name, query_id, exc) from exc


@contextmanager
def _vector_worker(paths):
    """Yield a function returning the stores a forked child loaded from the vector files, or None if it
    failed or none was forked: a fork gains nothing on one CPU and can deadlock while threads run.  The
    child writes its stores' (ids, matrix) pairs, pickled, to a memory file; leaving kills and reaps it."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if not hasattr(os, "memfd_create") or len(cpus) < 2 or threading.active_count() > 1:
        yield lambda: None
        return
    with open(os.memfd_create("vectors"), "w+b") as data:
        try:
            pid = os.fork()
        except OSError:  # no child: the files load serially
            pid = None
        if pid == 0:
            try:
                stores = [dense.load_vectors(path) for path in paths]
                pickle.dump([(store.ids, store.matrix) for store in stores], data, protocol=5)
                data.flush()
                os._exit(0)
            finally:  # only on an error: no traceback, and none of the parent's exit handlers
                os._exit(1)
        try:
            yield lambda: _receive_vectors(pid, data) if pid else None
        finally:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _receive_vectors(pid: int, data) -> list[dense.VectorStore] | None:
    """The child's stores, rebuilt from data, or None unless it exited with 0."""
    if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT).si_status:  # left for `_vector_worker` to reap
        return None
    data.seek(0)
    # Protocol 5 reads each matrix's bytes straight into the array it becomes.
    return [dense.VectorStore(ids, matrix) for ids, matrix in pickle.load(data)]  # written only by the child


def load_inputs(config: PipelineConfig) -> PipelineInputs:
    """Load and index every input the retrieval stages need, the vector files in a forked child where it can,
    while the rest load here.  If the child fails in any way, they load here in their stages.  Either way,
    the first error is in stage order: corpus, queries, qrels, lexical index, scores, doc and query vectors."""
    vector_paths = [config.path("doc_vectors"), config.path("query_vectors")]
    scores_path = config.path("reranker_scores")
    with _vector_worker(vector_paths) as received:
        corpus = _stage("load-corpus", None, corpus_mod.load_corpus, config.path("corpus"))
        queries = _stage("load-queries", None, corpus_mod.load_queries, config.path("queries"))
        qrels = _stage("load-qrels", None, corpus_mod.load_qrels, config.path("qrels"))
        index = _stage("index-lexical", None, lexical.build_index, corpus.documents.values())
        scores = _stage("load-scores", None, rerank.load_scores, scores_path) if scores_path else rerank.ScoreSet()
        stores = received()
    if stores is None:
        stores = [_stage("load-doc-vectors", None, dense.load_vectors, vector_paths[0]),
                  _stage("load-query-vectors", None, dense.load_vectors, vector_paths[1])]
    endpoint = config.path("reranker_endpoint")
    return PipelineInputs(
        corpus=corpus, queries=queries, qrels=qrels, index=index, doc_vectors=stores[0], query_vectors=stores[1],
        gateway=rerank.RerankGateway(scores=scores, client=rerank.RerankClient(endpoint) if endpoint else None),
    )


def retrieve_query(config: PipelineConfig, inputs: PipelineInputs, query: corpus_mod.Query,
                   positives: list[str]) -> tuple[RankedList, RankedList, list[tuple[str, str]]]:
    """Both channels' rankings of one query and its rerank pool as (doc_id, text) pairs.

    The pool is the union of both channels' top candidates plus the query's
    known positives, so the positive always carries a teacher score even
    when neither channel retrieved it.  `run_mine` has checked that every
    positive and doc vector id is a corpus id, so every pool doc has a text.
    """
    n = config["pool_size"]
    lex = _stage("search-lexical", query.id,
                 lambda: lexical.search_lexical(inputs.index, config.bm25_params(), query, n))
    sem = _stage("search-semantic", query.id,
                 lambda: dense.search_semantic(inputs.doc_vectors, inputs.query_vectors.get(query.id), n))
    pool = sorted(set(lex.doc_ids()) | set(sem.doc_ids()) | set(positives))
    return lex, sem, [(doc_id, inputs.corpus.text(doc_id)) for doc_id in pool]


def score_query(config: PipelineConfig, inputs: PipelineInputs, query: corpus_mod.Query,
                lex: RankedList, sem: RankedList, docs: list[tuple[str, str]]) -> fusion.TeacherScoreSet:
    """Rerank and fuse one retrieved query into a teacher score set.

    The pool's scores are read from the gateway, whose scores
    `score_all_queries` has filled for this query; a pair still missing
    fails the query in strict mode and is dropped otherwise.
    """
    strict = bool(config["strict"])

    def rerank_pool():
        found = inputs.gateway.ensure_scores(query.id, query.text, docs)
        missing = sorted(doc_id for doc_id, score in found.items() if score is None)
        if missing and strict:
            raise ValidationError(
                f"missing reranker score for pair ({query.id}, {missing[0]})"
            )
        scored = {doc_id: score for doc_id, score in found.items() if score is not None}
        if not scored:
            raise ValidationError(f"no reranker scores available for query '{query.id}'")
        return top_n(list(scored), list(scored.values()), len(scored), CHANNEL_RERANKER)

    rer = _stage("rerank", query.id, rerank_pool)
    return _stage("fuse", query.id, fusion.build_teacher_scores, query, lex, sem, rer, float(config["rrf_k"]))


def score_all_queries(config: PipelineConfig, inputs: PipelineInputs, positives_by_query: dict[str, list[str]]
                      ) -> tuple[dict[str, fusion.TeacherScoreSet], dict[str, str]]:
    """Teacher score sets for every query, and their `reranker_scores.jsonl` lines, keyed by query id.

    Every query is retrieved first, so a retrieval error costs no reranker
    call.  Then the one fill runs: every pool pair missing from the
    gateway's scores is posted in one client pass of full batches and its
    answer stored, and each query is reranked, fused and its lines rendered,
    in query order, as soon as its pairs are stored, while the rest of the
    pass is still in flight.  The first failure ends the pass where it is
    raised, and no batch is cut after it; a wire failure names stage
    `rerank` and no query.
    """
    queries = list(inputs.queries.values())
    retrieved = {query.id: retrieve_query(config, inputs, query, positives_by_query.get(query.id, []))
                 for query in queries}

    def filled():
        scores, client = inputs.gateway.scores, inputs.gateway.client
        # (query text, doc text) -> the (query index, query id, doc id) awaiting its score
        waiting: dict[tuple[str, str], list[tuple[int, str, str]]] = {}
        pending = [0] * len(queries)
        if client is not None:
            for index, query in enumerate(queries):
                for doc_id, doc_text in retrieved[query.id][2]:
                    if (query.id, doc_id) not in scores:
                        waiting.setdefault((query.text, doc_text), []).append((index, query.id, doc_id))
                        pending[index] += 1
        ready = 0
        if waiting:
            try:
                with closing(client.answered(list(waiting))) as batches:
                    for batch in batches:
                        for key, score in batch.items():
                            for index, query_id, doc_id in waiting[key]:
                                scores.add(query_id, doc_id, score)
                                pending[index] -= 1
                        while ready < len(queries) and not pending[ready]:
                            yield queries[ready]
                            ready += 1
            except EmbkitError as exc:
                raise PipelineStageError("rerank", None, exc) from exc
        yield from queries[ready:]

    teacher_sets: dict[str, fusion.TeacherScoreSet] = {}
    lines: dict[str, str] = {}
    with closing(filled()) as ready:
        for query in ready:
            teacher = teacher_sets[query.id] = score_query(config, inputs, query, *retrieved[query.id])
            lines[query.id] = rerank.score_lines(
                (query.id, doc_id, score) for doc_id, score in sorted(teacher.reranker().items()))
    return teacher_sets, lines


def run_mine(config: PipelineConfig) -> dict:
    """Execute the full pipeline and write records plus a run manifest.

    The reranker scores file holds the score of every pool pair that fed a
    teacher set, sorted by (query_id, doc_id); a pair dropped in lenient mode
    is absent.  Pointing `paths.reranker_scores` at it repeats the run
    without an endpoint.

    Any stage failure aborts the run with the stage name and query id; an
    invalid config fails before any input is read, and an unknown id in the
    qrels or doc vectors before any query is retrieved.  Each output is
    written to a temp file in the output directory, fsynced, and renamed
    into place, the manifest last.  Any exception, an interrupt included,
    removes the temp files, and one before the first rename leaves the
    previous run's files as they were.  Returns the manifest.
    """
    require_valid(validate_config(config))
    inputs = load_inputs(config)
    qrels = sorted(inputs.qrels, key=lambda r: (r.query_id, r.doc_id))
    positives_by_query: dict[str, list[str]] = {}  # each query's qrel doc ids
    for qrel in qrels:  # before any query is retrieved or scored
        if qrel.query_id not in inputs.queries:
            raise PipelineStageError(
                "mine", qrel.query_id, ValidationError(f"qrel references unknown query '{qrel.query_id}'")
            )
        if qrel.doc_id not in inputs.corpus.documents:
            raise PipelineStageError(
                "mine", qrel.query_id, ValidationError(f"qrel references unknown document '{qrel.doc_id}'")
            )
        positives_by_query.setdefault(qrel.query_id, []).append(qrel.doc_id)
    unknown = next((doc_id for doc_id in inputs.doc_vectors.ids if doc_id not in inputs.corpus.documents), None)
    if unknown is not None:
        raise PipelineStageError("mine", None, ValidationError(f"doc vector references unknown document '{unknown}'"))
    teacher_sets, reranker_lines = score_all_queries(config, inputs, positives_by_query)
    mining_config = config.mining_config()
    score_source = config["score_source"]

    mined = [
        _stage("mine", qrel.query_id, mining.mine, teacher_sets[qrel.query_id], qrel.doc_id,
               mining_config, score_source=score_source, positives=positives_by_query[qrel.query_id])
        for qrel in qrels
    ]
    records = _stage("emit", None, lambda: list(
        emit_training_records(
            mined, inputs.queries, inputs.corpus, InstructionRegistry(), shots=config["prompt"]["shots"],
            eos_marker=config["prompt"]["eos_marker"],
        )
    ))

    output_dir = Path(config.path("output_dir"))
    output_dir.mkdir(parents=True, exist_ok=True)
    data = (TRAINING_RECORDS_FILE, MINED_FILE, TEACHER_SCORES_FILE, RERANKER_SCORES_FILE)
    temp = {name: output_dir / f".{name}.{os.getpid()}.tmp" for name in (*data, MANIFEST_FILE)}
    try:
        save_training_records(temp[TRAINING_RECORDS_FILE], records)
        mining.save_mined(temp[MINED_FILE], mined)
        fusion.save_teacher_scores(
            temp[TEACHER_SCORES_FILE], [teacher_sets[qid] for qid in sorted(teacher_sets)]
        )
        with open(temp[RERANKER_SCORES_FILE], "w", encoding="utf-8") as handle:
            handle.writelines(reranker_lines[qid] for qid in sorted(reranker_lines))

        manifest = {
            "config_hash": config.config_hash(),
            "settings": copy.deepcopy(config.settings),
            "inputs": {
                key: _digest_file(config.path(key))
                for key in (*_INPUT_PATH_KEYS, "reranker_scores")
                if config.path(key)
            },
            "outputs": {name: _digest_file(temp[name]) for name in data},
            "counts": {"queries": len(inputs.queries), "pairs": len(mined)},
        }
        with open(temp[MANIFEST_FILE], "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        for path in temp.values():  # on disk before any rename, so no rename can expose a short file
            with open(path, "rb+") as handle:
                os.fsync(handle.fileno())
        for name, path in temp.items():  # the manifest last
            os.replace(path, output_dir / name)
    except BaseException:
        for partial in temp.values():
            partial.unlink(missing_ok=True)
        raise
    return manifest
