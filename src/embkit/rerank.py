"""Cross-encoder score gateway.

The reranker model itself is external; this module only moves its numbers
around.  Scores arrive either from precomputed JSONL files or over a
one-exchange wire protocol:

    POST <endpoint>  {"pairs": [{"query": ..., "doc": ...}, ...]}
    200              {"scores": [...]}          same length, same order
    413              {"max_batch_size": N}      client re-chunks and retries

Every score handed out traces back to a file record or a wire response;
the gateway never fabricates one.  Missing pairs are reported as None so
callers can choose their own policy.  Reranker scores are arbitrary reals:
nothing here may assume a [0, 1] range.
"""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import jsonl
from .errors import RecordError, RerankProtocolError, RerankTransportError, ValidationError


@dataclass(frozen=True)
class PairScore:
    query_id: str
    doc_id: str
    score: float


class ScoreSet:
    """Id-keyed (query, doc) relevance scores with JSONL persistence.

    Reads are lock-free on an immutable-after-merge dict snapshot; merges
    are serialized by an internal lock, so any number of readers can run
    alongside a writer.
    """

    def __init__(self):
        self._scores: dict[tuple[str, str], float] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._scores)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._scores

    def score(self, query_id: str, doc_id: str) -> float | None:
        """Stored score or None; never a fabricated 0."""
        return self._scores.get((query_id, doc_id))

    def add(self, query_id: str, doc_id: str, score: float) -> None:
        if not math.isfinite(score):
            raise ValidationError(f"non-finite score for ({query_id}, {doc_id})")
        with self._lock:
            key = (query_id, doc_id)
            existing = self._scores.get(key)
            if existing is not None and existing != score:
                raise ValidationError(
                    f"conflicting scores for {key}: {existing} vs {score}"
                )
            self._scores[key] = score

    def items(self) -> list[tuple[str, str, float]]:
        return [(q, d, s) for (q, d), s in self._scores.items()]

    def save(self, path) -> int:
        return jsonl.write_records(
            path,
            (
                {"query_id": q, "doc_id": d, "score": s}
                for q, d, s in sorted(self.items())
            ),
        )


def load_scores(path) -> ScoreSet:
    """Load {"query_id", "doc_id", "score"} records; duplicates are an error."""
    scores = ScoreSet()
    seen: set[tuple[str, str]] = set()
    for lineno, record in jsonl.iter_records(path):
        qid = jsonl.require(record, "query_id", path, lineno)
        did = jsonl.require(record, "doc_id", path, lineno)
        score = jsonl.require(record, "score", path, lineno)
        if not isinstance(qid, str) or not isinstance(did, str):
            raise RecordError(path, lineno, "ids must be strings")
        if not isinstance(score, (int, float)) or isinstance(score, bool) or not math.isfinite(score):
            raise RecordError(path, lineno, f"score for ({qid}, {did}) must be a finite number")
        if (qid, did) in seen:
            raise RecordError(path, lineno, f"duplicate score for pair ({qid}, {did})")
        seen.add((qid, did))
        scores.add(qid, did, float(score))
    return scores


class RerankClient:
    """Batch scoring client for the wire protocol, with request coalescing.

    Identical text pairs in flight share one upstream call: the first caller
    owns the request, later callers wait on its future.  Already-answered
    pairs are served from an in-memory memo without touching the network.
    """

    def __init__(self, endpoint: str, *, batch_size: int = 32, timeout: float = 10.0,
                 retries: int = 2, retry_wait: float = 0.05):
        if batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        self.endpoint = endpoint
        self.batch_size = batch_size
        self.timeout = timeout
        self.retries = retries
        self.retry_wait = retry_wait
        self.upstream_calls = 0
        self._memo: dict[tuple[str, str], float] = {}
        self._inflight: dict[tuple[str, str], Future] = {}
        self._lock = threading.Lock()

    def request_scores(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """Score (query text, doc text) pairs, order-aligned with the input."""
        owned: list[tuple[str, str]] = []
        owned_set: set[tuple[str, str]] = set()
        waiting: dict[tuple[str, str], Future] = {}
        with self._lock:
            for pair in pairs:
                key = (pair[0], pair[1])
                if key in self._memo or key in owned_set or key in waiting:
                    continue
                if key in self._inflight:
                    waiting[key] = self._inflight[key]
                else:
                    future: Future = Future()
                    self._inflight[key] = future
                    owned_set.add(key)
                    owned.append(key)

        if owned:
            try:
                fetched = self._fetch(owned)
            except Exception as exc:
                with self._lock:
                    for key in owned:
                        self._inflight.pop(key).set_exception(exc)
                raise
            with self._lock:
                for key, score in zip(owned, fetched):
                    self._memo[key] = score
                    self._inflight.pop(key).set_result(score)

        for key, future in waiting.items():
            self._memo[key] = future.result()

        return [self._memo[(q, d)] for q, d in pairs]

    def _fetch(self, keys: list[tuple[str, str]]) -> list[float]:
        scores: list[float] = []
        limit = self.batch_size
        start = 0
        while start < len(keys):
            chunk = keys[start:start + limit]
            try:
                scores.extend(self._post(chunk))
            except _BatchTooLarge as exc:
                if exc.max_batch_size >= limit:
                    raise RerankProtocolError(
                        f"server rejected batch of {limit} but declares limit {exc.max_batch_size}"
                    )
                limit = exc.max_batch_size
                with self._lock:
                    self.batch_size = limit
                continue
            start += len(chunk)
        return scores

    def _post(self, chunk: list[tuple[str, str]]) -> list[float]:
        body = json.dumps(
            {"pairs": [{"query": q, "doc": d} for q, d in chunk]}
        ).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint, data=body, method="POST",
            headers={"Content-Type": "application/json"},
        )
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.retry_wait)
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    payload = json.loads(response.read().decode("utf-8"))
                with self._lock:
                    self.upstream_calls += 1
                return _validate_response(payload, len(chunk))
            except urllib.error.HTTPError as exc:
                detail = _read_error_body(exc)
                if exc.code == 413:
                    declared = detail.get("max_batch_size")
                    if isinstance(declared, int) and declared >= 1:
                        raise _BatchTooLarge(declared)
                    raise RerankProtocolError(
                        "server rejected batch size without declaring a limit"
                    ) from exc
                if 500 <= exc.code < 600:
                    last_error = exc
                    continue
                raise RerankProtocolError(f"endpoint returned HTTP {exc.code}") from exc
            except (urllib.error.URLError, TimeoutError, ConnectionError, OSError) as exc:
                last_error = exc
                continue
        raise RerankTransportError(f"endpoint unreachable after {self.retries + 1} attempts: {last_error}")


class _BatchTooLarge(Exception):
    def __init__(self, max_batch_size: int):
        self.max_batch_size = max_batch_size


def _read_error_body(exc: urllib.error.HTTPError) -> dict:
    try:
        payload = json.loads(exc.read().decode("utf-8"))
    except Exception:
        return {}
    return payload if isinstance(payload, dict) else {}


def _validate_response(payload, expected: int) -> list[float]:
    if not isinstance(payload, dict) or "scores" not in payload:
        raise RerankProtocolError("response is missing the 'scores' field")
    scores = payload["scores"]
    if not isinstance(scores, list) or len(scores) != expected:
        got = len(scores) if isinstance(scores, list) else "non-list"
        raise RerankProtocolError(f"expected {expected} scores, got {got}")
    result: list[float] = []
    for value in scores:
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            raise RerankProtocolError(f"non-finite or non-numeric score in response: {value!r}")
        result.append(float(value))
    return result


class RerankGateway:
    """Id-keyed scoring facade over a ScoreSet cache and an optional wire client.

    Lookups hit the cache first; misses go upstream (when a client is
    configured) and the answers are merged back, so repeated requests for
    the same pair never cause a second network call.
    """

    def __init__(self, scores: ScoreSet | None = None, client: RerankClient | None = None):
        self.scores = scores if scores is not None else ScoreSet()
        self.client = client

    def score(self, query_id: str, doc_id: str) -> float | None:
        return self.scores.score(query_id, doc_id)

    def ensure_scores(self, query_id: str, query_text: str,
                      docs: Iterable[tuple[str, str]]) -> dict[str, float | None]:
        """Return doc_id -> score for every doc, fetching misses upstream.

        Without a wire client, missing pairs stay None and the caller
        decides whether that is fatal.
        """
        docs = list(docs)
        found: dict[str, float | None] = {}
        missing: list[tuple[str, str]] = []
        for doc_id, doc_text in docs:
            cached = self.scores.score(query_id, doc_id)
            found[doc_id] = cached
            if cached is None:
                missing.append((doc_id, doc_text))
        if missing and self.client is not None:
            fetched = self.client.request_scores([(query_text, text) for _, text in missing])
            for (doc_id, _), score in zip(missing, fetched):
                self.scores.add(query_id, doc_id, score)
                found[doc_id] = score
        return found
