"""Cross-encoder score gateway.

The reranker model itself is external; this module only moves its numbers
around.  Scores arrive either from precomputed JSONL files or over a
one-exchange wire protocol:

    POST <endpoint>  {"pairs": [{"query": ..., "doc": ...}, ...]}
    200              {"scores": [...]}          same length, same order
    413              {"max_batch_size": N}      client cuts the pairs again at N
    5xx                                         retried, like a reply cut short

Every score handed out traces back to a file record or a wire response;
the gateway never fabricates one.  Missing pairs are reported as None so
callers can choose their own policy.  Reranker scores are arbitrary reals:
nothing here may assume a [0, 1] range.
"""

from __future__ import annotations

import collections
import functools
import http.client
import json
import json.encoder
import math
import queue
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from typing import Callable, Iterable, Iterator, Sequence

from . import jsonl
from .errors import RecordError, RerankProtocolError, RerankTransportError, ValidationError, is_integer, is_number

BATCH_SIZE = 32  # pairs per POST until a 413 declares a lower limit
# Chunks of one client pass posted at once.  No more than 6: Linux
# queues at most 6 unaccepted connects on a socket listening with Python
# socketserver's backlog of 5, and may drop the SYN of a 7th, resent after 1 s.
MAX_IN_FLIGHT = 6
TIMEOUT = 10.0  # seconds one exchange may take
RETRIES = 2  # extra attempts after a failed exchange
RETRY_WAIT = 0.05  # seconds before each extra attempt

# How `jsonl.dumps` writes a string: no ASCII escapes, the same as json.dumps(ensure_ascii=False).
_string = json.encoder.encode_basestring

ScoreRequest = tuple[str, str, Iterable[tuple[str, str]]]  # (query_id, query_text, [(doc_id, doc_text), ...])


class ScoreSet:
    """Id-keyed (query, doc) relevance scores; a stored score never changes."""

    def __init__(self):
        self._scores: dict[tuple[str, str], float] = {}

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
        key = (query_id, doc_id)
        existing = self._scores.get(key)
        if existing is not None and existing != score:
            raise ValidationError(f"conflicting scores for {key}: {existing} vs {score}")
        self._scores[key] = score

    def items(self) -> list[tuple[str, str, float]]:
        return [(q, d, s) for (q, d), s in self._scores.items()]


def load_scores(path) -> ScoreSet:
    """Load {"query_id", "doc_id", "score"} records; duplicates are an error."""
    return jsonl.load(path, _read_scores)


def _read_scores(path, records: jsonl.Records) -> ScoreSet:
    scores = ScoreSet()
    stored = scores._scores
    for lineno, record in records:
        qid = jsonl.string(record, "query_id", path, lineno)
        did = jsonl.string(record, "doc_id", path, lineno)
        score = jsonl.number(jsonl.require(record, "score", path, lineno), "score", path, lineno)
        if (qid, did) in stored:
            raise RecordError(path, lineno, f"duplicate score for pair ({qid}, {did})")
        # jsonl.number has checked what `ScoreSet.add` would check again.
        stored[qid, did] = score
    return scores


def score_lines(rows: Iterable[tuple[str, str, float]]) -> str:
    """(query_id, doc_id, score) rows as lines of the file `load_scores` reads, in the given order.

    Each line is what `jsonl.dumps` writes for the record {"query_id",
    "doc_id", "score"} with a float score, built without a dict per row.
    """
    return "".join([f'{{"query_id": {_string(q)}, "doc_id": {_string(d)}, "score": {s!r}}}\n' for q, d, s in rows])


def parse_endpoint(url: str) -> tuple[Callable[..., http.client.HTTPConnection], str]:
    """A connection opener for the host and port of an http:// or https:// URL, and its request target.

    The target is the path, "/" if there is none, with the query string.
    Raises ValidationError for another scheme, no host or a bad one, or a port that is not a number.
    """
    try:
        parts = urllib.parse.urlsplit(url)
        if parts.scheme in ("http", "https") and parts.hostname:
            connection = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
            connect = functools.partial(connection, parts.hostname, parts.port)
            connect()  # opens no socket, but refuses a host with control characters
            return connect, (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    except (ValueError, http.client.InvalidURL):  # from urlsplit, from .port and from the connection
        pass
    raise ValidationError(f"must be an http:// or https:// URL with a host and a numeric port "
                          f"if it names one, got {url!r}")


class RerankClient:
    """Batch scoring client for the wire protocol.

    `request_scores` keeps a memo of the pairs it has answered and posts
    only the others; `answered` posts every key it is given.  The keys of
    one pass are split into chunks of at most `batch_size` pairs, which
    starts at BATCH_SIZE and drops to any limit a 413 declares, and up to
    MAX_IN_FLIGHT of them are in flight at all times.
    The cap is 6 because an endpoint served by Python's http.server (listen
    backlog 5) has room for at most 6 connects that it has not yet accepted
    on Linux; a client with more of them open can have a SYN dropped, which
    costs a 1 s resend.  Each chunk is one POST on a new connection straight
    to the endpoint: proxy variables are ignored and a redirect is not
    followed.  `answered` hands each chunk back as it lands, and
    `request_scores` waits for all of them.  `upstream_calls` counts the
    replies that passed validation.  One lock guards the memo, the counters
    and the state of every pass.
    """

    def __init__(self, endpoint: str):
        self._connect, self._target = parse_endpoint(endpoint)
        self.batch_size = BATCH_SIZE
        self.upstream_calls = 0
        self._memo: dict[tuple[str, str], float] = {}  # request_scores' answers
        self._lock = threading.Lock()

    def request_scores(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """Score (query text, doc text) pairs, order-aligned with the input.

        A pair answered by an earlier call comes from the memo; the others
        are posted once each, and the call waits until all are answered.
        """
        keys = [(q, d) for q, d in pairs]
        with self._lock:
            missing = [key for key in dict.fromkeys(keys) if key not in self._memo]
        for batch in self.answered(missing):
            with self._lock:
                self._memo.update(batch)
        with self._lock:
            return [self._memo[key] for key in keys]

    def answered(self, keys: Sequence[tuple[str, str]]) -> Iterator[dict[tuple[str, str], float]]:
        """Scores of distinct (query text, doc text) keys, a chunk at a time as each is answered.

        Up to MAX_IN_FLIGHT workers post the chunks in order of the keys and
        hand each answered chunk back, and this generator yields it in the
        caller's thread; they go on posting while the caller works between
        yields.  The first chunks are cut before any is posted; after that a
        worker cuts its next chunk from the front of the keys not yet cut,
        at the `batch_size` of that moment.  A chunk refused with 413 puts
        its keys back at that front, so they are cut again like the rest.
        Once a chunk fails, or the caller stops reading, no new chunk is
        cut.  The first error is raised after every answered chunk has been
        yielded, and no worker outlives the generator.  No keys, no post.
        """
        if not keys:
            return
        landed: queue.SimpleQueue[dict[tuple[str, str], float] | None] = queue.SimpleQueue()
        errors: list[Exception] = []
        uncut = collections.deque(keys)
        stopped = False

        def cut(refused: Sequence[tuple[str, str]] = ()) -> list[tuple[str, str]] | None:
            """The next chunk, or None if no more is to be cut; the caller holds the lock."""
            uncut.extendleft(reversed(refused))
            if errors or stopped or not uncut:
                return None
            return [uncut.popleft() for _ in range(min(self.batch_size, len(uncut)))]

        def work(chunk: list[tuple[str, str]] | None) -> None:
            try:
                while chunk is not None:
                    try:
                        scores = self._post_chunk(chunk)
                    except Exception as exc:
                        with self._lock:
                            errors.append(exc)
                        return
                    if scores is not None:
                        landed.put(dict(zip(chunk, scores)))
                    with self._lock:
                        chunk = cut(chunk if scores is None else ())
            finally:
                landed.put(None)  # this worker is done

        with self._lock:
            first = [cut() for _ in range(min(MAX_IN_FLIGHT, -(-len(keys) // self.batch_size)))]
        with ThreadPoolExecutor(max_workers=len(first)) as pool:
            futures = [pool.submit(work, chunk) for chunk in first]
            try:
                for _ in futures:  # until every worker has said it is done
                    while (scores := landed.get()) is not None:
                        yield scores
            finally:
                with self._lock:
                    stopped = True  # a caller that stops reading cuts no more chunks
        for future in futures:
            future.result()
        if errors:
            raise errors[0]

    def _post_chunk(self, chunk: list[tuple[str, str]]) -> list[float] | None:
        """Scores for one chunk from the first reply below 500, or None if a 413 refused it.

        A 200 is validated, a 413 lowers `batch_size` to the server's declared
        limit, and any other status is a protocol error.
        """
        status, reply = self._post(chunk)
        if status == 200:
            scores = _validate_response(reply, len(chunk))
            with self._lock:
                self.upstream_calls += 1
            return scores
        if status != 413:
            raise RerankProtocolError(f"endpoint returned HTTP {status}")
        try:
            limit = jsonl.parse(reply)["max_batch_size"]
        except (ValueError, TypeError, KeyError):  # a body that is no JSON object declares nothing
            limit = None
        if not (is_integer(limit) and limit >= 1):
            raise RerankProtocolError("server rejected batch size without declaring a limit")
        if limit >= len(chunk):
            raise RerankProtocolError(f"server rejected batch of {len(chunk)} but declares limit {limit}")
        with self._lock:
            self.batch_size = min(self.batch_size, limit)
        return None

    def _post(self, chunk: list[tuple[str, str]]) -> tuple[int, bytes]:
        """Status and body of the first complete reply below 500.

        A failed exchange, a 5xx or anything short of a complete reply, is
        retried RETRIES times; then it is a RerankTransportError.
        """
        body = json.dumps({"pairs": [{"query": q, "doc": d} for q, d in chunk]}).encode("utf-8")
        last_error: Exception | str | None = None
        for attempt in range(RETRIES + 1):
            if attempt:
                time.sleep(RETRY_WAIT)
            connection = self._connect(timeout=TIMEOUT)
            try:
                connection.request("POST", self._target, body, {"Content-Type": "application/json"})
                response = connection.getresponse()
                status, reply = response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            finally:
                connection.close()
            if status < 500:
                return status, reply
            last_error = f"HTTP {status}"
        raise RerankTransportError(f"endpoint unreachable after {RETRIES + 1} attempts: {last_error}")


def _validate_response(reply: bytes, expected: int) -> list[float]:
    try:
        payload = jsonl.parse(reply)
    except ValueError as exc:
        raise RerankProtocolError(f"response is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or "scores" not in payload:
        raise RerankProtocolError("response is missing the 'scores' field")
    scores = payload["scores"]
    if not isinstance(scores, list) or len(scores) != expected:
        got = len(scores) if isinstance(scores, list) else "non-list"
        raise RerankProtocolError(f"expected {expected} scores, got {got}")
    result: list[float] = []
    for value in scores:
        if not is_number(value):
            raise RerankProtocolError(f"non-finite or non-numeric score in response: {value!r}")
        result.append(float(value))
    return result


class RerankGateway:
    """Id-keyed scoring facade over a ScoreSet cache and an optional wire client.

    Lookups hit the cache first; misses go upstream (when a client is
    configured) and the answers are merged back, so a later request for a
    (query id, doc id) pair already in the cache makes no network call.
    `prefetch` fills the cache for many queries at once, so their misses
    share full batches, and hands each query back as soon as its pairs are in.
    """

    def __init__(self, scores: ScoreSet | None = None, client: RerankClient | None = None):
        self.scores = scores if scores is not None else ScoreSet()
        self.client = client

    def ensure_scores(self, query_id: str, query_text: str,
                      docs: Iterable[tuple[str, str]]) -> dict[str, float | None]:
        """Return doc_id -> score for every doc, fetching misses upstream.

        Without a wire client, missing pairs stay None and the caller
        decides whether that is fatal.
        """
        docs = list(docs)
        for _ in self.prefetch([(query_id, query_text, docs)]):
            pass
        return {doc_id: self.scores.score(query_id, doc_id) for doc_id, _ in docs}

    def prefetch(self, requests: Iterable[ScoreRequest]) -> Iterator[ScoreRequest]:
        """Fill the cache for many queries through one client pass, yielding
        each request, in the order given, once all its pairs are in the cache.

        Each request is `(query_id, query_text, docs)` as `ensure_scores`
        takes it.  The uncached pairs of every request are posted in one
        client pass, in request order, so they share full batches; the pass
        goes on in the background while the caller works on the requests
        yielded so far.  Requests are released in order as each chunk is
        answered.  Without a wire client each request is yielded as is.
        """
        requests = list(requests)
        # (query text, doc text) -> the (request index, query id, doc id) awaiting its score
        waiting: dict[tuple[str, str], list[tuple[int, str, str]]] = {}
        pending = [0] * len(requests)
        if self.client is not None:
            for index, (query_id, query_text, docs) in enumerate(requests):
                for doc_id, doc_text in docs:
                    if (query_id, doc_id) not in self.scores:
                        waiting.setdefault((query_text, doc_text), []).append((index, query_id, doc_id))
                        pending[index] += 1
        if not waiting:
            yield from requests
            return
        ready = 0
        with closing(self.client.answered(list(waiting))) as batches:
            for batch in batches:
                for key, score in batch.items():
                    for index, query_id, doc_id in waiting[key]:
                        self.scores.add(query_id, doc_id, score)
                        pending[index] -= 1
                while ready < len(requests) and not pending[ready]:
                    yield requests[ready]
                    ready += 1
