"""Shared fixtures: tiny corpora and a controllable scoring server."""

from __future__ import annotations

import contextlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from embkit.corpus import Document

FIXTURES = Path(__file__).parent / "fixtures"


def make_docs(texts: dict[str, str]) -> list[Document]:
    return [Document(id=doc_id, text=text) for doc_id, text in texts.items()]


class _ScoringHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        pairs = payload.get("pairs", [])
        with server.state_lock:
            server.calls += 1
            server.request_lines.append(self.requestline)
            fail = server.fail_next > 0 or (server.fail_from is not None and server.calls >= server.fail_from)
            if server.fail_next > 0:
                server.fail_next -= 1
        if server.reply is not None:
            self._reply(*server.reply)
            return
        if fail:
            self._reply(503, {"error": "unavailable"})
            return
        if server.max_batch_size and len(pairs) > server.max_batch_size:
            self._reply(413, {"error": "batch too large", "max_batch_size": server.max_batch_size})
            return
        time.sleep(server.delay)
        scores = [server.score_fn(p["query"], p["doc"]) for p in pairs]
        if server.short_response:
            scores = scores[:-1]
        with server.state_lock:
            server.answered += 1  # before the reply, so a client that has it sees the count
        self._reply(200, {"scores": scores})

    def _reply(self, code: int, obj: dict | bytes):
        body = obj if isinstance(obj, bytes) else json.dumps(obj).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def default_score(query: str, doc: str) -> float:
    # Deterministic, text-dependent, and order-sensitive in the pair.
    return float((len(query) * 7 + len(doc) * 3) % 97) / 10.0


class ScoringServer:
    """In-process reranker endpoint with failure, latency and batch-limit knobs.

    Setting `httpd.reply` to `(status, body)` answers every request with it,
    body being a JSON-serialisable object or raw bytes.  `delay` seconds
    pass before each request is scored; from request number `fail_from` on
    every request is answered 503.  `calls` counts the requests received,
    `request_lines` holds their request lines and `answered` counts the
    200s sent.  Leaving the `with` block joins every thread the server
    started.
    """

    def __init__(self, score_fn=None, max_batch_size=None, delay=0.0, fail_from=None):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _ScoringHandler)
        self.httpd.score_fn = score_fn or default_score
        self.httpd.max_batch_size = max_batch_size
        self.httpd.delay = delay
        self.httpd.fail_from = fail_from
        self.httpd.calls = 0
        self.httpd.request_lines = []
        self.httpd.answered = 0
        self.httpd.fail_next = 0
        self.httpd.short_response = False
        self.httpd.reply = None
        self.httpd.state_lock = threading.Lock()
        self._thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()  # joins the request threads
        self._thread.join(timeout=5.0)

    @property
    def endpoint(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/score"

    @property
    def calls(self) -> int:
        return self.httpd.calls

    @property
    def answered(self) -> int:
        return self.httpd.answered

    @property
    def request_lines(self) -> list[str]:
        return self.httpd.request_lines


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves running a thread that was not running before it."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left running: {left}"


def child_pids() -> set[int]:
    """Pids of this process's children, running or not yet reaped (Linux; empty elsewhere)."""
    pids: set[int] = set()
    for path in Path("/proc/self/task").glob("*/children"):
        with contextlib.suppress(OSError):  # the thread has exited since the glob
            pids.update(map(int, path.read_text().split()))
    return pids


@pytest.fixture(autouse=True)
def no_process_outlives_its_test():
    """Fail a test that leaves a child process, running or unreaped, that was not there before it."""
    before = child_pids()
    yield
    left = sorted(child_pids() - before)
    assert not left, f"child processes left: {left}"


@pytest.fixture(autouse=True)
def no_temp_file_outlives_its_test(request):
    """Fail a test that leaves a `.*.tmp` file, such as an output's temp file, under its tmp_path."""
    tmp_path = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    left = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob(".*.tmp")) if tmp_path else []
    assert not left, f"temp files left: {left}"


@pytest.fixture
def scoring_server():
    with ScoringServer() as server:
        yield server
