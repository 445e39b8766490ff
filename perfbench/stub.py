"""Stub cross-encoder speaking embkit's reranker wire protocol.

Run as its own process on loopback:

    python3 perfbench/stub.py

It prints ``PORT <n>`` once it listens.  ``POST /score`` answers
``{"pairs": [{"query", "doc"}, ...]}`` with deterministic hashed scores after
sleeping LATENCY_S per request plus PAIR_S per pair; a batch larger than
MAX_BATCH is refused with 413 and ``{"max_batch_size": MAX_BATCH}``.
``GET /stats`` returns the request, pair, 413 and 5xx counts.

``score`` is also imported by the generator (to write precomputed score
files) and by the output check (to recompute reranker scores), so all three
agree on what the reranker says.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)

LATENCY_S = 0.008   # fixed cost of one request
PAIR_S = 40e-6      # cost of one scored pair
MAX_BATCH = 24      # larger batches are refused with 413


def score(query: str, doc: str) -> float:
    """Shared-term count plus a hashed offset in [0, 1): relevant-looking, fully deterministic."""
    shared = len(set(_TOKEN.findall(query.lower())) & set(_TOKEN.findall(doc.lower())))
    digest = hashlib.blake2b(f"{query}\x1f{doc}".encode("utf-8"), digest_size=8).digest()
    return shared + int.from_bytes(digest, "big") / 2.0 ** 64


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        if self.path != "/stats":
            self._reply(404, {"error": "not found"})
            return
        with self.server.lock:
            self._reply(200, dict(self.server.counts))

    def do_POST(self):
        server = self.server
        try:
            length = int(self.headers.get("Content-Length", 0))
            pairs = json.loads(self.rfile.read(length).decode("utf-8"))["pairs"]
            with server.lock:
                server.counts["requests"] += 1
            if len(pairs) > MAX_BATCH:
                with server.lock:
                    server.counts["rejected_413"] += 1
                self._reply(413, {"error": "batch too large", "max_batch_size": MAX_BATCH})
                return
            time.sleep(LATENCY_S + PAIR_S * len(pairs))
            scores = [score(p["query"], p["doc"]) for p in pairs]
        except Exception as exc:  # a malformed request must not kill the server
            with server.lock:
                server.counts["errors_5xx"] += 1
            self._reply(500, {"error": repr(exc)})
            return
        with server.lock:
            server.counts["pairs"] += len(pairs)
        self._reply(200, {"scores": scores})

    def _reply(self, code: int, obj: dict):
        body = json.dumps(obj).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def main() -> int:
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.daemon_threads = True
    httpd.lock = threading.Lock()
    httpd.counts = {"requests": 0, "pairs": 0, "rejected_413": 0, "errors_5xx": 0}
    print(f"PORT {httpd.server_address[1]}", flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
