"""Score files, the wire protocol client, and the caching gateway."""

import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from embkit import jsonl, rerank
from embkit.errors import RecordError, RerankProtocolError, RerankTransportError, ValidationError
from embkit.rerank import RerankClient, RerankGateway, ScoreSet, load_scores

from conftest import ScoringServer, default_score


README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestScoreFiles:
    def test_three_distinct_pairs(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_lines(path, [
            '{"query_id": "q1", "doc_id": "d1", "score": 0.9}',
            '{"query_id": "q1", "doc_id": "d2", "score": -1.5}',
            '{"query_id": "q2", "doc_id": "d1", "score": 3.25}',
        ])
        scores = load_scores(path)
        assert len(scores) == 3
        assert scores.score("q1", "d1") == 0.9

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_lines(path, [
            '{"query_id": "q1", "doc_id": "d1", "score": 0.9}',
            '{"query_id": "q1", "doc_id": "d1", "score": 0.9}',
        ])
        with pytest.raises(RecordError, match=r"\(q1, d1\)"):
            load_scores(path)

    def test_repeated_pair_with_equal_score_names_its_line(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_lines(path, [
            '{"query_id": "q1", "doc_id": "d1", "score": 0.5}',
            '{"query_id": "q1", "doc_id": "d2", "score": 0.5}',
            '{"query_id": "q1", "doc_id": "d1", "score": 0.5}',
        ])
        with pytest.raises(RecordError, match=r"scores.jsonl:3: duplicate score for pair \(q1, d1\)"):
            load_scores(path)

    def test_nan_score_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_lines(path, ['{"query_id": "q1", "doc_id": "d1", "score": NaN}'])
        with pytest.raises(RecordError, match="finite"):
            load_scores(path)

    def test_score_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_lines(path, ['{"query_id": "q1", "doc_id": "d1", "score": 1%s}' % ("0" * 400)])
        with pytest.raises(RecordError, match="scores.jsonl:1: .*finite"):
            load_scores(path)

    def test_missing_pair_is_none_not_zero(self):
        scores = ScoreSet()
        scores.add("q1", "d1", 0.0)
        assert scores.score("q1", "d1") == 0.0
        assert scores.score("q1", "d2") is None

    def test_lookup_is_pure(self):
        scores = ScoreSet()
        scores.add("q1", "d1", 0.9)
        assert [scores.score("q1", "d1") for _ in range(5)] == [0.9] * 5

    def test_persist_reload_identical(self, tmp_path):
        scores = ScoreSet()
        scores.add("q1", "d1", 0.123456789)
        scores.add("q2", "d9", -17.25)
        path = tmp_path / "cache.jsonl"
        path.write_text(rerank.score_lines(scores.items()), encoding="utf-8")
        reloaded = load_scores(path)
        assert sorted(reloaded.items()) == sorted(scores.items())


@given(st.lists(st.tuples(st.text(), st.text(), st.floats(allow_nan=False, allow_infinity=False)), max_size=20))
def test_score_lines_are_the_lines_jsonl_writes(rows):
    # The reference is the record writer every other output goes through.
    expected = "".join(jsonl.dumps({"query_id": q, "doc_id": d, "score": s}) + "\n" for q, d, s in rows)
    assert rerank.score_lines(rows) == expected

class TestWireProtocol:
    def test_two_pairs_two_scores_in_order(self, scoring_server):
        client = RerankClient(scoring_server.endpoint)
        pairs = [("query one", "doc one"), ("query two", "doc two")]
        scores = client.request_scores(pairs)
        assert scores == [default_score(q, d) for q, d in pairs]

    def test_count_mismatch_is_protocol_error(self):
        with ScoringServer() as server:
            server.httpd.short_response = True
            client = RerankClient(server.endpoint)
            with pytest.raises(RerankProtocolError, match="expected 2 scores"):
                client.request_scores([("a", "b"), ("c", "d")])

    @pytest.mark.parametrize("reply, message", [
        ((413, {"error": "batch too large"}), "without declaring a limit"),
        ((413, b"<html>Request Entity Too Large</html>"), "without declaring a limit"),
        ((400, {"error": "bad request"}), "HTTP 400"),
        ((200, {"result": [1.0]}), "missing the 'scores' field"),
        ((200, b"not json"), "response is not JSON"),
        ((200, b"\xff\xfe"), "response is not JSON"),
        ((200, b"[" * 100_000 + b"]" * 100_000), "response is not JSON"),
    ], ids=["413-no-limit", "413-non-json-body", "400", "200-no-scores", "200-not-json", "200-not-utf8",
            "200-deep-nesting"])
    def test_bad_reply_is_protocol_error_after_one_post(self, reply, message, monkeypatch):
        monkeypatch.setattr(rerank, "RETRY_WAIT", 0.01)
        with ScoringServer() as server:
            server.httpd.reply = reply
            client = RerankClient(server.endpoint)
            with pytest.raises(RerankProtocolError, match=message):
                client.request_scores([("a", "b")])
            assert server.calls == 1
            assert client.upstream_calls == 0

    def test_redirect_is_not_followed(self):
        with ScoringServer() as target:
            redirect = (f"HTTP/1.1 302 Found\r\nLocation: {target.endpoint}\r\n"
                        "Content-Length: 0\r\n\r\n").encode("ascii")
            with RawReplyServer(redirect) as server:
                client = RerankClient(server.endpoint)
                with pytest.raises(RerankProtocolError, match="HTTP 302"):
                    client.request_scores([("a", "b")])
                assert server.calls == 1
            assert target.calls == 0

    def test_proxy_variables_are_ignored(self, scoring_server, monkeypatch):
        with socket.create_server(("127.0.0.1", 0)) as closed:
            proxy = f"http://127.0.0.1:{closed.getsockname()[1]}"
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.setenv(name, proxy)
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("PYTHONPATH", str(SRC))
        # A new process, as `embkit mine` is: it has read no proxy settings before these.
        script = ("import sys; from embkit.rerank import RerankClient; "
                  "print(RerankClient(sys.argv[1]).request_scores([('a', 'b')])[0])")
        done = subprocess.run([sys.executable, "-c", script, scoring_server.endpoint],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) == default_score("a", "b")

    def test_host_with_a_space_is_rejected_up_front(self):
        with pytest.raises(ValidationError, match="with a host"):
            RerankClient("http://a b:80/score")

    def test_query_string_is_part_of_the_request_target(self, scoring_server):
        client = RerankClient(scoring_server.endpoint + "?model=m")
        client.request_scores([("a", "b")])
        assert [line.split()[1] for line in scoring_server.request_lines] == ["/score?model=m"]

    def test_score_beyond_float_range_is_protocol_error(self):
        with ScoringServer(score_fn=lambda query, doc: 10 ** 400) as server:
            client = RerankClient(server.endpoint)
            with pytest.raises(RerankProtocolError, match="non-numeric score"):
                client.request_scores([("a", "b")])

    def test_unreachable_endpoint_is_transport_error(self, monkeypatch):
        monkeypatch.setattr(rerank, "RETRIES", 0)
        monkeypatch.setattr(rerank, "TIMEOUT", 0.5)
        client = RerankClient("http://127.0.0.1:9/score")
        with pytest.raises(RerankTransportError):
            client.request_scores([("a", "b")])

    def test_5xx_retried_then_succeeds(self, monkeypatch):
        monkeypatch.setattr(rerank, "RETRY_WAIT", 0.01)
        with ScoringServer() as server:
            server.httpd.fail_next = 1
            client = RerankClient(server.endpoint)
            scores = client.request_scores([("a", "b")])
            assert scores == [default_score("a", "b")]
            assert server.calls == 2
            assert client.upstream_calls == 1

    def test_repeated_request_served_from_memo(self, scoring_server):
        client = RerankClient(scoring_server.endpoint)
        first = client.request_scores([("a", "b")])
        second = client.request_scores([("a", "b")])
        assert first == second
        assert client.upstream_calls == 1
        assert scoring_server.calls == 1

    def test_server_declared_batch_limit_respected(self, monkeypatch):
        monkeypatch.setattr(rerank, "BATCH_SIZE", 10)
        with ScoringServer(max_batch_size=2) as server:
            client = RerankClient(server.endpoint)
            pairs = [(f"q{i}", f"d{i}") for i in range(5)]
            scores = client.request_scores(pairs)
            assert scores == [default_score(q, d) for q, d in pairs]
            # One oversized probe, then ceil(5 / 2) = 3 chunks.
            assert server.calls == 4
            assert client.batch_size == 2

    def test_refused_pairs_are_cut_again_with_the_rest(self, monkeypatch):
        monkeypatch.setattr(rerank, "BATCH_SIZE", 8)
        with ScoringServer(max_batch_size=6) as server:
            client = RerankClient(server.endpoint)
            pairs = [(f"q{i}", f"d{i}") for i in range(120)]
            assert client.request_scores(pairs) == [default_score(q, d) for q, d in pairs]
            # The six 8-pair chunks cut before the first post are refused; then
            # all 120 pairs are cut at the declared 6, with no 2-pair remainders.
            assert server.calls == 6 + 20
            assert server.answered == client.upstream_calls == 20

    def test_duplicates_within_one_call_collapse(self, scoring_server):
        client = RerankClient(scoring_server.endpoint)
        scores = client.request_scores([("a", "b"), ("a", "b"), ("c", "d")])
        assert scores[0] == scores[1] == default_score("a", "b")
        assert client.upstream_calls == 1

    def test_each_rejected_chunk_resplit_at_declared_limit(self, monkeypatch):
        monkeypatch.setattr(rerank, "BATCH_SIZE", 10)
        with ScoringServer(max_batch_size=2) as server:
            client = RerankClient(server.endpoint)
            pairs = [(f"q{i}", f"d{i}") for i in range(25)]
            scores = client.request_scores(pairs)
            assert scores == [default_score(q, d) for q, d in pairs]
            # Chunks of 10, 10 and 5 are each refused once, then sent as 5 + 5 + 3 chunks of <= 2.
            assert server.calls == 3 + 13
            assert client.upstream_calls == 13
            assert client.batch_size == 2

    def test_learned_limit_applies_to_chunks_not_yet_cut(self, monkeypatch):
        monkeypatch.setattr(rerank, "BATCH_SIZE", 10)
        with ScoringServer(max_batch_size=2) as server:
            client = RerankClient(server.endpoint)
            pairs = [(f"q{i}", f"d{i}") for i in range(100)]
            assert client.request_scores(pairs) == [default_score(q, d) for q, d in pairs]
            # Only the chunks cut before the first post are refused; the
            # other 60 pairs are cut at the learned limit of 2.
            assert client.upstream_calls == 50
            assert server.calls == 50 + rerank.MAX_IN_FLIGHT

    def test_failed_chunk_stops_new_posts(self, monkeypatch):
        monkeypatch.setattr(rerank, "BATCH_SIZE", 1)
        monkeypatch.setattr(rerank, "RETRIES", 0)
        with ScoringServer() as server:
            server.httpd.fail_next = 10 ** 6
            client = RerankClient(server.endpoint)
            with pytest.raises(RerankTransportError):
                client.request_scores([(f"q{i}", "d") for i in range(40)])
            assert server.calls <= 2 * rerank.MAX_IN_FLIGHT

    def test_chunks_posted_concurrently_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(rerank, "BATCH_SIZE", 1)
        lock = threading.Lock()
        active = peak = 0

        def slow_score(query, doc):
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.05)
            with lock:
                active -= 1
            return default_score(query, doc)

        with ScoringServer(score_fn=slow_score) as server:
            client = RerankClient(server.endpoint)
            pairs = [(f"q{i}", "d") for i in range(3 * rerank.MAX_IN_FLIGHT)]
            assert client.request_scores(pairs) == [default_score(q, d) for q, d in pairs]
        assert 1 < peak <= rerank.MAX_IN_FLIGHT

    def test_every_lane_fits_the_accept_queue_of_a_python_endpoint(self, monkeypatch):
        # Nothing is accepted for 0.3 s, so every lane's connect waits in the
        # kernel's queue of an http.server socket (backlog 5).  A connect that
        # did not fit would have its SYN dropped and resent only after 1 s.
        monkeypatch.setattr(rerank, "BATCH_SIZE", 1)
        server = ScoringServer()
        late_start = threading.Timer(0.3, server.__enter__)
        late_start.start()
        try:
            client = RerankClient(server.endpoint)
            pairs = [(f"q{i}", "d") for i in range(2 * rerank.MAX_IN_FLIGHT)]
            began = time.perf_counter()
            scores = client.request_scores(pairs)
            elapsed = time.perf_counter() - began
        finally:
            late_start.join()
            server.__exit__(None, None, None)
        assert scores == [default_score(q, d) for q, d in pairs]
        assert elapsed < 1.0

    def test_concurrent_requests_keep_counters_exact(self, monkeypatch):
        monkeypatch.setattr(rerank, "BATCH_SIZE", 4)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ScoringServer(max_batch_size=2) as server:
                client = RerankClient(server.endpoint)
                threads = [
                    threading.Thread(target=client.request_scores,
                                     args=([(f"q{t}", f"d{i}") for i in range(10)],))
                    for t in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch_interval)
        # Every thread's 10 distinct pairs end up in chunks of 2; a lost
        # increment would leave the count short.
        assert client.upstream_calls == 8 * 5
        assert client.batch_size == 2


def http_reply(body: bytes, length: int | None = None) -> bytes:
    """A raw HTTP 200 reply whose Content-Length is `length`, by default the body's."""
    head = f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {length or len(body)}\r\n\r\n"
    return head.encode("ascii") + body


class RawReplyServer:
    """Localhost socket server that reads each request whole and answers it
    with the next of `replies`, byte for byte, then closes the connection;
    the last reply repeats."""

    def __init__(self, *replies: bytes):
        self.replies = replies
        self.calls = 0
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.stopped = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stopped.set()
        self.thread.join(timeout=5.0)
        self.sock.close()

    @property
    def endpoint(self) -> str:
        host, port = self.sock.getsockname()
        return f"http://{host}:{port}/score"

    def _serve(self):
        while not self.stopped.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            conn.settimeout(5.0)
            with conn, conn.makefile("rb") as stream:
                length = 0
                while (line := stream.readline()) not in (b"\r\n", b""):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                stream.read(length)
                reply = self.replies[min(self.calls, len(self.replies) - 1)]
                self.calls += 1  # before the reply, so a client that has it sees the count
                conn.sendall(reply)


SHORT_REPLY = http_reply(b'{"scores": [0.5]}', length=100)


class TestFailedExchanges:
    """A reply cut short or garbled is a failed exchange: retried, then a transport error."""

    @pytest.fixture(autouse=True)
    def quick_retries(self, monkeypatch):
        monkeypatch.setattr(rerank, "RETRY_WAIT", 0.01)

    def test_short_body_retried_then_transport_error(self):
        with RawReplyServer(SHORT_REPLY) as server:
            client = RerankClient(server.endpoint)
            with pytest.raises(RerankTransportError, match="IncompleteRead"):
                client.request_scores([("a", "b")])
            assert server.calls == rerank.RETRIES + 1
            assert client.upstream_calls == 0

    def test_short_body_then_good_reply_returns_scores(self):
        with RawReplyServer(SHORT_REPLY, http_reply(b'{"scores": [0.5]}')) as server:
            client = RerankClient(server.endpoint)
            assert client.request_scores([("a", "b")]) == [0.5]
            assert server.calls == 2
            assert client.upstream_calls == 1

    def test_malformed_status_line_is_transport_error(self):
        with RawReplyServer(b"garbage\r\n\r\n") as server:
            client = RerankClient(server.endpoint)
            with pytest.raises(RerankTransportError, match="garbage"):
                client.request_scores([("a", "b")])
            assert server.calls == rerank.RETRIES + 1


class TestGateway:
    def test_fetches_only_missing_and_merges(self, tmp_path, scoring_server):
        scores = ScoreSet()
        scores.add("q1", "d1", 42.0)
        gateway = RerankGateway(scores=scores, client=RerankClient(scoring_server.endpoint))
        found = gateway.ensure_scores("q1", "query text", [("d1", "doc one"), ("d2", "doc two")])
        assert found["d1"] == 42.0
        assert found["d2"] == default_score("query text", "doc two")
        # Now cached: a second call makes no further upstream requests.
        again = gateway.ensure_scores("q1", "query text", [("d2", "doc two")])
        assert again["d2"] == found["d2"]
        assert scoring_server.calls == 1
        # And the merged cache round-trips through a file.
        path = tmp_path / "cache.jsonl"
        path.write_text(rerank.score_lines(gateway.scores.items()), encoding="utf-8")
        assert sorted(load_scores(path).items()) == sorted(gateway.scores.items())

    def test_prefetch_yields_each_request_in_order_once_its_pairs_are_cached(self, monkeypatch):
        # One pair per POST, six in flight: 18 misses take three rounds of replies.
        monkeypatch.setattr(rerank, "BATCH_SIZE", 1)
        requests = [(f"q{i}", f"query {i}", [(f"d{j}", f"doc {j}") for j in range(6)]) for i in range(4)]
        scores = ScoreSet()
        for doc_id, _ in requests[0][2]:
            scores.add("q0", doc_id, 1.0)
        with ScoringServer(delay=0.05) as server:
            gateway = RerankGateway(scores=scores, client=RerankClient(server.endpoint))
            seen = []
            for request in gateway.prefetch(requests):
                query_id, query_text, docs = request
                assert all(gateway.scores.score(query_id, doc_id) is not None for doc_id, _ in docs)
                seen.append((request, server.answered))
        assert [request for request, _ in seen] == requests
        # The cached request is out with the first round of replies, the next before the last reply.
        assert seen[0][1] <= rerank.MAX_IN_FLIGHT
        assert seen[1][1] < server.answered == 18
        assert gateway.scores.score("q3", "d5") == default_score("query 3", "doc 5")

    def test_closing_prefetch_early_cuts_no_more_chunks(self, monkeypatch):
        monkeypatch.setattr(rerank, "BATCH_SIZE", 1)
        requests = [("q0", "query", [("d0", "doc 0")]),
                    ("q1", "query", [(f"d{j}", f"doc {j}") for j in range(1, 60)])]
        with ScoringServer(delay=0.05) as server:
            gateway = RerankGateway(client=RerankClient(server.endpoint))
            fill = gateway.prefetch(requests)
            assert next(fill) == requests[0]
            fill.close()
            posted = server.calls
            time.sleep(0.2)
            assert server.calls == posted <= 2 * rerank.MAX_IN_FLIGHT
            assert server.answered == posted

    def test_without_client_missing_stays_none(self):
        gateway = RerankGateway()
        found = gateway.ensure_scores("q1", "text", [("d1", "doc")])
        assert found == {"d1": None}

    def test_conflicting_add_rejected(self):
        scores = ScoreSet()
        scores.add("q1", "d1", 1.0)
        with pytest.raises(ValidationError, match="conflicting"):
            scores.add("q1", "d1", 2.0)


def test_readme_states_the_client_constants():
    # Every "`NAME` (value" in README that names a client constant, in the
    # wire paragraph and elsewhere, equals the constant itself.
    stated = re.findall(r"`(?:rerank\.)?([A-Z_]+)` \(([0-9.]+)", README.read_text(encoding="utf-8"))
    client = {"BATCH_SIZE", "MAX_IN_FLIGHT", "TIMEOUT", "RETRIES", "RETRY_WAIT"}
    assert {name for name, _ in stated} == client
    for name, value in stated:
        assert float(value) == getattr(rerank, name), name
