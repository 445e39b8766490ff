"""Score files, the wire protocol client, and the caching gateway."""

import sys
import threading
import time

import pytest

from embkit import rerank
from embkit.errors import RecordError, RerankProtocolError, RerankTransportError, ValidationError
from embkit.rerank import RerankClient, RerankGateway, ScoreSet, load_scores, save_scores

from conftest import ScoringServer, default_score


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
        save_scores(path, scores.items())
        reloaded = load_scores(path)
        assert sorted(reloaded.items()) == sorted(scores.items())


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
    def test_bad_reply_is_protocol_error_after_one_post(self, reply, message):
        with ScoringServer() as server:
            server.httpd.reply = reply
            client = RerankClient(server.endpoint, retry_wait=0.01)
            with pytest.raises(RerankProtocolError, match=message):
                client.request_scores([("a", "b")])
            assert server.calls == 1
            assert client.upstream_calls == 0

    def test_score_beyond_float_range_is_protocol_error(self):
        with ScoringServer(score_fn=lambda query, doc: 10 ** 400) as server:
            client = RerankClient(server.endpoint)
            with pytest.raises(RerankProtocolError, match="non-numeric score"):
                client.request_scores([("a", "b")])

    def test_unreachable_endpoint_is_transport_error(self):
        client = RerankClient("http://127.0.0.1:9/score", retries=0, timeout=0.5)
        with pytest.raises(RerankTransportError):
            client.request_scores([("a", "b")])

    def test_5xx_retried_then_succeeds(self):
        with ScoringServer() as server:
            server.httpd.fail_next = 1
            client = RerankClient(server.endpoint, retry_wait=0.01)
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

    def test_server_declared_batch_limit_respected(self):
        with ScoringServer(max_batch_size=2) as server:
            client = RerankClient(server.endpoint, batch_size=10)
            pairs = [(f"q{i}", f"d{i}") for i in range(5)]
            scores = client.request_scores(pairs)
            assert scores == [default_score(q, d) for q, d in pairs]
            # One oversized probe, then ceil(5 / 2) = 3 chunks.
            assert server.calls == 4
            assert client.batch_size == 2

    def test_duplicates_within_one_call_collapse(self, scoring_server):
        client = RerankClient(scoring_server.endpoint)
        scores = client.request_scores([("a", "b"), ("a", "b"), ("c", "d")])
        assert scores[0] == scores[1] == default_score("a", "b")
        assert client.upstream_calls == 1

    def test_each_rejected_chunk_resplit_at_declared_limit(self):
        with ScoringServer(max_batch_size=2) as server:
            client = RerankClient(server.endpoint, batch_size=10)
            pairs = [(f"q{i}", f"d{i}") for i in range(25)]
            scores = client.request_scores(pairs)
            assert scores == [default_score(q, d) for q, d in pairs]
            # Chunks of 10, 10 and 5 are each refused once, then sent as 5 + 5 + 3 chunks of <= 2.
            assert server.calls == 3 + 13
            assert client.upstream_calls == 13
            assert client.batch_size == 2

    def test_learned_limit_applies_to_chunks_not_yet_cut(self):
        with ScoringServer(max_batch_size=2) as server:
            client = RerankClient(server.endpoint, batch_size=10)
            pairs = [(f"q{i}", f"d{i}") for i in range(100)]
            assert client.request_scores(pairs) == [default_score(q, d) for q, d in pairs]
            # Only the chunks cut before the first post are refused; the
            # other 60 pairs are cut at the learned limit of 2.
            assert client.upstream_calls == 50
            assert server.calls == 50 + rerank.MAX_IN_FLIGHT

    def test_failed_chunk_stops_new_posts(self):
        with ScoringServer() as server:
            server.httpd.fail_next = 10 ** 6
            client = RerankClient(server.endpoint, batch_size=1, retries=0)
            with pytest.raises(RerankTransportError):
                client.request_scores([(f"q{i}", "d") for i in range(40)])
            assert server.calls <= 2 * rerank.MAX_IN_FLIGHT

    def test_chunks_posted_concurrently_up_to_the_cap(self):
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
            client = RerankClient(server.endpoint, batch_size=1)
            pairs = [(f"q{i}", "d") for i in range(3 * rerank.MAX_IN_FLIGHT)]
            assert client.request_scores(pairs) == [default_score(q, d) for q, d in pairs]
        assert 1 < peak <= rerank.MAX_IN_FLIGHT

    def test_concurrent_requests_keep_counters_exact(self):
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ScoringServer(max_batch_size=2) as server:
                client = RerankClient(server.endpoint, batch_size=4)
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
        save_scores(path, gateway.scores.items())
        assert sorted(load_scores(path).items()) == sorted(gateway.scores.items())

    def test_without_client_missing_stays_none(self):
        gateway = RerankGateway()
        found = gateway.ensure_scores("q1", "text", [("d1", "doc")])
        assert found == {"d1": None}

    def test_conflicting_add_rejected(self):
        scores = ScoreSet()
        scores.add("q1", "d1", 1.0)
        with pytest.raises(ValidationError, match="conflicting"):
            scores.add("q1", "d1", 2.0)
