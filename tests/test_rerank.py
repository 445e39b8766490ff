"""Score files, the wire protocol client, and the caching gateway."""

import sys
import threading

import pytest

from embkit.errors import RecordError, RerankProtocolError, RerankTransportError, ValidationError
from embkit.rerank import RerankClient, RerankGateway, ScoreSet, load_scores

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

    def test_nan_score_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_lines(path, ['{"query_id": "q1", "doc_id": "d1", "score": NaN}'])
        with pytest.raises(RecordError, match="finite"):
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
        scores.save(path)
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

    def test_concurrent_identical_requests_share_one_upstream_call(self):
        with ScoringServer() as server:
            server.httpd.delay = 0.3
            server.httpd.request_seen = threading.Event()
            client = RerankClient(server.endpoint)
            results: dict[str, list[float]] = {}

            def first():
                results["first"] = client.request_scores([("same q", "same d")])

            def second():
                results["second"] = client.request_scores([("same q", "same d")])

            t1 = threading.Thread(target=first)
            t1.start()
            # Guarantee the first request is in flight before the second starts.
            assert server.httpd.request_seen.wait(timeout=5.0)
            t2 = threading.Thread(target=second)
            t2.start()
            t1.join()
            t2.join()
            assert results["first"] == results["second"]
            assert server.calls == 1
            assert client.upstream_calls == 1

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
        gateway.scores.save(path)
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
