"""Span tracer that wraps embkit's public functions from outside the package.

Wrappers replace module attributes (and the names other modules imported
from them, such as ``top_n`` inside ``lexical``, ``dense`` and ``pipeline``)
for the length of one traced run, then restore them.  Each call becomes a
span ``[name, start, end, parent, query_id, busy, info]`` kept in memory;
``busy`` differs from ``end - start`` only for generators, whose time is
counted inside ``next()`` alone.  Counts are recorded in ``info`` at the
same boundary, after the span closes, so counting is not billed to the layer.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

NAME, START, END, PARENT, QID, BUSY, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, qid, start: float) -> int:
        parent = self._stack[-1] if self._stack else None
        if qid is None and parent is not None:
            qid = self.spans[parent][QID]
        self.spans.append([name, start, None, parent, qid, 0.0, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, end: float) -> list:
        span = self.spans[index]
        self._stack.pop()
        span[END] = end
        span[BUSY] += end - span[START]
        return span

    def wrap(self, fn, name, qid_of=None, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(*args, **kwargs) if before else None
            index = self._open(name, qid_of(*args) if qid_of else None, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index, perf_counter())
            if after:
                after(span[INFO], result, pre, *args, **kwargs)
            return result
        return traced

    def wrap_generator(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._drive(fn(*args, **kwargs), name)
        return traced

    def _drive(self, gen, name):
        index = None
        busy = 0.0
        try:
            while True:
                start = perf_counter()
                if index is None:
                    index = self._open(name, None, start)
                else:
                    self._stack.append(index)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    now = perf_counter()
                    busy += now - start
                    self._stack.pop()
                    self.spans[index][END] = now
                yield item
        finally:
            if index is not None:
                self.spans[index][BUSY] = busy

    def patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every public function on the `mine` path."""
        from embkit import corpus, dense, fusion, jsonl, lexical, mining, pipeline, ranking, rerank

        def fn(owner, attr, name, **hooks):
            self.patch(owner, attr, self.wrap(getattr(owner, attr), name, **hooks))

        self.patch(jsonl, "iter_records", self.wrap_generator(jsonl.iter_records, "jsonl.iter_records"))
        self.patch(pipeline, "emit_training_records",
                   self.wrap_generator(pipeline.emit_training_records, "forge.emit_training_records"))
        for attr in ("load_corpus", "load_queries", "load_qrels"):
            fn(corpus, attr, f"corpus.{attr}")

        def index_info(info, index, pre, *args):
            info["terms"] = len(index.postings)
        fn(lexical, "build_index", "lexical.build_index", after=index_info)

        def lexical_info(info, result, pre, index, params, query, n):
            info["postings"] = sum(len(index.postings.get(t, ())) for t in lexical.tokenize(query.text))
        fn(lexical, "search_lexical", "lexical.search_lexical", after=lexical_info)

        fn(dense, "load_vectors", "dense.load_vectors")

        def dense_info(info, result, pre, store, *args):
            info["dots"] = len(store)
        fn(dense, "search_semantic", "dense.search_semantic", after=dense_info)

        def top_n_info(info, result, pre, scored, *args):
            info["ranked"] = len(scored)
            info["kept"] = len(result)
        top_n = self.wrap(ranking.top_n, "ranking.top_n", after=top_n_info)
        for owner in (lexical, dense, pipeline):
            self.patch(owner, "top_n", top_n)

        fn(rerank, "load_scores", "rerank.load_scores")

        def cache_hits(gateway, query_id, query_text, docs):
            # Pairs answered without an upstream call: from the gateway's id-keyed
            # cache, or from the client's memo of (query text, doc text) pairs.
            # `pipeline.score_query` passes a list, so counting does not consume it.
            memo = gateway.client._memo if gateway.client is not None else {}
            return sum(gateway.scores.score(query_id, d) is not None or (query_text, text) in memo
                       for d, text in docs)

        def ensure_info(info, result, hits, *args):
            info["pairs"] = len(result)     # one entry per distinct doc of the pool
            info["hits"] = hits
        fn(rerank.RerankGateway, "ensure_scores", "rerank.ensure_scores",
           before=cache_hits, after=ensure_info)
        fn(rerank.RerankClient, "request_scores", "rerank.request_scores")

        def fuse_info(info, result, *args):
            info["pool"] = len(result.candidates)
        fn(fusion, "build_teacher_scores", "fusion.build_teacher_scores", after=fuse_info)
        fn(fusion, "save_teacher_scores", "pipeline.write")

        def mine_info(info, result, pre, candidates, positive_id, config, *args, **kwargs):
            scores = candidates.fused()
            info["considered"] = len(scores) - (positive_id in scores)
            info["excluded"] = sum(s > result.threshold for d, s in scores.items() if d != positive_id)
            info["shortfall"] = int(result.shortfall)
        fn(mining, "mine", "mining.mine", qid_of=lambda candidates, *a, **k: candidates.query_id,
           after=mine_info)
        fn(mining, "save_mined", "pipeline.write")
        fn(pipeline, "save_training_records", "pipeline.write")
        fn(pipeline, "_digest_file", "pipeline.write")

        fn(pipeline, "load_inputs", "pipeline.load_inputs")
        fn(pipeline, "score_all_queries", "pipeline.score_all_queries")
        fn(pipeline, "score_query", "pipeline.score_query", qid_of=lambda config, inputs, query, *a: query.id)
        fn(pipeline, "run_mine", "pipeline.run_mine")

    def write(self, path, iteration: int) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "iteration": iteration, "id": i, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT], "query_id": span[QID],
                    "busy": span[BUSY], **span[INFO]}) + "\n")


def self_time(spans: list[list], index: int) -> float:
    """Span duration minus the part of it that its direct children cover."""
    children = sorted((s[START], s[END]) for s in spans if s[PARENT] == index)
    covered, reach = 0.0, float("-inf")
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    span = spans[index]
    return (span[END] - span[START]) - covered


def _pct(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1] if len(values) > 1 else values[0]


def layer_metrics(spans: list[list], stub: dict, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced `run_mine`, from its spans and the stub's count deltas."""
    by: dict[str, list[list]] = {}
    for span in spans:
        by.setdefault(span[NAME], []).append(span)

    def busy(name):
        return sum(s[BUSY] for s in by.get(name, ()))

    def info(name, key):
        return sum(s[INFO].get(key, 0) for s in by.get(name, ()))

    def ms(name):
        return [1e3 * s[BUSY] for s in by[name]]

    root = next(i for i, s in enumerate(spans) if s[NAME] == "pipeline.run_mine")
    pairs = info("rerank.ensure_scores", "pairs")
    misses = pairs - info("rerank.ensure_scores", "hits")
    ranked = info("ranking.top_n", "ranked")
    fused = by["fusion.build_teacher_scores"]
    mined = by["mining.mine"]
    return {
        "corpus.load_s": sum(busy(f"corpus.{a}") for a in ("load_corpus", "load_queries", "load_qrels")),
        "jsonl.read_s": busy("jsonl.iter_records"),
        "dense.load_s": busy("dense.load_vectors"),
        "dense.search_s": busy("dense.search_semantic"),
        "dense.search_ms.p50": statistics.median(ms("dense.search_semantic")),
        "dense.search_ms.p90": _pct(ms("dense.search_semantic"), 90),
        "dense.dot_products": info("dense.search_semantic", "dots"),
        "ranking.top_n_s": busy("ranking.top_n"),
        "ranking.items_ranked": ranked,
        "ranking.kept_frac": info("ranking.top_n", "kept") / ranked,
        "lexical.build_s": busy("lexical.build_index"),
        "lexical.terms": info("lexical.build_index", "terms"),
        "lexical.search_s": busy("lexical.search_lexical"),
        "lexical.search_ms.p50": statistics.median(ms("lexical.search_lexical")),
        "lexical.search_ms.p90": _pct(ms("lexical.search_lexical"), 90),
        "lexical.postings_scanned": info("lexical.search_lexical", "postings"),
        "rerank.load_s": busy("rerank.load_scores"),
        "rerank.ensure_s": busy("rerank.ensure_scores"),
        "rerank.wait_s": busy("rerank.request_scores"),
        "rerank.pairs_requested": pairs,
        "rerank.cache_hit_frac": (pairs - misses) / pairs,
        "rerank.upstream_frac": stub["pairs"] / misses if misses else 0.0,
        "rerank.pairs_per_request": stub["pairs"] / stub["requests"] if stub["requests"] else 0.0,
        "rerank.rechunks_413": stub["rejected_413"],
        "upstream_requests": stub["requests"],
        "upstream_pairs": stub["pairs"],
        "fusion.fuse_s": busy("fusion.build_teacher_scores"),
        "fusion.pool_size.mean": statistics.fmean(s[INFO]["pool"] for s in fused),
        "mining.mine_s": busy("mining.mine"),
        "mining.excluded_frac": info("mining.mine", "excluded") / max(1, info("mining.mine", "considered")),
        "mining.shortfall_frac": info("mining.mine", "shortfall") / len(mined),
        "forge.emit_s": busy("forge.emit_training_records"),
        "pipeline.write_s": busy("pipeline.write"),
        "pipeline.output_bytes": output_bytes,
        "pipeline.self_s": self_time(spans, root),
    }
