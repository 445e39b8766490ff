"""The benchmark's span tracer still finds every hook it wraps on the `mine` path.

`perfbench/spans.py` wraps embkit's functions by name and reads their
arguments and results; this runs it in process on the pipeline fixture, so
a renamed hook fails here in about a second, not only in the traced smoke
runs of `perfbench/tests`.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from embkit import pipeline

from conftest import FIXTURES, ScoringServer, default_score

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Added by perfbench/run.py from untraced runs, not by `layer_metrics`.
RUN_METRICS = {"trace.overhead_frac"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("source", ["score-file", "endpoint"])
def test_layer_metrics_cover_every_declared_per_layer_metric(tmp_path, source):
    spans = load_spans()
    config = pipeline.load_config(FIXTURES / "pipeline" / "config.json")
    config.paths["output_dir"] = str(tmp_path / "out")
    posted = []
    tracer = spans.Tracer()
    with ScoringServer(score_fn=lambda query, doc: posted.append(doc) or default_score(query, doc)) as server:
        if source == "endpoint":
            config.paths["reranker_scores"] = None
            config.paths["reranker_endpoint"] = server.endpoint
        tracer.install()
        try:
            pipeline.run_mine(config)
        finally:
            tracer.uninstall()
        stub = {"requests": server.calls, "pairs": len(posted), "rejected_413": 0}
    output_bytes = sum(path.stat().st_size for path in (tmp_path / "out").iterdir())
    metrics = spans.layer_metrics(tracer.spans, stub, output_bytes)
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]} - RUN_METRICS
    assert all(math.isfinite(value) for value in metrics.values())
    # The fixture's three pools hold 24 pairs, every one read back through the gateway.
    assert metrics["rerank.pairs_requested"] == 24
    assert metrics["upstream_pairs"] == (24 if source == "endpoint" else 0)
