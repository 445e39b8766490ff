#!/usr/bin/env python3
"""The whole pipeline on a generated toy dataset, twice, byte for byte.

Writes a small corpus, queries, qrels, embeddings, and reranker scores to
a temporary directory, runs the full mine (retrieve -> rerank -> fuse ->
margin filter -> seeded sampling -> prompt-formatted records), prints the
result, and demonstrates that a rerun reproduces identical bytes.
"""

import json
import tempfile
from pathlib import Path

from embkit import pipeline
from embkit.forge import load_training_records

DOCS = {
    "d1": "the eiffel tower stands in paris france",
    "d2": "paris is the capital city of france",
    "d3": "mount everest is the tallest mountain on earth",
    "d4": "the himalayas contain the highest peaks in the world",
    "d5": "the pacific is the largest and deepest ocean",
    "d6": "oceans cover most of the surface of the planet",
    "d7": "honey never spoils when stored sealed",
    "d8": "bees communicate the location of flowers by dancing",
}
QUERIES = [
    {"id": "q1", "text": "capital of france", "task": "MSMARCO"},
    {"id": "q2", "text": "tallest mountain", "task": "Natural Question"},
    {"id": "q3", "text": "largest ocean", "task": "SQuAD"},
]
QRELS = [("q1", "d2"), ("q2", "d3"), ("q3", "d5")]

# Toy 3-d embeddings: one axis per topic cluster.
TOPIC_AXIS = {"d1": 0, "d2": 0, "d3": 1, "d4": 1, "d5": 2, "d6": 2, "d7": 0, "d8": 1}
QUERY_AXIS = {"q1": 0, "q2": 1, "q3": 2}


def write_inputs(root: Path) -> Path:
    def jsonl(name, rows):
        (root / name).write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )

    jsonl("corpus.jsonl", [{"id": d, "text": t} for d, t in DOCS.items()])
    jsonl("queries.jsonl", QUERIES)
    jsonl("qrels.jsonl", [{"query_id": q, "doc_id": d, "label": 1} for q, d in QRELS])
    jsonl("doc_vectors.jsonl", [
        {"id": d, "vector": [0.9 if TOPIC_AXIS[d] == axis else 0.1 for axis in range(3)]}
        for d in DOCS
    ])
    jsonl("query_vectors.jsonl", [
        {"id": q, "vector": [1.0 if QUERY_AXIS[q] == axis else 0.0 for axis in range(3)]}
        for q in QUERY_AXIS
    ])
    # Stand-in cross-encoder: high score iff the doc shares the query's topic.
    jsonl("reranker_scores.jsonl", [
        {"query_id": q["id"], "doc_id": d,
         "score": 8.0 - 0.1 * int(d[1]) if TOPIC_AXIS[d] == QUERY_AXIS[q["id"]] else -2.0 - 0.1 * int(d[1])}
        for q in QUERIES for d in DOCS
    ])
    config = {
        "rrf_k": 60,
        "mining": {"margin": 0.95, "top_k": 6, "num_negatives": 3, "seed": 42},
        "paths": {
            "corpus": "corpus.jsonl", "queries": "queries.jsonl", "qrels": "qrels.jsonl",
            "doc_vectors": "doc_vectors.jsonl", "query_vectors": "query_vectors.jsonl",
            "reranker_scores": "reranker_scores.jsonl", "output_dir": "out",
        },
    }
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def main():
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        config_path = write_inputs(root)

        config = pipeline.load_config(config_path)
        problems = pipeline.validate_config(config)
        print("config problems:", problems or "none")

        manifest = pipeline.run_mine(config)
        print(f"\nmined {manifest['counts']['pairs']} pairs from {manifest['counts']['queries']} queries")
        print(f"config hash: {manifest['config_hash'][:16]}...")

        records = load_training_records(root / "out" / pipeline.TRAINING_RECORDS_FILE)
        for record in records:
            negs = ", ".join(f"{t.split()[0]}...({s:.4f})" for t, s in record.negatives)
            print(f"\n  [{record.task}] {record.query!r}")
            print(f"  positive ({record.positive_soft_score:.4f}): {record.positive!r}")
            print(f"  negatives: {negs}")
        print("\nfirst prompt as the model would see it:")
        print("  " + records[0].prompt.replace("\n", "\n  "))

        first = (root / "out" / pipeline.TRAINING_RECORDS_FILE).read_bytes()
        config.paths["output_dir"] = str(root / "out2")
        pipeline.run_mine(config)
        second = (root / "out2" / pipeline.TRAINING_RECORDS_FILE).read_bytes()
        print(f"\nrerun byte-identical: {first == second}")


if __name__ == "__main__":
    main()
