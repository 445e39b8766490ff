#!/usr/bin/env python3
"""Fusing lexical, semantic, and reranker rankings into soft teacher labels.

Three channels rank the same candidate pool differently; reciprocal rank
fusion combines them using positions only, so the wildly different score
scales never need calibration.  The fused scores become the per-query soft
labels used downstream for mining and distillation.
"""

import numpy as np

from embkit.corpus import Document, Query
from embkit.dense import VectorStore, search_semantic
from embkit.fusion import build_teacher_scores, rrf_fuse
from embkit.lexical import Bm25Params, build_index, search_lexical
from embkit.ranking import RankedList, top_n

DOCS = {
    "d1": "how to brew espresso with a manual lever machine",
    "d2": "espresso brewing pressure and temperature explained",
    "d3": "pour over coffee recipes for light roasts",
    "d4": "the history of the espresso machine in italy",
    "d5": "cold brew concentrate ratios and steep times",
}

# Toy embeddings: dimension 3, roughly (espresso-ness, brewing-ness, history-ness).
VECTORS = {
    "d1": [0.9, 0.7, 0.1],
    "d2": [1.0, 0.8, 0.0],
    "d3": [0.1, 0.8, 0.0],
    "d4": [0.7, 0.1, 0.9],
    "d5": [0.1, 0.6, 0.1],
}

# Pretend cross-encoder scores: arbitrary real-valued logits.
RERANKER = {"d1": 6.3, "d2": 7.9, "d3": -1.2, "d4": 1.4, "d5": -0.6}


def main():
    query = Query(id="q", text="espresso brewing temperature", task="MSMARCO")
    q_vec = np.array([0.95, 0.75, 0.05])

    index = build_index(Document(id=d, text=t) for d, t in DOCS.items())
    lex = search_lexical(index, Bm25Params(), query, 5)

    store = VectorStore(list(VECTORS), np.array(list(VECTORS.values())))
    sem = search_semantic(store, q_vec, 5)

    rer = top_n(list(RERANKER), list(RERANKER.values()), 5, "reranker")

    print("channel rankings (doc: score):")
    for ranked in (lex, sem, rer):
        row = ", ".join(f"{d}: {s:.3f}" for d, s in ranked.entries)
        print(f"  {ranked.channel:9} {row}")

    fused = rrf_fuse([lex, sem, rer], k=60)
    print("\nfused ranking (k=60), score = sum of 1/(60 + rank) over channels:")
    for doc_id, score in fused.entries:
        print(f"  {score:.6f}  {doc_id}  {DOCS[doc_id]}")

    teacher = build_teacher_scores(query, lex, sem, rer, k=60)
    best = teacher.candidates[0]
    print(f"\naudit of the top candidate {best.doc_id}:")
    for ranked in (lex, sem, rer):
        ids = ranked.doc_ids()
        position = ids.index(best.doc_id) + 1 if best.doc_id in ids else "absent"
        print(f"  {ranked.channel:9} position {position}")
    print(f"  reranker score {best.reranker_score:.3f} (what mining reads when score_source is 'reranker')")

    # Rank-only dependence: squashing all raw scores changes nothing.
    squashed = RankedList(
        entries=tuple((d, s / 1000.0) for d, s in lex.entries), channel="lexical"
    )
    assert rrf_fuse([squashed, sem, rer], k=60) == fused
    print("\nrank-only check: dividing every lexical score by 1000 left the fusion identical")


if __name__ == "__main__":
    main()
