"""Output checks on a finished `mine` run, independent of embkit.

Check 1 (manifest digests) runs per iteration in worker.py and check 4
(identical digests across iterations) in run.py; this module holds the two
checks that read the outputs:

2. every mined negative scores <= positive_score * margin, is not the
   positive, is distinct, comes from the top_k survivors, and there are
   min(num_negatives, survivors) of them;
3. on a seeded sample of queries, each fused teacher score equals a numpy
   recomputation (BM25, dot product, the stub's hashed reranker score, RRF)
   within TOL.  Candidates whose channel scores differ by less than TOL may
   trade ranks, and may trade places across a channel's top-n cut.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from stub import score as rerank_score
from workloads import MINING, POOL_SIZE, RRF_K, Generated

TOL = 1e-9


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def load_teacher(out: Path) -> dict[str, dict[str, float]]:
    return {r["query_id"]: {c["doc_id"]: c["score"] for c in r["candidates"]}
            for r in _read_jsonl(out / "teacher_scores.jsonl")}


def check_mined(out: Path, teacher: dict[str, dict[str, float]], pairs: int) -> list[str]:
    errors = []
    records = _read_jsonl(out / "mined_negatives.jsonl")
    if len(records) != pairs:
        errors.append(f"{len(records)} mined records for {pairs} qrels")
    for rec in records:
        qid, pos = rec["query_id"], rec["positive_id"]
        scores = teacher.get(qid, {})
        where = f"mined ({qid}, {pos})"
        if scores.get(pos) != rec["positive_score"]:
            errors.append(f"{where}: positive_score is not the positive's teacher score")
        threshold = rec["positive_score"] * MINING["margin"]
        survivors = sorted(((-s, d) for d, s in scores.items() if d != pos and s <= threshold))
        top = {d for _, d in survivors[:MINING["top_k"]]}
        ids = [n["doc_id"] for n in rec["negatives"]]
        expected = min(MINING["num_negatives"], len(top))
        if rec["threshold"] != threshold:
            errors.append(f"{where}: threshold {rec['threshold']} != {threshold}")
        if len(set(ids)) != len(ids) or pos in ids:
            errors.append(f"{where}: negatives repeat or include the positive")
        if len(ids) != expected or rec["shortfall"] != (expected < MINING["num_negatives"]):
            errors.append(f"{where}: {len(ids)} negatives, expected {expected}")
        for neg in rec["negatives"]:
            if not neg["score"] <= threshold or scores.get(neg["doc_id"]) != neg["score"]:
                errors.append(f"{where}: negative {neg['doc_id']} above threshold or not its teacher score")
            elif neg["doc_id"] not in top:
                errors.append(f"{where}: negative {neg['doc_id']} outside the top_k survivors")
    return errors


def admissible_ranks(order: np.ndarray, scores: np.ndarray, limit: int) -> dict[int, tuple]:
    """Doc index -> the 1-based ranks it may hold in a top-`limit` list.

    Neighbours whose scores differ by less than TOL are interchangeable; None
    means the doc may also fall outside the list, because its tie group
    straddles the cut.
    """
    ranks: dict[int, tuple] = {}
    i = 0
    while i < min(len(order), limit):
        j = i
        while j + 1 < len(order) and scores[order[j]] - scores[order[j + 1]] < TOL:
            j += 1
        allowed = tuple(range(i + 1, min(j + 1, limit) + 1)) + ((None,) if j >= limit else ())
        for doc in order[i:j + 1]:
            ranks[int(doc)] = allowed
        i = j + 1
    return ranks


def check_fused(gen: Generated, teacher: dict[str, dict[str, float]], sample: list[int]) -> list[str]:
    errors = []
    ref = gen.reference
    for qi in sample:
        qid, text = gen.queries[qi]
        got = {int(d[1:]): s for d, s in teacher.get(qid, {}).items()}
        lex_order, lex, sem_order, sem = ref.channels(text, gen.query_vecs[qi])
        lex_ranks = admissible_ranks(lex_order, lex, POOL_SIZE)
        sem_ranks = admissible_ranks(sem_order, sem, POOL_SIZE)
        positives = {int(d[1:]) for d in gen.positives[qid]}
        required = positives.union(*({d for d, r in ranks.items() if None not in r}
                                     for ranks in (lex_ranks, sem_ranks)))
        allowed = positives | set(lex_ranks) | set(sem_ranks)
        if not required <= set(got) <= allowed:
            errors.append(f"fused {qid}: candidate pool differs from the reference")
            continue
        rer = np.full(ref.n, -np.inf)
        pool = np.array(sorted(got))
        rer[pool] = [rerank_score(text, ref.texts[d]) for d in pool]
        rer_ranks = admissible_ranks(pool[np.lexsort((pool, -rer[pool]))], rer, len(pool))
        for doc, fused in got.items():
            options = itertools.product(lex_ranks.get(doc, (None,)), sem_ranks.get(doc, (None,)),
                                        rer_ranks[doc])
            if not any(abs(fused - sum(1.0 / (RRF_K + r) for r in combo if r is not None)) <= TOL
                       for combo in options):
                errors.append(f"fused {qid}/{ref.doc_ids[doc]}: {fused} matches no reference value")
    return errors
