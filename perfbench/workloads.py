"""Seeded synthetic `mine` workloads and the benchmark's own reference retrieval.

Every input file is a function of (workload, seed, size).  The reference
BM25 / dot-product / RRF code here is independent of embkit: it writes the
precomputed reranker files (covering each query's top 2 x pool_size per
channel, so a near-tie reorder at the cut can never trip strict mode) and it
is the oracle the output check compares fused teacher scores against.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stub import score as rerank_score

# embkit's defaults, written into each workload's config explicitly so the
# output check reads the same values the program runs with.
POOL_SIZE = 50
RRF_K = 60.0
K1, B = 1.2, 0.75
MINING = {"margin": 0.95, "top_k": 100, "num_negatives": 7, "seed": 0}
DUP_FRAC = 0.1  # share of docs that near-duplicate another doc
TASK = "MSMARCO"

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Spec:
    """Sizes and shape of one workload."""

    docs: int
    doc_len: tuple[int, int]     # uniform token count range, inclusive
    vocab: int
    zipf_s: float
    queries: int
    query_len: int
    query_terms: str             # "rarest": the positive's rarest terms; "sample": uniform draw from it
    dim: int
    wire: bool                   # True: scores come from the stub endpoint, not a file
    repeat_frac: float = 0.0     # share of queries that reuse an earlier query's text


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Spec] = {
    "mine-retrieval": Spec(docs=2000, doc_len=(150, 250), vocab=8000, zipf_s=1.05, queries=60,
                           query_len=6, query_terms="sample", dim=384, wire=False),
    "mine-wire": Spec(docs=1500, doc_len=(20, 40), vocab=20000, zipf_s=1.0, queries=60,
                      query_len=5, query_terms="sample", dim=64, wire=True, repeat_frac=0.3),
}

# Fixture-sized variants of the same shapes, for the benchmark's own tests.
SMOKE: dict[str, Spec] = {
    name: Spec(docs=120, doc_len=spec.doc_len, vocab=min(spec.vocab, 2000), zipf_s=spec.zipf_s,
               queries=8, query_len=spec.query_len, query_terms=spec.query_terms,
               dim=min(spec.dim, 16), wire=spec.wire, repeat_frac=spec.repeat_frac)
    for name, spec in WORKLOADS.items()
}


def _word(i: int) -> str:
    """Distinct lowercase letter-only token for vocabulary rank i."""
    i += 26 * 26
    letters = []
    while i:
        i, r = divmod(i, 26)
        letters.append(chr(97 + r))
    return "".join(reversed(letters))


class Reference:
    """Independent numpy BM25 and dot-product retrieval over the generated inputs."""

    def __init__(self, doc_ids: list[str], texts: list[str], doc_vecs: np.ndarray):
        self.doc_ids = doc_ids
        self.texts = texts
        self.doc_vecs = doc_vecs
        n = len(texts)
        lengths = []
        term_docs: dict[str, tuple[list[int], list[int]]] = {}
        for i, text in enumerate(texts):
            tokens = tokenize(text)
            lengths.append(len(tokens))
            for term, tf in Counter(tokens).items():
                docs, tfs = term_docs.setdefault(term, ([], []))
                docs.append(i)
                tfs.append(tf)
        self.n = n
        self.lengths = np.asarray(lengths, dtype=np.float64)
        self.avg = sum(lengths) / n
        self.postings = {t: (np.asarray(d), np.asarray(f, dtype=np.float64))
                         for t, (d, f) in term_docs.items()}

    def df(self, term: str) -> int:
        posting = self.postings.get(term)
        return 0 if posting is None else len(posting[0])

    def bm25(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        """(scores over all docs, mask of docs sharing a token with the query)."""
        acc = np.zeros(self.n)
        hit = np.zeros(self.n, dtype=bool)
        for term in tokenize(query):
            posting = self.postings.get(term)
            if posting is None:
                continue
            idx, tf = posting
            df = len(idx)
            idf = math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))
            norm = K1 * (1.0 - B + B * self.lengths[idx] / self.avg)
            acc[idx] += idf * tf * (K1 + 1.0) / (tf + norm)
            hit[idx] = True
        return acc, hit

    def ranked(self, scores: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Doc indices by (-score, id); ids are zero-padded, so id order is index order."""
        idx = np.arange(self.n) if mask is None else np.flatnonzero(mask)
        return idx[np.lexsort((idx, -scores[idx]))]

    def channels(self, query: str, q_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lexical order, lexical scores, semantic order, semantic scores) over all docs."""
        lex, hit = self.bm25(query)
        sem = self.doc_vecs @ q_vec
        return self.ranked(lex, hit), lex, self.ranked(sem), sem


@dataclass
class Generated:
    config: Path
    queries: list[tuple[str, str]]           # (query id, text)
    query_vecs: np.ndarray
    positives: dict[str, list[str]]
    reference: Reference
    properties: dict


def _unit_rows(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    m = rng.standard_normal((rows, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record))
            handle.write("\n")


def generate(spec: Spec, seed: int, out: Path) -> Generated:
    """Write corpus, queries, qrels, vectors (and a score file unless wire) plus config.json."""
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    words = np.array([_word(i) for i in range(spec.vocab)], dtype=object)
    cdf = np.cumsum(1.0 / np.arange(1, spec.vocab + 1) ** spec.zipf_s)
    cdf /= cdf[-1]

    lengths = rng.integers(spec.doc_len[0], spec.doc_len[1] + 1, size=spec.docs)
    token_ids = np.minimum(np.searchsorted(cdf, rng.random(int(lengths.sum()))), spec.vocab - 1)
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    doc_tokens = [token_ids[bounds[i]:bounds[i + 1]] for i in range(spec.docs)]
    doc_vecs = _unit_rows(rng, spec.docs, spec.dim)
    # Near-duplicates score close to their original on every channel, so the
    # margin filter has false-negative candidates to exclude.
    for dup in rng.choice(spec.docs, size=round(DUP_FRAC * spec.docs), replace=False):
        orig = int(rng.integers(0, spec.docs))
        tokens = doc_tokens[orig].copy()
        tokens[rng.integers(0, len(tokens))] = rng.integers(0, spec.vocab)
        doc_tokens[dup] = tokens
        near = doc_vecs[orig] + rng.standard_normal(spec.dim) * (0.05 / math.sqrt(spec.dim))
        doc_vecs[dup] = near / np.linalg.norm(near)
    doc_ids = [f"d{i:06d}" for i in range(spec.docs)]
    texts = [" ".join(words[t]) for t in doc_tokens]
    doc_vecs = np.round(doc_vecs, 6)

    queries: list[tuple[str, str]] = []
    query_vecs = np.empty((spec.queries, spec.dim))
    positives: dict[str, list[str]] = {}
    repeats = set(rng.choice(np.arange(1, spec.queries), size=round(spec.repeat_frac * spec.queries),
                             replace=False).tolist())
    for qi in range(spec.queries):
        qid = f"q{qi:05d}"
        if qi in repeats:
            src = int(rng.integers(0, qi))      # same text, same embedding, same positive
            queries.append((qid, queries[src][1]))
            query_vecs[qi] = query_vecs[src]
            positives[qid] = list(positives[queries[src][0]])
            continue
        pos = int(rng.integers(0, spec.docs))
        tokens = doc_tokens[pos]
        if spec.query_terms == "rarest":
            chosen = np.unique(tokens)[-spec.query_len:]
        else:
            chosen = rng.choice(tokens, size=spec.query_len, replace=True)
        queries.append((qid, " ".join(words[chosen])))
        noisy = doc_vecs[pos] + rng.standard_normal(spec.dim) * (0.6 / math.sqrt(spec.dim))
        query_vecs[qi] = np.round(noisy / np.linalg.norm(noisy), 6)
        positives[qid] = [doc_ids[pos]]

    ref = Reference(doc_ids, texts, doc_vecs)
    _write_jsonl(out / "corpus.jsonl", ({"id": d, "text": t} for d, t in zip(doc_ids, texts)))
    _write_jsonl(out / "queries.jsonl", ({"id": q, "text": t, "task": TASK} for q, t in queries))
    _write_jsonl(out / "qrels.jsonl", ({"query_id": q, "doc_id": d, "label": 1}
                                       for q, _ in queries for d in positives[q]))
    _write_jsonl(out / "doc_vectors.jsonl", ({"id": d, "vector": v}
                                             for d, v in zip(doc_ids, doc_vecs.tolist())))
    _write_jsonl(out / "query_vectors.jsonl", ({"id": q, "vector": v}
                                               for (q, _), v in zip(queries, query_vecs.tolist())))

    covered: list[tuple[str, str, str]] = []     # (query id, query text, doc id) with a file score
    pool_pairs: list[tuple[str, str]] = []       # (query text, doc text) of each reference pool
    df_of_query_terms: list[int] = []
    for (qid, text), q_vec in zip(queries, query_vecs):
        lex_order, _, sem_order, _ = ref.channels(text, q_vec)
        pos_idx = [int(d[1:]) for d in positives[qid]]
        pool = set(lex_order[:POOL_SIZE]) | set(sem_order[:POOL_SIZE]) | set(pos_idx)
        pool_pairs.extend((text, texts[i]) for i in pool)
        df_of_query_terms.extend(ref.df(t) for t in set(tokenize(text)))
        wide = set(lex_order[:2 * POOL_SIZE]) | set(sem_order[:2 * POOL_SIZE]) | set(pos_idx)
        covered.extend((qid, text, doc_ids[i]) for i in sorted(wide))

    paths = {"corpus": "corpus.jsonl", "queries": "queries.jsonl", "qrels": "qrels.jsonl",
             "doc_vectors": "doc_vectors.jsonl", "query_vectors": "query_vectors.jsonl",
             "output_dir": "out"}
    if spec.wire:
        paths["reranker_endpoint"] = None          # filled in once the stub is listening
    else:
        text_of = dict(zip(doc_ids, texts))
        _write_jsonl(out / "reranker_scores.jsonl",
                     ({"query_id": q, "doc_id": d, "score": rerank_score(t, text_of[d])}
                      for q, t, d in covered))
        paths["reranker_scores"] = "reranker_scores.jsonl"
    config = out / "config.json"
    settings = {"bm25": {"k1": K1, "b": B}, "rrf_k": RRF_K, "pool_size": POOL_SIZE,
                "mining": MINING, "paths": paths}
    config.write_text(json.dumps(settings, indent=2) + "\n", encoding="utf-8")

    properties = {
        "docs": spec.docs, "queries": spec.queries, "dim": spec.dim,
        "doc_tokens_mean": float(np.mean([len(t) for t in doc_tokens])),
        "query_term_postings_mean": float(np.mean(df_of_query_terms)),
        "query_term_postings_max": int(np.max(df_of_query_terms)),
        "repeated_pair_share": 1.0 - len(set(pool_pairs)) / len(pool_pairs),
    }
    return Generated(config, queries, query_vecs, positives, ref, properties)


def set_endpoint(config: Path, endpoint: str) -> None:
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["paths"]["reranker_endpoint"] = endpoint
    config.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
