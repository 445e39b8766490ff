"""embkit: training-data engineering for embedding models.

Builds soft-labeled contrastive training data with a hybrid retrieval
teacher (BM25 + dense + cross-encoder fused by reciprocal rank fusion),
mines hard negatives under an adaptive margin, converts NLI data to
similarity pairs, formats instruction/few-shot prompts, provides a
numerical lab for the contrastive losses, and aggregates evaluation
matrices with means and tournament Borda ranking.
"""

from .corpus import (
    Corpus,
    Document,
    Qrel,
    Query,
    QueryPositive,
    RawPair,
    dedup,
    expand_pairs,
    load_corpus,
    load_pairs,
    load_qrels,
    load_queries,
)
from .dense import VectorStore, load_vectors, search_semantic, semantic_score
from .errors import (
    EmbkitError,
    PipelineStageError,
    RecordError,
    RerankProtocolError,
    RerankTransportError,
    ValidationError,
)
from .evalagg import (
    BordaResult,
    EvalMatrix,
    borda_rank,
    category_mean,
    format_leaderboard,
    leaderboard,
    load_eval_matrix,
    task_mean,
    weighted_mean,
)
from .forge import (
    InstructionRegistry,
    NliRecord,
    StsRecord,
    TrainingRecord,
    convert_nli,
    emit_training_records,
    format_prompt,
    load_nli,
)
from .fusion import TeacherScoreSet, build_teacher_scores, rrf_fuse
from .lexical import (
    Bm25Params,
    InvertedIndex,
    bm25_score,
    build_index,
    idf,
    search_lexical,
    tokenize,
)
from .loss import (
    SimBatch,
    TeacherDistribution,
    blended_loss,
    cosine_sim,
    grad_check,
    infonce_grad,
    infonce_loss,
    soft_distill_grad,
    soft_distill_loss,
)
from .mining import (
    CandidatePool,
    MinedNegatives,
    MiningConfig,
    filter_candidates,
    margin_threshold,
    mine,
    sample_negatives,
)
from .pipeline import PipelineConfig, load_config, run_mine, validate_config
from .ranking import RankedList
from .rerank import RerankClient, RerankGateway, ScoreSet, load_scores

__version__ = "0.1.0"
