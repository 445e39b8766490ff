"""embkit: training-data engineering for embedding models.

Builds soft-labeled contrastive training data with a hybrid retrieval
teacher (BM25 + dense + cross-encoder fused by reciprocal rank fusion),
mines hard negatives under an adaptive margin, converts NLI data to
similarity pairs, formats instruction/few-shot prompts, provides a
numerical lab for the contrastive losses, and aggregates evaluation
matrices with means and tournament Borda ranking.

Names are imported from their submodules, as in
`from embkit.pipeline import run_mine`.
"""

__version__ = "0.1.0"
