"""Inference-time frame localization: score, rank, select top-k per segment.

`score_segments`, one inference-only `forward` over one `GraphBatch`, is
the inference path of `cegl classify` and `cegl localize`. A trained
classifier's readout is repurposed as a temporal pool: each frame's score
is its attention weight times the sigmoid head applied to its own final
embedding, i.e. the frame's weighted contribution to the abnormal
prediction. `rank_frames` orders each segment's frames one fixed way
(score descending, earlier frame first on ties); `cegl localize`'s top-k
selection is a prefix of that order, so selections are nested in k, and
the coverage curve reads each segment's first-hit rank from it, given the
frame scores that `cegl localize` writes.
"""

from __future__ import annotations

import numpy as np

from .graph import GraphBatch
from .model import CLASSIFIER_BIAS, CLASSIFIER_WEIGHTS, ForwardCache, ModelParams, forward
from .numerics import sigmoid

__all__ = [
    "node_scores",
    "score_segments",
    "rank_frames",
    "topk_select",
]


def node_scores(cache: ForwardCache) -> np.ndarray:
    """(B, N) per-frame activation scores of a trained model's pass, zero past each graph's size.

    score_i = alpha_i * logistic(w . h_i + b) over the final node
    embeddings. The mean readout has no attention weights to reuse, so
    alpha falls back to uniform and the ranking is the head's alone.
    Taking the cache lets one pass give both the segments' predictions
    and their frame scores.
    """
    p = cache.params.arrays
    head = sigmoid(cache.node_embeddings[-1] @ p[CLASSIFIER_WEIGHTS] + p[CLASSIFIER_BIAS])
    alpha = cache.attention_weights
    if alpha is None:
        n = cache.batch.sizes[:, None]
        alpha = np.where(np.arange(head.shape[1]) < n, 1.0 / n, 0.0)
    return alpha * head


def score_segments(
    batch: GraphBatch, params: ModelParams, frames: str
) -> list[tuple[float, np.ndarray | None]]:
    """(abnormal score, frame scores or None) of each graph of the batch, in order.

    `frames` picks the segments that get frame scores: "none",
    "predicted" (score >= 0.5) or "all". A graph's scores have the bits
    of a one-graph pass when its batch is unpadded.
    """
    if frames not in ("none", "predicted", "all"):
        raise ValueError(f"frames must be 'none', 'predicted' or 'all', got {frames!r}")
    cache = forward(batch, params, record=False)
    scores = cache.prediction.tolist()
    wanted = [frames == "all" or (frames == "predicted" and s >= 0.5) for s in scores]
    if not any(wanted):
        return [(s, None) for s in scores]
    rows = node_scores(cache)
    return [(s, row[:n] if w else None)
            for s, row, n, w in zip(scores, rows, batch.sizes.tolist(), wanted)]


def rank_frames(scores) -> np.ndarray:
    """Frame indices in rank order: score descending, earlier frame first on ties.

    A (B, n) matrix is B segments of n frames, one order per row.
    """
    return np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")


def topk_select(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest-ranked frames (`rank_frames`), ascending.

    Selections are nested: the top-(k) set always contains the top-(k-1)
    set. Returns all frames when k >= len(scores). A (B, n) matrix is B
    segments of n frames, one selection per row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2) or scores.size == 0:
        raise ValueError("topk_select needs a non-empty score vector or matrix")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return np.sort(rank_frames(scores)[..., :k], axis=-1)

