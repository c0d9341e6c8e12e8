"""Inference-time frame localization: score, rank, select top-k per segment.

`score_segments`, one inference-only `forward` over one `GraphBatch`, is
the inference path of `cegl classify`, `cegl localize` and the coverage
curve. A trained classifier's readout is repurposed as a temporal pool:
each frame's score is its attention weight times the sigmoid head applied
to its own final embedding, i.e. the frame's weighted contribution to the
abnormal prediction. Top-k selection uses a fixed total order (score
descending, earlier frame first on ties) so selections are nested in k.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .dataio import Annotations, derive_segment_labels
from .graph import GraphBatch
from .model import CLASSIFIER_BIAS, CLASSIFIER_WEIGHTS, ForwardCache, ModelParams, forward
from .numerics import sigmoid
from .segmentation import Partition

__all__ = [
    "node_scores",
    "score_segments",
    "topk_select",
    "coverage_counts",
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


def topk_select(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken toward earlier frames.

    Selections are nested: the top-(k) set always contains the top-(k-1)
    set. Returns ascending frame indices; all frames when k >= len(scores).
    A (B, n) matrix is B segments of n frames, one selection per row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2) or scores.size == 0:
        raise ValueError("topk_select needs a non-empty score vector or matrix")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    order = np.argsort(-scores, axis=-1, kind="stable")
    return np.sort(order[..., :k], axis=-1)


def coverage_counts(
    selections: Mapping[int, Sequence[int]],
    ann: Annotations,
    partition: Partition,
) -> tuple[int, int]:
    """(hits, abnormal segments), whose ratio is the coverage.

    `selections` maps segment index to selected global frame indices; a
    truly abnormal segment is a hit if its selection holds an abnormal
    frame, and a miss if it has no entry.
    """
    seg_labels = derive_segment_labels(ann, partition)
    spans = partition.spans()
    abnormal = [i for i, label in enumerate(seg_labels) if label == 1]
    frame_labels = ann.frame_labels
    hits = 0
    for i in abnormal:
        s, e = spans[i]
        chosen = selections.get(i, ())
        for f in chosen:
            if not s <= f < e:
                raise ValueError(
                    f"selected frame {f} lies outside segment {i} span [{s}, {e})"
                )
        hits += int(any(frame_labels[f] == 1 for f in chosen))
    return hits, len(abnormal)
