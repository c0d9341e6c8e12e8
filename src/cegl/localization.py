"""Inference-time frame localization: score, rank, select top-k per segment.

A trained classifier's readout is repurposed as a temporal pool: each
frame's score is its attention weight times the sigmoid head applied to
its own final embedding, i.e. the frame's weighted contribution to the
abnormal prediction. Top-k selection uses a fixed total order (score
descending, earlier frame first on ties) so selections are nested in k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataio import Annotations, derive_segment_labels, write_json

# `forward` is not called here: frame scores come from the caller's pass.
# It stays importable as localization.forward because pipebench/tracing.py
# patches that name.
from .model import CLASSIFIER_BIAS, CLASSIFIER_WEIGHTS, ForwardCache, forward  # noqa: F401
from .numerics import sigmoid
from .segmentation import Partition

__all__ = [
    "LocalizationResult",
    "node_scores",
    "topk_select",
    "coverage",
    "coverage_counts",
    "write_localization",
]


@dataclass(frozen=True)
class LocalizationResult:
    segment_id: int
    start: int  # global index of the segment's first frame
    end: int  # one past the last frame
    predicted: int
    k: int
    scores: np.ndarray  # per-frame, empty when the segment was not scored
    selected: np.ndarray  # global frame indices, ascending

    def to_json_obj(self) -> dict:
        return {
            "segment_id": self.segment_id,
            "start": self.start,
            "end": self.end,
            "predicted": self.predicted,
            "k": self.k,
            "selected_frames": [int(i) for i in self.selected],
            "scores": [float(s) for s in self.scores],
        }


def node_scores(cache: ForwardCache) -> list[np.ndarray]:
    """Per-frame activation scores of each graph in a trained model's forward pass.

    score_i = alpha_i * logistic(w . h_i + b) over the final node
    embeddings. With a non-attention readout there are no attention
    weights to reuse, so alpha falls back to uniform and the ranking is
    the head's alone. Taking the cache lets one pass give both the
    segments' predictions and their frame scores.
    """
    p = cache.params.arrays
    head = sigmoid(cache.node_embeddings[-1] @ p[CLASSIFIER_WEIGHTS] + p[CLASSIFIER_BIAS])
    alpha = cache.attention_weights
    return [
        (np.full(n, 1.0 / n) if alpha is None else alpha[b, :n]) * head[b, :n]
        for b, n in enumerate(cache.sizes.tolist())
    ]


def topk_select(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken toward earlier frames.

    Selections are nested: the top-(k) set always contains the top-(k-1)
    set. Returns ascending frame indices; all frames when k >= len(scores).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("topk_select needs a non-empty score vector")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    order = np.argsort(-scores, kind="stable")
    return np.sort(order[: min(k, scores.size)])


def coverage_counts(
    selections: Mapping[int, Sequence[int]],
    ann: Annotations,
    partition: Partition,
) -> tuple[int, int]:
    """(hit count, abnormal segment count) behind the coverage fraction."""
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


def coverage(
    selections: Mapping[int, Sequence[int]],
    ann: Annotations,
    partition: Partition,
) -> float | None:
    """Fraction of truly abnormal segments whose selection hits an abnormal frame.

    `selections` maps segment index to selected global frame indices;
    abnormal segments without an entry count as misses. Returns None when
    the video has no abnormal segments (the metric is undefined there).
    """
    hits, n_ab = coverage_counts(selections, ann, partition)
    if n_ab == 0:
        return None
    return hits / n_ab


def write_localization(results: list[LocalizationResult], path) -> None:
    write_json([r.to_json_obj() for r in results], path)
