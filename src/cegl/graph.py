"""Per-segment graph construction: frames as nodes, similarity as edge weight.

Every metric produces a symmetric matrix with zero diagonal and entries
in [0, 1]; negative cosine/correlation values clamp to zero, i.e. pairs
with no similarity are simply unconnected. Entries are computed with the
same scalar kernel as `cosine_similarity` so the matrix agrees with
pairwise calls bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dataio import Annotations, FeatureMatrix, check_types, derive_segment_labels
from .errors import ConfigError
from .segmentation import split_video

log = logging.getLogger(__name__)

METRICS = ("cosine", "correlation", "euclidean_rbf", "knn_cosine")

MEDIAN_HEURISTIC = "median_heuristic"


@dataclass(frozen=True)
class SimilarityConfig:
    metric: str = "cosine"
    knn_k: int | None = None
    rbf_sigma: float | str = MEDIAN_HEURISTIC

    def __post_init__(self):
        check_types(self)
        if self.metric not in METRICS:
            raise ConfigError(f"unknown similarity metric {self.metric!r}")
        if self.metric == "knn_cosine":
            if self.knn_k is None or self.knn_k < 1:
                raise ConfigError("knn_cosine requires knn_k >= 1")
        if isinstance(self.rbf_sigma, str):
            if self.rbf_sigma != MEDIAN_HEURISTIC:
                raise ConfigError(f"rbf_sigma must be a positive real or {MEDIAN_HEURISTIC!r}")
        elif self.rbf_sigma <= 0:
            raise ConfigError("explicit rbf_sigma must be positive")


@dataclass(frozen=True)
class SegmentGraph:
    """Complete weighted graph over one segment's frames, in temporal order."""

    node_features: np.ndarray  # (n, d) float64
    edge_weights: np.ndarray  # (n, n), symmetric, zero diagonal, in [0, 1]
    global_frame_offset: int = 0
    weak_label: int | None = None

    def __post_init__(self):
        feats = np.asarray(self.node_features, dtype=np.float64)
        w = np.asarray(self.edge_weights, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError(f"node features must be (n, d) with n >= 1, got {feats.shape}")
        n = feats.shape[0]
        if w.shape != (n, n):
            raise ValueError(f"edge weights must be ({n}, {n}), got {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValueError("edge weights must be symmetric")
        if np.diagonal(w).any():
            raise ValueError("edge weights must have a zero diagonal")
        if w.min() < 0.0 or w.max() > 1.0:
            raise ValueError("edge weights must lie in [0, 1]")
        if self.weak_label is not None and self.weak_label not in (0, 1):
            raise ValueError("weak_label must be 0 or 1 when present")
        object.__setattr__(self, "node_features", feats)
        object.__setattr__(self, "edge_weights", w)

    @property
    def n(self) -> int:
        return self.node_features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    """Cosine of two vectors, clamped into [0, 1].

    A zero-norm vector (a degenerate, e.g. black, frame) yields similarity
    0 rather than an error.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"vectors must share one dimension, got {x.shape} and {y.shape}")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        log.debug("zero-norm vector in cosine similarity; treating as dissimilar")
        return 0.0
    if np.array_equal(x, y):  # avoid rounding below 1 for identical frames
        return 1.0
    return min(max(float(np.dot(x, y)) / (nx * ny), 0.0), 1.0)


def _pairwise(values: np.ndarray, kernel) -> np.ndarray:
    n = values.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = kernel(i, j)
    return out


def _cosine_matrix(values: np.ndarray) -> np.ndarray:
    norms = np.array([np.linalg.norm(values[i]) for i in range(values.shape[0])])

    def kernel(i: int, j: int) -> float:
        if norms[i] == 0.0 or norms[j] == 0.0:
            log.debug("zero-norm frame %d or %d; edge weight 0", i, j)
            return 0.0
        if np.array_equal(values[i], values[j]):
            return 1.0
        return min(max(float(np.dot(values[i], values[j])) / (norms[i] * norms[j]), 0.0), 1.0)

    return _pairwise(values, kernel)


def similarity_matrix(segment: FeatureMatrix, cfg: SimilarityConfig) -> np.ndarray:
    """Edge-weight matrix for one segment under the configured metric."""
    values = segment.values
    n = values.shape[0]
    if n < 1:
        raise ValueError("similarity matrix needs at least one frame")

    if cfg.metric == "cosine":
        return _cosine_matrix(values)

    if cfg.metric == "correlation":
        centered = values - values.mean(axis=1, keepdims=True)
        return _cosine_matrix(centered)

    if cfg.metric == "euclidean_rbf":
        dists = _pairwise(values, lambda i, j: float(np.linalg.norm(values[i] - values[j])))
        if isinstance(cfg.rbf_sigma, str):
            upper = dists[np.triu_indices(n, k=1)]
            sigma = float(np.median(upper)) if upper.size else 0.0
        else:
            sigma = float(cfg.rbf_sigma)
        if sigma <= 0.0:
            weights = (dists == 0.0).astype(np.float64)
        else:
            weights = np.exp(-(dists**2) / (2.0 * sigma**2))
        np.fill_diagonal(weights, 0.0)
        return weights

    if cfg.metric == "knn_cosine":
        weights = _cosine_matrix(values)
        k = min(cfg.knn_k, n - 1) if n > 1 else 0
        keep = np.zeros((n, n), dtype=bool)
        for i in range(n):
            order = np.argsort(-weights[i], kind="stable")
            keep[i, order[:k]] = True
        keep |= keep.T
        keep[np.diag_indices(n)] = False
        return np.where(keep, weights, 0.0)

    raise ConfigError(f"unknown similarity metric {cfg.metric!r}")


def build_graph(
    segment: FeatureMatrix,
    cfg: SimilarityConfig,
    offset: int = 0,
    weak_label: int | None = None,
) -> SegmentGraph:
    """Graph for one segment; node order is temporal frame order."""
    return SegmentGraph(
        node_features=segment.values,
        edge_weights=similarity_matrix(segment, cfg),
        global_frame_offset=offset,
        weak_label=weak_label,
    )


def build_segment_graphs(
    features: FeatureMatrix,
    partition,
    cfg: SimilarityConfig,
    annotations: Annotations | None = None,
) -> list[SegmentGraph]:
    """One graph per partition segment, labelled weakly when annotations allow."""
    segments = split_video(features, partition)
    labels = [None] * len(segments)
    if annotations is not None and annotations.frame_labels is not None:
        labels = [int(label) for label in derive_segment_labels(annotations, partition)]
    return [
        build_graph(segment, cfg, offset=s, weak_label=label)
        for segment, (s, _e), label in zip(segments, partition.spans(), labels)
    ]
