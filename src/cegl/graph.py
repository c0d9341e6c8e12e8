"""Per-segment graph construction: frames as nodes, similarity as edge weight.

Every metric produces a symmetric matrix with zero diagonal and entries
in [0, 1]; negative cosine/correlation values clamp to zero, i.e. pairs
with no similarity are simply unconnected, and so is a zero-norm frame.
Identical frames get weight exactly 1. All metrics read one Gram matrix
whose entries each depend on their own two frames only, so a pair's
cosine or distance is the same in every segment that holds both frames.
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


def _gram(values: np.ndarray) -> np.ndarray:
    """Row dot products, each summed over its own two rows alone.

    `X @ X.T` is not used: BLAS blocks the sums by the matrix shape, so an
    entry would round differently in segments of different sizes.
    """
    return np.einsum("ik,jk->ij", values, values)


def _identical_rows(values: np.ndarray) -> np.ndarray:
    return (values[:, None, :] == values[None, :, :]).all(axis=2)


def _cosine_matrix(values: np.ndarray) -> np.ndarray:
    gram = _gram(values)
    norms = np.sqrt(np.diagonal(gram))
    zero = norms == 0.0
    if zero.any():
        log.debug("%d of %d frames have zero norm; their edge weights are 0", zero.sum(), zero.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.clip(gram / np.outer(norms, norms), 0.0, 1.0)
    weights[_identical_rows(values)] = 1.0  # avoid rounding below 1 for identical frames
    weights[zero, :] = 0.0
    weights[:, zero] = 0.0
    np.fill_diagonal(weights, 0.0)
    return weights


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
        gram = _gram(values)
        sq_norms = np.diagonal(gram)
        # Identical frames give exactly 0: their gram entries are all equal.
        sq_dists = np.maximum(sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram, 0.0)
        if isinstance(cfg.rbf_sigma, str):
            upper = np.sqrt(sq_dists[np.triu_indices(n, k=1)])
            sigma = float(np.median(upper)) if upper.size else 0.0
        else:
            sigma = float(cfg.rbf_sigma)
        if sigma <= 0.0:
            weights = _identical_rows(values).astype(np.float64)
        else:
            weights = np.exp(-sq_dists / (2.0 * sigma**2))
        np.fill_diagonal(weights, 0.0)
        return weights

    if cfg.metric == "knn_cosine":
        weights = _cosine_matrix(values)
        k = min(cfg.knn_k, n - 1)
        order = np.argsort(-weights, axis=1, kind="stable")
        keep = np.zeros((n, n), dtype=bool)
        np.put_along_axis(keep, order[:, :k], True, axis=1)
        keep |= keep.T
        np.fill_diagonal(keep, False)
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
