"""Per-segment graph construction: frames as nodes, similarity as edge weight.

The edge weight is cosine similarity clamped to [0, 1]: a symmetric
matrix with zero diagonal, where pairs with a negative cosine are simply
unconnected, and so is a zero-norm frame. Identical frames get weight
exactly 1. The weights read one Gram matrix whose entries each depend on
their own two frames only, so a pair's cosine is the same in every
segment that holds both frames.
Two identical frames give equal Gram entries (i, i), (i, j) and (j, j).
When some pair has those three equal, each frame gets one id per
distinct feature row, and a pair is identical when its ids match.

A graph is only its node features, edge weights and mean operator: a
segment's span and weak label are facts of the partition
(`Partition.spans`, `dataio.derive_segment_labels`). The mean operator
D^-1 A is the edge matrix with each row divided by its sum (a zero row
stays zero), so the mean aggregator's message is one product with it.
`build_segment_graphs` builds spans of one length as one unpadded
`GraphBatch`, checking its edges once and dividing them once;
`map_size_chunks` walks a video's spans one such size chunk at a time,
so inference holds one chunk of graphs, not the video's.

`GraphRows`, the training set, stores the graphs of the spans of videos
once, unpadded, over node rows that are the videos' frames, and
`GraphRows.gather` makes any of them one zero-padded batch with one
index gather per array, as `train` gathers each mini-batch.
"""

from __future__ import annotations

import logging
import reprlib
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .dataio import FeatureMatrix, check_types
from .errors import ConfigError

log = logging.getLogger(__name__)

# The cap on B * n, the node rows of a batch of B graphs of n nodes, to
# build or score: 51 ten-frame or two 200-frame segments share a batch, one
# of 257 frames or more is a batch alone. Every per-layer and per-step array
# is (B, n, .): below the cap more graphs amortise numpy's per-call cost,
# above it the arrays outgrow the cache.
BATCH_NODES = 512


def size_chunks(spans: Sequence[tuple[int, int]]) -> Iterator[list[int]]:
    """Indices of spans of one length n, in input order, max(1, BATCH_NODES // n) per chunk."""
    by_size: dict[int, list[int]] = {}
    for i, (s, e) in enumerate(spans):
        if e <= s:
            raise ValueError(f"span [{s}, {e}) holds no frames")
        by_size.setdefault(e - s, []).append(i)
    for n, indices in by_size.items():
        step = max(1, BATCH_NODES // n)
        yield from (indices[k : k + step] for k in range(0, len(indices), step))


def map_size_chunks(spans: Sequence[tuple[int, int]], fn: Callable[[list], Sequence]) -> list:
    """fn(the spans of one size chunk), one item per span, for each chunk; items in span order."""
    items: list = [None] * len(spans)
    for chunk in size_chunks(spans):
        for i, item in zip(chunk, fn([spans[i] for i in chunk]), strict=True):
            items[i] = item
    return items


@dataclass(frozen=True)
class SimilarityConfig:
    """The run config's similarity section; the graph builders use its one metric, cosine."""

    metric: str = "cosine"

    def __post_init__(self):
        check_types(self)
        if self.metric != "cosine":
            raise ConfigError(f"unknown similarity metric {reprlib.repr(self.metric)}")


def _check_edge_weights(w: np.ndarray) -> None:
    """Raise ValueError unless w, shaped (..., n, n), holds only valid edge-weight matrices."""
    if not np.isfinite(w).all():
        raise ValueError("edge weights must be finite")
    if not np.array_equal(w, np.swapaxes(w, -1, -2)):
        raise ValueError("edge weights must be symmetric")
    if np.diagonal(w, axis1=-2, axis2=-1).any():
        raise ValueError("edge weights must have a zero diagonal")
    if w.min() < 0.0 or w.max() > 1.0:
        raise ValueError("edge weights must lie in [0, 1]")


@dataclass(frozen=True)
class SegmentGraph:
    """Complete weighted graph over one segment's frames, in temporal order.

    No pipeline path makes one; it remains for `pipebench/` until ROADMAP item 1.
    """

    node_features: np.ndarray  # (n, d) float64
    edge_weights: np.ndarray  # (n, n), symmetric, zero diagonal, in [0, 1]

    def __post_init__(self):
        feats = np.asarray(self.node_features, dtype=np.float64)
        w = np.asarray(self.edge_weights, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError(f"node features must be (n, d) with n >= 1, got {feats.shape}")
        n = feats.shape[0]
        if w.shape != (n, n):
            raise ValueError(f"edge weights must be ({n}, {n}), got {w.shape}")
        _check_edge_weights(w)
        object.__setattr__(self, "node_features", feats)
        object.__setattr__(self, "edge_weights", w)

    @property
    def n(self) -> int:
        return self.node_features.shape[0]


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """B graphs zero-padded to the largest node count N; it checks nothing itself.

    `build_segment_graphs` checks the edges it batches; `GraphRows.gather`
    pads stored ones.
    """

    node_features: np.ndarray  # (B, N, d) float64
    edge_weights: np.ndarray  # (B, N, N)
    mean_weights: np.ndarray  # (B, N, N), edge rows divided by their sums; a zero row stays 0
    sizes: np.ndarray  # (B,) node count of each graph

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, b: int) -> SegmentGraph:
        """Graph b as checked views, IndexError past the end; only for pipebench/ (ROADMAP item 1)."""
        n = self.sizes[b]
        return SegmentGraph(self.node_features[b, :n], self.edge_weights[b, :n, :n])


def _identical_frames(values: np.ndarray, gram: np.ndarray, diagonals: np.ndarray) -> np.ndarray:
    """(B, n, n) mask of the frame pairs of each segment that are equal in every feature.

    Equal frames i and j have equal Gram entries (i, i), (i, j) and
    (j, j); without such an off-diagonal pair each frame equals only
    itself. Otherwise each frame gets the id of its distinct feature row,
    compared as bytes, and a pair is identical when its two ids match.
    """
    candidates = gram == diagonals[:, :, None]
    candidates &= gram == diagonals[:, None, :]
    if np.count_nonzero(candidates) == diagonals.size:  # the diagonal only
        return candidates
    rows = values + 0.0  # -0.0 + 0.0 is 0.0: equal frames get equal bytes
    ids = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[2]))),
                    return_inverse=True)[1].reshape(diagonals.shape)
    return ids[:, :, None] == ids[:, None, :]


def _similarity_batch(values: np.ndarray) -> np.ndarray:
    """Cosine edge-weight matrices (B, n, n) of B segments of n frames, given as (B, n, d)."""
    values = np.ascontiguousarray(values)  # einsum's summation order depends on the layout
    # Not `X @ X.T`: BLAS blocks the sums by the matrix shape, so an entry
    # would round differently in segments of different sizes.
    gram = np.einsum("bik,bjk->bij", values, values)
    diagonals = np.diagonal(gram, axis1=1, axis2=2)
    norms = np.sqrt(diagonals)
    zero = norms == 0.0
    if zero.any():
        log.debug("%d of %d frames have zero norm; their edge weights are 0", zero.sum(), zero.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.clip(gram / (norms[:, :, None] * norms[:, None, :]), 0.0, 1.0)
    weights[_identical_frames(values, gram, diagonals)] = 1.0  # exactly 1, not 1 ulp below
    weights[zero[:, :, None] | zero[:, None, :]] = 0.0
    np.einsum("bii->bi", weights)[...] = 0.0
    return weights


def build_graph(segment: FeatureMatrix, cfg: SimilarityConfig) -> SegmentGraph:
    """Graph for one segment, bit-identical to `build_segment_graphs(segment, [(0, n)])`.

    It and its unread `cfg` remain only for the benchmark's graph sample
    (`pipebench/workloads.py`) until ROADMAP item 1.
    """
    return SegmentGraph(segment.values, _similarity_batch(segment.values[None])[0])


def build_segment_graphs(features: FeatureMatrix, spans: Sequence[tuple[int, int]]) -> GraphBatch:
    """The graphs of [start, end) frame spans of one length, in the order of `spans`, unpadded."""
    if not spans:
        raise ValueError("build_segment_graphs needs at least one span")
    frames = features.frame_count
    n = spans[0][1] - spans[0][0]
    for s, e in spans:
        if not 0 <= s < e <= frames:
            raise ValueError(f"span [{s}, {e}) lies outside the video's {frames} frames")
        if e - s != n:
            raise ValueError(f"span [{s}, {e}) is not {n} frames long like the batch's first")
    values = features.values[np.add.outer([s for s, _ in spans], range(n))]
    weights = _similarity_batch(values)
    _check_edge_weights(weights)
    degrees = weights.sum(axis=2, keepdims=True)
    # A node without positive edges has an all-zero row: 0 / 1 keeps it zero.
    means = weights / np.where(degrees > 0, degrees, 1.0)
    return GraphBatch(values, weights, means, np.full(len(spans), n))


class GraphRows:
    """The graphs of frame spans of videos of one feature dim, stored once, unpadded.

    Node rows are the videos' frames concatenated, plus one zero row; a
    graph's nodes are its span's rows. Each graph's edge and mean-operator
    cells are flattened into one (sum n^2 + 1,) array each, sized from the
    spans and filled by `build` one size chunk at a time, so one chunk's
    batch at most is held besides the store. Every padded position of a
    gathered batch reads the zero last entry of each array. So the store
    holds sum n^2 cells, not graphs * max n^2: one long segment does not
    pad the short ones.
    """

    def __init__(self, videos: Sequence[tuple[FeatureMatrix, Sequence[tuple[int, int]]]],
                 build: Callable[[FeatureMatrix, list], GraphBatch] = build_segment_graphs):
        if not any(spans for _, spans in videos):
            raise ValueError("a graph store needs at least one graph")
        d = videos[0][0].feature_dim
        self.sizes = np.array([e - s for _, spans in videos for s, e in spans])
        self.cell_starts = np.cumsum(self.sizes**2) - self.sizes**2
        self.edges = np.zeros(int((self.sizes**2).sum()) + 1)
        self.means = np.zeros_like(self.edges)
        starts, offset = [], 0
        for features, spans in videos:
            if features.feature_dim != d:
                raise ConfigError(
                    f"feature dim mismatch across videos: {features.feature_dim} vs {d}")
            for chunk in size_chunks(spans):
                batch = build(features, [spans[i] for i in chunk])
                place = len(starts) + np.array(chunk)  # the chunk's graphs in the store
                cells = self.cell_starts[place, None] + np.arange(batch.edge_weights[0].size)
                self.edges[cells] = batch.edge_weights.reshape(len(chunk), -1)
                self.means[cells] = batch.mean_weights.reshape(len(chunk), -1)
            starts += [offset + s for s, _ in spans]
            offset += features.frame_count
        self.node_starts = np.array(starts)
        self.nodes = np.concatenate(
            [features.values for features, _ in videos] + [np.zeros((1, d))])

    def gather(self, picked: np.ndarray) -> GraphBatch:
        """The stored graphs at indices `picked`, in that order, zero-padded to the largest."""
        sizes = self.sizes[picked]
        i = np.arange(sizes.max())
        # A padded node's position reads as past every stored node and
        # cell, and `take` clips such an index to the trailing zero.
        position = np.where(i < sizes[:, None], i, len(self.nodes) + len(self.edges))  # (B, N)
        row_starts = self.cell_starts[picked, None] + position * sizes[:, None]
        cells = row_starts[:, :, None] + position[:, None, :]
        return GraphBatch(
            self.nodes.take(self.node_starts[picked, None] + position, axis=0, mode="clip"),
            self.edges.take(cells, mode="clip"),
            self.means.take(cells, mode="clip"),
            sizes,
        )
