import logging
import tracemalloc

import numpy as np
import pytest

from cegl.dataio import Annotations, FeatureMatrix, SynthConfig, derive_segment_labels, synth_video
from cegl import graph
from cegl.errors import ConfigError
from cegl.graph import (
    BATCH_CELLS,
    GraphBatch,
    GraphRows,
    SegmentGraph,
    SimilarityConfig,
    build_graph,
    build_segment_graphs,
    map_size_chunks,
    size_chunks,
)
from cegl.numerics import make_rng
from cegl.segmentation import Partition
from built_graphs import graph_of


def fm(values):
    return FeatureMatrix("v", np.asarray(values, dtype=np.float64))


def video_graphs(features, spans):
    """(node features, edge weights) per span, built one size chunk at a time, in span order."""
    rows = map_size_chunks(spans, lambda chunk: build_segment_graphs(features, chunk).rows())
    return [(batch.node_features[b], batch.edge_weights[b]) for batch, b in rows]


def pair_cosine(x, y):
    """The cosine edge weight of a two-frame segment."""
    return graph_of([x, y]).edge_weights[0, 0, 1]


class TestCosineSimilarity:
    def test_identical_direction(self):
        assert pair_cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert pair_cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_forty_five_degrees(self):
        got = pair_cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_opposite_clamps_to_zero(self):
        assert pair_cosine(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 0.0

    def test_zero_norm_is_zero_not_error(self):
        assert pair_cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_zero_norm_frames_logged_once_per_matrix(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="cegl.graph"):
            graph_of([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        assert [r.getMessage() for r in caplog.records] == [
            "2 of 3 frames have zero norm; their edge weights are 0"
        ]

    def test_self_similarity_one(self):
        rng = make_rng(1)
        for _ in range(20):
            x = rng.standard_normal(5)
            assert pair_cosine(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = make_rng(2)
        for _ in range(20):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            a, b = rng.uniform(0.1, 10, size=2)
            assert pair_cosine(a * x, b * y) == pytest.approx(
                pair_cosine(x, y), abs=1e-12
            )


class TestSimilarityMatrix:
    def test_two_identical_frames(self):
        (w,) = graph_of([[1.0, 2.0], [1.0, 2.0]]).edge_weights
        assert np.array_equal(w, [[0.0, 1.0], [1.0, 0.0]])

    def test_matches_pairwise_calls_exactly(self):
        # At shapes like these a BLAS `X @ X.T` can round entries differently
        # from the two-row product; each weight must depend on its own pair only.
        rng = make_rng(3)
        for n, d in ((13, 16), (57, 33)):
            values = rng.standard_normal((n, d))
            (w,) = graph_of(values).edge_weights
            for i in range(n):
                for j in range(n):
                    pair = pair_cosine(values[i], values[j])
                    assert w[i, j] == (0.0 if i == j else pair)

    def test_invariants(self):
        rng = make_rng(6)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            values = rng.standard_normal((n, 5))
            (w,) = graph_of(values).edge_weights
            assert w.shape == (n, n)
            assert np.array_equal(w, w.T)
            assert not np.diagonal(w).any()
            assert w.min() >= 0.0 and w.max() <= 1.0

    def test_invalid_configs(self):
        # "lsh" was never a metric; the other three are ones earlier versions offered.
        for metric in ("lsh", "correlation", "euclidean_rbf", "knn_cosine"):
            with pytest.raises(ConfigError, match=f"unknown similarity metric '{metric}'"):
                SimilarityConfig(metric=metric)


class TestBuildGraph:
    def test_singleton_graph(self):
        g = graph_of([[1.0, 2.0]])
        assert g.sizes.tolist() == [1]
        assert g.edge_weights.shape == (1, 1, 1)
        assert g.edge_weights[0, 0, 0] == 0.0

    def test_identical_frames_fully_connected(self):
        g = graph_of([[1.0, 1.0]] * 4)
        off_diag = g.edge_weights[0][~np.eye(4, dtype=bool)]
        assert (off_diag == 1.0).all()

    def test_invariant_enforcement(self):
        with pytest.raises(ValueError, match="symmetric"):
            SegmentGraph(np.ones((2, 2)), np.array([[0.0, 0.5], [0.4, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            SegmentGraph(np.ones((2, 2)), np.array([[0.1, 0.5], [0.5, 0.0]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SegmentGraph(np.ones((2, 2)), np.array([[0.0, 1.5], [1.5, 0.0]]))

    @pytest.mark.parametrize(
        "weights",
        [
            [[0.0, np.nan], [np.nan, 0.0]],
            [[np.nan, 0.5], [0.5, 0.0]],
            [[0.0, np.inf], [np.inf, 0.0]],
        ],
        ids=["nan-off-diagonal", "nan-on-diagonal", "inf"],
    )
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="edge weights must be finite"):
            SegmentGraph(np.ones((2, 2)), np.array(weights))

    def test_separable_segment_cluster_weights(self):
        # Intra-cluster similarity must dominate the normal-abnormal one.
        cfg = SynthConfig(
            segment_count=4,
            mean_segment_len=20,
            feature_dim=8,
            abnormal_segment_fraction=0.5,
            abnormal_frame_fraction=0.3,
            cluster_spread=0.1,
            abnormal_offset_norm=10.0,
            seed=13,
        )
        features, ann, partition = synth_video(cfg)
        seg_labels = derive_segment_labels(ann, partition)
        checked = 0
        for (s, e), label in zip(partition.spans(), seg_labels):
            if label == 0:
                continue
            (w,) = graph_of(features.values[s:e]).edge_weights
            marks = ann.frame_labels[s:e].astype(bool)
            normal = ~marks
            within = w[np.ix_(normal, normal)]
            across = w[np.ix_(normal, marks)]
            within_mean = within[~np.eye(normal.sum(), dtype=bool)].mean()
            assert within_mean > across.mean()
            checked += 1
        assert checked == 2

    def test_build_segment_graphs_labels(self):
        rng = make_rng(8)
        features = fm(rng.standard_normal((10, 3)))
        ann = Annotations("v", frame_labels=np.array([0] * 5 + [1] + [0] * 4))
        partition = Partition((0, 5, 10))
        graphs = build_segment_graphs(features, partition.spans())
        assert derive_segment_labels(ann, partition).tolist() == [0, 1]
        assert [s for s, _ in partition.spans()] == [0, 5]
        assert len(graphs) == 2 and graphs.sizes.tolist() == [5, 5]
        for b, (s, e) in enumerate(partition.spans()):
            assert np.array_equal(graphs.node_features[b], features.values[s:e])


class TestBatchedBuild:
    @staticmethod
    def video_and_partition():
        """Sizes 1, 2, 3 and 70, some repeated, and more ten-frame segments than one chunk holds."""
        tens = BATCH_CELLS // 10**2 + 5
        lengths = [10, 1, 2, 10, 3, 70, 2, 1, 3] + [10] * tens + [70, 2]
        rng = make_rng(9)
        values = rng.standard_normal((sum(lengths), 4))
        values[[0, 4, 10]] = 0.0  # zero-norm frames, two in a ten-frame segment and a lone one
        values[[14, 15, 16]] = values[17]  # duplicate frames in a ten-frame segment
        values[12] = values[11]  # a two-frame segment of one frame twice
        values[24:26] = values[23]  # a three-frame segment of one frame
        return FeatureMatrix("v", values), Partition(tuple(np.cumsum([0] + lengths).tolist()))

    def test_bit_identical_to_one_segment_builds(self):
        features, partition = self.video_and_partition()
        graphs = video_graphs(features, partition.spans())
        assert len(graphs) == partition.segment_count
        for (h, w), (s, e) in zip(graphs, partition.spans()):
            alone = graph_of(features.values[s:e])
            assert w.tobytes() == alone.edge_weights[0].tobytes()
            assert h.tobytes() == alone.node_features[0].tobytes()
            # the benchmark's graph sample builds with build_graph, which must agree
            sample = build_graph(FeatureMatrix("v", features.values[s:e]), SimilarityConfig())
            assert w.tobytes() == sample.edge_weights.tobytes()

    def test_any_spans_build_as_in_the_whole_video(self):
        """A subset of a partition's spans, out of order, gets the whole-video build's graphs."""
        features, partition = self.video_and_partition()
        spans = partition.spans()
        whole = video_graphs(features, spans)
        picked = [7, 0, 5, 20, 3]
        some = video_graphs(features, [spans[i] for i in picked])
        for i, (h, w) in zip(picked, some, strict=True):
            assert w.tobytes() == whole[i][1].tobytes()
            assert h.tobytes() == whole[i][0].tobytes()

    def test_one_batch_per_size_chunk_unpadded(self):
        features, partition = self.video_and_partition()
        spans = partition.spans()
        for chunk in size_chunks([e - s for s, e in spans]):
            batch = build_segment_graphs(features, [spans[i] for i in chunk])
            n = spans[chunk[0]][1] - spans[chunk[0]][0]
            assert len(batch) == len(chunk) and batch.sizes.tolist() == [n] * len(chunk)
            assert batch.node_features.shape == (len(chunk), n, 4)
            assert batch.edge_weights.shape == (len(chunk), n, n)
            for i, g in zip(chunk, batch, strict=True):
                s, e = spans[i]
                assert np.array_equal(g.node_features, features.values[s:e])
                assert np.shares_memory(g.edge_weights, batch.edge_weights)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match=r"span \[4, 7\) is not 4 frames long"):
            build_segment_graphs(fm(np.ones((10, 2))), [(0, 4), (4, 7)])
        with pytest.raises(ValueError, match="at least one span"):
            build_segment_graphs(fm(np.ones((10, 2))), [])

    @pytest.mark.parametrize("span", [(-1, 3), (4, 4), (6, 5), (8, 11)],
                             ids=["negative-start", "empty", "reversed", "past-the-end"])
    def test_span_outside_the_video_raises(self, span):
        with pytest.raises(ValueError, match="lies outside the video's 10 frames"):
            build_segment_graphs(fm(np.ones((10, 2))), [(0, 4), span])


def mean_reference(edges, h):
    """(edges @ h) / degree per row, and 0 for a row without edges: the mean message."""
    degree = edges.sum(axis=1)
    want = np.zeros((edges.shape[0], h.shape[1]))
    want[degree > 0] = (edges @ h)[degree > 0] / degree[degree > 0, None]
    return want


class TestMeanOperator:
    """Each built graph's D^-1 A: its edges with each row divided by the row's sum."""

    def test_messages_match_the_divided_neighbor_sums(self):
        rng = make_rng(46)
        for n in [1, 1, *rng.integers(2, 12, size=40).tolist()]:
            g = graph_of(rng.standard_normal((n, int(rng.integers(2, 6)))))
            (edges,), (means,) = g.edge_weights, g.mean_weights
            h = rng.standard_normal((n, 4))
            want = mean_reference(edges, h)
            scale = np.abs(means) @ np.abs(h)
            assert (np.abs(means @ h - want) <= 1e-15 * scale).all(), n

    def test_single_node_and_zero_norm_rows_give_zero_messages(self):
        h = make_rng(47).standard_normal((4, 3))
        (lone,) = graph_of([[1.0, -2.0]]).mean_weights
        assert lone.tolist() == [[0.0]]
        # frame 1 has zero norm, frames 2 and 3 point opposite ways from frame 0
        g = graph_of([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [2.0, 1.0]])
        (edges,), (means,) = g.edge_weights, g.mean_weights
        assert not edges[1].any() and not edges[2].any()
        assert not means[1].any() and not means[2].any()
        messages = means @ h
        assert not messages[1].any() and not messages[2].any()
        assert np.allclose(messages, mean_reference(edges, h), rtol=1e-15, atol=0)
        assert means[0, 3] == means[3, 0] == 1.0  # a node with one neighbor copies it

    def test_one_graph_batch_has_the_bits_of_its_unpadded_chunk(self):
        features, partition = TestBatchedBuild.video_and_partition()
        spans = partition.spans()
        rows = map_size_chunks(spans, lambda chunk: build_segment_graphs(features, chunk).rows())
        for (batch, b), (s, e) in zip(rows, spans, strict=True):
            (alone,) = graph_of(features.values[s:e]).mean_weights
            assert batch.mean_weights[b].tobytes() == alone.tobytes()


class TestIdenticalFrames:
    """The Gram-candidate check gives the bits of a full frame-by-frame comparison."""

    @staticmethod
    def segments():
        # (B, n, d) segments with planted duplicates, frames one ulp from a
        # neighbour and zero frames.
        rng = make_rng(41)
        values = rng.standard_normal((6, 9, 5))
        values[:, 3] = values[:, 1]
        values[:, 8] = values[:, 1]
        values[:, 4] = np.nextafter(values[:, 2], np.inf)
        values[1:3, 5] = 0.0
        values[2, 6] = 0.0
        values[3, 7] = -values[3, 0]
        values[4] = values[4, 0]  # a segment of one repeated frame
        values[5, :, 0] = np.nextafter(values[5, 0, 0], -np.inf)
        return values

    @staticmethod
    def full_check(values, gram, diagonals):
        return (values[:, :, None] == values[:, None]).all(axis=3)

    def test_mask_equals_the_full_comparison(self):
        values = self.segments()
        gram = np.einsum("bik,bjk->bij", values, values)
        diagonals = np.diagonal(gram, axis1=1, axis2=2)
        got = graph._identical_frames(values, gram, diagonals)
        want = self.full_check(values, gram, diagonals)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert want[:, 1, 3].all() and want[4].all() and not want[0, 2, 4]

    def test_weights_equal_those_of_the_full_comparison(self, monkeypatch):
        values = self.segments()
        got = graph._similarity_batch(values)
        monkeypatch.setattr(graph, "_identical_frames", self.full_check)
        want = graph._similarity_batch(values)
        assert got.tobytes() == want.tobytes()

    def test_repeated_frames_stay_within_the_full_comparisons_memory(self, monkeypatch):
        # Nearly every pair of a segment of one repeated frame is a candidate.
        n, d = 300, 16
        rng = make_rng(43)
        values = np.repeat(rng.standard_normal((1, 1, d)), n, axis=1)
        values[0, ::7] = rng.standard_normal((len(range(0, n, 7)), d))
        tracemalloc.start()
        got = graph._similarity_batch(values)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # The full comparison's (n, n, d) bool tensor and six (n, n) floats.
        assert peak <= (d + 6 * 8) * n * n
        monkeypatch.setattr(graph, "_identical_frames", self.full_check)
        assert got.tobytes() == graph._similarity_batch(values).tobytes()


class TestGraphBatch:
    def test_pack_pads_with_zeros_and_indexes_back_the_graphs(self):
        """pack gathers rows of built batches, in any order and of any sizes, zero-padded."""
        features = fm(make_rng(44).standard_normal((20, 3)))
        threes = build_segment_graphs(features, [(0, 3), (10, 13)])
        rows = [threes.rows()[1], (build_segment_graphs(features, [(3, 4)]), 0),
                *build_segment_graphs(features, [(4, 9)]).rows(), (threes, 0)]
        assert threes.rows() == [(threes, 0), (threes, 1)]
        batch = GraphBatch.pack(rows)
        assert len(batch) == 4 and batch.sizes.tolist() == [3, 1, 5, 3]
        assert batch.node_features.shape == (4, 5, 3)
        assert batch.edge_weights.shape == batch.mean_weights.shape == (4, 5, 5)
        for b, ((built, row), (s, e), view) in enumerate(
            zip(rows, [(10, 13), (3, 4), (4, 9), (0, 3)], batch, strict=True)
        ):
            n = e - s
            assert np.array_equal(batch.node_features[b, :n], features.values[s:e])
            assert np.array_equal(batch.edge_weights[b, :n, :n], built.edge_weights[row])
            assert np.array_equal(batch.mean_weights[b, :n, :n], built.mean_weights[row])
            assert not batch.node_features[b, n:].any()
            for cells in (batch.edge_weights, batch.mean_weights):
                assert not cells[b, n:].any() and not cells[b, :, n:].any()
            # a view is the unpadded graph (the benchmark's tracer iterates a batch)
            assert np.array_equal(view.node_features, features.values[s:e])
            assert np.array_equal(view.edge_weights, built.edge_weights[row])
        assert batch[-1].n == 3
        with pytest.raises(IndexError):
            batch[4]
        # rows of a padded batch gather back to the same arrays
        again = GraphBatch.pack(batch.rows())
        assert again.node_features.tobytes() == batch.node_features.tobytes()
        assert again.edge_weights.tobytes() == batch.edge_weights.tobytes()
        assert again.mean_weights.tobytes() == batch.mean_weights.tobytes()

    def test_store_holds_each_graphs_cells_not_the_largest_squared(self):
        """One 200-frame row and 100 five-frame rows: the store keeps sum n^2 cells,
        not 101 * 200^2."""
        features = fm(make_rng(49).standard_normal((700, 3)))
        long = build_segment_graphs(features, [(0, 200)])
        short = build_segment_graphs(features, [(200 + 5 * k, 205 + 5 * k) for k in range(100)])
        store = GraphRows(long.rows() + short.rows())
        assert store.sizes.tolist() == [200] + [5] * 100
        assert store.nodes.shape == (200 + 100 * 5 + 1, 3)
        assert store.edges.shape == store.means.shape == (200**2 + 100 * 5**2 + 1,)
        assert not store.nodes[-1].any() and store.edges[-1] == store.means[-1] == 0.0
        # short rows gather at their own size; with the long one they pad to 200
        shorts = store.gather(np.array([7, 3]))
        assert shorts.edge_weights.shape == (2, 5, 5)
        assert shorts.edge_weights.tobytes() == short.edge_weights[[6, 2]].tobytes()
        mixed = store.gather(np.array([5, 0]))
        assert mixed.edge_weights.shape == mixed.mean_weights.shape == (2, 200, 200)
        assert mixed.mean_weights[1].tobytes() == long.mean_weights[0].tobytes()
        assert mixed.mean_weights[0, :5, :5].tobytes() == short.mean_weights[4].tobytes()
        assert not mixed.mean_weights[0, 5:].any() and not mixed.mean_weights[0, :, 5:].any()
        assert mixed.node_features[0, :5].tobytes() == features.values[220:225].tobytes()
        assert not mixed.node_features[0, 5:].any()

    def test_pack_needs_a_graph(self):
        with pytest.raises(ValueError, match="at least one graph"):
            GraphBatch.pack([])

    def test_map_size_chunks_restores_span_order(self):
        spans = [(0, 2), (2, 5), (5, 7), (7, 8), (8, 11)]
        chunks = []

        def lengths(chunk):
            chunks.append(chunk)
            return [e - s for s, e in chunk]

        assert map_size_chunks(spans, lengths) == [2, 3, 2, 1, 3]
        assert chunks == [[(0, 2), (5, 7)], [(2, 5), (8, 11)], [(7, 8)]]
        with pytest.raises(ValueError):  # one item per span
            map_size_chunks(spans, lambda chunk: chunk[1:])
