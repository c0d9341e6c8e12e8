import numpy as np
import pytest

from cegl import cli, graph, localization, metrics
from cegl.dataio import Annotations, FeatureMatrix
from cegl.graph import BATCH_NODES, map_size_chunks
from cegl.localization import node_scores, rank_frames, score_segments, topk_select
from cegl.model import ModelConfig, forward, init_params
from cegl.numerics import make_rng
from cegl.segmentation import Partition
from built_graphs import graph_of, padded
from forward_calls import (
    assert_each_segment_scored_once,
    record_forward_calls,
    record_graph_builds,
)


class TestNodeScores:
    def test_identical_nodes_equal_scores(self):
        g = graph_of([[1.0, 2.0]] * 4)
        params = init_params(ModelConfig((2, 3, 2)), seed=1)
        (scores,) = node_scores(forward(g, params))
        assert np.allclose(scores, scores[0], atol=1e-12)

    def test_constant_head_reduces_to_attention(self):
        rng = make_rng(2)
        g = graph_of(rng.standard_normal((5, 3)))
        params = init_params(ModelConfig((3, 4, 2), "mean", "attention"), seed=3)
        params.arrays["classifier.weights"][:] = 0.0
        params.arrays["classifier.bias"][:] = 0.0
        cache = forward(g, params)
        assert np.allclose(node_scores(cache)[0], 0.5 * cache.attention_weights[0], atol=1e-15)

    def test_uniform_attention_for_non_attention_readout(self):
        rng = make_rng(3)
        g = graph_of(rng.standard_normal((4, 3)))
        params = init_params(ModelConfig((3, 4, 2), "mean", "mean"), seed=4)
        (scores,) = node_scores(forward(g, params))
        assert scores.shape == (4,)
        assert (scores > 0).all() and (scores < 1).all()

    def test_deterministic(self):
        rng = make_rng(4)
        g = graph_of(rng.standard_normal((6, 4)))
        params = init_params(ModelConfig((4, 5, 3), "gated", "attention"), seed=5)
        (a,) = node_scores(forward(g, params))
        (b,) = node_scores(forward(g, params))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("readout", ["attention", "mean"])
    def test_padded_batch_matches_one_graph_passes(self, readout):
        rng = make_rng(6)
        graphs = [graph_of(rng.standard_normal((n, 3))) for n in (4, 1, 7)]
        params = init_params(ModelConfig((3, 4, 2), "mean", readout), seed=7)
        batched = node_scores(forward(padded(graphs), params))
        assert batched.shape == (3, 7)
        for g, got in zip(graphs, batched):
            alone = node_scores(forward(g, params))[0]
            n = g.sizes[0]
            assert np.allclose(got[:n], alone, rtol=0, atol=1e-15)
            assert (got[n:] == 0.0).all()


class TestTopkSelect:
    def test_basic(self):
        assert topk_select(np.array([0.9, 0.1, 0.5]), 2).tolist() == [0, 2]

    def test_tie_breaks_toward_earlier_frame(self):
        assert topk_select(np.array([0.5, 0.5, 0.5]), 2).tolist() == [0, 1]

    def test_k_covers_everything(self):
        assert topk_select(np.array([0.3, 0.1]), 5).tolist() == [0, 1]

    def test_nested_in_k(self):
        rng = make_rng(5)
        for _ in range(20):
            scores = rng.uniform(size=int(rng.integers(1, 15)))
            previous: set[int] = set()
            for k in range(1, scores.size + 1):
                current = set(topk_select(scores, k).tolist())
                assert previous <= current
                previous = current

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("k", [1, 3, 7, 9])
    def test_matrix_rows_match_one_vector_calls(self, n, k):
        # Rows of few distinct values: ties within a row are the rule.
        scores = make_rng(n * 10 + k).integers(0, 3, size=(6, n)) / 4.0
        rows = topk_select(scores, k)
        assert rows.shape == (6, min(k, n))
        for row, got in zip(scores, rows):
            assert got.tolist() == topk_select(row, k).tolist()

    def test_rank_frames_orders_by_score_then_earlier_frame(self):
        assert rank_frames([0.5, 0.9, 0.5, 0.1]).tolist() == [1, 0, 2, 3]
        scores = np.array([[0.2, 0.7, 0.7], [0.0, 0.0, 0.3]])
        assert rank_frames(scores).tolist() == [[1, 2, 0], [2, 0, 1]]
        assert topk_select(scores, 2).tolist() == [[1, 2], [0, 2]]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            topk_select(np.array([]), 1)
        with pytest.raises(ValueError):
            topk_select(np.zeros((2, 2, 2)), 1)
        with pytest.raises(ValueError):
            topk_select(np.array([1.0]), 0)


def test_scored_frames_orders_a_chunks_scored_spans_in_video_frames(tmp_path, monkeypatch):
    """`cegl localize`'s per-chunk selection: one `topk_select` call over the scored spans'
    stacked scores, shifted by each span's start; a chunk with no scored span makes no call."""
    chunk = [(0, 3), (10, 13), (20, 23)]
    scored = [(0.9, np.array([0.1, 0.3, 0.2])), (0.2, None), (0.7, np.array([0.5, 0.5, 0.0]))]
    calls, selects = [], []

    def recording_topk_select(frames, k):
        calls.append(frames)
        return topk_select(frames, k)

    monkeypatch.setattr(cli, "topk_select", recording_topk_select)
    monkeypatch.setattr(cli, "_score_video", lambda args, frames, per_chunk: (
        selects.append(per_chunk) or ("v", [], [])))
    assert cli.main(["localize", "--model", "m", "--features", "f", "--partition", "p",
                     "--k", "2", "--out", str(tmp_path / "loc.json")]) == 0
    (select,) = selects
    assert [picked for *_, picked in select(chunk, scored)] == [[1, 2], [], [20, 21]]
    assert len(calls) == 1 and calls[0].tolist() == [[0.1, 0.3, 0.2], [0.5, 0.5, 0.0]]
    assert select(chunk, [(0.1, None)] * 3) == [(0.1, None, [])] * 3 and len(calls) == 1


def forty_segment_fixture(ranks_with_hits):
    """Synthetic 40-abnormal-segment video; each segment is 10 frames with
    one abnormal frame whose selection rank is given per segment."""
    n_seg = len(ranks_with_hits)
    frame_labels = np.zeros(10 * n_seg, dtype=np.int64)
    selections_by_k = {}
    for i, rank in enumerate(ranks_with_hits):
        base = 10 * i
        frame_labels[base + 0] = 1  # abnormal frame sits at local index 0
        # rank r means the abnormal frame enters the selection at k = r;
        # earlier picks hit only normal frames.
        order = [base + 1 + j for j in range(9)]
        order.insert(rank - 1, base + 0)
        selections_by_k[i] = order
    ann = Annotations("v", frame_labels=frame_labels)
    partition = Partition(tuple(range(0, 10 * n_seg + 1, 10)))
    return ann, partition, selections_by_k


def fixture_curve(ann, partition, orders, ks, scored=None):
    """coverage_curve of one video whose segment i ranks its frames as orders[i].

    Segment i gets descending frame scores along orders[i] if it is in
    `scored` (default: every segment), and no frame scores otherwise.
    """
    frame_scores = [None] * len(orders)
    for i in range(len(orders)) if scored is None else scored:
        start = partition.spans()[i][0]
        frame_scores[i] = np.empty(len(orders[i]))
        frame_scores[i][np.array(orders[i]) - start] = np.arange(len(orders[i]), 0, -1)
    return metrics.coverage_curve([(ann, partition, frame_scores)], ks)


class TestCoverage:
    def test_table_arithmetic_37_of_40(self):
        # 37 segments hit at k=1, 2 more at k=2, one not until k=10
        ranks = [1] * 37 + [2] * 2 + [10]
        curve = fixture_curve(*forty_segment_fixture(ranks), [1, 2, 9, 10])
        assert curve == [(1, 0.925), (2, 0.975), (9, 0.975), (10, 1.0)]

    def test_full_and_zero_coverage(self):
        assert fixture_curve(*forty_segment_fixture([1] * 4), [1]) == [(1, 1.0)]
        assert fixture_curve(*forty_segment_fixture([2] * 4), [1]) == [(1, 0.0)]

    def test_no_abnormal_segments_rejected(self):
        ann = Annotations("v", frame_labels=np.zeros(20, dtype=np.int64))
        partition = Partition((0, 10, 20))
        orders = [list(range(10)), list(range(10, 20))]
        with pytest.raises(ValueError, match="no abnormal segments"):
            fixture_curve(ann, partition, orders, [1, 2])

    def test_missing_selection_counts_as_miss(self):
        fixture = forty_segment_fixture([1, 1])
        assert fixture_curve(*fixture, [1, 10], scored=[0]) == [(1, 0.5), (10, 0.5)]

    def test_monotone_in_k_with_nested_selections(self):
        rng = make_rng(6)
        ranks = [int(r) for r in rng.integers(1, 11, size=12)]
        ks = [1, 2, 3, 5, 7, 9]
        curve = fixture_curve(*forty_segment_fixture(ranks), ks)
        values = [c for _, c in curve]
        assert values == sorted(values)
        assert curve == [(k, sum(r <= k for r in ranks) / 12) for k in ks]

    def test_counts_match_fraction(self):
        assert fixture_curve(*forty_segment_fixture([1, 2, 3]), [2]) == [(2, 2 / 3)]


class TestScoreSegments:
    @pytest.mark.parametrize("aggregator", ["mean", "gated"])
    @pytest.mark.parametrize("frames", ["none", "predicted", "all"])
    def test_equals_one_graph_forward_and_node_scores(self, aggregator, frames, monkeypatch):
        rng = make_rng(8)
        # Sizes repeat, 10 more often than one batch holds, and `lone` is
        # past the node count from which a segment runs alone.
        lone = BATCH_NODES // 2 + 1
        sizes = (4, 1, 7, 5, 6, 1, 5, 5, *[10] * (BATCH_NODES // 10 + 5), lone, 4, lone)
        offsets = np.cumsum((0, *sizes))
        features = FeatureMatrix("v", rng.standard_normal((offsets[-1], 3)))
        spans = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        graphs = [graph_of(features.values[s:e]) for s, e in spans]
        params = init_params(ModelConfig((3, 4, 2), aggregator, "attention"), seed=9)
        predictions = [forward(g, params).prediction[0] for g in graphs]
        # a bias at the median prediction's logit puts segments on both sides of 0.5
        params.arrays["classifier.bias"][0] -= np.log(np.median(predictions) /
                                                      (1 - np.median(predictions)))
        calls = record_forward_calls(monkeypatch, localization)
        built = record_graph_builds(monkeypatch, graph)
        scored = map_size_chunks(spans, lambda chunk: score_segments(
            graph.build_segment_graphs(features, chunk), params, frames))
        assert_each_segment_scored_once(calls, built, spans)
        assert max(map(len, calls)) == BATCH_NODES // 10
        assert len(scored) == len(graphs)
        predicted = []
        for g, (score, frame_scores) in zip(graphs, scored):
            cache = forward(g, params)
            assert score == cache.prediction[0]
            predicted.append(score >= 0.5)
            if frames == "all" or (frames == "predicted" and score >= 0.5):
                assert np.array_equal(frame_scores, node_scores(cache)[0])
            else:
                assert frame_scores is None
        assert any(predicted) and not all(predicted)

    @pytest.mark.parametrize("aggregator", ["mean", "gated"])
    def test_two_long_segments_share_a_pass_with_one_graph_bits(self, aggregator):
        """Two 200-frame segments are one size chunk, scored as each is alone."""
        features = FeatureMatrix("v", make_rng(12).standard_normal((400, 6)))
        spans = [(0, 200), (200, 400)]
        assert list(graph.size_chunks(spans)) == [[0, 1]]
        params = init_params(ModelConfig((6, 8, 4), aggregator, "attention"), seed=3)
        scored = score_segments(graph.build_segment_graphs(features, spans), params, "all")
        for (s, e), (score, frame_scores) in zip(spans, scored, strict=True):
            cache = forward(graph_of(features.values[s:e]), params, record=False)
            assert score == cache.prediction[0]
            assert frame_scores.tobytes() == node_scores(cache)[0].tobytes()

    def test_rejects_unknown_frames_mode(self):
        params = init_params(ModelConfig((2, 3, 2)), seed=1)
        with pytest.raises(ValueError, match="frames"):
            score_segments(graph_of([[1.0, 2.0]] * 3), params, "abnormal")
