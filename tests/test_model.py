import struct
import zlib

import numpy as np
import pytest

from cegl.errors import ConfigError, FormatError, NumericError, TruncatedFileError
from cegl.graph import GraphBatch, SegmentGraph, SimilarityConfig, build_graph
from cegl.dataio import FeatureMatrix
from cegl.model import (
    AGGREGATOR_KINDS,
    READOUT_KINDS,
    ModelConfig,
    ModelParams,
    TrainConfig,
    backward,
    forward,
    init_params,
    load_checkpoint,
    loss,
    param_shapes,
    save_checkpoint,
    sgd_step,
    train,
)
from cegl.numerics import make_rng
from gradcheck import check_gradients
from cegl.segmentation import SegmentationConfig


def random_graph(rng, n=None, d=None):
    n = n or int(rng.integers(2, 7))
    d = d or int(rng.integers(2, 6))
    values = rng.standard_normal((n, d))
    seg = FeatureMatrix("v", values)
    return build_graph(seg, SimilarityConfig())


def permute_graph(g, perm):
    return SegmentGraph(
        node_features=g.node_features[perm],
        edge_weights=g.edge_weights[np.ix_(perm, perm)],
    )


class TestInitParams:
    def test_deterministic(self):
        a = init_params(ModelConfig((4, 3, 2)), seed=5)
        b = init_params(ModelConfig((4, 3, 2)), seed=5)
        assert np.array_equal(a.vector, b.vector)

    def test_zero_scale_gives_half_probability(self):
        params = init_params(ModelConfig((3, 4, 4)), init_scale=0.0, seed=1)
        g = random_graph(make_rng(2), n=4, d=3)
        assert forward(GraphBatch.pack([g]), params).prediction[0] == 0.5

    def test_uniform_bounds(self):
        params = init_params(ModelConfig((8, 4, 4)), seed=3)
        for name, fan_in in [
            ("layer0.transform", 16),
            ("layer1.transform", 8),
            ("layer0.gate_update", 16),
            ("layer1.gate_candidate", 8),
            ("attention.transform", 4),
            ("attention.vector", 4),
            ("classifier.weights", 4),
        ]:
            assert np.abs(params.arrays[name]).max() < 1.0 / np.sqrt(fan_in)
        assert params.arrays["classifier.bias"].tolist() == [0.0]

    def test_table_holds_only_parameters_the_model_reads(self):
        for agg in AGGREGATOR_KINDS:
            for readout in READOUT_KINDS:
                params = init_params(ModelConfig((5, 4, 3), agg, readout, a_dim=2), seed=1)
                names = list(params.arrays)
                assert names == list(param_shapes(params.config))
                assert any("gate" in n for n in names) == (agg == "gated")
                assert any(n.startswith("attention.") for n in names) == (readout == "attention")
                for name, a in params.arrays.items():
                    assert a.shape == param_shapes(params.config)[name]

    def test_dropped_arrays_leave_seeded_draws_unchanged(self):
        full = init_params(ModelConfig((5, 4, 3), "gated", "attention"), seed=11, init_scale=1.5)
        for agg in AGGREGATOR_KINDS:
            for readout in READOUT_KINDS:
                params = init_params(ModelConfig((5, 4, 3), agg, readout), seed=11, init_scale=1.5)
                for name, a in params.arrays.items():
                    assert np.array_equal(a, full.arrays[name]), (agg, readout, name)

    def test_dropped_arrays_are_skipped_not_made(self):
        # A mean readout's attention table of 2**45 rows would be 768 TiB;
        # the generator steps over it instead of drawing it.
        small = init_params(ModelConfig((5, 4, 3), "mean", "mean", a_dim=2), seed=11)
        huge = init_params(ModelConfig((5, 4, 3), "mean", "mean", a_dim=2**45), seed=11)
        assert huge.vector.shape == small.vector.shape
        for name in ("layer0.transform", "layer1.transform"):
            assert np.array_equal(huge.arrays[name], small.arrays[name])

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    def test_mean_readout_init_ignores_a_dim(self, agg):
        # No array of a mean readout reads a_dim, so no a_dim moves its weights.
        vectors = [init_params(ModelConfig((5, 4, 3), agg, "mean", a_dim=a), seed=11).vector
                   for a in (None, 1, 2, 3, 2**45)]
        for vector in vectors[1:]:
            assert vector.tobytes() == vectors[0].tobytes()

    def test_invalid(self):
        with pytest.raises(ConfigError):
            ModelConfig((4, 0, 2))
        with pytest.raises(ConfigError):
            ModelConfig((4, 3), aggregator_kind="median")
        with pytest.raises(ConfigError):
            ModelConfig((4, 3), readout_kind="lstm")


class TestParamVector:
    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    @pytest.mark.parametrize("readout", READOUT_KINDS)
    def test_every_entry_is_a_view_of_the_vector_in_table_order(self, agg, readout):
        params = init_params(ModelConfig((5, 4, 3), agg, readout, a_dim=2), seed=1)
        g = random_graph(make_rng(3), d=5)
        grads = backward(forward(GraphBatch.pack([g]), params), [1], [1.0])
        for table in (params, grads):
            assert list(table.arrays) == list(param_shapes(params.config))
            offset = 0
            for name, a in table.arrays.items():
                assert np.shares_memory(a, table.vector), name
                assert np.array_equal(a.ravel(), table.vector[offset : offset + a.size]), name
                offset += a.size
            assert offset == table.vector.size

    def test_entries_cannot_be_rebound(self):
        params = init_params(ModelConfig((3, 4, 2)), seed=1)
        with pytest.raises(TypeError):
            params.arrays["classifier.bias"] = np.ones(1)
        params.arrays["classifier.bias"][...] = 2.0
        assert params.vector[-1] == 2.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda v: v[:-1],
            lambda v: np.append(v, 0.0),
            lambda v: v.astype(np.float32),
            lambda v: v.reshape(1, -1),
        ],
        ids=["short", "long", "float32", "2-d"],
    )
    def test_wrong_vector_rejected(self, make):
        params = init_params(ModelConfig((3, 4, 2)), seed=1)
        with pytest.raises(ValueError, match="float64 vector"):
            ModelParams(params.config, make(params.vector))


def scripted_gated(edge_w, h, update, reset, candidate):
    """Plain per-node sequential evaluation of the gated recurrence."""
    n, d = h.shape
    out = np.zeros_like(h)
    for i in range(n):
        state = h[i].copy()
        for j in range(n):
            if j == i:
                continue
            msg = edge_w[i, j] * h[j]
            gate_in = np.concatenate([state, msg])
            z = 1.0 / (1.0 + np.exp(-(update @ gate_in)))
            r = 1.0 / (1.0 + np.exp(-(reset @ gate_in)))
            cand = np.tanh(candidate @ np.concatenate([r * state, msg]))
            state = (1.0 - z) * state + z * cand
        out[i] = state
    return out


def layer0_messages(g, kind, **overrides):
    """Forward's first-layer messages: the aggregator applied to the raw features."""
    params = init_params(ModelConfig((g.feature_dim, 3), kind, "mean"), seed=1)
    for name, value in overrides.items():
        params.arrays[name][...] = value
    return forward(GraphBatch.pack([g]), params).stacked_inputs[0][0, :, g.feature_dim :]


def attention_params(h_dim, transform, vector, averaged=True):
    """One mean layer that passes positive features through unchanged, then attention."""
    params = init_params(ModelConfig((h_dim, h_dim), "mean", "attention", a_dim=len(vector),
                                     attention_averaged=averaged))
    params.arrays["layer0.transform"][...] = np.hstack([np.eye(h_dim), np.zeros((h_dim, h_dim))])
    params.arrays["attention.transform"][...] = np.asarray(transform, dtype=np.float64)
    params.arrays["attention.vector"][...] = np.asarray(vector, dtype=np.float64)
    return params


class TestAggregateNeighbors:
    def test_single_node_mean_zero(self):
        g = build_graph(FeatureMatrix("v", np.array([[1.0, -2.0]])), SimilarityConfig())
        assert np.array_equal(layer0_messages(g, "mean"), np.zeros((1, 2)))

    def test_single_node_gated_keeps_state(self):
        g = build_graph(FeatureMatrix("v", np.array([[1.0, -2.0]])), SimilarityConfig())
        update, reset, candidate = make_rng(1).standard_normal((3, 2, 4))
        out = layer0_messages(g, "gated", **{"layer0.gate_update": update,
                                             "layer0.gate_reset": reset,
                                             "layer0.gate_candidate": candidate})
        assert np.array_equal(out, g.node_features)

    def test_two_identical_nodes_mean(self):
        g = build_graph(FeatureMatrix("v", np.array([[1.0, 2.0], [1.0, 2.0]])), SimilarityConfig())
        out = layer0_messages(g, "mean")
        assert np.allclose(out[0], g.node_features[1], atol=1e-15)

    def test_mean_with_all_zero_edges(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])  # opposite, cosine clamps to 0
        g = build_graph(FeatureMatrix("v", feats), SimilarityConfig())
        assert g.edge_weights.sum() == 0.0
        assert np.array_equal(layer0_messages(g, "mean"), np.zeros((2, 2)))

    def test_gated_matches_scripted_recurrence(self):
        rng = make_rng(7)
        g = random_graph(rng, n=3, d=4)
        update, reset, candidate = (
            rng.standard_normal((4, 8)),
            rng.standard_normal((4, 8)),
            rng.standard_normal((4, 8)),
        )
        got = layer0_messages(g, "gated", **{"layer0.gate_update": update,
                                             "layer0.gate_reset": reset,
                                             "layer0.gate_candidate": candidate})
        want = scripted_gated(g.edge_weights, g.node_features, update, reset, candidate)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        # Node rows and the edge matrix must agree; the graph checks this
        # once, so no aggregator can see mismatched embeddings.
        g = random_graph(make_rng(9), n=3)
        with pytest.raises(ValueError):
            SegmentGraph(node_features=np.zeros((5, g.feature_dim)), edge_weights=g.edge_weights)


class TestLayerForward:
    def test_zero_weights_zero_output(self):
        g = random_graph(make_rng(10), n=3, d=4)
        params = init_params(ModelConfig((4, 5), "mean"), init_scale=0.0)
        cache = forward(GraphBatch.pack([g]), params)
        assert np.array_equal(cache.node_embeddings[1][0], np.zeros((3, 5)))

    def test_selector_of_self_half(self):
        g = build_graph(FeatureMatrix("v", np.abs(make_rng(11).standard_normal((3, 2))) + 0.5),
                        SimilarityConfig())
        params = init_params(ModelConfig((2, 2), "mean"))
        params.arrays["layer0.transform"][...] = np.hstack([np.eye(2), np.zeros((2, 2))])
        out = forward(GraphBatch.pack([g]), params).node_embeddings[1][0]
        assert np.allclose(out, g.node_features, atol=1e-15)

    def test_matches_direct_formula(self):
        rng = make_rng(12)
        g = random_graph(rng, n=4, d=3)
        params = init_params(ModelConfig((3, 5), "mean"))
        transform = rng.standard_normal((5, 6))
        params.arrays["layer0.transform"][...] = transform
        cache = forward(GraphBatch.pack([g]), params)
        msgs = cache.stacked_inputs[0][0, :, g.feature_dim :]
        for i in range(4):
            stacked = np.concatenate([g.node_features[i], msgs[i]])
            assert np.allclose(cache.node_embeddings[1][0, i],
                               np.maximum(transform @ stacked, 0.0), atol=1e-12)

    def test_preactivation_matches_triple_loop(self):
        rng = make_rng(11)
        g = random_graph(rng, n=3, d=2)
        params = init_params(ModelConfig((2, 2), "mean"), seed=4)
        cache = forward(GraphBatch.pack([g]), params)
        a, b = cache.stacked_inputs[0][0], params.arrays["layer0.transform"].T
        want = np.zeros((a.shape[0], b.shape[1]))
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                for k in range(a.shape[1]):
                    want[i, j] += a[i, k] * b[k, j]
        assert np.allclose(cache.preacts[0][0], want, rtol=0, atol=1e-12)


class TestAttentionReadout:
    def test_two_identical_nodes(self):
        g = build_graph(FeatureMatrix("v", np.array([[2.0, 2.0], [2.0, 2.0]])), SimilarityConfig())
        cache = forward(GraphBatch.pack([g]), attention_params(2, np.eye(2), np.ones(2)))
        assert np.allclose(cache.attention_weights[0], [0.5, 0.5], atol=1e-15)
        # literal 1/n factor: (1/2) * (0.5+0.5) * (2,2) = (1,1)
        assert np.allclose(cache.graph_embedding[0], [1.0, 1.0], atol=1e-15)

    def test_single_node(self):
        g = build_graph(FeatureMatrix("v", np.array([[3.0, 1.0]])), SimilarityConfig())
        cache = forward(GraphBatch.pack([g]), attention_params(2, np.eye(2), np.ones(2)))
        assert np.array_equal(cache.attention_weights[0], [1.0])
        assert np.allclose(cache.graph_embedding[0], [3.0, 1.0], atol=1e-15)

    def test_matches_scripted(self):
        rng = make_rng(13)
        g = random_graph(rng, n=4, d=3)
        wa = rng.standard_normal((2, 3))
        u = rng.standard_normal(2)
        params = init_params(ModelConfig((3, 3), "mean", "attention", a_dim=2), seed=2)
        params.arrays["attention.transform"][...] = wa
        params.arrays["attention.vector"][...] = u
        cache = forward(GraphBatch.pack([g]), params)
        h = cache.node_embeddings[-1][0]
        scores = np.array([u @ np.tanh(wa @ h[i]) for i in range(4)])
        e = np.exp(scores - scores.max())
        want_alpha = e / e.sum()
        want_hg = (want_alpha[:, None] * h).sum(axis=0) / 4
        assert np.allclose(cache.attention_weights[0], want_alpha, atol=1e-12)
        assert np.allclose(cache.graph_embedding[0], want_hg, atol=1e-12)
        assert cache.attention_weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestClassifyAndLoss:
    def test_zero_head(self):
        g = random_graph(make_rng(14), n=3, d=2)
        params = init_params(ModelConfig((2, 2)), init_scale=0.0)
        assert forward(GraphBatch.pack([g]), params).prediction[0] == 0.5

    def test_bias_only(self):
        g = random_graph(make_rng(14), n=3, d=2)
        params = init_params(ModelConfig((2, 2)), init_scale=0.0)
        params.arrays["classifier.bias"][0] = np.log(3.0)
        cache = forward(GraphBatch.pack([g]), params)
        assert np.array_equal(cache.graph_embedding[0], np.zeros(2))
        assert cache.prediction[0] == pytest.approx(0.75, abs=1e-15)

    def test_matches_manual_dot(self):
        rng = make_rng(14)
        params = init_params(ModelConfig((3, 4, 2)), seed=2)
        params.arrays["classifier.bias"][0] = 0.3
        cache = forward(GraphBatch.pack([random_graph(rng, d=3)]), params)
        h_g = cache.graph_embedding[0]
        w, b = params.arrays["classifier.weights"], params.arrays["classifier.bias"][0]
        want = 1.0 / (1.0 + np.exp(-(w @ h_g + b)))
        assert cache.prediction[0] == pytest.approx(want, abs=1e-15)

    def test_loss_values(self):
        assert loss(0.5, 0) == pytest.approx(np.log(2.0), abs=1e-12)
        assert loss(0.5, 1) == pytest.approx(np.log(2.0), abs=1e-12)
        assert loss(0.75, 1) == pytest.approx(-np.log(0.75), abs=1e-12)
        assert loss(1.0 - 1e-12, 1) < 1e-10
        assert np.isfinite(loss(0.0, 1))


class TestForward:
    def test_zero_params_half(self):
        g = random_graph(make_rng(15), n=4, d=3)
        for agg in AGGREGATOR_KINDS:
            for readout in READOUT_KINDS:
                params = init_params(ModelConfig((3, 4, 2), agg, readout), init_scale=0.0)
                assert forward(GraphBatch.pack([g]), params).prediction[0] == 0.5

    def test_single_node_graph_all_kinds(self):
        g = build_graph(FeatureMatrix("v", np.array([[0.5, -1.5, 2.0]])), SimilarityConfig())
        for agg in AGGREGATOR_KINDS:
            for readout in READOUT_KINDS:
                params = init_params(ModelConfig((3, 4, 2), agg, readout), seed=4)
                cache = forward(GraphBatch.pack([g]), params)
                assert 0.0 < cache.prediction[0] < 1.0

    def test_matches_scripted_three_node_mean_attention(self):
        rng = make_rng(16)
        g = random_graph(rng, n=3, d=3)
        params = init_params(ModelConfig((3, 4, 2), "mean", "attention"), seed=6)

        h = g.node_features
        w = g.edge_weights
        for transform in (params.arrays["layer0.transform"], params.arrays["layer1.transform"]):
            deg = w.sum(axis=1)
            msgs = np.where(deg[:, None] > 0, (w @ h) / np.maximum(deg, 1e-300)[:, None], 0.0)
            h = np.maximum(np.hstack([h, msgs]) @ transform.T, 0.0)
        a = params.arrays
        scores = np.tanh(h @ a["attention.transform"].T) @ a["attention.vector"]
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        h_g = (alpha[:, None] * h).sum(axis=0) / 3
        want = 1.0 / (1.0 + np.exp(-(a["classifier.weights"] @ h_g + a["classifier.bias"][0])))

        prediction = forward(GraphBatch.pack([g]), params).prediction[0]
        assert prediction == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch(self):
        g = random_graph(make_rng(17), n=3, d=4)
        with pytest.raises(ValueError):
            forward(GraphBatch.pack([g]), init_params(ModelConfig((3, 4, 2))))


class TestBackward:
    def test_bias_gradient_is_residual(self):
        rng = make_rng(18)
        g = random_graph(rng, n=4, d=3)
        params = init_params(ModelConfig((3, 4, 2), "mean", "attention"), seed=7)
        cache = forward(GraphBatch.pack([g]), params)
        grads = backward(cache, [1], [1.0])
        assert grads.arrays["classifier.bias"].tolist() == [cache.prediction[0] - 1]

    def test_unused_gate_branch_gets_zero_gradient(self):
        # A mean model has no gate weights, so there is no gate gradient
        # at all; the gradient table mirrors the parameter table.
        g = random_graph(make_rng(19), n=4, d=3)
        params = init_params(ModelConfig((3, 4, 2), "mean", "attention"), seed=8)
        grads = backward(forward(GraphBatch.pack([g]), params), [0], [1.0])
        assert list(grads.arrays) == list(params.arrays)
        assert not any("gate" in name for name in grads.arrays)

    def test_unused_attention_branch_gets_zero_gradient(self):
        g = random_graph(make_rng(20), n=4, d=3)
        params = init_params(ModelConfig((3, 4, 2), "mean", "mean"), seed=9)
        grads = backward(forward(GraphBatch.pack([g]), params), [0], [1.0])
        assert list(grads.arrays) == list(params.arrays)
        assert not any(name.startswith("attention.") for name in grads.arrays)

    def test_label_count_must_match_batch(self):
        # backward reads graphs and params from the cache, so the only
        # pairing it can get wrong is labels or weights for another batch.
        rng = make_rng(21)
        params = init_params(ModelConfig((3, 4, 2)))
        graphs = [random_graph(rng, n=3, d=3), random_graph(rng, n=3, d=3)]
        cache = forward(GraphBatch.pack(graphs), params)
        with pytest.raises(ValueError, match="one label and one weight"):
            backward(cache, [1], [1.0])
        with pytest.raises(ValueError, match="one label and one weight"):
            backward(cache, [1, 0], [1.0])

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    def test_unrecorded_cache_rejected(self, agg):
        g = random_graph(make_rng(22), n=5, d=3)
        params = init_params(ModelConfig((3, 4, 2), agg, "attention"), seed=10)
        cache = forward(GraphBatch.pack([g]), params, record=False)
        assert cache.prediction[0] == forward(GraphBatch.pack([g]), params).prediction[0]
        if agg == "gated":
            assert cache.gated_steps == [None, None]
        with pytest.raises(ValueError, match="record=True"):
            backward(cache, [1], [1.0])

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    @pytest.mark.parametrize("readout", READOUT_KINDS)
    def test_gradients_match_finite_differences(self, agg, readout):
        seed = zlib.crc32(f"{agg}/{readout}".encode())
        rng = make_rng(seed)
        for trial in range(3):
            g = random_graph(rng)
            dims = (g.feature_dim, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            params = init_params(
                ModelConfig(dims, agg, readout), seed=int(rng.integers(0, 1000))
            )
            check_gradients([g], params, [trial % 2])

    def test_gradients_with_unaveraged_attention(self):
        rng = make_rng(77)
        for trial in range(3):
            g = random_graph(rng)
            params = init_params(
                ModelConfig((g.feature_dim, 4, 3), "mean", "attention", attention_averaged=False),
                seed=int(rng.integers(0, 1000)),
            )
            check_gradients([g], params, [trial % 2])


class TestBatchedPass:
    """A padded batch against one-graph passes, which need no padding."""

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    @pytest.mark.parametrize("readout", READOUT_KINDS)
    def test_gradients_equal_sum_of_one_graph_backwards(self, agg, readout):
        rng = make_rng(zlib.crc32(f"batch/{agg}/{readout}".encode()))
        for _ in range(3):
            # mixed sizes with a lone node, in a random position
            graphs = [random_graph(rng, n=int(n), d=3) for n in rng.permutation([1, 2, 3, 5, 7])]
            labels = rng.integers(0, 2, size=len(graphs))
            weights = rng.uniform(0.1, 2.0, size=len(graphs))
            params = init_params(
                ModelConfig((3, 5, 4), agg, readout), seed=int(rng.integers(0, 1000))
            )
            batched = backward(forward(GraphBatch.pack(graphs), params), labels, weights)
            parts = [
                backward(forward(GraphBatch.pack([g]), params), [y], [w])
                for g, y, w in zip(graphs, labels, weights)
            ]
            got = batched.vector
            want = sum(part.vector for part in parts)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    @pytest.mark.parametrize("readout", READOUT_KINDS)
    def test_padded_batch_matches_finite_differences(self, agg, readout):
        rng = make_rng(zlib.crc32(f"padded/{agg}/{readout}".encode()))
        graphs = [random_graph(rng, n=n, d=3) for n in (4, 1, 6, 2)]
        params = init_params(ModelConfig((3, 4, 3), agg, readout), seed=int(rng.integers(0, 1000)))
        check_gradients(graphs, params, [1, 0, 1, 0], rng.uniform(0.1, 2.0, size=4))

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    def test_larger_graph_leaves_other_predictions_unchanged(self, agg):
        rng = make_rng(zlib.crc32(f"grow/{agg}".encode()))
        graphs = [random_graph(rng, n=n, d=3) for n in (3, 1, 4)]
        larger = random_graph(rng, n=9, d=3)
        for readout in READOUT_KINDS:
            params = init_params(ModelConfig((3, 5, 4), agg, readout), seed=3)
            alone = [forward(GraphBatch.pack([g]), params).prediction[0] for g in graphs]
            batched = forward(GraphBatch.pack(graphs), params).prediction
            grown = forward(GraphBatch.pack(graphs + [larger]), params).prediction
            assert np.allclose(batched, alone, rtol=0, atol=1e-12), readout
            assert np.allclose(grown[:3], alone, rtol=0, atol=1e-12), readout

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one graph"):
            forward(GraphBatch.pack([]), init_params(ModelConfig((3, 4, 2))))


class TestSgdStep:
    def test_zero_lr_keeps_params(self):
        params = init_params(ModelConfig((3, 4, 2)), seed=1)
        g = random_graph(make_rng(22), n=3, d=3)
        grads = backward(forward(GraphBatch.pack([g]), params), [1], [1.0])
        updated = sgd_step(params, grads, 0.0)
        assert np.array_equal(updated.vector, params.vector)

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    def test_bit_equal_to_per_entry_update(self, agg):
        params = init_params(ModelConfig((3, 4, 2), agg, "attention"), seed=2)
        graphs = [random_graph(make_rng(4), n=n, d=3) for n in (2, 5)]
        grads = backward(forward(GraphBatch.pack(graphs), params), [1, 0], [0.7, 1.3])
        before = params.vector.copy()
        updated = sgd_step(params, grads, 0.03)
        for name, w in params.arrays.items():
            want = w - 0.03 * grads.arrays[name]
            assert updated.arrays[name].tobytes() == want.tobytes(), name
        # a new vector: the cache that made grads still holds the old params
        assert params.vector.tobytes() == before.tobytes()

    def test_scalar_arithmetic(self):
        params = init_params(ModelConfig((2, 1)), init_scale=0.0)
        params.arrays["classifier.bias"][0] = 1.0
        grads = ModelParams(params.config, np.zeros_like(params.vector))
        grads.arrays["classifier.bias"][0] = 2.0
        assert sgd_step(params, grads, 0.1).arrays["classifier.bias"][0] == pytest.approx(0.8)

    def test_converges_on_quadratic(self):
        # minimize (b - 3)^2 through the bias alone
        params = init_params(ModelConfig((2, 1)), init_scale=0.0)
        for _ in range(200):
            grads = ModelParams(params.config, np.zeros_like(params.vector))
            grads.arrays["classifier.bias"][...] = 2.0 * (params.arrays["classifier.bias"] - 3.0)
            params = sgd_step(params, grads, 0.1)
        assert params.arrays["classifier.bias"][0] == pytest.approx(3.0, abs=1e-8)

    def test_nonfinite_gradient_aborts(self):
        params = init_params(ModelConfig((3, 4, 2)))
        grads = ModelParams(params.config, np.zeros_like(params.vector))
        grads.arrays["classifier.weights"][0] = np.nan
        with pytest.raises(NumericError):
            sgd_step(params, grads, 0.1)


def toy_training_set():
    a = build_graph(FeatureMatrix("a", np.array([[2.0, 0.0]] * 3)), SimilarityConfig())
    b = build_graph(FeatureMatrix("b", np.array([[0.0, 2.0]] * 3)), SimilarityConfig())
    return [(a, 1), (b, 0)]


class TestTrain:
    def test_loss_decreases_on_separable_toy(self):
        graphs = toy_training_set()
        params = init_params(ModelConfig((2, 4, 3), "mean", "attention"), seed=3)
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, epochs=12, seed=1)
        _, history = train(graphs, params, cfg)
        for earlier, later in zip(history[:10], history[1:11]):
            assert later < earlier

    def test_deterministic(self):
        graphs = toy_training_set()
        cfg = TrainConfig(learning_rate=0.05, batch_size=1, epochs=5, seed=9)
        out1, hist1 = train(graphs, init_params(ModelConfig((2, 4, 3)), seed=3), cfg)
        out2, hist2 = train(graphs, init_params(ModelConfig((2, 4, 3)), seed=3), cfg)
        assert np.array_equal(out1.vector, out2.vector)
        assert hist1 == hist2

    def test_epochs_zero_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_feature_dim_mismatch(self):
        g1 = build_graph(FeatureMatrix("a", np.ones((2, 2))), SimilarityConfig())
        g2 = build_graph(FeatureMatrix("b", np.ones((2, 3))), SimilarityConfig())
        params = init_params(ModelConfig((2, 3, 2)))
        with pytest.raises(ConfigError):
            train([(g1, 0), (g2, 1)], params, TrainConfig(epochs=1))

    def test_single_class_warns(self, caplog):
        g = build_graph(FeatureMatrix("a", np.ones((2, 2))), SimilarityConfig())
        params = init_params(ModelConfig((2, 3, 2)))
        with caplog.at_level("WARNING"):
            train([(g, 1), (g, 1)], params, TrainConfig(epochs=1))
        assert any("single class" in r.message for r in caplog.records)

    def test_class_weighting_runs(self):
        graphs = toy_training_set() + [toy_training_set()[0]]
        params = init_params(ModelConfig((2, 4, 3)), seed=3)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=1, class_weighting=True)
        _, history = train(graphs, params, cfg)
        assert len(history) == 2


class TestPermutationProperties:
    def test_mean_permutation_invariant(self):
        rng = make_rng(23)
        for readout in READOUT_KINDS:
            for _ in range(5):
                g = random_graph(rng)
                params = init_params(ModelConfig((g.feature_dim, 5, 4), "mean", readout), seed=11)
                base = forward(GraphBatch.pack([g]), params).prediction[0]
                perm = rng.permutation(g.n)
                permuted = forward(GraphBatch.pack([permute_graph(g, perm)]), params).prediction[0]
                assert abs(base - permuted) <= 1e-9

    def test_gated_is_bitwise_reproducible(self):
        rng = make_rng(24)
        g = random_graph(rng, n=5, d=4)
        params = init_params(ModelConfig((4, 5, 4), "gated", "attention"), seed=12)
        runs = {forward(GraphBatch.pack([g]), params).prediction[0] for _ in range(5)}
        assert len(runs) == 1

    def test_zero_edges_zero_mean_messages(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        g = build_graph(FeatureMatrix("v", feats), SimilarityConfig())
        # orthogonal/opposite directions leave only clamped zero edges
        assert g.edge_weights.max() == 0.0
        msgs = layer0_messages(g, "mean")
        assert np.array_equal(msgs, np.zeros_like(feats))


def save_with_defaults(params, path):
    save_checkpoint(params, path, similarity=SimilarityConfig(), segmentation=SegmentationConfig())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(
            ModelConfig((5, 6, 4), "gated", "attention", a_dim=3, attention_averaged=False),
            seed=21,
        )
        sim = SimilarityConfig(metric="cosine")
        seg = SegmentationConfig(penalty=None, min_len=3)
        path = tmp_path / "m.cegm"
        save_checkpoint(params, path, similarity=sim, segmentation=seg)
        loaded, sim_back, seg_back = load_checkpoint(path)
        assert list(loaded.arrays) == list(params.arrays)
        assert np.array_equal(loaded.vector, params.vector)
        assert loaded.config.layer_dims == params.config.layer_dims
        assert loaded.config.aggregator_kind == "gated"
        assert loaded.config.readout_kind == "attention"
        assert loaded.config.a_dim == 3
        assert loaded.config.attention_averaged is False
        assert sim_back == sim
        assert seg_back == seg

    def test_payload_is_the_vector(self, tmp_path):
        params = init_params(ModelConfig((5, 6, 4), "gated", "attention"), seed=3)
        path = tmp_path / "m.cegm"
        save_with_defaults(params, path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        assert raw[12 + header_len :] == params.vector.astype("<f8").tobytes()

    def test_numpy_int_dims_save_as_json_ints(self, tmp_path):
        # A feature dim read off an array is a numpy integer; the header is JSON.
        config = ModelConfig((np.int64(3), 4, 2), "mean", "attention")
        assert all(type(d) is int for d in (*config.layer_dims, config.a_dim))
        path = tmp_path / "m.cegm"
        save_with_defaults(init_params(config, seed=1), path)
        assert load_checkpoint(path)[0].config == ModelConfig((3, 4, 2), "mean", "attention")

    def test_corrupted_magic(self, tmp_path):
        params = init_params(ModelConfig((3, 3, 2)), seed=1)
        path = tmp_path / "m.cegm"
        save_with_defaults(params, path)
        bad = tmp_path / "bad.cegm"
        bad.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(bad)

    def test_truncated(self, tmp_path):
        params = init_params(ModelConfig((3, 3, 2)), seed=1)
        path = tmp_path / "m.cegm"
        save_with_defaults(params, path)
        trunc = tmp_path / "t.cegm"
        trunc.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(trunc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.cegm")


def test_full_model_loss_gradient_on_four_node_graph():
    # The finite-difference checker applied to the whole pipeline loss.
    rng = make_rng(25)
    g = random_graph(rng, n=4, d=3)
    params = init_params(ModelConfig((3, 4, 3), "gated", "attention"), seed=13)
    check_gradients([g], params, [1])
