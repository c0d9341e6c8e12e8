import struct
import zlib

import numpy as np
import pytest

from cegl.errors import ConfigError, FormatError, NumericError, TruncatedFileError
from cegl import model
from cegl.graph import GraphRows, SegmentGraph
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
from built_graphs import graph_of, padded
from forward_calls import record_forward_calls
from gradcheck import check_gradients
from cegl.segmentation import SegmentationConfig


def random_graph(rng, n=None, d=None):
    n = n or int(rng.integers(2, 7))
    d = d or int(rng.integers(2, 6))
    return graph_of(rng.standard_normal((n, d)))


def permute_graph(g, perm):
    """g rebuilt from its frames in `perm` order; its edges are exactly g's, permuted."""
    permuted = graph_of(g.node_features[0, perm])
    assert np.array_equal(permuted.edge_weights[0], g.edge_weights[0][np.ix_(perm, perm)])
    return permuted


class TestInitParams:
    def test_deterministic(self):
        a = init_params(ModelConfig((4, 3, 2)), seed=5)
        b = init_params(ModelConfig((4, 3, 2)), seed=5)
        assert np.array_equal(a.vector, b.vector)

    def test_zero_scale_gives_half_probability(self):
        params = init_params(ModelConfig((3, 4, 4)), init_scale=0.0, seed=1)
        g = random_graph(make_rng(2), n=4, d=3)
        assert forward(g, params).prediction[0] == 0.5

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
                assert any(n.startswith("attention.") for n in names)
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
        # A mean model's layer-0 gate tables at 2**18 input features would
        # hold 3 * 2**37 doubles (3 TiB); the generator steps over them
        # instead of drawing them.
        params = init_params(ModelConfig((2**18, 1, 1), "mean"), seed=11)
        assert {k: a.shape for k, a in params.arrays.items()} == param_shapes(params.config)
        assert params.vector.size == 2**19 + 6

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
        grads = backward(forward(g, params), [1], [1.0])
        for table in (params, grads):
            assert list(table.arrays) == list(param_shapes(params.config))
            offset = 0
            for name, a in table.arrays.items():
                assert np.shares_memory(a, table.vector), name
                assert np.array_equal(a.ravel(), table.vector[offset : offset + a.size]), name
                offset += a.size
            assert offset == table.vector.size

    def test_mean_and_gated_models_do_not_share_a_layout(self):
        mean, gated = ModelConfig((5, 4, 3), "mean"), ModelConfig((5, 4, 3), "gated")
        assert model._layout(mean) != model._layout(gated)
        for config in (mean, gated, mean, gated):  # the second time from the cache
            params = init_params(config, seed=1)
            assert {k: a.shape for k, a in params.arrays.items()} == param_shapes(config)
            assert params.vector.size == sum(a.size for a in params.arrays.values())

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    def test_every_view_writes_through_to_the_vector(self, agg):
        params = init_params(ModelConfig((3, 4, 2), agg), seed=1)
        again = ModelParams(params.config, np.zeros_like(params.vector))
        for k, a in enumerate(again.arrays.values()):
            a[...] = k + 1.0
        sizes = [a.size for a in again.arrays.values()]
        assert again.vector.tolist() == np.repeat(np.arange(1.0, len(sizes) + 1), sizes).tolist()

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
        for agg in AGGREGATOR_KINDS:
            params = init_params(ModelConfig((3, 4, 2), agg), seed=1)  # its layout is cached
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
    d = g.node_features.shape[2]
    params = init_params(ModelConfig((d, 3), kind, "attention"), seed=1)
    for name, value in overrides.items():
        params.arrays[name][...] = value
    return forward(g, params).stacked_inputs[0][0, :, d:]


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
        g = graph_of([[1.0, -2.0]])
        assert np.array_equal(layer0_messages(g, "mean"), np.zeros((1, 2)))

    def test_single_node_gated_keeps_state(self):
        g = graph_of([[1.0, -2.0]])
        update, reset, candidate = make_rng(1).standard_normal((3, 2, 4))
        out = layer0_messages(g, "gated", **{"layer0.gate_update": update,
                                             "layer0.gate_reset": reset,
                                             "layer0.gate_candidate": candidate})
        assert np.array_equal(out, g.node_features[0])

    def test_two_identical_nodes_mean(self):
        g = graph_of([[1.0, 2.0], [1.0, 2.0]])
        out = layer0_messages(g, "mean")
        assert np.allclose(out[0], g.node_features[0, 1], atol=1e-15)

    def test_mean_with_all_zero_edges(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])  # opposite, cosine clamps to 0
        g = graph_of(feats)
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
        want = scripted_gated(g.edge_weights[0], g.node_features[0], update, reset, candidate)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        # Node rows and the edge matrix must agree. A built batch agrees by
        # construction; SegmentGraph, which pipebench/ still makes, checks it.
        g = random_graph(make_rng(9), n=3)
        with pytest.raises(ValueError):
            SegmentGraph(np.zeros((5, g.node_features.shape[2])), edge_weights=g.edge_weights[0])


class TestLayerForward:
    def test_zero_weights_zero_output(self):
        g = random_graph(make_rng(10), n=3, d=4)
        params = init_params(ModelConfig((4, 5), "mean"), init_scale=0.0)
        cache = forward(g, params)
        assert np.array_equal(cache.node_embeddings[1][0], np.zeros((3, 5)))

    def test_selector_of_self_half(self):
        g = graph_of(np.abs(make_rng(11).standard_normal((3, 2))) + 0.5)
        params = init_params(ModelConfig((2, 2), "mean"))
        params.arrays["layer0.transform"][...] = np.hstack([np.eye(2), np.zeros((2, 2))])
        out = forward(g, params).node_embeddings[1][0]
        assert np.allclose(out, g.node_features[0], atol=1e-15)

    def test_matches_direct_formula(self):
        rng = make_rng(12)
        g = random_graph(rng, n=4, d=3)
        params = init_params(ModelConfig((3, 5), "mean"))
        transform = rng.standard_normal((5, 6))
        params.arrays["layer0.transform"][...] = transform
        cache = forward(g, params)
        msgs = cache.stacked_inputs[0][0, :, 3:]
        for i in range(4):
            stacked = np.concatenate([g.node_features[0, i], msgs[i]])
            assert np.allclose(cache.node_embeddings[1][0, i],
                               np.maximum(transform @ stacked, 0.0), atol=1e-12)

    def test_preactivation_matches_triple_loop(self):
        rng = make_rng(11)
        g = random_graph(rng, n=3, d=2)
        params = init_params(ModelConfig((2, 2), "mean"), seed=4)
        cache = forward(g, params)
        a, b = cache.stacked_inputs[0][0], params.arrays["layer0.transform"].T
        want = np.zeros((a.shape[0], b.shape[1]))
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                for k in range(a.shape[1]):
                    want[i, j] += a[i, k] * b[k, j]
        assert np.allclose(cache.preacts[0][0], want, rtol=0, atol=1e-12)


class TestAttentionReadout:
    def test_two_identical_nodes(self):
        g = graph_of([[2.0, 2.0], [2.0, 2.0]])
        cache = forward(g, attention_params(2, np.eye(2), np.ones(2)))
        assert np.allclose(cache.attention_weights[0], [0.5, 0.5], atol=1e-15)
        # literal 1/n factor: (1/2) * (0.5+0.5) * (2,2) = (1,1)
        assert np.allclose(cache.graph_embedding[0], [1.0, 1.0], atol=1e-15)

    def test_single_node(self):
        g = graph_of([[3.0, 1.0]])
        cache = forward(g, attention_params(2, np.eye(2), np.ones(2)))
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
        cache = forward(g, params)
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
        assert forward(g, params).prediction[0] == 0.5

    def test_bias_only(self):
        g = random_graph(make_rng(14), n=3, d=2)
        params = init_params(ModelConfig((2, 2)), init_scale=0.0)
        params.arrays["classifier.bias"][0] = np.log(3.0)
        cache = forward(g, params)
        assert np.array_equal(cache.graph_embedding[0], np.zeros(2))
        assert cache.prediction[0] == pytest.approx(0.75, abs=1e-15)

    def test_matches_manual_dot(self):
        rng = make_rng(14)
        params = init_params(ModelConfig((3, 4, 2)), seed=2)
        params.arrays["classifier.bias"][0] = 0.3
        cache = forward(random_graph(rng, d=3), params)
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
                assert forward(g, params).prediction[0] == 0.5

    def test_single_node_graph_all_kinds(self):
        g = graph_of([[0.5, -1.5, 2.0]])
        for agg in AGGREGATOR_KINDS:
            for readout in READOUT_KINDS:
                params = init_params(ModelConfig((3, 4, 2), agg, readout), seed=4)
                cache = forward(g, params)
                assert 0.0 < cache.prediction[0] < 1.0

    def test_matches_scripted_three_node_mean_attention(self):
        rng = make_rng(16)
        g = random_graph(rng, n=3, d=3)
        params = init_params(ModelConfig((3, 4, 2), "mean", "attention"), seed=6)

        h = g.node_features[0]
        w = g.edge_weights[0]
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

        prediction = forward(g, params).prediction[0]
        assert prediction == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch(self):
        g = random_graph(make_rng(17), n=3, d=4)
        with pytest.raises(ValueError):
            forward(g, init_params(ModelConfig((3, 4, 2))))


class TestBackward:
    def test_bias_gradient_is_residual(self):
        rng = make_rng(18)
        g = random_graph(rng, n=4, d=3)
        params = init_params(ModelConfig((3, 4, 2), "mean", "attention"), seed=7)
        cache = forward(g, params)
        grads = backward(cache, [1], [1.0])
        assert grads.arrays["classifier.bias"].tolist() == [cache.prediction[0] - 1]

    def test_unused_gate_branch_gets_zero_gradient(self):
        # A mean model has no gate weights, so there is no gate gradient
        # at all; the gradient table mirrors the parameter table.
        g = random_graph(make_rng(19), n=4, d=3)
        params = init_params(ModelConfig((3, 4, 2), "mean", "attention"), seed=8)
        grads = backward(forward(g, params), [0], [1.0])
        assert list(grads.arrays) == list(params.arrays)
        assert not any("gate" in name for name in grads.arrays)

    def test_label_count_must_match_batch(self):
        # backward reads graphs and params from the cache, so the only
        # pairing it can get wrong is labels or weights for another batch.
        rng = make_rng(21)
        params = init_params(ModelConfig((3, 4, 2)))
        graphs = [random_graph(rng, n=3, d=3), random_graph(rng, n=3, d=3)]
        cache = forward(padded(graphs), params)
        with pytest.raises(ValueError, match="one label and one weight"):
            backward(cache, [1], [1.0])
        with pytest.raises(ValueError, match="one label and one weight"):
            backward(cache, [1, 0], [1.0])

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    def test_unrecorded_cache_rejected(self, agg):
        g = random_graph(make_rng(22), n=5, d=3)
        params = init_params(ModelConfig((3, 4, 2), agg, "attention"), seed=10)
        cache = forward(g, params, record=False)
        assert cache.prediction[0] == forward(g, params).prediction[0]
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
            dims = (g.node_features.shape[2], int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            params = init_params(
                ModelConfig(dims, agg, readout), seed=int(rng.integers(0, 1000))
            )
            check_gradients(g, params, [trial % 2])

    def test_gradients_with_unaveraged_attention(self):
        rng = make_rng(77)
        for trial in range(3):
            g = random_graph(rng)
            params = init_params(
                ModelConfig((g.node_features.shape[2], 4, 3), "mean", "attention",
                            attention_averaged=False),
                seed=int(rng.integers(0, 1000)),
            )
            check_gradients(g, params, [trial % 2])


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
            batched = backward(forward(padded(graphs), params), labels, weights)
            parts = [
                backward(forward(g, params), [y], [w])
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
        check_gradients(padded(graphs), params, [1, 0, 1, 0], rng.uniform(0.1, 2.0, size=4))

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    def test_larger_graph_leaves_other_predictions_unchanged(self, agg):
        rng = make_rng(zlib.crc32(f"grow/{agg}".encode()))
        graphs = [random_graph(rng, n=n, d=3) for n in (3, 1, 4)]
        larger = random_graph(rng, n=9, d=3)
        for readout in READOUT_KINDS:
            params = init_params(ModelConfig((3, 5, 4), agg, readout), seed=3)
            alone = [forward(g, params).prediction[0] for g in graphs]
            batched = forward(padded(graphs), params).prediction
            grown = forward(padded(graphs + [larger]), params).prediction
            assert np.allclose(batched, alone, rtol=0, atol=1e-12), readout
            assert np.allclose(grown[:3], alone, rtol=0, atol=1e-12), readout

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one graph"):
            forward(padded([]), init_params(ModelConfig((3, 4, 2))))


def where_sigmoid(x):
    """The sigmoid with a masked numerator, where(x >= 0, 1, e), kept as its reference."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return float(out) if out.ndim == 0 else out


def broadcast_step_message(edges, h, p, out):
    """Step p's messages as two broadcast multiplies, kept as the reference."""
    np.multiply(edges[:, : p + 1, p + 1, None], h[:, p + 1, None], out=out[:, : p + 1])
    np.multiply(edges[:, p + 1 :, p, None], h[:, p, None], out=out[:, p + 1 :])


def out_of_place_gated_messages(edges, h, sizes, update, reset, candidate, record):
    """The gated recurrence with every step product out of place, kept as the reference."""
    n_max, d = h.shape[1:]
    state, steps = h.copy(), [] if record else None
    gate_in = np.empty(h.shape[:2] + (2 * d,))
    for p in range(n_max - 1):
        broadcast_step_message(edges, h, p, gate_in[..., d:])
        gate_in[..., :d] = state
        z = where_sigmoid(gate_in @ update.T)
        z = z * (p < sizes - 1)[:, None, None]
        r = where_sigmoid(gate_in @ reset.T)
        np.multiply(r, state, out=gate_in[..., :d])
        cand = np.tanh(gate_in @ candidate.T)
        if record:
            steps.append(model._GatedStep(state, z, r, cand))
        state = (1.0 - z) * state + z * cand
    return state, steps


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestGatedStepBits:
    """The gated step against its out-of-place reference formulas, bit for bit.

    `allclose` cannot see a changed bit, so every array is compared as
    uint64. The batch pads graphs of sizes 9, 4, 1 and 7 whose raw features
    are mostly negative and whose frames are often negatively correlated,
    so many edge cells are zero: the cells where an einsum message and a
    broadcast message differ in the sign of a zero.
    """

    def test_forward_steps_and_gradient_equal_the_reference(self, monkeypatch):
        rng = make_rng(31)
        graphs = [graph_of(rng.standard_normal((n, 3)) - 0.5) for n in (9, 4, 1, 7)]
        batch = padded(graphs)
        params = init_params(ModelConfig((3, 5, 4), "gated", "attention"), seed=5)
        labels, weights = [1, 0, 1, 0], [0.5, 1.0, 2.0, 1.5]
        msgs = np.empty((2,) + batch.node_features.shape)
        model._step_message(batch.edge_weights, batch.node_features, 0, msgs[0])
        broadcast_step_message(batch.edge_weights, batch.node_features, 0, msgs[1])
        assert np.signbit(msgs[1][msgs[0] == 0]).any()  # a -0.0 the einsum writes as +0.0

        def run():
            unrecorded = forward(batch, params, record=False)
            cache = forward(batch, params)
            return unrecorded, cache, backward(cache, labels, weights)

        got = run()
        monkeypatch.setattr(model, "sigmoid", where_sigmoid)
        monkeypatch.setattr(model, "_step_message", broadcast_step_message)
        monkeypatch.setattr(model, "_gated_messages", out_of_place_gated_messages)
        want = run()
        for new, ref in zip(got[:2], want[:2]):
            for name in ("node_embeddings", "stacked_inputs", "preacts"):
                for a, b in zip(getattr(new, name), getattr(ref, name), strict=True):
                    assert np.array_equal(bits(a), bits(b)), name
            for name in ("attn_tanh", "attention_weights", "graph_embedding", "prediction"):
                assert np.array_equal(bits(getattr(new, name)), bits(getattr(ref, name))), name
        steps, ref_steps = got[1].gated_steps, want[1].gated_steps
        assert [len(layer) for layer in steps] == [8, 8]
        for layer, ref_layer in zip(steps, ref_steps, strict=True):
            for step, ref_step in zip(layer, ref_layer, strict=True):
                for name in ("state", "z", "r", "cand"):
                    assert np.array_equal(bits(getattr(step, name)), bits(getattr(ref_step, name)))
        assert np.array_equal(bits(got[2].vector), bits(want[2].vector))


class TestSgdStep:
    def test_zero_lr_keeps_params(self):
        params = init_params(ModelConfig((3, 4, 2)), seed=1)
        g = random_graph(make_rng(22), n=3, d=3)
        grads = backward(forward(g, params), [1], [1.0])
        updated = sgd_step(params, grads, 0.0)
        assert np.array_equal(updated.vector, params.vector)

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    def test_bit_equal_to_per_entry_update(self, agg):
        params = init_params(ModelConfig((3, 4, 2), agg, "attention"), seed=2)
        graphs = [random_graph(make_rng(4), n=n, d=3) for n in (2, 5)]
        grads = backward(forward(padded(graphs), params), [1, 0], [0.7, 1.3])
        before = params.vector.copy()
        updated = sgd_step(params, grads, 0.03)
        for name, w in params.arrays.items():
            want = w - 0.03 * grads.arrays[name]
            assert updated.arrays[name].tobytes() == want.tobytes(), name
        # a new vector: the cache that made grads still holds the old params
        assert params.vector.tobytes() == before.tobytes()

    @pytest.mark.parametrize("agg", AGGREGATOR_KINDS)
    def test_old_params_and_their_caches_stay_unchanged(self, agg):
        params = init_params(ModelConfig((3, 4, 2), agg, "attention"), seed=5)
        before = params.vector.copy()
        cache = forward(padded([random_graph(make_rng(6), n=n, d=3) for n in (4, 2)]), params)
        recorded = [a.copy() for a in cache.node_embeddings + [cache.prediction]]
        grads = backward(cache, [1, 0], [0.5, 0.5])
        updated = sgd_step(params, grads, 0.1)
        assert not np.shares_memory(updated.vector, params.vector)
        assert not np.shares_memory(updated.vector, grads.vector)
        assert params.vector.tobytes() == before.tobytes()
        assert cache.params is params
        for name, a in params.arrays.items():
            assert np.shares_memory(a, params.vector), name
        for a, b in zip(cache.node_embeddings + [cache.prediction], recorded, strict=True):
            assert a.tobytes() == b.tobytes()
        again = backward(cache, [1, 0], [0.5, 0.5])  # the cache still gives the same gradient
        assert again.vector.tobytes() == grads.vector.tobytes()

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


def toy_training_set(spans=((0, 3), (3, 6))):
    """A store of three-frame segments of two directions, the first one abnormal, and labels."""
    video = FeatureMatrix("v", [[2.0, 0.0]] * 3 + [[0.0, 2.0]] * 3)
    return GraphRows([(video, list(spans))]), [int(s == 0) for s, _ in spans]


class TestTrain:
    def test_loss_decreases_on_separable_toy(self):
        store, labels = toy_training_set()
        params = init_params(ModelConfig((2, 4, 3), "mean", "attention"), seed=3)
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, epochs=12, seed=1)
        _, history = train(store, labels, params, cfg)
        for earlier, later in zip(history[:10], history[1:11]):
            assert later < earlier

    def test_deterministic(self):
        store, labels = toy_training_set()
        cfg = TrainConfig(learning_rate=0.05, batch_size=1, epochs=5, seed=9)
        out1, hist1 = train(store, labels, init_params(ModelConfig((2, 4, 3)), seed=3), cfg)
        out2, hist2 = train(store, labels, init_params(ModelConfig((2, 4, 3)), seed=3), cfg)
        assert np.array_equal(out1.vector, out2.vector)
        assert hist1 == hist2

    def test_epochs_zero_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_feature_dim_mismatch(self):
        """Videos of two dims make no store; a store of another dim than the model's
        does not train."""
        v2, v3 = FeatureMatrix("a", np.ones((2, 2))), FeatureMatrix("b", np.ones((2, 3)))
        params = init_params(ModelConfig((2, 3, 2)))
        with pytest.raises(ConfigError):
            GraphRows([(v2, [(0, 2)]), (v3, [(0, 2)])])
        with pytest.raises(ConfigError, match="graph feature dim 3 does not match model input dim 2"):
            train(GraphRows([(v3, [(0, 2)])]), [1], params, TrainConfig(epochs=1))

    @pytest.mark.parametrize("labels, message", [
        ([0], "one label per stored graph"),
        ([0, 1, 1], "one label per stored graph"),
        ([[0], [1]], "one label per stored graph"),
        ([0, 2], r"labels must be 0 or 1, got \[2\]"),
        ([1, 0.5], r"labels must be 0 or 1, got \[0.5\]"),
        ([-1, 1], r"labels must be 0 or 1, got \[-1\]"),
    ], ids=["short", "long", "column", "two", "half", "minus-one"])
    def test_labels_are_one_0_or_1_per_stored_graph(self, labels, message):
        store, _ = toy_training_set()
        with pytest.raises(ConfigError, match=message):
            train(store, labels, init_params(ModelConfig((2, 3, 2))), TrainConfig(epochs=1))

    def test_single_class_warns(self, caplog):
        store, _ = toy_training_set(spans=((0, 2), (0, 2)))
        params = init_params(ModelConfig((2, 3, 2)))
        with caplog.at_level("WARNING"):
            train(store, [1, 1], params, TrainConfig(epochs=1))
        assert any("single class" in r.message for r in caplog.records)

    def test_each_mini_batch_is_the_padded_stack_of_its_rows(self, monkeypatch):
        """Each mini-batch gathered from the row store holds its rows' graphs, in the
        seeded order, zero-padded: node features, edges and mean operator."""
        rng = make_rng(31)
        features = FeatureMatrix("v", rng.standard_normal((30, 3)))
        spans = [(0, 4), (4, 5), (5, 9), (9, 16), (16, 18), (18, 22), (22, 23), (23, 30)]
        store = GraphRows([(features, spans)])
        calls = record_forward_calls(monkeypatch, model)
        cfg = TrainConfig(batch_size=3, epochs=4, seed=13)
        labels = [i % 2 for i in range(len(spans))]
        train(store, labels, init_params(ModelConfig((3, 4, 2))), cfg)

        order = make_rng(cfg.seed)
        picks = []
        for _ in range(cfg.epochs):
            perm = order.permutation(len(spans))
            picks += [perm[k : k + 3] for k in range(0, len(spans), 3)]
        assert len(calls) == len(picks) == 12
        for batch, picked in zip(calls, picks):
            sizes = [spans[i][1] - spans[i][0] for i in picked]
            n = max(sizes)
            h, w = np.zeros((len(picked), n, 3)), np.zeros((len(picked), n, n))
            m = np.zeros_like(w)
            for b, i in enumerate(picked):
                s, e = spans[i]
                h[b, : e - s] = features.values[s:e]
                w[b, : e - s, : e - s] = edges = graph_of(features.values[s:e]).edge_weights[0]
                degree = edges.sum(axis=1)
                linked = np.flatnonzero(degree)
                m[b, linked, : e - s] = edges[linked] / degree[linked, None]
            assert batch.sizes.tolist() == sizes
            assert batch.node_features.shape == h.shape
            assert batch.edge_weights.shape == batch.mean_weights.shape == w.shape
            assert batch.node_features.tobytes() == h.tobytes()
            assert batch.edge_weights.tobytes() == w.tobytes()
            assert batch.mean_weights.tobytes() == m.tobytes()

    @pytest.mark.parametrize("class_weighting", [False, True])
    def test_epoch_loss_equals_the_sum_of_mini_batch_losses(self, class_weighting):
        """history[e] is the epoch's weighted loss per graph, summed mini-batch by mini-batch."""
        rng = make_rng(32)
        features = FeatureMatrix("v", rng.standard_normal((40, 3)))
        spans = [(s, s + n) for s, n in zip(range(0, 40, 5), [3, 5, 2, 4, 5, 1, 5, 4])]
        labels = np.array([1, 0, 0, 1, 0, 0, 1, 0])
        params = init_params(ModelConfig((3, 4, 2), "mean", "attention"), seed=4)
        cfg = TrainConfig(learning_rate=0.05, batch_size=3, epochs=6, seed=5,
                          class_weighting=class_weighting)
        got, history = train(GraphRows([(features, spans)]), labels, params, cfg)

        weight = {0: 1.0, 1: 1.0}
        if class_weighting:
            weight = {c: len(labels) / (2.0 * (labels == c).sum()) for c in (0, 1)}
        weights = np.array([weight[label] for label in labels])
        order = make_rng(cfg.seed)
        want = []
        for _ in range(cfg.epochs):
            perm = order.permutation(len(labels))
            total = 0.0
            for k in range(0, len(perm), cfg.batch_size):
                picked = perm[k : k + cfg.batch_size]
                batch = padded([graph_of(features.values[slice(*spans[i])]) for i in picked])
                cache = forward(batch, params)
                total += float(weights[picked] @ loss(cache.prediction, labels[picked]))
                grads = backward(cache, labels[picked], weights[picked] / len(picked))
                params = sgd_step(params, grads, cfg.learning_rate)
            want.append(total / len(labels))
        assert got.vector.tobytes() == params.vector.tobytes()
        assert np.allclose(history, want, rtol=1e-12, atol=0)

    def test_class_weighting_runs(self):
        store, labels = toy_training_set(spans=((0, 3), (3, 6), (0, 3)))
        params = init_params(ModelConfig((2, 4, 3)), seed=3)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=1, class_weighting=True)
        _, history = train(store, labels, params, cfg)
        assert len(history) == 2


class TestPermutationProperties:
    def test_mean_permutation_invariant(self):
        rng = make_rng(23)
        for readout in READOUT_KINDS:
            for _ in range(5):
                g = random_graph(rng)
                d = g.node_features.shape[2]
                params = init_params(ModelConfig((d, 5, 4), "mean", readout), seed=11)
                base = forward(g, params).prediction[0]
                perm = rng.permutation(g.sizes[0])
                permuted = forward(permute_graph(g, perm), params).prediction[0]
                assert abs(base - permuted) <= 1e-9

    def test_gated_is_bitwise_reproducible(self):
        rng = make_rng(24)
        g = random_graph(rng, n=5, d=4)
        params = init_params(ModelConfig((4, 5, 4), "gated", "attention"), seed=12)
        runs = {forward(g, params).prediction[0] for _ in range(5)}
        assert len(runs) == 1

    def test_zero_edges_zero_mean_messages(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        g = graph_of(feats)
        # orthogonal/opposite directions leave only clamped zero edges
        assert g.edge_weights.max() == 0.0
        msgs = layer0_messages(g, "mean")
        assert np.array_equal(msgs, np.zeros_like(feats))


def save_with_defaults(params, path):
    save_checkpoint(params, path, segmentation=SegmentationConfig())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(
            ModelConfig((5, 6, 4), "gated", "attention", a_dim=3, attention_averaged=False),
            seed=21,
        )
        seg = SegmentationConfig(penalty=None, min_len=3)
        path = tmp_path / "m.cegm"
        save_checkpoint(params, path, segmentation=seg)
        loaded, seg_back = load_checkpoint(path)
        assert list(loaded.arrays) == list(params.arrays)
        assert np.array_equal(loaded.vector, params.vector)
        assert loaded.config.layer_dims == params.config.layer_dims
        assert loaded.config.aggregator_kind == "gated"
        assert loaded.config.readout_kind == "attention"
        assert loaded.config.a_dim == 3
        assert loaded.config.attention_averaged is False
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
    check_gradients(g, params, [1])
