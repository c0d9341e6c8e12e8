"""Two-layer message-passing classifier trained on weak segment labels.

Forward pass, per graph: node states start at the raw frame features.
Each layer first aggregates every node's neighborhood into a message,
then re-embeds the node as ReLU(W . concat(state, message)). After the
final layer an attention readout collapses the node embeddings into one
graph vector, and a sigmoid head scores it.

Aggregator kinds
----------------
mean     message_i = sum_j e_ij h_j / sum_j e_ij   (zero vector if no
         positive edges; the zero diagonal keeps the node itself out),
         one product with the batch's mean operator D^-1 A, which the
         graph builder divides once per graph
gated    a gated recurrence walked over neighbors j in ascending
         temporal order, state initialized to the node's own embedding.
         With message m = e_ij h_j and state s, one step is

             z = logistic(U . [s, m])        (update gate)
             r = logistic(R . [s, m])        (reset gate)
             c = tanh(C . [r * s, m])        (candidate)
             s <- (1 - z) * s + z * c

         The final state is the message. The recurrence is deliberately
         order-dependent; frames carry a natural temporal order.

The one readout is attention: softmax over u . tanh(W_a h_i), then the
attention-weighted node sum divided by n.

One frozen `ModelConfig` holds the layer dims, the two kinds, a_dim and
the attention flag. It is the run config's model section, the argument of
`init_params` and the checkpoint header's model keys. Parameters and
gradients are each one float64 vector with a view per name, in
`param_shapes(config)` order, a layout computed once per config. Gate
weights exist only for the gated aggregator.

`forward` runs one `GraphBatch`, and `backward` writes the weighted sum
of the batch's gradients straight into each parameter's view. Inference
runs `forward(..., record=False)` in `localization.score_segments`,
which keeps no gated step for a backward. Gradients are derived by hand
(no autodiff) and checked against central finite differences in the
test suite. Training is plain SGD on the binary cross entropy of the
segment labels: `train` takes a `GraphRows` store of the training
videos' segment graphs and one label per stored graph, gathers each
mini-batch from the store with one index gather per array, runs one
forward and one backward per mini-batch, and takes each epoch's loss
with one `loss` call.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import reprlib
import struct
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import accumulate
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .dataio import check_types, config_from_json, unique_keys, write_atomic
from .errors import ConfigError, FormatError, NumericError, TruncatedFileError
from .graph import GraphBatch, GraphRows
from .numerics import make_rng, sigmoid, softmax
from .segmentation import SegmentationConfig

log = logging.getLogger(__name__)

AGGREGATOR_KINDS = ("mean", "gated")
READOUT_KINDS = ("attention",)

LOSS_CLAMP = 1e-12

# Parameter names, which are also the checkpoint's entry names.
GATE_NAMES = ("update", "reset", "candidate")
ATTENTION_TRANSFORM = "attention.transform"
ATTENTION_VECTOR = "attention.vector"
CLASSIFIER_WEIGHTS = "classifier.weights"
CLASSIFIER_BIAS = "classifier.bias"


def transform_name(layer: int) -> str:
    return f"layer{layer}.transform"


def gate_name(layer: int, gate: str) -> str:
    return f"layer{layer}.gate_{gate}"


@dataclass(frozen=True)
class ModelConfig:
    """The model's configuration: the run config's model section and the checkpoint header.

    `cegl train` reads a None layer_dims as (feature dim, 32, 16). Once
    layer_dims is set, a None a_dim means layer_dims[-1]. The attention
    readout divides the weighted node sum by n on top of the softmax
    normalization when attention_averaged; False drops the extra 1/n,
    which keeps the graph embedding scale independent of segment length.
    """

    layer_dims: tuple[int, ...] | None = None  # (d_in, h1, h2)
    aggregator_kind: str = "gated"
    readout_kind: str = "attention"
    a_dim: int | None = None
    attention_averaged: bool = True

    def __post_init__(self):
        check_types(self)
        if self.layer_dims is not None:
            if len(self.layer_dims) < 2 or min(self.layer_dims) < 1:
                got = reprlib.repr(self.layer_dims)
                raise ConfigError(f"layer_dims must be positive ints, got {got}")
            if self.a_dim is None:
                object.__setattr__(self, "a_dim", self.layer_dims[-1])
        if self.aggregator_kind not in AGGREGATOR_KINDS:
            raise ConfigError(f"unknown aggregator_kind {reprlib.repr(self.aggregator_kind)}")
        if self.readout_kind not in READOUT_KINDS:
            raise ConfigError(f"unknown readout_kind {reprlib.repr(self.readout_kind)}")
        if self.a_dim is not None and self.a_dim < 1:
            raise ConfigError(f"a_dim must be a positive int, got {self.a_dim!r}")


MODEL_KEYS = tuple(f.name for f in fields(ModelConfig))
CEGM_MAGIC = b"CEGM"
CEGM_VERSION = 2
CEGM_HEADER_KEYS = (*MODEL_KEYS, "segmentation", "params")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter the configured model reads, in table order.

    Layer l's transform maps [state, message] of width 2*dims[l] to
    dims[l+1]; its gates (gated only) are square in dims[l].
    """
    dims = config.layer_dims
    if dims is None:
        raise ConfigError("the model config sets no layer_dims")
    shapes: dict[str, tuple[int, ...]] = {}
    for layer, (prev, cur) in enumerate(zip(dims[:-1], dims[1:])):
        shapes[transform_name(layer)] = (cur, 2 * prev)
        if config.aggregator_kind == "gated":
            for gate in GATE_NAMES:
                shapes[gate_name(layer, gate)] = (prev, 2 * prev)
    shapes[ATTENTION_TRANSFORM] = (config.a_dim, dims[-1])
    shapes[ATTENTION_VECTOR] = (config.a_dim,)
    shapes[CLASSIFIER_WEIGHTS] = (dims[-1],)
    shapes[CLASSIFIER_BIAS] = (1,)
    return shapes


@functools.cache
def _layout(config: ModelConfig) -> tuple[tuple, int]:
    """((name, slice of the vector, shape) of each `param_shapes` entry in order, vector length)."""
    shapes = param_shapes(config)
    ends = list(accumulate(math.prod(s) for s in shapes.values()))
    layout = tuple((name, slice(end - math.prod(shape), end), shape)
                   for (name, shape), end in zip(shapes.items(), ends))
    return layout, ends[-1]


@dataclass(frozen=True)
class ModelParams:
    """A model's configuration plus its parameters as one float64 vector.

    `arrays` maps each `param_shapes(config)` name, in order, to a view of
    its slice of `vector`; entries are written in place, never rebound.
    The name -> slice layout is computed once per config.
    """

    config: ModelConfig
    vector: np.ndarray
    arrays: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layout, size = _layout(self.config)
        if self.vector.dtype != np.float64 or self.vector.shape != (size,):
            raise ValueError(f"parameters must be a float64 vector of {size} entries")
        views = {name: self.vector[part].reshape(shape) for name, part, shape in layout}
        object.__setattr__(self, "arrays", MappingProxyType(views))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 8
    epochs: int = 100
    seed: int = 0
    init_scale: float = 1.0
    class_weighting: bool = False

    def __post_init__(self):
        check_types(self)
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.init_scale < 0:
            raise ConfigError("init_scale must be non-negative")


def init_params(config: ModelConfig, seed: int = 0, init_scale: float = 1.0) -> ModelParams:
    """Seeded uniform(-s, s) weights with s = init_scale / sqrt(fan_in); biases 0."""
    kept = param_shapes(config)

    # Every configuration walks the full gated table in one fixed order and
    # draws only the arrays it reads; the generator skips the gates of a
    # mean model, one PCG64 step per double, without making them. A seed
    # thus gives each kept array the same values whatever the aggregator,
    # and the same values as when every model still stored the gates.
    rng = make_rng(seed)
    parts = []
    for name, shape in param_shapes(replace(config, aggregator_kind="gated")).items():
        if name not in kept:
            rng.bit_generator.advance(math.prod(shape))
        elif name == CLASSIFIER_BIAS:
            parts.append(np.zeros(math.prod(shape)))
        else:
            s = init_scale / np.sqrt(shape[-1])  # the last axis is the fan-in
            parts.append((rng.uniform(-1.0, 1.0, size=shape) * s).ravel())
    return ModelParams(config, np.concatenate(parts))


# ---------------------------------------------------------------------------
# Neighborhood aggregation, batched over (B, N, .) arrays


@dataclass
class _GatedStep:
    state: np.ndarray  # state entering the step, (B, N, d)
    z: np.ndarray  # update gate, zero for graphs whose recurrence has ended
    r: np.ndarray
    cand: np.ndarray


def _rows(a: np.ndarray) -> np.ndarray:
    """A (B, N, k) array as (B*N, k) rows, for one matmul over the batch."""
    return a.reshape(-1, a.shape[-1])


def _step_message(edges: np.ndarray, h: np.ndarray, p: int, out: np.ndarray) -> None:
    """Step p's messages e_ij h_j into out, (B, N, d): node i reads j = p + 1 if i <= p, else p.

    An einsum outer product sums no index, so each entry is the one product
    e_ij h_jk, and it is cheaper than a broadcast multiply. Where e_ij = 0 and
    h_jk < 0 it writes +0.0, not -0.0; only matmuls read the message, and
    their accumulators start at +0, so no result changes.
    """
    np.einsum("bi,bj->bij", edges[:, : p + 1, p + 1], h[:, p + 1], out=out[:, : p + 1])
    np.einsum("bi,bj->bij", edges[:, p + 1 :, p], h[:, p], out=out[:, p + 1 :])


def _gated_messages(edges: np.ndarray, h: np.ndarray, sizes, update, reset, candidate, record):
    """The recurrence's final states, and its steps for backward (None unless record)."""
    n_max, d = h.shape[1:]
    state = h.copy()
    steps: list[_GatedStep] | None = [] if record else None
    n_min = sizes.min()
    # One gate-input buffer [s, m] serves every step: the message fills its
    # second half, the state its first for the gates, then r * s for the
    # candidate. All nodes of all graphs advance one step together. Graph
    # b has n_b - 1 steps; after them its update gate is held at zero,
    # which leaves its state unchanged.
    gate_in = np.empty(h.shape[:2] + (2 * d,))
    moved = np.empty_like(h)  # z * cand of the current step, never recorded
    for p in range(n_max - 1):
        _step_message(edges, h, p, gate_in[..., d:])
        gate_in[..., :d] = state
        z = sigmoid(gate_in @ update.T)
        if p >= n_min - 1:
            z *= (p < sizes - 1)[:, None, None]
        r = sigmoid(gate_in @ reset.T)
        np.multiply(r, state, out=gate_in[..., :d])
        cand = gate_in @ candidate.T
        np.tanh(cand, out=cand)
        if record:
            steps.append(_GatedStep(state, z, r, cand))
        kept = 1.0 - z
        kept *= state
        state = np.add(kept, np.multiply(z, cand, out=moved), out=kept)
    return state, steps


def loss(y_hat, y):
    """Binary cross entropy with clamped logs, elementwise over arrays."""
    p = np.clip(y_hat, LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    return -(y * np.log(p) + (1 - y) * np.log1p(-p))


# ---------------------------------------------------------------------------
# Batched forward with cache, exact backward


@dataclass
class ForwardCache:
    """Everything one batched pass computed; arrays lead with the batch axis B."""

    params: ModelParams
    batch: GraphBatch
    node_embeddings: list[np.ndarray]  # H^0 .. H^L, each (B, N, d_l)
    stacked_inputs: list[np.ndarray]  # per layer, [H, messages]
    preacts: list[np.ndarray]  # per layer, before ReLU
    gated_steps: list[list[_GatedStep] | None]  # per layer (gated kind, recorded passes)
    attn_tanh: np.ndarray
    attention_weights: np.ndarray  # alpha, (B, N), zero on padding
    graph_embedding: np.ndarray  # (B, d)
    prediction: np.ndarray  # y_hat, (B,)
    recorded: bool  # whether backward can run on this cache


def forward(batch: GraphBatch, params: ModelParams, *, record: bool = True) -> ForwardCache:
    """One pass over a batch of graphs, caching every intermediate backward needs.

    A padded node has zero features and no edges, so every layer leaves
    its embedding at exactly zero (a zero message, a zero pre-activation,
    a ReLU of zero): the attention softmax masks it out, and no gradient
    reaches it. Every product is taken per graph, so a graph in a batch of
    graphs of its own size gets the bits a one-graph pass gives.

    With record=False the pass is inference only: the gated recurrence
    keeps none of its n-1 steps per layer, and backward rejects the cache.
    """
    cfg = params.config
    h, edges, sizes = batch.node_features, batch.edge_weights, batch.sizes
    if h.shape[2] != cfg.layer_dims[0]:
        raise ValueError(f"graph features have dim {h.shape[2]}, model expects {cfg.layer_dims[0]}")
    n_max = h.shape[1]

    p = params.arrays
    embeddings = [h]
    stacked_inputs, preacts, gated_steps = [], [], []
    for layer in range(len(cfg.layer_dims) - 1):
        steps = None
        if cfg.aggregator_kind == "mean":
            msgs = batch.mean_weights @ h
        else:  # gated
            gates = [p[gate_name(layer, gate)] for gate in GATE_NAMES]
            msgs, steps = _gated_messages(edges, h, sizes, *gates, record)
        stacked = np.concatenate([h, msgs], axis=2)
        pre = stacked @ p[transform_name(layer)].T
        h = np.maximum(pre, 0.0)
        stacked_inputs.append(stacked)
        preacts.append(pre)
        gated_steps.append(steps)
        embeddings.append(h)

    n = sizes[:, None]
    attn_tanh = np.tanh(h @ p[ATTENTION_TRANSFORM].T)
    scores = attn_tanh @ p[ATTENTION_VECTOR]
    if sizes.min() < n_max:  # padded nodes get no attention
        scores = np.where(np.arange(n_max) < n, scores, -np.inf)
    alpha = softmax(scores)
    denom = n if cfg.attention_averaged else 1
    h_g = (alpha[..., None] * h).sum(axis=1) / denom

    # One (1, d) @ (d,) product per graph: a (B, d) gemv can round a row
    # differently from the same row alone.
    logit = (h_g[:, None, :] @ p[CLASSIFIER_WEIGHTS])[:, 0] + p[CLASSIFIER_BIAS][0]
    return ForwardCache(
        params=params,
        batch=batch,
        node_embeddings=embeddings,
        stacked_inputs=stacked_inputs,
        preacts=preacts,
        gated_steps=gated_steps,
        attn_tanh=attn_tanh,
        attention_weights=alpha,
        graph_embedding=h_g,
        prediction=sigmoid(logit),
        recorded=record,
    )


def _gated_backward(gates, grad_gates, steps, d_msgs, edges, h):
    """Backward through one layer's recurrence; gates and their gradients in GATE_NAMES order."""
    update, reset, candidate = gates
    grad_update, grad_reset, grad_candidate = grad_gates
    d = h.shape[2]
    dh = np.zeros_like(h)
    dstate = d_msgs
    gate_in = np.empty(h.shape[:2] + (2 * d,))
    cand_in = np.empty_like(gate_in)
    for p in reversed(range(len(steps))):
        st = steps[p]
        # The step's inputs are rebuilt as forward built them, not stored.
        _step_message(edges, h, p, gate_in[..., d:])
        gate_in[..., :d] = st.state
        cand_in[..., d:] = gate_in[..., d:]
        np.multiply(st.r, st.state, out=cand_in[..., :d])
        dz = dstate * (st.cand - st.state)
        dcand = dstate * st.z
        dprev = dstate * (1.0 - st.z)

        dpre_c = dcand * (1.0 - st.cand**2)
        grad_candidate += _rows(dpre_c).T @ _rows(cand_in)
        dcand_in = dpre_c @ candidate
        d_rs = dcand_in[..., :d]
        dmsg = dcand_in[..., d:]
        dr = d_rs * st.state
        dprev += d_rs * st.r

        dpre_r = dr * st.r * (1.0 - st.r)
        grad_reset += _rows(dpre_r).T @ _rows(gate_in)
        dgate_in = dpre_r @ reset
        dprev += dgate_in[..., :d]
        dmsg += dgate_in[..., d:]

        dpre_z = dz * st.z * (1.0 - st.z)
        grad_update += _rows(dpre_z).T @ _rows(gate_in)
        dgate_in = dpre_z @ update
        dprev += dgate_in[..., :d]
        dmsg += dgate_in[..., d:]

        # Nodes after p read neighbor p; nodes up to p read neighbor p + 1.
        dh[:, p] += (edges[:, p + 1 :, p, None] * dmsg[:, p + 1 :]).sum(axis=1)
        dh[:, p + 1] += (edges[:, : p + 1, p + 1, None] * dmsg[:, : p + 1]).sum(axis=1)
        dstate = dprev
    dh += dstate  # recurrence started from the node's own embedding
    return dh


def backward(cache: ForwardCache, labels, weights) -> ModelParams:
    """Exact gradients of sum_b weights[b] * loss(prediction_b, labels[b]).

    One label and one weight per graph of the cached batch; the result is
    laid out like cache.params. The cache must come from a recorded pass.
    """
    if not cache.recorded:
        raise ValueError("backward needs a cache from forward(..., record=True)")
    params = cache.params
    cfg = params.config
    labels = np.asarray(labels, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if labels.shape != cache.prediction.shape or weights.shape != labels.shape:
        raise ValueError(
            f"backward needs one label and one weight for each of the batch's "
            f"{cache.prediction.size} graphs, got {labels.shape} and {weights.shape}"
        )
    p = params.arrays
    grads = ModelParams(cfg, np.zeros_like(params.vector))
    g = grads.arrays
    h_final = cache.node_embeddings[-1]

    dlogit = (cache.prediction - labels) * weights  # sigmoid + cross entropy identity
    np.matmul(dlogit, cache.graph_embedding, out=g[CLASSIFIER_WEIGHTS])
    g[CLASSIFIER_BIAS][0] = dlogit.sum()
    dh_g = dlogit[:, None] * p[CLASSIFIER_WEIGHTS]

    # Padded rows of dh need no masking: their pre-activations are exactly
    # zero, so the last layer's ReLU passes them no gradient.
    alpha = cache.attention_weights
    t = cache.attn_tanh
    if cfg.attention_averaged:
        dh_g = dh_g / cache.batch.sizes[:, None]
    dalpha = (h_final @ dh_g[..., None])[..., 0]
    dh = alpha[..., None] * dh_g[:, None, :]
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    np.matmul(_rows(t).T, dscores.ravel(), out=g[ATTENTION_VECTOR])
    dpre = dscores[..., None] * p[ATTENTION_VECTOR] * (1.0 - t**2)
    np.matmul(_rows(dpre).T, _rows(h_final), out=g[ATTENTION_TRANSFORM])
    dh = dh + dpre @ p[ATTENTION_TRANSFORM]

    agg = cfg.aggregator_kind
    for layer in reversed(range(len(cfg.layer_dims) - 1)):
        name = transform_name(layer)
        prev_dim = cfg.layer_dims[layer]
        dpre = dh * (cache.preacts[layer] > 0)
        np.matmul(_rows(dpre).T, _rows(cache.stacked_inputs[layer]), out=g[name])
        if layer == 0 and agg == "mean":
            break  # nothing below reads the input features' gradient
        dstacked = dpre @ p[name]
        dh_self = dstacked[..., :prev_dim]
        d_msgs = dstacked[..., prev_dim:]

        if agg == "mean":
            dh_in = np.swapaxes(cache.batch.mean_weights, 1, 2) @ d_msgs
        else:
            names = [gate_name(layer, gate) for gate in GATE_NAMES]
            dh_in = _gated_backward(
                [p[k] for k in names],
                [g[k] for k in names],
                cache.gated_steps[layer],
                d_msgs,
                cache.batch.edge_weights,
                cache.node_embeddings[layer],
            )
        dh = dh_self + dh_in

    return grads


# ---------------------------------------------------------------------------
# Optimization


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """One plain SGD update into new params (caches keep the old); rejects non-finite gradients."""
    if not np.isfinite(grads.vector).all():
        raise NumericError("non-finite gradient; step aborted")
    step = lr * grads.vector
    return ModelParams(params.config, np.subtract(params.vector, step, out=step))


def train(
    store: GraphRows, labels, params: ModelParams, cfg: TrainConfig
) -> tuple[ModelParams, list[float]]:
    """Mini-batch SGD over a store's segment graphs, given one 0/1 label per stored graph.

    Each mini-batch is gathered from the store. Shuffling is deterministic
    from cfg.seed. Each mini-batch is one forward and one backward, whose
    gradient is the batch's class-weighted loss gradient divided by the
    batch size. Returns the final parameters and the mean per-graph
    weighted loss of each epoch, taken over the epoch's predictions with
    one `loss` call.
    """
    if store.nodes.shape[1] != params.config.layer_dims[0]:
        raise ConfigError(f"graph feature dim {store.nodes.shape[1]} does not match "
                          f"model input dim {params.config.layer_dims[0]}")
    labels = np.asarray(labels)
    if labels.shape != store.sizes.shape:
        raise ConfigError(f"training needs one label per stored graph: {len(store.sizes)} "
                          f"graphs, labels of shape {labels.shape}")
    bad = labels[~np.isin(labels, (0, 1))]
    if bad.size:
        raise ConfigError(f"labels must be 0 or 1, got {reprlib.repr(bad.tolist())}")
    labels = labels.astype(np.int64)
    if labels.min() == labels.max():
        log.warning("training data holds a single class (%d) only", labels[0])

    sample_weight = np.ones(len(labels))
    if cfg.class_weighting:  # each class weighs len(labels) / (2 * its count)
        sample_weight = len(labels) / (2.0 * np.bincount(labels, minlength=2)[labels])

    rng = make_rng(cfg.seed)
    history: list[float] = []
    predictions = np.empty(len(labels))  # in the epoch's order
    for _ in range(cfg.epochs):
        order = rng.permutation(len(labels))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            y, w = labels[batch], sample_weight[batch]
            cache = forward(store.gather(batch), params)
            predictions[start : start + len(batch)] = cache.prediction
            grads = backward(cache, y, w / len(batch))
            params = sgd_step(params, grads, cfg.learning_rate)
        epoch_loss = sample_weight[order] @ loss(predictions, labels[order])
        history.append(float(epoch_loss) / len(labels))
    return params, history


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(params: ModelParams, path, *, segmentation: SegmentationConfig) -> None:
    """Binary checkpoint: magic, version, JSON header, the float64 LE parameter vector."""
    header = {
        **asdict(params.config),
        "segmentation": asdict(segmentation),
        "params": [{"name": name, "shape": list(a.shape)} for name, a in params.arrays.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = params.vector.astype("<f8").tobytes()
    write_atomic(
        path,
        CEGM_MAGIC
        + struct.pack("<I", CEGM_VERSION)
        + struct.pack("<I", len(header_bytes))
        + header_bytes
        + blob,
    )


def load_checkpoint(path) -> tuple[ModelParams, SegmentationConfig]:
    """Parameters plus the segmentation config they were trained with.

    The file is checked here, once: a header object with exactly the keys
    of `CEGM_HEADER_KEYS`, each non-null, the model and segmentation keys
    read like the run config's sections, the segmentation object holding
    every field of its config, a name/shape table equal to the one its
    model config implies, and finite weights. A header that still holds
    the retired `similarity` key names it as unknown: retrain the model.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    if len(raw) < 12:
        raise TruncatedFileError(f"checkpoint header truncated: {len(raw)} bytes")
    if raw[:4] != CEGM_MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {CEGM_MAGIC!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CEGM_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<I", raw, 8)
    if len(raw) < 12 + header_len:
        raise TruncatedFileError("checkpoint header truncated")
    try:
        header = json.loads(
            raw[12 : 12 + header_len].decode("utf-8"),
            object_pairs_hook=unique_keys(FormatError, "checkpoint header"),
        )
        if not isinstance(header, dict):
            raise FormatError("checkpoint header must be a JSON object")
        unknown = set(header) - set(CEGM_HEADER_KEYS)
        if unknown:
            raise FormatError(f"unknown checkpoint header keys: {reprlib.repr(sorted(unknown))}")
        # A null counts as missing: a config would fill in a default.
        missing = [key for key in CEGM_HEADER_KEYS if header.get(key) is None]
        if missing:
            raise FormatError(f"checkpoint header lacks {missing}")
        config = config_from_json(ModelConfig, {key: header[key] for key in MODEL_KEYS}, "model")
        shapes = param_shapes(config)
        # Every field is written, so a missing one is damage, not a default.
        section, names = header["segmentation"], {f.name for f in fields(SegmentationConfig)}
        if isinstance(section, dict) and (lacking := names - set(section)):
            raise FormatError(f"checkpoint segmentation section lacks {sorted(lacking)}")
        segmentation = config_from_json(SegmentationConfig, section, "segmentation")
    except (ConfigError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed checkpoint header: {exc}") from exc
    if header["params"] != [{"name": n, "shape": list(s)} for n, s in shapes.items()]:
        raise FormatError("checkpoint parameter table differs from the one its config implies")

    expected = 12 + header_len + 8 * sum(math.prod(s) for s in shapes.values())
    if len(raw) != expected:
        raise TruncatedFileError(
            f"checkpoint payload length mismatch: expected {expected} bytes, got {len(raw)}"
        )
    vector = np.frombuffer(raw, dtype="<f8", offset=12 + header_len).astype(np.float64)
    params = ModelParams(config, vector)
    non_finite = [name for name, a in params.arrays.items() if not np.isfinite(a).all()]
    if non_finite:
        raise FormatError(f"checkpoint weights are not finite in {non_finite}")
    return params, segmentation
