"""Two-layer message-passing classifier trained on weak segment labels.

Forward pass, per graph: node states start at the raw frame features.
Each layer first aggregates every node's neighborhood into a message,
then re-embeds the node as ReLU(W . concat(state, message)). After the
final layer an attention readout collapses the node embeddings into one
graph vector, and a sigmoid head scores it.

Aggregator kinds
----------------
mean     message_i = sum_j e_ij h_j / sum_j e_ij   (zero vector if no
         positive edges; the zero diagonal keeps the node itself out)
maxpool  elementwise max over {e_ij h_j, j != i}
gated    a gated recurrence walked over neighbors j in ascending
         temporal order, state initialized to the node's own embedding.
         With message m = e_ij h_j and state s, one step is

             z = logistic(U . [s, m])        (update gate)
             r = logistic(R . [s, m])        (reset gate)
             c = tanh(C . [r * s, m])        (candidate)
             s <- (1 - z) * s + z * c

         The final state is the message. The recurrence is deliberately
         order-dependent; frames carry a natural temporal order.

Readout kinds: attention (softmax over u . tanh(W_a h_i), then the
attention-weighted node sum divided by n), mean, sum, maxpool.

Parameters live in one ordered name -> array table (`param_shapes`);
gradients use the same table. Gate weights exist only for the gated
aggregator and attention weights only for the attention readout.

Gradients are derived by hand (no autodiff) and checked against central
finite differences in the test suite. Training is plain SGD on the
binary cross entropy of the segment labels.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dataio import check_types, config_from_json, write_atomic
from .errors import ConfigError, FormatError, NumericError, TruncatedFileError
from .graph import SegmentGraph, SimilarityConfig
from .numerics import make_rng, sigmoid, softmax
from .segmentation import SegmentationConfig

log = logging.getLogger(__name__)

AGGREGATOR_KINDS = ("mean", "maxpool", "gated")
READOUT_KINDS = ("attention", "mean", "sum", "maxpool")

CEGM_MAGIC = b"CEGM"
CEGM_VERSION = 2
CEGM_HEADER_KEYS = (
    "layer_dims",
    "aggregator_kind",
    "readout_kind",
    "a_dim",
    "attention_averaged",
    "similarity",
    "segmentation",
    "params",
)

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


def param_shapes(layer_dims, aggregator_kind, readout_kind, a_dim) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter the configured model reads, in table order.

    Layer l's transform maps [state, message] of width 2*dims[l] to
    dims[l+1]; its gates (gated only) are square in dims[l]. Raises
    ConfigError on an invalid configuration.
    """
    if len(layer_dims) < 2 or any(not isinstance(d, int) or d < 1 for d in layer_dims):
        raise ConfigError(f"layer_dims must be positive ints, got {layer_dims}")
    if aggregator_kind not in AGGREGATOR_KINDS:
        raise ConfigError(f"unknown aggregator_kind {aggregator_kind!r}")
    if readout_kind not in READOUT_KINDS:
        raise ConfigError(f"unknown readout_kind {readout_kind!r}")
    if not isinstance(a_dim, int) or a_dim < 1:
        raise ConfigError(f"a_dim must be a positive int, got {a_dim!r}")
    shapes: dict[str, tuple[int, ...]] = {}
    for layer, (prev, cur) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        shapes[transform_name(layer)] = (cur, 2 * prev)
        if aggregator_kind == "gated":
            for gate in GATE_NAMES:
                shapes[gate_name(layer, gate)] = (prev, 2 * prev)
    if readout_kind == "attention":
        shapes[ATTENTION_TRANSFORM] = (a_dim, layer_dims[-1])
        shapes[ATTENTION_VECTOR] = (a_dim,)
    shapes[CLASSIFIER_WEIGHTS] = (layer_dims[-1],)
    shapes[CLASSIFIER_BIAS] = (1,)
    return shapes


@dataclass
class ModelParams:
    """A model's configuration plus its parameter table.

    `arrays` holds exactly the entries of `param_shapes` for this
    configuration, in that order.
    """

    layer_dims: tuple[int, ...]  # (d_in, h1, h2)
    aggregator_kind: str
    readout_kind: str
    a_dim: int
    # The attention readout divides the weighted node sum by n on top of
    # the softmax normalization (the default). Setting this False drops
    # the extra 1/n (softmax already sums to one), which keeps the graph
    # embedding scale independent of segment length.
    attention_averaged: bool
    arrays: dict[str, np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 8
    epochs: int = 100
    seed: int = 0
    init_scale: float = 1.0
    shuffle: bool = True
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


def init_params(
    layer_dims,
    aggregator_kind: str = "gated",
    readout_kind: str = "attention",
    seed: int = 0,
    a_dim: int | None = None,
    init_scale: float = 1.0,
    attention_averaged: bool = True,
) -> ModelParams:
    """Seeded uniform(-s, s) weights with s = init_scale / sqrt(fan_in); biases 0."""
    layer_dims = tuple(int(d) for d in layer_dims)
    if a_dim is None and layer_dims:
        a_dim = layer_dims[-1]
    kept = param_shapes(layer_dims, aggregator_kind, readout_kind, a_dim)

    # Every configuration draws the full gated-and-attention table in one
    # fixed order and keeps only the arrays it reads. A seed thus gives each
    # kept array the same values whatever the kinds, and the same values as
    # when every model still stored the unused arrays.
    rng = make_rng(seed)
    arrays = {}
    for name, shape in param_shapes(layer_dims, "gated", "attention", a_dim).items():
        if name == CLASSIFIER_BIAS:
            w = np.zeros(shape)
        else:
            s = init_scale / np.sqrt(shape[-1])  # the last axis is the fan-in
            w = rng.uniform(-1.0, 1.0, size=shape) * s
        if name in kept:
            arrays[name] = w
    return ModelParams(
        layer_dims=layer_dims,
        aggregator_kind=aggregator_kind,
        readout_kind=readout_kind,
        a_dim=a_dim,
        attention_averaged=attention_averaged,
        arrays=arrays,
    )


def zero_gradients(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(w) for name, w in params.arrays.items()}


# ---------------------------------------------------------------------------
# Neighborhood aggregation


@dataclass
class _GatedStep:
    state: np.ndarray  # state entering the step, (n, d)
    neighbor: np.ndarray  # neighbor index per node, (n,)
    weight: np.ndarray  # edge weight per node, (n,)
    z: np.ndarray
    r: np.ndarray
    cand: np.ndarray


def _mean_messages(edge_w: np.ndarray, h: np.ndarray):
    deg = edge_w.sum(axis=1)
    msgs = edge_w @ h
    nz = deg > 0
    msgs[nz] /= deg[nz, None]
    msgs[~nz] = 0.0
    return msgs, deg


def _maxpool_messages(edge_w: np.ndarray, h: np.ndarray):
    n, d = h.shape
    if n == 1:
        return np.zeros_like(h), None
    prod = edge_w[:, :, None] * h[None, :, :]
    prod[np.arange(n), np.arange(n), :] = -np.inf
    argmax = prod.argmax(axis=1)  # (n, d), first index wins on ties
    msgs = np.take_along_axis(prod, argmax[:, None, :], axis=1)[:, 0, :]
    return msgs, argmax


def _gated_messages(edge_w: np.ndarray, h: np.ndarray, update, reset, candidate):
    n, d = h.shape
    state = h.copy()
    steps: list[_GatedStep] = []
    idx = np.arange(n)
    # Node i's p-th neighbor in ascending temporal order is p for p < i,
    # else p + 1; all nodes advance one step together.
    for p in range(n - 1):
        j = np.where(p < idx, p, p + 1)
        w = edge_w[idx, j]
        msg = w[:, None] * h[j]
        gate_in = np.concatenate([state, msg], axis=1)
        z = sigmoid(gate_in @ update.T)
        r = sigmoid(gate_in @ reset.T)
        cand_in = np.concatenate([r * state, msg], axis=1)
        cand = np.tanh(cand_in @ candidate.T)
        steps.append(_GatedStep(state, j, w, z, r, cand))
        state = (1.0 - z) * state + z * cand
    return state, steps


def loss(y_hat: float, y: int) -> float:
    """Binary cross entropy with clamped logs."""
    p = min(max(y_hat, LOSS_CLAMP), 1.0 - LOSS_CLAMP)
    return -(y * np.log(p) + (1 - y) * np.log1p(-p))


# ---------------------------------------------------------------------------
# Forward with cache, exact backward


@dataclass
class ForwardCache:
    graph: SegmentGraph
    params: ModelParams
    node_embeddings: list[np.ndarray]  # H^0 .. H^L
    messages: list[np.ndarray]  # per layer
    stacked_inputs: list[np.ndarray]  # per layer, [H, messages]
    preacts: list[np.ndarray]  # per layer, before ReLU
    mean_degrees: list[np.ndarray | None]  # per layer (mean kind)
    maxpool_argmax: list[np.ndarray | None]  # per layer (maxpool kind)
    gated_steps: list[list[_GatedStep] | None]  # per layer (gated kind)
    attn_tanh: np.ndarray | None
    attention_weights: np.ndarray | None  # alpha
    readout_argmax: np.ndarray | None  # maxpool readout
    graph_embedding: np.ndarray
    logit: float
    prediction: float  # y_hat


def forward(g: SegmentGraph, params: ModelParams) -> ForwardCache:
    """Full forward pass caching every intermediate needed by backward."""
    if g.feature_dim != params.layer_dims[0]:
        raise ValueError(
            f"graph features have dim {g.feature_dim}, model expects {params.layer_dims[0]}"
        )
    p = params.arrays
    kind = params.aggregator_kind
    h = g.node_features
    embeddings = [h]
    messages, stacked_inputs, preacts = [], [], []
    mean_degrees, maxpool_argmax, gated_steps = [], [], []

    for layer in range(len(params.layer_dims) - 1):
        deg = argmax = steps = None
        if kind == "mean":
            msgs, deg = _mean_messages(g.edge_weights, h)
        elif kind == "maxpool":
            msgs, argmax = _maxpool_messages(g.edge_weights, h)
        elif kind == "gated":
            gates = [p[gate_name(layer, gate)] for gate in GATE_NAMES]
            msgs, steps = _gated_messages(g.edge_weights, h, *gates)
        else:
            raise ConfigError(f"unknown aggregator kind {kind!r}")
        stacked = np.concatenate([h, msgs], axis=1)
        pre = stacked @ p[transform_name(layer)].T
        h = np.maximum(pre, 0.0)
        messages.append(msgs)
        stacked_inputs.append(stacked)
        preacts.append(pre)
        mean_degrees.append(deg)
        maxpool_argmax.append(argmax)
        gated_steps.append(steps)
        embeddings.append(h)

    attn_tanh = alpha = readout_argmax = None
    if params.readout_kind == "attention":
        attn_tanh = np.tanh(h @ p[ATTENTION_TRANSFORM].T)
        scores = attn_tanh @ p[ATTENTION_VECTOR]
        alpha = softmax(scores)
        denom = g.n if params.attention_averaged else 1
        h_g = (alpha[:, None] * h).sum(axis=0) / denom
    elif params.readout_kind == "mean":
        h_g = h.mean(axis=0)
    elif params.readout_kind == "sum":
        h_g = h.sum(axis=0)
    elif params.readout_kind == "maxpool":
        readout_argmax = h.argmax(axis=0)
        h_g = h[readout_argmax, np.arange(h.shape[1])]
    else:
        raise ConfigError(f"unknown readout kind {params.readout_kind!r}")

    logit = float(p[CLASSIFIER_WEIGHTS] @ h_g + p[CLASSIFIER_BIAS][0])
    return ForwardCache(
        graph=g,
        params=params,
        node_embeddings=embeddings,
        messages=messages,
        stacked_inputs=stacked_inputs,
        preacts=preacts,
        mean_degrees=mean_degrees,
        maxpool_argmax=maxpool_argmax,
        gated_steps=gated_steps,
        attn_tanh=attn_tanh,
        attention_weights=alpha,
        readout_argmax=readout_argmax,
        graph_embedding=h_g,
        logit=logit,
        prediction=float(sigmoid(logit)),
    )


def _mean_backward(edge_w, deg, d_msgs):
    scaled = np.zeros_like(d_msgs)
    nz = deg > 0
    scaled[nz] = d_msgs[nz] / deg[nz, None]
    return edge_w.T @ scaled


def _maxpool_backward(edge_w, argmax, d_msgs, n, d):
    dh = np.zeros((n, d))
    if argmax is None:  # single node, messages were constant zero
        return dh
    rows = argmax.ravel()
    cols = np.tile(np.arange(d), n)
    weights = edge_w[np.repeat(np.arange(n), d), rows]
    np.add.at(dh, (rows, cols), weights * d_msgs.ravel())
    return dh


def _gated_backward(gates, grad_gates, steps, d_msgs, h):
    """Backward through one layer's recurrence; gates and their gradients in GATE_NAMES order."""
    update, reset, candidate = gates
    grad_update, grad_reset, grad_candidate = grad_gates
    d = h.shape[1]
    dh = np.zeros_like(h)
    dstate = d_msgs.copy()
    for st in reversed(steps):
        # The step's inputs are rebuilt as forward built them, not stored.
        msg = st.weight[:, None] * h[st.neighbor]
        gate_in = np.concatenate([st.state, msg], axis=1)
        cand_in = np.concatenate([st.r * st.state, msg], axis=1)
        dz = dstate * (st.cand - st.state)
        dcand = dstate * st.z
        dprev = dstate * (1.0 - st.z)

        dpre_c = dcand * (1.0 - st.cand**2)
        grad_candidate += dpre_c.T @ cand_in
        dcand_in = dpre_c @ candidate
        d_rs = dcand_in[:, :d]
        dmsg = dcand_in[:, d:].copy()
        dr = d_rs * st.state
        dprev += d_rs * st.r

        dpre_r = dr * st.r * (1.0 - st.r)
        grad_reset += dpre_r.T @ gate_in
        dgate_in = dpre_r @ reset
        dprev += dgate_in[:, :d]
        dmsg += dgate_in[:, d:]

        dpre_z = dz * st.z * (1.0 - st.z)
        grad_update += dpre_z.T @ gate_in
        dgate_in = dpre_z @ update
        dprev += dgate_in[:, :d]
        dmsg += dgate_in[:, d:]

        np.add.at(dh, st.neighbor, st.weight[:, None] * dmsg)
        dstate = dprev
    dh += dstate  # recurrence started from the node's own embedding
    return dh


def backward(
    cache: ForwardCache, g: SegmentGraph, params: ModelParams, y: int
) -> dict[str, np.ndarray]:
    """Exact gradients of the cross-entropy loss, as a table like params.arrays."""
    if cache.graph is not g or cache.params is not params:
        raise ConfigError("stale cache: backward needs the cache from forward on the same graph and params")
    p = params.arrays
    grads = zero_gradients(params)
    n = g.n
    h_final = cache.node_embeddings[-1]

    dlogit = cache.prediction - y  # sigmoid + cross entropy identity
    grads[CLASSIFIER_WEIGHTS] += dlogit * cache.graph_embedding
    grads[CLASSIFIER_BIAS] += dlogit
    dh_g = dlogit * p[CLASSIFIER_WEIGHTS]

    kind = params.readout_kind
    if kind == "attention":
        alpha = cache.attention_weights
        t = cache.attn_tanh
        denom = n if params.attention_averaged else 1
        dalpha = (h_final @ dh_g) / denom
        dh = alpha[:, None] * dh_g[None, :] / denom
        dscores = alpha * (dalpha - float(alpha @ dalpha))
        grads[ATTENTION_VECTOR] += t.T @ dscores
        dt = np.outer(dscores, p[ATTENTION_VECTOR])
        dpre = dt * (1.0 - t**2)
        grads[ATTENTION_TRANSFORM] += dpre.T @ h_final
        dh = dh + dpre @ p[ATTENTION_TRANSFORM]
    elif kind == "mean":
        dh = np.broadcast_to(dh_g / n, h_final.shape).copy()
    elif kind == "sum":
        dh = np.broadcast_to(dh_g, h_final.shape).copy()
    else:  # maxpool
        dh = np.zeros_like(h_final)
        cols = np.arange(h_final.shape[1])
        dh[cache.readout_argmax, cols] += dh_g

    agg = params.aggregator_kind
    for layer in reversed(range(len(params.layer_dims) - 1)):
        name = transform_name(layer)
        prev_dim = params.layer_dims[layer]
        dpre = dh * (cache.preacts[layer] > 0)
        grads[name] += dpre.T @ cache.stacked_inputs[layer]
        dstacked = dpre @ p[name]
        dh_self = dstacked[:, :prev_dim]
        d_msgs = dstacked[:, prev_dim:]

        h_in = cache.node_embeddings[layer]
        if agg == "mean":
            dh_in = _mean_backward(g.edge_weights, cache.mean_degrees[layer], d_msgs)
        elif agg == "maxpool":
            dh_in = _maxpool_backward(
                g.edge_weights, cache.maxpool_argmax[layer], d_msgs, n, prev_dim
            )
        else:
            names = [gate_name(layer, gate) for gate in GATE_NAMES]
            dh_in = _gated_backward(
                [p[k] for k in names],
                [grads[k] for k in names],
                cache.gated_steps[layer],
                d_msgs,
                h_in,
            )
        dh = dh_self + dh_in

    return grads


# ---------------------------------------------------------------------------
# Optimization


def sgd_step(params: ModelParams, grads: dict[str, np.ndarray], lr: float) -> ModelParams:
    """One plain gradient-descent update; rejects non-finite gradients."""
    if not all(np.isfinite(gw).all() for gw in grads.values()):
        raise NumericError("non-finite gradient; step aborted")
    return replace(
        params, arrays={name: w - lr * grads[name] for name, w in params.arrays.items()}
    )


def _accumulate(total: dict[str, np.ndarray], part: dict[str, np.ndarray], scale: float) -> None:
    for name, acc in total.items():
        acc += scale * part[name]


def train(
    graphs: list[tuple[SegmentGraph, int]],
    params: ModelParams,
    cfg: TrainConfig,
) -> tuple[ModelParams, list[float]]:
    """Mini-batch SGD over labelled segment graphs.

    Shuffling is deterministic from cfg.seed; within a batch, gradients
    are accumulated in fixed index order and averaged. Returns the final
    parameters and the mean per-graph loss of each epoch.
    """
    if not graphs:
        raise ConfigError("training needs at least one labelled graph")
    d_in = params.layer_dims[0]
    for g, label in graphs:
        if g.feature_dim != d_in:
            raise ConfigError(
                f"graph feature dim {g.feature_dim} does not match model input dim {d_in}"
            )
        if label not in (0, 1):
            raise ConfigError(f"labels must be 0 or 1, got {label!r}")
    labels = np.array([label for _, label in graphs])
    if labels.min() == labels.max():
        log.warning("training data holds a single class (%d) only", labels[0])

    class_weight = {0: 1.0, 1: 1.0}
    if cfg.class_weighting:
        for c in (0, 1):
            count = int((labels == c).sum())
            if count:
                class_weight[c] = len(graphs) / (2.0 * count)

    rng = make_rng(cfg.seed)
    history: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(graphs)) if cfg.shuffle else np.arange(len(graphs))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            total = zero_gradients(params)
            for i in batch:
                g, y = graphs[int(i)]
                w = class_weight[y]
                cache = forward(g, params)
                epoch_loss += w * loss(cache.prediction, y)
                _accumulate(total, backward(cache, g, params, y), w / len(batch))
            params = sgd_step(params, total, cfg.learning_rate)
        history.append(epoch_loss / len(graphs))
    return params, history


# ---------------------------------------------------------------------------
# Parameter vector packing (gradient checks) and checkpoints


def flatten_params(table: dict[str, np.ndarray]) -> np.ndarray:
    """A parameter or gradient table as one vector, in table order."""
    return np.concatenate([a.ravel() for a in table.values()])


def _split(vector: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    sizes = [math.prod(shape) for shape in shapes.values()]
    if vector.size != sum(sizes):
        raise ValueError(f"vector has {vector.size} entries, expected {sum(sizes)}")
    chunks = np.split(np.asarray(vector, dtype=np.float64), np.cumsum(sizes)[:-1])
    return {name: c.reshape(shape).copy() for c, (name, shape) in zip(chunks, shapes.items())}


def unflatten_params(vector: np.ndarray, template: ModelParams) -> ModelParams:
    shapes = {name: a.shape for name, a in template.arrays.items()}
    return replace(template, arrays=_split(vector, shapes))


def save_checkpoint(
    params: ModelParams,
    path,
    similarity: SimilarityConfig | None = None,
    segmentation: SegmentationConfig | None = None,
) -> None:
    """Binary checkpoint: magic, version, JSON header, float64 LE blobs."""
    header = {
        "layer_dims": list(params.layer_dims),
        "aggregator_kind": params.aggregator_kind,
        "readout_kind": params.readout_kind,
        "a_dim": params.a_dim,
        "attention_averaged": params.attention_averaged,
        "similarity": None if similarity is None else asdict(similarity),
        "segmentation": None if segmentation is None else asdict(segmentation),
        "params": [{"name": name, "shape": list(a.shape)} for name, a in params.arrays.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = b"".join(a.astype("<f8").tobytes() for a in params.arrays.values())
    write_atomic(
        path,
        CEGM_MAGIC
        + struct.pack("<I", CEGM_VERSION)
        + struct.pack("<I", len(header_bytes))
        + header_bytes
        + blob,
    )


def load_checkpoint(
    path,
) -> tuple[ModelParams, SimilarityConfig | None, SegmentationConfig | None]:
    """Parameters plus the similarity and segmentation configs saved with them.

    The header is checked here, once: every key present, known kinds, and
    a name/shape table equal to the one its model config implies.
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
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
        missing = [key for key in CEGM_HEADER_KEYS if key not in header]
        if missing:
            raise FormatError(f"checkpoint header lacks {missing}")
        layer_dims = tuple(header["layer_dims"])
        shapes = param_shapes(
            layer_dims, header["aggregator_kind"], header["readout_kind"], header["a_dim"]
        )
        averaged = header["attention_averaged"]
        if not isinstance(averaged, bool):
            raise ConfigError(f"attention_averaged must be true or false, got {averaged!r}")
        sim, seg = header["similarity"], header["segmentation"]
        similarity = None if sim is None else config_from_json(SimilarityConfig, sim, "similarity")
        segmentation = (
            None if seg is None else config_from_json(SegmentationConfig, seg, "segmentation")
        )
    except (ConfigError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed checkpoint header: {exc}") from exc
    if header["params"] != [{"name": n, "shape": list(s)} for n, s in shapes.items()]:
        raise FormatError("checkpoint parameter table differs from the one its config implies")

    expected = 12 + header_len + 8 * sum(math.prod(s) for s in shapes.values())
    if len(raw) != expected:
        raise TruncatedFileError(
            f"checkpoint payload length mismatch: expected {expected} bytes, got {len(raw)}"
        )
    params = ModelParams(
        layer_dims=layer_dims,
        aggregator_kind=header["aggregator_kind"],
        readout_kind=header["readout_kind"],
        a_dim=header["a_dim"],
        attention_averaged=averaged,
        arrays=_split(np.frombuffer(raw, dtype="<f8", offset=12 + header_len), shapes),
    )
    return params, similarity, segmentation
