"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np
import pytest

from cegl.dataio import (
    Annotations,
    FeatureMatrix,
    SynthConfig,
    derive_segment_labels,
    read_feature_matrix,
    synth_video,
    write_feature_matrix,
)
from cegl.errors import FormatError, TruncatedFileError
from cegl.graph import (
    GraphBatch,
    SimilarityConfig,
    build_graph,
    build_segment_graphs,
    map_size_chunks,
)
from cegl import metrics
from cegl.metrics import confusion, coverage_curve, weighted_metrics
from cegl.model import (
    AGGREGATOR_KINDS,
    READOUT_KINDS,
    ModelConfig,
    TrainConfig,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from cegl.numerics import make_rng
from cegl.segmentation import (
    Partition,
    SegmentationConfig,
    optimal_partition_oracle,
    partition_objective,
    pelt,
)
from gradcheck import check_gradients


def report(line):
    print(f"\n[PASS] {line}")


# ---------------------------------------------------------------------------
# 1. PELT equals the exact dynamic program


def test_criterion_1_pelt_oracle_equivalence():
    started = time.time()
    rng = make_rng(1001)
    for trial in range(200):
        t = int(rng.integers(2, 41))
        d = int(rng.integers(1, 5))
        values = rng.standard_normal((t, d))
        if t > 6:  # plant up to two level shifts
            for _ in range(int(rng.integers(0, 3))):
                cut = int(rng.integers(1, t))
                values[cut:] += rng.standard_normal(d) * rng.uniform(1, 5)
        f = FeatureMatrix(f"t{trial}", values)
        beta = float(rng.uniform(0.05, 4.0 * d))
        min_len = int(rng.integers(1, 4))
        cfg = SegmentationConfig(penalty=beta, min_len=min_len)

        fast = pelt(f, cfg)
        slow = optimal_partition_oracle(f, cfg)
        obj_fast = partition_objective(f, fast, beta)
        obj_slow = partition_objective(f, slow, beta)
        if obj_fast != obj_slow:
            rel = abs(obj_fast - obj_slow) / max(abs(obj_slow), 1e-300)
            assert rel <= 1e-9, f"trial {trial}: objectives {obj_fast} vs {obj_slow}"
        assert fast.boundaries == slow.boundaries, f"trial {trial}"
    elapsed = time.time() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(f"1. PELT-oracle equivalence on 200 random sequences ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Analytic gradients match central finite differences


def test_criterion_2_gradient_correctness():
    started = time.time()
    for agg in AGGREGATOR_KINDS:
        for readout in READOUT_KINDS:
            for seed in range(20):
                rng = make_rng(seed)
                n = int(rng.integers(2, 7))
                d = int(rng.integers(2, 6))
                g = build_graph(
                    FeatureMatrix("v", rng.standard_normal((n, d))), SimilarityConfig()
                )
                dims = (d, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
                params = init_params(
                    ModelConfig(dims, agg, readout), seed=int(rng.integers(0, 1000))
                )
                check_gradients([g], params, [seed % 2])
    elapsed = time.time() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(
        "2. analytic gradients match finite differences for "
        f"{len(AGGREGATOR_KINDS)}x{len(READOUT_KINDS)} kinds x 20 graphs ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 3. Permutation behavior


def test_criterion_3_permutation_properties():
    rng = make_rng(3003)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(2, 6))
        g = build_graph(FeatureMatrix("v", rng.standard_normal((n, d))), SimilarityConfig())
        params = init_params(
            ModelConfig((d, 5, 4), "mean", "attention"), seed=int(rng.integers(0, 1000))
        )
        base = forward(GraphBatch.pack([g]), params).prediction[0]
        perm = rng.permutation(n)
        from cegl.graph import SegmentGraph

        permuted = SegmentGraph(
            node_features=g.node_features[perm],
            edge_weights=g.edge_weights[np.ix_(perm, perm)],
        )
        assert abs(forward(GraphBatch.pack([permuted]), params).prediction[0] - base) <= 1e-9

    # gated runs reproduce bit-identically from a fixed seed
    rng = make_rng(3004)
    graphs = [
        build_graph(FeatureMatrix("v", rng.standard_normal((5, 4))), SimilarityConfig())
        for _ in range(6)
    ]
    def gated_run():
        params = init_params(ModelConfig((4, 5, 4), "gated", "attention"), seed=99)
        labelled = [(g, i % 2) for i, g in enumerate(graphs)]
        params, _ = train(labelled, params, TrainConfig(epochs=2, seed=5))
        return np.concatenate(
            [params.vector, forward(GraphBatch.pack(graphs), params).prediction]
        )

    first, second = gated_run(), gated_run()
    assert np.array_equal(first, second)
    report("3. mean-aggregator permutation invariance; gated runs bit-identical")


# ---------------------------------------------------------------------------
# 4. End-to-end synthetic reproduction of the training/evaluation protocol


END_TO_END = {
    # Six videos of ~40 segments; offset-to-spread ratio 62.5 (>= 5).
    "synth": dict(
        segment_count=40,
        mean_segment_len=10,
        feature_dim=16,
        abnormal_segment_fraction=0.5,
        abnormal_frame_fraction=0.35,
        cluster_spread=0.16,
        abnormal_offset_norm=10.0,
    ),
    "penalty": 12.0,
    "layer_dims": (16, 32, 16),
    "aggregator": "mean",
    "readout": "attention",
    "init_scale": 2.0,
    # Optimizer: learning rate 0.001, batch size 8, at least 100 epochs
    # (600 here; runtime stays far below the cap).
    "train": dict(learning_rate=0.001, batch_size=8, epochs=600, seed=6,
                  init_scale=2.0, class_weighting=True),
    "ks": (1, 2, 3, 5, 7, 9),
}


def test_criterion_4_end_to_end_synthetic_protocol():
    started = time.time()
    videos = [
        synth_video(SynthConfig(seed=100 + i, **END_TO_END["synth"]), f"v{i}")
        for i in range(6)
    ]
    seg_cfg = SegmentationConfig(penalty=END_TO_END["penalty"])

    train_graphs = []
    for features, ann, _planted in videos[:4]:
        partition = pelt(features, seg_cfg)
        graphs = map_size_chunks(
            partition.spans(), lambda spans: build_segment_graphs(features, spans)
        )
        train_graphs += zip(graphs, derive_segment_labels(ann, partition).tolist())

    params = init_params(
        ModelConfig(
            END_TO_END["layer_dims"],
            END_TO_END["aggregator"],
            END_TO_END["readout"],
            attention_averaged=False,
        ),
        seed=5,
        init_scale=END_TO_END["init_scale"],
    )
    params, history = train(train_graphs, params, TrainConfig(**END_TO_END["train"]))
    assert history[-1] < history[0]

    preds, labels, test_data = [], [], []
    for features, ann, _planted in videos[4:]:
        partition = pelt(features, seg_cfg)
        graphs = map_size_chunks(
            partition.spans(), lambda spans: build_segment_graphs(features, spans)
        )
        preds += (forward(GraphBatch.pack(graphs), params).prediction >= 0.5).astype(int).tolist()
        labels += derive_segment_labels(ann, partition).tolist()
        test_data.append((features, ann, partition))

    accuracy = weighted_metrics(confusion(preds, labels)).accuracy
    curve = coverage_curve(params, test_data, list(END_TO_END["ks"]), localize_all=True)
    cov = dict(curve)

    elapsed = time.time() - started
    assert accuracy >= 0.90, f"held-out accuracy {accuracy:.3f}"
    assert cov[1] >= 0.80, f"coverage@1 {cov[1]:.3f}"
    assert cov[2] >= cov[1], f"coverage@2 {cov[2]:.3f} < coverage@1 {cov[1]:.3f}"
    values = [c for _, c in curve]
    assert values == sorted(values), f"coverage not monotone: {values}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(
        f"4. end-to-end synthetic protocol: accuracy {accuracy:.3f}, "
        f"coverage {['%.3f' % v for v in values]} over k={list(END_TO_END['ks'])} "
        f"({elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# 5. Coverage arithmetic


def test_criterion_5_coverage_arithmetic(monkeypatch):
    n_seg = 40
    frame_labels = np.zeros(10 * n_seg, dtype=np.int64)
    frame_labels[::10] = 1  # every segment abnormal at its first frame
    ann = Annotations("v", frame_labels=frame_labels)
    partition = Partition(tuple(range(0, 10 * n_seg + 1, 10)))

    def frame_scores(hits):
        # hit segments rank their abnormal frame first, the rest a normal one
        return {10 * i: np.eye(10)[0 if i < hits else 5] for i in range(n_seg)}

    monkeypatch.setattr(metrics, "build_segment_graphs", lambda features, chunk: chunk)
    for hits, want in ((37, 0.925), (39, 0.975)):
        scores = frame_scores(hits)
        monkeypatch.setattr(metrics, "score_segments", lambda chunk, params, frames: [
            (1.0, scores[s]) for s, _ in chunk])
        assert hits / n_seg == want
        assert coverage_curve(None, [(None, ann, partition)], [1]) == [(1, want)]
    report("5. coverage arithmetic: 37/40 = 0.925 and 39/40 = 0.975 exactly")


# ---------------------------------------------------------------------------
# 6. Binary format round-trips


def test_criterion_6_format_round_trips(tmp_path):
    rng = make_rng(6006)
    for i in range(50):
        t = int(rng.integers(1, 30))
        d = int(rng.integers(1, 10))
        values = rng.standard_normal((t, d)).astype(np.float32).astype(np.float64)
        m = FeatureMatrix(f"m{i}", values)
        path = tmp_path / f"m{i}.cegf"
        write_feature_matrix(m, path)
        back = read_feature_matrix(path)
        assert np.array_equal(back.values, m.values)

    for i in range(50):
        dims = (
            int(rng.integers(1, 6)),
            int(rng.integers(1, 6)),
            int(rng.integers(1, 6)),
        )
        # i walks every aggregator/readout pairing in turn
        agg = AGGREGATOR_KINDS[i % len(AGGREGATOR_KINDS)]
        readout = READOUT_KINDS[i // len(AGGREGATOR_KINDS) % len(READOUT_KINDS)]
        params = init_params(
            ModelConfig(dims, agg, readout, a_dim=int(rng.integers(1, 5))), seed=i
        )
        path = tmp_path / f"p{i}.cegm"
        save_checkpoint(params, path, segmentation=SegmentationConfig())
        loaded, _seg = load_checkpoint(path)
        assert np.array_equal(loaded.vector, params.vector)
        assert loaded.config.layer_dims == params.config.layer_dims

    good_feature = tmp_path / "m0.cegf"
    corrupt = tmp_path / "bad.cegf"
    corrupt.write_bytes(b"CEGX" + good_feature.read_bytes()[4:])
    with pytest.raises(FormatError):
        read_feature_matrix(corrupt)
    short = tmp_path / "short.cegf"
    short.write_bytes(good_feature.read_bytes()[:-2])
    with pytest.raises(TruncatedFileError):
        read_feature_matrix(short)

    good_ckpt = tmp_path / "p0.cegm"
    corrupt = tmp_path / "bad.cegm"
    corrupt.write_bytes(b"XXXX" + good_ckpt.read_bytes()[4:])
    with pytest.raises(FormatError):
        load_checkpoint(corrupt)
    short = tmp_path / "short.cegm"
    short.write_bytes(good_ckpt.read_bytes()[:-2])
    with pytest.raises(TruncatedFileError):
        load_checkpoint(short)

    report("6. CEGF and CEGM round-trip bit-exactly on 50 instances each; corrupt inputs rejected")


# ---------------------------------------------------------------------------
# 7. Weak labels obey the at-least-one-abnormal-frame rule


def test_criterion_7_weak_label_rule():
    rng = make_rng(7007)
    mismatches = 0
    for _ in range(100):
        t = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=t)
        interior = sorted(set(rng.integers(1, t, size=int(rng.integers(0, t // 2 + 1))).tolist()))
        partition = Partition(tuple([0] + interior + [t]))
        ann = Annotations("v", frame_labels=labels)
        got = derive_segment_labels(ann, partition).tolist()
        expected = [int(any(labels[s:e])) for s, e in partition.spans()]
        mismatches += int(got != expected)
    assert mismatches == 0
    report("7. weak segment labels match the brute-force any() rule on 100 random pairs")
