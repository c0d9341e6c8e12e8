#!/usr/bin/env python3
"""Frame localization with the temporal pool, and the coverage-vs-k curve.

After training, the readout is repurposed to score every frame of a
segment; the top-k frames are the localization output. Coverage counts
the abnormal segments whose selection caught at least one truly abnormal
frame. Takes ~half a minute (training dominates).
"""

import numpy as np

from cegl import (
    GraphRows,
    ModelConfig,
    SegmentationConfig,
    SynthConfig,
    TrainConfig,
    build_segment_graphs,
    coverage_curve,
    derive_segment_labels,
    init_params,
    map_size_chunks,
    pelt,
    score_segments,
    synth_video,
    topk_select,
    train,
)

SYNTH = dict(
    segment_count=40,
    mean_segment_len=10,
    feature_dim=16,
    abnormal_segment_fraction=0.5,
    abnormal_frame_fraction=0.35,
    cluster_spread=0.16,
    abnormal_offset_norm=10.0,
)

videos = [synth_video(SynthConfig(seed=100 + i, **SYNTH), f"v{i}") for i in range(6)]
seg_cfg = SegmentationConfig(penalty=12.0)

partitions = [pelt(features, seg_cfg) for features, _, _ in videos[:4]]
train_graphs = GraphRows(
    [(features, partition.spans()) for (features, _, _), partition in zip(videos, partitions)])
train_labels = np.concatenate([derive_segment_labels(annotations, partition)
                               for (_, annotations, _), partition in zip(videos, partitions)])
model_cfg = ModelConfig((16, 32, 16), "mean", "attention", attention_averaged=False)
params = init_params(model_cfg, seed=5, init_scale=2.0)
params, _ = train(
    train_graphs,
    train_labels,
    params,
    TrainConfig(learning_rate=0.001, batch_size=8, epochs=600, seed=6,
                init_scale=2.0, class_weighting=True),
)

# Localize one held-out video and show a few abnormal segments.
features, annotations, _ = videos[4]
partition = pelt(features, seg_cfg)
labels = derive_segment_labels(annotations, partition)
spans = partition.spans()

# One forward pass per batch of equal-length segments gives each segment's
# score and its frame scores; map_size_chunks puts them back in span order.
scored = map_size_chunks(spans, lambda chunk: score_segments(
    build_segment_graphs(features, chunk), params, frames="all"))

print("top-2 selections in the first abnormal segments of a held-out video:")
shown = 0
for i, (score, frame_scores) in enumerate(scored):
    if not labels[i] or shown >= 5:
        continue
    s, e = spans[i]
    picked = topk_select(frame_scores, 2) + s
    truth = np.flatnonzero(annotations.frame_labels[s:e]) + s
    hit = bool(set(picked) & set(truth))
    print(f"  segment [{s:3d},{e:3d}) score {score:.2f}: picked {picked.tolist()} "
          f"truth {truth.tolist()} -> {'hit' if hit else 'miss'}")
    shown += 1

# Coverage over both held-out videos for the usual k sweep.
test_data = []
for features, annotations, _ in videos[4:]:
    partition = pelt(features, seg_cfg)
    test_data.append((features, annotations, partition))
curve = coverage_curve(params, test_data, [1, 2, 3, 5, 7, 9], localize_all=True)
print("\ncoverage by k (pooled over held-out videos):")
for k, c in curve:
    print(f"  k={k}: {c:.3f}")
