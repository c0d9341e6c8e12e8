#!/usr/bin/env python3
"""Train the weakly supervised segment classifier end to end.

Four synthetic videos train the model (only segment-level labels are
used); two held-out videos measure generalization. Takes ~half a minute.
"""

import numpy as np

from cegl import (
    GraphRows,
    ModelConfig,
    SegmentationConfig,
    SynthConfig,
    TrainConfig,
    build_segment_graphs,
    confusion,
    derive_segment_labels,
    init_params,
    map_size_chunks,
    pelt,
    score_segments,
    synth_video,
    train,
    weighted_metrics,
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
# one store of the training videos' segment graphs, built one batch of
# equal-length segments at a time, and one weak label per graph
train_graphs = GraphRows(
    [(features, partition.spans()) for (features, _, _), partition in zip(videos, partitions)])
train_labels = np.concatenate([derive_segment_labels(annotations, partition)
                               for (_, annotations, _), partition in zip(videos, partitions)])
print(f"training on {len(train_labels)} segment graphs from 4 videos")

model_cfg = ModelConfig(
    (16, 32, 16), aggregator_kind="mean", readout_kind="attention", attention_averaged=False
)
params = init_params(model_cfg, seed=5, init_scale=2.0)
cfg = TrainConfig(
    learning_rate=0.001, batch_size=8, epochs=600, seed=6, init_scale=2.0,
    class_weighting=True,
)
params, history = train(train_graphs, train_labels, params, cfg)
print(f"loss: {history[0]:.3f} -> {history[-1]:.3f} over {len(history)} epochs")

preds, labels = [], []
for features, annotations, _ in videos[4:]:
    partition = pelt(features, seg_cfg)
    # one unpadded pass per batch of equal-length segments, as `cegl classify` scores them
    scored = map_size_chunks(partition.spans(), lambda spans: score_segments(
        build_segment_graphs(features, spans), params, frames="none"))
    preds += [int(score >= 0.5) for score, _ in scored]
    labels += derive_segment_labels(annotations, partition).tolist()

report = weighted_metrics(confusion(preds, labels))
print(f"held-out segments:  {len(labels)}")
print(f"accuracy:           {report.accuracy:.3f}")
print(f"sensitivity:        {report.sensitivity:.3f}")
print(f"specificity:        {report.specificity:.3f}")
print(f"weighted F-score:   {report.fscore:.3f}")
