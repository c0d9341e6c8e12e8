#!/usr/bin/env python3
"""Train the weakly supervised segment classifier end to end.

Four synthetic videos train the model (only segment-level labels are
used); two held-out videos measure generalization. Takes ~half a minute.
"""

from cegl import (
    GraphBatch,
    ModelConfig,
    SegmentationConfig,
    SynthConfig,
    TrainConfig,
    build_segment_graphs,
    confusion,
    derive_segment_labels,
    forward,
    init_params,
    map_size_chunks,
    pelt,
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

train_graphs = []
for features, annotations, _ in videos[:4]:
    partition = pelt(features, seg_cfg)
    graphs = map_size_chunks(  # built one batch of equal-length segments at a time
        partition.spans(), lambda spans: build_segment_graphs(features, spans)
    )
    train_graphs += zip(graphs, derive_segment_labels(annotations, partition).tolist())
print(f"training on {len(train_graphs)} segment graphs from 4 videos")

model_cfg = ModelConfig(
    (16, 32, 16), aggregator_kind="mean", readout_kind="attention", attention_averaged=False
)
params = init_params(model_cfg, seed=5, init_scale=2.0)
cfg = TrainConfig(
    learning_rate=0.001, batch_size=8, epochs=600, seed=6, init_scale=2.0,
    class_weighting=True,
)
params, history = train(train_graphs, params, cfg)
print(f"loss: {history[0]:.3f} -> {history[-1]:.3f} over {len(history)} epochs")

preds, labels = [], []
for features, annotations, _ in videos[4:]:
    partition = pelt(features, seg_cfg)
    graphs = map_size_chunks(  # built one batch of equal-length segments at a time
        partition.spans(), lambda spans: build_segment_graphs(features, spans)
    )
    # one pass over the video's graphs, padded to the longest as training pads a mini-batch
    preds += (forward(GraphBatch.pack(graphs), params).prediction >= 0.5).astype(int).tolist()
    labels += derive_segment_labels(annotations, partition).tolist()

report = weighted_metrics(confusion(preds, labels))
print(f"held-out segments:  {len(labels)}")
print(f"accuracy:           {report.accuracy:.3f}")
print(f"sensitivity:        {report.sensitivity:.3f}")
print(f"specificity:        {report.specificity:.3f}")
print(f"weighted F-score:   {report.fscore:.3f}")
