#!/usr/bin/env python3
"""Generate a synthetic feature video and poke at what got planted.

The generator plants change points (segment boundaries), per-segment
feature clusters, and scattered abnormal frames inside a chosen fraction
of segments. Everything is reproducible from the seed.
"""

import numpy as np

from cegl import SynthConfig, derive_segment_labels, synth_video
from cegl.dataio import read_feature_matrix, write_feature_matrix

cfg = SynthConfig(
    segment_count=12,
    mean_segment_len=10,
    feature_dim=16,
    abnormal_segment_fraction=0.5,
    abnormal_frame_fraction=0.35,
    cluster_spread=0.16,
    abnormal_offset_norm=10.0,
    seed=7,
)

features, annotations, planted = synth_video(cfg, video_id="demo")

print(f"video '{features.video_id}': {features.frame_count} frames x {features.feature_dim} dims")
print(f"planted boundaries: {planted.boundaries}")
print(f"abnormal frames:    {int(annotations.frame_labels.sum())} of {features.frame_count}")

labels = derive_segment_labels(annotations, planted)
print(f"segment labels:     {labels.tolist()}  (1 = contains an abnormal frame)")

# Abnormal frames sit far from their segment's centroid.
for (s, e), label in zip(planted.spans(), labels):
    if not label:
        continue
    block = features.values[s:e]
    dists = np.linalg.norm(block - block.mean(axis=0), axis=1)
    marked = np.flatnonzero(annotations.frame_labels[s:e])
    print(
        f"  segment [{s:3d},{e:3d}): marked frames {marked.tolist()} "
        f"mean dist {dists[marked].mean():.2f} vs others {np.delete(dists, marked).mean():.2f}"
    )

# Round-trip through the binary feature format is bit-exact.
write_feature_matrix(features, "/tmp/demo.cegf")
again = read_feature_matrix("/tmp/demo.cegf")
quantized = features.values.astype(np.float32).astype(np.float64)
print(f"binary round-trip exact: {np.array_equal(again.values, quantized)}")
