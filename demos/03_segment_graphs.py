#!/usr/bin/env python3
"""Turn video segments into similarity graphs and compare edge structure.

Frames are nodes; cosine similarity (clamped at zero) weights the edges.
Segments of one length are built together as one `GraphBatch`;
`map_size_chunks` walks a video's spans in such chunks and hands each
graph's edge matrix back in span order. Within an abnormal segment the
planted frames sit in their own cluster, so their edges to normal frames
are visibly weaker, and an abnormal segment's mean edge weight is below
a normal one's.
"""

import numpy as np

from cegl import (
    SynthConfig,
    build_segment_graphs,
    derive_segment_labels,
    map_size_chunks,
    synth_video,
)

features, annotations, planted = synth_video(
    SynthConfig(
        segment_count=8,
        mean_segment_len=10,
        feature_dim=16,
        abnormal_segment_fraction=0.5,
        abnormal_frame_fraction=0.3,
        cluster_spread=0.16,
        abnormal_offset_norm=10.0,
        seed=3,
    ),
    video_id="demo",
)

spans = planted.spans()
lengths = [e - s for s, e in spans]
n = max(lengths, key=lengths.count)
batch = build_segment_graphs(features, [s for s in spans if s[1] - s[0] == n])
print(f"the {len(batch)} segments of {n} frames as one batch: features "
      f"{batch.node_features.shape}, edges {batch.edge_weights.shape}\n")

# A chunk holds segments of one length, so its batch has no padding.
edges = map_size_chunks(spans, lambda chunk: build_segment_graphs(features, chunk).edge_weights)
labels = derive_segment_labels(annotations, planted)
for label, name in ((0, "normal"), (1, "abnormal")):
    # mean over each graph's off-diagonal edges, then over the graphs
    weights = [w.sum() / max(1, w.shape[0] * (w.shape[0] - 1))
               for w, seg_label in zip(edges, labels) if seg_label == label]
    print(f"{name:8s} segments: {len(weights)} graphs, mean edge weight {np.mean(weights):.3f}")

print("\nwithin-cluster vs cross-cluster cosine weights per abnormal segment:")
for (s, e), w, label in zip(spans, edges, labels):
    if not label:
        continue
    marked = annotations.frame_labels[s:e].astype(bool)
    normal = ~marked
    within = w[np.ix_(normal, normal)]
    within = within[~np.eye(normal.sum(), dtype=bool)].mean()
    across = w[np.ix_(normal, marked)].mean()
    print(
        f"  segment at frame {s:3d}: normal-normal {within:.3f}, "
        f"normal-abnormal {across:.3f}"
    )
