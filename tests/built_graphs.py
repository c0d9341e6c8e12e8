"""Graphs for tests, built by the production builder `build_segment_graphs`."""

import numpy as np

from cegl.dataio import FeatureMatrix
from cegl.graph import GraphBatch, GraphRows, build_segment_graphs


def graph_of(values) -> GraphBatch:
    """The one-graph batch of a segment of these frames, as `cegl train` builds it."""
    values = np.asarray(values, dtype=np.float64)
    return build_segment_graphs(FeatureMatrix("v", values), [(0, len(values))])


def padded(graphs) -> GraphBatch:
    """One zero-padded batch of one-graph batches, gathered as training gathers a mini-batch.

    The store holds each graph as the one span of a video of its own frames.
    """
    videos = [(FeatureMatrix("v", g.node_features[0]), [(0, len(g.node_features[0]))])
              for g in graphs]
    return GraphRows(videos).gather(np.arange(len(graphs)))
