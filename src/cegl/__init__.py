"""Weakly supervised abnormality localization for long frame-feature sequences.

Pipeline: penalized change-point segmentation of a video's feature rows,
a complete similarity graph per segment, a two-layer message-passing
classifier trained on segment-level weak labels, and an inference-time
temporal pool that ranks and selects the top-k frames per abnormal
segment, evaluated with the coverage metric.
"""

from .dataio import (
    Annotations,
    FeatureMatrix,
    SynthConfig,
    derive_segment_labels,
    read_annotations,
    read_feature_matrix,
    synth_video,
    write_annotations,
    write_feature_matrix,
)
from .graph import GraphBatch, GraphRows, SimilarityConfig, build_segment_graphs, map_size_chunks
from .localization import node_scores, score_segments, topk_select
from .metrics import ConfusionCounts, MetricsReport, confusion, coverage_curve, weighted_metrics
from .model import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .segmentation import (
    Partition,
    SegmentationConfig,
    default_penalty,
    optimal_partition_oracle,
    pelt,
)

__version__ = "0.1.0"

__all__ = [
    "Annotations",
    "ConfusionCounts",
    "FeatureMatrix",
    "GraphBatch",
    "GraphRows",
    "MetricsReport",
    "ModelConfig",
    "ModelParams",
    "Partition",
    "SegmentationConfig",
    "SimilarityConfig",
    "SynthConfig",
    "TrainConfig",
    "build_segment_graphs",
    "confusion",
    "coverage_curve",
    "default_penalty",
    "derive_segment_labels",
    "forward",
    "init_params",
    "load_checkpoint",
    "map_size_chunks",
    "node_scores",
    "optimal_partition_oracle",
    "pelt",
    "read_annotations",
    "read_feature_matrix",
    "save_checkpoint",
    "score_segments",
    "synth_video",
    "topk_select",
    "train",
    "weighted_metrics",
    "write_annotations",
    "write_feature_matrix",
]
