"""Segment-classification metrics and coverage-versus-k curves.

Reported precision/recall/F1 are computed one-vs-rest for each of the
two classes (abnormal = positive) and averaged weighted by class
support; sensitivity and specificity are the two per-class recalls.
Zero-denominator per-class values are reported as 0 and flagged rather
than propagating NaN.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataio import Annotations, FeatureMatrix, write_atomic, write_json
from .graph import SimilarityConfig, build_segment_graphs, map_size_chunks
from .localization import coverage_counts, score_segments, topk_select
from .model import ModelParams
from .segmentation import Partition


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    sensitivity: float
    specificity: float
    fscore: float
    per_class: dict
    degenerate: tuple[str, ...] = ()


def confusion(preds, labels) -> ConfusionCounts:
    """Standard confusion counts with abnormal (1) as the positive class."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1 or preds.size == 0:
        raise ValueError(
            f"predictions and labels must be equal-length non-empty vectors, "
            f"got {preds.shape} and {labels.shape}"
        )
    if not np.isin(preds, (0, 1)).all() or not np.isin(labels, (0, 1)).all():
        raise ValueError("predictions and labels must be 0/1")
    return ConfusionCounts(
        tp=int(((preds == 1) & (labels == 1)).sum()),
        fp=int(((preds == 1) & (labels == 0)).sum()),
        tn=int(((preds == 0) & (labels == 0)).sum()),
        fn=int(((preds == 0) & (labels == 1)).sum()),
    )


def _prf(tp: int, fp: int, fn: int, cls: str, degenerate: list[str]):
    if tp + fp == 0:
        precision = 0.0
        degenerate.append(f"{cls}.precision")
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 0.0
        degenerate.append(f"{cls}.recall")
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0:
        f1 = 0.0
        degenerate.append(f"{cls}.f1")
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def weighted_metrics(c: ConfusionCounts) -> MetricsReport:
    """Support-weighted one-vs-rest metrics over the two classes."""
    if c.total == 0:
        raise ValueError("metrics need at least one evaluated segment")
    degenerate: list[str] = []
    # Abnormal as positive, then normal as positive.
    p_pos, r_pos, f_pos = _prf(c.tp, c.fp, c.fn, "abnormal", degenerate)
    p_neg, r_neg, f_neg = _prf(c.tn, c.fn, c.fp, "normal", degenerate)
    support_pos = c.tp + c.fn
    support_neg = c.tn + c.fp
    return MetricsReport(
        accuracy=(c.tp + c.tn) / c.total,
        sensitivity=r_pos,
        specificity=r_neg,
        fscore=(support_pos * f_pos + support_neg * f_neg) / c.total,
        per_class={
            "abnormal": {
                "precision": p_pos,
                "recall": r_pos,
                "f1": f_pos,
                "support": support_pos,
            },
            "normal": {
                "precision": p_neg,
                "recall": r_neg,
                "f1": f_neg,
                "support": support_neg,
            },
        },
        degenerate=tuple(degenerate),
    )


def coverage_curve(
    params: ModelParams,
    data: list[tuple[FeatureMatrix, Annotations, Partition]],
    ks: list[int],
    similarity: SimilarityConfig,
    localize_all: bool = False,
) -> list[tuple[int, float]]:
    """Pooled coverage at each k over one or more annotated videos.

    `similarity` is the one the model was trained with. Each video is
    built and scored once, one size chunk at a time (frame scores do not
    depend on k), so the per-k selections are nested and the curve is
    monotone by construction. By default only segments predicted abnormal
    are localized; `localize_all` scores all.
    """
    if not ks or list(ks) != sorted(ks):
        raise ValueError("ks must be a non-empty ascending list")
    frames = "all" if localize_all else "predicted"

    hits, total = [0] * len(ks), 0
    for features, ann, partition in data:
        spans = partition.spans()
        scored = map_size_chunks(spans, lambda chunk: score_segments(
            build_segment_graphs(features, chunk, similarity), params, frames))
        for j, k in enumerate(ks):
            selections = {i: topk_select(f, k) + spans[i][0]
                          for i, (_, f) in enumerate(scored) if f is not None}
            h, abnormal = coverage_counts(selections, ann, partition)
            hits[j] += h
        total += abnormal
    if total == 0:
        raise ValueError("coverage curve undefined: no abnormal segments in data")
    return [(k, h / total) for k, h in zip(ks, hits)]


def write_metrics(report: MetricsReport, path) -> None:
    write_json(asdict(report), path)


def write_coverage_csv(curve: list[tuple[int, float]], path) -> None:
    lines = ["k,coverage"] + [f"{k},{c!r}" for k, c in curve]
    write_atomic(path, "\n".join(lines) + "\n")
