"""Segment-classification metrics and coverage-versus-k curves.

Reported precision/recall/F1 are computed one-vs-rest for each of the
two classes (abnormal = positive) and averaged weighted by class
support; sensitivity and specificity are the two per-class recalls.
Zero-denominator per-class values are reported as 0 and flagged rather
than propagating NaN. Coverage at k (the share of abnormal segments whose
top-k frames hold an abnormal frame) is counted for every k from each
segment's first-hit rank: its first abnormal frame's `rank_frames` position.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass

import numpy as np

from .dataio import Annotations, FeatureMatrix, derive_segment_labels, write_atomic, write_json
from .graph import build_segment_graphs, map_size_chunks
from .localization import rank_frames, score_segments
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


def check_ks(ks) -> list[int]:
    """ks as a list, or ValueError unless they are strictly ascending positive ints."""
    ks = list(ks)
    if not ks or not all(isinstance(k, int) and a < k for a, k in zip([0, *ks], ks)):
        raise ValueError(f"ks must be strictly ascending positive ints, got {ks!r}")
    return ks


def coverage_curve(
    params: ModelParams,
    data: list[tuple[FeatureMatrix, Annotations, Partition]],
    ks: list[int],
    localize_all: bool = False,
) -> list[tuple[int, float]]:
    """Pooled coverage at each k over one or more annotated videos.

    Each video is built and scored once, one size chunk at a time, and
    each chunk's scored segments are ranked by one `rank_frames` call. A
    scored abnormal segment's first-hit rank r is the position of its
    first abnormal frame in that order, and it is covered at k iff r < k;
    an unscored segment never is. coverage(k) = #(r < k) / #abnormal reads
    every k from one sorted list of ranks, so the curve is monotone by
    construction. By default only segments predicted abnormal are
    localized; `localize_all` scores all.
    """
    ks = check_ks(ks)
    frames = "all" if localize_all else "predicted"

    ranks, total = [], 0
    for features, ann, partition in data:
        total += int(derive_segment_labels(ann, partition).sum())

        def first_hits(chunk):
            """Each span's first-hit rank, or None if unscored or normal."""
            scored = score_segments(build_segment_graphs(features, chunk), params, frames)
            rows = [i for i, (_, f) in enumerate(scored) if f is not None]
            first = {}
            if rows:
                starts = np.array([chunk[i][0] for i in rows])[:, None]
                order = rank_frames(np.stack([scored[i][1] for i in rows])) + starts
                hit = ann.frame_labels[order] == 1
                first = {i: r for i, h, r in zip(
                    rows, hit.any(axis=1).tolist(), hit.argmax(axis=1).tolist()) if h}
            return [first.get(i) for i in range(len(chunk))]

        ranks += [r for r in map_size_chunks(partition.spans(), first_hits) if r is not None]
    if total == 0:
        raise ValueError("coverage curve undefined: no abnormal segments in data")
    ranks.sort()
    return [(k, bisect_left(ranks, k) / total) for k in ks]


def write_metrics(report: MetricsReport, path) -> None:
    write_json(asdict(report), path)


def write_coverage_csv(curve: list[tuple[int, float]], path) -> None:
    lines = ["k,coverage"] + [f"{k},{c!r}" for k, c in curve]
    write_atomic(path, "\n".join(lines) + "\n")
