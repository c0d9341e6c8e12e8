"""Synthetic capsule-video inputs, generated by the benchmark itself.

The generator follows the make-up of the paper-protocol synthetic set
(per-segment means drawn at scale 0.5, frame noise of spread 0.16, a
fixed offset added to a random, non-contiguous subset of the frames of
half the segments) but is independent of the program under test: the
program only ever sees the files written here, and the planted
boundaries and frame labels stay with the benchmark for its checks.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIN_SEGMENT_LEN = 5
MEAN_SCALE = 0.5


@dataclass(frozen=True)
class VideoSpec:
    segments: int
    mean_len: int
    dim: int = 16
    abnormal_segment_fraction: float = 0.5
    abnormal_frame_fraction: float = 0.35
    spread: float = 0.16
    offset_norm: float = 10.0
    # Every segment exactly mean_len frames long, so that the cost of
    # length-sensitive work does not vary with the seed.
    fixed_len: bool = False


@dataclass(frozen=True)
class Video:
    values: np.ndarray  # (T, d), already rounded to the float32 the file holds
    frame_labels: np.ndarray  # (T,) of {0, 1}
    boundaries: np.ndarray  # planted change points, 0 .. T


def make_video(spec: VideoSpec, rng: np.random.Generator) -> Video:
    if spec.fixed_len:
        lengths = np.full(spec.segments, spec.mean_len)
    else:
        lengths = MIN_SEGMENT_LEN + rng.poisson(spec.mean_len - MIN_SEGMENT_LEN, size=spec.segments)
        lengths = np.clip(lengths, MIN_SEGMENT_LEN, 3 * spec.mean_len)
    boundaries = np.concatenate([[0], np.cumsum(lengths)])
    total = int(boundaries[-1])

    means = MEAN_SCALE * rng.standard_normal((spec.segments, spec.dim))
    values = np.repeat(means, lengths, axis=0)
    values += spec.spread * rng.standard_normal((total, spec.dim))
    labels = np.zeros(total, dtype=np.int64)

    n_abnormal = int(round(spec.abnormal_segment_fraction * spec.segments))
    for s in np.sort(rng.choice(spec.segments, size=n_abnormal, replace=False)):
        lo, n = int(boundaries[s]), int(lengths[s])
        marked = lo + rng.choice(n, size=max(1, int(round(spec.abnormal_frame_fraction * n))),
                                 replace=False)
        direction = rng.standard_normal(spec.dim)
        values[marked] += direction * (spec.offset_norm / np.linalg.norm(direction))
        labels[marked] = 1

    values = values.astype(np.float32).astype(np.float64)
    return Video(values=values, frame_labels=labels, boundaries=boundaries)


def write_video(video: Video, directory: Path, video_id: str) -> Path:
    """Write `<id>.cegf` and `<id>.annotations.json`; returns the feature path."""
    t, d = video.values.shape
    cegf = directory / f"{video_id}.cegf"
    cegf.write_bytes(
        b"CEGF" + struct.pack("<IQQ", 1, t, d) + video.values.astype("<f4").tobytes()
    )
    annotations = {"video_id": video_id, "frame_labels": video.frame_labels.tolist()}
    (directory / f"{video_id}.annotations.json").write_text(json.dumps(annotations))
    return cegf
