"""Penalized change-point segmentation of long feature sequences.

The optimization target over boundary candidates 0 = b_0 < ... < b_k = T is

    sum_j cost(b_j, b_{j+1}) + penalty * (k - 1)

where cost (`SegmentCost`) is the summed squared deviation of each frame from its
segment mean (a Gaussian mean-shift cost). `pelt` solves this with the
pruned-exact recursion; `optimal_partition_oracle` is an independent
full dynamic program kept around for equivalence testing.

Pruning note: a candidate start s dominated at time t (F(s) + cost(s, t)
exceeding F(t)) is only discarded once the dominating path through t is
itself admissible, i.e. from time t + min_len onward. With a minimum
segment length greater than one, discarding immediately can lose the
optimum; the delay preserves exactness for this concave-splitting cost.

Ties between equal-objective partitions break toward fewer boundaries,
then toward the earlier candidate start, in both solvers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dataio import FeatureMatrix, check_types, read_json, write_json
from .errors import ConfigError, FormatError

#: Largest input the quadratic-time oracle accepts.
ORACLE_MAX_FRAMES = 500

COST_KINDS = ("gaussian_mean_l2",)


@dataclass(frozen=True)
class Partition:
    """Contiguous non-overlapping segments encoded by their boundary indices."""

    boundaries: tuple[int, ...]

    def __post_init__(self):
        # int() would take True as 1 and 10.5 as 10; neither is a frame index.
        bad = [x for x in self.boundaries if isinstance(x, bool) or not isinstance(x, numbers.Integral)]
        if bad:
            raise TypeError(f"boundaries must be integers, got {bad[0]!r}")
        b = tuple(int(x) for x in self.boundaries)
        if len(b) < 2:
            raise ValueError("partition needs at least [0, T]")
        if b[0] != 0:
            raise ValueError(f"first boundary must be 0, got {b[0]}")
        if any(x >= y for x, y in zip(b, b[1:])):
            raise ValueError(f"boundaries must be strictly increasing: {b}")
        object.__setattr__(self, "boundaries", b)

    @property
    def segment_count(self) -> int:
        return len(self.boundaries) - 1

    @property
    def frame_count(self) -> int:
        return self.boundaries[-1]

    def spans(self) -> list[tuple[int, int]]:
        return list(zip(self.boundaries[:-1], self.boundaries[1:]))


@dataclass(frozen=True)
class SegmentationConfig:
    penalty: float | None = None  # None selects default_penalty per video
    min_len: int = 5
    cost_kind: str = "gaussian_mean_l2"

    def __post_init__(self):
        check_types(self)
        if self.penalty is not None and self.penalty <= 0:
            raise ConfigError(f"penalty must be positive, got {self.penalty}")
        if self.min_len < 1:
            raise ConfigError("min_len must be at least 1")
        if self.cost_kind not in COST_KINDS:
            raise ConfigError(f"unknown cost_kind {self.cost_kind!r}")

    def penalty_for(self, f: FeatureMatrix) -> float:
        if self.penalty is None:
            return default_penalty(f.frame_count, f.feature_dim)
        return self.penalty


def default_penalty(frame_count: int, feature_dim: int) -> float:
    """BIC-flavored default: 2 * d * log(T)."""
    if frame_count < 2:
        return 1.0
    return 2.0 * feature_dim * math.log(frame_count)


class SegmentCost:
    """Squared deviation from the segment mean, via prefix sums.

    cost(s, e) = sum_{t in [s,e)} ||x_t - mean(x_{s..e})||^2
               = sum ||x_t||^2 - ||sum x_t||^2 / (e - s)
    """

    def __init__(self, f: FeatureMatrix):
        v = f.values
        self._sums = np.zeros((v.shape[0] + 1, v.shape[1]))
        np.cumsum(v, axis=0, out=self._sums[1:])
        self._sq = np.zeros(v.shape[0] + 1)
        np.cumsum(np.einsum("ij,ij->i", v, v), out=self._sq[1:])
        self.frame_count = v.shape[0]

    def __call__(self, s: int, e: int) -> float:
        if not 0 <= s < e <= self.frame_count:
            raise ValueError(f"empty or out-of-range span [{s}, {e})")
        total = self._sums[e] - self._sums[s]
        cost = (self._sq[e] - self._sq[s]) - float(total @ total) / (e - s)
        return max(cost, 0.0)


def _better(value, n_seg, best_value, best_n_seg) -> bool:
    # Tie rule: lower objective, then fewer segments; equal on both keeps
    # the earlier candidate (callers scan starts in ascending order).
    if value < best_value:
        return True
    return value == best_value and n_seg < best_n_seg


def _backtrack(prev: list[int], t: int) -> Partition:
    bounds = [t]
    while t > 0:
        t = prev[t]
        bounds.append(t)
    return Partition(tuple(reversed(bounds)))


def pelt(f: FeatureMatrix, cfg: SegmentationConfig) -> Partition:
    """Optimal penalized partition via the pruned-exact recursion.

    F(t) = min over admissible starts s of F(s) + cost(s, t) + penalty,
    with F(0) = -penalty. Candidates are pruned per the module docstring.
    Inputs shorter than 2 * min_len yield the single-segment partition.
    """
    t_total = f.frame_count
    if t_total < 2 * cfg.min_len:
        return Partition((0, t_total))

    cost = SegmentCost(f)
    beta = cfg.penalty_for(f)
    min_len = cfg.min_len

    f_best = np.full(t_total + 1, np.inf)
    f_best[0] = -beta
    n_seg = np.zeros(t_total + 1, dtype=np.int64)
    prev = [0] * (t_total + 1)

    candidates: list[int] = [0]
    dominated_at: dict[int, int] = {}

    for t in range(min_len, t_total + 1):
        fresh = t - min_len
        if fresh >= min_len:
            candidates.append(fresh)
        candidates = [
            s
            for s in candidates
            if s not in dominated_at or t < dominated_at[s] + min_len
        ]

        best_value, best_s, best_n = np.inf, -1, 0
        for s in candidates:
            value = f_best[s] + cost(s, t) + beta
            if best_s < 0 or _better(value, n_seg[s] + 1, best_value, best_n):
                best_value, best_s, best_n = value, s, n_seg[s] + 1
        f_best[t] = best_value
        prev[t] = best_s
        n_seg[t] = best_n

        for s in candidates:
            if s not in dominated_at and f_best[s] + cost(s, t) > f_best[t]:
                dominated_at[s] = t

    return _backtrack(prev, t_total)


def optimal_partition_oracle(f: FeatureMatrix, cfg: SegmentationConfig) -> Partition:
    """Exact quadratic-time dynamic program over all admissible starts.

    Deliberately unpruned; limited to ORACLE_MAX_FRAMES frames.
    """
    t_total = f.frame_count
    if t_total > ORACLE_MAX_FRAMES:
        raise ConfigError(
            f"oracle accepts at most {ORACLE_MAX_FRAMES} frames, got {t_total}"
        )
    if t_total < 2 * cfg.min_len:
        return Partition((0, t_total))

    cost = SegmentCost(f)
    beta = cfg.penalty_for(f)
    min_len = cfg.min_len

    f_best = np.full(t_total + 1, np.inf)
    f_best[0] = -beta
    n_seg = np.zeros(t_total + 1, dtype=np.int64)
    prev = [0] * (t_total + 1)

    for t in range(min_len, t_total + 1):
        starts = [0] + [s for s in range(min_len, t - min_len + 1)]
        best_value, best_s, best_n = np.inf, -1, 0
        for s in starts:
            if not np.isfinite(f_best[s]):
                continue
            value = f_best[s] + cost(s, t) + beta
            if best_s < 0 or _better(value, n_seg[s] + 1, best_value, best_n):
                best_value, best_s, best_n = value, s, n_seg[s] + 1
        f_best[t] = best_value
        prev[t] = best_s
        n_seg[t] = best_n

    return _backtrack(prev, t_total)


def partition_objective(f: FeatureMatrix, p: Partition, penalty: float) -> float:
    """Penalized objective achieved by a partition (interior boundaries taxed)."""
    cost = SegmentCost(f)
    segs = p.spans()
    return sum(cost(s, e) for s, e in segs) + penalty * (len(segs) - 1)


def split_video(f: FeatureMatrix, p: Partition) -> list[FeatureMatrix]:
    """Views of the video's rows per segment; concatenation reproduces f."""
    if p.frame_count != f.frame_count:
        raise ValueError(
            f"partition covers {p.frame_count} frames but video has {f.frame_count}"
        )
    return [FeatureMatrix(f.video_id, f.values[s:e]) for s, e in p.spans()]


def write_partition(p: Partition, video_id: str, path) -> None:
    write_json({"video_id": video_id, "boundaries": list(p.boundaries)}, path)


def read_partition(path) -> tuple[str, Partition]:
    obj = read_json(path, "partition")
    if not isinstance(obj, dict) or set(obj) != {"video_id", "boundaries"}:
        raise FormatError(f"partition JSON must hold video_id and boundaries: {path}")
    try:
        return obj["video_id"], Partition(tuple(obj["boundaries"]))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad partition boundaries in {path}: {exc}") from exc
