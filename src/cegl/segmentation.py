"""Penalized change-point segmentation of long feature sequences.

Over boundaries 0 = b_0 < ... < b_k = T the target is

    sum_j cost(b_j, b_{j+1}) + penalty * (k - 1),

where cost (`SegmentCost.costs`) is the summed squared deviation of each
frame from its segment mean. `pelt` solves it with the pruned-exact
recursion F(t) = min over admissible starts s of F(s) + cost(s, t) +
penalty, F(0) = -penalty; `optimal_partition_oracle` is an unpruned
dynamic program kept for equivalence testing.

Pruning: a start s dominated at end t (F(s) + cost(s, t) > F(t)) leaves
the candidates only from end t + min_len on, once the path through t is
itself admissible; with min_len above one, dropping it at once can lose
the optimum.

Blocks: F(t) reads F(s) only for s <= t - min_len, and a domination found
at t acts from t + min_len on, so min_len consecutive ends depend on
nothing their own block computes. `pelt` scores each such block as one
(starts x ends) matrix.

Span: a block's candidates are one contiguous run of starts [lo, hi), so
every table it reads (prefix sums, F, segment counts, dominated_at) is a
slice. lo moves past a start once no later end may use it; a start
pruned inside the run stays in it, masked by dominated_at > the end's
last admissible start, which excludes exactly the starts that pruning
drops. Values, minima and ties are those of the pruned candidate set.

Ties: both solvers take the lexicographic minimum of (objective, number
of segments, start). `costs` rounds each entry from its own span alone,
so the two see bit-identical values. Without a tie the earliest start of
least value is that minimum, so `pelt` counts segments, block by block,
only when a block holds a tie.
"""

from __future__ import annotations

import math
import numbers
import operator
import reprlib
from dataclasses import dataclass

import numpy as np

from .dataio import FeatureMatrix, check_types, read_json, write_json
from .errors import ConfigError, FormatError

#: Largest input the quadratic-time oracle accepts.
ORACLE_MAX_FRAMES = 500

#: dominated_at of a start that no end has dominated yet.
_NEVER = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Partition:
    """Contiguous non-overlapping segments encoded by their boundary indices."""

    boundaries: tuple[int, ...]

    def __post_init__(self):
        b = tuple(self.boundaries)
        if set(map(type, b)) - {int}:  # anything but exact ints, such as numpy integers
            # int() would take True as 1 and 10.5 as 10; neither is a frame index.
            bad = [x for x in b if isinstance(x, bool) or not isinstance(x, numbers.Integral)]
            if bad:
                raise TypeError(f"boundaries must be integers, got {reprlib.repr(bad[0])}")
            b = tuple(map(int, b))
        if len(b) < 2:
            raise ValueError("partition needs at least [0, T]")
        if b[0] != 0:
            raise ValueError(f"first boundary must be 0, got {b[0]}")
        if not all(map(operator.lt, b, b[1:])):
            i = next(i for i in range(1, len(b)) if b[i] <= b[i - 1])
            raise ValueError(f"boundaries must increase: boundary {i} is {b[i]} after {b[i - 1]}")
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

    def __post_init__(self):
        check_types(self)
        if self.penalty is not None and self.penalty <= 0:
            raise ConfigError(f"penalty must be positive, got {self.penalty}")
        if self.min_len < 1:
            raise ConfigError("min_len must be at least 1")

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

    def costs(self, starts, ends) -> np.ndarray:
        """cost(s, e) for the spans [s, e) of starts and ends broadcast together.

        The squared norm is an einsum over the feature axis, not a BLAS
        product, so each entry is rounded the same way wherever it sits.
        """
        starts, ends = np.asarray(starts), np.asarray(ends)
        lengths = ends - starts
        if lengths.min() < 1 or starts.min() < 0 or ends.max() > self.frame_count:
            raise ValueError(f"empty span or span outside the {self.frame_count} frames")
        return _cost(self._sums[ends] - self._sums[starts], self._sq[ends] - self._sq[starts], lengths)

    def block(self, lo: int, hi: int, first: int, stop: int, lengths: np.ndarray) -> np.ndarray:
        """`costs` of the starts lo..hi-1 (rows) and the ends first..stop-1 (columns).

        `lengths` holds each span's length t - s. The spans are read as
        slices and not checked; every entry has the bits that `costs`
        gives it.
        """
        total = self._sums[first:stop] - self._sums[lo:hi, None]
        return _cost(total, self._sq[first:stop] - self._sq[lo:hi, None], lengths)


def _cost(total: np.ndarray, sq_diff: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """sum ||x_t||^2 - ||sum x_t||^2 / (e - s), clamped at 0, from a span's sums and length."""
    sq = np.einsum("...k,...k->...", total, total)
    return np.maximum(sq_diff - sq / lengths, 0.0)


def _best_starts(values: np.ndarray, n_seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best row and its value for each column of a (starts x ends) value matrix.

    The best is the lexicographic minimum of (value, segments, start):
    starts ascend, so the first row of equal value and segment count is
    the earliest start.
    """
    minima = values.min(axis=0)
    rows = np.where(values == minima, n_seg[:, None], _NEVER).argmin(axis=0)
    return rows, minima


def _tables(f: FeatureMatrix, penalty: float):
    """F, segment count and best start per end 0..T, with F(0) = -penalty."""
    f_best = np.r_[-penalty, np.full(f.frame_count, np.inf)]
    return f_best, np.zeros(f_best.size, dtype=np.int64), np.zeros(f_best.size, dtype=np.int64)


def _backtrack(prev: np.ndarray, t: int) -> Partition:
    bounds = [t]
    while t > 0:
        t = int(prev[t])
        bounds.append(t)
    return Partition(tuple(reversed(bounds)))


def pelt(f: FeatureMatrix, cfg: SegmentationConfig) -> Partition:
    """Optimal penalized partition: the pruned recursion, min_len ends per step.

    Inputs shorter than 2 * min_len yield the single-segment partition.
    """
    t_total, min_len = f.frame_count, cfg.min_len
    if t_total < 2 * min_len:
        return Partition((0, t_total))
    cost, beta = SegmentCost(f), cfg.penalty_for(f)
    f_best, n_seg, prev = _tables(f, beta)

    # dominated_at[s] is the first end that dominated start s; starts
    # 1..min_len-1 end no first segment of min_len frames.
    dominated_at = np.full(t_total + 1, _NEVER)
    dominated_at[1:min_len] = 0
    frames, lo, counted = np.arange(t_total + 1), 0, min_len  # n_seg is filled below counted
    for first in range(min_len, t_total + 1, min_len):
        stop = min(first + min_len, t_total + 1)
        while dominated_at[lo] <= first - min_len:  # inadmissible from here on
            lo += 1
        hi = stop - min_len  # one past the last admissible start of the block's last end
        ts, latest = frames[first:stop], frames[first - min_len : hi]  # latest: each end's last start
        lengths, dominated = ts - frames[lo:hi, None], dominated_at[lo:hi]

        valid = (lengths >= min_len) & (dominated[:, None] > latest)
        base = f_best[lo:hi, None] + cost.block(lo, hi, first, stop, lengths)
        values = np.where(valid, base + beta, np.inf)
        best, f_best[first:stop] = values.argmin(axis=0), values.min(axis=0)
        if np.count_nonzero(values == f_best[first:stop]) > stop - first:  # a tie
            for t in range(counted, first, min_len):  # count the earlier blocks' segments
                n_seg[t : t + min_len] = n_seg[prev[t : t + min_len]] + 1
            counted = first
            best = _best_starts(values, n_seg[lo:hi])[0]
        prev[first:stop] = best + lo

        # A start keeps the first end that dominates it.
        hit = valid & (base > f_best[first:stop])
        np.minimum(dominated, np.where(hit, ts, _NEVER).min(axis=1), out=dominated)

    return _backtrack(prev, t_total)


def optimal_partition_oracle(f: FeatureMatrix, cfg: SegmentationConfig) -> Partition:
    """Unpruned exact recursion, one end at a time; at most ORACLE_MAX_FRAMES frames."""
    t_total, min_len = f.frame_count, cfg.min_len
    if t_total > ORACLE_MAX_FRAMES:
        raise ConfigError(f"oracle accepts at most {ORACLE_MAX_FRAMES} frames, got {t_total}")
    if t_total < 2 * min_len:
        return Partition((0, t_total))
    cost, beta = SegmentCost(f), cfg.penalty_for(f)
    f_best, n_seg, prev = _tables(f, beta)

    for t in range(min_len, t_total + 1):
        starts = np.r_[0, min_len : t - min_len + 1]
        values = f_best[starts, None] + cost.costs(starts[:, None], [t]) + beta
        (best,), (f_best[t],) = _best_starts(values, n_seg[starts])
        prev[t] = starts[best]
        n_seg[t] = n_seg[prev[t]] + 1

    return _backtrack(prev, t_total)


def partition_objective(f: FeatureMatrix, p: Partition, penalty: float) -> float:
    """Penalized objective achieved by a partition (interior boundaries taxed)."""
    b = np.array(p.boundaries)
    return float(sum(SegmentCost(f).costs(b[:-1], b[1:]))) + penalty * (len(b) - 2)


def write_partition(p: Partition, video_id: str, path) -> None:
    write_json({"video_id": video_id, "boundaries": list(p.boundaries)}, path)


def read_partition(path) -> tuple[str, Partition]:
    obj = read_json(path, "partition")
    if not isinstance(obj, dict) or set(obj) != {"video_id", "boundaries"}:
        raise FormatError(f"partition JSON must hold video_id and boundaries: {path}")
    if not isinstance(obj["video_id"], str):
        got = reprlib.repr(obj["video_id"])
        raise FormatError(f"partition video_id must be a string, got {got}: {path}")
    try:
        return obj["video_id"], Partition(tuple(obj["boundaries"]))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad partition boundaries in {path}: {exc}") from exc
