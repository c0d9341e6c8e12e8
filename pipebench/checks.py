"""Output checks computed apart from the program under test.

Every check compares a CLI output with a computation of the benchmark's
own (prefix sums, a vectorised cosine, confusion counts, an argsort) or
with a property the method must have. None compares with a stored copy
of an earlier output.
"""

from __future__ import annotations

import numpy as np

# Objectives are sums over up to 1e5 frames of squared norms near 1e2;
# float64 prefix sums carry an absolute error far below this.
OBJECTIVE_ATOL = 1e-6
OBJECTIVE_RTOL = 1e-9
GRAPH_ATOL = 1e-12
SCORE_SUM_SLACK = 1e-12


class CheckFailed(Exception):
    """An output broke a property the benchmark checks."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Segmentation


class PrefixCost:
    """Gaussian mean-shift cost of any span [s, e), vectorised over spans."""

    def __init__(self, values: np.ndarray):
        self.sums = np.vstack([np.zeros(values.shape[1]), np.cumsum(values, axis=0)])
        self.squares = np.concatenate([[0.0], np.cumsum((values * values).sum(axis=1))])

    def __call__(self, s, e) -> np.ndarray:
        s, e = np.asarray(s), np.asarray(e)
        total = self.sums[e] - self.sums[s]
        return self.squares[e] - self.squares[s] - (total * total).sum(axis=-1) / (e - s)

    def objective(self, bounds: np.ndarray, penalty: float) -> float:
        return float(self(bounds[:-1], bounds[1:]).sum()) + penalty * (len(bounds) - 2)


def check_partition(obj: dict, video_id: str, cost: PrefixCost, planted: np.ndarray,
                    penalty: float, min_len: int) -> np.ndarray:
    """Check a `segment` output and return its boundaries.

    The found partition must be admissible, score no worse than the
    planted one (which is admissible, so the optimum is at most its
    objective), and be locally optimal: moving any interior boundary by
    one frame, removing it, or splitting any segment in two must not
    lower the objective.
    """
    require(obj.get("video_id") == video_id, f"partition video_id {obj.get('video_id')!r}")
    b = np.asarray(obj["boundaries"], dtype=np.int64)
    frames = len(cost.squares) - 1
    require(b.ndim == 1 and b.size >= 2, "partition needs at least two boundaries")
    require(b[0] == 0 and b[-1] == frames, f"boundaries span [{b[0]}, {b[-1]}], video has {frames}")
    lengths = np.diff(b)
    require((lengths >= min_len).all(), f"segment shorter than min_len: {lengths.min()}")

    found = cost.objective(b, penalty)
    best = cost.objective(planted, penalty)
    require(found <= best + OBJECTIVE_ATOL + OBJECTIVE_RTOL * abs(best),
            f"found objective {found!r} exceeds planted {best!r}")

    left, mid, right = b[:-2], b[1:-1], b[2:]
    here = cost(left, mid) + cost(mid, right)
    require((cost(left, right) + OBJECTIVE_ATOL >= here + penalty).all(),
            "removing a boundary lowers the objective")
    for step in (-1, 1):
        moved = mid + step
        ok = (moved - left >= min_len) & (right - moved >= min_len)
        alt = cost(left[ok], moved[ok]) + cost(moved[ok], right[ok])
        require((alt + OBJECTIVE_ATOL >= here[ok]).all(),
                f"moving a boundary by {step} lowers the objective")

    # Every admissible split point of every segment, as (start, split, end).
    splits = np.maximum(lengths - 2 * min_len + 1, 0)
    seg = np.repeat(np.arange(lengths.size), splits)
    first = np.repeat(np.cumsum(splits) - splits, splits)
    start, end = b[:-1][seg], b[1:][seg]
    split = start + min_len + np.arange(seg.size) - first
    require((cost(start, split) + cost(split, end) + penalty + OBJECTIVE_ATOL
             >= cost(start, end)).all(), "splitting a segment lowers the objective")
    return b


# ---------------------------------------------------------------------------
# Graphs


def reference_cosine(x: np.ndarray) -> np.ndarray:
    """Clamped cosine edge weights: zero-norm frames unconnected, identical frames 1."""
    norms = np.sqrt((x * x).sum(axis=1))
    denom = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(denom > 0, (x @ x.T) / denom, 0.0)
    w = np.clip(w, 0.0, 1.0)
    identical = (x[:, None, :] == x[None, :, :]).all(axis=2) & (denom > 0)
    w[identical] = 1.0
    np.fill_diagonal(w, 0.0)
    return w


def check_graph(edge_weights: np.ndarray, x: np.ndarray) -> None:
    n = x.shape[0]
    require(edge_weights.shape == (n, n), f"graph shape {edge_weights.shape} for {n} frames")
    require(np.array_equal(edge_weights, edge_weights.T), "edge weights not symmetric")
    require(not np.diagonal(edge_weights).any(), "edge weights have a non-zero diagonal")
    err = float(np.abs(edge_weights - reference_cosine(x)).max()) if n > 1 else 0.0
    require(err <= GRAPH_ATOL, f"edge weights differ from the reference cosine by {err:.3g}")


# ---------------------------------------------------------------------------
# Classification


def weak_labels(frame_labels: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """A segment is abnormal iff any of its frames is."""
    return np.maximum.reduceat(frame_labels, bounds[:-1]).astype(np.int64)


def check_predictions(obj: dict, video_id: str, bounds: np.ndarray) -> np.ndarray:
    """Check a `classify` output and return its 0/1 predictions."""
    require(obj.get("video_id") == video_id, f"predictions video_id {obj.get('video_id')!r}")
    segments = obj["segments"]
    require(len(segments) == len(bounds) - 1,
            f"{len(segments)} predictions for {len(bounds) - 1} segments")
    ids = [s["segment_id"] for s in segments]
    starts = [s["start"] for s in segments]
    ends = [s["end"] for s in segments]
    scores = np.array([s["score"] for s in segments], dtype=np.float64)
    preds = np.array([s["predicted"] for s in segments], dtype=np.int64)
    require(ids == list(range(len(segments))), "segment ids are not 0..n-1 in order")
    require(starts == bounds[:-1].tolist() and ends == bounds[1:].tolist(),
            "prediction spans differ from the partition")
    require(((scores >= 0.0) & (scores <= 1.0)).all(), "a score lies outside [0, 1]")
    require(np.array_equal(preds, (scores >= 0.5).astype(np.int64)),
            "a prediction disagrees with its score")
    return preds


def confusion(preds: np.ndarray, labels: np.ndarray) -> tuple[int, int, int, int]:
    tp = int(((preds == 1) & (labels == 1)).sum())
    fp = int(((preds == 1) & (labels == 0)).sum())
    tn = int(((preds == 0) & (labels == 0)).sum())
    fn = int(((preds == 0) & (labels == 1)).sum())
    return tp, fp, tn, fn


def accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    tp, fp, tn, fn = confusion(preds, labels)
    return (tp + tn) / (tp + fp + tn + fn)


def check_evaluation(obj: dict, preds: np.ndarray, labels: np.ndarray) -> None:
    """`evaluate`'s rates must equal the benchmark's own confusion counts."""
    tp, fp, tn, fn = confusion(preds, labels)
    expected = {
        "accuracy": (tp + tn) / (tp + fp + tn + fn),
        "sensitivity": tp / (tp + fn) if tp + fn else 0.0,
        "specificity": tn / (tn + fp) if tn + fp else 0.0,
    }
    for key, value in expected.items():
        require(abs(obj[key] - value) <= 1e-12, f"evaluate {key} {obj[key]!r}, expected {value!r}")


# ---------------------------------------------------------------------------
# Localization


def check_localization(entries: list, bounds: np.ndarray, preds: np.ndarray, k: int,
                       all_segments: bool) -> dict[int, np.ndarray]:
    """Check a `localize` output and return its selections by segment.

    Each scored segment's selection must be the top-k of its own scores
    (earlier frames first on ties), lie inside the segment and hold
    min(k, n) frames. Attention-readout scores are non-negative and sum
    to at most 1, and the predicted flags agree with `classify`.
    """
    require(len(entries) == len(bounds) - 1,
            f"{len(entries)} localization entries for {len(bounds) - 1} segments")
    selections = {}
    for i, entry in enumerate(entries):
        s, e = int(bounds[i]), int(bounds[i + 1])
        require(entry["segment_id"] == i and entry["start"] == s and entry["end"] == e,
                f"entry {i} does not describe segment [{s}, {e})")
        require(entry["predicted"] == preds[i], f"segment {i}: localize and classify disagree")
        require(entry["k"] == k, f"segment {i}: k {entry['k']}")
        scores = np.asarray(entry["scores"], dtype=np.float64)
        selected = np.asarray(entry["selected_frames"], dtype=np.int64)
        if not (all_segments or preds[i]):
            require(scores.size == 0 and selected.size == 0, f"unscored segment {i} has a selection")
            continue
        n = e - s
        require(scores.size == n, f"segment {i}: {scores.size} scores for {n} frames")
        require((scores >= 0.0).all(), f"segment {i}: negative score")
        require(scores.sum() <= 1.0 + SCORE_SUM_SLACK, f"segment {i}: scores sum to {scores.sum()!r}")
        top = np.lexsort((np.arange(n), -scores))[: min(k, n)]
        require(np.array_equal(selected, np.sort(top) + s),
                f"segment {i}: selection {selected.tolist()} is not the top-{k} of its scores")
        selections[i] = selected
    return selections


def coverage(selections: dict[int, np.ndarray], labels: np.ndarray,
             frame_labels: np.ndarray) -> float:
    """Share of abnormal segments whose selection holds an abnormal frame."""
    abnormal = np.flatnonzero(labels)
    hits = sum(int(frame_labels[selections[i]].any()) for i in abnormal if i in selections)
    return hits / len(abnormal)
