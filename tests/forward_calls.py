"""Record the graphs of each `forward` call and check how inference batched them."""

from collections import Counter

from cegl import model
from cegl.graph import BATCH_CELLS


def record_forward_calls(monkeypatch, *modules) -> list[list]:
    """Patch `forward` in each module to note every call's graphs; return the call list."""
    calls = []
    real_forward = model.forward

    def recording_forward(graphs, params, **kwargs):
        calls.append(list(graphs))
        return real_forward(graphs, params, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "forward", recording_forward)
    return calls


def batch_cap(n: int) -> int:
    """How many graphs of n nodes `score_segments` runs in one pass."""
    return max(1, BATCH_CELLS // (n * n))


def expected_batches(sizes) -> int:
    """Passes `score_segments` makes over graphs of these node counts."""
    return sum(-(-count // batch_cap(n)) for n, count in Counter(sizes).items())


def assert_each_segment_scored_once(calls, spans):
    """The calls' graphs are exactly the spans' segments, each once, in full equal-size batches.

    Every call holds graphs of one node count n, at most `batch_cap(n)` of
    them, and the number of calls is one per (size, chunk).
    """
    scored = [(g.global_frame_offset, g.global_frame_offset + g.n) for c in calls for g in c]
    assert sorted(scored) == sorted(spans)
    for graphs in calls:
        (n,) = {g.n for g in graphs}
        assert len(graphs) <= batch_cap(n)
    assert len(calls) == expected_batches([e - s for s, e in spans])
