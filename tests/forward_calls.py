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


def record_graph_builds(monkeypatch, module) -> list[list]:
    """Patch `build_segment_graphs` in module to note each list it returns; return those lists."""
    built = []
    real_build = module.build_segment_graphs

    def recording_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(module, "build_segment_graphs", recording_build)
    return built


def assert_each_segment_scored_once(calls, graphs, spans):
    """The calls' graphs are exactly `graphs`, each once, in full equal-size batches.

    `graphs` are the segments' graphs in the order of `spans`; a scored
    graph is identified by identity. Every call holds graphs of one node
    count n, at most `batch_cap(n)` of them, and the number of calls is
    one per (size, chunk).
    """
    assert len(graphs) == len(spans)
    span_of = {id(g): span for g, span in zip(graphs, spans)}
    scored = [span_of.get(id(g)) for c in calls for g in c]
    assert Counter(scored) == Counter(spans)
    for batch in calls:
        (n,) = {g.n for g in batch}
        assert len(batch) <= batch_cap(n)
    assert len(calls) == expected_batches([e - s for s, e in spans])
