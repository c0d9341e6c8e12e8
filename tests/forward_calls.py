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
    """Patch `build_segment_graphs` in module to note each call's (span, graph) pairs.

    Returns one list of pairs per call, in call order.
    """
    built = []
    real_build = module.build_segment_graphs

    def recording_build(features, spans, cfg):
        graphs = real_build(features, spans, cfg)
        built.append(list(zip(spans, graphs, strict=True)))
        return graphs

    monkeypatch.setattr(module, "build_segment_graphs", recording_build)
    return built


def assert_each_segment_scored_once(calls, built, spans):
    """Each of `spans` is built once, and the calls score its graph once, in equal-size batches.

    `built` holds the (span, graph) pairs of every build, such as the
    concatenation of the lists that `record_graph_builds` records; a
    scored graph is identified by identity. Every call holds graphs of
    one node count n, at most `batch_cap(n)` of them, and the number of
    calls is one per (size, chunk).
    """
    assert Counter(span for span, _ in built) == Counter(spans)
    span_of = {id(g): span for span, g in built}
    scored = [span_of.get(id(g)) for c in calls for g in c]
    assert Counter(scored) == Counter(spans)
    for batch in calls:
        (n,) = {g.n for g in batch}
        assert len(batch) <= batch_cap(n)
    assert len(calls) == expected_batches([e - s for s, e in spans])
