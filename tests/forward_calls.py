"""Record the batch of each `forward` call and check how inference batched it."""

from collections import Counter

from cegl import model
from cegl.graph import BATCH_CELLS


def record_forward_calls(monkeypatch, *modules) -> list:
    """Patch `forward` in each module to note every call's batch; return them in call order."""
    calls = []
    real_forward = model.forward

    def recording_forward(batch, params, **kwargs):
        calls.append(batch)
        return real_forward(batch, params, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "forward", recording_forward)
    return calls


def batch_cap(n: int) -> int:
    """How many graphs of n nodes one size chunk holds."""
    return max(1, BATCH_CELLS // (n * n))


def expected_batches(sizes) -> int:
    """Size chunks, and so passes, that segments of these node counts make."""
    return sum(-(-count // batch_cap(n)) for n, count in Counter(sizes).items())


def record_graph_builds(monkeypatch, module) -> list[tuple[list, object]]:
    """Patch `build_segment_graphs` in module to note each call's spans and returned batch.

    Returns one (spans, batch) pair per call, in call order.
    """
    built = []
    real_build = module.build_segment_graphs

    def recording_build(features, spans, cfg):
        batch = real_build(features, spans, cfg)
        built.append((list(spans), batch))
        return batch

    monkeypatch.setattr(module, "build_segment_graphs", recording_build)
    return built


def assert_each_segment_scored_once(calls, built, spans):
    """Each of `spans` is built once, and each built batch goes through one of the calls.

    `built` holds the (spans, batch) pair of every build, such as
    `record_graph_builds` records; a forwarded batch is matched to a built
    one by identity. Every batch holds its spans' graphs unpadded, all of
    one node count n and at most `batch_cap(n)` of them, and the number of
    calls is one per (size, chunk).
    """
    assert Counter(span for chunk, _ in built for span in chunk) == Counter(spans)
    assert Counter(map(id, calls)) == Counter(id(batch) for _, batch in built)
    for chunk, batch in built:
        (n,) = {e - s for s, e in chunk}
        assert batch.sizes.tolist() == [n] * len(chunk) == [n] * len(batch)
        assert batch.edge_weights.shape == (len(chunk), n, n)
        assert len(chunk) <= batch_cap(n)
    assert len(calls) == expected_batches([e - s for s, e in spans])
