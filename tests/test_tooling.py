"""The benchmark's tracer patches package attributes by name; keep them resolvable
and measuring what the benchmark's README says they measure."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np

import cegl
import cegl.cli
from cegl.dataio import FeatureMatrix, read_feature_matrix
from cegl.graph import GraphBatch, SimilarityConfig, build_segment_graphs, size_chunks
from cegl.segmentation import pelt, read_partition
from forward_calls import expected_batches
from test_cli import write_config

TRACING = Path(__file__).resolve().parents[1] / "pipebench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("pipebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstall_restores_every_attribute():
    modules = [cegl.cli, cegl.dataio, cegl.localization, cegl.metrics, cegl.model]
    before = [dict(vars(m)) for m in modules]
    tracer = load_tracing().Tracer()
    tracer.install(cegl)  # raises AttributeError when a patched name is gone
    try:
        for module, snapshot in zip(modules, before):
            changed = [k for k, v in vars(module).items() if snapshot.get(k) is not v]
            assert changed, f"tracer patched nothing in {module.__name__}"
    finally:
        tracer.uninstall()
    for module, snapshot in zip(modules, before):
        after = vars(module)
        assert set(after) == set(snapshot), module.__name__
        restored = [k for k, v in snapshot.items() if after[k] is v]
        assert len(restored) == len(snapshot), module.__name__


def traced(argv):
    """Run one cegl command under the benchmark's tracer; return the tracer."""
    tracer = load_tracing().Tracer()
    tracer.install(cegl)
    tracer.phase = "round"
    try:
        assert cegl.cli.main([str(a) for a in argv]) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_traced_train_and_localize_spans(tmp_path):
    config = write_config(tmp_path / "config.json")
    data = tmp_path / "data"
    assert cegl.cli.main(["synth", "--config", str(config), "--out", str(data)]) == 0
    features = data / "video-000.cegf"
    partition = tmp_path / "part.json"
    assert cegl.cli.main(["segment", "--features", str(features), "--config", str(config),
                          "--out", str(partition)]) == 0
    model = tmp_path / "model.cegm"

    tracer = traced(["train", "--data", data, "--config", config, "--out", model])
    spans = Counter(tracer.names[i] for i in tracer.name)
    # one SGD step per mini-batch of each epoch, each one batched forward and one backward
    cfg = cegl.cli.load_run_config(config)
    graphs = sum(pelt(read_feature_matrix(video), cfg.segmentation).segment_count
                 for video in data.glob("*.cegf"))
    steps = cfg.train.epochs * -(-graphs // cfg.train.batch_size)
    assert graphs % cfg.train.batch_size  # the last mini-batch of an epoch is short
    assert spans["model.sgd_step"] == steps > cfg.train.epochs
    assert spans["model.forward"] == spans["model.backward"] == steps

    tracer = traced(["localize", "--model", model, "--features", features,
                     "--partition", partition, "--k", 2, "--out", tmp_path / "loc.json"])
    spans = read_partition(partition)[1].spans()
    per_segment, unit = tracer.layer_metrics(1)["localization.forward_per_segment"]
    assert unit == "ratio"
    assert per_segment == expected_batches([e - s for s, e in spans]) / len(spans) <= 1.0


def test_traced_segment_has_one_pelt_span_sized_by_its_input_and_output(tmp_path):
    config = write_config(tmp_path / "config.json")
    data = tmp_path / "data"
    assert cegl.cli.main(["synth", "--config", str(config), "--out", str(data)]) == 0
    features = data / "video-000.cegf"
    partition = tmp_path / "part.json"

    tracer = traced(["segment", "--features", features, "--config", config, "--out", partition])
    spans = [i for i, name_id in enumerate(tracer.name)
             if tracer.names[name_id] == "segmentation.pelt"]
    assert len(spans) == 1
    span = spans[0]
    assert tracer.names[tracer.name[tracer.parent[span]]] == "cli.segment"
    assert tracer.sizes[span] == {
        "frames": read_feature_matrix(features).frame_count,
        "segments": read_partition(partition)[1].segment_count,
    }


def trained_video(tmp_path):
    """(features, partition, model) paths of a synthesised, segmented and trained video."""
    config = write_config(tmp_path / "config.json")
    data = tmp_path / "data"
    features = data / "video-000.cegf"
    partition = tmp_path / "part.json"
    model = tmp_path / "model.cegm"
    for argv in (["synth", "--config", config, "--out", data],
                 ["segment", "--features", features, "--config", config, "--out", partition],
                 ["train", "--data", data, "--config", config, "--out", model]):
        assert cegl.cli.main([str(a) for a in argv]) == 0
    return features, partition, model


def test_traced_classify_and_localize_run_one_forward_per_segment(tmp_path):
    features, partition, model = trained_video(tmp_path)
    spans = read_partition(partition)[1].spans()
    batches = expected_batches([e - s for s, e in spans])
    inputs = ["--model", model, "--features", features, "--partition", partition]

    for command, extra in (("classify", []), ("localize", ["--k", 2, "--all-segments"])):
        tracer = traced([command, *inputs, *extra, "--out", tmp_path / f"{command}.json"])
        forwards = [i for i, name_id in enumerate(tracer.name)
                    if tracer.names[name_id] == "model.forward"]
        assert len(forwards) == batches, command
        assert all(tracer._under(i, f"cli.{command}") for i in forwards), command
    per_segment, unit = tracer.layer_metrics(1)["localization.forward_per_segment"]
    assert unit == "ratio"
    assert per_segment == batches / len(spans) <= 1.0


def test_traced_classify_and_localize_build_graphs_per_size_chunk(tmp_path):
    """One graph.build span per size chunk; their sizes sum to the partition's graphs and pairs."""
    features, partition, model = trained_video(tmp_path)
    sizes = [e - s for s, e in read_partition(partition)[1].spans()]
    inputs = ["--model", model, "--features", features, "--partition", partition]

    for command, extra in (("classify", []), ("localize", ["--k", 2])):
        tracer = traced([command, *inputs, *extra, "--out", tmp_path / f"{command}.json"])
        builds = [i for i, name_id in enumerate(tracer.name)
                  if tracer.names[name_id] == "graph.build"]
        assert len(builds) == expected_batches(sizes) > 1, command
        assert all(tracer.names[tracer.name[tracer.parent[i]]] == f"cli.{command}"
                   for i in builds), command
        totals = {key: sum(tracer.sizes[i][key] for i in builds) for key in ("graphs", "pairs")}
        assert totals == {
            "graphs": len(sizes), "pairs": sum(n * (n - 1) // 2 for n in sizes)}, command


def test_traced_localize_runs_one_topk_per_size_chunk(tmp_path):
    """localization.topk times one batched call per size chunk that holds a scored segment."""
    features, partition, model = trained_video(tmp_path)
    inputs = ["--model", model, "--features", features, "--partition", partition, "--k", 2]
    chunks = list(size_chunks([e - s for s, e in read_partition(partition)[1].spans()]))

    for extra in ([], ["--all-segments"]):
        out = tmp_path / "loc.json"
        tracer = traced(["localize", *inputs, *extra, "--out", out])
        scored = [bool(entry["scores"]) for entry in json.loads(out.read_text())]
        topk = [i for i, name_id in enumerate(tracer.name)
                if tracer.names[name_id] == "localization.topk"]
        assert len(topk) == sum(any(scored[i] for i in chunk) for chunk in chunks) >= 1, extra
        assert all(tracer.names[tracer.name[tracer.parent[i]]] == "cli.localize"
                   for i in topk), extra
    assert len(chunks) < sum(scored)  # --all-segments: chunks hold several segments


def test_graph_size_reads_a_batch_as_its_graphs_and_their_pairs():
    """graph.build's size: B graphs and the sum of n(n-1)/2 node pairs, padded or not."""
    rng = np.random.default_rng(5)
    features = FeatureMatrix("v", rng.standard_normal((30, 3)))
    graph_size = load_tracing()._graph_size
    batch = build_segment_graphs(features, [(0, 7), (7, 14), (20, 27)])
    assert graph_size((), batch) == {"graphs": 3, "pairs": 3 * 21}
    rows = [(build_segment_graphs(features, [(0, n)]), 0) for n in (1, 4, 9)] + batch.rows()[:1]
    packed = GraphBatch.pack(rows)
    assert packed.sizes.tolist() == [1, 4, 9, 7]
    assert graph_size((), packed) == {"graphs": 4, "pairs": 0 + 6 + 36 + 21}


def test_benchmark_and_readme_run_configs_load(tmp_path, monkeypatch):
    """The run config the benchmark writes and the README's config.json still load."""
    pipebench = TRACING.parent
    monkeypatch.syspath_prepend(str(pipebench))  # workloads imports its sibling modules
    monkeypatch.delenv("CEGL_SEED", raising=False)
    spec = importlib.util.spec_from_file_location("pipebench_workloads", pipebench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    readme = (pipebench.parent / "README.md").read_text()
    block = readme.split("cat > config.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    for name, text in (("benchmark", json.dumps(workloads.README_CONFIG)), ("readme", block)):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        cfg = cegl.cli.load_run_config(path)
        assert cfg.similarity == SimilarityConfig("cosine"), name
        assert cfg.model.aggregator_kind == "mean", name
