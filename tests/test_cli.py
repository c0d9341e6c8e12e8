import json
import re
import shutil
import struct
from dataclasses import asdict

import numpy as np
import pytest

from cegl import cli, graph, localization, model
from cegl.cli import main
from cegl.dataio import (
    FeatureMatrix,
    derive_segment_labels,
    read_annotations,
    read_feature_matrix,
    write_feature_matrix,
)
from cegl.graph import build_segment_graphs, map_size_chunks
from cegl.localization import topk_select
from cegl.metrics import coverage_curve, write_coverage_csv
from cegl.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from cegl.segmentation import (
    Partition,
    SegmentationConfig,
    pelt,
    read_partition,
    write_partition,
)
from forward_calls import (
    assert_each_segment_scored_once,
    record_forward_calls,
    record_graph_builds,
)


def write_config(path, **overrides):
    cfg = {
        "synth": {
            "videos": 3,
            "segment_count": 8,
            "mean_segment_len": 10,
            "feature_dim": 8,
            "abnormal_segment_fraction": 0.5,
            "abnormal_frame_fraction": 0.35,
            "cluster_spread": 0.16,
            "abnormal_offset_norm": 8.0,
            "seed": 100,
        },
        "segmentation": {"penalty": 8.0, "min_len": 5},
        "similarity": {"metric": "cosine"},
        "model": {
            "layer_dims": [8, 12, 8],
            "aggregator_kind": "mean",
            "readout_kind": "attention",
            "attention_averaged": False,
        },
        "train": {
            "learning_rate": 0.001,
            "batch_size": 8,
            "epochs": 5,
            "seed": 7,
            "init_scale": 2.0,
            "class_weighting": True,
        },
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def run_pipeline(tmp_path, name="run"):
    """synth -> segment -> train -> classify -> localize -> evaluate -> curve."""
    base = tmp_path / name
    base.mkdir()
    config = write_config(base / "config.json")
    data = base / "data"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0

    features = data / "video-000.cegf"
    partition = base / "video-000.partition.json"
    assert main(["segment", "--features", str(features), "--config", str(config),
                 "--out", str(partition)]) == 0

    ckpt = base / "model.cegm"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(ckpt)]) == 0

    preds = base / "preds.json"
    assert main(["classify", "--model", str(ckpt), "--features", str(features),
                 "--partition", str(partition), "--out", str(preds)]) == 0

    loc = base / "loc.json"
    assert main(["localize", "--model", str(ckpt), "--features", str(features),
                 "--partition", str(partition), "--k", "2", "--out", str(loc),
                 "--all-segments"]) == 0

    metrics = base / "metrics.json"
    assert main(["evaluate", "--preds", str(preds),
                 "--annotations", str(data / "video-000.annotations.json"),
                 "--partition", str(partition), "--out", str(metrics)]) == 0

    curve = base / "curve.csv"
    assert main(["coverage-curve", "--video", str(loc), str(partition),
                 str(data / "video-000.annotations.json"),
                 "--ks", "1,2,3,5,7,9", "--out", str(curve)]) == 0
    return base


class TestSynth:
    def test_writes_triple_per_video(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        out = tmp_path / "data"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        for i in range(3):
            vid = f"video-{i:03d}"
            features = read_feature_matrix(out / f"{vid}.cegf")
            ann = read_annotations(out / f"{vid}.annotations.json")
            _, part = read_partition(out / f"{vid}.true_partition.json")
            assert features.frame_count == part.frame_count
            assert len(ann.frame_labels) == features.frame_count

    def test_five_video_batch(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        cfg = json.loads(config.read_text())
        cfg["synth"]["videos"] = 5
        config.write_text(json.dumps(cfg))
        out = tmp_path / "data"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        assert len(list(out.glob("*.cegf"))) == 5
        assert len(list(out.iterdir())) == 15

    def test_deterministic_per_seed(self, tmp_path):
        config = write_config(tmp_path / "config.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["synth", "--config", str(config), "--out", str(out2)]) == 0
        for p1 in sorted(out1.iterdir()):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_bytes(self, tmp_path):
        c1 = write_config(tmp_path / "c1.json")
        cfg = json.loads(c1.read_text())
        cfg["synth"]["seed"] = 999
        c2 = tmp_path / "c2.json"
        c2.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", str(c1), "--out", str(out1)]) == 0
        assert main(["synth", "--config", str(c2), "--out", str(out2)]) == 0
        assert (out1 / "video-000.cegf").read_bytes() != (out2 / "video-000.cegf").read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        config = write_config(tmp_path / "config.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", str(config), "--out", str(out1)]) == 0
        monkeypatch.setenv("CEGL_SEED", "4242")
        assert main(["synth", "--config", str(config), "--out", str(out2)]) == 0
        assert (out1 / "video-000.cegf").read_bytes() != (out2 / "video-000.cegf").read_bytes()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", typo_section={"x": 1})
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "typo_section" in capsys.readouterr().err


class TestPipeline:
    def test_full_pipeline_byte_identical_across_runs(self, tmp_path):
        base1 = run_pipeline(tmp_path, "run1")
        base2 = run_pipeline(tmp_path, "run2")
        for name in ("model.cegm", "preds.json", "loc.json", "metrics.json", "curve.csv",
                     "video-000.partition.json"):
            assert (base1 / name).read_bytes() == (base2 / name).read_bytes()

    def test_segment_output_is_valid_partition(self, tmp_path):
        base = run_pipeline(tmp_path)
        video_id, part = read_partition(base / "video-000.partition.json")
        assert video_id == "video-000"
        features = read_feature_matrix(base / "data" / "video-000.cegf")
        assert part.frame_count == features.frame_count
        assert all(e - s >= 5 for s, e in part.spans())

    def test_checkpoint_loadable_and_echoes_segmentation(self, tmp_path):
        base = run_pipeline(tmp_path)
        params, seg = load_checkpoint(base / "model.cegm")
        assert params.config.layer_dims == (8, 12, 8)
        assert params.config.aggregator_kind == "mean"
        assert asdict(seg) == {"penalty": 8.0, "min_len": 5}

    def test_predictions_schema(self, tmp_path):
        base = run_pipeline(tmp_path)
        preds = json.loads((base / "preds.json").read_text())
        assert preds["video_id"] == "video-000"
        for seg in preds["segments"]:
            assert set(seg) == {"segment_id", "start", "end", "score", "predicted"}
            assert seg["predicted"] in (0, 1)

    def test_localization_schema(self, tmp_path):
        base = run_pipeline(tmp_path)
        loc = json.loads((base / "loc.json").read_text())
        _, part = read_partition(base / "video-000.partition.json")
        assert len(loc) == part.segment_count
        for entry in loc:
            assert set(entry) == {
                "segment_id", "start", "end", "predicted", "k", "selected_frames", "scores",
            }
            assert entry["k"] == 2
            assert len(entry["selected_frames"]) <= 2
            for f in entry["selected_frames"]:
                assert entry["start"] <= f < entry["end"]

    def test_metrics_schema(self, tmp_path):
        base = run_pipeline(tmp_path)
        metrics = json.loads((base / "metrics.json").read_text())
        for key in ("accuracy", "sensitivity", "specificity", "fscore", "per_class"):
            assert key in metrics
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_coverage_curve_csv(self, tmp_path):
        base = run_pipeline(tmp_path)
        lines = (base / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "k,coverage"
        assert len(lines) == 7
        ks = [int(row.split(",")[0]) for row in lines[1:]]
        coverage = [float(row.split(",")[1]) for row in lines[1:]]
        assert ks == [1, 2, 3, 5, 7, 9]
        assert coverage == sorted(coverage)


class TestErrorPaths:
    def test_classify_without_checkpoint(self, tmp_path, capsys):
        code = main(["classify", "--model", str(tmp_path / "missing.cegm"),
                     "--features", "x", "--partition", "y", "--out", "z"])
        assert code == 2
        assert "checkpoint not found" in capsys.readouterr().err

    def test_train_without_data_dir(self, tmp_path, capsys):
        config = write_config(tmp_path / "config.json")
        code = main(["train", "--data", str(tmp_path / "nope"), "--config", str(config),
                     "--out", str(tmp_path / "m.cegm")])
        assert code == 2
        assert "data directory" in capsys.readouterr().err

    def test_unknown_train_key_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "config.json",
            train={"learning_rate": 0.001, "momentum": 0.9},
        )
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "momentum" in capsys.readouterr().err

    @pytest.mark.parametrize("ks", ["3,1", "0,1", "a,b", "1,1,2"])
    def test_bad_ks_rejected(self, tmp_path, capsys, ks):
        # --ks is checked before any input is read, so missing ones are no excuse.
        out = tmp_path / "c.csv"
        assert_exit_2_without_output(
            ["coverage-curve", "--video", tmp_path / "loc.json", tmp_path / "part.json",
             tmp_path / "ann.json", "--ks", ks, "--out", out],
            out, capsys, "--ks",
        )

    def test_no_partial_output_on_failure(self, tmp_path):
        # evaluate with mismatched partition must not leave an output file
        config = write_config(tmp_path / "config.json")
        data = tmp_path / "data"
        assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps({"video_id": "video-000", "segments": [
            {"segment_id": 0, "start": 0, "end": 4, "score": 0.9, "predicted": 1}
        ]}))
        bad_partition = tmp_path / "part.json"
        bad_partition.write_text(json.dumps({"video_id": "video-000", "boundaries": [0, 7]}))
        out = tmp_path / "metrics.json"
        code = main(["evaluate", "--preds", str(preds),
                     "--annotations", str(data / "video-000.annotations.json"),
                     "--partition", str(bad_partition), "--out", str(out)])
        assert code != 0
        assert not out.exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One finished pipeline run, shared by tests that only read its files."""
    return run_pipeline(tmp_path_factory.mktemp("shared"))


def checkpoint_header(path):
    """The parsed JSON header of a CEGM checkpoint."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    return json.loads(raw[12 : 12 + header_len])


def splice_header(src, dst, new):
    """Copy a CEGM checkpoint with the bytes new in place of its JSON header."""
    raw = src.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    dst.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + header_len :])


def replace_header(src, dst, header):
    """Copy a CEGM checkpoint with header, any JSON value, as its JSON header."""
    splice_header(src, dst, json.dumps(header, sort_keys=True).encode())


def rewrite_header(src, dst, edit):
    """Copy a CEGM checkpoint with its JSON header changed in place by edit(header)."""
    header = checkpoint_header(src)
    edit(header)
    replace_header(src, dst, header)


# The longest error line a refused input may give, newline included: a
# message names the fault, not the whole input that holds it.
MAX_ERROR_BYTES = 512


def assert_exit_2_without_output(argv, out, capsys, *fragments):
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"cegl {argv[0]}: ")
    assert len(err.encode()) <= MAX_ERROR_BYTES, f"{len(err.encode())}-byte error line"
    for fragment in fragments:
        assert fragment in err
    assert not out.exists()


class TestCheckpointHeader:
    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda h: h.pop("readout_kind"), "readout_kind"),
            (lambda h: h.update(aggregator_kind="bogus"), "bogus"),
            # a checkpoint trained with the retired mean readout
            (lambda h: h.update(readout_kind="mean"), "unknown readout_kind 'mean'"),
            (lambda h: h.update(attention_averaged="false"), "attention_averaged"),
            # a mean model's table under a gated header lacks the gate entries
            (lambda h: h.update(aggregator_kind="gated"), "parameter table"),
            # the model keys are read like the run config's model section
            (lambda h: h.update(layer_dims=[8, True, 8]), "layer_dims"),
            (lambda h: h.update(a_dim=True), "a_dim"),
            # a null must not fall back to the model config's default
            (lambda h: h.update(a_dim=None), "a_dim"),
            (lambda h: h.update(layer_dims=None), "layer_dims"),
        ],
        ids=["missing-key", "unknown-kind", "retired-mean-readout", "non-bool-flag",
             "table-mismatch", "bool-layer-dim", "bool-a-dim", "null-a-dim", "null-layer-dims"],
    )
    def test_classify_rejects_bad_header(self, pipeline, tmp_path, capsys, edit, fragment):
        model = tmp_path / "bad.cegm"
        rewrite_header(pipeline / "model.cegm", model, edit)
        out = tmp_path / "preds.json"
        assert_exit_2_without_output(
            ["classify", "--model", model, "--features", pipeline / "data" / "video-000.cegf",
             "--partition", pipeline / "video-000.partition.json", "--out", out],
            out, capsys, fragment,
        )

    def test_localize_rejects_checkpoint_without_segmentation(self, pipeline, tmp_path, capsys):
        model = tmp_path / "noseg.cegm"
        rewrite_header(pipeline / "model.cegm", model, lambda h: h.update(segmentation=None))
        out = tmp_path / "loc.json"
        assert_exit_2_without_output(
            ["localize", "--model", model, "--features", pipeline / "data" / "video-000.cegf",
             "--partition", pipeline / "video-000.partition.json", "--k", "2", "--out", out],
            out, capsys, "segmentation",
        )


class TestCoverageCurveSegmentation:
    @staticmethod
    def localized_videos(pipeline, run, model, all_segments):
        """`--video` arguments of each pipeline video localized by model on its `cegl segment`
        partition, and the library's (annotations, partition, frame scores) of the same."""
        params, _ = load_checkpoint(model)
        frames = "all" if all_segments else "predicted"
        argv, data = [], []
        for cegf in sorted((pipeline / "data").glob("*.cegf")):
            part, loc = run / f"{cegf.stem}.partition.json", run / f"{cegf.stem}.{frames}.json"
            ann = cegf.with_name(cegf.stem + ".annotations.json")
            assert main(["segment", "--features", str(cegf), "--config",
                         str(pipeline / "config.json"), "--out", str(part)]) == 0
            assert main(["localize", "--model", str(model), "--features", str(cegf),
                         "--partition", str(part), "--k", "2", "--out", str(loc)]
                        + (["--all-segments"] if all_segments else [])) == 0
            argv += ["--video", str(loc), str(part), str(ann)]
            features, partition = read_feature_matrix(cegf), read_partition(part)[1]
            scored = map_size_chunks(partition.spans(), lambda chunk: localization.score_segments(
                build_segment_graphs(features, chunk), params, frames))
            data.append((read_annotations(ann), partition, [f for _, f in scored]))
        return argv, data

    def test_matches_library_curve_on_segment_partitions(self, pipeline, tmp_path):
        """In each localize mode and for each aggregator, curve.csv from the localize outputs
        has the bytes of `coverage_curve` of `score_segments`' frame scores."""
        ks = [1, 2, 3, 5, 7, 9]
        config = json.loads((pipeline / "config.json").read_text())
        for aggregator in ("mean", "gated"):
            run = tmp_path / aggregator
            run.mkdir()
            model_cfg = {**config["model"], "aggregator_kind": aggregator}
            write_config(run / "config.json", model=model_cfg)
            model = run / "model.cegm"
            assert main(["train", "--data", str(pipeline / "data"), "--config",
                         str(run / "config.json"), "--out", str(model)]) == 0
            for all_segments in (True, False):
                argv, data = self.localized_videos(pipeline, run, model, all_segments)
                got, want = run / "got.csv", run / "want.csv"
                assert main(["coverage-curve", *argv, "--ks", ",".join(map(str, ks)),
                             "--out", str(got)]) == 0
                write_coverage_csv(coverage_curve(data, ks), want)
                assert got.read_bytes() == want.read_bytes()
                # --all-segments ranks every segment, so its curve rests on more than the
                # few segments this briefly trained model predicts abnormal
                scored = [f is not None for _, _, scores in data for f in scores]
                assert all(scored) == all_segments

    def test_k_past_int64_selects_every_frame(self, pipeline, tmp_path):
        huge = 99999999999999999999999
        argv, data = self.localized_videos(pipeline, tmp_path, pipeline / "model.cegm", True)
        # no segment is longer than its video, so this k also selects every frame
        longest = max(len(ann.frame_labels) for ann, _, _ in data)
        want = coverage_curve(data, [1, 2, longest])
        assert want[2][1] == 1.0
        out = tmp_path / "curve.csv"
        assert main(["coverage-curve", *argv, "--ks", f"1,2,{huge}", "--out", str(out)]) == 0
        assert out.read_text().splitlines() == [
            "k,coverage", *(f"{k},{c!r}" for k, c in [*want[:2], (huge, want[2][1])])]


class TestEvaluateMalformedInput:
    def evaluate_argv(self, pipeline, preds, partition, out):
        return ["evaluate", "--preds", preds,
                "--annotations", pipeline / "data" / "video-000.annotations.json",
                "--partition", partition, "--out", out]

    def assert_segments_rejected(self, pipeline, tmp_path, capsys, edit, fragment):
        """evaluate exits 2 on preds.json with its segments list changed by edit."""
        preds = json.loads((pipeline / "preds.json").read_text())
        edit(preds["segments"])
        bad = tmp_path / "preds.json"
        bad.write_text(json.dumps(preds))
        out = tmp_path / "metrics.json"
        argv = self.evaluate_argv(pipeline, bad, pipeline / "video-000.partition.json", out)
        assert_exit_2_without_output(argv, out, capsys, fragment)

    def test_segment_without_predicted(self, pipeline, tmp_path, capsys):
        self.assert_segments_rejected(
            pipeline, tmp_path, capsys, lambda segs: segs[0].pop("predicted"), "predicted"
        )

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda segs: segs[0].update(predicted=0.7), "predicted"),
            (lambda segs: segs[0].update(predicted="1"), "predicted"),
            (lambda segs: segs[0].update(predicted=True), "predicted"),
            (lambda segs: segs[0].update(predicted=2), "predicted"),
            (lambda segs: segs[1].update(segment_id=0), "segment_id"),
            (lambda segs: segs[0].update(segment_id=-1), "segment_id"),
            (lambda segs: segs[0].update(segment_id=0.0), "segment_id"),
            (lambda segs: segs[0].update(segment_id="0"), "segment_id"),
        ],
        ids=["real-predicted", "string-predicted", "true-predicted", "two-predicted",
             "duplicate-id", "negative-id", "real-id", "string-id"],
    )
    def test_malformed_segment_value(self, pipeline, tmp_path, capsys, edit, fragment):
        self.assert_segments_rejected(pipeline, tmp_path, capsys, edit, fragment)

    @pytest.mark.parametrize(
        "edit, fragment",
        [
            (lambda segs: segs[0].update(start=999, end=-5, score="high"), "start 999"),
            (lambda segs: segs[1].update(start=segs[1]["start"] + 1), "segment 1"),
            (lambda segs: segs[-1].update(end=segs[-1]["end"] - 1), "span"),
            (lambda segs: segs[0].update(start=0.0), "start 0.0"),
            (lambda segs: segs[0].update(start=False), "start False"),
            (lambda segs: segs[0].pop("end"), "end None"),
            (lambda segs: segs[0].update(score="high"), "score 'high'"),
            (lambda segs: segs[0].update(score=True), "score True"),
            (lambda segs: segs[0].update(score=1.5), "score 1.5"),
            (lambda segs: segs[0].update(score=-0.25), "score -0.25"),
            (lambda segs: segs[0].update(score=float("nan")), "score nan"),
            (lambda segs: segs[0].update(score=None), "score None"),
        ],
        ids=["reproduced", "shifted-start", "short-end", "real-start", "false-start",
             "no-end", "string-score", "true-score", "score-above-one", "negative-score",
             "nan-score", "null-score"],
    )
    def test_malformed_span_or_score(self, pipeline, tmp_path, capsys, edit, fragment):
        self.assert_segments_rejected(pipeline, tmp_path, capsys, edit, fragment)

    @pytest.mark.parametrize(
        "score, predicted",
        [(0.99, 0), (0.01, 1), (0.5, 0)],
        ids=["high-score-predicted-0", "low-score-predicted-1", "half-score-predicted-0"],
    )
    def test_predicted_disagrees_with_score(self, pipeline, tmp_path, capsys, score, predicted):
        self.assert_segments_rejected(
            pipeline, tmp_path, capsys,
            lambda segs: segs[0].update(score=score, predicted=predicted),
            f"segment 0 has score {score} and predicted {predicted}; ",
        )

    def test_integer_score_accepted(self, pipeline, tmp_path):
        preds = json.loads((pipeline / "preds.json").read_text())
        preds["segments"][0]["score"] = preds["segments"][0]["predicted"]
        edited = tmp_path / "preds.json"
        edited.write_text(json.dumps(preds))
        out = tmp_path / "metrics.json"
        argv = self.evaluate_argv(pipeline, edited, pipeline / "video-000.partition.json", out)
        assert main([str(a) for a in argv]) == 0
        assert out.read_bytes() == (pipeline / "metrics.json").read_bytes()

    def test_non_list_boundaries(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "part.json"
        bad.write_text(json.dumps({"video_id": "video-000", "boundaries": 5}))
        out = tmp_path / "metrics.json"
        argv = self.evaluate_argv(pipeline, pipeline / "preds.json", bad, out)
        assert_exit_2_without_output(argv, out, capsys, "boundaries")


def test_classify_rejects_non_finite_checkpoint_weight(pipeline, tmp_path, capsys):
    raw = bytearray((pipeline / "model.cegm").read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))  # the classifier bias
    model = tmp_path / "nan.cegm"
    model.write_bytes(bytes(raw))
    out = tmp_path / "preds.json"
    assert_exit_2_without_output(
        ["classify", "--model", model, "--features", pipeline / "data" / "video-000.cegf",
         "--partition", pipeline / "video-000.partition.json", "--out", out],
        out, capsys, "not finite", "classifier.bias",
    )


@pytest.mark.parametrize("label", [0.5, True, 1.0], ids=["half", "true", "real-one"])
def test_evaluate_rejects_non_integer_frame_label(pipeline, tmp_path, capsys, label):
    ann = json.loads((pipeline / "data" / "video-000.annotations.json").read_text())
    ann["frame_labels"][3] = label
    annotations = tmp_path / "ann.json"
    annotations.write_text(json.dumps(ann))
    out = tmp_path / "metrics.json"
    assert_exit_2_without_output(
        ["evaluate", "--preds", pipeline / "preds.json", "--annotations", annotations,
         "--partition", pipeline / "video-000.partition.json", "--out", out],
        out, capsys, "frame_labels",
    )


@pytest.mark.parametrize("edit", [
    lambda b: [0, True] + b[1:],
    lambda b: [0, b[1] + 0.5] + b[2:],
], ids=["true", "real"])
def test_classify_rejects_non_integer_boundary(pipeline, tmp_path, capsys, edit):
    part = json.loads((pipeline / "video-000.partition.json").read_text())
    part["boundaries"] = edit(part["boundaries"])
    partition = tmp_path / "part.json"
    partition.write_text(json.dumps(part))
    out = tmp_path / "preds.json"
    assert_exit_2_without_output(
        ["classify", "--model", pipeline / "model.cegm",
         "--features", pipeline / "data" / "video-000.cegf", "--partition", partition,
         "--out", out],
        out, capsys, "bad partition boundaries", "boundaries must be integers",
    )


def inference_argv(pipeline, command, out, partition=None):
    """classify or localize (k=2) argv for the pipeline's first video."""
    argv = [command, "--model", pipeline / "model.cegm",
            "--features", pipeline / "data" / "video-000.cegf",
            "--partition", partition or pipeline / "video-000.partition.json", "--out", out]
    return [str(a) for a in argv] + (["--k", "2"] if command == "localize" else [])


def assert_built_and_scored_per_size_chunk(calls, built, partition):
    """One graph build per size chunk of the partition, and one score for each segment."""
    spans = read_partition(partition)[1].spans()
    per_chunk = [[spans[i] for i in c] for c in graph.size_chunks(spans)]
    assert [chunk for chunk, _ in built] == per_chunk
    assert_each_segment_scored_once(calls, built, spans)


@pytest.mark.parametrize("all_segments", [True, False])
def test_localize_runs_one_forward_per_segment(pipeline, tmp_path, monkeypatch, all_segments):
    calls = record_forward_calls(monkeypatch, cli, localization, model)
    built = record_graph_builds(monkeypatch, cli)
    argv = inference_argv(pipeline, "localize", tmp_path / "loc.json")
    assert main(argv + (["--all-segments"] if all_segments else [])) == 0
    assert_built_and_scored_per_size_chunk(calls, built, pipeline / "video-000.partition.json")


def test_classify_runs_one_forward_per_segment_and_no_frame_scores(
    pipeline, tmp_path, monkeypatch
):
    calls = record_forward_calls(monkeypatch, cli, localization, model)
    built = record_graph_builds(monkeypatch, cli)
    frame_scored = []
    real_node_scores = localization.node_scores

    def counting_node_scores(cache):
        frame_scored.append(cache)
        return real_node_scores(cache)

    monkeypatch.setattr(localization, "node_scores", counting_node_scores)
    assert main(inference_argv(pipeline, "classify", tmp_path / "preds.json")) == 0
    assert_built_and_scored_per_size_chunk(calls, built, pipeline / "video-000.partition.json")
    assert frame_scored == []


def run_train(pipeline, out):
    return main(["train", "--data", str(pipeline / "data"), "--config",
                 str(pipeline / "config.json"), "--out", str(out)])


def test_train_builds_one_batch_per_size_chunk(pipeline, tmp_path, monkeypatch):
    """train builds each video's graphs one size chunk at a time into one store.

    Each built chunk is stored once, in span order, and the store's node
    rows are the videos' frames concatenated.
    """
    built = record_graph_builds(monkeypatch, cli)
    trained = []
    real_train = cli.train

    def recording_train(store, labels, params, cfg):
        trained.append((store, labels))
        return real_train(store, labels, params, cfg)

    monkeypatch.setattr(cli, "train", recording_train)
    out = tmp_path / "model.cegm"
    assert run_train(pipeline, out) == 0
    assert out.read_bytes() == (pipeline / "model.cegm").read_bytes()
    segmentation = load_checkpoint(out)[1]
    want, places, starts, frames, labels = [], [], [], [], []
    for cegf in sorted((pipeline / "data").glob("*.cegf")):
        features = read_feature_matrix(cegf)
        partition = pelt(features, segmentation)
        video = partition.spans()
        for chunk in graph.size_chunks(video):
            want.append([video[i] for i in chunk])
            places.append([len(starts) + i for i in chunk])
        starts += [sum(map(len, frames)) + s for s, _ in video]
        frames.append(features.values)
        ann = read_annotations(cegf.with_name(cegf.stem + ".annotations.json"))
        labels += derive_segment_labels(ann, partition).tolist()
    assert [chunk for chunk, _ in built] == want
    ((store, trained_labels),) = trained
    assert trained_labels.tolist() == labels
    # each built graph is stored once, at its span's place in span order
    assert sorted(g for chunk in places for g in chunk) == list(range(len(starts)))
    assert store.node_starts.tolist() == starts
    assert len(store.edges) == len(store.means) == 1 + sum(
        batch.edge_weights.size for _, batch in built)
    for (chunk, batch), place in zip(built, places, strict=True):
        n = chunk[0][1] - chunk[0][0]
        assert store.sizes[place].tolist() == [n] * len(chunk)
        cells = store.cell_starts[place, None] + np.arange(n * n)
        assert store.edges[cells].tobytes() == batch.edge_weights.tobytes()
        assert store.means[cells].tobytes() == batch.mean_weights.tobytes()
    # the node rows are the videos' frames, then one zero row
    assert store.nodes.tobytes() == np.concatenate(frames + [np.zeros((1, 8))]).tobytes()


def test_train_checks_each_built_graphs_edges_once(pipeline, tmp_path, monkeypatch):
    """The edge cells train checks sum to B * n^2 over its built batches: no graph twice."""
    built = record_graph_builds(monkeypatch, cli)
    checked = []
    real_check = graph._check_edge_weights

    def counting_check(w):
        checked.append(w.size)
        return real_check(w)

    monkeypatch.setattr(graph, "_check_edge_weights", counting_check)
    assert run_train(pipeline, tmp_path / "model.cegm") == 0
    assert len(built) > 3  # several size chunks over the three videos
    assert sum(checked) == sum(len(batch) * int(batch.sizes[0]) ** 2 for _, batch in built)


def make_asymmetric(w):
    w[0, 1] = np.nextafter(w[1, 0], 2.0)


def make_out_of_range(w):
    w[0, 1] = w[1, 0] = 1.5


@pytest.mark.parametrize(
    "corrupt, fragment",
    [(make_asymmetric, "symmetric"), (make_out_of_range, "[0, 1]")],
    ids=["asymmetric", "out-of-range"],
)
def test_every_chunk_of_edge_weights_is_checked(
    pipeline, tmp_path, monkeypatch, capsys, corrupt, fragment
):
    """A bad matrix in the last chunk of the batched kernel's output fails the build."""
    features = read_feature_matrix(pipeline / "data" / "video-000.cegf")
    _, partition = read_partition(pipeline / "video-000.partition.json")
    chunks = len(list(graph.size_chunks(partition.spans())))
    real_kernel = graph._similarity_batch
    calls = []

    def corrupting_kernel(values):
        weights = real_kernel(values)
        calls.append(values.shape)
        if len(calls) == chunks:
            corrupt(weights[-1])
        return weights

    monkeypatch.setattr(graph, "_similarity_batch", corrupting_kernel)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        map_size_chunks(partition.spans(), lambda spans: build_segment_graphs(features, spans))
    assert len(calls) == chunks
    out = tmp_path / "preds.json"
    calls.clear()
    assert_exit_2_without_output(inference_argv(pipeline, "classify", out), out, capsys, fragment)


def test_localize_json_holds_score_segments_output(pipeline):
    """loc.json (--all-segments, k=2) is score_segments' output with its top-2 frames."""
    params, _ = load_checkpoint(pipeline / "model.cegm")
    features = read_feature_matrix(pipeline / "data" / "video-000.cegf")
    _, partition = read_partition(pipeline / "video-000.partition.json")
    scored = map_size_chunks(partition.spans(), lambda spans: localization.score_segments(
        build_segment_graphs(features, spans), params, "all"))
    loc = json.loads((pipeline / "loc.json").read_text())
    assert len(loc) == len(scored)
    for i, (entry, (s, e), (score, frame_scores)) in enumerate(
        zip(loc, partition.spans(), scored)
    ):
        assert (entry["segment_id"], entry["start"], entry["end"], entry["k"]) == (i, s, e, 2)
        assert entry["predicted"] == int(score >= 0.5)
        assert entry["scores"] == frame_scores.tolist()
        assert entry["selected_frames"] == (topk_select(frame_scores, 2) + s).tolist()


@pytest.mark.parametrize("all_segments", [True, False])
def test_localize_selects_within_each_size_chunk(tmp_path, monkeypatch, all_segments):
    """Ten-frame segments fill two size chunks; each entry holds its own top-3 frames.

    Each size chunk that holds a scored segment makes one `topk_select` call over its
    scored segments' stacked frame scores, and a chunk with none makes no call.
    """
    sizes = (4, 1, 7, 5, *[10] * (graph.BATCH_NODES // 10 + 5), graph.BATCH_NODES // 2 + 1, 4)
    offsets = np.cumsum((0, *sizes))
    features = FeatureMatrix("v", np.random.default_rng(8).standard_normal((offsets[-1], 3)))
    spans = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    assert sum(sizes[c[0]] == 10 for c in graph.size_chunks(spans)) == 2
    params = init_params(ModelConfig((3, 4, 2)), seed=9)
    predictions = [score for score, _ in map_size_chunks(spans, lambda chunk: (
        localization.score_segments(build_segment_graphs(features, chunk), params, "none")))]
    # a bias at the median prediction's logit puts segments on both sides of 0.5
    median = np.median(predictions)
    params.arrays["classifier.bias"][0] -= np.log(median / (1 - median))
    paths = {name: tmp_path / name for name in ("v.cegf", "v.partition.json", "m.cegm", "loc.json")}
    write_feature_matrix(features, paths["v.cegf"])
    write_partition(Partition(tuple(offsets.tolist())), "v", paths["v.partition.json"])
    save_checkpoint(params, paths["m.cegm"], segmentation=SegmentationConfig())
    calls = []

    def recording_topk_select(scores, k):
        calls.append(scores.tolist())
        return topk_select(scores, k)

    monkeypatch.setattr(cli, "topk_select", recording_topk_select)
    assert main(["localize", "--model", str(paths["m.cegm"]), "--features", str(paths["v.cegf"]),
                 "--partition", str(paths["v.partition.json"]), "--k", "3",
                 "--out", str(paths["loc.json"])] + (["--all-segments"] if all_segments else [])) == 0
    loc = json.loads(paths["loc.json"].read_text())
    assert [(entry["start"], entry["end"]) for entry in loc] == spans
    for entry in loc:
        want = topk_select(entry["scores"], 3) + entry["start"] if entry["scores"] else []
        assert entry["selected_frames"] == list(want)
    scored_tens = [bool(entry["scores"]) for entry in loc if entry["end"] - entry["start"] == 10]
    assert any(scored_tens) and all(scored_tens) == all_segments
    per_chunk = [[loc[i]["scores"] for i in chunk if loc[i]["scores"]]
                 for chunk in graph.size_chunks(spans)]
    assert calls == [rows for rows in per_chunk if rows]
    assert all(per_chunk) == all_segments


def other_video(path, out):
    """Copy a JSON input file with its video_id changed to another video's."""
    obj = json.loads(path.read_text())
    obj["video_id"] = "video-001"
    out.write_text(json.dumps(obj))
    return out


@pytest.mark.parametrize(
    "command, swapped",
    [("classify", "partition"), ("localize", "partition"),
     ("evaluate", "annotations"), ("evaluate", "preds"),
     ("train", "annotations"), ("coverage-curve", "annotations"),
     ("coverage-curve", "partition")],
)
def test_inputs_for_different_videos_exit_2(pipeline, tmp_path, capsys, command, swapped):
    inputs = {
        "partition": pipeline / "video-000.partition.json",
        "annotations": pipeline / "data" / "video-000.annotations.json",
        "preds": pipeline / "preds.json",
    }
    inputs[swapped] = other_video(inputs[swapped], tmp_path / f"{swapped}.json")
    out = tmp_path / "out.json"
    if command == "train":
        # a data directory whose video-000 annotations name another video
        data = tmp_path / "data"
        shutil.copytree(pipeline / "data", data)
        shutil.copy(inputs["annotations"], data / "video-000.annotations.json")
        argv = ["train", "--config", pipeline / "config.json", "--data", data, "--out", out]
    elif command == "coverage-curve":
        argv = ["coverage-curve", "--video", pipeline / "loc.json", inputs["partition"],
                inputs["annotations"], "--ks", "1,2", "--out", out]
    elif command == "evaluate":
        argv = ["evaluate", "--preds", inputs["preds"], "--annotations", inputs["annotations"],
                "--partition", inputs["partition"], "--out", out]
    else:
        argv = inference_argv(pipeline, command, out, inputs["partition"])
    assert_exit_2_without_output(argv, out, capsys, "'video-000'", "'video-001'")


def moved_end(shift):
    """Edit of a partition file that moves its last boundary by shift frames."""
    return lambda p: {**p, "boundaries": [*p["boundaries"][:-1], p["boundaries"][-1] + shift]}


def second_boundary(value):
    """Edit of a partition file that puts value in place of its second boundary."""
    return lambda p: {**p, "boundaries": [0, value, *p["boundaries"][2:]]}


def cegf_header(frames=lambda t: t, dim=lambda d: d):
    """Edit of a CEGF file whose header's frame count t and feature dim d go through two maps."""

    def edit(raw):
        t, d = struct.unpack_from("<QQ", raw, 8)
        return raw[:8] + struct.pack("<QQ", frames(t), dim(d)) + raw[24:]

    return edit


def cegf_value(value):
    """Edit of a CEGF file that makes its sixth float32 value `value`."""
    return lambda raw: raw[:44] + struct.pack("<f", value) + raw[48:]


def first_segment(field, value):
    """Edit of a predictions file that sets `field` of its first segment to value."""
    return lambda p: {**p, "segments": [{**p["segments"][0], field: value}, *p["segments"][1:]]}


def first_entry(field, value):
    """Edit of a localize output that sets `field` of its first entry to value."""
    return lambda loc: [{**loc[0], field: value}, *loc[1:]]


def first_score(value):
    """Edit of a localize output that makes its first entry's first frame score value."""
    return lambda loc: [{**loc[0], "scores": [value, *loc[0]["scores"][1:]]}, *loc[1:]]


def config_section(key, value):
    """Edit of a run config that makes its `key` section value."""
    return lambda c: {**c, key: value}


def config_entry(key, field, value):
    """Edit of a run config that sets `field` of its `key` section to value."""
    return lambda c: {**c, key: {**c[key], field: value}}


def hostile_input_cases():
    """(id, file, command, new content from old, fragment): one bad input file per row.

    Each file's one reader must refuse it: the annotations in `train`,
    `evaluate` and `coverage-curve`, the checkpoint header in `classify`
    and `localize`, a feature file (CEGF, CSV or another suffix) and the
    run config in `segment` (a synth section in `synth`), the predictions
    in `evaluate` and a localize output (the pipeline's `--all-segments`
    one) in `coverage-curve`. A partition that does not end at
    the video's last frame is refused where it meets the features, in
    `classify` and `localize`; its fragment names the partition's end. A
    malformed partition is refused in `classify`, `localize` and
    `evaluate`. No row may raise a warning.
    """
    annotations = {
        "no-frame-labels": (lambda a: {"video_id": a["video_id"]}, "frame_labels"),
        "null-frame-labels": (lambda a: {**a, "frame_labels": None}, "frame_labels"),
        "integer-video-id": (lambda a: {**a, "video_id": 0}, "video_id must be a string, got 0"),
        "long-list-video-id": (lambda a: {**a, "video_id": [0] * 10**5},
                               "video_id must be a string, got [0, 0, 0, "),
        "list-notes": (lambda a: {**a, "notes": [1, 2, 3]},
                       "notes must be a string, got [1, 2, 3]"),
        "many-unknown-keys": (lambda a: {**a, **{f"k{i}": 0 for i in range(10**5)}},
                              "unknown annotation keys ['k0', 'k1', 'k10', "),
        "one-frame-too-many": (lambda a: {**a, "frame_labels": [*a["frame_labels"], 0]},
                               "but annotations have"),
    }

    def retired_segmentation(h):
        """The segmentation section as checkpoints of earlier versions wrote it."""
        return {**h["segmentation"], "cost_kind": "gaussian_mean_l2"}

    headers = {
        "null-segmentation": (lambda h: {**h, "segmentation": None}, "segmentation"),
        "partial-segmentation": (lambda h: {**h, "segmentation": {"min_len": 5}}, "segmentation"),
        "removed-aggregator": (lambda h: {**h, "aggregator_kind": "maxpool"}, "'maxpool'"),
        "removed-readout": (lambda h: {**h, "readout_kind": "sum"}, "'sum'"),
        "removed-mean-readout": (lambda h: {**h, "readout_kind": "mean"},
                                 "unknown readout_kind 'mean'"),
        "unknown-key": (lambda h: {**h, "bogus": 1, "shuffle": True},
                        "unknown checkpoint header keys: ['bogus', 'shuffle']"),
        # a whole header as checkpoints of earlier versions wrote it
        "retired-similarity": (lambda h: {**h, "similarity": {"metric": "cosine"},
                                          "segmentation": retired_segmentation(h)},
                               "unknown checkpoint header keys: ['similarity']"),
        "retired-cost-kind": (lambda h: {**h, "segmentation": retired_segmentation(h)},
                              "unknown segmentation config keys: ['cost_kind']"),
        "list": (lambda h: [], "JSON object"),
        "null": (lambda h: None, "JSON object"),
        "string": (lambda h: "CEGM", "JSON object"),
    }
    for name, (edit, fragment) in annotations.items():
        for command in ("train", "evaluate", "coverage-curve"):
            yield f"annotations-{name}-{command}", "annotations", command, edit, fragment
    for name, (edit, fragment) in headers.items():
        for command in ("classify", "localize"):
            yield f"header-{name}-{command}", "checkpoint", command, edit, fragment
    partitions = {"past-the-video": moved_end(7), "short-of-the-video": moved_end(-3)}
    for name, edit in partitions.items():
        for command in ("classify", "localize"):
            fragment = "partition covers {end} frames"
            yield f"partition-{name}-{command}", "partition", command, edit, fragment
    # An edit may return raw text.
    malformed = {
        "real-boundary": (second_boundary(10.5), "must be integers"),
        "bool-boundary": (second_boundary(True), "must be integers"),
        "string-boundary": (second_boundary("10"), "must be integers"),
        "object-boundary": (second_boundary({}), "must be integers"),
        "long-string-boundary": (second_boundary("1" * 10**5), "must be integers, got '111"),
        "integer-video-id": (lambda p: {**p, "video_id": 0}, "video_id"),
        "long-video-id": (lambda p: {**p, "video_id": "x" * 10**5},
                          "partition is for video 'xxxxxxxxxxxx...xxxxxxxxxxxxx' but"),
        "truncated": (lambda p: json.dumps(p)[: len(json.dumps(p)) // 2], "malformed partition"),
        "huge-boundary": (lambda p: {**p, "boundaries": [*p["boundaries"][:-1], 10**30]},
                          str(10**30)),
        # 100,000 boundaries, the 101st equal to the 100th
        "long-repeated-boundary": (lambda p: {**p, "boundaries": [*range(100), *range(99, 10**5)]},
                                   "boundary 100 is 99 after 99"),
    }
    for name, (edit, fragment) in malformed.items():
        for command in ("classify", "localize", "evaluate"):
            yield f"partition-{name}-{command}", "partition", command, edit, fragment
    # A feature-file edit takes and returns the bytes of the pipeline's CEGF file; the
    # id's first word is the file's suffix.
    features = {
        "cegf-nan": (cegf_value(float("nan")), "non-finite feature at row 0, col 5"),
        "cegf-inf": (cegf_value(float("inf")), "non-finite feature at row 0, col 5"),
        "cegf-frame-too-many": (cegf_header(frames=lambda t: t + 1), "payload length mismatch"),
        "cegf-trailing-bytes": (lambda raw: raw + b"\0\0", "payload length mismatch"),
        "cegf-no-frames": (cegf_header(frames=lambda t: 0), "empty matrix"),
        "cegf-no-features": (cegf_header(dim=lambda d: 0), "empty matrix"),
        "cegf-2-to-the-40-frames": (cegf_header(frames=lambda t: 2**40), "length mismatch"),
        "csv-ragged": (lambda raw: b"1.0,2.0\n3.0\n", "malformed CSV"),
        "csv-nan": (lambda raw: b"1.0,2.0\nnan,3.0\n", "non-finite feature at row 1, col 0"),
        "csv-inf": (lambda raw: b"1.0,2.0\n3.0,inf\n", "non-finite feature at row 1, col 1"),
        "csv-header-row": (lambda raw: b"a,b\n1.0,2.0\n", "malformed CSV"),
        "csv-bad-utf-8": (lambda raw: b"1.0,2.0\n\xff\xfe,3.0\n", "malformed CSV"),
        "csv-empty": (lambda raw: b"", "empty CSV"),
        "csv-whitespace": (lambda raw: b"\n  \n", "empty CSV"),
        "csv-column-names": (lambda raw: b"f0,f1\n1.0,2.0\n", "malformed CSV"),
        "csv-leading-nan": (lambda raw: b"nan,1.0\n2.0,3.0\n", "non-finite feature at row 0"),
        "csv-comments-only": (lambda raw: b"# frames\n", "empty CSV"),
        "txt-other-suffix": (lambda raw: b"1.0,2.0\n", ".cegf or .csv"),
    }
    for name, (edit, fragment) in features.items():
        yield f"{name}-segment", name.split("-")[0], "segment", edit, fragment
    predictions = {
        "string-score": (first_segment("score", "high"), "has score 'high'"),
        "nan-score": (first_segment("score", float("nan")), "has score nan"),
        "float-id": (first_segment("segment_id", 0.0), "need segment_ids 0.."),
        "duplicated-segment": (lambda p: {**p, "segments": p["segments"][:1] + p["segments"]},
                               "need segment_ids 0.."),
        "long-list-video-id": (lambda p: {**p, "video_id": [0] * 10**5},
                               "predictions for [0, 0, 0, "),
    }
    for name, (edit, fragment) in predictions.items():
        yield f"predictions-{name}-evaluate", "predictions", "evaluate", edit, fragment
    localizations = {
        "object-root": (lambda loc: {"segments": loc}, "must list"),
        "one-entry-short": (lambda loc: loc[:-1], "must list"),
        "list-entry": (lambda loc: [[], *loc[1:]], "entry 0 must be an object"),
        "shifted-segment-id": (first_entry("segment_id", 1), "got [1, 0, "),
        "false-segment-id": (first_entry("segment_id", False), "with segment_id 0"),
        "false-start": (first_entry("start", False), "got [0, False, "),
        "real-end": (lambda loc: [{**loc[0], "end": float(loc[0]["end"])}, *loc[1:]],
                     "the partition's span"),
        "no-end": (lambda loc: [{k: v for k, v in loc[0].items() if k != "end"}, *loc[1:]],
                   "the partition's span"),
        "shifted-end": (lambda loc: [{**loc[0], "end": loc[0]["end"] + 1}, *loc[1:]],
                        "the partition's span"),
        "null-scores": (first_entry("scores", None), "needs scores [] or"),
        "short-scores": (lambda loc: [{**loc[0], "scores": loc[0]["scores"][1:]}, *loc[1:]],
                         "needs scores [] or"),
        "true-score": (first_score(True), "needs scores [] or"),
        "string-score": (first_score("0.5"), "needs scores [] or"),
        "integer-score": (first_score(0), "needs scores [] or"),
        "nan-score": (first_score(float("nan")), "needs scores [] or"),
    }
    for name, (edit, fragment) in localizations.items():
        yield f"localization-{name}-coverage-curve", "localization", "coverage-curve", edit, fragment
    configs = {
        "list-root": (lambda c: [c], "config root must be a JSON object"),
        "string-root": (lambda c: json.dumps("config"), "config root must be a JSON object"),
        "nan-penalty": (config_entry("segmentation", "penalty", float("nan")), "got nan"),
        "inf-penalty": (config_entry("segmentation", "penalty", float("inf")), "got inf"),
        "null-section": (config_section("segmentation", None), "must be a JSON object, got null"),
        "unknown-key": (config_entry("segmentation", "bogus", 1), "keys: ['bogus']"),
        "nan-learning-rate": (config_entry("train", "learning_rate", float("nan")), "got nan"),
        "long-list-section": (config_section("segmentation", [0] * 10**5),
                              "segmentation config must be a JSON object, got list"),
        "long-bool-layer-dims": (config_entry("model", "layer_dims", [True] * 10**5),
                                 "layer_dims must be a list of integers or null, got [True, "),
        "many-unknown-keys": (config_section("segmentation", {f"k{i}": 0 for i in range(10**5)}),
                              "unknown segmentation config keys: ['k0', 'k1', 'k10', "),
        "many-unknown-top-level-keys": (lambda c: {**c, **{f"k{i}": 0 for i in range(10**5)}},
                                        "unknown top-level config keys: ['k0', 'k1', 'k10', "),
        "long-zero-layer-dims": (config_entry("model", "layer_dims", [0] * 10**5),
                                 "layer_dims must be positive ints, got (0, 0, 0, "),
        "long-aggregator-kind": (config_entry("model", "aggregator_kind", "a" * 10**5),
                                 "unknown aggregator_kind 'aaaaaaaaaaaa...aaaaaaaaaaaaa'"),
        "long-readout-kind": (config_entry("model", "readout_kind", "r" * 10**5),
                              "unknown readout_kind 'rrrrrrrrrrrr...rrrrrrrrrrrrr'"),
        "long-metric": (config_entry("similarity", "metric", "m" * 10**5),
                        "unknown similarity metric 'mmmmmmmmmmmm...mmmmmmmmmmmmm'"),
    }
    for name, (edit, fragment) in configs.items():
        yield f"config-{name}-segment", "config", "segment", edit, fragment
    lacking = config_section("synth", {"videos": 2})
    fragment = "synth config lacks ['segment_count', 'mean_segment_len', "
    yield "config-synth-lacks-keys-synth", "config", "synth", lacking, fragment


HOSTILE_INPUTS = list(hostile_input_cases())


@pytest.mark.parametrize(
    "kind, command, edit, fragment", [case[1:] for case in HOSTILE_INPUTS],
    ids=[case[0] for case in HOSTILE_INPUTS],
)
def test_hostile_input_exits_2(
    pipeline, tmp_path, capsys, recwarn, kind, command, edit, fragment
):
    data, model = pipeline / "data", pipeline / "model.cegm"
    annotations = data / "video-000.annotations.json"
    partition = pipeline / "video-000.partition.json"
    features = data / "video-000.cegf"
    json_inputs = {"config": pipeline / "config.json", "predictions": pipeline / "preds.json",
                   "localization": pipeline / "loc.json"}
    if kind in ("cegf", "csv", "txt"):
        features = tmp_path / f"video-000.{kind}"
        features.write_bytes(edit((data / "video-000.cegf").read_bytes()))
    elif kind in json_inputs:
        bad = edit(json.loads(json_inputs[kind].read_text()))
        json_inputs[kind] = tmp_path / json_inputs[kind].name
        json_inputs[kind].write_text(bad if isinstance(bad, str) else json.dumps(bad))
    elif kind == "annotations":
        data = tmp_path / "data"
        shutil.copytree(pipeline / "data", data)
        annotations = data / "video-000.annotations.json"
        annotations.write_text(json.dumps(edit(json.loads(annotations.read_text()))))
    elif kind == "partition":
        bad = edit(json.loads(partition.read_text()))
        if not isinstance(bad, str):
            fragment = fragment.format(end=bad["boundaries"][-1])
            bad = json.dumps(bad)
        partition = tmp_path / "part.json"
        partition.write_text(bad)
    else:
        model = tmp_path / "bad.cegm"
        good = pipeline / "model.cegm"
        replace_header(good, model, edit(checkpoint_header(good)))
    config = json_inputs["config"]
    scored = ["--model", model, "--features", features, "--partition", partition]
    argv = {
        "segment": ["segment", "--features", features, "--config", config],
        "synth": ["synth", "--config", config],
        "train": ["train", "--data", data, "--config", config],
        "evaluate": ["evaluate", "--preds", json_inputs["predictions"],
                     "--annotations", annotations, "--partition", partition],
        "coverage-curve": ["coverage-curve", "--video", json_inputs["localization"], partition,
                           annotations, "--ks", "1,2"],
        "classify": ["classify", *scored],
        "localize": ["localize", *scored, "--k", "2"],
    }[command]
    out = tmp_path / "out"
    assert_exit_2_without_output([*argv, "--out", out], out, capsys, fragment)
    assert not recwarn.list  # a warning, such as numpy's on empty input, is a second message


# Per section: a count field, a flag field and a real field, or None where
# the section has no field of that type.
SECTION_FIELDS = {
    "synth": ("segment_count", None, "cluster_spread"),
    "segmentation": ("min_len", None, "penalty"),
    "similarity": (None, None, None),
    "model": ("a_dim", "attention_averaged", None),
    "train": ("epochs", "class_weighting", "learning_rate"),
}


def malformed_config_cases():
    """(id, section, section value, fragments): each malformed kind each section can hold.

    The error names the section and also holds each of the row's fragments.
    """
    for section, (count, flag, real) in SECTION_FIELDS.items():
        yield f"{section}-non-object", section, 5, ()
        if count is not None:
            yield f"{section}-string-count", section, {count: "5"}, ()
            yield f"{section}-bool-count", section, {count: True}, ()
        if flag is not None:
            yield f"{section}-string-flag", section, {flag: "false"}, ()
        if real is not None:
            yield f"{section}-list-real", section, {real: [1.0]}, ()
        yield f"{section}-unknown-key", section, {"bogus": 1}, ()
    yield "model-int-layer-dims", "model", {"layer_dims": 5}, ()
    yield "model-unknown-aggregator", "model", {"aggregator_kind": "bogus"}, ()
    yield "model-unknown-readout", "model", {"readout_kind": "bogus"}, ()
    # kinds that earlier versions offered
    yield "model-removed-aggregator-maxpool", "model", {"aggregator_kind": "maxpool"}, ("'maxpool'",)
    yield "model-removed-readout-sum", "model", {"readout_kind": "sum"}, ("'sum'",)
    yield "model-removed-readout-maxpool", "model", {"readout_kind": "maxpool"}, ("'maxpool'",)
    yield "model-removed-readout-mean", "model", {"readout_kind": "mean"}, ("readout_kind",)
    yield "model-zero-a-dim", "model", {"a_dim": 0}, ()
    yield "model-short-layer-dims", "model", {"layer_dims": [8]}, ()
    yield "model-zero-layer-dim", "model", {"layer_dims": [8, 0, 4]}, ()
    yield "segmentation-float-min-len", "segmentation", {"min_len": 5.0}, ()
    yield "similarity-int-metric", "similarity", {"metric": 5}, ("metric must be a string",)
    # metrics and settings that earlier versions offered
    for metric in ("correlation", "euclidean_rbf", "knn_cosine"):
        removed = {"metric": metric}
        yield f"similarity-removed-metric-{metric}", "similarity", removed, (f"'{metric}'",)
    yield "similarity-removed-knn-k", "similarity", {"knn_k": 3}, ("['knn_k']",)
    yield "similarity-removed-rbf-sigma", "similarity", {"rbf_sigma": 1.0}, ("['rbf_sigma']",)
    yield "train-removed-shuffle", "train", {"shuffle": True}, ("['shuffle']",)
    retired = {"cost_kind": "gaussian_mean_l2"}
    yield "segmentation-removed-cost-kind", "segmentation", retired, ("['cost_kind']",)
    yield "train-nan-learning-rate", "train", {"learning_rate": float("nan")}, ()
    yield "top-level-ks", "top-level", 5, ()


MALFORMED_CONFIGS = list(malformed_config_cases())


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize(
    "section, value, fragments", [case[1:] for case in MALFORMED_CONFIGS],
    ids=[case[0] for case in MALFORMED_CONFIGS],
)
def test_malformed_config_value_exits_2(
    pipeline, tmp_path, capsys, command, section, value, fragments
):
    cfg = json.loads((pipeline / "config.json").read_text())
    if section == "top-level":
        cfg["ks"] = value
    elif isinstance(value, dict):
        cfg[section] = {**cfg[section], **value}
    else:
        cfg[section] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    if command == "synth":
        out = tmp_path / "data"
        argv = ["synth", "--config", config, "--out", out]
    else:
        out = tmp_path / "model.cegm"
        argv = ["train", "--data", pipeline / "data", "--config", config, "--out", out]
    assert_exit_2_without_output(argv, out, capsys, f"{section} config", *fragments)


def repeat_key(key, first):
    """Edit of a JSON text that gives the first `key` a `first` value ahead of its own."""
    return lambda text: re.sub(f'"{key}": ?', f'"{key}": {first}, "{key}": ', text, count=1)


@pytest.mark.parametrize(
    "file, command, key, first",
    [
        ("config", "train", "penalty", "1"),
        ("annotations", "evaluate", "video_id", '"video-000"'),
        ("partition", "classify", "boundaries", "[0]"),
        ("preds", "evaluate", "score", "0.5"),
        ("checkpoint", "classify", "a_dim", "1"),
        ("localization", "coverage-curve", "scores", "[]"),
    ],
    ids=["config", "annotations", "partition", "preds", "checkpoint", "localization"],
)
def test_repeated_json_key_exits_2(pipeline, tmp_path, capsys, file, command, key, first):
    # json.loads alone keeps the last value, which here is the file's own.
    inputs = {
        "config": pipeline / "config.json",
        "annotations": pipeline / "data" / "video-000.annotations.json",
        "partition": pipeline / "video-000.partition.json",
        "preds": pipeline / "preds.json",
        "checkpoint": pipeline / "model.cegm",
        "localization": pipeline / "loc.json",
    }
    good, edit = inputs[file], repeat_key(key, first)
    inputs[file] = tmp_path / good.name
    if file == "checkpoint":
        header = json.dumps(checkpoint_header(good), sort_keys=True)
        assert edit(header) != header
        splice_header(good, inputs[file], edit(header).encode())
    else:
        assert edit(good.read_text()) != good.read_text()
        inputs[file].write_text(edit(good.read_text()))
    argv = {
        "train": ["train", "--data", pipeline / "data", "--config", inputs["config"]],
        "evaluate": ["evaluate", "--preds", inputs["preds"],
                     "--annotations", inputs["annotations"], "--partition", inputs["partition"]],
        "classify": ["classify", "--model", inputs["checkpoint"],
                     "--features", pipeline / "data" / "video-000.cegf",
                     "--partition", inputs["partition"]],
        "coverage-curve": ["coverage-curve", "--video", inputs["localization"],
                           inputs["partition"], inputs["annotations"], "--ks", "1,2"],
    }[command]
    out = tmp_path / "out"
    assert_exit_2_without_output([*argv, "--out", out], out, capsys, f"repeats the key '{key}'")


def test_train_out_of_memory_exits_1(pipeline, tmp_path, capsys):
    # A layer of 2**45 units asks for PiBs, which numpy refuses at once.
    cfg = json.loads((pipeline / "config.json").read_text())
    cfg["model"]["layer_dims"] = [8, 2**45, 8]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "model.cegm"
    code = main(["train", "--data", str(pipeline / "data"), "--config", str(config),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("cegl train: Unable to allocate")
    assert not out.exists()
