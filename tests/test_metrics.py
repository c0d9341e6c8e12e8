import numpy as np
import pytest

from cegl.dataio import SynthConfig, derive_segment_labels, synth_video
from cegl.localization import topk_select
from cegl.graph import (
    GraphBatch,
    build_segment_graphs,
    map_size_chunks,
    size_chunks,
)
from cegl import localization, metrics, model
from cegl.metrics import (
    ConfusionCounts,
    confusion,
    coverage_curve,
    weighted_metrics,
    write_coverage_csv,
    write_metrics,
)
from cegl.model import ModelConfig, TrainConfig, forward, init_params, train
from cegl.numerics import make_rng
from forward_calls import (
    assert_each_segment_scored_once,
    record_forward_calls,
    record_graph_builds,
)


class TestConfusion:
    def test_perfect_two(self):
        c = confusion([1, 0], [1, 0])
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)

    def test_false_positive(self):
        c = confusion([1], [0])
        assert (c.tp, c.tn, c.fp, c.fn) == (0, 0, 1, 0)

    def test_matches_brute_force_recount(self):
        rng = make_rng(1)
        preds = rng.integers(0, 2, size=20)
        labels = rng.integers(0, 2, size=20)
        c = confusion(preds, labels)
        want = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for p, y in zip(preds, labels):
            if p == 1 and y == 1:
                want["tp"] += 1
            elif p == 1 and y == 0:
                want["fp"] += 1
            elif p == 0 and y == 0:
                want["tn"] += 1
            else:
                want["fn"] += 1
        assert (c.tp, c.fp, c.tn, c.fn) == (want["tp"], want["fp"], want["tn"], want["fn"])
        assert c.total == 20

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion([], [])


class TestWeightedMetrics:
    def test_direct_arithmetic(self):
        report = weighted_metrics(ConfusionCounts(tp=9, fn=1, tn=8, fp=2))
        assert report.accuracy == pytest.approx(0.85)
        assert report.sensitivity == pytest.approx(0.90)
        assert report.specificity == pytest.approx(0.80)

    def test_support_weighted_fscore(self):
        # Hand evaluation: F1_pos from precision 9/11 and recall 9/10,
        # F1_neg from precision 8/9 and recall 8/10, supports 10 and 10.
        f1_pos = 2 * (9 / 11) * (9 / 10) / ((9 / 11) + (9 / 10))
        f1_neg = 2 * (8 / 9) * (8 / 10) / ((8 / 9) + (8 / 10))
        want = (10 * f1_pos + 10 * f1_neg) / 20
        report = weighted_metrics(ConfusionCounts(tp=9, fn=1, tn=8, fp=2))
        assert report.fscore == pytest.approx(want, abs=1e-12)
        # closed form: (6/7 + 16/19) / 2 = 113/133, i.e. ~0.850
        assert report.fscore == pytest.approx(113 / 133, abs=1e-12)
        assert report.per_class["abnormal"]["f1"] == pytest.approx(f1_pos, abs=1e-12)
        assert report.per_class["normal"]["f1"] == pytest.approx(f1_neg, abs=1e-12)

    def test_perfect_predictor(self):
        report = weighted_metrics(ConfusionCounts(tp=5, fn=0, tn=7, fp=0))
        assert report.accuracy == 1.0
        assert report.sensitivity == 1.0
        assert report.specificity == 1.0
        assert report.fscore == 1.0
        assert report.degenerate == ()

    def test_equal_support_matches_macro(self):
        c = ConfusionCounts(tp=6, fn=4, tn=7, fp=3)
        report = weighted_metrics(c)
        macro = (report.per_class["abnormal"]["f1"] + report.per_class["normal"]["f1"]) / 2
        assert report.fscore == pytest.approx(macro, abs=1e-12)

    def test_zero_denominator_flagged_not_nan(self):
        report = weighted_metrics(ConfusionCounts(tp=0, fn=0, tn=3, fp=1))
        assert report.per_class["abnormal"]["recall"] == 0.0
        assert "abnormal.recall" in report.degenerate
        assert np.isfinite(report.fscore)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_metrics(ConfusionCounts(0, 0, 0, 0))


def separable_video(seed):
    cfg = SynthConfig(
        segment_count=10,
        mean_segment_len=12,
        feature_dim=16,
        abnormal_segment_fraction=0.5,
        abnormal_frame_fraction=0.25,
        cluster_spread=0.16,
        abnormal_offset_norm=10.0,
        seed=seed,
    )
    return synth_video(cfg)


class TestCoverageCurve:
    def overfit_model(self, features, ann, partition):
        graphs = map_size_chunks(
            partition.spans(), lambda spans: build_segment_graphs(features, spans)
        )
        labelled = list(zip(graphs, derive_segment_labels(ann, partition).tolist()))
        params = init_params(
            ModelConfig(
                (features.feature_dim, 16, 8), "mean", "attention", attention_averaged=False
            ),
            seed=2,
            init_scale=1.5,
        )
        cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=600, seed=3)
        params, history = train(labelled, params, cfg)
        assert history[-1] < history[0]
        return params

    def test_monotone_and_reaches_one_on_separable_video(self):
        features, ann, partition = separable_video(31)
        params = self.overfit_model(features, ann, partition)
        max_marked = max(
            int(ann.frame_labels[s:e].sum()) for s, e in partition.spans()
        )
        ks = list(range(1, max_marked + 1))
        curve = coverage_curve(params, [(features, ann, partition)], ks, localize_all=True)
        values = [c for _, c in curve]
        assert values == sorted(values)
        # planted frames occupy the top rank in most abnormal segments,
        # and every segment is covered once k reaches the planted count
        assert values[0] >= 0.8
        assert values[-1] == 1.0

    def test_k_list_of_one_on_fully_covered_data(self):
        features, ann, partition = separable_video(32)
        params = self.overfit_model(features, ann, partition)
        spans = partition.spans()
        lengths = [e - s for s, e in spans]
        curve = coverage_curve(
            params, [(features, ann, partition)], [max(lengths)], localize_all=True
        )
        assert curve == [(max(lengths), 1.0)]

    @pytest.mark.parametrize("localize_all", [True, False])
    def test_one_forward_per_segment(self, monkeypatch, localize_all):
        features, ann, partition = separable_video(34)
        params = init_params(ModelConfig((features.feature_dim, 4, 3), "mean", "attention"), seed=1)
        params.arrays["classifier.bias"][0] = 5.0  # every segment predicted abnormal
        calls = record_forward_calls(monkeypatch, localization, model)
        built = record_graph_builds(monkeypatch, metrics)
        coverage_curve(params, [(features, ann, partition)], [1, 2], localize_all=localize_all)
        assert_each_segment_scored_once(calls, built, partition.spans())
        assert [chunk for chunk, _ in built] == [
            [partition.spans()[i] for i in chunk]
            for chunk in size_chunks([e - s for s, e in partition.spans()])
        ]
        graphs = [g for batch in calls for g in batch]
        assert (forward(GraphBatch.pack(graphs), params).prediction >= 0.5).all()

    def test_rejects_unordered_ks(self):
        features, ann, partition = separable_video(33)
        params = init_params(ModelConfig((features.feature_dim, 4, 3)), seed=1)
        with pytest.raises(ValueError):
            coverage_curve(params, [(features, ann, partition)], [3, 1])

    @pytest.mark.parametrize("ks", [[1, 1], [0, 1], [], [1.0, 2]])
    def test_rejects_repeated_nonpositive_or_non_int_ks(self, ks):
        features, ann, partition = separable_video(33)
        params = init_params(ModelConfig((features.feature_dim, 4, 3)), seed=1)
        params.arrays["classifier.bias"][0] = -50.0  # no segment is scored
        with pytest.raises(ValueError, match="strictly ascending positive ints"):
            coverage_curve(params, [(features, ann, partition)], ks)

    @pytest.mark.parametrize("localize_all", [True, False])
    def test_matches_brute_force_recount(self, monkeypatch, localize_all):
        """Every k's hits recounted from each scored segment's top-k set, over two videos."""
        data = [separable_video(41), separable_video(42)]
        params = init_params(ModelConfig((16, 4, 3), "mean", "attention"), seed=2)
        predictions = [score for features, _, partition in data
                       for score, _ in map_size_chunks(partition.spans(), lambda chunk: (
                           localization.score_segments(
                               build_segment_graphs(features, chunk), params, "none")))]
        # a bias at the median prediction's logit leaves some segments unscored
        median = np.median(predictions)
        params.arrays["classifier.bias"][0] -= np.log(median / (1 - median))

        def tied_scores(batch, params, frames):
            """score_segments' output with each segment's frame scores cut to 4 levels."""
            return [(s, None if f is None else np.floor(f / f.max() * 3))
                    for s, f in localization.score_segments(batch, params, frames)]

        monkeypatch.setattr(metrics, "score_segments", tied_scores)
        frames = "all" if localize_all else "predicted"
        ks = [1, 2, 3, 4, 6, 9, 13, 20, 99999999999999999999999]
        hits, abnormal, scored = [0] * len(ks), 0, []
        for features, ann, partition in data:
            abnormal += int(derive_segment_labels(ann, partition).sum())
            spans = partition.spans()
            for (start, _), (_, f) in zip(spans, map_size_chunks(spans, lambda chunk: (
                    tied_scores(build_segment_graphs(features, chunk), params, frames)))):
                scored.append(f is not None)
                if f is not None:
                    for j, k in enumerate(ks):
                        hits[j] += int((ann.frame_labels[topk_select(f, k) + start] == 1).any())
        assert all(scored) == localize_all and any(scored)
        assert coverage_curve(params, data, ks, localize_all) == [
            (k, h / abnormal) for k, h in zip(ks, hits)]


class TestReports:
    def test_metrics_json(self, tmp_path):
        report = weighted_metrics(ConfusionCounts(tp=9, fn=1, tn=8, fp=2))
        path = tmp_path / "metrics.json"
        write_metrics(report, path)
        import json

        obj = json.loads(path.read_text())
        assert obj["accuracy"] == 0.85
        assert set(obj["per_class"]) == {"abnormal", "normal"}

    def test_coverage_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_coverage_csv([(1, 0.925), (2, 0.975)], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,coverage"
        assert lines[1] == "1,0.925"
        assert lines[2] == "2,0.975"
