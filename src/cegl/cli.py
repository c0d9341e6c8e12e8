"""Command-line pipeline: synth, segment, train, classify, localize, evaluate, coverage-curve.

Each subcommand is a pure function of its input files plus the JSON run
configuration; all randomness is seeded from the config (the CEGL_SEED
environment variable overrides the configured seeds when set). Every
output file is written atomically, through a temp file and a rename, so a
failure never leaves a partial file behind.

Exit codes: 0 success, 1 runtime/numeric failure (running out of memory
included), 2 usage/config failure.
"""

from __future__ import annotations

import argparse
import math
import os
import reprlib
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import dataio, metrics, segmentation
from .dataio import Annotations, FeatureMatrix, SynthConfig, config_from_json
from .errors import CeglError, ConfigError, DataError, FormatError, NumericError
from .graph import GraphRows, SimilarityConfig, build_segment_graphs, map_size_chunks
from .localization import score_segments, topk_select
from .model import (
    ModelConfig,
    TrainConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .segmentation import SegmentationConfig, pelt

# Not called here: pipebench/tracing.py patches these names in this module.
from .localization import node_scores  # noqa: F401
from .model import forward  # noqa: F401

SEED_ENV_VAR = "CEGL_SEED"


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class RunConfig:
    """The JSON run configuration, one config dataclass per section.

    An absent section takes its dataclass's defaults; synth has none and
    only `cegl synth` needs it.
    """

    synth: SynthConfig | None
    segmentation: SegmentationConfig
    similarity: SimilarityConfig
    model: ModelConfig
    train: TrainConfig


def load_run_config(path) -> RunConfig:
    obj = dataio.read_json(path, "config", ConfigError)
    if not isinstance(obj, dict):
        raise ConfigError(f"config root must be a JSON object: {path}")
    unknown = set(obj) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {reprlib.repr(sorted(unknown))}")

    def section(cls, name):
        return config_from_json(cls, obj.get(name, {}), name)

    cfg = RunConfig(
        synth=section(SynthConfig, "synth") if "synth" in obj else None,
        segmentation=section(SegmentationConfig, "segmentation"),
        similarity=section(SimilarityConfig, "similarity"),
        model=section(ModelConfig, "model"),
        train=section(TrainConfig, "train"),
    )
    seed = os.environ.get(SEED_ENV_VAR)
    if seed is None:
        return cfg
    try:
        seed = int(seed)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    return replace(
        cfg,
        synth=None if cfg.synth is None else replace(cfg.synth, seed=seed),
        train=replace(cfg.train, seed=seed),
    )


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def _list_videos(data_dir: Path) -> list[Path]:
    if not data_dir.is_dir():
        raise FileNotFoundError(f"data directory not found: {data_dir}")
    files = sorted(data_dir.glob("*.cegf"))
    if not files:
        raise ConfigError(f"no .cegf feature files in {data_dir}")
    return files


def _load_video(cegf_path: Path) -> tuple[FeatureMatrix, Annotations]:
    """A video's features and its annotations, which must name the same video."""
    features = dataio.read_feature_matrix(cegf_path)
    ann = dataio.read_annotations(cegf_path.with_name(cegf_path.stem + ".annotations.json"))
    _same_video(features=features.video_id, annotations=ann.video_id)
    return features, ann


def _same_video(**video_ids: str) -> None:
    """Refuse input files made for different videos; keywords name the files."""
    (first, first_id), *rest = video_ids.items()
    for name, video_id in rest:
        if video_id != first_id:
            raise ConfigError(f"{first} is for video {reprlib.repr(first_id)} "
                              f"but {name} for {reprlib.repr(video_id)}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args) -> int:
    cfg = load_run_config(args.config)
    if cfg.synth is None:
        raise ConfigError("config has no synth section")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    created: list[Path] = []
    try:
        for i in range(cfg.synth.videos):
            video_id = f"video-{i:03d}"
            per_video = replace(cfg.synth, seed=cfg.synth.seed + i)
            features, ann, true_partition = dataio.synth_video(per_video, video_id)
            cegf = out_dir / f"{video_id}.cegf"
            created.append(cegf)
            dataio.write_feature_matrix(features, cegf)
            ann_path = out_dir / f"{video_id}.annotations.json"
            created.append(ann_path)
            dataio.write_annotations(ann, ann_path)
            part_path = out_dir / f"{video_id}.true_partition.json"
            created.append(part_path)
            segmentation.write_partition(true_partition, video_id, part_path)
    except BaseException:
        for p in created:
            p.unlink(missing_ok=True)
        raise
    return 0


def cmd_segment(args) -> int:
    cfg = load_run_config(args.config)
    features = dataio.read_feature_matrix(args.features)
    partition = pelt(features, cfg.segmentation)
    segmentation.write_partition(partition, features.video_id, args.out)
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    videos, labels = [], []
    for cegf in _list_videos(Path(args.data)):
        features, ann = _load_video(cegf)
        partition = pelt(features, cfg.segmentation)
        videos.append((features, partition.spans()))
        labels.append(dataio.derive_segment_labels(ann, partition))
    # Passed by this module's name, which pipebench/tracing.py patches, so
    # training's graph builds stay traced.
    store = GraphRows(videos, build_segment_graphs)

    model_cfg = cfg.model
    if model_cfg.layer_dims is None:
        model_cfg = replace(model_cfg, layer_dims=(store.nodes.shape[1], 32, 16))
    params = init_params(model_cfg, seed=cfg.train.seed, init_scale=cfg.train.init_scale)
    params, _history = train(store, np.concatenate(labels), params, cfg.train)
    save_checkpoint(params, args.out, segmentation=cfg.segmentation)
    return 0


def _score_video(args, frames: str, per_chunk=lambda chunk, scored: scored):
    """(video id, spans, per_chunk's item per span) of --features cut by --partition.

    The --model checkpoint scores the segments; `frames` is passed on to
    `score_segments`. Each size chunk is built as one batch, scored and
    handed to per_chunk(its spans, its scores), so only one chunk of
    graphs is held at once.
    """
    params, _ = load_checkpoint(args.model)
    features = dataio.read_feature_matrix(args.features)
    video_id, partition = segmentation.read_partition(args.partition)
    _same_video(partition=video_id, features=features.video_id)
    if partition.frame_count != features.frame_count:
        raise ValueError(
            f"partition covers {partition.frame_count} frames but video has {features.frame_count}"
        )
    spans = partition.spans()
    scored = map_size_chunks(spans, lambda chunk: per_chunk(chunk, score_segments(
        build_segment_graphs(features, chunk), params, frames)))
    return video_id, spans, scored


def cmd_classify(args) -> int:
    video_id, spans, scored = _score_video(args, "none")
    segments = (
        {"segment_id": i, "start": s, "end": e, "score": score, "predicted": int(score >= 0.5)}
        for i, ((s, e), (score, _)) in enumerate(zip(spans, scored))
    )
    dataio.write_json({"video_id": video_id, "segments": segments}, args.out)
    return 0


def cmd_localize(args) -> int:
    if args.k < 1:
        raise ConfigError(f"k must be at least 1, got {args.k}")

    def select(chunk, scored):
        """(score, frame scores, selected frames) per span: one top-k call per size chunk."""
        rows = [i for i, (_, frame_scores) in enumerate(scored) if frame_scores is not None]
        picked = {}
        if rows:
            starts = np.array([chunk[i][0] for i in rows])[:, None]
            picks = topk_select(np.stack([scored[i][1] for i in rows]), args.k) + starts
            picked = dict(zip(rows, picks.tolist()))
        return [(*item, picked.get(i, [])) for i, item in enumerate(scored)]

    _, spans, scored = _score_video(args, "all" if args.all_segments else "predicted", select)
    entries = (
        {"segment_id": i, "start": s, "end": e, "predicted": int(score >= 0.5), "k": args.k,
         "selected_frames": picked,
         "scores": [] if frame_scores is None else frame_scores.tolist()}
        for i, ((s, e), (score, frame_scores, picked)) in enumerate(zip(spans, scored))
    )
    dataio.write_json(entries, args.out)
    return 0


def _read_localized_video(loc, partition_path, annotations_path):
    """(annotations, partition, frame scores per span) of one `coverage-curve --video`.

    The localize output `loc` must list one object per span of the partition, in
    order, with the span's segment_id (its position), start and end, and scores
    that are [] (None here) or one finite JSON real per frame.
    """
    video_id, partition = segmentation.read_partition(partition_path)
    ann = dataio.read_annotations(annotations_path)
    _same_video(partition=video_id, annotations=ann.video_id)
    spans, entries = partition.spans(), dataio.read_json(loc, "localization")
    if not isinstance(entries, list) or len(entries) != len(spans):
        raise FormatError(f"localization JSON must list {len(spans)} objects, one per span: {loc}")
    frame_scores = []
    for i, (entry, (s, e)) in enumerate(zip(entries, spans)):
        entry = entry if isinstance(entry, dict) else {}
        ids, scores = [entry.get(key) for key in ("segment_id", "start", "end")], entry.get("scores")
        # JSON true is no id, and true, strings and NaN are no scores, even where casts take them.
        if list(map(type, ids)) != [int] * 3 or ids != [i, s, e]:
            raise FormatError(f"localization entry {i} must be an object with segment_id {i} and "
                              f"the partition's span [{s}, {e}), got {reprlib.repr(ids)}: {loc}")
        if not isinstance(scores, list) or scores and (len(scores) != e - s or not all(
                type(v) is float and math.isfinite(v) for v in scores)):
            raise FormatError(f"localization entry {i} needs scores [] or {e - s} finite reals: {loc}")
        frame_scores.append(np.array(scores) if scores else None)
    return ann, partition, frame_scores


def cmd_coverage_curve(args) -> int:
    try:
        ks = metrics.check_ks(int(k) for k in args.ks.split(","))
    except ValueError as exc:
        raise ConfigError(f"--ks must be strictly ascending positive ints: {args.ks!r}") from exc
    curve = metrics.coverage_curve([_read_localized_video(*paths) for paths in args.video], ks)
    metrics.write_coverage_csv(curve, args.out)
    return 0


def cmd_evaluate(args) -> int:
    preds_obj = dataio.read_json(args.preds, "predictions")
    if not isinstance(preds_obj, dict) or not {"video_id", "segments"} <= set(preds_obj):
        raise FormatError(
            f"predictions JSON must hold a video_id and a segments list: {args.preds}"
        )

    ann = dataio.read_annotations(args.annotations)
    video_id, partition = segmentation.read_partition(args.partition)
    _same_video(
        partition=video_id, annotations=ann.video_id, predictions=preds_obj["video_id"]
    )
    labels = dataio.derive_segment_labels(ann, partition)
    try:
        segments = sorted(preds_obj["segments"], key=lambda s: s["segment_id"])
        ids, preds = [s["segment_id"] for s in segments], [s["predicted"] for s in segments]
    except (KeyError, TypeError) as exc:
        raise FormatError(
            f"every predictions segment needs a segment_id and a predicted label "
            f"({type(exc).__name__}: {exc}): {args.preds}"
        ) from exc
    # JSON true and reals such as 0.7 are neither ids nor labels, even where int() takes them.
    if set(map(type, ids + preds)) - {int} or ids != list(range(len(ids))) or set(preds) - {0, 1}:
        raise FormatError(
            f"predictions need segment_ids 0..{len(ids) - 1} and predicted labels 0 or 1: "
            f"{args.preds}"
        )
    if len(segments) != partition.segment_count:
        raise ConfigError(
            f"predictions cover {len(segments)} segments, partition has {partition.segment_count}"
        )
    for i, ((s, e), seg) in enumerate(zip(partition.spans(), segments)):
        start, end, score = seg.get("start"), seg.get("end"), seg.get("score")
        if type(start) is not int or type(end) is not int or (start, end) != (s, e):
            raise FormatError(
                f"predictions segment {i} spans start {start!r}, end {end!r}; "
                f"the partition's span is [{s}, {e}): {args.preds}"
            )
        bad_score = type(score) not in (int, float) or not 0.0 <= score <= 1.0
        if bad_score or seg["predicted"] != (score >= 0.5):
            raise FormatError(
                f"predictions segment {i} has score {score!r} and predicted {seg['predicted']}; the "
                f"score must lie in [0, 1] and predict 1 exactly when it is >= 0.5: {args.preds}"
            )
    report = metrics.weighted_metrics(metrics.confusion(preds, labels))
    metrics.write_metrics(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cegl",
        description="Weakly supervised abnormality localization pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic videos with planted abnormalities")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("segment", help="detect change points in a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("train", help="train the segment classifier on a data directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="score segments of one video")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("localize", help="select top-k frames per abnormal segment")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--all-segments", action="store_true",
                   help="score every segment, not only predicted-abnormal ones")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("coverage-curve", help="coverage at each k from localize outputs")
    p.add_argument("--video", required=True, action="append", nargs=3,
                   metavar=("LOC", "PARTITION", "ANNOTATIONS"),
                   help="a localize output, the partition it was run on and the annotations")
    p.add_argument("--ks", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_coverage_curve)

    p = sub.add_parser("evaluate", help="segment-classification metrics from predictions")
    p.add_argument("--preds", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError, DataError, FileNotFoundError, ValueError) as exc:
        print(f"cegl {args.command}: {exc}", file=sys.stderr)
        return 2
    except (NumericError, CeglError, OSError) as exc:
        print(f"cegl {args.command}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message says how much it could not allocate
        print(f"cegl {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
