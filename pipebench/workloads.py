"""The benchmark's workloads: set-up, one round of CLI commands, and its checks.

A round runs the same CLI commands every time, in the same order; each
command is one operation. Commands marked timed make up the workload's
wall time; the others exist only to check outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import checks
from cegl.dataio import FeatureMatrix
from cegl.graph import SimilarityConfig, build_graph
from checks import CheckFailed, PrefixCost
from hostspeed import HostSpeed
from inputs import Video, VideoSpec, make_video, write_video

PENALTY = 12.0
MIN_LEN = 5
K = 2
GRAPH_SAMPLE = 6

# The README run configuration (acceptance criterion 4's settings).
README_CONFIG = {
    "segmentation": {"penalty": PENALTY, "min_len": MIN_LEN},
    "similarity": {"metric": "cosine"},
    "model": {"layer_dims": [16, 32, 16], "aggregator_kind": "mean",
              "readout_kind": "attention", "attention_averaged": False},
    "train": {"learning_rate": 0.001, "batch_size": 8, "epochs": 600, "seed": 6,
              "init_scale": 2.0, "class_weighting": True},
}

PROTOCOL_VIDEO = VideoSpec(segments=40, mean_len=10)


class SetupError(Exception):
    """Set-up could not produce the workload's inputs or model."""


def _config(directory: Path, model=None, train=None) -> Path:
    cfg = json.loads(json.dumps(README_CONFIG))
    if model is not None:
        cfg["model"] = model
    cfg["train"].update(train or {})
    path = directory / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _write_set(directory: Path, rng, count: int, spec: VideoSpec = PROTOCOL_VIDEO) -> list[Video]:
    directory.mkdir(parents=True)
    videos = [make_video(spec, rng) for _ in range(count)]
    for i, video in enumerate(videos):
        write_video(video, directory, f"video-{i:03d}")
    return videos


def _train_model(cli_main, data: Path, config: Path, out: Path) -> None:
    rc = cli_main(["train", "--data", str(data), "--config", str(config), "--out", str(out)])
    if rc != 0:
        raise SetupError(f"cegl train exited {rc} during set-up")


class Round:
    """One round's operations and checks, with the failures they produced."""

    def __init__(self, cli_main, host: HostSpeed, directory: Path, digests: dict[str, str]):
        self.cli_main = cli_main
        self.host = host
        self.dir = directory
        self.digests = digests  # output digest of each operation in the first round
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.check_failed = False
        self.wall_s = 0.0  # timed commands, as measured
        self.probes: list[float] = []  # host-speed probes around every command
        self.notes: dict[str, float] = {}  # quality figures the checks measured

    def run(self, label: str, argv: list[str], out: Path, timed: bool) -> bool:
        self.attempted += 1
        rc, elapsed, probes = self.host.timed(self._call, [str(a) for a in argv])
        self.probes += probes
        if timed:
            self.wall_s += elapsed
        if rc != 0:
            self._fail(label, f"exited {rc}")
            return False
        try:
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
        except OSError as exc:
            self.check_failed = True
            self._fail(label, f"exited 0 without its output: {exc!r}")
            return False
        if self.digests.setdefault(label, digest) != digest:
            self.check_failed = True
            self._fail(label, "output differs from the first round's")
            return False
        return True

    def _call(self, argv: list[str]):
        try:
            return self.cli_main(argv)
        except Exception as exc:  # a traceback out of the program is a failed operation
            return repr(exc)

    def check(self, label: str, fn, *needs):
        """Run fn(), a check of `label`'s output; a failure fails that operation.

        `needs` are outputs of other operations the check uses; when one
        of them is missing, that operation failed and the check is skipped.
        """
        if label in self.failed_ops or any(n is None for n in needs):
            return None
        try:
            return fn()
        except (CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
            self.check_failed = True
            self._fail(label, f"check failed: {exc!r}")
            return None

    def _fail(self, label: str, why: str) -> None:
        if label not in self.failed_ops:
            self.failed_ops.add(label)
            print(f"pipebench: {label}: {why}", file=sys.stderr)


def _load(path: Path):
    return json.loads(path.read_text())


class Corruptions:
    """Deliberate output corruptions, to show that each check can fire."""

    NAMES = ("boundary", "merge", "graph", "prediction", "invert", "accuracy", "selection",
             "score", "reverse")

    def __init__(self, name: str | None):
        if name is not None and name not in self.NAMES:
            raise ValueError(f"unknown corruption {name!r}")
        self.name = name

    def partition(self, obj: dict) -> dict:
        b = obj["boundaries"]
        if self.name == "boundary":
            b[len(b) // 2] += 1  # shift one interior boundary by a frame
        elif self.name == "merge":
            del b[len(b) // 2]
        return obj

    def graph(self, w: np.ndarray) -> np.ndarray:
        if self.name == "graph":
            w = w.copy()
            w[0, 1] += 1e-9
            w[1, 0] += 1e-9
        return w

    def predictions(self, obj: dict) -> dict:
        if self.name == "prediction":
            seg = obj["segments"][0]
            seg["predicted"] = 1 - seg["predicted"]
        elif self.name == "invert":  # a consistent but useless classifier
            for seg in obj["segments"]:
                seg["predicted"] = 1 - seg["predicted"]
                seg["score"] = 1.0 - seg["score"]
        return obj

    def evaluation(self, obj: dict) -> dict:
        if self.name == "accuracy":
            obj["accuracy"] -= 1e-3
        return obj

    def localization(self, entries: list) -> list:
        scored = [e for e in entries if len(e["scores"]) > K]
        if self.name == "selection" and scored:
            e = scored[0]
            outside = next(i for i in range(e["start"], e["end"]) if i not in e["selected_frames"])
            e["selected_frames"] = sorted(e["selected_frames"][1:] + [outside])
        elif self.name == "score" and scored:
            scored[0]["scores"][0] = -1e-6
        elif self.name == "reverse":  # consistent selections from useless scores
            for e in scored:
                e["scores"].reverse()
                order = np.lexsort((np.arange(len(e["scores"])), -np.array(e["scores"])))
                e["selected_frames"] = sorted(int(i) + e["start"] for i in order[:K])
        return entries


class Workload:
    name = ""
    timed_commands: tuple[str, ...] = ()

    def __init__(self, seed: int, corrupt: Corruptions):
        self.seed = seed
        self.corrupt = corrupt

    def rng(self):
        return np.random.Generator(np.random.PCG64([self.TAG, self.seed]))

    def setup(self, cli_main, directory: Path) -> None:
        raise NotImplementedError

    def round(self, rnd: Round) -> None:
        raise NotImplementedError

    # Shared command-and-check sequences ----------------------------------

    def _segment(self, rnd: Round, label: str, video: Video, cegf: Path, config: Path,
                 video_id: str, timed: bool):
        out = rnd.dir / f"{label}.json"
        if not rnd.run(label, ["segment", "--features", cegf, "--config", config, "--out", out],
                       out, timed):
            return None
        return rnd.check(label, lambda: checks.check_partition(
            self.corrupt.partition(_load(out)), video_id, PrefixCost(video.values),
            video.boundaries, PENALTY, MIN_LEN))

    def _classify(self, rnd: Round, label: str, video: Video, cegf: Path, model: Path,
                  partition: Path, bounds, video_id: str, timed: bool, rng):
        out = rnd.dir / f"{label}.json"
        if not rnd.run(label, ["classify", "--model", model, "--features", cegf,
                               "--partition", partition, "--out", out], out, timed):
            return None
        preds = rnd.check(label, lambda: checks.check_predictions(
            self.corrupt.predictions(_load(out)), video_id, bounds), bounds)
        rnd.check(label, lambda: self._check_graph_sample(video, bounds, rng), bounds)
        return preds

    def _check_graph_sample(self, video: Video, bounds: np.ndarray, rng) -> None:
        lengths = np.diff(bounds)
        picks = {int(np.argmax(lengths))}
        picks.update(int(i) for i in rng.choice(len(lengths), size=GRAPH_SAMPLE - 1))
        for i in sorted(picks):
            x = video.values[bounds[i]:bounds[i + 1]]
            g = build_graph(FeatureMatrix("sample", x), SimilarityConfig())
            checks.check_graph(self.corrupt.graph(g.edge_weights), x)

    def _evaluate(self, rnd: Round, label: str, preds_path: Path, ann: Path, partition: Path,
                  preds, labels, timed: bool) -> None:
        out = rnd.dir / f"{label}.json"
        if not rnd.run(label, ["evaluate", "--preds", preds_path, "--annotations", ann,
                               "--partition", partition, "--out", out], out, timed):
            return
        rnd.check(label, lambda: checks.check_evaluation(
            self.corrupt.evaluation(_load(out)), preds, labels), preds, labels)

    def _localize(self, rnd: Round, label: str, cegf: Path, model: Path, partition: Path,
                  bounds, preds, all_segments: bool, timed: bool):
        out = rnd.dir / f"{label}.json"
        argv = ["localize", "--model", model, "--features", cegf, "--partition", partition,
                "--k", K, "--out", out] + (["--all-segments"] if all_segments else [])
        if not rnd.run(label, argv, out, timed):
            return None
        return rnd.check(label, lambda: checks.check_localization(
            self.corrupt.localization(_load(out)), bounds, preds, K, all_segments), bounds, preds)


class TrainProtocol(Workload):
    """`cegl train` on the paper-protocol set; held-out videos check the model."""

    name = "train_protocol"
    TAG = 1
    TRAIN_VIDEOS = 4
    # Four held-out videos, not criterion 4's two: pooled over two, the
    # held-out accuracy of fresh seeds ranges 0.84-0.94; over four it
    # ranged 0.83-0.93 on seeds 1-10. The floor catches a broken model
    # (a constant prediction scores about 0.5) without failing on seed noise.
    HELDOUT_VIDEOS = 4
    MIN_HELDOUT_ACCURACY = 0.70

    def setup(self, cli_main, directory: Path) -> None:
        rng = self.rng()
        self.dir = directory
        _write_set(directory / "train", rng, self.TRAIN_VIDEOS)
        self.heldout = _write_set(directory / "heldout", rng, self.HELDOUT_VIDEOS)
        self.config = _config(directory)
        self.check_rng_seed = int(rng.integers(2**32))

    def round(self, rnd: Round) -> None:
        model = rnd.dir / "model.cegm"
        rnd.run("train", ["train", "--data", self.dir / "train", "--config", self.config,
                          "--out", model], model, timed=True)
        rng = np.random.default_rng(self.check_rng_seed)
        all_preds, all_labels = [], []
        for j, video in enumerate(self.heldout):
            vid = f"video-{j:03d}"
            cegf = self.dir / "heldout" / f"{vid}.cegf"
            part = rnd.dir / f"segment-{j}.json"
            bounds = self._segment(rnd, f"segment-{j}", video, cegf, self.config, vid, False)
            preds = self._classify(rnd, f"classify-{j}", video, cegf, model, part, bounds, vid,
                                   False, rng)
            labels = None if bounds is None else checks.weak_labels(video.frame_labels, bounds)
            self._evaluate(rnd, f"evaluate-{j}", rnd.dir / f"classify-{j}.json",
                           self.dir / "heldout" / f"{vid}.annotations.json", part, preds,
                           labels, False)
            self._localize(rnd, f"localize-{j}", cegf, model, part, bounds, preds, False, False)
            all_preds.append(preds)
            all_labels.append(labels)
        rnd.check("train", lambda: self._check_accuracy(
            rnd, np.concatenate(all_preds), np.concatenate(all_labels)), *all_preds)

    def _check_accuracy(self, rnd: Round, preds, labels) -> None:
        acc = rnd.notes["heldout_accuracy"] = checks.accuracy(preds, labels)
        checks.require(acc >= self.MIN_HELDOUT_ACCURACY, f"held-out accuracy {acc:.3f}")


class _OneVideo(Workload):
    """Inference on one long video with a model trained during set-up."""

    SPEC: VideoSpec
    TRAIN_SPEC: VideoSpec
    TRAIN_VIDEOS: int
    MODEL: dict
    TRAIN: dict
    ALL_SEGMENTS: bool

    def setup(self, cli_main, directory: Path) -> None:
        rng = self.rng()
        self.dir = directory
        self.video = make_video(self.SPEC, rng)
        self.cegf = write_video(self.video, directory, "long")
        self.annotations = directory / "long.annotations.json"
        _write_set(directory / "train", rng, self.TRAIN_VIDEOS, self.TRAIN_SPEC)
        self.config = _config(directory, model=self.MODEL, train=self.TRAIN)
        self.model = directory / "model.cegm"
        _train_model(cli_main, directory / "train", self.config, self.model)
        self.check_rng_seed = int(rng.integers(2**32))

    def round(self, rnd: Round) -> None:
        rng = np.random.default_rng(self.check_rng_seed)
        part = rnd.dir / "segment.json"
        bounds = self._segment(rnd, "segment", self.video, self.cegf, self.config, "long", True)
        preds = self._classify(rnd, "classify", self.video, self.cegf, self.model, part, bounds,
                               "long", True, rng)
        selections = self._localize(rnd, "localize", self.cegf, self.model, part, bounds, preds,
                                    self.ALL_SEGMENTS, True)
        labels = None if bounds is None else checks.weak_labels(self.video.frame_labels, bounds)
        self._evaluate(rnd, "evaluate", rnd.dir / "classify.json", self.annotations, part,
                       preds, labels, "evaluate" in self.timed_commands)
        self.check_quality(rnd, preds, labels, selections)

    def check_quality(self, rnd: Round, preds, labels, selections) -> None:
        pass


class ScreenLong(_OneVideo):
    """One ~100,000-frame exam of ~10-frame segments, screened with a mean model."""

    name = "screen_long"
    TAG = 2
    timed_commands = ("segment", "classify", "localize", "evaluate")
    SPEC = VideoSpec(segments=10_000, mean_len=10)
    TRAIN_SPEC = PROTOCOL_VIDEO
    TRAIN_VIDEOS = 6
    MODEL = README_CONFIG["model"]
    # Short, fast training: 60 epochs at a tenfold learning rate gave
    # 0.91-0.97 segment accuracy and 0.84-0.93 coverage@2 on seeds 1-10.
    TRAIN = {"epochs": 60, "learning_rate": 0.01}
    ALL_SEGMENTS = False
    MIN_ACCURACY = 0.85
    MIN_COVERAGE = 0.75

    def check_quality(self, rnd: Round, preds, labels, selections) -> None:
        rnd.check("classify", lambda: self._check_accuracy(rnd, preds, labels), preds, labels)
        rnd.check("localize", lambda: self._check_coverage(rnd, selections, labels),
                  selections, labels)

    def _check_accuracy(self, rnd: Round, preds, labels) -> None:
        acc = rnd.notes["accuracy"] = checks.accuracy(preds, labels)
        checks.require(acc >= self.MIN_ACCURACY, f"accuracy {acc:.3f}")

    def _check_coverage(self, rnd: Round, selections, labels) -> None:
        cov = rnd.notes["coverage"] = checks.coverage(selections, labels, self.video.frame_labels)
        checks.require(cov >= self.MIN_COVERAGE, f"coverage@{K} {cov:.3f}")


class LongSegments(_OneVideo):
    """A ~3,000-frame video of ~200-frame segments, scored whole by a gated model."""

    name = "long_segments"
    TAG = 3
    timed_commands = ("segment", "classify", "localize")
    # A small abnormality offset keeps the planted segments homogeneous
    # enough that PELT does not carve the abnormal frames out of them.
    SPEC = VideoSpec(segments=15, mean_len=200, offset_norm=1.5, fixed_len=True)
    TRAIN_SPEC = VideoSpec(segments=20, mean_len=10)
    TRAIN_VIDEOS = 2
    # No aggregator_kind: the CLI's default (gated). Cost does not depend
    # on the weights, so training is brief.
    MODEL = {k: v for k, v in README_CONFIG["model"].items() if k != "aggregator_kind"}
    TRAIN = {"epochs": 2, "learning_rate": 0.01}
    ALL_SEGMENTS = True


WORKLOADS = {w.name: w for w in (TrainProtocol, ScreenLong, LongSegments)}
