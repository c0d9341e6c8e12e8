"""Spans and counts at the pipeline's layer boundaries, recorded from outside.

`Tracer.install` wraps each layer's public functions in the module
namespaces where `cli`, `model` and `localization` look them up, so the
package itself is unchanged. Every call becomes one span: name, start,
end, the span that caused it, the phase of the run, and a size where
the layer has one (frames and segments for PELT, node pairs for graph
building). Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from pathlib import Path

COMMANDS = ("segment", "train", "classify", "localize", "evaluate")


def _pelt_size(args, result):
    return {"frames": args[0].frame_count, "segments": result.segment_count}


def _graph_size(args, result):
    return {"graphs": len(result), "pairs": sum(g.n * (g.n - 1) // 2 for g in result)}


class Tracer:
    def __init__(self):
        # One entry per span in flat arrays: a traced training run makes a
        # quarter of a million spans, and one object per span made the
        # garbage collector's full scans slow the traced run by a fifth.
        self.names: list[str] = []  # name of each name id
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # index of the causing span, -1 for none
        self.in_setup = array("b")
        self.sizes: dict[int, dict] = {}  # span index -> size, where the layer has one
        self.phase = "setup"
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, size=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, starts, ends, parents, in_setup = (
            self.name, self.start, self.end, self.parent, self.in_setup)
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            in_setup.append(self.phase == "setup")
            ends.append(0.0)
            stack.append(index)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()
            if size is not None:
                self.sizes[index] = size(args, result)
            return result

        return traced

    def _patch(self, module, attr, name, size=None):
        original = getattr(module, attr)
        self._originals.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, size))

    def install(self, cegl) -> None:
        cli, dataio, localization, metrics, model = (
            cegl.cli, cegl.dataio, cegl.localization, cegl.metrics, cegl.model)
        for command in COMMANDS:
            self._patch(cli, f"cmd_{command}", f"cli.{command}")
        self._patch(dataio, "read_feature_matrix", "dataio.read")
        self._patch(dataio, "read_annotations", "dataio.read")
        self._patch(cli, "pelt", "segmentation.pelt", _pelt_size)
        self._patch(cli, "build_segment_graphs", "graph.build", _graph_size)
        for module in (cli, model, localization):
            self._patch(module, "forward", "model.forward")
        self._patch(model, "backward", "model.backward")
        self._patch(model, "sgd_step", "model.sgd_step")
        self._patch(cli, "save_checkpoint", "model.checkpoint")
        self._patch(cli, "load_checkpoint", "model.checkpoint")
        self._patch(cli, "node_scores", "localization.node_scores")
        self._patch(cli, "topk_select", "localization.topk")
        self._patch(metrics, "weighted_metrics", "metrics.weighted_metrics")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for i in range(len(self.start)):
                out.write(json.dumps({
                    "name": self.names[self.name[i]], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i],
                    "phase": "setup" if self.in_setup[i] else "round",
                    "size": self.sizes.get(i)}) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer totals: the traced set-up once plus the mean of one round."""
        time_s: dict[str, float] = {}
        calls: dict[str, float] = {}
        sizes: dict[str, float] = {}
        localize_forwards = localize_segments = 0.0
        for index in range(len(self.start)):
            name = self.names[self.name[index]]
            weight = 1.0 if self.in_setup[index] else 1.0 / rounds
            time_s[name] = time_s.get(name, 0.0) + weight * (self.end[index] - self.start[index])
            calls[name] = calls.get(name, 0.0) + weight
            for key, value in self.sizes.get(index, {}).items():
                sizes[key] = sizes.get(key, 0.0) + weight * value
            if name in ("model.forward", "graph.build") and self._under(index, "cli.localize"):
                if name == "model.forward":
                    localize_forwards += weight
                else:
                    localize_segments += weight * self.sizes[index]["graphs"]

        def t(name):
            return time_s.get(name, 0.0)

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        out = {f"cli.{c}_s": (t(f"cli.{c}"), "s") for c in COMMANDS}
        out.update({
            "dataio.read_s": (t("dataio.read"), "s"),
            "dataio.read_calls": (calls.get("dataio.read", 0.0), "count"),
            "segmentation.pelt_s": (t("segmentation.pelt"), "s"),
            "segmentation.frames_per_s": (
                rate(sizes.get("frames", 0.0), t("segmentation.pelt")), "1/s"),
            "segmentation.segments": (sizes.get("segments", 0.0), "count"),
            "graph.build_s": (t("graph.build"), "s"),
            "graph.pairs": (sizes.get("pairs", 0.0), "count"),
            "graph.pairs_per_s": (rate(sizes.get("pairs", 0.0), t("graph.build")), "1/s"),
            "model.forward_s": (t("model.forward"), "s"),
            "model.forward_calls": (calls.get("model.forward", 0.0), "count"),
            "model.backward_s": (t("model.backward"), "s"),
            "model.sgd_step_s": (t("model.sgd_step"), "s"),
            "model.sgd_steps": (calls.get("model.sgd_step", 0.0), "count"),
            "model.checkpoint_s": (t("model.checkpoint"), "s"),
            "localization.node_scores_s": (t("localization.node_scores"), "s"),
            "localization.topk_s": (t("localization.topk"), "s"),
            "localization.forward_per_segment": (rate(localize_forwards, localize_segments), "ratio"),
            "metrics.weighted_metrics_s": (t("metrics.weighted_metrics"), "s"),
        })
        return out

    def _under(self, index: int, name: str) -> bool:
        parent = self.parent[index]
        while parent >= 0:
            if self.names[self.name[parent]] == name:
                return True
            parent = self.parent[parent]
        return False
