"""Feature-matrix and annotation I/O, weak labels, synthetic video generation.

File formats
------------
CEGF (binary feature file, suffix ``.cegf``):
    bytes 0-3   magic ``CEGF``
    bytes 4-7   version, 32-bit little-endian unsigned (currently 1)
    bytes 8-15  frame count T, 64-bit little-endian unsigned
    bytes 16-23 feature dim d, 64-bit little-endian unsigned
    then T*d 32-bit little-endian floats, row-major. No padding, no trailer.

CSV feature file (suffix ``.csv``): one frame per line, d comma-separated
decimal reals, no header. Values survive a round trip to within 32-bit
float rounding.

Annotations: JSON object {"video_id": str, "frame_labels": [0|1, ...],
"notes": str (optional)}. `read_annotations` is the one check of the file.

Values are widened to float64 in memory regardless of on-disk precision.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import numbers
import os
import reprlib
import struct
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, TruncatedFileError
from .numerics import make_rng

CEGF_MAGIC = b"CEGF"
CEGF_VERSION = 1

#: Shortest segment the synthetic generator will plant.
MIN_SYNTH_SEGMENT_LEN = 5

#: Scale of the isotropic Gaussian the per-segment mean vectors are drawn
#: from. Change-point contrast scales with SEGMENT_MEAN_SCALE/cluster_spread,
#: abnormality contrast with abnormal_offset_norm relative to the mean norm
#: SEGMENT_MEAN_SCALE * sqrt(feature_dim).
SEGMENT_MEAN_SCALE = 0.5


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-frame feature sequence for one video; row i is frame i's vector."""

    video_id: str
    values: np.ndarray  # (T, d) float64

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"feature matrix must be non-empty 2-D, got shape {v.shape}")
        if not np.isfinite(v).all():
            bad = np.argwhere(~np.isfinite(v))[0]
            raise DataError(f"non-finite feature at row {bad[0]}, col {bad[1]}")
        object.__setattr__(self, "values", v)

    @property
    def frame_count(self) -> int:
        return self.values.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Annotations:
    """Per-frame ground truth (1 = abnormal), the source of the weak segment labels."""

    video_id: str
    frame_labels: np.ndarray  # (T,) of {0,1}
    notes: str | None = None

    def __post_init__(self):
        labels = np.asarray(self.frame_labels)
        if labels.ndim != 1:
            raise ValueError("frame_labels must be 1-D")
        # np.asarray reads [0, True, 1] as integers; a bool is not a label.
        listed = () if isinstance(self.frame_labels, np.ndarray) else self.frame_labels
        has_bool = any(isinstance(x, (bool, np.bool_)) for x in listed)
        if has_bool or labels.dtype.kind not in "iu" or not np.isin(labels, (0, 1)).all():
            raise ValueError("frame_labels must contain only the integers 0 and 1")
        object.__setattr__(self, "frame_labels", labels.astype(np.int64))


def config_from_json(cls, obj, section: str):
    """Read one run-config section, a JSON object, into the dataclass cls.

    Keys must be fields of cls; absent fields take cls's defaults. A
    section that is not an object, an unknown key, a missing required
    field or a value cls rejects raises ConfigError naming the section.
    """
    if not isinstance(obj, dict):
        kind = "null" if obj is None else type(obj).__name__
        raise ConfigError(f"{section} config must be a JSON object, got {kind}")
    fields = dataclasses.fields(cls)
    unknown = set(obj) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {section} config keys: {reprlib.repr(sorted(unknown))}")
    missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in obj]
    if missing:
        raise ConfigError(f"{section} config lacks {missing}")
    try:
        return cls(**obj)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{section} config: {exc}") from exc


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


#: Annotation part of a config field -> (does a value have it, what the error calls it).
_JSON_TYPES = {
    "int": (_is_count, "an integer"),
    "float": (_is_real, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "None": (lambda v: v is None, "null"),
    "tuple[int, ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_count, v)),
        "a list of integers",
    ),
}


def check_types(cfg) -> None:
    """Check every field of a config dataclass against its annotation.

    Annotations are strings (postponed evaluation) of _JSON_TYPES keys
    joined by " | "; a bool is neither an int nor a float. Reals are
    stored as float, integers (numpy's too) as int and integer lists as
    tuples of int.
    """
    for f in dataclasses.fields(cfg):
        value, kinds = getattr(cfg, f.name), f.type.split(" | ")
        if not any(_JSON_TYPES[kind][0](value) for kind in kinds):
            what = " or ".join(_JSON_TYPES[kind][1] for kind in kinds)
            raise ConfigError(f"{f.name} must be {what}, got {reprlib.repr(value)}")
        if "float" in kinds and _is_real(value):
            object.__setattr__(cfg, f.name, float(value))
        elif "int" in kinds and _is_count(value):
            object.__setattr__(cfg, f.name, int(value))
        elif "tuple[int, ...]" in kinds and value is not None:
            object.__setattr__(cfg, f.name, tuple(map(int, value)))


@dataclass(frozen=True)
class SynthConfig:
    """Controls for the synthetic video generator.

    Separability of abnormal frames scales with
    abnormal_offset_norm / cluster_spread. `synth_video` makes one video;
    `cegl synth` makes `videos` of them, seeded seed, seed + 1, ...
    """

    segment_count: int
    mean_segment_len: int
    feature_dim: int
    abnormal_segment_fraction: float
    abnormal_frame_fraction: float
    cluster_spread: float
    abnormal_offset_norm: float
    seed: int
    videos: int = 1

    def __post_init__(self):
        check_types(self)
        if self.segment_count < 2:
            raise ConfigError("segment_count must be at least 2")
        if self.mean_segment_len < MIN_SYNTH_SEGMENT_LEN:
            raise ConfigError(
                f"mean_segment_len must be >= {MIN_SYNTH_SEGMENT_LEN}, got {self.mean_segment_len}"
            )
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be positive")
        if not 0.0 <= self.abnormal_segment_fraction <= 1.0:
            raise ConfigError("abnormal_segment_fraction must be in [0, 1]")
        if not 0.0 < self.abnormal_frame_fraction <= 1.0:
            raise ConfigError("abnormal_frame_fraction must be in (0, 1]")
        if self.cluster_spread <= 0:
            raise ConfigError("cluster_spread must be positive")
        if self.abnormal_offset_norm < 0:
            raise ConfigError("abnormal_offset_norm must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.videos < 1:
            raise ConfigError("videos must be at least 1")


def write_atomic(path, data: bytes | str | Iterable[str]) -> None:
    """Write a whole file, bytes or UTF-8 text, through a sibling temp file and a rename.

    Text may come as one str or as an iterable of str chunks, which are
    written as they come. Readers see the old file or the complete new
    one, never a partial write; on failure the temp file is removed and
    nothing is replaced.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            with tmp.open("w", encoding="utf-8", newline="") as out:
                # Not `writelines`, which looks `write` up again for every
                # chunk: it wrote a screening exam's JSON 12-21% slower.
                for chunk in [data] if isinstance(data, str) else data:
                    out.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


#: Scalars per encoder call when write_json writes a list of scalars.
_JSON_SLICE = 4096

_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True, allow_nan=False)


def write_json(obj, path) -> None:
    """Atomically write obj as key-sorted JSON, one record per line, plus a newline.

    A top-level object puts each member on its own line. A list of
    records (objects or lists), at the top level or as a member of a
    top-level object, puts each record on its own line; such a list may
    also come as an iterator, whose records are written as they come and
    never held together. A list of scalars stays on one line, encoded in
    slices of _JSON_SLICE. Every line is compact (no spaces) and comes
    from the json module's C encoder, and the file is written as it is
    encoded. NaN and infinities are not JSON; a value holding one raises
    ValueError and nothing is written.
    """
    write_atomic(path, itertools.chain(_json_chunks(obj), ["\n"]))


def _json_chunks(obj):
    if isinstance(obj, dict) and obj:
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield ("\n" if i == 0 else ",\n") + _JSON_ENCODER.encode(key) + ":"
            yield from _json_value(obj[key])
        yield "\n}"
    else:
        yield from _json_value(obj)


def _json_value(value):
    encode = _JSON_ENCODER.encode
    if isinstance(value, list) and not any(isinstance(x, (dict, list, tuple)) for x in value):
        yield "["
        for i in range(0, len(value), _JSON_SLICE):
            yield ("" if i == 0 else ",") + encode(value[i : i + _JSON_SLICE])[1:-1]
        yield "]"
    elif isinstance(value, (list, Iterator)):
        opening = "[\n"
        for record in value:
            yield opening + encode(record)
            opening = ",\n"
        yield "[]" if opening == "[\n" else "\n]"
    else:
        yield encode(value)


def unique_keys(error, where: str):
    """A json.loads object_pairs_hook that raises error on an object repeating a key.

    json keeps a repeated key's last value without a word; a file that
    says two things about one setting is malformed.
    """

    def hook(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise error(f"{where} repeats the key {key!r}")
        return obj

    return hook


def read_json(path, what: str, error=FormatError):
    """Parse a JSON file; a missing file, bad JSON or a repeated key raises one line naming what."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    hook = unique_keys(error, f"{what} JSON {path}")
    try:
        return json.loads(path.read_text(), object_pairs_hook=hook)
    except json.JSONDecodeError as exc:
        raise error(f"malformed {what} JSON {path}: {exc}") from exc


def write_feature_matrix(m: FeatureMatrix, path) -> None:
    """Write a feature matrix as CEGF (float32 payload)."""
    header = CEGF_MAGIC + struct.pack("<I", CEGF_VERSION)
    header += struct.pack("<QQ", m.frame_count, m.feature_dim)
    write_atomic(path, header + m.values.astype("<f4").tobytes())


def read_feature_matrix(path) -> FeatureMatrix:
    """Read a `.cegf` (CEGF) or `.csv` feature file; the video id is its stem less `.features`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"feature file not found: {path}")
    if path.suffix not in (".cegf", ".csv"):
        raise FormatError(f"feature file must end in .cegf or .csv: {path}")
    raw = path.read_bytes()
    video_id = path.stem.removesuffix(".features")
    if path.suffix == ".cegf":
        return _parse_cegf(raw, video_id)
    return _parse_csv(raw, path, video_id)


def _parse_cegf(raw: bytes, video_id: str) -> FeatureMatrix:
    # A file cut inside the magic is truncated, not mislabelled.
    if not CEGF_MAGIC.startswith(raw[:4]):
        raise FormatError(f"bad magic {raw[:4]!r}, expected {CEGF_MAGIC!r}")
    if len(raw) < 24:
        raise TruncatedFileError(f"CEGF header truncated: {len(raw)} bytes")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CEGF_VERSION:
        raise FormatError(f"unsupported CEGF version {version}")
    t, d = struct.unpack_from("<QQ", raw, 8)
    if t < 1 or d < 1:
        raise FormatError(f"CEGF declares empty matrix ({t}x{d})")
    expected = 24 + 4 * t * d
    if len(raw) != expected:
        raise TruncatedFileError(
            f"CEGF payload length mismatch: expected {expected} bytes, got {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype="<f4", offset=24)
    return FeatureMatrix(video_id, flat.astype(np.float64).reshape(t, d))


def _parse_csv(raw: bytes, path: Path, video_id: str) -> FeatureMatrix:
    # numpy warns on input with no data line before it fails; say it in one
    # line instead. loadtxt reads anything after a '#' as a comment.
    if not any(line.split(b"#", 1)[0].strip() for line in raw.splitlines()):
        raise FormatError(f"empty CSV feature file {path}")
    try:
        values = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"malformed CSV feature file {path}: {exc}") from exc
    return FeatureMatrix(video_id, values)


def write_annotations(ann: Annotations, path) -> None:
    obj: dict = {"video_id": ann.video_id, "frame_labels": ann.frame_labels.tolist()}
    if ann.notes is not None:
        obj["notes"] = ann.notes
    write_json(obj, path)


def read_annotations(path) -> Annotations:
    obj = read_json(path, "annotations")
    if not isinstance(obj, dict) or "video_id" not in obj:
        raise FormatError(f"annotations JSON must be an object with a video_id: {path}")
    unknown = set(obj) - {"video_id", "frame_labels", "notes"}
    if unknown:
        raise FormatError(f"unknown annotation keys {reprlib.repr(sorted(unknown))} in {path}")
    for key, kinds in (("video_id", str), ("notes", (str, type(None)))):
        if not isinstance(obj.get(key), kinds):
            got = reprlib.repr(obj[key])
            raise FormatError(f"annotations {key} must be a string, got {got}: {path}")
    labels = obj.get("frame_labels")
    # JSON true/false and reals such as 0.5 are not labels, even where an
    # integer cast would take them. A missing or null list is no list either.
    if not (isinstance(labels, list) and set(map(type, labels)) <= {int}):
        raise FormatError(f"annotations need frame_labels, a list of the integers 0 and 1: {path}")
    return Annotations(obj["video_id"], np.asarray(labels, dtype=np.int64), obj.get("notes"))


def derive_segment_labels(ann: Annotations, partition) -> np.ndarray:
    """Weak segment labels: a segment is abnormal iff it holds any abnormal frame."""
    bounds = partition.boundaries
    if bounds[-1] != len(ann.frame_labels):
        raise ValueError(
            f"partition covers [0, {bounds[-1]}) but annotations have "
            f"{len(ann.frame_labels)} frames"
        )
    return np.maximum.reduceat(ann.frame_labels, bounds[:-1])


def synth_video(cfg: SynthConfig, video_id: str = "synth"):
    """Generate one synthetic video with planted change points and abnormal frames.

    Each segment's frames scatter around a segment mean drawn from an
    isotropic Gaussian of scale SEGMENT_MEAN_SCALE. In abnormal segments
    a fixed per-segment
    offset of the requested norm is added to a random, not necessarily
    contiguous subset of frames, which are labelled 1. Segment lengths
    follow a shifted Poisson around mean_segment_len, clamped to
    [MIN_SYNTH_SEGMENT_LEN, 3 * mean_segment_len]. Fully deterministic
    given cfg.seed.

    Returns (FeatureMatrix, Annotations, true Partition).
    """
    from .segmentation import Partition

    rng = make_rng(cfg.seed)
    min_len = MIN_SYNTH_SEGMENT_LEN
    lengths = min_len + rng.poisson(
        cfg.mean_segment_len - min_len, size=cfg.segment_count
    )
    lengths = np.clip(lengths, min_len, 3 * cfg.mean_segment_len)
    boundaries = np.concatenate([[0], np.cumsum(lengths)])
    total = int(boundaries[-1])

    n_abnormal = int(round(cfg.abnormal_segment_fraction * cfg.segment_count))
    abnormal_segments = np.sort(
        rng.choice(cfg.segment_count, size=n_abnormal, replace=False)
    )

    means = SEGMENT_MEAN_SCALE * rng.standard_normal((cfg.segment_count, cfg.feature_dim))
    values = np.empty((total, cfg.feature_dim))
    frame_labels = np.zeros(total, dtype=np.int64)

    for s in range(cfg.segment_count):
        lo, hi = int(boundaries[s]), int(boundaries[s + 1])
        noise = rng.standard_normal((hi - lo, cfg.feature_dim))
        values[lo:hi] = means[s] + cfg.cluster_spread * noise

    for s in abnormal_segments:
        lo, hi = int(boundaries[s]), int(boundaries[s + 1])
        n = hi - lo
        n_marked = max(1, int(round(cfg.abnormal_frame_fraction * n)))
        marked = np.sort(rng.choice(n, size=n_marked, replace=False))
        direction = rng.standard_normal(cfg.feature_dim)
        norm = np.linalg.norm(direction)
        offset = (
            direction * (cfg.abnormal_offset_norm / norm)
            if norm > 0 and cfg.abnormal_offset_norm > 0
            else np.zeros(cfg.feature_dim)
        )
        values[lo + marked] += offset
        frame_labels[lo + marked] = 1

    features = FeatureMatrix(video_id, values)
    ann = Annotations(video_id, frame_labels=frame_labels)
    return features, ann, Partition(tuple(int(b) for b in boundaries))
