import functools
import json
import tracemalloc

import numpy as np
import pytest

from cegl.dataio import (
    MIN_SYNTH_SEGMENT_LEN,
    Annotations,
    FeatureMatrix,
    SynthConfig,
    config_from_json,
    derive_segment_labels,
    read_annotations,
    read_feature_matrix,
    synth_video,
    write_annotations,
    write_feature_matrix,
    write_json,
)
from cegl.errors import ConfigError, DataError, FormatError, TruncatedFileError
from cegl.graph import SimilarityConfig
from cegl.numerics import make_rng
from cegl.segmentation import Partition, SegmentationConfig


def f32_exact(rng, t, d):
    """Random matrix whose values are exactly representable as float32."""
    return rng.standard_normal((t, d)).astype(np.float32).astype(np.float64)


class TestCegf:
    def test_round_trip(self, tmp_path):
        m = FeatureMatrix("v", np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        path = tmp_path / "v.cegf"
        write_feature_matrix(m, path)
        back = read_feature_matrix(path)
        assert back.frame_count == 3 and back.feature_dim == 2
        assert np.array_equal(back.values, m.values)

    def test_round_trip_bit_exact_random(self, tmp_path):
        rng = make_rng(42)
        for i in range(20):
            m = FeatureMatrix("v", f32_exact(rng, int(rng.integers(1, 9)), int(rng.integers(1, 6))))
            path = tmp_path / f"m{i}.cegf"
            write_feature_matrix(m, path)
            assert np.array_equal(read_feature_matrix(path).values, m.values)

    def test_file_size_is_header_plus_payload(self, tmp_path):
        path = tmp_path / "one.cegf"
        write_feature_matrix(FeatureMatrix("v", np.array([[0.0]])), path)
        # 4 magic + 4 version + 8 T + 8 d + 4 payload
        assert path.stat().st_size == 28

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cegf"
        good = tmp_path / "good.cegf"
        write_feature_matrix(FeatureMatrix("v", np.array([[1.0]])), good)
        path.write_bytes(b"CEGX" + good.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            read_feature_matrix(path)

    def test_bad_version(self, tmp_path):
        good = tmp_path / "good.cegf"
        write_feature_matrix(FeatureMatrix("v", np.array([[1.0]])), good)
        raw = bytearray(good.read_bytes())
        raw[4] = 9
        bad = tmp_path / "bad.cegf"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_feature_matrix(bad)

    def test_truncated_payload(self, tmp_path):
        good = tmp_path / "good.cegf"
        write_feature_matrix(FeatureMatrix("v", np.array([[1.0, 2.0]])), good)
        trunc = tmp_path / "trunc.cegf"
        trunc.write_bytes(good.read_bytes()[:-3])
        with pytest.raises(TruncatedFileError):
            read_feature_matrix(trunc)

    def test_nonfinite_payload(self, tmp_path):
        path = tmp_path / "nan.cegf"
        import struct

        header = b"CEGF" + struct.pack("<I", 1) + struct.pack("<QQ", 2, 2)
        payload = np.array([1.0, 2.0, np.nan, 4.0], dtype="<f4").tobytes()
        path.write_bytes(header + payload)
        with pytest.raises(DataError, match="row 1, col 0"):
            read_feature_matrix(path)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            FeatureMatrix("v", np.zeros((0, 3)))


class TestCsv:
    def test_two_row_case(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        m = read_feature_matrix(path)
        assert np.array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_round_trip_within_f32(self, tmp_path):
        rng = make_rng(9)
        m = FeatureMatrix("v", rng.standard_normal((4, 3)))
        path = tmp_path / "m.csv"
        np.savetxt(path, m.values, delimiter=",", fmt="%.9g")
        back = read_feature_matrix(path)
        assert np.allclose(back.values, m.values, rtol=1.2e-7, atol=0)

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FormatError):
            read_feature_matrix(path)

    def test_header_row_is_malformed_csv(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(FormatError, match="malformed CSV"):
            read_feature_matrix(path)

    def test_leading_nan_is_non_finite(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("nan,1.0\n2.0,3.0\n")
        with pytest.raises(DataError, match="row 0, col 0"):
            read_feature_matrix(path)

    @pytest.mark.parametrize("text", ["", " \n\t\n"], ids=["empty", "whitespace"])
    def test_empty_rejected_without_warning(self, tmp_path, recwarn, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match="empty CSV"):
            read_feature_matrix(path)
        assert not recwarn.list


class TestSuffix:
    def test_csv_text_in_cegf_file_is_bad_magic(self, tmp_path):
        path = tmp_path / "m.cegf"
        path.write_text("1.0,2.0\n")
        with pytest.raises(FormatError, match="magic"):
            read_feature_matrix(path)

    def test_cegf_cut_inside_magic_is_truncated(self, tmp_path):
        path = tmp_path / "m.cegf"
        path.write_bytes(b"CE")
        with pytest.raises(TruncatedFileError):
            read_feature_matrix(path)

    @pytest.mark.parametrize("name", ["m.txt", "m.features", "m"])
    def test_other_suffix_rejected(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("1.0,2.0\n")
        with pytest.raises(FormatError, match=r"\.cegf or \.csv"):
            read_feature_matrix(path)


class TestAnnotations:
    def test_json_round_trip(self, tmp_path):
        ann = Annotations("vid", frame_labels=np.array([0, 1, 0, 1]), notes="two lesions")
        path = tmp_path / "a.json"
        write_annotations(ann, path)
        back = read_annotations(path)
        assert back.video_id == "vid"
        assert np.array_equal(back.frame_labels, ann.frame_labels)
        assert back.notes == "two lesions"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"video_id": "v", "labels": [1]}')
        with pytest.raises(FormatError, match="unknown"):
            read_annotations(path)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            Annotations("v", frame_labels=np.array([0, 2]))

    @pytest.mark.parametrize("labels", [[0.0, 1.0], [0, 0.5], [True, False]],
                             ids=["float", "half", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        # an integer cast would turn every one of these into 0/1 labels
        with pytest.raises(ValueError, match="integers 0 and 1"):
            Annotations("v", frame_labels=np.array(labels))

    @pytest.mark.parametrize("labels", [[0, True, 1], (1, np.True_)],
                             ids=["list", "tuple-numpy-bool"])
    def test_bool_elements_rejected(self, labels):
        # np.asarray makes [0, True, 1] an int64 array of 0/1 labels
        with pytest.raises(ValueError, match="integers 0 and 1"):
            Annotations("v", frame_labels=labels)

    def test_integer_list_accepted(self):
        ann = Annotations("v", frame_labels=[0, 1, 1])
        assert ann.frame_labels.dtype == np.int64
        assert ann.frame_labels.tolist() == [0, 1, 1]


def test_write_json_refuses_nan(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        write_json({"score": float("nan")}, path)
    assert not path.exists() and not list(tmp_path.iterdir())


def test_write_json_nan_partway_through_a_list_leaves_no_file(tmp_path):
    # Enough values before the NaN that part of the document reaches the temp file.
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        write_json({"scores": [0.25] * 10_000 + [float("nan"), 0.5]}, path)
    assert not list(tmp_path.iterdir())


def dumps_layout(obj) -> str:
    """write_json's layout built from one compact `json.dumps` per line."""
    dumps = functools.partial(json.dumps, separators=(",", ":"), sort_keys=True)

    def value(v):
        if isinstance(v, list) and any(isinstance(x, (dict, list)) for x in v):
            return "[\n" + ",\n".join(map(dumps, v)) + "\n]"
        return dumps(v)

    if isinstance(obj, dict) and obj:
        return "{\n" + ",\n".join(dumps(k) + ":" + value(obj[k]) for k in sorted(obj)) + "\n}\n"
    return value(obj) + "\n"


@pytest.mark.parametrize(
    "obj",
    [
        {"b": [1, {"z": [2, [3]], "a": None}], "a": {"y": True, "x": False}},
        {"video": "Ösophagus – 胃", "note": "tab\t\"quote\" \U0001f600"},
        {"list": [], "object": {}, "both": [[], {}]},
        [],
        {},
        [-0.0, 0.0, -1.5],
        {"tiny": 1e-17, "huge": 1e300, "third": 1 / 3},
        "a lone string",
    ],
    ids=["nested", "non-ascii", "empty-containers", "empty-list", "empty-object",
         "negative-zero", "float-reprs", "scalar"],
)
def test_write_json_bytes_equal_json_dumps(tmp_path, obj):
    path = tmp_path / "out.json"
    write_json(obj, path)
    assert json.loads(path.read_text()) == obj
    assert path.read_bytes() == dumps_layout(obj).encode()


def test_write_json_puts_one_record_on_a_line(tmp_path):
    path = tmp_path / "out.json"
    write_json({"video_id": "v", "frames": [3, 1], "segments": [
        {"start": 0, "end": 5, "score": 0.25}, {"start": 5, "end": 9, "score": 1.0}]}, path)
    assert path.read_text() == (
        '{\n'
        '"frames":[3,1],\n'
        '"segments":[\n'
        '{"end":5,"score":0.25,"start":0},\n'
        '{"end":9,"score":1.0,"start":5}\n'
        '],\n'
        '"video_id":"v"\n'
        '}\n'
    )


@pytest.mark.parametrize("records", [[], [{"b": [1.5], "a": 0}, [2, {"c": None}]]],
                         ids=["empty", "records"])
def test_write_json_takes_records_as_an_iterator(tmp_path, records):
    path = tmp_path / "out.json"
    write_json(iter(records), path)
    assert path.read_bytes() == dumps_layout(records).encode()
    write_json({"id": "v", "records": iter(records)}, path)
    assert path.read_bytes() == dumps_layout({"id": "v", "records": records}).encode()


def test_write_json_streams_without_holding_the_document(tmp_path):
    obj = {"scores": make_rng(3).random(200_000).tolist()}
    path = tmp_path / "scores.json"
    tracemalloc.start()
    try:
        write_json(obj, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    data = path.read_bytes()
    assert json.loads(data) == obj
    assert data == dumps_layout(obj).encode()
    assert peak < len(data) / 4, f"traced peak {peak} bytes for a {len(data)}-byte file"


class TestDeriveSegmentLabels:
    def test_single_segment_with_one_abnormal_frame(self):
        ann = Annotations("v", frame_labels=np.array([0, 0, 1, 0]))
        assert derive_segment_labels(ann, Partition((0, 4))).tolist() == [1]

    def test_all_normal(self):
        ann = Annotations("v", frame_labels=np.array([0, 0, 0, 0]))
        assert derive_segment_labels(ann, Partition((0, 4))).tolist() == [0]

    def test_three_segments(self):
        ann = Annotations("v", frame_labels=np.array([0, 1, 0, 0, 1, 1]))
        labels = derive_segment_labels(ann, Partition((0, 2, 4, 6)))
        assert labels.tolist() == [1, 0, 1]

    def test_length_mismatch(self):
        ann = Annotations("v", frame_labels=np.array([0, 1]))
        with pytest.raises(ValueError):
            derive_segment_labels(ann, Partition((0, 3)))

    def test_matches_brute_force_any(self):
        rng = make_rng(101)
        for _ in range(50):
            t = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=t)
            n_bounds = int(rng.integers(0, max(1, t // 2)))
            interior = sorted(set(rng.integers(1, t, size=n_bounds).tolist()))
            ann = Annotations("v", frame_labels=labels)
            random_cuts = Partition(tuple([0] + interior + [t]))
            one_frame_segments = Partition(tuple(range(t + 1)))
            for partition in (random_cuts, one_frame_segments):
                got = derive_segment_labels(ann, partition)
                expected = [int(any(labels[s:e])) for s, e in partition.spans()]
                assert got.dtype == np.int64
                assert got.tolist() == expected

    def test_monotone_adding_abnormal_frame(self):
        rng = make_rng(55)
        for _ in range(30):
            t = int(rng.integers(4, 30))
            labels = rng.integers(0, 2, size=t)
            partition = Partition((0, t // 2, t))
            ann = Annotations("v", frame_labels=labels)
            before = derive_segment_labels(ann, partition)
            flip = int(rng.integers(0, t))
            bumped = labels.copy()
            bumped[flip] = 1
            after = derive_segment_labels(Annotations("v", frame_labels=bumped), partition)
            assert (after >= before).all()


def small_cfg(**overrides):
    base = dict(
        segment_count=6,
        mean_segment_len=10,
        feature_dim=4,
        abnormal_segment_fraction=0.5,
        abnormal_frame_fraction=0.25,
        cluster_spread=0.1,
        abnormal_offset_norm=10.0,
        seed=7,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestSynthVideo:
    def test_deterministic(self):
        a = synth_video(small_cfg())
        b = synth_video(small_cfg())
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].frame_labels, b[1].frame_labels)
        assert a[2].boundaries == b[2].boundaries

    def test_seed_changes_output(self):
        a = synth_video(small_cfg())
        b = synth_video(small_cfg(seed=8))
        assert not np.array_equal(a[0].values, b[0].values)

    def test_no_abnormal_segments(self):
        _, ann, _ = synth_video(small_cfg(abnormal_segment_fraction=0.0))
        assert ann.frame_labels.sum() == 0

    def test_lengths_cover_video(self):
        features, ann, partition = synth_video(small_cfg())
        assert partition.boundaries[-1] == features.frame_count
        assert len(ann.frame_labels) == features.frame_count
        for s, e in partition.spans():
            assert e - s >= MIN_SYNTH_SEGMENT_LEN

    def test_labels_only_in_abnormal_segments(self):
        features, ann, partition = synth_video(small_cfg())
        seg_labels = derive_segment_labels(ann, partition)
        for (s, e), label in zip(partition.spans(), seg_labels):
            if label == 0:
                assert ann.frame_labels[s:e].sum() == 0

    def test_planted_frames_are_farthest_from_centroid(self):
        # With a 10:0.1 offset-to-spread ratio the marked frames must be
        # each abnormal segment's farthest-from-centroid frames.
        features, ann, partition = synth_video(small_cfg())
        seg_labels = derive_segment_labels(ann, partition)
        assert seg_labels.sum() == 3  # planted fraction 0.5 of 6
        for (s, e), label in zip(partition.spans(), seg_labels):
            if label == 0:
                continue
            block = features.values[s:e]
            centroid = block.mean(axis=0)
            dists = np.linalg.norm(block - centroid, axis=1)
            planted = set(np.flatnonzero(ann.frame_labels[s:e]))
            top = set(np.argsort(-dists)[: len(planted)].tolist())
            assert top == planted

    def test_infeasible_mean_length(self):
        with pytest.raises(ConfigError):
            small_cfg(mean_segment_len=2)

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            small_cfg(abnormal_frame_fraction=0.0)
        with pytest.raises(ConfigError):
            small_cfg(abnormal_segment_fraction=1.5)


class TestConfigFromJson:
    def test_defaults_apply_and_reals_become_floats(self):
        seg = config_from_json(SegmentationConfig, {"penalty": 12}, "segmentation")
        assert seg == SegmentationConfig(penalty=12.0, min_len=5)
        assert type(seg.penalty) is float
        assert config_from_json(SegmentationConfig, {}, "segmentation").penalty is None

    def test_none_only_where_it_is_the_default(self):
        seg = config_from_json(SegmentationConfig, {"penalty": None}, "segmentation")
        assert seg.penalty is None
        with pytest.raises(ConfigError, match="similarity config: metric must be a string"):
            config_from_json(SimilarityConfig, {"metric": None}, "similarity")

    def test_missing_required_field(self):
        lacking = r"synth config lacks \['mean_segment_len', .*'seed'\]"
        with pytest.raises(ConfigError, match=lacking):
            config_from_json(SynthConfig, {"segment_count": 4}, "synth")
