import numpy as np
import pytest

from cegl.dataio import FeatureMatrix
from cegl.errors import ConfigError, FormatError
from cegl.graph import SimilarityConfig, build_segment_graphs, map_size_chunks
from cegl.numerics import make_rng
from cegl.segmentation import (
    ORACLE_MAX_FRAMES,
    Partition,
    SegmentCost,
    SegmentationConfig,
    default_penalty,
    optimal_partition_oracle,
    partition_objective,
    pelt,
    read_partition,
    write_partition,
)


def fm(values):
    return FeatureMatrix("v", np.asarray(values, dtype=np.float64))


def naive_cost(values, s, e):
    block = values[s:e]
    mean = block.mean(axis=0)
    return float(((block - mean) ** 2).sum())


class TestPartition:
    def test_valid(self):
        p = Partition((0, 3, 7))
        assert p.segment_count == 2
        assert p.spans() == [(0, 3), (3, 7)]

    @pytest.mark.parametrize("bounds", [(1, 5), (0, 3, 3), (0, 5, 2), (0,)])
    def test_invalid(self, bounds):
        with pytest.raises(ValueError):
            Partition(bounds)

    @pytest.mark.parametrize("bounds", [(0, 10.5, 20), (0, True, 20), (0, 5.0)],
                             ids=["half", "true", "real"])
    def test_non_integer_boundary_rejected(self, bounds):
        # int() would read these as (0, 10, 20), (0, 1, 20) and (0, 5)
        with pytest.raises(TypeError, match="integers"):
            Partition(bounds)

    def test_numpy_integer_boundaries_accepted(self):
        assert Partition(tuple(np.array([0, 4, 9]))).boundaries == (0, 4, 9)

    def test_json_round_trip(self, tmp_path):
        p = Partition((0, 4, 9))
        path = tmp_path / "p.json"
        write_partition(p, "vid", path)
        video_id, back = read_partition(path)
        assert video_id == "vid" and back == p

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"boundaries": [0, 4]}')
        with pytest.raises(FormatError):
            read_partition(path)


def span_cost(cost, s, e):
    (value,) = cost.costs([s], [e])
    return value


class TestSegmentCost:
    def test_identical_frames_zero(self):
        f = fm([[2.0, 1.0]] * 3)
        assert span_cost(SegmentCost(f), 0, 3) == 0.0

    def test_hand_evaluated(self):
        # frames 0 and 2: mean 1, two unit deviations
        assert span_cost(SegmentCost(fm([[0.0], [2.0]])), 0, 2) == pytest.approx(2.0, abs=1e-12)

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            SegmentCost(fm([[1.0]])).costs([1], [1])

    @pytest.mark.parametrize("starts, ends", [([0, 2], [1, 1]), ([-1], [1]), ([0], [2])],
                             ids=["reversed", "negative", "past-end"])
    def test_out_of_range_span_rejected(self, starts, ends):
        with pytest.raises(ValueError):
            SegmentCost(fm([[1.0]])).costs(starts, ends)

    def test_matches_naive(self):
        rng = make_rng(21)
        for _ in range(30):
            t = int(rng.integers(2, 25))
            d = int(rng.integers(1, 5))
            values = rng.standard_normal((t, d)) * 5
            f = fm(values)
            s = int(rng.integers(0, t - 1))
            e = int(rng.integers(s + 1, t + 1))
            got = span_cost(SegmentCost(f), s, e)
            want = naive_cost(values, s, e)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_splitting_never_increases_cost(self):
        rng = make_rng(22)
        for _ in range(20):
            t = int(rng.integers(3, 20))
            values = rng.standard_normal((t, 1)) * 3
            cost = SegmentCost(fm(values))
            whole = span_cost(cost, 0, t)
            for m in range(1, t):
                assert whole >= span_cost(cost, 0, m) + span_cost(cost, m, t) - 1e-9

    def test_entry_bit_identical_alone_in_a_row_and_in_a_block(self):
        # pelt scores (starts x ends) blocks, the oracle one row per end:
        # ties between them are exact only if an entry ignores its neighbours.
        rng = make_rng(23)
        for _ in range(20):
            t = int(rng.integers(20, 60))
            cost = SegmentCost(fm(rng.standard_normal((t, int(rng.integers(1, 40)))) * 7))
            starts = np.sort(rng.choice(t // 2, size=int(rng.integers(1, 6)), replace=False))
            ends = np.arange(t // 2 + 1, t // 2 + 1 + int(rng.integers(1, 9)))
            block = cost.costs(starts[:, None], ends)
            assert block.shape == (starts.size, ends.size)
            for j, e in enumerate(ends):
                row = cost.costs(starts, e)
                for i, s in enumerate(starts):
                    alone = span_cost(cost, s, e)
                    assert block[i, j].tobytes() == row[i].tobytes() == alone.tobytes()


class TestPelt:
    def test_constant_sequence_single_segment(self):
        f = fm(np.ones((10, 2)))
        p = pelt(f, SegmentationConfig(penalty=0.5, min_len=1))
        assert p.boundaries == (0, 10)

    def test_two_level_split(self):
        values = [[0.0]] * 5 + [[10.0]] * 5
        f = fm(values)
        cfg = SegmentationConfig(penalty=1.0, min_len=1)
        p = pelt(f, cfg)
        assert p.boundaries == (0, 5, 10)
        # Against the independent DP: same objective, and the split beats
        # the single segment (cost 250) by far.
        oracle = optimal_partition_oracle(f, cfg)
        assert partition_objective(f, p, 1.0) == partition_objective(f, oracle, 1.0)
        assert partition_objective(f, p, 1.0) < 250.0

    def test_short_input_trivial_partition(self):
        f = fm(np.arange(6, dtype=float).reshape(6, 1))
        p = pelt(f, SegmentationConfig(penalty=1.0, min_len=5))
        assert p.boundaries == (0, 6)

    def test_min_len_respected(self):
        rng = make_rng(33)
        f = fm(rng.standard_normal((40, 2)) * 4)
        p = pelt(f, SegmentationConfig(penalty=0.5, min_len=4))
        assert all(e - s >= 4 for s, e in p.spans())

    def test_matches_oracle_on_random_inputs(self):
        rng = make_rng(90)
        for _ in range(40):
            t = int(rng.integers(2, 41))
            d = int(rng.integers(1, 5))
            level_shift = rng.standard_normal(d) * 4
            values = rng.standard_normal((t, d))
            if t > 4:  # plant one change point half the time
                cut = int(rng.integers(1, t))
                values[cut:] += level_shift
            f = fm(values)
            beta = float(rng.uniform(0.1, 3 * d))
            min_len = int(rng.integers(1, 4))
            cfg = SegmentationConfig(penalty=beta, min_len=min_len)
            fast = pelt(f, cfg)
            slow = optimal_partition_oracle(f, cfg)
            assert partition_objective(f, fast, beta) == partition_objective(f, slow, beta)
            assert fast.boundaries == slow.boundaries

    def test_blocks_match_oracle_with_ties_and_long_flat_stretches(self):
        # pelt scores min_len ends per step; lengths off the block grid end on
        # a short block, integer features make equal objectives common, and
        # flat stretches keep many starts alive at once.
        rng = make_rng(91)
        for trial in range(48):
            min_len = trial % 8 + 1
            t = int(rng.integers(2 * min_len, 480))
            if t % min_len == 0:
                t += 1
            d = int(rng.integers(1, 4))
            values = rng.integers(-2, 3, size=(t, d)).astype(float)
            for _ in range(int(rng.integers(1, 4))):
                lo = int(rng.integers(0, t))
                values[lo : lo + int(rng.integers(20, 200))] = rng.integers(-2, 3, size=d)
            f = fm(values)
            beta = float(rng.choice([0.5, 1.0, 2.0, 4.0, 8.0]))
            cfg = SegmentationConfig(penalty=beta, min_len=min_len)
            fast, slow = pelt(f, cfg), optimal_partition_oracle(f, cfg)
            assert fast.boundaries == slow.boundaries, f"trial {trial}"

    @pytest.mark.parametrize(
        "values, min_len, penalty, want, rival",
        [
            # the fewer segments win, though the rival's last start is earlier
            ([2, 1, 3, 3, 1, 2, 0, 1], 2, 2.0, (0, 6, 8), (0, 2, 4, 8)),
            # with as many segments, the earlier last start wins
            ([3, 2, 1], 1, 1.0, (0, 1, 3), (0, 2, 3)),
        ],
        ids=["fewer-segments", "earlier-start"],
    )
    def test_tie_rule(self, values, min_len, penalty, want, rival):
        f = fm(np.array(values, dtype=float)[:, None])
        tied = partition_objective(f, Partition(rival), penalty)
        assert partition_objective(f, Partition(want), penalty) == tied
        cfg = SegmentationConfig(penalty=penalty, min_len=min_len)
        assert pelt(f, cfg).boundaries == want
        assert optimal_partition_oracle(f, cfg).boundaries == want

    def test_more_penalty_fewer_boundaries(self):
        rng = make_rng(17)
        for _ in range(10):
            f = fm(rng.standard_normal((30, 2)) * 3)
            counts = []
            for beta in (0.1, 1.0, 10.0, 100.0, 1e6):
                p = pelt(f, SegmentationConfig(penalty=beta, min_len=2))
                counts.append(len(p.boundaries))
            assert counts == sorted(counts, reverse=True)

    def test_deterministic(self):
        rng = make_rng(2)
        f = fm(rng.standard_normal((25, 3)))
        cfg = SegmentationConfig(penalty=2.0, min_len=2)
        assert pelt(f, cfg).boundaries == pelt(f, cfg).boundaries


class TestOracle:
    def test_singleton(self):
        p = optimal_partition_oracle(fm([[3.0]]), SegmentationConfig(penalty=1.0, min_len=1))
        assert p.boundaries == (0, 1)

    def test_huge_penalty_single_segment(self):
        rng = make_rng(4)
        f = fm(rng.standard_normal((20, 2)))
        p = optimal_partition_oracle(f, SegmentationConfig(penalty=1e12, min_len=1))
        assert p.boundaries == (0, 20)

    def test_size_bound(self):
        f = fm(np.zeros((ORACLE_MAX_FRAMES + 1, 1)))
        with pytest.raises(ConfigError):
            optimal_partition_oracle(f, SegmentationConfig(penalty=1.0))


class TestSplitVideo:
    """`build_segment_graphs`, a size chunk at a time, splits a video into one graph a segment."""

    @staticmethod
    def split(f, p):
        graphs = map_size_chunks(
            p.spans(), lambda spans: build_segment_graphs(f, spans, SimilarityConfig())
        )
        return [g.node_features for g in graphs]

    def test_two_segments(self):
        f = fm(np.arange(8, dtype=float).reshape(4, 2))
        parts = self.split(f, Partition((0, 2, 4)))
        assert len(parts) == 2
        assert np.array_equal(parts[0], f.values[:2])
        assert np.array_equal(parts[1], f.values[2:])

    def test_identity_partition(self):
        f = fm(np.arange(6, dtype=float).reshape(3, 2))
        (only,) = self.split(f, Partition((0, 3)))
        assert np.array_equal(only, f.values)

    def test_concat_round_trip(self):
        rng = make_rng(6)
        f = fm(rng.standard_normal((12, 3)))
        p = Partition((0, 3, 7, 12))
        rebuilt = np.concatenate(self.split(f, p))
        assert np.array_equal(rebuilt, f.values)

    def test_mismatched_length(self):
        f = fm(np.ones((4, 1)))
        with pytest.raises(ValueError, match=r"span \[0, 5\) lies outside the video's 4 frames"):
            self.split(f, Partition((0, 5)))


def test_default_penalty_scales_with_dim_and_length():
    assert default_penalty(100, 4) == pytest.approx(8 * np.log(100))
    assert default_penalty(1, 4) == 1.0
