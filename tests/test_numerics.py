import math

import numpy as np
import pytest

from cegl.errors import NumericError
from cegl.numerics import make_rng, sigmoid, softmax
from gradcheck import finite_diff_grad


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert abs(sigmoid(50.0) - 1.0) < 1e-15

    def test_closed_form(self):
        # sigmoid(ln 3) = 3 / (1 + 3)
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_overflow_safe(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0

    def test_complement_identity(self):
        rng = make_rng(5)
        xs = rng.uniform(-700, 700, size=200)
        for x in xs:
            assert abs(sigmoid(x) + sigmoid(-x) - 1.0) < 1e-12

    def test_bit_identical_to_masked_formula(self):
        rng = make_rng(6)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                   709.0, -709.0, 710.0, -710.0, 1e-300, -1e-300]
        arrays = [rng.standard_normal((7, 11)) * scale for scale in range(1, 41)]
        for x in [np.array(special), *arrays]:
            got, want = sigmoid(x), masked_sigmoid(x)
            # bit patterns, so ±0 and the sign of a NaN count too
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_scalar_in_float_out(self):
        for x in (0.3, -2, np.float64(-0.0), np.array(1e-300)):
            got = sigmoid(x)
            assert type(got) is float
            assert got == masked_sigmoid(x)


def masked_sigmoid(x):
    """The sign-branching sigmoid `sigmoid` replaced, kept as its reference."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), rtol=0, atol=1e-15)

    def test_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [1.0, 0.0], rtol=0, atol=1e-12)

    def test_closed_form(self):
        out = softmax(np.log(np.array([1.0, 2.0, 3.0])))
        assert np.allclose(out, np.array([1, 2, 3]) / 6, rtol=0, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    def test_properties(self):
        rng = make_rng(7)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(1, 12))
            out = softmax(v)
            assert (out > 0).all()
            assert abs(out.sum() - 1.0) < 1e-12
            shifted = softmax(v + 17.5)
            assert np.allclose(out, shifted, rtol=0, atol=1e-12)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]), eps=1e-5)
        assert abs(grad[0] - 6.0) <= 1e-6

    def test_constant(self):
        grad = finite_diff_grad(lambda t: 4.25, np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(grad, np.zeros(3))

    def test_nonfinite_reports_coordinate(self):
        def f(t):
            return float("nan") if t[1] != 0 else 0.0

        with pytest.raises(NumericError, match="coordinate 1"):
            finite_diff_grad(f, np.array([0.0, 0.0]))

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: 0.0, np.zeros(1), eps=0.0)


class TestSeededRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(123).uniform(size=10_000)
        b = make_rng(123).uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).uniform(size=100)
        b = make_rng(2).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            make_rng(-1)
