"""Elementary numerics: softmax, log-softmax, finite differences."""

import itertools

import numpy as np
import pytest

from ltinfomax.numerics import (
    check_labels,
    check_prob_vector,
    finite_diff_gradient,
    relative_error,
    softmax,
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.full(3, 1 / 3), atol=1e-15)

    def test_shift_invariance(self):
        # integer logits: z + 100 is exactly representable -> bit-identical
        z = np.array([0.0, 1.0, -3.0, 7.0])
        np.testing.assert_array_equal(softmax(z), softmax(z + 100.0))
        rng = np.random.default_rng(42)
        zr = rng.normal(size=7)
        np.testing.assert_allclose(softmax(zr), softmax(zr + 100.0), rtol=1e-12)

    def test_frozen_value(self):
        # exp(1)/(exp(1)+exp(2)), exp(2)/(exp(1)+exp(2))
        np.testing.assert_allclose(
            softmax([1.0, 2.0]),
            [0.2689414213699951, 0.7310585786300049],
            rtol=1e-15,
        )

    def test_simplex_for_extreme_logits(self):
        """Output stays on the simplex for logits up to +/- 1e4."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = rng.uniform(-1e4, 1e4, size=rng.integers(2, 12))
            p = softmax(z)
            check_prob_vector(p)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = rng.normal(size=6) * 10
            assert np.argmax(softmax(z)) == np.argmax(z)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([1.0, np.nan])
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(4, 3))
        batched = softmax(z)
        for i in range(4):
            np.testing.assert_array_equal(batched[i], softmax(z[i]))

    def test_any_rank_shifts_by_the_row_max(self):
        rng = np.random.default_rng(6)
        for z in (rng.normal(size=5), rng.normal(size=(4, 12)), rng.normal(size=(2, 3, 5))):
            p, logp = softmax(z, with_log=True)
            shifted = z - z.max(axis=-1, keepdims=True)
            ez = np.exp(shifted)
            norm = ez.sum(axis=-1, keepdims=True)
            np.testing.assert_array_equal(p, ez / norm)
            np.testing.assert_array_equal(logp, shifted - np.log(norm))


class TestLogSumExp:
    """softmax(z, with_log=True) subtracts the log-sum-exp of the shifted logits."""

    def test_log_softmax_consistency(self):
        z = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(softmax(z, with_log=True)[1], np.log(softmax(z)), atol=1e-12)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_gradient(lambda x: np.sum(x**2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], rtol=1e-8)

    def test_constant_gives_zeros(self):
        grad = finite_diff_gradient(lambda x: 3.14, np.zeros(4))
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_product_rule(self):
        grad = finite_diff_gradient(lambda x: x[0] * x[1], np.array([3.0, 5.0]))
        np.testing.assert_allclose(grad, [5.0, 3.0], rtol=1e-9)

    def test_random_quadratic_matches_analytic(self):
        """0.5 x'Ax + b'x has gradient 0.5(A + A')x + b."""
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = rng.integers(2, 8)
            a = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            x = rng.normal(size=n)
            fd = finite_diff_gradient(lambda v: 0.5 * v @ a @ v + b @ v, x)
            analytic = 0.5 * (a + a.T) @ x + b
            assert relative_error(fd, analytic) < 1e-6

    def test_propagates_non_finite(self):
        def f(x):
            with np.errstate(invalid="ignore"):
                return np.log(x[0])
        with pytest.raises(ValueError):
            finite_diff_gradient(f, np.array([1e-10]))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: 0.0, np.zeros(2), h=0.0)


class TestHelpers:
    def test_check_prob_vector_rejections(self):
        with pytest.raises(ValueError):
            check_prob_vector([0.5, 0.6])
        with pytest.raises(ValueError):
            check_prob_vector([1.1, -0.1])
        with pytest.raises(ValueError):
            check_prob_vector([1.0])

    def test_check_prob_vector_tolerance(self):
        check_prob_vector([0.5, 0.5 + 5e-10])

    @pytest.mark.parametrize("dtype", ["int8", "uint8", "int16", "uint16", "int32", "uint32",
                                       "int64", "uint64", ">i2"])
    def test_check_labels_bounds_like_min_and_max(self, dtype):
        """check_labels accepts exactly the labels with min >= 0 and max <
        num_classes at every integer width, also where a negative int8 label's
        unsigned view (128-255) lies below num_classes."""
        info = np.iinfo(dtype)
        values = {-128, -1, 0, 2, 126, 127, 128, 200, 255, 256, 299, 300, int(info.max)}
        for num_classes, value in itertools.product(
                [1, 3, 127, 128, 129, 255, 256, 300, 2**40], values):
            if not info.min <= value <= info.max:
                continue
            labels = np.array([0, value], dtype=dtype)
            want = labels.min() >= 0 and labels.max() < num_classes
            try:
                got = check_labels(labels, num_classes, 2)
            except ValueError:
                assert not want, (num_classes, labels)
            else:
                assert want, (num_classes, labels)
                assert got.dtype == np.int64 and got.tolist() == [0, value]
