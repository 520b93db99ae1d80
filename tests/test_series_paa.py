"""Tests for PAA segmentation and its lower-bounding property."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ConfigurationError
from repro.series import (
    euclidean,
    paa_distance_lower_bound,
    paa_inverse,
    paa_transform,
    znormalize,
)


class TestPaaTransform:
    def test_paper_figure3_example(self):
        """Fig. 3: series of 12 points -> 4 segment means."""
        x = np.array([-1.8, -1.5, -1.2, -0.6, -0.4, -0.2, 0.1, 0.3, 0.5, 1.3, 1.5, 1.7])
        out = paa_transform(x, 4)
        np.testing.assert_allclose(out[0], [-1.5, -0.4, 0.3, 1.5])

    def test_w_equals_n_is_identity(self, rng):
        x = rng.normal(size=(3, 8))
        np.testing.assert_allclose(paa_transform(x, 8), x)

    def test_w_one_is_row_mean(self, rng):
        x = rng.normal(size=(3, 10))
        np.testing.assert_allclose(paa_transform(x, 1)[:, 0], x.mean(axis=1))

    def test_divisible_path_matches_fractional_path(self, rng):
        """The reshape fast path and the weight-matrix path must agree."""
        from repro.series.paa import _fractional_weights

        x = rng.normal(size=(5, 24))
        fast = paa_transform(x, 6)
        slow = x @ _fractional_weights(24, 6).T
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_fractional_segments(self):
        # n=5, w=2: segment boundary falls mid-reading.
        x = np.array([[2.0, 2.0, 2.0, 4.0, 4.0]])
        out = paa_transform(x, 2)
        # Segment 1 covers readings 0,1 and half of 2 -> (2+2+1)/2.5 = 2.0;
        # segment 2 covers the other half of 2 and readings 3,4 -> (1+4+4)/2.5.
        np.testing.assert_allclose(out[0], [2.0, 3.6])

    @pytest.mark.parametrize("rows,n,w", [(4096, 250, 16), (64, 100, 7),
                                          (64, 300, 23), (3, 5, 2)])
    def test_fractional_rows_independent_of_batch(self, rng, rows, n, w):
        """A row's fractional PAA is bit-identical whether it is computed
        alone or inside a batch of any size (so knn and knn_batch derive
        the same signature for the same query)."""
        from repro.series.paa import _fractional_weights

        x = rng.normal(size=(rows, n))
        batch = paa_transform(x, w)
        for i in range(0, rows, max(1, rows // 64)):
            assert np.array_equal(batch[i], paa_transform(x[i:i + 1], w)[0])
        assert np.array_equal(batch[: rows // 2], paa_transform(x[: rows // 2], w))
        np.testing.assert_allclose(batch, x @ _fractional_weights(n, w).T,
                                   rtol=0, atol=1e-14)

    def test_mean_preserved(self, rng):
        """PAA preserves the overall mean for divisible segmentations."""
        x = rng.normal(size=(4, 32))
        out = paa_transform(x, 8)
        np.testing.assert_allclose(out.mean(axis=1), x.mean(axis=1), atol=1e-12)

    def test_rejects_w_zero(self, rng):
        with pytest.raises(ConfigurationError):
            paa_transform(rng.normal(size=(2, 8)), 0)

    def test_rejects_w_greater_than_n(self, rng):
        with pytest.raises(ConfigurationError):
            paa_transform(rng.normal(size=(2, 8)), 9)

    def test_constant_series(self):
        out = paa_transform(np.full((1, 12), 3.5), 4)
        np.testing.assert_allclose(out, 3.5)


class TestPaaInverse:
    def test_roundtrip_constant_per_segment(self):
        x = np.repeat(np.array([[1.0, 2.0, 3.0]]), 4, axis=1).reshape(1, -1)
        x = np.array([[1.0] * 4 + [2.0] * 4 + [3.0] * 4])
        paa = paa_transform(x, 3)
        recon = paa_inverse(paa, 12)
        np.testing.assert_allclose(recon, x)

    def test_inverse_shape(self):
        out = paa_inverse(np.zeros((2, 4)), 16)
        assert out.shape == (2, 16)

    def test_rejects_length_shorter_than_word(self):
        with pytest.raises(ConfigurationError):
            paa_inverse(np.zeros((1, 8)), 4)

    def test_reconstruction_error_decreases_with_w(self, rng):
        x = znormalize(rng.normal(size=(1, 64)).cumsum(axis=1))
        errors = []
        for w in (2, 8, 32):
            recon = paa_inverse(paa_transform(x, w), 64)
            errors.append(float(((x - recon) ** 2).sum()))
        assert errors[0] >= errors[1] >= errors[2]


class TestPaaLowerBound:
    def test_bounds_euclidean(self, rng):
        x, y = znormalize(rng.normal(size=(2, 64)).cumsum(axis=1))
        lb = paa_distance_lower_bound(
            paa_transform(x, 8)[0], paa_transform(y, 8)[0], 64
        )
        assert lb <= euclidean(x, y) + 1e-9

    def test_word_length_mismatch(self):
        with pytest.raises(ValueError):
            paa_distance_lower_bound(np.zeros(4), np.zeros(5), 64)

    def test_zero_for_identical(self, rng):
        p = paa_transform(rng.normal(size=(1, 32)), 4)[0]
        assert paa_distance_lower_bound(p, p, 32) == 0.0


@given(
    arrays(np.float64, st.tuples(st.just(2), st.sampled_from([16, 24, 32, 48])),
           elements=st.floats(-50, 50, allow_nan=False)),
    st.sampled_from([2, 4, 8]),
)
@settings(max_examples=60, deadline=None)
def test_paa_lower_bound_property(mat, w):
    """Property: sqrt(n/w)*||PAA(x)-PAA(y)|| <= ED(x, y) for any series."""
    x, y = mat
    n = mat.shape[1]
    lb = paa_distance_lower_bound(
        paa_transform(x, w)[0], paa_transform(y, w)[0], n
    )
    assert lb <= euclidean(x, y) + 1e-6


@given(
    arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(4, 40)),
           elements=st.floats(-50, 50, allow_nan=False)),
    st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_paa_values_within_series_range(mat, w):
    """Property: segment means stay within [min, max] of the series."""
    if w > mat.shape[1]:
        w = mat.shape[1]
    out = paa_transform(mat, w)
    assert out.min() >= mat.min() - 1e-7
    assert out.max() <= mat.max() + 1e-7
