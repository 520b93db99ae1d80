"""Tests for repro.series.series: dataset container and shape handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DimensionalityError
from repro.series import SeriesDataset, as_matrix, series_nbytes


class TestAsMatrix:
    def test_promotes_single_series_to_row(self):
        out = as_matrix(np.arange(5.0))
        assert out.shape == (1, 5)

    def test_preserves_2d_shape(self):
        out = as_matrix(np.zeros((3, 4)))
        assert out.shape == (3, 4)

    def test_casts_to_float64(self):
        out = as_matrix(np.arange(6, dtype=np.int32).reshape(2, 3))
        assert out.dtype == np.float64

    def test_output_is_c_contiguous(self):
        out = as_matrix(np.asfortranarray(np.zeros((3, 4))))
        assert out.flags["C_CONTIGUOUS"]

    def test_rejects_3d(self):
        with pytest.raises(DimensionalityError):
            as_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionalityError):
            as_matrix(np.zeros((0, 5)))

    def test_accepts_python_lists(self):
        out = as_matrix([[1, 2], [3, 4]])
        assert out.shape == (2, 2)


class TestSeriesNbytes:
    def test_includes_overhead_by_default(self):
        assert series_nbytes(100) == 816

    def test_raw_bytes_without_overhead(self):
        assert series_nbytes(100, with_overhead=False) == 800


class TestSeriesDataset:
    def test_default_ids_are_sequential(self):
        ds = SeriesDataset(np.zeros((4, 8)))
        assert list(ds.ids) == [0, 1, 2, 3]

    def test_count_and_length(self):
        ds = SeriesDataset(np.zeros((4, 8)))
        assert ds.count == 4
        assert ds.length == 8
        assert len(ds) == 4

    def test_nbytes_scales_with_count(self):
        a = SeriesDataset(np.zeros((4, 8)))
        b = SeriesDataset(np.zeros((8, 8)))
        assert b.nbytes == 2 * a.nbytes

    def test_mismatched_ids_rejected(self):
        with pytest.raises(DimensionalityError):
            SeriesDataset(np.zeros((4, 8)), ids=np.arange(3))

    def test_iteration_yields_rows(self):
        ds = SeriesDataset(np.arange(8.0).reshape(2, 4))
        rows = list(ds)
        assert len(rows) == 2
        np.testing.assert_array_equal(rows[1], [4, 5, 6, 7])

    def test_take_preserves_ids(self):
        ds = SeriesDataset(np.arange(20.0).reshape(5, 4), ids=np.array([10, 11, 12, 13, 14]))
        sub = ds.take(np.array([0, 2]))
        assert list(sub.ids) == [10, 12]
        np.testing.assert_array_equal(sub.values[1], ds.values[2])

    def test_sample_size(self, rng):
        ds = SeriesDataset(np.zeros((100, 4)))
        sub = ds.sample(0.25, rng)
        assert sub.count == 25

    def test_sample_minimum_one(self, rng):
        ds = SeriesDataset(np.zeros((3, 4)))
        assert ds.sample(0.01, rng).count == 1

    def test_sample_no_replacement(self, rng):
        ds = SeriesDataset(np.zeros((50, 4)))
        sub = ds.sample(0.5, rng)
        assert len(set(sub.ids.tolist())) == sub.count

    def test_sample_rejects_bad_fraction(self, rng):
        ds = SeriesDataset(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            ds.sample(0.0, rng)
        with pytest.raises(ValueError):
            ds.sample(1.5, rng)

    def test_split_into_chunks_covers_all_rows(self):
        ds = SeriesDataset(np.arange(40.0).reshape(10, 4))
        chunks = ds.split_into_chunks(3)
        total = sum(c.count for c in chunks)
        assert total == 10
        all_ids = sorted(i for c in chunks for i in c.ids.tolist())
        assert all_ids == list(range(10))

    def test_split_chunks_are_contiguous_views(self):
        ds = SeriesDataset(np.arange(40.0).reshape(10, 4), name="walk")
        chunks = ds.split_into_chunks(3)
        np.testing.assert_array_equal(
            np.concatenate([c.values for c in chunks]), ds.values
        )
        for c in chunks:
            assert np.shares_memory(c.values, ds.values)
            assert np.shares_memory(c.ids, ds.ids)
            assert c.name == "walk"

    def test_split_into_more_chunks_than_rows(self):
        ds = SeriesDataset(np.zeros((2, 4)))
        chunks = ds.split_into_chunks(5)
        assert sum(c.count for c in chunks) == 2
        assert all(c.count > 0 for c in chunks)

    def test_split_rejects_zero_chunks(self):
        ds = SeriesDataset(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            ds.split_into_chunks(0)
