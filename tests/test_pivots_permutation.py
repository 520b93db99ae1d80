"""Tests for pivot selection, permutations, and permutation prefixes."""

from __future__ import annotations

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.topm import topm_reference
from repro.exceptions import ConfigurationError
from repro.pivots import (
    PivotOperand,
    full_permutations,
    permutation,
    permutation_prefixes,
    pivot_distance_matrix,
    select_farthest_first_pivots,
    select_random_pivots,
)

# The kernels silence the warnings of non-finite inputs locally; any that
# escapes is a failure.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def paa_and_pivots():
    rng = np.random.default_rng(77)
    paa = rng.normal(size=(500, 8))
    pivots = select_random_pivots(paa, 16, rng)
    return paa, pivots


class TestSelection:
    def test_random_pivots_are_candidate_rows(self, rng):
        cands = rng.normal(size=(50, 6))
        pivots = select_random_pivots(cands, 10, rng)
        assert pivots.shape == (10, 6)
        for p in pivots:
            assert any(np.array_equal(p, c) for c in cands)

    def test_random_pivots_distinct(self, rng):
        cands = rng.normal(size=(50, 6))
        pivots = select_random_pivots(cands, 50, rng)
        assert np.unique(pivots, axis=0).shape[0] == 50

    def test_too_many_pivots_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            select_random_pivots(rng.normal(size=(5, 4)), 6, rng)

    def test_zero_pivots_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            select_random_pivots(rng.normal(size=(5, 4)), 0, rng)

    def test_pivots_are_copies(self, rng):
        cands = rng.normal(size=(20, 4))
        pivots = select_random_pivots(cands, 5, rng)
        pivots[0, 0] = 1e9
        assert cands.max() < 1e9

    def test_farthest_first_spreads(self, rng):
        """Max-min selection must achieve wider min-pairwise spacing."""
        from repro.series import squared_euclidean

        cands = rng.normal(size=(300, 8))

        def min_gap(pivots):
            d2 = squared_euclidean(pivots, pivots)
            np.fill_diagonal(d2, np.inf)
            return d2.min()

        ff = select_farthest_first_pivots(cands, 12, np.random.default_rng(1))
        rnd = select_random_pivots(cands, 12, np.random.default_rng(1))
        assert min_gap(ff) >= min_gap(rnd)


class TestPivotDistanceMatrix:
    def test_shape(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        assert pivot_distance_matrix(paa, pivots).shape == (500, 16)

    def test_word_length_mismatch(self, rng):
        with pytest.raises(ConfigurationError):
            pivot_distance_matrix(rng.normal(size=(5, 8)), rng.normal(size=(3, 7)))

    def test_zero_for_pivot_itself(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        d2 = pivot_distance_matrix(pivots, pivots)
        np.testing.assert_allclose(np.diag(d2), 0.0, atol=1e-9)


class TestFullPermutations:
    def test_rows_are_permutations(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        perms = full_permutations(paa, pivots)
        assert perms.shape == (500, 16)
        expect = np.arange(16)
        for row in perms[:25]:
            np.testing.assert_array_equal(np.sort(row), expect)

    def test_sorted_by_distance(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        perms = full_permutations(paa, pivots)
        d2 = pivot_distance_matrix(paa, pivots)
        for i in range(0, 500, 100):
            ordered = d2[i, perms[i]]
            assert np.all(np.diff(ordered) >= 0)

    def test_tie_break_by_pivot_id(self):
        # Two identical pivots: the lower id must come first.
        pivots = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        perms = full_permutations(np.array([[0.0, 0.0]]), pivots)
        assert list(perms[0]) == [1, 2, 0]

    def test_paper_figure2_style_example(self):
        """A point nearest p6 then p4 must start its permutation <6, 4, ...>."""
        pivots = np.array(
            [[10.0, 0], [8.0, 8], [0, 10.0], [2.0, 1.0], [5.0, 9.0], [1.0, 0.5], [4.0, 4.0]]
        )
        x = np.array([[1.2, 0.7]])
        perm = full_permutations(x, pivots)[0]
        assert perm[0] == 5  # closest pivot
        d2 = pivot_distance_matrix(x, pivots)[0]
        np.testing.assert_array_equal(perm, np.argsort(d2, kind="stable"))


class TestPermutationPrefixes:
    def test_prefix_is_head_of_full_permutation(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        full = full_permutations(paa, pivots)
        for m in (1, 3, 8, 16):
            prefix = permutation_prefixes(paa, pivots, m)
            np.testing.assert_array_equal(prefix, full[:, :m])

    def test_rejects_bad_prefix_lengths(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        with pytest.raises(ConfigurationError):
            permutation_prefixes(paa, pivots, 0)
        with pytest.raises(ConfigurationError):
            permutation_prefixes(paa, pivots, 17)

    def test_tie_heavy_input(self):
        """Many equidistant pivots: prefix must still match the full sort."""
        pivots = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [2.0, 0.0]])
        x = np.zeros((3, 2))
        prefix = permutation_prefixes(x, pivots, 2)
        for row in prefix:
            assert list(row) == [0, 1]

    def test_int32_dtype(self, paa_and_pivots):
        paa, pivots = paa_and_pivots
        assert permutation_prefixes(paa, pivots, 4).dtype == np.int32


@given(st.integers(2, 30), st.integers(2, 10), st.data())
@settings(max_examples=40, deadline=None)
def test_prefix_consistency_property(r, w, data):
    """Property: for any m, prefix == head of the full permutation."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    paa = rng.normal(size=(20, w))
    pivots = rng.normal(size=(r, w))
    m = data.draw(st.integers(1, r))
    full = full_permutations(paa, pivots)
    prefix = permutation_prefixes(paa, pivots, m)
    np.testing.assert_array_equal(prefix, full[:, :m])


def _topm_inputs(kind: str, r: int, w: int, d: int, rng: np.random.Generator):
    """PAA rows and pivots for one oracle-parity case."""
    if kind == "random":
        return rng.normal(size=(d, w)), rng.normal(size=(r, w))
    if kind == "integer":
        # Coordinates in {-2..2}: most rows hold many exact distance ties.
        return (rng.integers(-2, 3, size=(d, w)).astype(np.float64),
                rng.integers(-2, 3, size=(r, w)).astype(np.float64))
    if kind == "duplicated-pivots":
        pivots = rng.normal(size=(r, w))
        half = r // 2
        pivots[half:] = pivots[: r - half]
        return rng.normal(size=(d, w)), pivots
    if kind == "object-is-pivot":
        pivots = rng.normal(size=(r, w))
        return pivots[rng.integers(0, r, size=d)].copy(), pivots
    if kind == "near-ties":
        # Pivots on one ray, one ulp of scale apart and farther with every
        # lower id: their squared distances from the origin differ only in
        # the last bits, against the id order.
        scale = np.ones(r)
        for j in range(r - 2, -1, -1):
            scale[j] = np.nextafter(scale[j + 1], 2.0)
        paa = np.zeros((d, w))
        paa[d // 2:] = rng.normal(size=(d - d // 2, w)) * 1e-3
        return paa, scale[:, None] * rng.normal(size=(1, w))
    if kind == "cancellation":
        # A large common offset on every coordinate and pivots on a sphere
        # around the objects, radii 1e-7 apart: the product's rounding
        # (about ulp(offset^2)) exceeds the gaps between distances.
        center = 10.0 ** rng.uniform(6, 9) + rng.normal(size=w)
        dirs = rng.normal(size=(r, w))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radius = 1.0 + rng.uniform(-1e-7, 1e-7, size=(r, 1))
        return center + rng.normal(size=(d, w)) * 1e-6, center + dirs * radius
    if kind == "object-is-pivot-offset":
        # Objects equal to pivots far from the origin: the product gives
        # their zero self-distance as a small value of either sign.
        pivots = 10.0 ** rng.uniform(2, 6) + rng.normal(size=(r, w))
        return pivots[rng.integers(0, r, size=d)].copy(), pivots
    if kind == "non-finite":
        # NaN, -inf and overflowing objects among finite ones, and in half
        # of the cases one infinite pivot (no row is finite then).
        paa = rng.normal(size=(d, w))
        paa[::4, 0] = np.nan
        paa[1::4, -1] = -np.inf
        paa[2::4] *= 1e160
        pivots = rng.normal(size=(r, w))
        if rng.random() < 0.5:
            pivots[rng.integers(0, r), 0] = np.inf
        return paa, pivots
    if kind == "overflow":
        # About half the pivots sit so far out that their squared distances
        # overflow to inf, so rows mix finite and infinite distances; every
        # third object has an infinite coordinate and no finite distance.
        pivots = rng.normal(size=(r, w))
        pivots[rng.random(r) < 0.5] *= 1e200
        paa = rng.normal(size=(d, w))
        paa[::3, 0] = np.inf
        return paa, pivots
    raise AssertionError(kind)


@pytest.mark.parametrize("m_mode", ["1", "r-1", "r", "any"])
@pytest.mark.parametrize("kind", [
    "random", "integer", "duplicated-pivots", "object-is-pivot",
    "near-ties", "overflow", "cancellation", "object-is-pivot-offset",
    "non-finite",
])
@given(
    r=st.one_of(st.integers(2, 40), st.integers(257, 300)),
    w=st.integers(1, 6),
    d=st.one_of(st.just(1), st.integers(2, 40)),
    use_out=st.booleans(),
    data=st.data(),
)
@settings(max_examples=12, deadline=None)
def test_prefixes_match_topm_oracle(kind, m_mode, r, w, d, use_out, data):
    """``permutation_prefixes`` equals the cdist + full-lexsort oracle.

    Covers exact ties, ties hidden below the id bits of the sort keys,
    duplicated pivots, zero distances, ``m`` at ``r - 1`` and ``r``,
    ``r > 256`` (more id bits than one byte), single-row batches, the
    ``out=`` path, non-finite distances, and cancellation, where the
    matrix product cannot order the pivots and the screen must repair.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    paa, pivots = _topm_inputs(kind, r, w, d, rng)
    m = {"1": 1, "r-1": r - 1, "r": r}.get(m_mode) or data.draw(
        st.integers(1, r)
    )
    expect = topm_reference(paa, pivots, m)
    with mock.patch.object(permutation, "full_permutations",
                           wraps=permutation.full_permutations) as exact:
        if use_out:
            out = np.full((d, m), -1, dtype=np.int64)
            got = permutation_prefixes(paa, pivots, m, out=out)
            assert got is out
        else:
            got = permutation_prefixes(paa, pivots, m)
            assert got.dtype == np.int32
    np.testing.assert_array_equal(got, expect)
    if kind == "cancellation":
        # The screen really repaired rows here: not a vacuous pass.
        assert sum(len(c.args[0]) for c in exact.call_args_list) > 0


def test_clamp_leaves_no_negative_zero_key():
    """Negative distances, ``-0.0`` included, become ``+0.0`` keys.

    ``-0.0`` has the int64 pattern of the most negative integer: left in,
    its key would sort first and reverse the id order of zero ties.
    """
    rng = np.random.default_rng(5)
    d2 = rng.random((7, 12)) + 1.0
    d2[:, 3] = -0.0
    d2[:, 9] = -1e-12
    d2[:, 5] = 0.0
    ranked, min_gap = permutation._topm_sorted(d2, 4)
    assert not np.signbit(d2).any()
    np.testing.assert_array_equal(ranked[:, :3], [[3, 5, 9]] * 7)
    # Ids 3, 5 and 9 in the bits of zero: the smallest gap is two
    # subnormal steps, far inside any tolerance, so such rows are repaired.
    assert np.all(min_gap == 2 * 2.0**-1074)


def test_object_equal_to_pivot_under_offset_is_exact():
    """The product's self-distance rounds off zero; the answer may not."""
    pivots = 1e3 + 30 * np.random.default_rng(3).normal(size=(64, 16))
    op = PivotOperand(pivots)
    d2 = np.ones((64, 18))
    d2[:, :16] = pivots
    d2[:, 16] = np.vecdot(pivots, pivots)
    d2 = d2 @ op.rhs
    assert (np.diag(d2) < 0).any()  # the hazard is real on these inputs
    np.testing.assert_array_equal(
        permutation_prefixes(pivots, op, 3), topm_reference(pivots, pivots, 3)
    )


def test_pivot_operand_is_the_pivots_prepared():
    """Same answers from raw pivots, an operand and a pickled operand."""
    rng = np.random.default_rng(11)
    paa, pivots = rng.normal(size=(300, 6)), rng.normal(size=(40, 6))
    op = PivotOperand(pivots)
    assert op.rhs.flags.c_contiguous and op.rhs.shape == (8, 40)
    twin = pickle.loads(pickle.dumps(op))
    expect = permutation_prefixes(paa, pivots, 5)
    np.testing.assert_array_equal(permutation_prefixes(paa, op, 5), expect)
    np.testing.assert_array_equal(permutation_prefixes(paa, twin, 5), expect)
    with pytest.raises(ConfigurationError):
        permutation_prefixes(paa[:, :5], op, 5)
