import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirad.distance import DistanceSpec, DistanceVariant, distance_matrix
from dirad.neighbours import _BLOCK_BYTES, _block_rows, knn_batch, self_knn_batch

ABS = DistanceVariant.ABSOLUTE
RAMP = DistanceVariant.RAMP
SIGNED = DistanceVariant.SIGNED


def knn(train, query, k, spec):
    """(distances, indices) of the k nearest training rows to one query."""
    dists, idx = knn_batch(train, [query], k, spec)
    return dists[0], idx[0]


def test_nearer_of_two_points():
    dists, idx = knn([[0.0], [10.0]], [1.0], 1, DistanceSpec((ABS,)))
    assert np.array_equal(dists, [1.0])
    assert np.array_equal(idx, [0])


def test_k_equals_n_returns_all_sorted():
    train = [[0.0], [5.0], [2.0]]
    dists, idx = knn(train, [1.0], 3, DistanceSpec((ABS,)))
    assert np.array_equal(dists, [1.0, 1.0, 4.0])
    assert np.array_equal(idx, [0, 2, 1])


def test_matches_full_sort_oracle():
    rng = np.random.default_rng(29)
    spec = DistanceSpec((ABS, DistanceVariant.RAMP, DistanceVariant.SIGNED))
    train = rng.standard_normal((20, 3))
    query = rng.standard_normal(3)
    row = distance_matrix(query[None, :], train, spec)[0]
    order = np.argsort(row, kind="stable")
    for k in (1, 5, 20):
        dists, idx = knn(train, query, k, spec)
        assert np.array_equal(idx, order[:k])
        assert np.array_equal(dists, row[order[:k]])


def test_prefix_monotonicity_in_k():
    rng = np.random.default_rng(41)
    train = rng.standard_normal((15, 2))
    query = rng.standard_normal(2)
    spec = DistanceSpec((ABS, ABS))
    _, prev = knn(train, query, 1, spec)
    for k in range(2, 16):
        _, cur = knn(train, query, k, spec)
        assert np.array_equal(cur[: k - 1], prev)
        prev = cur


def test_ties_broken_by_ascending_row_index():
    train = [[1.0], [1.0], [1.0], [3.0]]
    _, idx = knn(train, [1.0], 3, DistanceSpec((ABS,)))
    assert np.array_equal(idx, [0, 1, 2])
    _, repeat = knn(train, [1.0], 3, DistanceSpec((ABS,)))
    assert np.array_equal(idx, repeat)


def test_k_out_of_range():
    with pytest.raises(ValueError, match="k must be"):
        knn([[0.0]], [1.0], 2, DistanceSpec((ABS,)))
    with pytest.raises(ValueError, match="k must be"):
        knn([[0.0]], [1.0], 0, DistanceSpec((ABS,)))


def test_dimension_mismatch_propagates():
    with pytest.raises(ValueError, match="dimension"):
        knn([[0.0, 1.0]], [1.0, 2.0], 1, DistanceSpec((ABS,)))


class TestSelfKnn:
    def test_duplicate_rows(self):
        dists, idx = self_knn_batch([[2.0], [2.0]], 1, DistanceSpec((ABS,)))
        assert dists[0, 0] == 0.0 and idx[0, 0] == 1
        assert dists[1, 0] == 0.0 and idx[1, 0] == 0

    def test_three_point_line(self):
        dists, _ = self_knn_batch([[0.0], [1.0], [3.0]], 1, DistanceSpec((ABS,)))
        assert dists[:, 0].tolist() == [1.0, 1.0, 2.0]

    def test_matches_per_row_knn_with_self_removed(self):
        rng = np.random.default_rng(59)
        train = rng.standard_normal((15, 2))
        spec = DistanceSpec((ABS, DistanceVariant.RAMP))
        dists, idx = self_knn_batch(train, 4, spec)
        for i in range(15):
            others = np.delete(train, i, axis=0)
            expected_dists, expected_idx = knn(others, train[i], 4, spec)
            # Map indices back to the original row numbering.
            mapped = expected_idx + (expected_idx >= i)
            assert np.array_equal(dists[i], expected_dists)
            assert np.array_equal(idx[i], mapped)

    def test_k_must_leave_room_for_self(self):
        with pytest.raises(ValueError, match="self"):
            self_knn_batch([[0.0], [1.0]], 2, DistanceSpec((ABS,)))


def test_batch_matches_single_queries():
    rng = np.random.default_rng(61)
    train = rng.standard_normal((30, 3))
    queries = rng.standard_normal((7, 3))
    spec = DistanceSpec((ABS, ABS, ABS))
    dists, idx = knn_batch(train, queries, 5, spec)
    for i in range(7):
        single_dists, single_idx = knn(train, queries[i], 5, spec)
        assert np.array_equal(dists[i], single_dists)
        assert np.array_equal(idx[i], single_idx)


def oracle_knn(train, queries, k, spec, exclude_self=False):
    """Top-k by full stable argsort of every distance row."""
    block = distance_matrix(queries, train, spec)
    if exclude_self:
        block[np.arange(len(train)), np.arange(len(train))] = np.inf
    order = np.argsort(block, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(block, order, axis=1), order


def assert_same_neighbours(got, expected):
    # Distances bitwise (signed zeros, inf and NaN included), indices exactly.
    assert got[0].tobytes() == expected[0].tobytes()
    assert np.array_equal(got[1], expected[1])


def test_batch_blocks_do_not_change_results():
    # Sized from the byte budget so both calls span at least two blocks.
    n = math.isqrt(_BLOCK_BYTES // 8) + 1
    assert _block_rows(8 * n) < n
    rng = np.random.default_rng(67)
    train = rng.standard_normal((n, 2))
    spec = DistanceSpec((ABS, ABS))
    got = self_knn_batch(train, 3, spec)
    assert_same_neighbours(got, oracle_knn(train, train, 3, spec, exclude_self=True))
    queries = rng.standard_normal((2 * _block_rows(8 * n) + 1, 2))
    got = knn_batch(train, queries, 3, spec)
    assert_same_neighbours(got, oracle_knn(train, queries, 3, spec))


OVERFLOW_WARNINGS = (
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)


@pytest.mark.filterwarnings(*OVERFLOW_WARNINGS)
def test_rows_with_nan_distances_match_full_sort():
    # inf + -inf under a signed spec gives NaN cells, which sort last.
    signed = DistanceSpec((SIGNED,) * 2)
    train = [[-1e308, 1e308], [0.0, 0.0], [-1e308, 1e308], [1.0, 1.0]]
    queries = np.array([[1e308, -1e308], [0.0, 0.0]])
    assert np.isnan(distance_matrix(queries, train, signed)[0]).sum() == 2
    for k in range(1, 5):
        got = knn_batch(train, queries, k, signed)
        assert_same_neighbours(got, oracle_knn(train, queries, k, signed))


KINDS = ("random", "rounded", "duplicated", "extreme")


def sample_rows(rng, kind, rows, m):
    """Rows of one data kind; "extreme" overflows signed sums to inf and NaN."""
    if kind == "random":
        return rng.standard_normal((rows, m)) * 3
    if kind == "rounded":
        return np.round(rng.standard_normal((rows, m)))
    if kind == "duplicated":
        pool = np.round(rng.standard_normal((3, m)), 1)
        return pool[rng.integers(0, len(pool), rows)]
    return rng.choice([-1e308, 1e308, 0.0, -0.0, 1.0], size=(rows, m))


@st.composite
def problems(draw, self_query):
    """(train, queries or None, k, spec) for a neighbour query."""
    kind = draw(st.sampled_from(KINDS))
    m = draw(st.integers(1, 4))
    pool = st.sampled_from([ABS, RAMP, SIGNED])
    variants = draw(st.lists(pool, min_size=m, max_size=m))
    if kind == "extreme":
        variants[0] = SIGNED
    spec = DistanceSpec(tuple(variants))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if self_query:
        # Above sqrt(_BLOCK_BYTES / 8) rows the self-query spans two blocks.
        wide = math.isqrt(_BLOCK_BYTES // 8) + 1
        n = draw(st.one_of(st.integers(2, 30), st.integers(wide, wide + 40)))
        k = draw(st.integers(1, n - 1))
        return sample_rows(rng, kind, n, m), None, k, spec
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, n))
    rows = _block_rows(8 * n)
    q = rows * draw(st.integers(0, 2)) + draw(st.integers(1, rows))
    return sample_rows(rng, kind, n, m), sample_rows(rng, kind, q, m), k, spec


@pytest.mark.filterwarnings(*OVERFLOW_WARNINGS)
@settings(max_examples=60, deadline=None)
@given(problems(self_query=False))
def test_knn_batch_matches_full_sort_property(problem):
    train, queries, k, spec = problem
    got = knn_batch(train, queries, k, spec)
    assert_same_neighbours(got, oracle_knn(train, queries, k, spec))


@pytest.mark.filterwarnings(*OVERFLOW_WARNINGS)
@settings(max_examples=60, deadline=None)
@given(problems(self_query=True))
def test_self_knn_batch_matches_full_sort_property(problem):
    train, _, k, spec = problem
    got = self_knn_batch(train, k, spec)
    assert_same_neighbours(got, oracle_knn(train, train, k, spec, exclude_self=True))
