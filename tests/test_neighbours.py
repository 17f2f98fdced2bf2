import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirad import neighbours
from dirad.distance import DistanceSpec, DistanceVariant, distance_matrix
from dirad.neighbours import _BLOCK_BYTES, _block_rows, knn_batch, self_knn_batch

from oracles import oracle_knn

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
    for k in (1, 5, 20):
        expected = oracle_knn(train, query[None, :], k, spec)
        assert_same_neighbours(knn_batch(train, [query], k, spec), expected)


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
        dists = self_knn_batch([[2.0], [2.0]], 1, DistanceSpec((ABS,)))
        assert dists.tolist() == [[0.0], [0.0]]

    def test_three_point_line(self):
        dists = self_knn_batch([[0.0], [1.0], [3.0]], 1, DistanceSpec((ABS,)))
        assert dists[:, 0].tolist() == [1.0, 1.0, 2.0]

    def test_a_row_with_no_finite_neighbour_reads_inf(self):
        # Row 0's only other rows are at an overflowed distance: its own
        # masked cell ties with them, and only the distance comes back.
        dists = self_knn_batch([[1e308], [-1e308], [-1e308]], 1, DistanceSpec((ABS,)))
        assert isinstance(dists, np.ndarray)
        assert dists.tolist() == [[np.inf], [0.0], [0.0]]

    def test_matches_per_row_knn_with_self_removed(self):
        rng = np.random.default_rng(59)
        train = rng.standard_normal((15, 2))
        spec = DistanceSpec((ABS, DistanceVariant.RAMP))
        dists = self_knn_batch(train, 4, spec)
        for i in range(15):
            expected_dists, _ = knn(np.delete(train, i, axis=0), train[i], 4, spec)
            assert np.array_equal(dists[i], expected_dists)

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
    expected, _ = oracle_knn(train, train, 3, spec, exclude_self=True)
    assert self_knn_batch(train, 3, spec).tobytes() == expected.tobytes()
    queries = rng.standard_normal((2 * _block_rows(8 * n) + 1, 2))
    got = knn_batch(train, queries, 3, spec)
    assert_same_neighbours(got, oracle_knn(train, queries, 3, spec))


@pytest.mark.parametrize("self_query", [False, True], ids=["knn", "self-knn"])
def test_every_block_reuses_the_first_blocks_buffers(self_query, monkeypatch):
    # A 5-row block budget splits 13 queries (or 13 training rows) into 3 blocks.
    n = 13
    rng = np.random.default_rng(8)
    train = np.round(rng.standard_normal((n, 2)), 1)
    spec = DistanceSpec((ABS, RAMP))
    queries = train if self_query else np.round(rng.standard_normal((n, 2)), 1)
    expected = oracle_knn(train, queries, 4, spec, exclude_self=self_query)
    buffers = []

    def spy(queries, train, spec, **given):
        block = distance_matrix(queries, train, spec, **given)
        buffers.append((block, given["scratch"]))
        return block

    monkeypatch.setattr(neighbours, "_BLOCK_BYTES", 5 * 8 * n)
    monkeypatch.setattr(neighbours, "distance_matrix", spy)
    if self_query:
        assert self_knn_batch(train, 4, spec).tobytes() == expected[0].tobytes()
    else:
        assert_same_neighbours(knn_batch(train, queries, 4, spec), expected)
    assert len(buffers) == 3
    first_block, first_scratch = buffers[0]
    for block, scratch in buffers:
        assert np.shares_memory(block, first_block)
        assert np.shares_memory(scratch, first_scratch)
        assert not np.shares_memory(block, scratch)


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


@settings(deadline=None)
@given(problems(self_query=False))
def test_knn_batch_matches_full_sort_property(problem):
    train, queries, k, spec = problem
    got = knn_batch(train, queries, k, spec)
    assert_same_neighbours(got, oracle_knn(train, queries, k, spec))


def assert_same_distances(got, expected):
    # A distances-only search returns no indices and the oracle's bytes.
    assert got[1] is None
    assert got[0].tobytes() == expected[0].tobytes()


@settings(deadline=None)
@given(problems(self_query=False))
def test_knn_batch_distances_only_match_full_sort_property(problem):
    train, queries, k, spec = problem
    got = knn_batch(train, queries, k, spec, indices=False)
    assert_same_distances(got, oracle_knn(train, queries, k, spec))


@settings(deadline=None)
@given(problems(self_query=True))
def test_self_knn_batch_matches_full_sort_property(problem):
    # A self-query returns the (n, k) distances alone, the oracle's bytes.
    train, _, k, spec = problem
    got = self_knn_batch(train, k, spec)
    expected, _ = oracle_knn(train, train, k, spec, exclude_self=True)
    assert got.shape == (len(train), k) and got.tobytes() == expected.tobytes()


@settings(deadline=None)
@given(problems(self_query=True))
def test_self_knn_batch_distances_only_match_full_sort_property(problem):
    # Each row's self-query distances are the distances-only search of that
    # row among the other rows, with its own +inf cell sorted in before the
    # first NaN (a stable sort puts NaN after +inf).
    train, _, k, spec = problem
    got = self_knn_batch(train, k, spec)
    for i, row in enumerate(train):
        expected, idx = knn_batch(np.delete(train, i, axis=0), row[None], k, spec, indices=False)
        assert idx is None
        expected = expected[0]
        first_nan = np.flatnonzero(np.isnan(expected))
        if first_nan.size:
            j = first_nan[0]
            expected = np.concatenate([expected[:j], [np.inf], expected[j:]])[:k]
        nan = np.isnan(got[i])
        assert np.array_equal(nan, np.isnan(expected))
        assert got[i][~nan].tobytes() == expected[~nan].tobytes()


@st.composite
def row_subsets(draw):
    """(infinite, train, k, spec, rows, block_bytes): a self-query problem,
    its values replaced by ones with +-inf if ``infinite``, row indices into it
    (unsorted, repeated, empty or one row) and a per-block byte budget that
    cuts the subset search into blocks of 1-4 rows or leaves it whole."""
    infinite = draw(st.booleans())
    train, _, k, spec = draw(problems(self_query=True))
    n, m = train.shape
    if infinite:  # inf - inf cells are NaN under every variant
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        train = rng.choice([-np.inf, np.inf, -1e308, 1e308, 0.0, 1.0], size=(n, m))
    index = st.integers(0, n - 1)
    first_block = min(_block_rows(8 * n), n - 1)
    rows = draw(st.one_of(
        st.just([]),
        st.lists(index, min_size=1, max_size=1),
        st.lists(index, max_size=40),
        # Both sides of the full search's first block boundary.
        st.just([first_block, first_block - 1]),
    ))
    block_bytes = draw(st.sampled_from([_BLOCK_BYTES] + [b * 8 * n for b in (1, 2, 4)]))
    return infinite, train, k, spec, np.array(rows, dtype=np.int64), block_bytes


@settings(deadline=None)
@given(row_subsets())
def test_self_knn_batch_rows_match_the_full_self_query_property(problem):
    infinite, train, k, spec, rows, block_bytes = problem
    full = self_knn_batch(train, k, spec)
    expected = oracle_knn(train, train, k, spec, exclude_self=True)[0]
    if infinite:
        # NaN cells of both signs: the selection may keep other NaN bits than
        # the stable argsort does, so only NaN-ness is compared with it.
        assert np.array_equal(full, expected, equal_nan=True)
    else:
        assert full.tobytes() == expected.tobytes()
    with mock.patch.object(neighbours, "_BLOCK_BYTES", block_bytes):
        got = self_knn_batch(train, k, spec, rows=rows)
    assert got.shape == (len(rows), k)
    assert got.tobytes() == full[rows].tobytes()


def test_self_knn_batch_rows_write_nan_cells_as_the_full_self_query_does():
    # inf - inf cells of both signs: the kernel's NaN + NaN keeps either
    # operand's sign, which differed between row 5 in a block of six rows
    # and in a block of one before every result NaN was written one way.
    train = np.array([
        [-np.inf, 1.0, -np.inf],
        [1.0, -np.inf, 1.0],
        [1.0, 1.0, -np.inf],
        [1.0, 1.0, np.inf],
        [np.inf, np.inf, -np.inf],
        [np.inf, np.inf, -np.inf],
    ])
    spec = DistanceSpec((RAMP, SIGNED, ABS))
    full = self_knn_batch(train, 5, spec)
    assert np.isnan(full[5]).any()
    assert self_knn_batch(train, 5, spec, rows=[5]).tobytes() == full[[5]].tobytes()


@pytest.mark.parametrize("rows, message", [
    ([4], r"rows must be in \[0, 3\]"),
    ([0, -1], r"rows must be in \[0, 3\]"),
    (np.array([2**63], dtype=np.uint64), r"rows must be in \[0, 3\]"),
    ([[0]], "1-d array"),
    ([0.0], "1-d array"),
])
def test_self_knn_batch_rejects_rows_outside_the_training_set(rows, message):
    with pytest.raises(ValueError, match=message):
        self_knn_batch(np.arange(4.0)[:, None], 1, DistanceSpec((ABS,)), rows=rows)
