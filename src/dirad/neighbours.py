"""Exact brute-force k-nearest-neighbour queries under any DistanceSpec.

Brute force is deliberate: ramp and signed distances break the symmetry and
triangle-inequality assumptions of spatial indexes, and the target dataset
sizes keep O(n*m) per query tractable. Ties are broken by ascending training
row index so results are deterministic.

One blocked loop, ``_knn``, serves both query kinds. Queries run in blocks
whose distance matrix stays within ``_BLOCK_BYTES``; a self-query is the same
loop with the training rows as queries and each block's own rows masked to
+inf, so a row is never its own neighbour.

Each block's k nearest are selected without a full sort: ``np.partition``
finds every row's k-th smallest distance, the row keeps all entries below it
plus the lowest-index entries equal to it, and only those k candidates are
stably sorted. The result is exactly the stable ``argsort`` order by
(distance, training row index); rows with fewer than k non-NaN distances take
the full stable argsort, which puts NaN last.
"""

from __future__ import annotations

import numpy as np

from .distance import DistanceSpec, distance_matrix

# Bytes per block of rows: a kernel call takes max(1, _BLOCK_BYTES // (8 * n)) query
# rows, and ALP's (rows, l, k) gather as many as fit, so memory per block is bounded
# by bytes whatever n is. The (rows, n) matrix plus the kernel's scratch buffer fit a
# per-core L2 cache: 512 KiB was the fastest of 32 KiB-2 MiB on a Xeon with 2 MiB of L2.
_BLOCK_BYTES = 512 * 1024


def _as_matrix(train) -> np.ndarray:
    t = np.asarray(train, dtype=np.float64)
    if t.ndim != 2:
        raise ValueError("training data must be a 2-d matrix")
    return t


def _block_rows(row_bytes: int) -> int:
    """Query rows per block when each row takes ``row_bytes``: at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _smallest_k(block: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and columns of each row's k smallest entries, ascending.

    Bit-identical to ``np.argsort(block, axis=1, kind="stable")[:, :k]`` and
    the values it selects: ties keep ascending column order and NaN sorts last.
    """
    rows, n = block.shape
    kth = np.partition(block, k - 1, axis=1)[:, k - 1, None]
    keep = block <= kth
    count = np.count_nonzero(keep, axis=1)
    tied = np.flatnonzero(count > k)
    if tied.size:
        # Keep everything below the k-th value, then the lowest-index entries
        # equal to it until the row has k.
        sub, bound = block[tied], kth[tied]
        below = sub < bound
        equal = sub == bound
        room = k - np.count_nonzero(below, axis=1)
        keep[tied] = below | (equal & (np.cumsum(equal, axis=1) <= room[:, None]))
    short = np.flatnonzero(count < k)
    if short.size:
        # The k-th value is NaN: fewer than k comparable entries in the row.
        order = np.argsort(block[short], axis=1, kind="stable")[:, :k]
        fill = np.zeros((short.size, n), dtype=bool)
        np.put_along_axis(fill, order, True, axis=1)
        keep[short] = fill
    flat = np.flatnonzero(keep).reshape(rows, k)
    values = np.take(block, flat)
    cols = flat - np.arange(0, rows * n, n)[:, None]
    order = np.argsort(values, axis=1, kind="stable")
    return (
        np.take_along_axis(values, order, axis=1),
        np.take_along_axis(cols, order, axis=1),
    )


def _knn(
    t: np.ndarray, q: np.ndarray, k: int, spec: DistanceSpec, self_query: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``q``'s k nearest rows of ``t``, one block at a time.

    ``self_query`` means ``q`` is ``t``: each block's own rows are masked.
    The kernel gets ``t`` Fortran-ordered: one transpose per search, not per block.
    """
    rows = q.shape[0]
    dists = np.empty((rows, k), dtype=np.float64)
    idx = np.empty((rows, k), dtype=np.int64)
    columns = np.asfortranarray(t)
    step = _block_rows(8 * t.shape[0])
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        block = distance_matrix(q[start:stop], columns, spec)
        if self_query:
            block[np.arange(stop - start), np.arange(start, stop)] = np.inf
        dists[start:stop], idx[start:stop] = _smallest_k(block, k)
    return dists, idx


def knn_batch(
    train: np.ndarray, queries: np.ndarray, k: int, spec: DistanceSpec
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest training rows per query: (q, k) distances and indices.

    Distances ascend along each row; equidistant neighbours keep ascending
    training index order (stable sort).
    """
    t = _as_matrix(train)
    q = np.ascontiguousarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError("queries must be a 2-d matrix")
    n = t.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return _knn(t, q, k, spec, self_query=False)


def self_knn_batch(
    train: np.ndarray, k: int, spec: DistanceSpec
) -> tuple[np.ndarray, np.ndarray]:
    """For every training row, its k nearest other rows (self excluded)."""
    t = _as_matrix(train)
    n = t.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}] for self-queries, got {k}")
    return _knn(t, t, k, spec, self_query=True)
