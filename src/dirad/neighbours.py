"""Exact brute-force k-nearest-neighbour queries under any DistanceSpec.

Brute force is deliberate: ramp and signed distances break the symmetry and
triangle-inequality assumptions of spatial indexes, and the target dataset
sizes keep O(n*m) per query tractable. Ties are broken by ascending training
row index so results are deterministic.

One blocked loop, ``_knn``, serves both query kinds. Queries run in blocks
whose distance matrix stays within ``_BLOCK_BYTES``; a self-query is the same
loop with the training rows as queries and each block's own rows masked to
+inf, so a row is never its own neighbour.

Each block's k nearest distances are selected one way, without a full sort:
every row is partitioned at k - 1 and its first k columns are sorted. A
caller that reads only distances (``indices=False``; NND's searches and ALP's
self-kNN) selects on the block itself. A caller that reads the neighbours' row
indices (``indices=True``, the default) selects on a copy in the kernel's
scratch buffer, and ``_columns`` recovers their columns from the untouched
block: the entries at most the k-th value, with one repair for rows where it
is tied or NaN, stably sorted. Both match the stable ``argsort`` by
(distance, training row index), the distances bit for bit:

* a row's k smallest values form one multiset, which the selection and the
  stable argsort both order ascending with NaN last;
* a kernel cell is never -0.0, so equal cells are equal bits: the first
  attribute's term is ``|x|``, never -0.0, or a term plus +0.0, and every
  later sum adds to a cell that is not -0.0, where round-to-nearest gives
  -0.0 only for (-0.0) + (-0.0);
* for finite inputs, the only NaN cell is the one default NaN of
  inf + (-inf). NumPy's SIMD quicksort writes back a NaN of its own (on
  x86, +NaN for the kernel's -NaN), so a row with NaN among its k nearest is
  sorted again, stably, which moves its values without rewriting them.
"""

from __future__ import annotations

import numpy as np

from .distance import DistanceSpec, distance_matrix

# Bytes per block of rows: a kernel call takes max(1, _BLOCK_BYTES // (8 * n)) query
# rows, so memory per block is bounded by bytes whatever n is. Each search allocates
# one block's result and the kernel's scratch buffer once and reuses them for every
# block; together they fit a per-core L2 cache: 512 KiB was the fastest of
# 32 KiB-2 MiB on a Xeon with 2 MiB of L2.
_BLOCK_BYTES = 512 * 1024


def _as_matrix(train) -> np.ndarray:
    t = np.asarray(train, dtype=np.float64)
    if t.ndim != 2:
        raise ValueError("training data must be a 2-d matrix")
    return t


def _block_rows(row_bytes: int) -> int:
    """Query rows per block when each row takes ``row_bytes``: at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _columns(block: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """Columns of ``nearest``, each row's k smallest entries of ``block`` in
    ascending order: ``np.argsort(block, axis=1, kind="stable")[:, :k]``.

    Ties keep ascending column order and NaN sorts last.
    """
    rows, n = block.shape
    k = nearest.shape[1]
    kth = nearest[:, -1:]
    keep = block <= kth
    repair = np.flatnonzero(np.count_nonzero(keep, axis=1) != k)
    if repair.size:
        # Ties at the k-th value, or a NaN as it: keep everything below it, then
        # the lowest-index entries equal to it (or NaN) until the row has k.
        sub, bound = block[repair], kth[repair]
        nan = np.isnan(bound)
        below = np.where(nan, ~np.isnan(sub), sub < bound)
        equal = np.where(nan, np.isnan(sub), sub == bound)
        room = k - np.count_nonzero(below, axis=1)
        keep[repair] = below | (equal & (np.cumsum(equal, axis=1) <= room[:, None]))
    flat = np.flatnonzero(keep).reshape(rows, k)
    order = np.argsort(np.take(block, flat), axis=1, kind="stable")
    return np.take_along_axis(flat - np.arange(0, rows * n, n)[:, None], order, axis=1)


def _knn(
    t: np.ndarray, q: np.ndarray, k: int, spec: DistanceSpec, self_query: bool,
    indices: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Each row of ``q``'s k nearest rows of ``t``, one block at a time.

    ``self_query`` means ``q`` is ``t``: each block's own rows are masked.
    ``indices`` false returns None for the indices. The kernel gets ``t``
    Fortran-ordered: one transpose per search, not per block. Every block
    reuses one work array: its result in the first half, the kernel's scratch
    in the second, where index readers then select on a copy of the block.
    """
    rows, n = q.shape[0], t.shape[0]
    dists = np.empty((rows, k), dtype=np.float64)
    idx = np.empty((rows, k), dtype=np.int64) if indices else None
    columns = np.asfortranarray(t)
    step = _block_rows(8 * n)
    work = np.empty((2, min(rows, step) * n))
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        out, scratch = (half[: (stop - start) * n].reshape(-1, n) for half in work)
        block = distance_matrix(q[start:stop], columns, spec, out=out, scratch=scratch)
        if self_query:
            block[np.arange(stop - start), np.arange(start, stop)] = np.inf
        chosen = block
        if indices:  # select on a copy: ``_columns`` reads the block itself
            chosen = scratch
            np.copyto(chosen, block)
        chosen.partition(k - 1, axis=1)
        nearest = dists[start:stop]
        nearest[...] = chosen[:, :k]
        nearest.sort(axis=1)
        nan = np.flatnonzero(np.isnan(nearest[:, -1]))
        if nan.size:  # the quicksort rewrote their NaN bits
            nearest[nan] = np.sort(chosen[nan, :k], axis=1, kind="stable")
        if indices:
            idx[start:stop] = _columns(block, nearest)
    return dists, idx


def knn_batch(
    train: np.ndarray, queries: np.ndarray, k: int, spec: DistanceSpec,
    *, indices: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """k nearest training rows per query: (q, k) distances and indices, or
    None for the indices when ``indices`` is false.

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
    return _knn(t, q, k, spec, self_query=False, indices=indices)


def self_knn_batch(
    train: np.ndarray, k: int, spec: DistanceSpec, *, indices: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """For every training row, its k nearest other rows (self excluded);
    ``indices`` as in ``knn_batch``."""
    t = _as_matrix(train)
    n = t.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}] for self-queries, got {k}")
    return _knn(t, t, k, spec, self_query=True, indices=indices)
