"""Exact brute-force k-nearest-neighbour queries under any DistanceSpec.

Brute force is deliberate: ramp and signed distances break the symmetry and
triangle-inequality assumptions of spatial indexes, and the target dataset
sizes keep O(n*m) per query tractable. Ties are broken by ascending training
row index so results are deterministic.

One blocked loop, ``_knn``, serves both query kinds. Queries run in blocks
whose distance matrix stays within ``_BLOCK_BYTES``. A self-query is the same
loop with training rows as the queries, every row of the training matrix or
only the ones asked for (``self_knn_batch(..., rows=...)``), and each query's
own column masked to +inf, so a row's own distance sorts after every finite
one. A row's cells and selection depend on that row alone, all but the signs
of NaN cells, which every result writes one way (below), so a subset
self-query returns, bit for bit, the rows of the full one. A self-query
returns distances only: ALP's localised proximity reads nothing else, and a
row with fewer than k other rows at a finite distance would list itself
among its +inf ties.

Each block's k nearest distances are selected one way, without a full sort:
every row is partitioned at k - 1 and its first k columns are sorted. A
search that reads only distances (a self-query, or ``knn_batch`` with
``indices=False``, as NND's searches run) selects on the block itself. A
``knn_batch`` caller that reads the neighbours' row indices (``indices=True``,
the default) selects on a copy in the kernel's scratch buffer, and
``_columns`` recovers their columns from the untouched block: the entries at
most the k-th value, with one repair for rows where it is tied or NaN, stably
sorted. Both match the stable ``argsort`` by (distance, training row index),
the distances bit for bit:

* a row's k smallest values form one multiset, which the selection and the
  stable argsort both order ascending with NaN last;
* a kernel cell is never -0.0, so equal cells are equal bits: the first
  attribute's term is ``|x|``, never -0.0, or a term plus +0.0, and every
  later sum adds to a cell that is not -0.0, where round-to-nearest gives
  -0.0 only for (-0.0) + (-0.0);
* every NaN in a result is written as the one default NaN of inf + (-inf),
  whatever bits the kernel or the sort left: NumPy's SIMD quicksort writes
  back a NaN of its own (on x86, +NaN for the kernel's -NaN), and with
  infinite inputs the kernel's NaN + NaN keeps either operand's sign, which
  can differ between a row computed in a block of many rows and in a block
  of one. For finite inputs the default NaN is the only NaN cell, so the
  result still equals the stable argsort's bit for bit.
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

# The default NaN of inf + (-inf) on this platform (-NaN on x86): every NaN in
# a search's result is written with these bits.
with np.errstate(invalid="ignore"):
    _NAN = np.add(np.array([np.inf]), -np.inf)[0]


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
    t: np.ndarray, q: np.ndarray, k: int, spec: DistanceSpec,
    rows: np.ndarray | None, indices: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Each row of ``q``'s k nearest rows of ``t``, one block at a time.

    ``rows``, for a self-query, gives the index in ``t`` of each row of ``q``;
    that column of its block row is masked to +inf. None means a plain query.
    ``indices`` false returns None for the indices; a self-query reads
    distances only, so ``rows`` comes with ``indices`` false. The kernel gets
    ``t`` Fortran-ordered: one transpose per search, not per block. Every
    block reuses one work array: its result in the first half, the kernel's
    scratch in the second, where index readers then select on a copy of the
    block.
    """
    count, n = q.shape[0], t.shape[0]
    dists = np.empty((count, k), dtype=np.float64)
    idx = np.empty((count, k), dtype=np.int64) if indices else None
    columns = np.asfortranarray(t)
    step = _block_rows(8 * n)
    work = np.empty((2, min(count, step) * n))
    for start in range(0, count, step):
        stop = min(start + step, count)
        out, scratch = (half[: (stop - start) * n].reshape(-1, n) for half in work)
        block = distance_matrix(q[start:stop], columns, spec, out=out, scratch=scratch)
        if rows is not None:
            block[np.arange(stop - start), rows[start:stop]] = np.inf
        chosen = block
        if indices:  # select on a copy: ``_columns`` reads the block itself
            chosen = scratch
            np.copyto(chosen, block)
        chosen.partition(k - 1, axis=1)
        nearest = dists[start:stop]
        nearest[...] = chosen[:, :k]
        nearest.sort(axis=1)
        if np.isnan(nearest[:, -1]).any():  # NaN sorts last: only such rows have one
            np.copyto(nearest, _NAN, where=np.isnan(nearest))
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
    return _knn(t, q, k, spec, None, indices)


def self_knn_batch(
    train: np.ndarray, k: int, spec: DistanceSpec, *, rows=None,
) -> np.ndarray:
    """(n, k) ascending distances from every training row, or (len(rows), k)
    from each of ``rows`` (indices into ``train``, in any order, repeats
    allowed), to its k nearest rows, its own distance taken as +inf. Each
    row's result is, bit for bit, its row of the full self-query."""
    t = _as_matrix(train)
    n = t.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}] for self-queries, got {k}")
    r = np.arange(n) if rows is None else np.asarray(rows)
    if r.ndim != 1 or (r.size and r.dtype.kind not in "iu"):
        raise ValueError("rows must be a 1-d array of training row indices")
    if r.size and not (r.min() >= 0 and r.max() < n):
        raise ValueError(f"rows must be in [0, {n - 1}]")
    r = r.astype(np.intp, copy=False)
    return _knn(t, t[r], k, spec, r, False)[0]
