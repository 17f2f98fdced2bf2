"""Scalar oracles: the ground truth the batch paths are compared with.

Each oracle is defined here once. The detector oracles are built from the
scalar ``record_distance``, a full stable argsort and Python-loop sums in
weight order from 0.0, so a score that matches one byte for byte was summed in
the same order as the oracle's loop.
"""

import math

import numpy as np

from dirad.dataset import AttributeSpec, Dataset, Direction
from dirad.distance import DistanceSpec, DistanceVariant, distance_matrix, record_distance


def directional_dataset(records, n_directional=None):
    """A dataset whose first ``n_directional`` attributes (all by default) are
    ``high`` and the rest ``none``."""
    records = np.asarray(records, dtype=np.float64)
    m = records.shape[1]
    n_dir = m if n_directional is None else n_directional
    schema = tuple(
        AttributeSpec(f"x{j}", Direction.HIGH if j < n_dir else Direction.NONE)
        for j in range(m)
    )
    return Dataset(schema, records)


def pairwise_auroc(scores, labels):
    """Brute-force pairwise count: wins plus half-credited ties."""
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels, dtype=bool)
    anom, norm = s[lab], s[~lab]
    wins = np.sum(anom[:, None] > norm[None, :])
    ties = np.sum(anom[:, None] == norm[None, :])
    return (wins + 0.5 * ties) / (anom.size * norm.size)


def oracle_knn(train, queries, k, spec, exclude_self=False):
    """Top-k (distances, indices) by a full stable argsort of every distance
    row; ``exclude_self`` masks row i's own cell to +inf for query row i.

    The distance table comes from the ``distance_matrix`` kernel, not from
    ``record_distance``: the scalar distance costs microseconds a cell, so a
    self-query of a few hundred rows would take a large fraction of a second,
    and tests/test_distance.py proves the kernel equal to ``record_distance``
    bit for bit.
    """
    block = distance_matrix(queries, train, spec)
    if exclude_self:
        block[np.arange(len(train)), np.arange(len(train))] = np.inf
    order = np.argsort(block, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(block, order, axis=1), order


def weights(count):
    """The linear weights w_i = 2(count + 1 - i) / (count(count + 1)) as a list."""
    return [2.0 * (count + 1.0 - i) / (count * (count + 1.0)) for i in range(1, count + 1)]


def weighted(ws, terms):
    """Sum of w_i * t_i, added in weight order from 0.0."""
    total = 0.0
    for w, t in zip(ws, terms):
        total += w * t
    return total


def nearest(y, train, spec, skip=None):
    """Row indices of ``train`` (without row ``skip``) and their
    ``record_distance`` from ``y``, in full stable argsort order."""
    rows = [s for s in range(len(train)) if s != skip]
    dists = [record_distance(y, train[s], spec) for s in rows]
    order = np.argsort(dists, kind="stable")
    return [rows[o] for o in order], [dists[o] for o in order]


def signed_raw_oracle(train, y, k):
    """NND's raw score under signed distance on every attribute, evaluated
    directly from every training row's distance (no shortcut)."""
    spec = DistanceSpec((DistanceVariant.SIGNED,) * len(y))
    return weighted(weights(k), nearest(y, train, spec)[1][:k])


def nnd_oracle(train, mask, variant, k, queries):
    """NND anomaly scores from the scalar distance, the full stable argsort,
    the weighted sums as loops from 0.0 and the ``contract`` formula."""
    w = weights(k)

    def directional_sum(row):
        with np.errstate(over="ignore"):  # the reduction ``signed_risks`` uses
            return float(row[mask].sum())

    signed = variant is DistanceVariant.SIGNED
    columns = np.flatnonzero(~mask) if signed else np.arange(mask.size)
    if columns.size:
        spec = DistanceSpec.for_mask(mask[columns], variant)
    if signed:
        top = weighted(w, sorted((directional_sum(row) for row in train), reverse=True))
    scores = []
    for y in queries:
        raw = directional_sum(y) - top if signed else 0.0
        if columns.size:
            nearest_sum = weighted(w, nearest(y[columns], train[:, columns], spec)[1][:k])
            raw = raw + nearest_sum if signed else nearest_sum
        if math.isinf(raw):
            scores.append(0.5 * math.copysign(1.0, raw) + 0.5)
        else:
            scores.append(0.5 * (raw / (abs(raw) + 1.0)) + 0.5)
    return np.array(scores)


def localised_proximity(big_d, d):
    """lp = D / (D + d), the paper's form, with ``alp._lp_batch``'s limits."""
    if math.isinf(big_d):
        return math.nan if math.isinf(d) else 1.0  # inf / inf is undefined
    denom = big_d + d
    if denom == 0.0:
        return 1.0  # 0/0: a zero-spread neighbourhood
    if math.isinf(denom) and not math.isinf(d):
        # Finite D and d whose sum passes the float range: the ratio of their
        # halves, which are exact at that size.
        half = big_d / 2
        return half / (half + d / 2)
    return big_d / denom  # 0.0 for d = inf


def alp_oracle(train, mask, variant, k, l, queries):
    """ALP from the scalar distance, the full stable argsort and the lp formula
    as loops: (train_nn_dists, each query's max(k, l) nearest rows and their
    distances, anomaly scores). A row's self-NN distances come from a search
    with the row deleted."""
    spec = DistanceSpec.for_mask(mask, variant)
    self_nn = [nearest(row, train, spec, skip=t)[1][:k] for t, row in enumerate(train)]
    w_k, w_l = weights(k), weights(l)
    neighbours, scores = [], []
    for y in queries:
        idx, d = nearest(y, train, spec)
        neighbours.append((idx[: max(k, l)], d[: max(k, l)]))
        lp = [localised_proximity(weighted(w_l, (self_nn[s][i] for s in idx[:l])), d[i])
              for i in range(k)]
        if any(math.isnan(v) for v in lp):
            scores.append(math.nan)
        else:
            normality = weighted(w_k, sorted(lp, reverse=True))
            scores.append(1.0 - min(max(normality, 0.0), 1.0))
    return np.array(self_nn), neighbours, np.array(scores)


def assert_same_scores(got, want):
    """NaN where ``want`` is NaN, whatever its sign bit; every other score
    byte for byte."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
