"""Average Localised Proximity detector (absolute and ramp variants).

ALP offsets a query's nearest-neighbour distances against what is typical for
training data in that region. The i-th localised proximity of a query y is

    lp_i(y) = D_i(y) / (D_i(y) + d_i(y)),

where d_i(y) is y's i-th nearest training distance and D_i(y) is the weighted
average of the i-th nearest (self-excluded) training distances of y's l
nearest training rows. The normality score is the weighted maximum of
lp_1..lp_k; the evaluation-facing anomaly score is its complement.

D_i(y) reads the self-kNN distances of y's l nearest training rows only, so
fitting stores the training rows and searches nothing (O(n m)). Scoring runs
one ``self_knn_batch`` per call over the union of the rows its queries
gather, and keeps no cache. A model may carry the full n x k table instead,
as a loaded bundle does; scoring then reads D from it through the same
gather. ``with_table`` returns a model with its full table, which is what a
bundle stores.

Signed distance is deliberately unsupported: it destroys the neighbour
rankings this construction relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import Dataset
from .distance import DistanceSpec, DistanceVariant
from .neighbours import knn_batch, self_knn_batch
from .nnd import (
    _as_queries, _assign, _knn_prefix, _require_oriented, _train_and_mask, linear_weights,
    weighted_sum,
)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def default_k(n: int) -> int:
    """Heuristic neighbour count round(5.5 ln n); clamped to n-1 at fit time."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return max(1, _round_half_up(5.5 * math.log(n)))


def default_l(n: int) -> int:
    """Heuristic localisation size round(6 ln n), clamped into [1, n]."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return min(max(1, _round_half_up(6.0 * math.log(n))), n)


@dataclass(frozen=True)
class AlpConfig:
    """k/l of None means the log-based defaults resolved at fit time."""

    variant: DistanceVariant
    k: int | None = None
    l: int | None = None

    detector = "alp"

    def __post_init__(self) -> None:
        if self.variant is DistanceVariant.SIGNED:
            raise ValueError("signed distance cannot be used with ALP")
        for name in ("k", "l"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def fit(self, train: Dataset) -> AlpModel:
        return fit(train, self)


@dataclass(frozen=True)
class AlpModel:
    """Fitted state: the training rows and, optionally, ``train_nn_dists``,
    whose row t holds the ascending distances of training record t to its k
    nearest other training records.

    The constructor checks the stored fields and derives the weights and
    ``neighbour_problem`` (every column, max(k, l) wide). A fitted model has
    no ``train_nn_dists`` (None): scoring searches the rows it gathers. A
    loaded bundle, or ``with_table``, carries the full table, and scoring
    gathers from it instead. Either way scoring gathers by the indices of
    each query's l nearest rows, so ``reads_indices`` is true.
    """

    variant: DistanceVariant
    train: np.ndarray
    k: int
    l: int
    directional_mask: np.ndarray
    train_nn_dists: np.ndarray | None = None
    weights_k: np.ndarray = field(init=False)
    weights_l: np.ndarray = field(init=False)
    neighbour_problem: tuple = field(init=False)

    detector = "alp"
    reads_indices = True

    def __post_init__(self) -> None:
        if self.variant is DistanceVariant.SIGNED:
            raise ValueError("signed distance cannot be used with ALP")
        train, mask = _train_and_mask(self.train, self.directional_mask)
        n = train.shape[0]
        if not 1 <= self.k <= n - 1:
            raise ValueError(f"k must be in [1, {n - 1}], got {self.k}")
        if not 1 <= self.l <= n:
            raise ValueError(f"l must be in [1, {n}], got {self.l}")
        spec = DistanceSpec.for_mask(mask, self.variant)
        nn_dists = self.train_nn_dists
        if nn_dists is not None:
            # float64, so scoring sums D in double precision
            nn_dists = np.asarray(nn_dists, dtype=np.float64)
            if nn_dists.shape != (n, self.k):
                raise ValueError(f"train_nn_dists must have shape ({n}, {self.k})")
        _assign(
            self, train=train, directional_mask=mask, train_nn_dists=nn_dists,
            weights_k=linear_weights(self.k), weights_l=linear_weights(self.l),
            neighbour_problem=(tuple(range(mask.size)), spec, max(self.k, self.l)),
        )

    def anomaly_scores(self, queries: np.ndarray, knn=None) -> np.ndarray:
        return anomaly_scores(self, queries, knn)

    def query_knn(self, queries: np.ndarray, *, indices: bool = True) -> tuple:
        """The ``knn_batch`` search ``neighbour_problem`` of ``queries``, with
        the indices scoring gathers by unless ``indices`` is false."""
        columns, spec, width = self.neighbour_problem
        q = _as_queries(queries, self.train.shape[1])
        return knn_batch(self.train[:, columns], q[:, columns], width, spec, indices=indices)


def fit(train: Dataset, cfg: AlpConfig) -> AlpModel:
    """Fit on an (already scaled) training dataset of normal records."""
    _require_oriented(train)
    n = train.n_records
    if n < 2:
        raise ValueError(f"ALP needs at least 2 training records, got {n}")
    k = min(default_k(n), n - 1) if cfg.k is None else cfg.k
    l = default_l(n) if cfg.l is None else cfg.l
    return AlpModel(cfg.variant, train.records, k, l, train.directional_mask)


def with_table(model: AlpModel) -> AlpModel:
    """``model`` carrying its full ``train_nn_dists``, found by one self-kNN
    of every training row if it has none: what a saved bundle stores."""
    if model.train_nn_dists is not None:
        return model
    _, spec, _ = model.neighbour_problem
    table = self_knn_batch(model.train, model.k, spec)
    return replace(model, train_nn_dists=table)


def _lp_batch(model: AlpModel, queries: np.ndarray, knn=None) -> np.ndarray:
    """(q, k) localised proximities; entry (r, i-1) is lp_i of query r.

    ``knn``, if given, stands in for ``model.query_knn(queries)``, as in
    ``nnd.raw_scores``.
    """
    q = _as_queries(queries, model.train.shape[1])
    dists, idx = _knn_prefix(model, q, knn)
    k, l = model.k, model.l
    d = dists[:, :k]
    near, n = idx[:, :l], model.train.shape[0]
    if near.size and not (near.min() >= 0 and near.max() < n):
        raise ValueError(f"knn indices must be in [0, {n - 1}]")
    table = model.train_nn_dists
    if table is None:
        # Self-kNN of the gathered rows alone, in row order; a gathered row's
        # place in that table is the count of gathered rows before it.
        gathered = np.zeros(n, dtype=bool)
        gathered[near] = True
        _, spec, _ = model.neighbour_problem
        table = self_knn_batch(model.train, k, spec, rows=np.flatnonzero(gathered))
        near = (np.cumsum(gathered) - 1)[near]
    # D[r, i] = sum_j w'_j * (i-th self-NN distance of the j-th neighbour of r)
    big_d = weighted_sum(model.weights_l, (table[column] for column in near.T))
    with np.errstate(over="ignore", invalid="ignore"):  # settled below
        denom = big_d + d
        lp = big_d / denom
    # 0/0 means the query sits in a zero-spread neighbourhood: maximal
    # normality. D = inf against a finite d takes the limit 1; d = inf against
    # a finite D is already 0; both infinite stay NaN, which scoring rejects.
    lp[(denom == 0.0) | (np.isinf(big_d) & np.isfinite(d))] = 1.0
    # Finite D and d whose sum passes the float range: the same ratio of their
    # halves, which are exact at that size.
    over = np.isinf(denom) & np.isfinite(big_d) & np.isfinite(d)
    if over.any():
        half = big_d[over] / 2
        lp[over] = half / (half + d[over] / 2)
    return lp


def normality_scores(model: AlpModel, queries: np.ndarray, knn=None) -> np.ndarray:
    """Weighted maximum of the localised proximities, one score per row."""
    lp = _lp_batch(model, queries, knn)
    raw = weighted_sum(model.weights_k, np.sort(lp, axis=1)[:, ::-1].T)
    # The weights sum to 1 only within rounding, so pin the hard [0, 1] range.
    return np.clip(raw, 0.0, 1.0)


def anomaly_scores(model: AlpModel, queries: np.ndarray, knn=None) -> np.ndarray:
    """Evaluation-facing complement: higher means more anomalous; ``knn`` as
    in ``_lp_batch``."""
    return 1.0 - normality_scores(model, queries, knn)
