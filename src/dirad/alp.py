"""Average Localised Proximity detector (absolute and ramp variants).

ALP offsets a query's nearest-neighbour distances against what is typical for
training data in that region. The i-th localised proximity of a query y is

    lp_i(y) = D_i(y) / (D_i(y) + d_i(y)),

where d_i(y) is y's i-th nearest training distance and D_i(y) is the weighted
average of the i-th nearest (self-excluded) training distances of y's l
nearest training rows. The normality score is the weighted maximum of
lp_1..lp_k; the evaluation-facing anomaly score is its complement.

Signed distance is deliberately unsupported: it destroys the neighbour
rankings this construction relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, stored_array
from .distance import DistanceSpec, DistanceVariant
from .neighbours import _block_rows, knn_batch, self_knn_batch
from .nnd import (
    _as_queries, _assign, _knn_prefix, _require_oriented, _train_and_mask, linear_weights,
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

    def fit(self, train: Dataset) -> AlpModel:
        return fit(train, self)


@dataclass(frozen=True)
class AlpModel:
    """Fitted state: row t of train_nn_dists holds the ascending distances of
    training record t to its k nearest other training records.

    The constructor checks the stored fields and derives the weights and
    ``neighbour_problem`` (every column, max(k, l) wide). ``train_nn_dists`` of
    None runs the self-kNN that computes it; it is stored, as that costs O(n^2 m).
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
        if nn_dists is None:
            nn_dists, _ = self_knn_batch(train, self.k, spec)
        elif nn_dists.shape != (n, self.k):
            raise ValueError(f"train_nn_dists must have shape ({n}, {self.k})")
        _assign(
            self, train=train, directional_mask=mask, train_nn_dists=nn_dists,
            weights_k=linear_weights(self.k), weights_l=linear_weights(self.l),
            neighbour_problem=(tuple(range(mask.size)), spec, max(self.k, self.l)),
        )

    def anomaly_scores(self, queries: np.ndarray, knn=None) -> np.ndarray:
        return anomaly_scores(self, queries, knn)

    def query_knn(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return query_knn(self, queries)

    def to_arrays(self) -> dict:
        """The model bundle arrays: the constructor's arguments."""
        return {
            "variant": np.str_(self.variant.value),
            "train": self.train,
            "k": np.int64(self.k),
            "l": np.int64(self.l),
            "directional_mask": self.directional_mask,
            "train_nn_dists": self.train_nn_dists,
        }

    @classmethod
    def from_arrays(cls, arrays) -> AlpModel:
        """Inverse of ``to_arrays``; the constructor validates."""
        return cls(
            DistanceVariant(str(stored_array(arrays, "variant", str, 0))),
            stored_array(arrays, "train", np.float64, 2),
            int(stored_array(arrays, "k", np.int64, 0)),
            int(stored_array(arrays, "l", np.int64, 0)),
            stored_array(arrays, "directional_mask", np.bool_, 1),
            stored_array(arrays, "train_nn_dists", np.float64, 2),
        )


def fit(train: Dataset, cfg: AlpConfig) -> AlpModel:
    """Fit on an (already scaled) training dataset of normal records."""
    _require_oriented(train)
    n = train.n_records
    if n < 2:
        raise ValueError(f"ALP needs at least 2 training records, got {n}")
    k = min(default_k(n), n - 1) if cfg.k is None else cfg.k
    l = default_l(n) if cfg.l is None else cfg.l
    return AlpModel(cfg.variant, train.records, k, l, train.directional_mask)


def query_knn(model: AlpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``knn_batch`` search ``model.neighbour_problem`` of ``queries``."""
    columns, spec, width = model.neighbour_problem
    q = _as_queries(queries, model.train.shape[1])
    return knn_batch(model.train[:, columns], q[:, columns], width, spec)


def _lp_batch(model: AlpModel, queries: np.ndarray, knn=None) -> np.ndarray:
    """(q, k) localised proximities; entry (r, i-1) is lp_i of query r.

    ``knn``, if given, stands in for ``query_knn(model, queries)``, as in
    ``nnd.raw_scores``.
    """
    q = _as_queries(queries, model.train.shape[1])
    dists, idx = _knn_prefix(model, q, knn)
    k, l = model.k, model.l
    d = dists[:, :k]
    # D[r, i] = sum_j w'_j * (i-th self-NN distance of the j-th neighbour of r).
    # The (rows, l, k) gather runs a block of rows at a time, so its memory is
    # bounded by bytes; the sum over axis 1 is per row, so blocks cannot move it.
    big_d = np.empty((q.shape[0], k))
    step = _block_rows(8 * l * k)
    for start in range(0, q.shape[0], step):
        local = model.train_nn_dists[idx[start : start + step, :l], :]
        big_d[start : start + step] = (model.weights_l[None, :, None] * local).sum(axis=1)
    denom = big_d + d
    with np.errstate(invalid="ignore"):  # 0/0 and inf/inf, settled below
        lp = big_d / denom
    # 0/0 means the query sits in a zero-spread neighbourhood: maximal
    # normality. D = inf against a finite d takes the limit 1; d = inf against
    # a finite D is already 0; both infinite stay NaN, which scoring rejects.
    lp[(denom == 0.0) | (np.isinf(big_d) & np.isfinite(d))] = 1.0
    return lp


def normality_scores(model: AlpModel, queries: np.ndarray, knn=None) -> np.ndarray:
    """Weighted maximum of the localised proximities, one score per row."""
    lp = _lp_batch(model, queries, knn)
    raw = np.sort(lp, axis=1)[:, ::-1] @ model.weights_k
    # The weights sum to 1 only within rounding, so pin the hard [0, 1] range.
    return np.clip(raw, 0.0, 1.0)


def anomaly_scores(model: AlpModel, queries: np.ndarray, knn=None) -> np.ndarray:
    """Evaluation-facing complement: higher means more anomalous; ``knn`` as
    in ``_lp_batch``."""
    return 1.0 - normality_scores(model, queries, knn)
