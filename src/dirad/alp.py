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
from .neighbours import knn_batch, self_knn_batch
from .nnd import (
    _as_queries, _assign, _checked_knn, _require_oriented, _train_and_mask, linear_weights,
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

    The constructor checks the stored fields and derives the weights and the
    spec. ``train_nn_dists`` of None runs the self-kNN that computes it; it is
    stored because that costs O(n^2 m).
    """

    variant: DistanceVariant
    train: np.ndarray
    k: int
    l: int
    directional_mask: np.ndarray
    train_nn_dists: np.ndarray | None = None
    weights_k: np.ndarray = field(init=False)
    weights_l: np.ndarray = field(init=False)
    spec: DistanceSpec = field(init=False)

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
            spec=spec,
        )

    def anomaly_scores(self, queries: np.ndarray, knn=None) -> np.ndarray:
        return anomaly_scores(self, queries, knn)

    @property
    def neighbour_problem(self) -> tuple:
        """``(columns, spec, k)`` of the kNN that scoring runs, as for
        ``NndModel``: every column, at max(k, l) neighbours."""
        return tuple(range(self.train.shape[1])), self.spec, max(self.k, self.l)

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
    """The (q, max(k, l)) ``knn_batch`` result that scoring ``queries`` runs on."""
    q = _as_queries(queries, model.train.shape[1])
    return knn_batch(model.train, q, max(model.k, model.l), model.spec)


def _lp_batch(model: AlpModel, queries: np.ndarray, knn=None) -> np.ndarray:
    """(q, k) localised proximities; entry (r, i-1) is lp_i of query r.

    ``knn``, if given, stands in for ``query_knn(model, queries)``.
    """
    q = _as_queries(queries, model.train.shape[1])
    if knn is None:
        knn = query_knn(model, q)
    dists, idx = _checked_knn(knn, q.shape[0], max(model.k, model.l))
    d = dists[:, : model.k]
    # D[r, i] = sum_j w'_j * (i-th self-NN distance of the j-th neighbour of r)
    local = model.train_nn_dists[idx[:, : model.l], :]
    big_d = (model.weights_l[None, :, None] * local).sum(axis=1)
    denom = big_d + d
    # 0/0 means the query sits in a zero-spread neighbourhood: maximal normality.
    safe = np.where(denom == 0.0, 1.0, denom)
    return np.where(denom == 0.0, 1.0, big_d / safe)


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
