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
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, stored_array
from .distance import DistanceSpec, DistanceVariant
from .neighbours import knn_batch, self_knn_batch
from .nnd import _require_oriented, _as_queries, linear_weights


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


def wmax(values, weights: np.ndarray) -> float:
    """Weighted maximum: sum_i w_i * X^(i) with X^(i) the i-th largest value."""
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if v.ndim != 1 or v.shape != w.shape:
        raise ValueError(
            f"values and weights must be equal-length vectors, got "
            f"{v.shape} and {w.shape}"
        )
    return float(np.dot(w, np.sort(v)[::-1]))


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
    training record t to its k nearest other training records."""

    train: np.ndarray
    k: int
    l: int
    weights_k: np.ndarray
    weights_l: np.ndarray
    spec: DistanceSpec
    train_nn_dists: np.ndarray

    detector = "alp"

    def anomaly_scores(self, queries: np.ndarray) -> np.ndarray:
        return anomaly_scores(self, queries)

    def to_arrays(self) -> dict:
        """The model bundle arrays; ``from_arrays`` reads them back."""
        return {
            "train": self.train,
            "k": np.int64(self.k),
            "l": np.int64(self.l),
            "weights_k": self.weights_k,
            "weights_l": self.weights_l,
            "train_nn_dists": self.train_nn_dists,
            **self.spec.to_arrays(),
        }

    @classmethod
    def from_arrays(cls, arrays) -> AlpModel:
        """Inverse of ``to_arrays``; rejects arrays ``fit`` cannot produce."""
        train = stored_array(arrays, "train", np.float64, 2)
        n, m = train.shape
        k = int(stored_array(arrays, "k", np.int64, 0))
        l = int(stored_array(arrays, "l", np.int64, 0))
        if not (1 <= k <= n - 1 and 1 <= l <= n):
            raise ValueError(f"k={k} and l={l} must be in [1, {n - 1}] and [1, {n}]")
        weights_k = stored_array(arrays, "weights_k", np.float64, 1)
        weights_l = stored_array(arrays, "weights_l", np.float64, 1)
        if weights_k.tobytes() != linear_weights(k).tobytes():
            raise ValueError(f"weights_k differ from linear_weights({k})")
        if weights_l.tobytes() != linear_weights(l).tobytes():
            raise ValueError(f"weights_l differ from linear_weights({l})")
        spec = DistanceSpec.from_arrays(arrays)
        signed = DistanceVariant.SIGNED in spec.variants
        if spec.m != m or spec.exponent_p != 1.0 or signed:
            raise ValueError(f"spec must be absolute/ramp at p=1 over {m} attributes")
        nn_dists = stored_array(arrays, "train_nn_dists", np.float64, 2)
        if nn_dists.shape != (n, k):
            raise ValueError(f"train_nn_dists must have shape ({n}, {k})")
        return cls(train, k, l, weights_k, weights_l, spec, nn_dists)


def fit(train: Dataset, cfg: AlpConfig) -> AlpModel:
    """Fit on an (already scaled) training dataset of normal records."""
    _require_oriented(train)
    n = train.n_records
    if n < 2:
        raise ValueError(f"ALP needs at least 2 training records, got {n}")
    if cfg.k is None:
        k = min(default_k(n), n - 1)
    else:
        k = cfg.k
        if not 1 <= k <= n - 1:
            raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if cfg.l is None:
        l = default_l(n)
    else:
        l = cfg.l
        if not 1 <= l <= n:
            raise ValueError(f"l must be in [1, {n}], got {l}")
    spec = DistanceSpec.for_schema(train.schema, cfg.variant)
    records = np.ascontiguousarray(train.records, dtype=np.float64)
    nn_dists, _ = self_knn_batch(records, k, spec)
    return AlpModel(records, k, l, linear_weights(k), linear_weights(l), spec, nn_dists)


def _lp_batch(model: AlpModel, queries: np.ndarray) -> np.ndarray:
    """(q, k) localised proximities; entry (r, i-1) is lp_i of query r."""
    q = _as_queries(queries, model.train.shape[1])
    kq = max(model.k, model.l)
    dists, idx = knn_batch(model.train, q, kq, model.spec)
    d = dists[:, : model.k]
    # D[r, i] = sum_j w'_j * (i-th self-NN distance of the j-th neighbour of r)
    local = model.train_nn_dists[idx[:, : model.l], :]
    big_d = (model.weights_l[None, :, None] * local).sum(axis=1)
    denom = big_d + d
    # 0/0 means the query sits in a zero-spread neighbourhood: maximal normality.
    safe = np.where(denom == 0.0, 1.0, denom)
    return np.where(denom == 0.0, 1.0, big_d / safe)


def normality_scores(model: AlpModel, queries: np.ndarray) -> np.ndarray:
    """Weighted maximum of the localised proximities, one score per row."""
    lp = _lp_batch(model, queries)
    raw = np.sort(lp, axis=1)[:, ::-1] @ model.weights_k
    # The weights sum to 1 only within rounding, so pin the hard [0, 1] range.
    return np.clip(raw, 0.0, 1.0)


def anomaly_scores(model: AlpModel, queries: np.ndarray) -> np.ndarray:
    """Evaluation-facing complement: higher means more anomalous."""
    return 1.0 - normality_scores(model, queries)
