"""Weighted nearest-neighbour-distance anomaly detector.

The raw score of a query is the linearly weighted average of its k nearest
training distances. For the signed variant no neighbour queries are needed on
the directional attributes: under signed distance every query shares the same
neighbour ranking (the training rows with the largest directional attribute
sums), so the weighted distance collapses to comparing attribute sums. Any
adirectional attributes contribute a separate weighted NND with absolute
distance, added on top of that risk score.

Raw scores are squashed into (0, 1) by ``contract`` for evaluation; the
squash is strictly increasing, so rankings (and hence AUROC) are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, Direction, stored_array
from .distance import DistanceSpec, DistanceVariant
from .neighbours import knn_batch


def linear_weights(k: int) -> np.ndarray:
    """Linearly descending weights w_i = 2(k+1-i) / (k(k+1)), summing to 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    i = np.arange(1, k + 1, dtype=np.float64)
    return 2.0 * (k + 1.0 - i) / (k * (k + 1.0))


def contract(raw):
    """Squash a raw score into (0, 1): a -> a / (2(|a| + 1)) + 1/2.

    Strictly increasing bijection from the reals onto (0, 1); 0 maps to 0.5.
    +inf and -inf map to the limits 1.0 and 0.0. Accepts scalars or arrays.
    """
    raw = np.asarray(raw, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf / inf, replaced below
        ratio = raw / (np.abs(raw) + 1.0)
    out = 0.5 * np.where(np.isinf(raw), np.sign(raw), ratio) + 0.5
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NndConfig:
    variant: DistanceVariant
    k: int = 8

    detector = "nnd"

    def fit(self, train: Dataset) -> NndModel:
        return fit(train, self)


@dataclass(frozen=True)
class NndModel:
    """Fitted detector state; immutable, scoring is read-only.

    The constructor checks the stored fields and derives the rest.
    ``neighbour_problem`` is the kNN that scoring runs: ``(columns, spec,
    width)``, or None for none. Signed searches the adirectional columns,
    under absolute distance; the others search every column. ``sorted_sums``
    holds the descending directional attribute sums of the training rows and
    exists only for the signed variant.
    """

    variant: DistanceVariant
    train: np.ndarray
    k: int
    directional_mask: np.ndarray
    weights: np.ndarray = field(init=False)
    neighbour_problem: tuple | None = field(init=False)
    sorted_sums: np.ndarray | None = field(init=False)

    detector = "nnd"

    def __post_init__(self) -> None:
        train, mask = _train_and_mask(self.train, self.directional_mask)
        n = train.shape[0]
        if self.k > n:
            raise ValueError(f"k={self.k} exceeds the training size n={n}")
        weights = linear_weights(self.k)  # rejects k < 1
        signed = self.variant is DistanceVariant.SIGNED
        columns = np.flatnonzero(~mask) if signed else np.arange(mask.size)
        problem = None if columns.size == 0 else (
            tuple(columns.tolist()), DistanceSpec.for_mask(mask[columns], self.variant), self.k
        )
        sums = np.sort(train[:, mask].sum(axis=1))[::-1].copy() if signed else None
        _assign(
            self, train=train, directional_mask=mask, weights=weights,
            neighbour_problem=problem, sorted_sums=sums,
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
            "directional_mask": self.directional_mask,
        }

    @classmethod
    def from_arrays(cls, arrays) -> NndModel:
        """Inverse of ``to_arrays``; the constructor validates. Older bundles
        also store ``exponent_p``, which must be 1, the only exponent there is."""
        if "exponent_p" in arrays:
            p = float(stored_array(arrays, "exponent_p", np.float64, 0))
            if p != 1.0:
                raise ValueError(f"only exponent_p=1 is supported, got {p}")
        return cls(
            DistanceVariant(str(stored_array(arrays, "variant", str, 0))),
            stored_array(arrays, "train", np.float64, 2),
            int(stored_array(arrays, "k", np.int64, 0)),
            stored_array(arrays, "directional_mask", np.bool_, 1),
        )


def _require_oriented(ds: Dataset) -> None:
    if any(a.direction is Direction.LOW for a in ds.schema):
        raise ValueError(
            "dataset contains direction=low attributes; apply orient() first"
        )


def _train_and_mask(train, mask) -> tuple[np.ndarray, np.ndarray]:
    """Training rows as a contiguous float64 (n, m) matrix and their (m,)
    boolean directional mask, or a ValueError."""
    train = np.ascontiguousarray(train, dtype=np.float64)
    if train.ndim != 2:
        raise ValueError("train must be a 2-d matrix")
    m = train.shape[1]
    mask = np.asarray(mask, dtype=np.bool_)
    if mask.shape != (m,):
        raise ValueError(f"directional_mask must have {m} entries")
    return train, mask


def _assign(model, **fields) -> None:
    """Set fields of a frozen model from its ``__post_init__``."""
    for name, value in fields.items():
        object.__setattr__(model, name, value)


def fit(train: Dataset, cfg: NndConfig) -> NndModel:
    """Fit on an (already scaled) training dataset of normal records."""
    _require_oriented(train)
    return NndModel(cfg.variant, train.records, cfg.k, train.directional_mask)


def _as_queries(queries, m: int) -> np.ndarray:
    """Queries as a contiguous float64 (q, m) matrix, or a ValueError."""
    q = np.ascontiguousarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError("queries must be a 2-d matrix")
    if q.shape[1] != m:
        raise ValueError(f"queries have {q.shape[1]} attributes, the model expects {m}")
    return q


def _knn_prefix(model, queries: np.ndarray, knn) -> tuple[np.ndarray, np.ndarray]:
    """``model``'s own ``query_knn``, or contiguous copies of the first
    ``width`` columns of ``knn``, a search of its problem at least that wide:
    the total (distance, row index) order makes the two equal."""
    rows, width = len(queries), model.neighbour_problem[2]
    dists, idx = model.query_knn(queries) if knn is None else knn
    if dists.shape[:1] != (rows,) or idx.shape != dists.shape or dists.shape[1:] < (width,):
        raise ValueError(f"knn must hold ({rows}, >= {width}) distances and indices")
    return np.ascontiguousarray(dists[:, :width]), np.ascontiguousarray(idx[:, :width])


def signed_risks(model: NndModel, queries: np.ndarray) -> np.ndarray:
    """Directional risk S_y - sum_i w_i S_(i) per query row (signed only)."""
    if model.variant is not DistanceVariant.SIGNED:
        raise ValueError("signed risk is only defined for the signed variant")
    q = _as_queries(queries, model.train.shape[1])
    with np.errstate(over="ignore"):  # huge finite rows sum to inf
        sums = q[:, model.directional_mask].sum(axis=1)
    top = float(np.dot(model.weights, model.sorted_sums[: model.k]))
    return sums - top


def query_knn(model: NndModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``knn_batch`` search ``model.neighbour_problem`` of ``queries``."""
    columns, spec, width = model.neighbour_problem
    q = _as_queries(queries, model.train.shape[1])
    return knn_batch(model.train[:, columns], q[:, columns], width, spec)


def raw_scores(model: NndModel, queries: np.ndarray, knn=None) -> np.ndarray:
    """Raw detector scores for a (q, m) query matrix (may be negative).

    ``knn``, if given, stands in for ``query_knn(model, queries)``: any
    search of ``neighbour_problem`` at least ``k`` wide (``_knn_prefix``).
    """
    q = _as_queries(queries, model.train.shape[1])
    if model.neighbour_problem is None:
        return signed_risks(model, q)
    dists, _ = _knn_prefix(model, q, knn)
    if model.variant is not DistanceVariant.SIGNED:
        return dists @ model.weights
    # Without directional attributes the risk is +0.0, which leaves the
    # (non-negative) adirectional part unchanged bit for bit. A -inf risk
    # plus an infinite distance is NaN, which scoring rejects.
    with np.errstate(invalid="ignore"):
        return signed_risks(model, q) + dists @ model.weights


def anomaly_scores(model: NndModel, queries: np.ndarray, knn=None) -> np.ndarray:
    """Contracted scores in (0, 1), one per query row; ``knn`` as in
    ``raw_scores``."""
    return contract(raw_scores(model, queries, knn))
