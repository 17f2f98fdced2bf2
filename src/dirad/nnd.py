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

from dataclasses import dataclass

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
    Accepts scalars or arrays.
    """
    raw = np.asarray(raw, dtype=np.float64)
    out = 0.5 * (raw / (np.abs(raw) + 1.0)) + 0.5
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class NndConfig:
    variant: DistanceVariant
    k: int = 8
    exponent_p: float = 1.0

    detector = "nnd"

    def fit(self, train: Dataset) -> NndModel:
        return fit(train, self)


@dataclass(frozen=True)
class NndModel:
    """Fitted detector state; immutable, scoring is read-only.

    ``spec`` is the distance used for neighbour queries: the full-width spec
    for absolute/ramp, the absolute spec over the adirectional columns for
    signed (None when every attribute is directional). ``sorted_sums`` holds
    the descending directional attribute sums of the training rows and exists
    only for the signed variant.
    """

    variant: DistanceVariant
    train: np.ndarray
    weights: np.ndarray
    directional_mask: np.ndarray
    spec: DistanceSpec | None
    sorted_sums: np.ndarray | None = None

    detector = "nnd"

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    def anomaly_scores(self, queries: np.ndarray) -> np.ndarray:
        return anomaly_scores(self, queries)

    def to_arrays(self) -> dict:
        """The model bundle arrays; ``from_arrays`` reads them back."""
        arrays = {
            "variant": np.str_(self.variant.value),
            "train": self.train,
            "weights": self.weights,
            "directional_mask": self.directional_mask,
        }
        if self.spec is not None:
            arrays.update(self.spec.to_arrays())
        if self.sorted_sums is not None:
            arrays["sorted_sums"] = self.sorted_sums
        return arrays

    @classmethod
    def from_arrays(cls, arrays) -> NndModel:
        """Inverse of ``to_arrays``; rejects arrays ``fit`` cannot produce."""
        variant = DistanceVariant(str(stored_array(arrays, "variant", str, 0)))
        train = stored_array(arrays, "train", np.float64, 2)
        n, m = train.shape
        weights = stored_array(arrays, "weights", np.float64, 1)
        k = weights.shape[0]
        if not 1 <= k <= n:
            raise ValueError(f"k={k} must be in [1, {n}]")
        if weights.tobytes() != linear_weights(k).tobytes():
            raise ValueError(f"weights differ from linear_weights({k})")
        mask = stored_array(arrays, "directional_mask", np.bool_, 1)
        if mask.shape != (m,):
            raise ValueError(f"directional_mask must have {m} entries")
        spec = DistanceSpec.from_arrays(arrays) if "spec_codes" in arrays else None
        p = 1.0 if spec is None else spec.exponent_p
        if spec != _neighbour_spec(variant, mask, p):
            raise ValueError("spec does not match the variant and directional_mask")
        sorted_sums = None
        if variant is DistanceVariant.SIGNED:
            sorted_sums = stored_array(arrays, "sorted_sums", np.float64, 1)
            if sorted_sums.tobytes() != _sorted_sums(train, mask).tobytes():
                raise ValueError("sorted_sums differ from the training rows' sums")
        return cls(variant, train, weights, mask, spec, sorted_sums)


def _require_oriented(ds: Dataset) -> None:
    if any(a.direction is Direction.LOW for a in ds.schema):
        raise ValueError(
            "dataset contains direction=low attributes; apply orient() first"
        )


def _neighbour_spec(
    variant: DistanceVariant, mask: np.ndarray, exponent_p: float
) -> DistanceSpec | None:
    """The spec of the neighbour queries (see NndModel)."""
    if variant is DistanceVariant.SIGNED:
        n_adir = int((~mask).sum())
        if not n_adir:
            return None
        return DistanceSpec.uniform(DistanceVariant.ABSOLUTE, n_adir)
    return DistanceSpec(
        tuple(variant if d else DistanceVariant.ABSOLUTE for d in mask), exponent_p
    )


def _sorted_sums(records: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.sort(records[:, mask].sum(axis=1))[::-1].copy()


def fit(train: Dataset, cfg: NndConfig) -> NndModel:
    """Fit on an (already scaled) training dataset of normal records."""
    _require_oriented(train)
    n = train.n_records
    if n == 0:
        raise ValueError("training set is empty")
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds the training size n={n}")
    if cfg.variant is DistanceVariant.SIGNED and cfg.exponent_p != 1.0:
        raise ValueError("signed distance is only defined at exponent_p=1")
    weights = linear_weights(cfg.k)
    mask = train.directional_mask
    records = np.ascontiguousarray(train.records, dtype=np.float64)
    spec = _neighbour_spec(cfg.variant, mask, cfg.exponent_p)
    sums = None
    if cfg.variant is DistanceVariant.SIGNED:
        sums = _sorted_sums(records, mask)
    return NndModel(cfg.variant, records, weights, mask, spec, sums)


def _as_queries(queries, m: int) -> np.ndarray:
    """Queries as a contiguous float64 (q, m) matrix, or a ValueError."""
    q = np.ascontiguousarray(queries, dtype=np.float64)
    if q.ndim != 2:
        raise ValueError("queries must be a 2-d matrix")
    if q.shape[1] != m:
        raise ValueError(f"queries have {q.shape[1]} attributes, the model expects {m}")
    return q


def signed_risks(model: NndModel, queries: np.ndarray) -> np.ndarray:
    """Directional risk S_y - sum_i w_i S_(i) per query row (signed only)."""
    if model.variant is not DistanceVariant.SIGNED:
        raise ValueError("signed risk is only defined for the signed variant")
    q = _as_queries(queries, model.train.shape[1])
    sums = q[:, model.directional_mask].sum(axis=1)
    top = float(np.dot(model.weights, model.sorted_sums[: model.k]))
    return sums - top


def raw_scores(model: NndModel, queries: np.ndarray) -> np.ndarray:
    """Raw detector scores for a (q, m) query matrix (may be negative)."""
    q = _as_queries(queries, model.train.shape[1])
    if model.variant is not DistanceVariant.SIGNED:
        dists, _ = knn_batch(model.train, q, model.k, model.spec)
        return dists @ model.weights

    # Without directional attributes the risk is +0.0, which leaves the
    # (non-negative) adirectional part unchanged bit for bit.
    risk = signed_risks(model, q)
    if model.spec is None:
        return risk
    adir = ~model.directional_mask
    dists, _ = knn_batch(model.train[:, adir], q[:, adir], model.k, model.spec)
    return risk + dists @ model.weights


def anomaly_scores(model: NndModel, queries: np.ndarray) -> np.ndarray:
    """Contracted scores in (0, 1), one per query row."""
    return contract(raw_scores(model, queries))
