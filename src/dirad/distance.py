"""Per-attribute distance variants and their record-level aggregation.

Three per-attribute treatments of a difference ``y_j - x_j``:

* absolute: ``|y_j - x_j|`` -- the symmetric city-block baseline,
* ramp: ``max(0, y_j - x_j)`` -- low test values count as absence of evidence,
* signed: ``y_j - x_j`` -- low test values offset high values elsewhere.

Record distances sum these per attribute: a Boscovich-style city-block form,
the Minkowski distance at p = 1. No other exponent is offered, since signed
distance exists only at p = 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _backend
from .dataset import AttributeSpec, Direction


class DistanceVariant(enum.Enum):
    ABSOLUTE = "absolute"
    RAMP = "ramp"
    SIGNED = "signed"


_CODES = {
    DistanceVariant.ABSOLUTE: 0,
    DistanceVariant.RAMP: 1,
    DistanceVariant.SIGNED: 2,
}


@dataclass(frozen=True)
class DistanceSpec:
    """Per-attribute variant assignment."""

    variants: tuple[DistanceVariant, ...]

    def __post_init__(self) -> None:
        variants = tuple(self.variants)
        if not variants:
            raise ValueError("a distance spec needs at least one attribute")
        object.__setattr__(self, "variants", variants)

    @classmethod
    def uniform(cls, variant: DistanceVariant, m: int) -> "DistanceSpec":
        return cls((variant,) * m)

    @classmethod
    def for_mask(cls, directional, variant: DistanceVariant) -> "DistanceSpec":
        """Assign ``variant`` where ``directional`` is true, absolute elsewhere."""
        return cls(
            tuple(variant if d else DistanceVariant.ABSOLUTE for d in directional)
        )

    @classmethod
    def for_schema(
        cls, schema: Iterable[AttributeSpec], variant: DistanceVariant
    ) -> "DistanceSpec":
        """``for_mask`` over the attributes whose direction is not ``none``."""
        return cls.for_mask(
            [a.direction is not Direction.NONE for a in schema], variant
        )

    @property
    def m(self) -> int:
        return len(self.variants)

    def codes(self) -> np.ndarray:
        """int8 variant codes consumed by the batch kernels."""
        return np.array([_CODES[v] for v in self.variants], dtype=np.int8)


def per_attribute(diff: float, variant: DistanceVariant) -> float:
    """Table of per-attribute distances applied to a difference y_j - x_j."""
    if variant is DistanceVariant.ABSOLUTE:
        return abs(diff)
    if variant is DistanceVariant.RAMP:
        return diff if diff > 0.0 else 0.0
    return diff


def record_distance(
    y: Sequence[float] | np.ndarray, x: Sequence[float] | np.ndarray, spec: DistanceSpec
) -> float:
    """Scalar record-level distance; the reference the batch kernels match.

    The plain per-attribute sum, accumulated in index order from ``+0.0``;
    asymmetric whenever a ramp or signed attribute is present.
    """
    ya = np.asarray(y, dtype=np.float64)
    xa = np.asarray(x, dtype=np.float64)
    if ya.ndim != 1 or xa.ndim != 1:
        raise ValueError("record_distance expects 1-d vectors")
    if ya.shape[0] != xa.shape[0] or ya.shape[0] != spec.m:
        raise ValueError(
            f"dimension mismatch: y has {ya.shape[0]}, x has {xa.shape[0]}, "
            f"spec has {spec.m}"
        )
    acc = 0.0
    for j, variant in enumerate(spec.variants):
        acc += per_attribute(float(ya[j]) - float(xa[j]), variant)
    return acc


def distance_matrix(
    queries: np.ndarray, train: np.ndarray, spec: DistanceSpec
) -> np.ndarray:
    """(q, n) matrix with entry (i, j) = record_distance(queries[i], train[j]).

    Output is bit-identical to the scalar operation.
    """
    q = np.ascontiguousarray(queries, dtype=np.float64)
    t = np.ascontiguousarray(train, dtype=np.float64)
    if q.ndim != 2 or t.ndim != 2:
        raise ValueError("distance_matrix expects 2-d matrices")
    if q.shape[1] != t.shape[1] or q.shape[1] != spec.m:
        raise ValueError(
            f"dimension mismatch: queries have {q.shape[1]} columns, train has "
            f"{t.shape[1]}, spec has {spec.m}"
        )
    return _backend.pairwise(q, t, spec.codes())
