"""Per-attribute distance variants and their record-level aggregation.

Three per-attribute treatments of a difference ``y_j - x_j``:

* absolute: ``|y_j - x_j|`` -- the symmetric city-block baseline,
* ramp: ``max(0, y_j - x_j)`` -- low test values count as absence of evidence,
* signed: ``y_j - x_j`` -- low test values offset high values elsewhere.

Record distances sum these per attribute: a Boscovich-style city-block form,
the Minkowski distance at p = 1. No other exponent is offered, since signed
distance exists only at p = 1.

``distance_matrix`` is the batch kernel, bit-identical to the scalar
reference ``record_distance``: every cell accumulates attribute by attribute
in index order from a ``+0.0`` start. Each call allocates a scratch buffer,
then a result of the same shape: freed on return, the scratch lies below the
result, so the next call reuses it (allocated after the result, it sat at the
top of glibc's heap, which was trimmed and regrown every block: 44,000 minor
page faults per benchmark cv cycle against 11,100). Per attribute, ``out=``
ufuncs write the column difference into the scratch buffer and add it into
the result; training columns are read from a contiguous transposed copy of
``train``, which is free for a Fortran-ordered ``train``.

The loop runs with NumPy's ufunc buffer set to 512 elements. At the default
8,192, a broadcast ufunc whose rows are shorter than the buffer copies its
operands through it. On NumPy 2.4.6 (2-vCPU Xeon), the column subtract of a
65 x 1000 block, the block shape of a 1,000-row training set, took 71-95 us
at the default and 16-27 us at 512; blocks whose rows hold 5,000 or more
elements were within noise either way. Only elementwise ufuncs may run under
the setting: a float reduction's summation order could depend on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import AttributeSpec, Direction


class DistanceVariant(enum.Enum):
    ABSOLUTE = "absolute"
    RAMP = "ramp"
    SIGNED = "signed"


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
    t = np.asarray(train, dtype=np.float64)
    if q.ndim != 2 or t.ndim != 2:
        raise ValueError("distance_matrix expects 2-d matrices")
    if q.shape[1] != t.shape[1] or q.shape[1] != spec.m:
        raise ValueError(
            f"dimension mismatch: queries have {q.shape[1]} columns, train has "
            f"{t.shape[1]}, spec has {spec.m}"
        )
    columns = np.ascontiguousarray(t.T)
    buf = np.empty((q.shape[0], columns.shape[1]), dtype=np.float64)
    out = np.zeros_like(buf)
    # Saved and restored by hand, as NumPy 1.x has no context manager for it;
    # on NumPy 2 the size is a context variable, so other threads keep theirs.
    old = np.setbufsize(512)
    try:
        # Huge finite inputs overflow to inf, as in ``record_distance``, silently.
        with np.errstate(over="ignore"):
            for j, variant in enumerate(spec.variants):
                np.subtract(q[:, j, None], columns[j], out=buf)
                if variant is DistanceVariant.ABSOLUTE:
                    np.abs(buf, out=buf)
                elif variant is DistanceVariant.RAMP:
                    np.maximum(buf, 0.0, out=buf)
                np.add(out, buf, out=out)
    finally:
        np.setbufsize(old)
    return out
