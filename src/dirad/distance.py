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
in index order from a ``+0.0`` start. Each attribute takes at most three
``out=`` ufunc passes over the block: the column difference, its transform
(``abs``, or for ramp ``fmax`` against a row of ``+0.0`` broadcast along the
rows), and the add into the result. The first attribute's term is built in
the result itself, with no zero fill and no add into zeros: an absolute term
is already ``0.0 + |x|`` bit for bit, as ``|x|`` is never -0.0, and a ramp or
signed term gets the ``+0.0`` start as one in-place add of the scalar
``0.0``, which turns a -0.0 into +0.0. So no cell is ever -0.0, and every
later add keeps it so. Against a scalar ``0.0``, NumPy 2.4.6 ran ``fmax``
through a loop without SIMD: 24-31 us on a 54 x 1200 block, against 16 us for
the zero row and 11-16 us for ``abs`` (2-vCPU Xeon).

Training columns are read from a contiguous transposed copy of ``train``,
which is free for a Fortran-ordered ``train``. A caller that runs the kernel
block after block passes both buffers (``out`` and ``scratch``) and reuses
them for every block: allocated and freed per block, they sat at the top of
glibc's heap, which was trimmed and faulted back in every block (on a
2-vCPU Xeon, over 200,000 minor page faults per benchmark sweep cycle,
against under 20). Without them the kernel allocates its own.

The loop runs with NumPy's ufunc buffer set to 512 elements. At the default
8,192, a broadcast ufunc whose rows are shorter than the buffer copies its
operands through it. On NumPy 2.4.6 (2-vCPU Xeon, best of 7 x 20 calls), a
whole kernel call took 487-728 us at 512 against 1,084-1,289 us at the
default, on a 54 x 1200 block (the ramp spec of a 10-attribute training set
with 2 adirectional attributes) and a 65 x 1000 one (all absolute, the block
shape of a 1,000-row training set); 1 x 50,000 and 13 x 5,000 blocks were at
parity. Only elementwise ufuncs may run under the setting: a float
reduction's summation order could depend on it.
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
    queries: np.ndarray,
    train: np.ndarray,
    spec: DistanceSpec,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """(q, n) matrix with entry (i, j) = record_distance(queries[i], train[j]).

    Output is bit-identical to the scalar operation. ``out`` and ``scratch``,
    if given, are distinct float64 (q, n) buffers: the result is written into
    ``out``, which is returned, and ``scratch`` is overwritten.
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
    shape = (q.shape[0], columns.shape[1])
    buf = np.empty(shape) if scratch is None else scratch
    out = np.empty(shape) if out is None else out
    for given in (out, buf):
        if given.shape != shape or given.dtype != np.float64:
            raise ValueError(f"out and scratch must be float64 arrays of shape {shape}")
    zero = np.zeros(shape[1])  # ramp's clamp: see the module docstring
    # Saved and restored by hand, as NumPy 1.x has no context manager for it;
    # on NumPy 2 the size is a context variable, so other threads keep theirs.
    old = np.setbufsize(512)
    try:
        # Huge finite inputs overflow to inf, and a signed inf + -inf is NaN,
        # as in ``record_distance``, silently. inf - inf is NaN too, which
        # ramp clamps to 0.0 as the scalar ``diff if diff > 0.0 else 0.0``
        # does: ``fmax`` returns the non-NaN operand, where ``maximum`` would
        # propagate the NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            for j, variant in enumerate(spec.variants):
                # The first attribute's term is built in ``out`` itself.
                term = buf if j else out
                np.subtract(q[:, j, None], columns[j], out=term)
                if variant is DistanceVariant.ABSOLUTE:
                    np.abs(term, out=term)
                elif variant is DistanceVariant.RAMP:
                    np.fmax(term, zero, out=term)
                if j:
                    np.add(out, buf, out=out)
                elif variant is not DistanceVariant.ABSOLUTE:
                    # The +0.0 start: a -0.0 term becomes +0.0. |x| never
                    # is -0.0, so 0.0 + |x| is |x| bit for bit.
                    np.add(out, 0.0, out=out)
    finally:
        np.setbufsize(old)
    return out
