"""Deterministic synthetic benchmark datasets (Gaussian and Bernoulli).

Normal records draw every attribute from N(0, 1) or Bernoulli(0.5 - 0.5*b);
anomalous records from N(shift, 1) or Bernoulli(0.5 + 0.5*b). All attributes
are directional (high), matching the construction where anomalies are larger
in every attribute.

Reproducibility contract: generation uses numpy's default_rng (PCG64) with
standard_normal for Gaussians and a uniform-threshold draw for Bernoullis, in
the fixed order train, test-normal, test-anomalous. The same spec is
bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import AttributeSpec, Dataset, Direction

FAMILIES = ("gaussian", "bernoulli")

# Inclusive shift bounds per family.
_SHIFT_RANGE = {"gaussian": (0.0, 1.0), "bernoulli": (0.0, 0.5)}


@dataclass(frozen=True)
class SynthSpec:
    family: str
    shift: float
    n_train: int = 1000
    n_test_normal: int = 100
    n_test_anomalous: int = 100
    m: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        lo, hi = _SHIFT_RANGE[self.family]
        if not lo <= self.shift <= hi:
            raise ValueError(
                f"shift for {self.family} must lie in [{lo}, {hi}], got {self.shift}"
            )
        for field in ("n_train", "n_test_normal", "n_test_anomalous", "m"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive")


def _schema(m: int) -> tuple[AttributeSpec, ...]:
    return tuple(AttributeSpec(f"x{j + 1}", Direction.HIGH) for j in range(m))


def generate(spec: SynthSpec) -> tuple[Dataset, Dataset]:
    """Build (train, labelled test) datasets; a pure function of the spec."""
    rng = np.random.default_rng(spec.seed)
    if spec.family == "gaussian":
        train = rng.standard_normal((spec.n_train, spec.m))
        test_normal = rng.standard_normal((spec.n_test_normal, spec.m))
        test_anom = rng.standard_normal((spec.n_test_anomalous, spec.m)) + spec.shift
    else:
        p_normal = 0.5 - 0.5 * spec.shift
        p_anom = 0.5 + 0.5 * spec.shift
        train = (rng.random((spec.n_train, spec.m)) < p_normal).astype(np.float64)
        test_normal = (rng.random((spec.n_test_normal, spec.m)) < p_normal).astype(
            np.float64
        )
        test_anom = (rng.random((spec.n_test_anomalous, spec.m)) < p_anom).astype(
            np.float64
        )
    schema = _schema(spec.m)
    labels = np.concatenate(
        [
            np.zeros(spec.n_test_normal, dtype=bool),
            np.ones(spec.n_test_anomalous, dtype=bool),
        ]
    )
    test = Dataset(schema, np.vstack([test_normal, test_anom]), labels)
    return Dataset(schema, train), test


def replicate_seed(base_seed: int, family: str, shift: float, replicate: int) -> int:
    """Stable per-replicate seed; independent of Python's hash randomisation."""
    import hashlib  # loads OpenSSL, which only a sweep's grid needs

    key = f"{base_seed}|{family}|{float(shift)!r}|{replicate}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def grid(
    family: str,
    shifts: Sequence[float],
    replicates: int,
    base_seed: int = 0,
    **spec_fields,
) -> list[SynthSpec]:
    """One spec per (shift, replicate), in deterministic enumeration order."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    specs = []
    for shift in shifts:
        for r in range(replicates):
            specs.append(
                SynthSpec(
                    family=family,
                    shift=float(shift),
                    seed=replicate_seed(base_seed, family, shift, r),
                    **spec_fields,
                )
            )
    return specs


def default_shifts(family: str) -> list[float]:
    """The benchmark's shift grids: 0..1 by 0.1, or 0..0.5 by 0.05."""
    if family == "gaussian":
        return [round(0.1 * i, 2) for i in range(11)]
    if family == "bernoulli":
        return [round(0.05 * i, 2) for i in range(11)]
    raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
