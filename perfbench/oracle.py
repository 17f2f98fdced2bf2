"""Independent recomputation of sampled NND scores from a `score` run.

The recomputation follows the documented pipeline with the repository's
reference operations only: rows are read with the csv module, ``low``
attributes are negated, each attribute is scaled by the type-7 midhinge and
semi-IQR of the training rows, distances come one pair at a time from
``dirad.distance.record_distance``, and neighbours from a full
``argsort(kind="stable")``. A sampled score must match the file bit for bit.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from dirad.dataset import AttributeSpec, Direction
from dirad.distance import DistanceSpec, DistanceVariant, record_distance

SAMPLE_ROWS = 10


def _read_matrix(path: Path, names: list[str]) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return np.array([[float(r[name]) for name in names] for r in rows])


def _read_schema(path: Path) -> list[tuple[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [tuple(line.split(",")) for line in lines if line and not line.startswith("label,")]


def _scaled(train: np.ndarray, queries: np.ndarray, directions: list[str]):
    flip = np.array([-1.0 if d == "low" else 1.0 for d in directions])
    train, queries = train * flip, queries * flip
    q1, q3 = np.quantile(train, [0.25, 0.75], axis=0)
    mid, semi = (q1 + q3) / 2.0, (q3 - q1) / 2.0
    if not np.all(semi > 0):
        raise ValueError("oracle inputs need a positive IQR in every attribute")
    return (train - mid) / semi, (queries - mid) / semi


def sample_rows(seed: int, n_queries: int) -> list[int]:
    """The fixed, seed-derived query rows (0-based) the oracle recomputes."""
    rng = np.random.default_rng((seed, 99))
    return sorted(rng.choice(n_queries, SAMPLE_ROWS, replace=False).tolist())


def expected_scores(train, queries, spec: DistanceSpec, k: int, rows) -> dict:
    """Oracle NND score of each sampled query row.

    The weighted sum is taken as ``(q, k) @ weights`` over a matrix shaped
    like the program's, holding the oracle neighbour distances in the sampled
    rows: a BLAS matrix-vector product may round a row differently by
    position or shape, so the oracle reproduces both.
    """
    nearest = np.zeros((queries.shape[0], k))
    for r in rows:
        d = np.array([record_distance(queries[r], row, spec) for row in train])
        nearest[r] = d[np.argsort(d, kind="stable")[:k]]
    i = np.arange(1, k + 1, dtype=np.float64)
    weights = 2.0 * (k + 1.0 - i) / (k * (k + 1.0))
    raw = nearest @ weights
    return {r: 0.5 * (raw[r] / (abs(raw[r]) + 1.0)) + 0.5 for r in rows}


def mismatches(work: Path, variant: str, k: int, rows: list[int]) -> list[str]:
    """Problems found in ``scores_<variant>.csv``; empty when it matches."""
    schema = _read_schema(work / "schema.txt")
    names = [name for name, _ in schema]
    directions = [d for _, d in schema]
    train, queries = _scaled(
        _read_matrix(work / "train.csv", names),
        _read_matrix(work / "queries.csv", names),
        directions,
    )
    spec = DistanceSpec.for_schema(
        [AttributeSpec(n, Direction(d)) for n, d in schema], DistanceVariant(variant)
    )
    lines = (work / f"scores_{variant}.csv").read_text(encoding="utf-8").splitlines()
    if lines[:1] != ["row,score"] or len(lines) != queries.shape[0] + 1:
        return [f"scores_{variant}.csv: wrong header or row count"]
    problems = []
    for r, want in expected_scores(train, queries, spec, k, rows).items():
        row_id, _, text = lines[r + 1].partition(",")
        if row_id != str(r + 1) or text != repr(float(want)):
            problems.append(
                f"scores_{variant}.csv row {r + 1}: got {lines[r + 1]!r}, "
                f"oracle {float(want)!r}"
            )
    return problems
