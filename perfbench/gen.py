"""Seeded input files for the benchmark workloads.

The program under test sees only these CSV and schema files (the ``sweep``
workload generates its data inside dirad from ``--seed``). The same seed
always gives the same bytes: values come from numpy's PCG64 stream, are
rounded to three decimals and are written with ``repr``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# m = 10: six high, two low and two adirectional attributes, interleaved so
# that column order and direction are not aligned.
DIRECTIONS = ("high", "high", "low", "high", "none",
              "high", "low", "high", "none", "high")
NAMES = tuple(f"a{j + 1:02d}" for j in range(len(DIRECTIONS)))
_SIGN = np.array([{"high": 1.0, "low": -1.0, "none": 0.0}[d] for d in DIRECTIONS])
LABEL_LINE = "label,status,anomalous,normal"

SCORE_TRAIN = 5000
SCORE_QUERIES = 5000
SCORE_DUP_FRAC = 0.05
CV_NORMAL = 1500
CV_ANOMALOUS = 75

_WORKLOAD_TAGS = {"score": 1, "cv": 2}


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng((seed, _WORKLOAD_TAGS[workload]))


def _normal_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    # Unequal per-attribute location and spread, so scaling matters.
    loc = np.linspace(-3.0, 5.0, len(NAMES))
    spread = np.linspace(0.5, 4.0, len(NAMES))
    return loc + spread * rng.standard_normal((n, len(NAMES)))


def _anomalies(rng: np.random.Generator, n: int, shift: float) -> np.ndarray:
    rows = _normal_rows(rng, n)
    spread = np.linspace(0.5, 4.0, len(NAMES))
    return rows + shift * spread * _SIGN


def _csv(rows: np.ndarray, labels=None) -> str:
    header = list(NAMES) + (["status"] if labels is not None else [])
    lines = [",".join(header)]
    for i, row in enumerate(np.round(rows, 3).tolist()):
        cells = [repr(v) for v in row]
        if labels is not None:
            cells.append("anomalous" if labels[i] else "normal")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def schema_text(labelled: bool) -> str:
    lines = [f"{n},{d}" for n, d in zip(NAMES, DIRECTIONS)]
    if labelled:
        lines.append(LABEL_LINE)
    return "\n".join(lines) + "\n"


def score_files(seed: int) -> dict[str, str]:
    """Training rows (5 % exact duplicates) and unlabelled query rows."""
    rng = _rng(seed, "score")
    n_dup = int(SCORE_TRAIN * SCORE_DUP_FRAC)
    unique = _normal_rows(rng, SCORE_TRAIN - n_dup)
    dups = unique[rng.integers(0, unique.shape[0], n_dup)]
    train = np.vstack([unique, dups])[rng.permutation(SCORE_TRAIN)]
    n_anom = SCORE_QUERIES // 20
    queries = np.vstack([
        _normal_rows(rng, SCORE_QUERIES - n_anom),
        _anomalies(rng, n_anom, 2.0),
    ])[rng.permutation(SCORE_QUERIES)]
    return {
        "train.csv": _csv(train),
        "queries.csv": _csv(queries),
        "empty.csv": "",
        "schema.txt": schema_text(labelled=False),
    }


def cv_files(seed: int) -> dict[str, str]:
    """One labelled CSV: normal rows with anomalies shuffled in."""
    rng = _rng(seed, "cv")
    rows = np.vstack([
        _normal_rows(rng, CV_NORMAL),
        _anomalies(rng, CV_ANOMALOUS, 1.0),
    ])
    labels = np.arange(rows.shape[0]) >= CV_NORMAL
    order = rng.permutation(rows.shape[0])
    return {"cv.csv": _csv(rows[order], labels[order]),
            "schema.txt": schema_text(labelled=True)}


FILES = {"score": score_files, "cv": cv_files, "sweep": lambda seed: {}}


def write_inputs(workload: str, seed: int, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in FILES[workload](seed).items():
        (directory / name).write_text(text, encoding="utf-8")
