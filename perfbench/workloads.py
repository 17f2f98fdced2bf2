"""The three benchmark workloads as `dirad` command lines.

Each workload names its set-up calls (timed into ``setup_s``), the calls of
one measured cycle (timed into ``run_s``), the output files every cycle
rewrites, the query rows one cycle scores and the ``DIRAD_THREADS`` value it
runs with. Why ``cv`` and ``sweep`` exist is recorded in BENCHMARK.json.
``score`` (one large NND problem per call, exact distance ties, model
save/load) is left out of BENCHMARK.json while ``dirad score`` leaves the
queries' ``low`` attributes unnegated, which its oracle check rejects.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

K = 8
VARIANTS = ("absolute", "ramp", "signed")
CV_FOLDS = 5
CV_CELLS = 5  # NND x 3 variants + ALP x 2 variants
SWEEP_REPLICATES = 30
SWEEP_SHIFTS = 11  # synthgen.default_shifts("gaussian")
SWEEP_TEST_ROWS = 200  # synthgen.SynthSpec test rows per dataset


@dataclass(frozen=True)
class Workload:
    threads: int
    rows: int
    cells: int
    outputs: tuple[tuple[str, ...], ...]  # files written, per measured call
    setup_calls: Callable[[Path, int], list[list[str]]]
    measured_calls: Callable[[Path, int], list[list[str]]]
    summary_file: str | None = None

    def count_cells(self, work: Path) -> int:
        """Bench cells present in the summary output (0 for `score`)."""
        if self.summary_file is None:
            return 0
        try:
            with open(work / self.summary_file, newline="", encoding="utf-8") as f:
                return sum(1 for _ in csv.DictReader(f))
        except FileNotFoundError:
            return 0


def _score_setup(work: Path, seed: int) -> list[list[str]]:
    return [
        ["score", "--train", str(work / "train.csv"),
         "--schema", str(work / "schema.txt"),
         "--detector", "nnd", "--variant", v, "--k", str(K),
         "--save-model", str(work / f"model_{v}.npz"),
         "--queries", str(work / "empty.csv"), "--out", str(work / "empty_scores.csv")]
        for v in VARIANTS
    ]


def _score_calls(work: Path, seed: int) -> list[list[str]]:
    return [
        ["score", "--model", str(work / f"model_{v}.npz"),
         "--queries", str(work / "queries.csv"),
         "--out", str(work / f"scores_{v}.csv")]
        for v in VARIANTS
    ]


def _cv_calls(work: Path, seed: int) -> list[list[str]]:
    return [[
        "bench", "--data", str(work / "cv.csv"), "--schema", str(work / "schema.txt"),
        "--detectors", "nnd,alp", "--nnd-variants", ",".join(VARIANTS),
        "--alp-variants", "absolute,ramp", "--k", str(K),
        "--folds", str(CV_FOLDS), "--seed", str(seed), "--out-dir", str(work),
    ]]


def _sweep_calls(work: Path, seed: int) -> list[list[str]]:
    return [[
        "bench", "--sweep", "gaussian", "--replicates", str(SWEEP_REPLICATES),
        "--detectors", "nnd", "--nnd-variants", ",".join(VARIANTS),
        "--k", str(K), "--seed", str(seed), "--out-dir", str(work),
    ]]


def _no_setup(work: Path, seed: int) -> list[list[str]]:
    return []


WORKLOADS = {
    "score": Workload(
        threads=1,
        rows=len(VARIANTS) * gen.SCORE_QUERIES,
        cells=0,
        outputs=tuple((f"scores_{v}.csv",) for v in VARIANTS),
        setup_calls=_score_setup,
        measured_calls=_score_calls,
    ),
    "cv": Workload(
        threads=1,
        rows=CV_CELLS * (gen.CV_NORMAL + CV_FOLDS * gen.CV_ANOMALOUS),
        cells=CV_CELLS,
        outputs=(("folds.csv", "summary.csv"),),
        setup_calls=_no_setup,
        measured_calls=_cv_calls,
        summary_file="summary.csv",
    ),
    "sweep": Workload(
        threads=2,
        rows=len(VARIANTS) * SWEEP_SHIFTS * SWEEP_REPLICATES * SWEEP_TEST_ROWS,
        cells=len(VARIANTS) * SWEEP_SHIFTS,
        outputs=(("sweep.csv",),),
        setup_calls=_no_setup,
        measured_calls=_sweep_calls,
        summary_file="sweep.csv",
    ),
}
