"""Golden outputs: the CLI's scores, benchmark tables and stats reports, byte
for byte.

The files under ``tests/data/golden/`` were written by ``write_outputs``. A
change that is meant to keep every number (a faster kernel, a leaner parse)
must reproduce them exactly; a change that means to move a number rewrites
them and says why.
"""

from pathlib import Path

import pytest

from dirad.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

SCORES = [("nnd", "absolute"), ("nnd", "ramp"), ("nnd", "signed"),
          ("alp", "absolute"), ("alp", "ramp")]
STATS = ["approx", "exact"]
NAMES = [f"score-{d}-{v}.csv" for d, v in SCORES] + [
    "cv-folds.csv", "cv-summary.csv", "sweep.csv"] + [f"stats-{m}.csv" for m in STATS]


def _run(argv):
    assert main([str(a) for a in argv]) == 0


def write_outputs(out: Path) -> None:
    """Write every file named in ``NAMES`` into ``out``."""
    for detector, variant in SCORES:
        _run(["score", "--train", DATA / "train.csv", "--schema", DATA / "schema.txt",
              "--detector", detector, "--variant", variant,
              "--queries", DATA / "queries.csv",
              "--out", out / f"score-{detector}-{variant}.csv"])
    problem = out / "problem"
    _run(["synth", "--family", "gaussian", "--a", "0.6", "--seed", "23",
          "--n-train", "10", "--n-test-normal", "150", "--n-test-anomalous", "40",
          "--m", "5", "--out", problem])
    _run(["bench", "--data", problem / "test.csv", "--schema", problem / "schema.txt",
          "--detectors", "nnd,alp", "--out-dir", out / "cv"])
    (out / "cv" / "folds.csv").rename(out / "cv-folds.csv")
    (out / "cv" / "summary.csv").rename(out / "cv-summary.csv")
    _run(["bench", "--sweep", "gaussian", "--shifts", "0.3,0.9", "--replicates", "2",
          "--detectors", "nnd,alp", "--seed", "31", "--out-dir", out])
    # Twelve datasets with a zero and a tied difference: the approx p-values
    # reach the normal tail both inside and outside its erf branch.
    for method in STATS:
        _run(["stats", "--results", DATA / "stats-summary.csv",
              "--compare", "ramp:absolute", "--compare", "absolute:signed",
              "--method", method, "--holm", "--out", out / f"stats-{method}.csv"])


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    write_outputs(out)
    return out


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden_bytes(outputs, name):
    assert (outputs / name).read_bytes() == (GOLDEN / name).read_bytes()
