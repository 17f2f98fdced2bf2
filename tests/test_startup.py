"""Import-cost guard: of the CLI commands only ``dirad stats`` loads SciPy,
and the others leave ``numpy.ma`` unloaded.

SciPy takes about a second to import, more than all of dirad's other imports
together, and only the signed-rank test's normal tail needs it. ``numpy.ma``
(about 0.9 MB resident) came in through ``np.quantile``'s ``np.unique``,
which the scaler calls only for a column holding both -0.0 and +0.0 that
reads a zero quartile. One fresh interpreter imports dirad, runs every other
command on a tiny problem and then ``stats``, recording the ``scipy*``
modules, and whether ``numpy.ma`` is loaded, after each step. NumPy 1.x
imports ``numpy.ma`` with numpy itself, so there only SciPy is checked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirad

SCRIPT = r"""
import json
import sys
from pathlib import Path

work = Path(sys.argv[1])
import numpy

seen = {"numpy.ma": {"import numpy": "numpy.ma" in sys.modules}}


def record(step, code=0):
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    seen[step] = {"code": code, "scipy": loaded}
    seen["numpy.ma"][step] = "numpy.ma" in sys.modules


import dirad
record("import dirad")
import dirad.cli
record("import dirad.cli")


def run(step, *argv):
    record(step, dirad.cli.main([str(a) for a in argv]))


data = work / "data"
run("synth", "synth", "--family", "gaussian", "--a", "0.7", "--seed", "3",
    "--n-train", "40", "--n-test-normal", "20", "--n-test-anomalous", "10",
    "--m", "3", "--out", data)
pair = ["--data", data / "test.csv", "--schema", data / "schema.txt"]
run("bench cv", "bench", *pair, "--detectors", "nnd,alp", "--k", "3",
    "--alp-k", "2", "--alp-l", "3", "--out-dir", work / "cv")
run("bench sweep", "bench", "--sweep", "gaussian", "--shifts", "0.5",
    "--replicates", "1", "--k", "3", "--out-dir", work / "sweep")
run("score", "score", "--train", data / "train.csv", "--schema",
    data / "schema.txt", "--save-model", work / "model.npz",
    "--queries", data / "test.csv", "--out", work / "scores.csv")
run("score --model", "score", "--model", work / "model.npz",
    "--queries", data / "test.csv", "--out", work / "scores2.csv")
run("diagnose", "diagnose", *pair)
run("stats", "stats", "--results", work / "summary.csv", "--detector", "nnd",
    "--compare", "ramp:absolute", "--out", work / "report.csv")
(work / "seen.json").write_text(json.dumps(seen))
"""

NON_STATS_STEPS = ["import dirad", "import dirad.cli", "synth", "bench cv",
                   "bench sweep", "score", "score --model", "diagnose"]


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    work = tmp_path_factory.mktemp("startup")
    # Five datasets with nonzero paired differences, as the test needs.
    rows = ["dataset,detector,variant,mean_auroc"]
    for i in range(6):
        rows.append(f"d{i},nnd,ramp,{0.9 - 0.01 * i!r}")
        rows.append(f"d{i},nnd,absolute,{0.8 - 0.02 * i!r}")
    (work / "summary.csv").write_text("\n".join(rows) + "\n")
    env = dict(os.environ)
    env.pop("DIRAD_THREADS", None)
    src = str(Path(dirad.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", SCRIPT, str(work)], env=env,
                   capture_output=True, timeout=120, check=True)
    return json.loads((work / "seen.json").read_text())


@pytest.mark.parametrize("step", NON_STATS_STEPS)
def test_step_loads_no_scipy(seen, step):
    assert seen[step] == {"code": 0, "scipy": []}


def test_stats_still_works_and_is_what_loads_scipy(seen):
    assert seen["stats"]["code"] == 0
    assert "scipy.special" in seen["stats"]["scipy"]


@pytest.mark.parametrize("step", NON_STATS_STEPS)
def test_step_loads_no_numpy_ma(seen, step):
    if seen["numpy.ma"]["import numpy"]:
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    assert seen["numpy.ma"][step] is False
