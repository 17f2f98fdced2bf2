"""Import-cost guard: no CLI command loads SciPy or ``numpy.ma``, no run
loads ``multiprocessing`` or ``concurrent.futures``, and importing dirad,
fitting with ``score`` and ``diagnose`` never load OpenSSL.

dirad runs on NumPy alone: SciPy is only the reference the tests compare
against. ``stats``, whose signed-rank test needs the normal tail, runs with
``sys.modules["scipy"] = None``, so that any attempt to import SciPy fails the
step. ``numpy.ma`` (about 0.9 MB resident) came in through ``np.quantile``'s
``np.unique``, which the scaler calls only for a column holding both -0.0 and
+0.0 that reads a zero quartile. Bench jobs run on workers that dirad forks
itself, so ``multiprocessing`` is needed by no command, not even a sweep at
DIRAD_THREADS=2; nor is ``concurrent.futures`` (about 0.6 MB). ``_hashlib``
(OpenSSL, about 3.6 MB) is needed only to hash a model bundle or a sweep's
replicate seeds.
``_hashlib`` is not checked after ``synth``, ``bench`` or ``stats``:
``numpy.random`` loads it through ``secrets`` and ``hmac``.

The test writes a tiny problem first, so one fresh interpreter, with
DIRAD_THREADS unset, can import dirad, fit with ``score`` and run
``diagnose`` before any command that loads ``_hashlib``, then run every
other command, a sweep of two problems on two forked workers, and ``stats``
last. It records the ``scipy*`` modules, and whether ``numpy.ma``,
``multiprocessing``, ``concurrent.futures`` and ``_hashlib`` are loaded,
after each step, and how many workers the parallel step forked. NumPy 1.x
imports ``numpy.ma`` and ``numpy.random`` with numpy itself, so there a
module that ``import numpy`` loads is not checked.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirad.cli

SCRIPT = r"""
import json
import os
import sys
from pathlib import Path

work = Path(sys.argv[1])
import numpy

WATCHED = ("numpy.ma", "multiprocessing", "concurrent.futures", "_hashlib")
seen = {name: {"import numpy": name in sys.modules} for name in WATCHED}


def record(step, code=0):
    loaded = sorted(m for m, module in sys.modules.items()
                    if m.startswith("scipy") and module is not None)
    seen[step] = {"code": code, "scipy": loaded}
    for name in WATCHED:
        seen[name][step] = name in sys.modules


import dirad
record("import dirad")
import dirad.cli
record("import dirad.cli")


def run(step, *argv):
    try:
        code = dirad.cli.main([str(a) for a in argv])
    except ImportError as exc:  # recorded, so that only its step fails
        code = repr(exc)
    record(step, code)


data = work / "data"
pair = ["--data", data / "test.csv", "--schema", data / "schema.txt"]
fit = ["score", "--train", data / "train.csv", "--schema", data / "schema.txt"]
run("score", *fit, "--queries", data / "test.csv", "--out", work / "scores.csv")
run("diagnose", "diagnose", *pair)
run("synth", *json.loads(sys.argv[2]), "--out", work / "synth")
run("bench cv", "bench", *pair, "--detectors", "nnd,alp", "--k", "3",
    "--alp-k", "2", "--alp-l", "3", "--out-dir", work / "cv")
run("bench sweep", "bench", "--sweep", "gaussian", "--shifts", "0.5",
    "--replicates", "1", "--k", "3", "--out-dir", work / "sweep")
os.environ["DIRAD_THREADS"] = "2"
os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host
forked, fork = [], os.fork


def counting_fork():
    forked.append(fork())
    return forked[-1]


os.fork = counting_fork
run("bench sweep on 2 workers", "bench", "--sweep", "gaussian", "--shifts", "0.2,0.8",
    "--replicates", "1", "--k", "3", "--out-dir", work / "sweep2")
os.fork = fork
seen["forked"] = len([pid for pid in forked if pid])
del os.environ["DIRAD_THREADS"]
run("score --save-model", *fit, "--save-model", work / "model.npz",
    "--queries", data / "test.csv", "--out", work / "scores2.csv")
run("score --model", "score", "--model", work / "model.npz",
    "--queries", data / "test.csv", "--out", work / "scores3.csv")
sys.modules["scipy"] = None  # any import of SciPy now fails
run("stats", "stats", "--results", work / "summary.csv", "--detector", "nnd",
    "--compare", "ramp:absolute", "--out", work / "report.csv")
(work / "seen.json").write_text(json.dumps(seen))
"""

SYNTH = ["synth", "--family", "gaussian", "--a", "0.7", "--seed", "3",
         "--n-train", "40", "--n-test-normal", "20", "--n-test-anomalous", "10",
         "--m", "3"]
STEPS = ["import dirad", "import dirad.cli", "score", "diagnose", "synth", "bench cv",
         "bench sweep", "bench sweep on 2 workers", "score --save-model", "score --model",
         "stats"]
PARALLEL_STEP = "bench sweep on 2 workers"
SERIAL_STEPS = [step for step in STEPS if step != PARALLEL_STEP]
# The steps run in this order: OpenSSL stays unloaded through "diagnose".
NO_OPENSSL_UNTIL = "diagnose"


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    work = tmp_path_factory.mktemp("startup")
    # Five datasets with nonzero paired differences, as the test needs.
    rows = ["dataset,detector,variant,mean_auroc"]
    for i in range(6):
        rows.append(f"d{i},nnd,ramp,{0.9 - 0.01 * i!r}")
        rows.append(f"d{i},nnd,absolute,{0.8 - 0.02 * i!r}")
    (work / "summary.csv").write_text("\n".join(rows) + "\n")
    assert dirad.cli.main([*SYNTH, "--out", str(work / "data")]) == 0
    env = dict(os.environ)
    env.pop("DIRAD_THREADS", None)
    src = str(Path(dirad.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", SCRIPT, str(work), json.dumps(SYNTH)], env=env,
                   capture_output=True, timeout=120, check=True)
    return json.loads((work / "seen.json").read_text())


@pytest.mark.parametrize("step", STEPS)
def test_step_loads_no_scipy(seen, step):
    assert seen[step] == {"code": 0, "scipy": []}


def steps_until(last):
    return STEPS[:STEPS.index(last) + 1]


def assert_not_loaded(seen, name, step):
    if seen[name]["import numpy"]:
        pytest.skip(f"this NumPy imports {name} with numpy itself")
    assert seen[name][step] is False


@pytest.mark.parametrize("step", STEPS)
def test_step_loads_no_numpy_ma(seen, step):
    assert_not_loaded(seen, "numpy.ma", step)


@pytest.mark.parametrize("step", SERIAL_STEPS)
def test_serial_step_loads_no_process_pool(seen, step):
    assert_not_loaded(seen, "multiprocessing", step)


@pytest.mark.parametrize("step", SERIAL_STEPS)
def test_serial_step_loads_no_thread_pool(seen, step):
    assert_not_loaded(seen, "concurrent.futures", step)


@pytest.mark.parametrize("name", ["multiprocessing", "concurrent.futures"])
def test_parallel_step_forks_its_workers_and_loads_no_pool(seen, name):
    assert seen["forked"] == 2
    assert_not_loaded(seen, name, PARALLEL_STEP)


@pytest.mark.parametrize("step", steps_until(NO_OPENSSL_UNTIL))
def test_step_loads_no_openssl(seen, step):
    assert_not_loaded(seen, "_hashlib", step)
