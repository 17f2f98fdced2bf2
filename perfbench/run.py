#!/usr/bin/env python3
"""The dirad benchmark: seeded workloads through the `dirad` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {score,cv,sweep} --seed N \
        --seconds S --trace {0,1}

One run generates the workload's inputs from ``--seed``, times a fresh
interpreter's ``import dirad.cli`` several times before and after one worker
process (perfbench/worker.py), which runs the set-up calls, an untimed
warm-up cycle and as many measured cycles of CLI calls as fit in
``--seconds``. Every output is checked: all
cycles must write byte-identical files, files of a seed recorded in
perfbench/expected.json must match its SHA-256, and sampled rows of the ramp
and absolute score files must equal an independent recomputation
(perfbench/oracle.py) bit for bit.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the run's samples); with ``--trace 1`` it carries the
per-layer metrics of a traced cycle, and the spans are written as JSON lines
under ``.perfbench/``. The exit code is 0 only when every operation passed.

BENCHMARK.json lists only ``cv`` and ``sweep``. ``score`` stays runnable here
but fails its oracle check until ``dirad score`` negates the queries' ``low``
attributes (see test_score_orients_queries in test_perfbench.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path[:0] = [str(HERE), str(SRC)]

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_PROBES = 3  # before the worker, and as many after it
WORKER_TIMEOUT_S = 150
PROBE = (
    "import time; t = time.perf_counter(); import dirad.cli; "
    "print(time.perf_counter() - t)"
)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNATTRIBUTED_LIMIT_S = 1e-6


def child_env(threads: int) -> dict[str, str]:
    """Environment of every dirad process: this checkout's src, pinned BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["DIRAD_THREADS"] = str(threads)
    env.update({var: "1" for var in BLAS_VARS})
    return env


def import_times(env: dict[str, str]) -> list[float]:
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip()))
    return times


def environment(threads: int) -> dict:
    import numpy
    import scipy

    from dirad._backend import backend_name

    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend_name(),
        "dirad_threads": threads,
        **{var.lower(): "1" for var in BLAS_VARS},
    }


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def check(wl_name: str, seed: int, raw: dict, work: Path, tally: Tally) -> None:
    """Count every CLI call and bench cell, failing the ones that are wrong."""
    import oracle  # imports dirad, so only once the checkout is known to hold it

    wl = workloads.WORKLOADS[wl_name]
    for i, sample in enumerate(raw["setup"]):
        for code in sample["codes"]:
            tally.op(code == 0, f"set-up {i}: exit code {code}")
    expected = json.loads((HERE / "expected.json").read_text())
    recorded = expected["sha256"].get(wl_name, {}).get(str(seed), {})
    reference = raw["cycles"][0]["outputs"]
    wrong_files = set()
    if wl_name == "score":
        rows = oracle.sample_rows(seed, gen.SCORE_QUERIES)
        for variant in ("ramp", "absolute"):
            problems = oracle.mismatches(work, variant, workloads.K, rows)
            if problems:
                wrong_files.add(f"scores_{variant}.csv")
                tally.problems.extend(problems[:3])
    for c, cycle in enumerate(raw["cycles"]):
        for call, (code, files) in enumerate(zip(cycle["codes"], wl.outputs)):
            bad = [
                f for f in files
                if cycle["outputs"][f] is None
                or cycle["outputs"][f] != reference[f]
                or cycle["outputs"][f] != recorded.get(f, cycle["outputs"][f])
                or f in wrong_files
            ]
            tally.op(code == 0 and not bad,
                     f"cycle {c} call {call}: exit code {code}, wrong outputs {bad}")
        for cell in range(wl.cells):
            tally.op(cell < cycle["cells"], f"cycle {c}: bench cell {cell} missing")
        if cycle["traced"]:
            gap = cycle["unattributed_s"]
            tally.op(gap <= UNATTRIBUTED_LIMIT_S,
                     f"cycle {c}: self times miss {gap:.3g} s of the root spans")


def _spread(values: list[float]) -> str:
    return (f"median {median(values):.6g} min {min(values):.6g} "
            f"max {max(values):.6g} n={len(values)}")


def end_to_end(wl, imports: list[float], raw: dict) -> tuple[dict, list[str]]:
    cycles = raw["cycles"][1:]  # after the warm-up cycle
    walls = [c["wall_s"] for c in cycles]
    cpus = [c["cpu_s"] for c in cycles]
    setups = [s["wall_s"] for s in raw["setup"]]
    run_s = median(walls)
    setup_s = median(imports) + (median(setups) if setups else 0.0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "rows_per_s": (wl.rows / run_s, "1/s"),
        "cpu_s": (median(cpus), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    notes = [
        f"import_s: {_spread(imports)}",
        f"run_s: {_spread(walls)}",
        f"cpu_s: {_spread(cpus)}",
    ]
    if setups:
        notes.append(f"fit_and_save_s: {_spread(setups)}")
    return metrics, notes


def per_layer(imports: list[float], raw: dict) -> tuple[dict, list[str]]:
    traced = [c for c in raw["cycles"] if c["traced"]]
    plain = [c["wall_s"] for c in raw["cycles"][1:] if not c["traced"]]
    layers = spans.median_metrics([c["layers"] for c in traced])
    setup = spans.median_metrics([s["layers"] for s in raw["setup"]])
    for key, value in setup.items():
        if key in ("distance.block_bytes_max", "neighbours.k_max"):
            layers[key] = max(layers[key], value)
        elif key != "distance.cells_per_s":
            layers[key] += value
    kernel_s = layers["distance.kernel_s"]
    layers["distance.cells_per_s"] = layers["distance.cells"] / kernel_s if kernel_s else 0.0
    layers["process.import_s"] = median(imports)
    layers["trace.overhead_s"] = median(c["wall_s"] for c in traced) - median(plain)
    units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    metrics = {name: (layers[name], units[name]) for name, _, _ in spans.LAYER_METRICS}
    gap = max(c["unattributed_s"] for c in traced)
    notes = [f"traced cycles: {len(traced)}, untraced cycles after warm-up: {len(plain)}",
             f"self times sum to the root spans of every thread within {gap:.3g} s"]
    if raw["trace_missing"]:
        notes.append(f"not traced (name not found): {raw['trace_missing']}")
    return metrics, notes


class BenchError(Exception):
    """The run could not measure this checkout's dirad."""


def run_one(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload, print its report; returns (metrics, tally)."""
    wl = workloads.WORKLOADS[workload]
    stem = f"{workload}-seed{seed}-trace{trace}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"{stem}.worker.json"
    env = child_env(wl.threads)
    try:
        gen.write_inputs(workload, seed, work)
        imports = import_times(env)  # spread over the run, as host load drifts
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--dir", str(work), "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--result", str(result_path)],
            env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True,
        )
        imports += import_times(env)
        raw = json.loads(result_path.read_text(encoding="utf-8"))
        if not Path(raw["dirad_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"measured {raw['dirad_file']}, not this checkout")
        tally = Tally()
        imports.append(raw["import_s"])
        check(workload, seed, raw, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics, notes = per_layer(imports, raw)
    else:
        metrics, notes = end_to_end(wl, imports, raw)
    stamp = environment(wl.threads)
    print(f"workload {workload} seed {seed} trace {trace}")
    print("environment " + json.dumps(stamp, sort_keys=True))
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':<28} {tally.failed / tally.attempted:>16.6g} "
          f"({tally.failed}/{tally.attempted})")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    for line in raw["messages"][:5]:
        print(f"  dirad stderr: {line.splitlines()[-1]}")
    print("  outputs " + json.dumps(raw["cycles"][0]["outputs"], sort_keys=True))
    (OUT / f"{stem}.json").write_text(json.dumps({
        "environment": stamp, "import_s": imports, "raw": raw,
        "problems": tally.problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }, indent=1), encoding="utf-8")
    return metrics, tally


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                    help="'all' runs the three in turn and prefixes metric names")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not (SRC / "dirad" / "cli.py").is_file():
        print(f"error: no dirad sources under {SRC}; run from a dirad checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_one(n, args.seed, args.seconds, args.trace) for n in names}
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = {
        (name if len(names) == 1 else f"{wl}.{name}"): {"value": v, "unit": u}
        for wl, (m, _) in results.items() for name, (v, u) in m.items()
    }
    attempted = sum(t.attempted for _, t in results.values())
    failed = sum(t.failed for _, t in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
