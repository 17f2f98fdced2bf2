"""One measured benchmark process: import dirad, set up, run timed cycles.

Started by ``run.py`` in a fresh interpreter with the environment of the
workload (PYTHONPATH pointing at the checkout's ``src``, BLAS threads pinned
to 1, ``DIRAD_THREADS`` per workload). Calls ``dirad.cli.main`` in-process so
``getrusage`` on this process covers every CLI call, and writes its raw
samples as JSON to the path given by ``--result``.

Usage (normally via run.py):
    python3 perfbench/worker.py --workload score --dir WORKDIR --seconds 30 \
        --trace 0 --result OUT.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

_T0 = time.perf_counter()
import dirad.cli  # noqa: E402  (timed: this is the program's import cost)

IMPORT_S = time.perf_counter() - _T0

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


class Runner:
    """Runs CLI calls, optionally inside a root ``cli.main`` span."""

    def __init__(self, recorder: spans.Recorder | None) -> None:
        self.recorder = recorder
        self.messages: list[str] = []

    def call(self, argv: list[str]) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.recorder is None:
                    code = dirad.cli.main(argv)
                else:
                    code = self.recorder.call("cli.main", dirad.cli.main, (argv,), {})
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not a dead run
                code = 1
                err.write(traceback.format_exc())
        if err.getvalue():
            self.messages.append(err.getvalue().strip())
        return code


def _cycle(runner: Runner, calls: list[list[str]]) -> tuple[float, float, list[int]]:
    cpu0, t0 = _cpu_s(), time.perf_counter()
    codes = [runner.call(argv) for argv in calls]
    return time.perf_counter() - t0, _cpu_s() - cpu0, codes


def _wrapped(recorder: spans.Recorder | None):
    """Trace wrappers for the block when recording, nothing otherwise."""
    return spans.installed(recorder) if recorder else contextlib.nullcontext()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True, type=Path)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    work = args.dir
    recorder = spans.Recorder() if args.trace else None
    runner = Runner(recorder)
    result = {"import_s": IMPORT_S, "dirad_file": dirad.cli.__file__,
              "trace_missing": [], "setup": [], "cycles": []}
    all_spans: list[spans.Span] = []

    # Set-up: the calls that must finish before the first query is scored.
    setup_calls = wl.setup_calls(work, args.seed)
    for _ in range(SETUP_SAMPLES if setup_calls else 0):
        with _wrapped(recorder):
            wall, _, codes = _cycle(runner, setup_calls)
        sample = {"wall_s": wall, "codes": codes}
        if recorder:
            sample_spans = recorder.take()
            sample["layers"] = spans.layer_metrics(sample_spans)
            all_spans += sample_spans
        result["setup"].append(sample)

    # Measured cycles, until another one would overrun the time budget.
    # Every run starts with an untraced warm-up cycle, whose outputs are
    # checked but whose times are not reported. Traced runs then alternate
    # traced and untraced cycles (at least one each), so that the difference
    # of the two gives the tracing overhead.
    calls = wl.measured_calls(work, args.seed)
    cycles = result["cycles"]
    start = time.perf_counter()
    while (len(cycles) < 2 or (recorder and len(cycles) < 3)
           or time.perf_counter() - start + cycles[-1]["wall_s"] <= args.seconds):
        traced = bool(recorder) and len(cycles) % 2 == 1
        runner.recorder = recorder if traced else None
        with _wrapped(runner.recorder) as missing:
            wall, cpu, codes = _cycle(runner, calls)
        cycle = {
            "wall_s": wall,
            "cpu_s": cpu,
            "codes": codes,
            "traced": traced,
            "outputs": {name: _sha256(work / name)
                        for files in wl.outputs for name in files},
            "cells": wl.count_cells(work),
        }
        if traced:
            result["trace_missing"] = missing
            cycle_spans = recorder.take()
            cycle["layers"] = spans.layer_metrics(cycle_spans)
            cycle["unattributed_s"] = spans.unattributed_s(cycle_spans)
            all_spans += cycle_spans
        cycles.append(cycle)

    if recorder:
        spans.write_jsonl(all_spans, args.result.with_suffix(".spans.jsonl"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["messages"] = runner.messages
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
