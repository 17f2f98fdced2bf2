"""In-memory span recorder and the per-layer breakdown built from it.

Spans are recorded from the benchmark's side only: ``installed`` replaces
each dirad function with a timing wrapper *at the name its caller looks up*
(dirad modules bind ``from .x import f``, so wrapping ``dirad.x.f`` alone
would miss the call in ``dirad.y``). Untraced runs install no wrapper.

A span holds its name, start, end, the id of the enclosing span on the same
thread, the thread id and a few work counts. Self time is a span's duration
minus the time its direct children cover; children always run on the parent's
thread, inside the parent's interval, so on each thread the self times add up
exactly to the durations of that thread's root spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from statistics import median


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread; ``call`` runs a function in a span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, counter=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        counts = counter(args, kwargs, result) if counter else {}
        self.spans.append(
            Span(sid, name, start, end, parent, threading.get_ident(), counts)
        )
        return result

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.duration
    return own


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(json.dumps(asdict(s)) + "\n")


# ---------------------------------------------------------------------------
# Wrappers: (module, attribute) -> span name and optional work counter.


def _kernel_counts(args, kwargs, result):
    q, n = result.shape
    m = args[0].shape[1]
    return {"cells": q * n, "attr_evals": q * n * m, "block_bytes": 8 * q * n}


def _knn_counts(args, kwargs, result):
    return {"rows": len(args[1]), "k": args[2]}


def _self_knn_counts(args, kwargs, result):
    return {"rows": len(args[0]), "k": args[1]}


def _parse_counts(args, kwargs, result):
    return {"rows": result.n_records}


def _file_bytes(path_arg):
    def counter(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_arg])}
    return counter


def _one(args, kwargs, result):
    return {"calls": 1}


WRAPPED = (
    ("dirad.cli", "parse_csv", "dataset.parse", _parse_counts),
    ("dirad.cli", "parse_schema", "dataset.parse", None),
    ("dirad.cli", "orient", "dataset.scale", None),
    ("dirad.cli", "fit_scaler", "dataset.scale", None),
    ("dirad.cli", "apply_scaler", "dataset.scale", None),
    ("dirad.evaluation", "orient", "dataset.scale", None),
    ("dirad.evaluation", "fit_scaler", "dataset.scale", None),
    ("dirad.evaluation", "apply_scaler", "dataset.scale", None),
    ("dirad.neighbours", "distance_matrix", "distance.kernel", _kernel_counts),
    ("dirad.nnd", "knn_batch", "neighbours.knn", _knn_counts),
    ("dirad.alp", "knn_batch", "neighbours.knn", _knn_counts),
    ("dirad.alp", "self_knn_batch", "neighbours.self_knn", _self_knn_counts),
    ("dirad.nnd", "fit", "nnd.fit", None),
    ("dirad.nnd", "anomaly_scores", "nnd.score", None),
    ("dirad.alp", "fit", "alp.fit", None),
    ("dirad.alp", "anomaly_scores", "alp.score", None),
    ("dirad.evaluation", "generate", "synthgen.generate", _one),
    ("dirad.evaluation", "auroc", "evaluation.auroc", _one),
    ("dirad.cli", "run_cv", "evaluation.cv", None),
    ("dirad.cli", "synthetic_auroc", "evaluation.cv", None),
    ("dirad.cli", "save_model", "persist.save", _file_bytes(0)),
    ("dirad.cli", "load_model", "persist.load", _file_bytes(0)),
    ("dirad.cli", "_write_atomic", "cli.write", _file_bytes(0)),
    ("dirad.cli", "_run_cells", "cli.cells", None),
)


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every name in WRAPPED for the block; yields the names not found.

    A name that a later version of dirad no longer binds is skipped and
    reported, so its time shows up in the caller's self time instead.
    """
    undo, missing = [], []
    for module_name, attr, span_name, counter in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue

        def traced(*args, _fn=fn, _name=span_name, _counter=counter, **kwargs):
            return recorder.call(_name, _fn, args, kwargs, _counter)

        setattr(module, attr, functools.wraps(fn)(traced))
        undo.append((module, attr, fn))
    try:
        yield missing
    finally:
        for module, attr, fn in reversed(undo):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced cycle of CLI calls.

LAYER_METRICS = (
    # name, unit, better
    ("dataset.parse_s", "s", "lower"),
    ("dataset.parse_rows", "count", "lower"),
    ("dataset.scale_s", "s", "lower"),
    ("distance.kernel_s", "s", "lower"),
    ("distance.cells", "count", "lower"),
    ("distance.attr_evals", "count", "lower"),
    ("distance.cells_per_s", "1/s", "higher"),
    ("distance.block_bytes_max", "B", "lower"),
    ("neighbours.topk_s", "s", "lower"),
    ("neighbours.rows", "count", "lower"),
    ("neighbours.k_max", "count", "lower"),
    ("neighbours.self_knn_s", "s", "lower"),
    ("nnd.fit_s", "s", "lower"),
    ("nnd.score_self_s", "s", "lower"),
    ("alp.fit_s", "s", "lower"),
    ("alp.score_self_s", "s", "lower"),
    ("synthgen.generate_s", "s", "lower"),
    ("synthgen.datasets", "count", "lower"),
    ("evaluation.auroc_s", "s", "lower"),
    ("evaluation.auroc_calls", "count", "lower"),
    ("evaluation.cv_self_s", "s", "lower"),
    ("persist.save_s", "s", "lower"),
    ("persist.load_s", "s", "lower"),
    ("persist.bundle_bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.wait_s", "s", "lower"),
    ("cli.out_bytes", "B", "lower"),
    ("process.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Work counts: they must repeat exactly from run to run of one seed.
COUNT_METRICS = (
    "dataset.parse_rows", "distance.cells", "distance.attr_evals",
    "distance.block_bytes_max", "neighbours.rows", "neighbours.k_max",
    "synthgen.datasets", "evaluation.auroc_calls", "persist.bundle_bytes",
    "cli.out_bytes",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Sum the spans of one cycle into the per-layer metrics.

    ``process.import_s`` and ``trace.overhead_s`` are not span-based and
    are filled in by the caller.
    """
    own = self_times(spans)
    total: dict[str, float] = {}
    self_: dict[str, float] = {}
    counts: dict[str, int] = {}
    k_max = block_max = 0
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_[s.name] = self_.get(s.name, 0.0) + own[s.id]
        for key, value in s.counts.items():
            if key == "k":
                k_max = max(k_max, value)
            elif key == "block_bytes":
                block_max = max(block_max, value)
            else:
                counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0) + value
    kernel_s = total.get("distance.kernel", 0.0)
    cells = counts.get("distance.kernel.cells", 0)
    return {
        "dataset.parse_s": total.get("dataset.parse", 0.0),
        "dataset.parse_rows": counts.get("dataset.parse.rows", 0),
        "dataset.scale_s": total.get("dataset.scale", 0.0),
        "distance.kernel_s": kernel_s,
        "distance.cells": cells,
        "distance.attr_evals": counts.get("distance.kernel.attr_evals", 0),
        "distance.cells_per_s": cells / kernel_s if kernel_s > 0 else 0.0,
        "distance.block_bytes_max": block_max,
        "neighbours.topk_s": self_.get("neighbours.knn", 0.0)
        + self_.get("neighbours.self_knn", 0.0),
        "neighbours.rows": counts.get("neighbours.knn.rows", 0)
        + counts.get("neighbours.self_knn.rows", 0),
        "neighbours.k_max": k_max,
        "neighbours.self_knn_s": total.get("neighbours.self_knn", 0.0),
        "nnd.fit_s": total.get("nnd.fit", 0.0),
        "nnd.score_self_s": self_.get("nnd.score", 0.0),
        "alp.fit_s": total.get("alp.fit", 0.0),
        "alp.score_self_s": self_.get("alp.score", 0.0),
        "synthgen.generate_s": total.get("synthgen.generate", 0.0),
        "synthgen.datasets": counts.get("synthgen.generate.calls", 0),
        "evaluation.auroc_s": total.get("evaluation.auroc", 0.0),
        "evaluation.auroc_calls": counts.get("evaluation.auroc.calls", 0),
        "evaluation.cv_self_s": self_.get("evaluation.cv", 0.0),
        "persist.save_s": total.get("persist.save", 0.0),
        "persist.load_s": total.get("persist.load", 0.0),
        "persist.bundle_bytes": counts.get("persist.save.bytes", 0),
        "cli.self_s": self_.get("cli.main", 0.0) + self_.get("cli.write", 0.0),
        "cli.wait_s": self_.get("cli.cells", 0.0),
        "cli.out_bytes": counts.get("cli.write.bytes", 0),
    }


def unattributed_s(spans: list[Span]) -> float:
    """Largest per-thread gap between root durations and summed self times.

    Zero up to rounding when every span's self time is accounted for; the
    runner treats anything above a microsecond as a broken trace.
    """
    own = self_times(spans)
    roots: dict[int, float] = {}
    selfs: dict[int, float] = {}
    for s in spans:
        selfs[s.thread] = selfs.get(s.thread, 0.0) + own[s.id]
        if s.parent is None:
            roots[s.thread] = roots.get(s.thread, 0.0) + s.duration
    return max((abs(roots.get(t, 0.0) - v) for t, v in selfs.items()), default=0.0)


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over samples (each a dict with the same keys)."""
    if not samples:
        return {}
    return {key: median(s[key] for s in samples) for key in samples[0]}
