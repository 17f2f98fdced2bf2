"""Command-line entry point for reproducible experiment runs.

Subcommands: synth (generate benchmark data), bench (cross-validation or
synthetic sweeps), score (fit or load a model and score queries), stats
(signed-rank comparisons over result tables), diagnose (directionality
report). Every command is deterministic given its flags; outputs are written
atomically (write-then-rename). A bench job is one dataset (``run_cv``) or
one generated problem (``synthetic_auroc``), scored under every config; a job
that raises fails each of its cells. score goes through ``fit_detector`` and
``score_queries``; all share one orient-and-scale path. A bundle saved by
``score --save-model`` carries the schema as read and its label rule, so
``score --model`` needs no ``--schema``.

Environment: DIRAD_THREADS caps the worker processes that run bench jobs (a
positive integer, default 1), as do the job count and the usable CPUs. Each
worker is forked with private pipes, for job ranges and their pickled outcomes
(a worker that dies ends the command: one ``error:`` line, exit 1, nothing
written); with one worker, the jobs run in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import os
import pickle
import selectors
import signal
import sys
from pathlib import Path

import numpy as np

from . import evaluation, synthgen
from .alp import AlpConfig
# orient, fit_scaler and apply_scaler are unused; perfbench's tracer wraps them here.
from .dataset import (  # noqa: F401
    Dataset,
    LabelRule,
    apply_scaler,
    csv_text,
    fit_scaler,
    format_csv,
    format_schema,
    orient,
    parse_csv,
    parse_schema,
)
from .distance import DistanceVariant
from .evaluation import (
    ExperimentResult,
    SweepCell,
    fit_detector,
    fold_results_csv,
    holm_bonferroni,
    make_folds,
    run_cv,
    score_queries,
    summary_csv,
    sweep_csv,
    synthetic_auroc,
    wilcoxon_one_sided,
)
from .nnd import NndConfig
from .persist import load_model, save_model, write_atomic

DEFAULT_SEED = 0

NND_VARIANTS = ("absolute", "ramp", "signed")
ALP_VARIANTS = ("absolute", "ramp")


def _write_atomic(path: Path, text: str) -> None:
    write_atomic(path, lambda handle: handle.write(text.encode("utf-8")))


def _merge_config(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config (or --config=) as ``--key=value``
    flags; real flags win, given as ``--flag value`` or ``--flag=value``."""
    keys = [arg.split("=", 1)[0] for arg in argv]
    if "--config" not in keys:
        return argv
    at = keys.index("--config")
    if argv[at] != "--config":
        path = Path(argv[at][len("--config="):])
    elif at + 1 < len(argv):
        path = Path(argv[at + 1])
    else:
        raise ValueError("--config expects a file path")
    prefix: list[str] = []
    text = _parsed(path, str)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = line.partition("=")
        if not (equals and key.strip()):
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        flag = "--" + key.strip().replace("_", "-")
        if flag in keys:
            continue
        value = value.strip()
        if value.lower() in ("true", "yes", "1") and flag in _BOOL_FLAGS:
            prefix.append(flag)
        elif value.lower() in ("false", "no", "0") and flag in _BOOL_FLAGS:
            pass
        else:
            prefix.append(f"{flag}={value}")
    # Insert after the subcommand token so argparse routes them correctly.
    return argv[:1] + prefix + argv[1:]


_BOOL_FLAGS = {"--holm", "--no-scale"}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_numbers(argv: list[str]) -> list[str]:
    """``--flag -1e-3`` as ``--flag=-1e-3``. argparse takes a token that starts
    with '-' for an option unless it reads like ``-0.001``, so ``-1e-3`` and
    ``-inf`` would leave their flag without a value; no dirad command takes
    a positional argument that such a token could be instead."""
    joined: list[str] = []
    for arg in argv:
        if (joined and joined[-1].startswith("--") and "=" not in joined[-1]
                and arg.startswith("-") and _is_number(arg)):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _selection(flag: str, text: str, convert=str) -> list:
    """The comma-separated values of ``flag``, blanks skipped, each
    ``convert``ed; a ValueError naming ``flag`` unless every value converts,
    there is at least one and none comes twice."""
    values = []
    for part in filter(None, (part.strip() for part in text.split(","))):
        try:
            values.append(convert(part))
        except ValueError:
            raise ValueError(f"{flag}: {part!r} is not a number") from None
    if not values:
        raise ValueError(f"{flag} selects nothing")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{flag} selects {value!r} twice")
    return values


def _auto_int(text: str):
    return None if text.strip().lower() == "auto" else int(text)


def _seed(text: str) -> int:
    if not text.strip().isdecimal():  # no sign: a seed is an integer >= 0
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _parsed(path, parse, *args):
    """``parse(text, *args)`` for the UTF-8 text of the file at ``path``,
    less a leading byte-order mark (``parse=str`` gives the text itself); a
    decode error, or a ``ValueError`` of ``parse``, names the file, e.g.
    ``big.csv: field larger than field limit``. Every input file of every
    command is read here, without newline translation, so a ``\\r`` in a
    quoted CSV field stays one. ``score`` fits and scores inside ``parse``
    too, so an error its training or query records cause names their file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as file:
            text = file.read()
        return parse(text, *args)
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_dataset(data_path: str, schema_path: str) -> tuple[Dataset, LabelRule | None]:
    schema, rule = _parsed(schema_path, parse_schema)
    return _parsed(data_path, parse_csv, schema, rule), rule


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args, parser) -> int:
    spec = synthgen.SynthSpec(
        family=args.family,
        shift=args.shift,
        n_train=args.n_train,
        n_test_normal=args.n_test_normal,
        n_test_anomalous=args.n_test_anomalous,
        m=args.m,
        seed=args.seed,
    )
    train, test = synthgen.generate(spec)
    rule = LabelRule("label", "anomalous", "normal")
    out = Path(args.out)
    _write_atomic(out / "train.csv", format_csv(train))
    _write_atomic(out / "test.csv", format_csv(test, rule))
    _write_atomic(out / "schema.txt", format_schema(train.schema, rule))
    print(f"wrote train.csv, test.csv, schema.txt to {out}")
    return 0


# ---------------------------------------------------------------------------
# bench


def _detector_config(detector: str, variant: str, args) -> NndConfig | AlpConfig:
    """The config of one detector:variant pair, with k (and l) from the flags."""
    if detector == "nnd":
        return NndConfig(variant=DistanceVariant(variant), k=args.k)
    return AlpConfig(variant=DistanceVariant(variant), k=args.alp_k, l=args.alp_l)


def _detector_configs(args, parser) -> list[NndConfig | AlpConfig]:
    """One config per bench cell; signed x alp is a config error."""
    detectors = _selection("--detectors", args.detectors)
    for d in detectors:
        if d not in ("nnd", "alp"):
            parser.error(f"unknown detector {d!r}")

    def variants(detector: str) -> list[str]:
        if args.variants is not None:
            return _selection("--variants", args.variants)
        return _selection(f"--{detector}-variants", getattr(args, f"{detector}_variants"))

    cells = []
    if "nnd" in detectors:
        for v in variants("nnd"):
            if v not in NND_VARIANTS:
                parser.error(f"unknown NND variant {v!r}")
            cells.append(_detector_config("nnd", v, args))
    if "alp" in detectors:
        for v in variants("alp"):
            if v not in ALP_VARIANTS:
                parser.error(
                    f"variant {v!r} cannot be used with ALP (allowed: "
                    f"{', '.join(ALP_VARIANTS)})"
                )
            cells.append(_detector_config("alp", v, args))
    return cells


def _attempt(worker, width: int, job) -> list:
    """``worker(job)``, or ``[RuntimeError(str(exc))] * width`` if it raised."""
    try:
        return worker(job)
    except Exception as exc:  # only the text is printed, and this always unpickles
        return [RuntimeError(str(exc))] * width


def _pool_size(jobs: int) -> int:
    """How many processes run ``jobs`` jobs: DIRAD_THREADS (a positive integer,
    default 1), capped by the job count and the CPUs this process may use."""
    raw = os.environ.get("DIRAD_THREADS", "").strip()
    try:
        threads = int(raw) if raw else 1
    except ValueError:
        raise ValueError(f"DIRAD_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ValueError(f"DIRAD_THREADS must be >= 1, got {threads}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        cpus = os.cpu_count() or 1
    return min(threads, jobs, cpus)


def _fork_worker(task, jobs, chunk: int, inherited: list[int]) -> tuple:
    """A forked worker's pid, job pipe and result pipe. For each start index
    it reads, the worker sends ``(start, outcomes)`` for ``jobs[start:start +
    chunk]``, pickled; it exits 0 at EOF, and 1 if anything raised."""
    job_read, job_write = os.pipe()
    result_read, result_write = os.pipe()
    if pid := os.fork():
        os.close(job_read)
        os.close(result_write)
        return pid, open(job_write, "wb", buffering=0), open(result_read, "rb")
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
        # A copy of an earlier worker's pipe end, left open here, would hide its EOF.
        for end in (*inherited, job_write, result_read):
            os.close(end)
        with open(job_read, "rb") as starts, open(result_write, "wb") as results:
            for start in map(int, starts):
                pickle.dump((start, list(map(task, jobs[start:start + chunk]))), results)
                results.flush()
        status = 0
    finally:
        os._exit(status)  # nothing of the parent's (atexit, finalisers) runs here


def _run_cells(jobs, worker, width: int) -> list:
    """Run jobs, in this process or on forked workers; returns, in job order,
    each job's list of ``width`` outcomes (see ``_attempt``). A worker that
    dies with a range unsent raises a RuntimeError, so the command prints one
    ``error:`` line and writes nothing. No worker outlives the call."""
    task = functools.partial(_attempt, worker, width)
    count = _pool_size(len(jobs))
    if count <= 1:
        return [task(job) for job in jobs]
    chunk = -(-len(jobs) // (4 * count))  # about four ranges a worker
    starts = iter(range(0, len(jobs), chunk))
    outcomes, pipes = [None] * len(jobs), {}  # pipes: pid -> its job and result pipes

    def reap(pid) -> int:
        for end in pipes.pop(pid):
            end.close()
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def hand_out(pid) -> None:
        """Send ``pid`` the next range, or close its job pipe once none is left."""
        start = next(starts, None)
        if start is None:
            selector.unregister(pipes[pid][1])
            reap(pid)  # every range it ran is in: how it ends changes nothing
        else:
            with contextlib.suppress(BrokenPipeError):  # it died: its result pipe reads EOF
                pipes[pid][0].write(b"%d\n" % start)

    try:
        for _ in range(count):
            inherited = [end.fileno() for ends in pipes.values() for end in ends]
            pid, *ends = _fork_worker(task, jobs, chunk, inherited)
            pipes[pid] = ends
        with selectors.DefaultSelector() as selector:
            for pid in list(pipes):
                selector.register(pipes[pid][1], selectors.EVENT_READ, pid)
                hand_out(pid)
            while selector.get_map():
                for key, _ in selector.select():
                    try:
                        start, ran = pickle.load(key.fileobj)
                    except (EOFError, pickle.UnpicklingError):  # it died
                        died = f"a bench worker process died (exit code {reap(key.data)})"
                        raise RuntimeError(died) from None
                    outcomes[start:start + chunk] = ran
                    hand_out(key.data)
    finally:
        for pid in list(pipes):
            os.kill(pid, signal.SIGKILL)
            reap(pid)
    return outcomes


def _print_cv_table(results: list[ExperimentResult]) -> None:
    """The mean-AUROC table of a non-empty list of results."""
    datasets = sorted({r.dataset_id for r in results})
    columns = sorted({(r.detector, r.variant) for r in results})
    means = {(r.dataset_id, r.detector, r.variant): r.mean_auroc for r in results}
    headers = ["dataset", *(f"{d}:{v}" for d, v in columns), "best_nnd", "best_alp"]
    rows = []
    for ds in datasets:
        row = [ds]
        for d, v in columns:
            mean = means.get((ds, d, v))
            row.append("-" if mean is None else f"{mean:.3f}")
        for family in ("nnd", "alp"):
            fam = [(v, means[(ds, d, v)]) for d, v in columns
                   if d == family and (ds, d, v) in means]
            row.append(max(fam, key=lambda t: t[1])[0] if fam else "-")
        rows.append(row)
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _bench_cv(args, cells) -> int:
    schemas = args.schema * len(args.data) if len(args.schema) == 1 else args.schema
    if len(schemas) != len(args.data):
        raise ValueError("--data and --schema counts do not match")
    # A dataset's id is its file stem; results are keyed by it.
    paths_by_id = {}
    for data_path in args.data:
        ds_id = Path(data_path).stem
        if ds_id in paths_by_id:
            raise ValueError(
                f"--data {paths_by_id[ds_id]} and {data_path} share the "
                f"dataset id '{ds_id}'"
            )
        paths_by_id[ds_id] = data_path
    datasets = []
    for (ds_id, data_path), schema_path in zip(paths_by_id.items(), schemas):
        ds, _ = _load_dataset(data_path, schema_path)
        if ds.labels is None:
            raise ValueError(f"{data_path}: schema declares no label column")
        datasets.append((ds_id, ds))

    n_folds = 5 if args.folds is None else args.folds
    if n_folds < 2:  # a bad flag fails the run; a small dataset, its cells
        raise ValueError(f"folds must be >= 2, got {n_folds}")

    def cv(job) -> list:  # one dataset: every config is fitted and scored on each fold
        ds_id, ds = job
        folds = make_folds(int((~ds.labels).sum()), n_folds, args.seed)
        return run_cv(ds, cells, folds, ds_id)

    outcomes = _run_cells(datasets, cv, len(cells))
    results, failures = [], []
    for (ds_id, _), row in zip(datasets, outcomes):
        for config, outcome in zip(cells, row):
            if isinstance(outcome, Exception):
                failures.append((ds_id, config, outcome))
            else:
                results.append(outcome)
    out_dir = Path(args.out_dir)
    _write_atomic(out_dir / "folds.csv", fold_results_csv(results))
    _write_atomic(out_dir / "summary.csv", summary_csv(results))
    if results:
        _print_cv_table(results)
    print(f"wrote folds.csv and summary.csv to {out_dir}")
    for ds_id, config, exc in failures:
        print(
            f"cell failed: dataset={ds_id} detector="
            f"{config.detector}:{config.variant.value}: {exc}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _bench_sweep(args, cells) -> int:
    shifts = (
        synthgen.default_shifts(args.sweep) if args.shifts is None
        else _selection("--shifts", args.shifts, float)
    )
    reps = 10 if args.replicates is None else args.replicates
    specs = synthgen.grid(args.sweep, shifts, reps, base_seed=args.seed)

    # One job per (shift, replicate) problem: it is generated, oriented and
    # scaled once, then every config is fitted and scored on it.
    outcomes = _run_cells(
        specs, lambda spec: synthetic_auroc(spec, cells, scale=not args.no_scale),
        len(cells))
    cells_out, cell_failures = [], []
    for c, config in enumerate(cells):
        k = "auto" if config.k is None else config.k
        for s, shift in enumerate(shifts):
            aurocs = [outcomes[i][c] for i in range(s * reps, (s + 1) * reps)]
            exc = next((a for a in aurocs if isinstance(a, Exception)), None)
            if exc is None:
                cells_out.append(SweepCell(
                    args.sweep, shift, config.detector, k, config.variant.value,
                    reps, float(np.mean(aurocs)),
                ))
            else:
                cell_failures.append((config, shift, exc))
    out_dir = Path(args.out_dir)
    _write_atomic(out_dir / "sweep.csv", sweep_csv(cells_out))
    print(f"wrote sweep.csv to {out_dir}")
    for config, shift, exc in cell_failures:
        print(
            f"cell failed: {config.detector}:{config.variant.value} "
            f"shift={shift}: {exc}",
            file=sys.stderr,
        )
    return 1 if cell_failures else 0


# Each bench mode's own flags and their unset values; the other mode rejects them.
_CV_FLAGS = {"data": [], "schema": [], "folds": None}
_SWEEP_FLAGS = {"shifts": None, "replicates": None, "no_scale": False}


def cmd_bench(args, parser) -> int:
    sweep = args.sweep is not None
    for name, unset in (_CV_FLAGS if sweep else _SWEEP_FLAGS).items():
        if getattr(args, name) != unset:
            flag = "--" + name.replace("_", "-")
            parser.error(f"{flag} cannot be used with --sweep" if sweep
                         else f"{flag} applies only to --sweep, not to --data")
    cells = _detector_configs(args, parser)
    if sweep:
        return _bench_sweep(args, cells)
    if not args.data:
        parser.error("either --sweep or at least one --data/--schema pair is required")
    return _bench_cv(args, cells)


# ---------------------------------------------------------------------------
# score


# score's fit-only flags and their defaults. They parse with no default, so
# --model can reject each one that was given, even ``--alp-k auto``.
_FIT_DEFAULTS = {"detector": "nnd", "variant": "ramp", "k": 8, "alp_k": None, "alp_l": None}


def _fit_from_args(args, parser):
    if not (args.train and args.schema_path):
        parser.error("--train and --schema are required when --model is not given")
    schema, rule = _parsed(args.schema_path, parse_schema)
    fit = argparse.Namespace(**{**_FIT_DEFAULTS, **vars(args)})
    config = _detector_config(fit.detector, fit.variant, fit)
    scaler, model = _parsed(args.train, _fit_normal_records, schema, rule, config)
    return model, scaler, schema, rule


def _fit_normal_records(text: str, schema, rule, config):
    """``fit_detector`` on the normal records of the CSV ``text``."""
    ds = parse_csv(text, schema, rule)
    if ds.labels is not None:
        ds = ds.take(np.flatnonzero(~ds.labels))  # fit on normal records only
    return fit_detector(config, ds)


def _scores(text: str, schema, rule, scaler, model) -> np.ndarray:
    """Scores of the query records of the CSV ``text``; none for a blank one."""
    if not text.strip():
        return np.empty(0)
    return score_queries(scaler, model, parse_csv(text, schema, rule))


def _check_bundle_schema(path, given, schema) -> None:
    """A ``--schema`` next to ``--model`` must declare the bundle's
    (name, direction) pairs, in any order; the first that differs is named."""
    directions = {a.name: a.direction for a in schema}
    for attr in given:
        if attr.name not in directions:
            raise ValueError(f"{path}: attribute {attr.name!r} is not in the model bundle")
        if attr.direction is not directions[attr.name]:
            raise ValueError(
                f"{path}: attribute {attr.name!r} is {attr.direction.value} here "
                f"but {directions[attr.name].value} in the model bundle"
            )
    declared = {a.name for a in given}
    for attr in schema:
        if attr.name not in declared:
            raise ValueError(f"{path}: attribute {attr.name!r} of the model bundle is missing")


def cmd_score(args, parser) -> int:
    if args.model:
        if args.train or args.save_model:
            parser.error("--train and --save-model cannot be used with --model")
        for name in _FIT_DEFAULTS:
            if name in args:
                parser.error(f"--{name.replace('_', '-')} cannot be used with --model: "
                             f"the bundle fixes the detector")
        bundle = load_model(args.model)
        if bundle.scaler is None or bundle.schema is None:
            raise ValueError(
                f"{args.model}: bundle lacks the scaler/schema needed to "
                f"score raw queries"
            )
        model, scaler, schema = bundle.model, bundle.scaler, bundle.schema
        rule = bundle.label_rule
    else:
        model, scaler, schema, rule = _fit_from_args(args, parser)
        if args.save_model:
            model = save_model(args.save_model, model, scaler, schema, rule)
            print(f"saved model to {args.save_model}")

    if args.model and args.schema_path:
        given, rule = _parsed(args.schema_path, parse_schema)
        _check_bundle_schema(args.schema_path, given, schema)
    scores = _parsed(args.queries, _scores, schema, rule, scaler, model)
    rows = ((i, float(s)) for i, s in enumerate(scores, start=1))
    _write_atomic(Path(args.out), csv_text(("row", "score"), rows))
    print(f"wrote {len(scores)} scores to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# stats


_SUMMARY_COLUMNS = ("detector", "variant", "dataset", "mean_auroc")


def _read_summary(paths) -> dict:
    """``{(detector, variant): {dataset: mean_auroc}}``; repeated rows are errors."""
    table: dict = {}
    read_at: dict = {}  # (detector, variant, dataset) -> "path: line N"
    for path in paths:
        # The whole file is decoded first, so a decode error names it too.
        reader = csv.DictReader(io.StringIO(_parsed(path, str), newline=""))
        header = reader.fieldnames or ()
        missing = [c for c in _SUMMARY_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            values = [row[c] for c in _SUMMARY_COLUMNS]
            if None in values:
                raise ValueError(f"{where} is too short")
            detector, variant, dataset, auroc = values
            try:
                mean = float(auroc)
            except ValueError:
                mean = float("nan")
            if not np.isfinite(mean):
                raise ValueError(
                    f"{where}: mean_auroc must be a finite number, got {auroc!r}"
                )
            key = (detector, variant, dataset)
            if key in read_at:
                raise ValueError(
                    f"{where}: detector={detector} variant={variant} "
                    f"dataset={dataset} repeats {read_at[key]}"
                )
            read_at[key] = where
            table.setdefault((detector, variant), {})[dataset] = mean
    return table


def cmd_stats(args, parser) -> int:
    table = _read_summary(args.results)
    comparisons = []
    for comp in args.compare:
        if ":" not in comp:
            parser.error(f"--compare expects GREATER:LESSER, got {comp!r}")
        greater, lesser = comp.split(":", 1)
        key_g, key_l = (args.detector, greater), (args.detector, lesser)
        for key in (key_g, key_l):
            if key not in table:
                raise ValueError(
                    f"no rows for detector={key[0]} variant={key[1]} in the results"
                )
        shared = sorted(set(table[key_g]) & set(table[key_l]))
        x = [table[key_g][d] for d in shared]
        y = [table[key_l][d] for d in shared]
        p = wilcoxon_one_sided(x, y, method=args.method)
        # n is the test's sample size: it ranks only the nonzero differences.
        n = int(np.count_nonzero(np.subtract(x, y)))
        comparisons.append((greater, lesser, n, p))

    adjusted = (
        holm_bonferroni([c[3] for c in comparisons]) if args.holm else None
    )
    rows = []
    for i, (greater, lesser, n, p) in enumerate(comparisons):
        holm_p = "" if adjusted is None else float(adjusted[i])
        print(
            f"p({args.detector} {greater} > {lesser}) = {p:.6g}  (n={n})"
            + (f"  holm={holm_p:.6g}" if adjusted is not None else "")
        )
        rows.append((args.detector, greater, lesser, n, float(p), holm_p))
    if args.out:
        header = ("detector", "greater", "lesser", "n", "p", "holm_p")
        _write_atomic(Path(args.out), csv_text(header, rows))
        print(f"wrote report to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# diagnose


def _mean_cell(value: float) -> str:
    """``value`` right-aligned in 12 characters: to 4 decimals while that
    fits, in exponent form (at most 12 characters) past it."""
    text = f"{value:.4f}"
    return f"{text:>12}" if len(text) <= 12 else f"{value:>12.4e}"


def cmd_diagnose(args, parser) -> int:
    ds, _ = _load_dataset(args.data, args.schema_path)
    if ds.labels is None:
        raise ValueError(f"{args.data}: schema declares no label column")
    report = evaluation.directionality_diagnostic(ds, tau=args.tau)
    print(f"{'attribute':<20} {'normal_mean':>12} {'anom_mean':>12} "
          f"{'difference':>12}  flagged")
    for entry in report:
        means = (entry.normal_mean, entry.anomalous_mean, entry.difference)
        print(
            f"{entry.name:<20} {' '.join(map(_mean_cell, means))}  "
            f"{'yes' if entry.flagged else 'no'}"
        )
    directions = {a.name: a.direction.value for a in ds.schema}
    suggestions = [
        e.name for e in report if e.flagged and directions[e.name] != "none"
    ]
    if suggestions:
        print("\nsuggested schema edits (not applied):")
        for name in suggestions:
            print(f"- {name},{directions[name]}")
            print(f"+ {name},none")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirad",
        description=(
            "Directional anomaly detection: NND/ALP detectors with absolute, "
            "ramp and signed distances"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help):
        """A subparser that reports its own usage errors."""
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "--config",
            help="key=value file supplying defaults; command-line flags win",
        )
        p.set_defaults(command_parser=p)
        return p

    p_synth = add_command("synth", "generate a synthetic benchmark dataset")
    p_synth.add_argument("--family", choices=synthgen.FAMILIES, required=True)
    p_synth.add_argument(
        "--shift", "--a", "--b", dest="shift", type=float, required=True,
        help="distribution shift: a in [0,1] (gaussian) or b in [0,0.5] (bernoulli)",
    )
    p_synth.add_argument("--n-train", type=int, default=1000)
    p_synth.add_argument("--n-test-normal", type=int, default=100)
    p_synth.add_argument("--n-test-anomalous", type=int, default=100)
    p_synth.add_argument("--m", type=int, default=10)
    p_synth.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p_synth.add_argument("--out", required=True, help="output directory")

    p_bench = add_command("bench", "cross-validation benchmark or synthetic sweep")
    p_bench.add_argument("--data", action="append", default=[],
                         help="labelled dataset CSV (repeatable)")
    p_bench.add_argument("--schema", action="append", default=[],
                         help="schema file for the matching --data (repeatable)")
    p_bench.add_argument("--sweep", choices=synthgen.FAMILIES,
                         help="sweep the synthetic shift grid instead of CV data")
    p_bench.add_argument("--shifts", help="comma-separated shift values (sweep)")
    p_bench.add_argument("--replicates", type=int,
                         help="datasets per shift value (sweep; default 10)")
    p_bench.add_argument("--no-scale", action="store_true",
                         help="skip midhinge/semi-IQR rescaling (sweep only)")
    p_bench.add_argument("--detectors", default="nnd",
                         help="comma list from {nnd, alp}")
    p_bench.add_argument("--variants",
                         help="shorthand applying one variant list to all detectors")
    p_bench.add_argument("--nnd-variants", default=",".join(NND_VARIANTS))
    p_bench.add_argument("--alp-variants", default=",".join(ALP_VARIANTS))
    p_bench.add_argument("--k", type=int, default=8, help="NND neighbour count")
    p_bench.add_argument("--alp-k", type=_auto_int, default=None,
                         help="ALP k ('auto' for the log default)")
    p_bench.add_argument("--alp-l", type=_auto_int, default=None,
                         help="ALP l ('auto' for the log default)")
    p_bench.add_argument("--folds", type=int, help="CV folds (--data; default 5)")
    p_bench.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p_bench.add_argument("--out-dir", required=True)

    p_score = add_command("score", "score query records")
    p_score.add_argument("--model", help="saved model bundle (.npz)")
    p_score.add_argument("--train", help="training CSV (fit path)")
    p_score.add_argument("--schema", dest="schema_path", help="schema file")
    unset = argparse.SUPPRESS  # see _FIT_DEFAULTS
    p_score.add_argument("--detector", choices=("nnd", "alp"), default=unset)
    p_score.add_argument("--variant", choices=NND_VARIANTS, default=unset)
    p_score.add_argument("--k", type=int, default=unset)
    p_score.add_argument("--alp-k", type=_auto_int, default=unset)
    p_score.add_argument("--alp-l", type=_auto_int, default=unset)
    p_score.add_argument("--save-model", help="persist the fitted bundle here")
    p_score.add_argument("--queries", required=True, help="query CSV")
    p_score.add_argument("--out", required=True, help="scores CSV")

    p_stats = add_command("stats", "signed-rank comparisons over results")
    p_stats.add_argument("--results", action="append", required=True,
                         help="summary CSV from bench (repeatable)")
    p_stats.add_argument("--detector", default="nnd")
    p_stats.add_argument("--compare", action="append", required=True,
                         help="GREATER:LESSER variant pair (repeatable)")
    p_stats.add_argument("--method", choices=("approx", "exact"), default="approx")
    p_stats.add_argument("--holm", action="store_true",
                         help="Holm-Bonferroni over the requested comparisons")
    p_stats.add_argument("--out", help="write the report CSV here")

    p_diag = add_command("diagnose", "per-attribute directionality report")
    p_diag.add_argument("--data", required=True)
    p_diag.add_argument("--schema", dest="schema_path", required=True)
    p_diag.add_argument("--tau", type=float, default=0.0,
                        help="flag attributes with anomalous mean <= normal mean + tau")

    return parser


_COMMANDS = {"synth": cmd_synth, "bench": cmd_bench, "score": cmd_score,
             "stats": cmd_stats, "diagnose": cmd_diagnose}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_config(_attach_numbers(argv)))
        return _COMMANDS[args.command](args, args.command_parser)
    except (ValueError, OSError, RuntimeError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
