"""Command-line entry point for reproducible experiment runs.

Subcommands: synth (generate benchmark data), bench (cross-validation or
synthetic sweeps), score (fit or load a model and score queries), stats
(signed-rank comparisons over result tables), diagnose (directionality
report). Every command is deterministic given its flags; outputs are written
atomically (write-then-rename). bench and score go from raw records to
scores only through ``evaluation.fit_detector`` and ``score_queries``, or
``synthetic_auroc`` for a sweep, which share one orient-and-scale path. A
bundle saved by ``score --save-model`` carries the schema as read and its
label rule, so ``score --model`` needs no ``--schema``.

Environment: DIRAD_THREADS caps the bench worker threads (a positive
integer, default 1).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import evaluation, synthgen
from .alp import AlpConfig
# orient, fit_scaler and apply_scaler are unused; perfbench's tracer wraps them here.
from .dataset import (  # noqa: F401
    Dataset,
    LabelRule,
    apply_scaler,
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
from .persist import load_model, save_model

DEFAULT_SEED = 0

NND_VARIANTS = ("absolute", "ramp", "signed")
ALP_VARIANTS = ("absolute", "ramp")


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _thread_count() -> int:
    raw = os.environ.get("DIRAD_THREADS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"DIRAD_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"DIRAD_THREADS must be >= 1, got {value}")
    return value


def _merge_config(argv: list[str]) -> list[str]:
    """Prepend key=value pairs from --config (or --config=) as flags; real
    flags win, given as ``--flag value`` or ``--flag=value``."""
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
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        flag = "--" + key.strip().replace("_", "-")
        if flag in keys:
            continue
        value = value.strip()
        if value.lower() in ("true", "yes", "1") and flag in _BOOL_FLAGS:
            prefix.append(flag)
        elif value.lower() in ("false", "no", "0") and flag in _BOOL_FLAGS:
            pass
        else:
            prefix.extend([flag, value])
    # Insert after the subcommand token so argparse routes them correctly.
    return argv[:1] + prefix + argv[1:]


_BOOL_FLAGS = {"--holm", "--no-scale"}


def _csv_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _auto_int(text: str):
    return None if text.strip().lower() == "auto" else int(text)


def _parsed(path, parse, text: str, *args):
    """``parse(text, *args)`` for the text read from ``path``; an error it
    raises names the file, e.g. ``big.csv: field larger than field limit``."""
    try:
        return parse(text, *args)
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_dataset(data_path: str, schema_path: str) -> tuple[Dataset, LabelRule | None]:
    schema_text = Path(schema_path).read_text(encoding="utf-8")
    schema, rule = _parsed(schema_path, parse_schema, schema_text)
    text = Path(data_path).read_text(encoding="utf-8")
    return _parsed(data_path, parse_csv, text, schema, rule), rule


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
    detectors = _csv_list(args.detectors)
    for d in detectors:
        if d not in ("nnd", "alp"):
            parser.error(f"unknown detector {d!r}")
    if args.variants is not None:
        nnd_variants = alp_variants = _csv_list(args.variants)
    else:
        nnd_variants = _csv_list(args.nnd_variants)
        alp_variants = _csv_list(args.alp_variants)
    cells = []
    if "nnd" in detectors:
        for v in nnd_variants:
            if v not in NND_VARIANTS:
                parser.error(f"unknown NND variant {v!r}")
            cells.append(_detector_config("nnd", v, args))
    if "alp" in detectors:
        for v in alp_variants:
            if v not in ALP_VARIANTS:
                parser.error(
                    f"variant {v!r} cannot be used with ALP (allowed: "
                    f"{', '.join(ALP_VARIANTS)})"
                )
            cells.append(_detector_config("alp", v, args))
    return cells


def _run_cells(jobs, worker):
    """Run jobs (serially or thread-pooled) in submission order; returns the
    results and ``(job, exc)`` for each job that raised."""

    def attempt(job):
        try:
            return worker(job), None
        except Exception as exc:  # a failed cell is reported, the run goes on
            return None, exc

    threads = _thread_count()
    if threads == 1:
        outcomes = [attempt(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(attempt, jobs))
    results = [result for result, exc in outcomes if exc is None]
    failures = [(job, exc) for job, (_, exc) in zip(jobs, outcomes) if exc is not None]
    return results, failures


def _print_cv_table(results: list[ExperimentResult]) -> None:
    datasets = sorted({r.dataset_id for r in results})
    columns = sorted({(r.detector, r.variant) for r in results})
    means = {(r.dataset_id, r.detector, r.variant): r.mean_auroc for r in results}
    headers = (
        ["dataset"]
        + [f"{d}:{v}" for d, v in columns]
        + ["best_nnd", "best_alp"]
    )
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
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
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

    jobs = []
    for ds_id, ds in datasets:
        n_normal = int((~ds.labels).sum())
        plan = make_folds(n_normal, folds=args.folds, seed=args.seed)
        for config in cells:
            jobs.append((ds_id, ds, config, plan))

    def worker(job):
        ds_id, ds, config, plan = job
        return run_cv(ds, config, plan, dataset_id=ds_id)

    results, failures = _run_cells(jobs, worker)
    out_dir = Path(args.out_dir)
    _write_atomic(out_dir / "folds.csv", fold_results_csv(results))
    _write_atomic(out_dir / "summary.csv", summary_csv(results))
    if results:
        _print_cv_table(results)
    print(f"wrote folds.csv and summary.csv to {out_dir}")
    for (ds_id, _, config, _), exc in failures:
        print(
            f"cell failed: dataset={ds_id} detector="
            f"{config.detector}:{config.variant.value}: {exc}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _bench_sweep(args, cells) -> int:
    shifts = (
        [float(s) for s in _csv_list(args.shifts)]
        if args.shifts
        else synthgen.default_shifts(args.sweep)
    )
    specs = synthgen.grid(args.sweep, shifts, args.replicates, base_seed=args.seed)

    def worker(i):
        return i, synthetic_auroc(specs[i], cells, scale=not args.no_scale)

    # One job per (shift, replicate) problem: it is generated, oriented and
    # scaled once, then every config is fitted and scored on it.
    results, failures = _run_cells(range(len(specs)), worker)
    outcomes = dict(results)
    # A problem that failed as a whole fails every config on it.
    outcomes.update((i, [exc] * len(cells)) for i, exc in failures)
    reps = args.replicates
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


def cmd_bench(args, parser) -> int:
    cells = _detector_configs(args, parser)
    if args.sweep is not None:
        return _bench_sweep(args, cells)
    if not args.data:
        parser.error("either --sweep or at least one --data/--schema pair is required")
    return _bench_cv(args, cells)


# ---------------------------------------------------------------------------
# score


def _fit_from_args(args, parser):
    if not (args.train and args.schema_path):
        parser.error("--train and --schema are required when --model is not given")
    ds, rule = _load_dataset(args.train, args.schema_path)
    if ds.labels is not None:
        ds = ds.take(np.flatnonzero(~ds.labels))  # fit on normal records only
    config = _detector_config(args.detector, args.variant, args)
    scaler, model = fit_detector(config, ds)
    return model, scaler, ds.schema, rule


def cmd_score(args, parser) -> int:
    if args.model:
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
            save_model(args.save_model, model, scaler, schema, rule)
            print(f"saved model to {args.save_model}")

    text = Path(args.queries).read_text(encoding="utf-8")
    if not text.strip():
        _write_atomic(Path(args.out), "row,score\n")
        print(f"wrote 0 scores to {args.out}")
        return 0
    if args.model and args.schema_path:
        schema_text = Path(args.schema_path).read_text(encoding="utf-8")
        _, rule = _parsed(args.schema_path, parse_schema, schema_text)
    queries = _parsed(args.queries, parse_csv, text, schema, rule)
    scores = score_queries(scaler, model, queries)
    lines = ["row,score"] + [
        f"{i},{float(s)!r}" for i, s in enumerate(scores, start=1)
    ]
    _write_atomic(Path(args.out), "\n".join(lines) + "\n")
    print(f"wrote {len(scores)} scores to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# stats


_SUMMARY_COLUMNS = ("detector", "variant", "dataset", "mean_auroc")


def _read_summary(paths) -> dict:
    table: dict = {}
    for path in paths:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or ()
            missing = [c for c in _SUMMARY_COLUMNS if c not in header]
            if missing:
                raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
            for row in reader:
                values = [row[c] for c in _SUMMARY_COLUMNS]
                if None in values:
                    raise ValueError(f"{path}: line {reader.line_num} is too short")
                detector, variant, dataset, auroc = values
                try:
                    mean = float(auroc)
                except ValueError:
                    mean = float("nan")
                if not np.isfinite(mean):
                    raise ValueError(
                        f"{path}: line {reader.line_num}: mean_auroc must be a "
                        f"finite number, got {auroc!r}"
                    )
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
        comparisons.append((greater, lesser, len(shared), p))

    adjusted = (
        holm_bonferroni([c[3] for c in comparisons]) if args.holm else None
    )
    lines = ["detector,greater,lesser,n,p,holm_p"]
    for i, (greater, lesser, n, p) in enumerate(comparisons):
        holm_p = adjusted[i] if adjusted is not None else ""
        print(
            f"p({args.detector} {greater} > {lesser}) = {p:.6g}  (n={n})"
            + (f"  holm={adjusted[i]:.6g}" if adjusted is not None else "")
        )
        lines.append(
            f"{args.detector},{greater},{lesser},{n},{p!r},"
            + (f"{float(holm_p)!r}" if adjusted is not None else "")
        )
    if args.out:
        _write_atomic(Path(args.out), "\n".join(lines) + "\n")
        print(f"wrote report to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# diagnose


def cmd_diagnose(args, parser) -> int:
    ds, _ = _load_dataset(args.data, args.schema_path)
    if ds.labels is None:
        raise ValueError(f"{args.data}: schema declares no label column")
    report = evaluation.directionality_diagnostic(ds, tau=args.tau)
    print(f"{'attribute':<20} {'normal_mean':>12} {'anom_mean':>12} "
          f"{'difference':>12}  flagged")
    for entry in report:
        print(
            f"{entry.name:<20} {entry.normal_mean:>12.4f} "
            f"{entry.anomalous_mean:>12.4f} {entry.difference:>12.4f}  "
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

    def add_config(p):
        p.add_argument(
            "--config",
            help="key=value file supplying defaults; command-line flags win",
        )

    p_synth = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    add_config(p_synth)
    p_synth.add_argument("--family", choices=synthgen.FAMILIES, required=True)
    p_synth.add_argument(
        "--shift", "--a", "--b", dest="shift", type=float, required=True,
        help="distribution shift: a in [0,1] (gaussian) or b in [0,0.5] (bernoulli)",
    )
    p_synth.add_argument("--n-train", type=int, default=1000)
    p_synth.add_argument("--n-test-normal", type=int, default=100)
    p_synth.add_argument("--n-test-anomalous", type=int, default=100)
    p_synth.add_argument("--m", type=int, default=10)
    p_synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_synth.add_argument("--out", required=True, help="output directory")

    p_bench = sub.add_parser(
        "bench", help="cross-validation benchmark or synthetic sweep"
    )
    add_config(p_bench)
    p_bench.add_argument("--data", action="append", default=[],
                         help="labelled dataset CSV (repeatable)")
    p_bench.add_argument("--schema", action="append", default=[],
                         help="schema file for the matching --data (repeatable)")
    p_bench.add_argument("--sweep", choices=synthgen.FAMILIES,
                         help="sweep the synthetic shift grid instead of CV data")
    p_bench.add_argument("--shifts", help="comma-separated shift values (sweep)")
    p_bench.add_argument("--replicates", type=int, default=10,
                         help="datasets per shift value (sweep)")
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
    p_bench.add_argument("--folds", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_bench.add_argument("--out-dir", required=True)

    p_score = sub.add_parser("score", help="score query records")
    add_config(p_score)
    p_score.add_argument("--model", help="saved model bundle (.npz)")
    p_score.add_argument("--train", help="training CSV (fit path)")
    p_score.add_argument("--schema", dest="schema_path", help="schema file")
    p_score.add_argument("--detector", choices=("nnd", "alp"), default="nnd")
    p_score.add_argument("--variant", choices=NND_VARIANTS, default="ramp")
    p_score.add_argument("--k", type=int, default=8)
    p_score.add_argument("--alp-k", type=_auto_int, default=None)
    p_score.add_argument("--alp-l", type=_auto_int, default=None)
    p_score.add_argument("--save-model", help="persist the fitted bundle here")
    p_score.add_argument("--queries", required=True, help="query CSV")
    p_score.add_argument("--out", required=True, help="scores CSV")

    p_stats = sub.add_parser("stats", help="signed-rank comparisons over results")
    add_config(p_stats)
    p_stats.add_argument("--results", action="append", required=True,
                         help="summary CSV from bench (repeatable)")
    p_stats.add_argument("--detector", default="nnd")
    p_stats.add_argument("--compare", action="append", required=True,
                         help="GREATER:LESSER variant pair (repeatable)")
    p_stats.add_argument("--method", choices=("approx", "exact"), default="approx")
    p_stats.add_argument("--holm", action="store_true",
                         help="Holm-Bonferroni over the requested comparisons")
    p_stats.add_argument("--out", help="write the report CSV here")

    p_diag = sub.add_parser("diagnose", help="per-attribute directionality report")
    add_config(p_diag)
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
        args = parser.parse_args(_merge_config(argv))
        return _COMMANDS[args.command](args, parser)
    except (ValueError, OSError, RuntimeError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
