"""AUROC, the cross-validation protocol, and rank-based significance tests.

The CV protocol fits everything on normal data only: each fold trains the
scaler and the detector on four fifths of the normal records and scores a
test set made of the held-out fifth plus all anomalous records. Reusing one
FoldPlan across detector variants keeps the per-dataset AUROCs paired, which
is what the signed-rank comparisons assume. ``fit_detector`` and
``score_queries`` are the one raw-records-to-scores path (orient, scale, fit,
score) shared by the CV protocol and ``dirad score``; the synthetic sweep
orients and scales through the same two helpers, once per generated problem
for all of its detector configs.

AUROC and the signed-rank test rank with ``_average_ranks``, a NumPy
average-rank helper equal bit for bit to ``scipy.stats.rankdata``. SciPy is
imported only inside the signed-rank test's normal approximation, so
importing this module (and every CLI command but ``dirad stats``) does not
load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, ScalingParams, apply_scaler, fit_scaler, orient
from .synthgen import SynthSpec, generate


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a float vector, ties given the mean of their ranks.

    Equal to ``scipy.stats.rankdata(values)`` bit for bit: -0.0 ties with
    +0.0, infinities tie with themselves, and any NaN makes every rank NaN.
    """
    n = values.size
    if np.isnan(values).any():
        return np.full(n, np.nan)
    order = np.argsort(values, kind="stable")
    xs = values[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], n)
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(scores, labels) -> float:
    """Probability that an anomaly outscores a normal record, ties half-credited.

    Computed from rank sums (Mann-Whitney U); exactly equal to the pairwise
    count (wins + 0.5*ties) / (n_anomalous * n_normal).
    """
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels, dtype=bool)
    if s.ndim != 1 or s.shape != lab.shape:
        raise ValueError("scores and labels must be equal-length vectors")
    n_anom = int(lab.sum())
    n_norm = lab.size - n_anom
    if n_anom == 0 or n_norm == 0:
        raise ValueError("both classes must be present to compute AUROC")
    ranks = _average_ranks(s)
    u = ranks[lab].sum() - n_anom * (n_anom + 1) / 2.0
    return float(u / (n_anom * n_norm))


@dataclass(frozen=True)
class FoldPlan:
    """Disjoint, exhaustive test chunks over the normal records.

    Each fold is a pair (train, test) of index arrays into the normal-record
    subset; the test chunks partition it.
    """

    folds: tuple[tuple[np.ndarray, np.ndarray], ...]
    seed: int


def make_folds(n_normal: int, folds: int = 5, seed: int = 0) -> FoldPlan:
    """Seeded shuffle split into near-equal contiguous chunks.

    The first ``n_normal % folds`` chunks take the remainder, so e.g. 11
    records over 5 folds give test sizes (3, 2, 2, 2, 2).
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if n_normal < folds:
        raise ValueError(
            f"need at least {folds} normal records for {folds}-fold CV, got {n_normal}"
        )
    perm = np.random.default_rng(seed).permutation(n_normal)
    base, rem = divmod(n_normal, folds)
    plan = []
    start = 0
    for f in range(folds):
        size = base + (1 if f < rem else 0)
        test = perm[start : start + size]
        train = np.concatenate([perm[:start], perm[start + size :]])
        plan.append((train, test))
        start += size
    return FoldPlan(tuple(plan), seed)


@dataclass(frozen=True)
class ExperimentResult:
    dataset_id: str
    detector: str
    variant: str
    fold_aurocs: tuple[float, ...]
    mean_auroc: float


def _prepare_train(train: Dataset, scale: bool) -> tuple[ScalingParams | None, Dataset]:
    """Orient raw normal records, then fit and apply the scaler unless
    ``scale`` is false: ``(scaler or None, records ready to fit on)``."""
    train = orient(train)
    if not scale:
        return None, train
    scaler = fit_scaler(train)
    return scaler, apply_scaler(train, scaler)


def _prepare_queries(scaler: ScalingParams | None, queries: Dataset) -> Dataset:
    """Raw query records oriented and scaled as ``_prepare_train`` did."""
    queries = orient(queries)
    return queries if scaler is None else apply_scaler(queries, scaler)


def fit_detector(config, train: Dataset, scale: bool = True):
    """Fit ``config`` on raw normal records; returns ``(scaler, model)``.

    The records are oriented (``low`` attributes negated), then the
    midhinge/semi-IQR scaler is fitted and applied; ``scale=False`` skips the
    scaler and returns ``None`` in its place.
    """
    scaler, train = _prepare_train(train, scale)
    return scaler, config.fit(train)


def score_queries(scaler, model, queries: Dataset) -> np.ndarray:
    """Anomaly scores of raw query records under ``fit_detector``'s result."""
    return model.anomaly_scores(_prepare_queries(scaler, queries).records)


def run_cv(
    dataset: Dataset, config, plan: FoldPlan, dataset_id: str = ""
) -> ExperimentResult:
    """Cross-validated AUROC of a detector configuration on a labelled dataset.

    Per fold: ``fit_detector`` on the fold's raw training normals, then
    ``score_queries`` on the held-out normals plus all anomalies.
    """
    if dataset.labels is None:
        raise ValueError("run_cv needs a labelled dataset")
    normal_idx = np.flatnonzero(~dataset.labels)
    anom_idx = np.flatnonzero(dataset.labels)
    if normal_idx.size == 0 or anom_idx.size == 0:
        raise ValueError("both classes must be present to run cross-validation")
    fold_aurocs = []
    for fold_num, (train_sel, test_sel) in enumerate(plan.folds, start=1):
        try:
            scaler, model = fit_detector(config, dataset.take(normal_idx[train_sel]))
            test = dataset.take(np.concatenate([normal_idx[test_sel], anom_idx]))
            fold_aurocs.append(auroc(score_queries(scaler, model, test), test.labels))
        except Exception as exc:
            raise RuntimeError(
                f"fold {fold_num}/{len(plan.folds)} of {dataset_id or 'dataset'} "
                f"failed: {exc}"
            ) from exc
    return ExperimentResult(
        dataset_id,
        config.detector,
        config.variant.value,
        tuple(fold_aurocs),
        float(np.mean(fold_aurocs)),
    )


def synthetic_auroc(spec: SynthSpec, configs: Sequence, scale: bool = True) -> list:
    """Train on a generated dataset's normals, score its test set, AUROC.

    The problem is generated, oriented and scaled once (``scale=False`` skips
    the midhinge/semi-IQR rescaling), then every config in ``configs`` is
    fitted and scored on it. Returns one entry per config: its AUROC, or the
    exception its fit or scoring raised, so that one failing config costs the
    others nothing.
    """
    train, test = generate(spec)
    scaler, train = _prepare_train(train, scale)
    queries = _prepare_queries(scaler, test).records
    outcomes: list = []
    for config in configs:
        try:
            scores = config.fit(train).anomaly_scores(queries)
            outcomes.append(auroc(scores, test.labels))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def wilcoxon_one_sided(x, y, method: str = "approx") -> float:
    """One-sided Wilcoxon signed-rank p-value for H1: median(x - y) > 0.

    Zero differences are discarded and tied absolute differences receive
    average ranks. The default is the normal approximation with tie and
    continuity corrections, applied regardless of sample size; pass
    method="exact" for the permutation null over sign assignments (exact also
    with average ranks).
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    if method not in ("approx", "exact"):
        raise ValueError(f"method must be 'approx' or 'exact', got {method!r}")
    d = xa - ya
    d = d[d != 0]
    n = d.size
    if n < 5:
        raise ValueError(
            f"need at least 5 nonzero differences for the signed-rank test, got {n}"
        )
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if method == "exact":
        # DP over doubled ranks (integers even with averaged ties): number of
        # sign assignments with statistic >= w_plus, out of 2**n.
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        total = int(doubled.sum())
        counts = [0] * (total + 1)
        counts[0] = 1
        for r in doubled:
            for s in range(total, r - 1, -1):
                counts[s] += counts[s - r]
        threshold = int(round(2.0 * w_plus))
        ge = sum(counts[threshold:])
        return ge / (1 << n)

    mean = n * (n + 1) / 4.0
    _, tie_sizes = np.unique(ranks, return_counts=True)
    tie_term = float((tie_sizes**3 - tie_sizes).sum()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0:
        raise ValueError("zero variance: all differences are tied away")
    z = (w_plus - mean - 0.5) / np.sqrt(var)
    # ndtr(-z) is the upper normal tail, the same value as stats.norm.sf(z);
    # imported here so that only this branch loads SciPy.
    from scipy.special import ndtr

    return float(min(ndtr(-z), 1.0))


def holm_bonferroni(pvals) -> np.ndarray:
    """Step-down adjustment; output aligned with the input order.

    The i-th smallest p is scaled by (m - i + 1), running maxima enforce
    monotonicity, and everything is capped at 1.
    """
    p = np.asarray(pvals, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pvals must be a non-empty vector")
    if not np.all((p > 0) & (p <= 1)):  # NaN fails both comparisons
        raise ValueError("p-values must lie in (0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m, dtype=np.float64)
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, min(1.0, (m - rank) * p[idx]))
        adjusted[idx] = running
    return adjusted


@dataclass(frozen=True)
class AttributeDiagnostic:
    name: str
    normal_mean: float
    anomalous_mean: float
    difference: float
    flagged: bool


def directionality_diagnostic(
    dataset: Dataset, tau: float = 0.0
) -> tuple[AttributeDiagnostic, ...]:
    """Compare class means per attribute; flag weakly directional candidates.

    The means are in oriented coordinates (``low`` attributes negated), so an
    attribute is flagged when the anomalous mean does not exceed the normal
    mean by more than tau in its declared direction. Report only - the schema
    is never modified.
    """
    if dataset.labels is None:
        raise ValueError("the diagnostic needs a labelled dataset")
    dataset = orient(dataset)
    lab = dataset.labels
    if not lab.any() or lab.all():
        raise ValueError("both classes must be present for the diagnostic")
    normal_means = dataset.records[~lab].mean(axis=0)
    anom_means = dataset.records[lab].mean(axis=0)
    report = []
    for j, attr in enumerate(dataset.schema):
        diff = float(anom_means[j] - normal_means[j])
        report.append(
            AttributeDiagnostic(
                attr.name,
                float(normal_means[j]),
                float(anom_means[j]),
                diff,
                anom_means[j] <= normal_means[j] + tau,
            )
        )
    return tuple(report)


def fold_results_csv(results: Sequence[ExperimentResult]) -> str:
    """One row per (dataset, detector, variant, fold), plus mean rows."""
    lines = ["dataset,detector,variant,fold,auroc"]
    for r in results:
        for f, value in enumerate(r.fold_aurocs, start=1):
            lines.append(f"{r.dataset_id},{r.detector},{r.variant},{f},{value!r}")
        lines.append(f"{r.dataset_id},{r.detector},{r.variant},mean,{r.mean_auroc!r}")
    return "\n".join(lines) + "\n"


def summary_csv(results: Sequence[ExperimentResult]) -> str:
    lines = ["dataset,detector,variant,mean_auroc"]
    for r in results:
        lines.append(f"{r.dataset_id},{r.detector},{r.variant},{r.mean_auroc!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SweepCell:
    """Mean AUROC over the replicates of one (family, shift, detector) cell."""

    family: str
    shift: float
    detector: str
    k: int | str
    variant: str
    replicates: int
    mean_auroc: float


def sweep_csv(cells: Sequence[SweepCell]) -> str:
    lines = ["family,shift,detector,k,variant,replicates,mean_auroc"]
    for c in cells:
        lines.append(
            f"{c.family},{c.shift!r},{c.detector},{c.k},{c.variant},"
            f"{c.replicates},{c.mean_auroc!r}"
        )
    return "\n".join(lines) + "\n"
