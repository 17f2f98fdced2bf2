"""AUROC, the cross-validation protocol, and rank-based significance tests.

The CV protocol fits everything on normal data only: each fold trains the
scaler and the detector on four fifths of the normal records and scores a
test set made of the held-out fifth plus all anomalous records. A CV fold and
a generated sweep problem are both one problem for ``_problem_aurocs``: it is
oriented and scaled once, then every detector config is fitted and scored on
it, so all configs see the same folds, keeping the per-dataset AUROCs paired
as the signed-rank comparisons assume. Each model's ``neighbour_problem``
field names its search; each problem is searched once per fold or sweep
problem, at the largest width its models need, and each model cuts its own
prefix of that search. ``fit_detector`` and ``score_queries`` are the same
orient-and-scale path for one config, as ``dirad score`` uses. ``_scores``
rejects a NaN score, naming its query row.

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


def make_folds(n_normal: int, folds: int = 5, seed: int = 0) -> tuple:
    """Seeded shuffle split into near-equal contiguous test chunks.

    Returns one ``(train, test)`` pair of index arrays into the normal-record
    subset per fold; the test chunks partition it. The first
    ``n_normal % folds`` chunks take the remainder, so e.g. 11 records over 5
    folds give test sizes (3, 2, 2, 2, 2).
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if n_normal < folds:
        raise ValueError(
            f"need at least {folds} normal records for {folds}-fold CV, got {n_normal}"
        )
    chunks = np.array_split(np.random.default_rng(seed).permutation(n_normal), folds)
    return tuple(
        (np.concatenate(chunks[:f] + chunks[f + 1 :]), test)
        for f, test in enumerate(chunks)
    )


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


def fit_detector(config, train: Dataset):
    """Fit ``config`` on raw normal records; returns ``(scaler, model)``.

    The records are oriented (``low`` attributes negated), then the
    midhinge/semi-IQR scaler is fitted and applied.
    """
    scaler, train = _prepare_train(train, True)
    return scaler, config.fit(train)


def _scores(model, queries: np.ndarray, knn=None) -> np.ndarray:
    """``model.anomaly_scores(queries, knn)``; a NaN score, from distances
    that overflow to infinities with no limit, is a ValueError naming its row."""
    scores = model.anomaly_scores(queries, knn)
    nan = np.isnan(scores)
    if nan.any():
        row = int(np.argmax(nan)) + 1
        raise ValueError(f"query row {row} has an undefined score: its distances overflow")
    return scores


def score_queries(scaler, model, queries: Dataset) -> np.ndarray:
    """Anomaly scores of raw query records under ``fit_detector``'s result."""
    return _scores(model, _prepare_queries(scaler, queries).records)


def _neighbour_plans(models: Sequence, queries: np.ndarray) -> dict:
    """One query kNN per neighbour problem, keyed by ``neighbour_problem[:2]``.

    Models that search the same training columns under the same spec share a
    problem; the (distance, row index) order is total, so a narrower search is
    exactly the prefix of the widest one, which runs as its model's own
    ``query_knn``. One that raises is left out, so each of its models runs its
    own search and raises its own exception.
    """
    owners: dict = {}
    for model in models:
        problem = model.neighbour_problem
        if problem is not None and problem[2] > owners.get(problem[:2], (0, None))[0]:
            owners[problem[:2]] = (problem[2], model)
    plans = {}
    for key, (_, owner) in owners.items():
        try:
            plans[key] = owner.query_knn(queries)
        except Exception:
            pass
    return plans


def _problem_aurocs(train: Dataset, test: Dataset, configs: Sequence, scale: bool):
    """Fit every config on raw normals ``train``; AUROC on labelled raw ``test``.

    The problem is oriented and scaled once (``scale=False`` skips the
    rescaling), and each neighbour problem is searched once for every model
    (``_neighbour_plans``); each model scores on its problem's search.
    Returns one entry per config: its AUROC, or the exception its fit or
    scoring raised, so one failing config costs the others nothing. If
    preparing the problem fails, every config gets that exception.
    """
    try:
        scaler, train = _prepare_train(train, scale)
        queries = _prepare_queries(scaler, test).records
    except Exception as exc:
        return [exc] * len(configs)
    models: list = []
    for config in configs:
        try:
            models.append(config.fit(train))
        except Exception as exc:
            models.append(exc)
    plans = _neighbour_plans([m for m in models if not isinstance(m, Exception)], queries)
    outcomes: list = []
    for model in models:
        if isinstance(model, Exception):
            outcomes.append(model)
            continue
        problem = model.neighbour_problem
        try:
            scores = _scores(model, queries, plans.get(problem[:2]) if problem else None)
            outcomes.append(auroc(scores, test.labels))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def run_cv(dataset: Dataset, configs: Sequence, folds, dataset_id: str = "") -> list:
    """Cross-validated AUROCs of detector configs on a labelled dataset.

    Each of ``make_folds``'s folds is one ``_problem_aurocs`` problem: its
    training normals, then its held-out normals plus all anomalies. Returns
    one entry per config: an ``ExperimentResult`` of its fold AUROCs, or a
    ``RuntimeError`` naming the first fold it failed on. A dataset without
    labels or without both classes raises ``ValueError``.
    """
    if dataset.labels is None:
        raise ValueError("run_cv needs a labelled dataset")
    normal_idx = np.flatnonzero(~dataset.labels)
    anom_idx = np.flatnonzero(dataset.labels)
    if normal_idx.size == 0 or anom_idx.size == 0:
        raise ValueError("both classes must be present to run cross-validation")
    outcomes: list = [[] for _ in configs]  # fold AUROCs, or the failure
    for fold_num, (train_sel, test_sel) in enumerate(folds, start=1):
        live = [c for c, got in enumerate(outcomes) if isinstance(got, list)]
        train = dataset.take(normal_idx[train_sel])
        test = dataset.take(np.concatenate([normal_idx[test_sel], anom_idx]))
        aurocs = _problem_aurocs(train, test, [configs[c] for c in live], scale=True)
        for c, value in zip(live, aurocs):
            if isinstance(value, Exception):
                outcomes[c] = RuntimeError(
                    f"fold {fold_num}/{len(folds)} of {dataset_id or 'dataset'} "
                    f"failed: {value}"
                )
            else:
                outcomes[c].append(value)
    return [
        got if isinstance(got, Exception) else ExperimentResult(
            dataset_id, config.detector, config.variant.value,
            tuple(got), float(np.mean(got)),
        )
        for config, got in zip(configs, outcomes)
    ]


def synthetic_auroc(spec: SynthSpec, configs: Sequence, scale: bool = True) -> list:
    """AUROC of every config on one generated problem: ``_problem_aurocs`` on
    ``generate(spec)``'s training normals and test set."""
    train, test = generate(spec)
    return _problem_aurocs(train, test, configs, scale)


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
