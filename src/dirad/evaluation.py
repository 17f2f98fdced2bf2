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
average-rank helper equal bit for bit to ``scipy.stats.rankdata``, and the
signed-rank test's normal tail is ``_ndtr``, a port of Cephes' ``ndtr`` equal
bit for bit to ``scipy.special.ndtr``. So the module runs on NumPy alone;
SciPy is only the reference its tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Sequence

import numpy as np

from .dataset import Dataset, ScalingParams, apply_scaler, csv_text, fit_scaler, orient
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
    ``query_knn``. It carries the neighbours' indices exactly when some model
    of the problem ``reads_indices`` (ALP); a problem of NND models alone is
    searched for distances only. One that raises is left out, so each of its
    models runs its own search and raises its own exception.
    """
    groups: dict = {}
    for model in models:
        if model.neighbour_problem is not None:
            groups.setdefault(model.neighbour_problem[:2], []).append(model)
    plans = {}
    for key, group in groups.items():
        owner = max(group, key=lambda model: model.neighbour_problem[2])
        try:
            plans[key] = owner.query_knn(
                queries, indices=any(model.reads_indices for model in group)
            )
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
    # ndtr(-z) is the upper normal tail, the same value as stats.norm.sf(z).
    return min(_ndtr(float(-z)), 1.0)


# Cephes' ndtr, erf and erfc (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), the routines scipy.special.ndtr runs: the
# same coefficients, Horner order and branches give the same bits, as long as
# math.exp is the libm exp SciPy calls.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log(2**1024)
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: float, coef: tuple) -> float:
    """Cephes' ``polevl``: the polynomial with coefficients ``coef``, highest
    degree first, in Horner order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """Cephes' ``p1evl``: ``_polevl`` with a leading coefficient of 1 left out."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes' ``erf``; ``_ndtr`` calls it only for |x| < 1."""
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a: float) -> float:
    """Cephes' ``erfc``, 0 or 2 past its underflow; ``_ndtr`` calls it only
    for a > 0."""
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        p, q = (_polevl(x, _P), _p1evl(x, _Q)) if x < 8.0 else (_polevl(x, _R), _p1evl(x, _S))
        y = math.exp(z) * p / q
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0  # underflow


def _ndtr(a: float) -> float:
    """The standard normal CDF at ``a``, bit for bit ``scipy.special.ndtr(a)``;
    NaN gives NaN."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


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
    if not np.isfinite(tau):  # NaN would flag nothing, and inf everything
        raise ValueError(f"tau must be a finite number, got {tau!r}")
    dataset = orient(dataset)
    lab = dataset.labels
    if not lab.any() or lab.all():
        raise ValueError("both classes must be present for the diagnostic")
    normal_means = _column_means(dataset.records[~lab])
    anom_means = _column_means(dataset.records[lab])
    report = []
    # A difference or a tau-shifted mean past the float range reads +-inf.
    with np.errstate(over="ignore"):
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


def _column_means(records: np.ndarray) -> np.ndarray:
    """Column means of finite records. A column whose sum passes the float
    range is summed scaled down by 2**e, e = ceil(log2 n), divided by n and
    scaled back with ``np.ldexp``: each term is at most max / 2**e <= max / n,
    so the sum stays in range, and a power-of-two scale moves no rounding."""
    n = len(records)
    with np.errstate(over="ignore"):
        means = records.mean(axis=0)
    over = np.isinf(means)
    e = (n - 1).bit_length()
    means[over] = np.ldexp(np.ldexp(records[:, over], -e).sum(axis=0) / n, e)
    return means


def fold_results_csv(results: Sequence[ExperimentResult]) -> str:
    """One row per (dataset, detector, variant, fold), plus mean rows."""
    rows = []
    for r in results:
        key = (r.dataset_id, r.detector, r.variant)
        rows += [(*key, f, v) for f, v in enumerate(r.fold_aurocs, start=1)]
        rows.append((*key, "mean", r.mean_auroc))
    return csv_text(("dataset", "detector", "variant", "fold", "auroc"), rows)


def summary_csv(results: Sequence[ExperimentResult]) -> str:
    return csv_text(
        ("dataset", "detector", "variant", "mean_auroc"),
        ((r.dataset_id, r.detector, r.variant, r.mean_auroc) for r in results),
    )


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
    """One row per cell, its fields in declaration order."""
    return csv_text([f.name for f in fields(SweepCell)], map(astuple, cells))
