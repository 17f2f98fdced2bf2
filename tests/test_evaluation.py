import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dirad import evaluation, neighbours
from dirad.alp import AlpConfig
from dirad.dataset import AttributeSpec, Dataset, Direction
from dirad.distance import DistanceVariant, distance_matrix
from dirad.evaluation import (
    ExperimentResult,
    _average_ranks,
    _neighbour_plans,
    _prepare_train,
    auroc,
    directionality_diagnostic,
    fit_detector,
    fold_results_csv,
    holm_bonferroni,
    make_folds,
    run_cv,
    score_queries,
    summary_csv,
    synthetic_auroc,
    wilcoxon_one_sided,
)
from dirad.nnd import NndConfig, _knn_prefix
from dirad.synthgen import SynthSpec, replicate_seed


def pairwise_auroc(scores, labels):
    """Brute-force pairwise count: wins plus half-credited ties."""
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels, dtype=bool)
    anom, norm = s[lab], s[~lab]
    wins = np.sum(anom[:, None] > norm[None, :])
    ties = np.sum(anom[:, None] == norm[None, :])
    return (wins + 0.5 * ties) / (anom.size * norm.size)


# Rounded values tie often; the specials cover -0.0 next to +0.0 and +-inf.
rank_values = st.one_of(
    st.floats(-4.0, 4.0).map(lambda v: round(v, 1)),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
    st.floats(allow_nan=False),
)


@st.composite
def rank_vectors(draw, with_nan=False):
    """A shuffled vector with repeated entries, and a NaN if ``with_nan``."""
    values = draw(st.lists(rank_values, min_size=int(with_nan), max_size=40))
    if values:
        values += draw(st.lists(st.sampled_from(values), max_size=10))
    if with_nan:
        values[draw(st.integers(0, len(values) - 1))] = np.nan
    return np.array(draw(st.permutations(values)), dtype=np.float64)


def reference_wilcoxon(x, y, method):
    """The signed-rank p-value from scipy's ranks and normal tail; the exact
    null enumerates all 2**n sign assignments."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    d = d[d != 0]
    n = d.size
    ranks = stats.rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if method == "exact":
        signs = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        return int(((signs * ranks).sum(axis=1) >= w_plus).sum()) / (1 << n)
    _, tie_sizes = np.unique(ranks, return_counts=True)
    tie_term = float((tie_sizes**3 - tie_sizes).sum()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    z = (w_plus - n * (n + 1) / 4.0 - 0.5) / np.sqrt(var)
    return float(min(stats.norm.sf(z), 1.0))


class FakeConfig:
    """The smallest detector config run_cv accepts: ``fit`` returns a model
    that runs no kNN and whose ``anomaly_scores`` is ``score(queries)``."""

    detector = "fake"
    variant = DistanceVariant.ABSOLUTE
    neighbour_problem = None

    def __init__(self, score):
        self.score = score

    def fit(self, train):
        return self

    def anomaly_scores(self, queries, knn=None):
        return self.score(queries)


class KeepModels:
    """A detector config whose ``fit`` delegates to ``config`` and keeps each
    model it returns."""

    def __init__(self, config):
        self.config, self.models = config, []

    def __getattr__(self, name):
        return getattr(self.config, name)

    def fit(self, train):
        self.models.append(self.config.fit(train))
        return self.models[-1]


def fitted_per_fold(monkeypatch, dataset, config, plan):
    """Each fold's (scaler, model) as ``run_cv`` used them: the scaler from a
    spy on ``evaluation._prepare_train``, the model from ``config.fit``."""
    scalers = []

    def spy(train, scale):
        prepared = _prepare_train(train, scale)
        scalers.append(prepared[0])
        return prepared

    monkeypatch.setattr(evaluation, "_prepare_train", spy)
    keep = KeepModels(config)
    (result,) = run_cv(dataset, [keep], plan)
    assert isinstance(result, ExperimentResult)
    assert len(scalers) == len(keep.models) == len(plan)
    return list(zip(scalers, keep.models))


def labelled_gaussian(seed, n_normal=40, n_anom=15, m=3, shift=1.0):
    rng = np.random.default_rng(seed)
    schema = tuple(AttributeSpec(f"x{j}", Direction.HIGH) for j in range(m))
    records = np.vstack(
        [rng.standard_normal((n_normal, m)), rng.standard_normal((n_anom, m)) + shift]
    )
    labels = np.r_[np.zeros(n_normal, dtype=bool), np.ones(n_anom, dtype=bool)]
    return Dataset(schema, records, labels)


class TestAverageRanks:
    @settings(max_examples=300, deadline=None)
    @given(rank_vectors())
    @example(np.array([np.inf, 0.0, -np.inf, -0.0, np.inf, 1.0]))
    def test_equals_scipy_rankdata_bitwise(self, values):
        ours = _average_ranks(values)
        ref = stats.rankdata(values)
        assert ours.dtype == ref.dtype == np.float64
        assert ours.tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(rank_vectors(with_nan=True))
    def test_any_nan_makes_every_rank_nan(self, values):
        ours = _average_ranks(values)
        assert ours.shape == values.shape
        assert np.isnan(ours).all()
        assert np.isnan(stats.rankdata(values)).all()


class TestAuroc:
    def test_worked_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [False, False, True, True]) == 0.75

    def test_perfect_separation(self):
        assert auroc([1, 2, 9, 8], [False, False, True, True]) == 1.0

    def test_all_ties(self):
        assert auroc([3.0, 3.0, 3.0], [False, True, True]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auroc([1.0, 2.0], [True, True])

    def test_nan_score_gives_nan(self):
        assert np.isnan(auroc([0.1, np.nan, 0.3, 0.8], [False, False, True, True]))

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            # Quantised scores force plenty of exact ties.
            scores = np.round(rng.standard_normal(n), 1)
            assert auroc(scores, labels) == pairwise_auroc(scores, labels)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(47)
        scores = rng.standard_normal(80)
        labels = rng.random(80) < 0.4
        squashed = 0.5 * scores / (np.abs(scores) + 1) + 0.5
        assert auroc(scores, labels) == auroc(squashed, labels)

    def test_complement_under_negation(self):
        rng = np.random.default_rng(53)
        scores = rng.standard_normal(60)  # continuous, no ties
        labels = rng.random(60) < 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        assert auroc(scores, labels) + auroc(-scores, labels) == pytest.approx(1.0)


class TestMakeFolds:
    def test_even_split(self):
        plan = make_folds(10, 5, seed=0)
        assert [len(test) for _, test in plan] == [2, 2, 2, 2, 2]

    def test_remainder_goes_to_leading_folds(self):
        plan = make_folds(11, 5, seed=0)
        assert [len(test) for _, test in plan] == [3, 2, 2, 2, 2]

    def test_deterministic(self):
        a = make_folds(23, 5, seed=9)
        b = make_folds(23, 5, seed=9)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)

    def test_partition_and_disjointness(self):
        plan = make_folds(17, 5, seed=4)
        all_test = np.concatenate([test for _, test in plan])
        assert sorted(all_test) == list(range(17))
        for train, test in plan:
            assert not set(train) & set(test)
            assert len(train) + len(test) == 17

    def test_too_few_records(self):
        with pytest.raises(ValueError, match="at least"):
            make_folds(4, 5)


class TestRunCv:
    def test_constant_scorer_gives_half(self):
        ds = labelled_gaussian(1)
        plan = make_folds(40, 5, seed=0)
        result = run_cv(ds, [FakeConfig(lambda queries: np.zeros(len(queries)))], plan)[0]
        assert result.mean_auroc == 0.5
        assert (result.detector, result.variant) == ("fake", "absolute")

    def test_label_oracle_gives_one(self):
        ds = labelled_gaussian(2, n_normal=40, n_anom=15)
        plan = make_folds(40, 5, seed=0)

        def oracle(queries):
            # Fold test sets are held-out normals followed by all anomalies.
            n_anom = 15
            return np.r_[np.zeros(len(queries) - n_anom), np.ones(n_anom)]

        assert run_cv(ds, [FakeConfig(oracle)], plan)[0].mean_auroc == 1.0

    def test_detects_shifted_anomalies(self):
        ds = labelled_gaussian(3, shift=2.5)
        plan = make_folds(40, 5, seed=1)
        result = run_cv(ds, [NndConfig(DistanceVariant.RAMP, k=4)], plan, "toy")[0]
        assert result.dataset_id == "toy"
        assert result.detector == "nnd" and result.variant == "ramp"
        assert len(result.fold_aurocs) == 5
        assert result.mean_auroc > 0.85
        assert result.mean_auroc == pytest.approx(np.mean(result.fold_aurocs))

    def test_alp_config_dispatch(self):
        ds = labelled_gaussian(4, shift=2.5)
        plan = make_folds(40, 5, seed=1)
        result = run_cv(ds, [AlpConfig(DistanceVariant.RAMP, k=3, l=4)], plan)[0]
        assert result.detector == "alp"
        assert result.mean_auroc > 0.8

    def test_unlabelled_dataset_rejected(self):
        ds = Dataset((AttributeSpec("a"),), [[1.0], [2.0]])
        with pytest.raises(ValueError, match="labelled"):
            run_cv(ds, [NndConfig(DistanceVariant.ABSOLUTE)], make_folds(2, 2))

    def test_fold_context_on_failure(self):
        ds = labelled_gaussian(5)
        plan = make_folds(40, 5, seed=0)
        (failure,) = run_cv(ds, [NndConfig(DistanceVariant.ABSOLUTE, k=500)], plan, "tiny")
        assert isinstance(failure, RuntimeError)
        assert str(failure).startswith("fold 1/5 of tiny failed: ")

    def test_scaler_and_model_fit_only_on_fold_train_normals(self, monkeypatch):
        # Perturbing the records a fold tests on must not move that fold's
        # fitted scaler or model (leakage check at the bit level).
        ds = labelled_gaussian(6)
        plan = make_folds(40, 5, seed=2)
        config = NndConfig(DistanceVariant.RAMP, k=3)
        fitted = fitted_per_fold(monkeypatch, ds, config, plan)

        normal_idx = np.flatnonzero(~ds.labels)
        anom_idx = np.flatnonzero(ds.labels)
        rng = np.random.default_rng(99)
        for fold in range(5):
            records = np.array(ds.records)
            test_rows = np.r_[normal_idx[plan[fold][1]], anom_idx]
            records[test_rows] += rng.uniform(0.5, 2.0, records[test_rows].shape)
            perturbed = Dataset(ds.schema, records, ds.labels)
            refitted = fitted_per_fold(monkeypatch, perturbed, config, plan)
            assert np.array_equal(
                fitted[fold][0].midhinge, refitted[fold][0].midhinge
            )
            assert np.array_equal(
                fitted[fold][0].semi_iqr, refitted[fold][0].semi_iqr
            )
            assert np.array_equal(fitted[fold][1].train, refitted[fold][1].train)


class TestFitDetector:
    def test_low_attributes_equal_negated_high_ones(self):
        # Declaring an attribute low is the same as negating it by hand and
        # declaring it high, for the fitted scaler and for every score.
        ds = labelled_gaussian(7)
        flip = np.array([-1.0, 1.0, -1.0])
        low = Dataset(
            tuple(AttributeSpec(a.name, Direction.LOW if f < 0 else Direction.HIGH)
                  for a, f in zip(ds.schema, flip)),
            ds.records * flip,
        )
        config = NndConfig(DistanceVariant.RAMP, k=3)
        for scale in (True, False):
            if scale:
                want_scaler, want = fit_detector(config, ds.take(range(30)))
                got_scaler, got = fit_detector(config, low.take(range(30)))
                assert np.array_equal(want_scaler.midhinge, got_scaler.midhinge)
            else:
                want_scaler, want = _prepare_train(ds.take(range(30)), False)
                got_scaler, got = _prepare_train(low.take(range(30)), False)
                assert want_scaler is None and got_scaler is None
                want, got = config.fit(want), config.fit(got)
            assert np.array_equal(
                score_queries(want_scaler, want, ds.take(range(30, 55))),
                score_queries(got_scaler, got, low.take(range(30, 55))),
            )


@st.composite
def shared_plan_problems(draw):
    """Training and query rows with ties and duplicates, a directional mask
    (all, none or some attributes), and an NND k below or above ALP's
    max(k, l)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(6, 24))
    values = st.integers(-3, 3).map(lambda v: v / 2.0)
    rows = draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))  # duplicated rows
    queries = draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=1, max_size=8))
    queries += draw(st.lists(st.sampled_from(rows), max_size=3))  # queries on rows
    kind = draw(st.sampled_from(["all", "none", "some"]))
    mask = {"all": [True] * m, "none": [False] * m,
            "some": draw(st.lists(st.booleans(), min_size=m, max_size=m))}[kind]
    n = len(rows)
    alp_k, alp_l = draw(st.integers(1, n - 1)), draw(st.integers(1, n))
    nnd_k = draw(st.one_of(st.integers(1, max(alp_k, alp_l)), st.integers(max(alp_k, alp_l), n)))
    schema = tuple(AttributeSpec(f"x{j}", Direction.HIGH if d else Direction.NONE)
                   for j, d in enumerate(mask))
    configs = [NndConfig(v, k=nnd_k) for v in DistanceVariant] + [
        AlpConfig(v, k=alp_k, l=alp_l)
        for v in (DistanceVariant.ABSOLUTE, DistanceVariant.RAMP)
    ]
    return Dataset(schema, rows), np.array(queries, dtype=np.float64), configs


def labelled_mixed(seed, n_normal=40, n_anom=15):
    """Two high, one low and one adirectional attribute, anomalies shifted."""
    rng = np.random.default_rng(seed)
    directions = (Direction.HIGH, Direction.LOW, Direction.NONE, Direction.HIGH)
    schema = tuple(AttributeSpec(f"x{j}", d) for j, d in enumerate(directions))
    records = np.vstack([rng.standard_normal((n_normal, 4)),
                         rng.standard_normal((n_anom, 4)) + [1.5, -1.5, 0.0, 1.5]])
    labels = np.r_[np.zeros(n_normal, dtype=bool), np.ones(n_anom, dtype=bool)]
    return Dataset(schema, np.round(records, 1), labels)


def counted_cells(monkeypatch, dataset, configs, folds):
    """run_cv's results and the distance cells its kNN kernels computed."""
    cells = []

    def spy(queries, train, spec):
        block = distance_matrix(queries, train, spec)
        cells.append(block.size)
        return block

    with monkeypatch.context() as patch:
        patch.setattr(neighbours, "distance_matrix", spy)
        results = run_cv(dataset, configs, folds)
    return results, sum(cells)


class TestNeighbourPlans:
    @settings(max_examples=100, deadline=None)
    @given(shared_plan_problems())
    def test_shared_plan_scores_equal_own_search_bitwise(self, problem):
        train, queries, configs = problem
        models = [config.fit(train) for config in configs]
        plans = _neighbour_plans(models, queries)
        problems = {model.neighbour_problem[:2] for model in models
                    if model.neighbour_problem is not None}
        assert set(plans) == problems
        for model in models:
            own = model.anomaly_scores(queries)
            if model.neighbour_problem is None:
                continue
            plan = plans[model.neighbour_problem[:2]]
            cut = _knn_prefix(model, queries, plan)
            assert cut[0].flags.c_contiguous and cut[1].flags.c_contiguous
            assert model.anomaly_scores(queries, plan).tobytes() == own.tobytes()

    def test_plan_runs_at_the_largest_k_of_its_problem(self):
        ds = labelled_mixed(0)
        train = evaluation.orient(ds.take(np.flatnonzero(~ds.labels)))
        models = [NndConfig(DistanceVariant.RAMP, k=8).fit(train),
                  AlpConfig(DistanceVariant.RAMP, k=5, l=12).fit(train),
                  NndConfig(DistanceVariant.SIGNED, k=8).fit(train)]
        queries = train.records[:7]
        plans = _neighbour_plans(models, queries)
        assert sorted(d.shape for d, _ in plans.values()) == [(7, 8), (7, 12)]
        cuts = [_knn_prefix(m, queries, plans[m.neighbour_problem[:2]]) for m in models]
        assert [dists.shape for dists, _ in cuts] == [(7, 8), (7, 12), (7, 8)]

    def test_nnd_absolute_and_ramp_add_no_cells(self, monkeypatch):
        # ALP searches each of its specs at max(k, l) >= 8, so NND's top-8
        # under the same spec is a prefix of that search: adding NND absolute
        # and ramp to a CV run computes no further distance cells. NND signed
        # searches only the adirectional column, a problem of its own.
        ds = labelled_mixed(1)
        folds = make_folds(40, 5, seed=0)
        nnd = [NndConfig(v, k=8) for v in DistanceVariant]
        alp = [AlpConfig(v) for v in (DistanceVariant.ABSOLUTE, DistanceVariant.RAMP)]
        all_results, all_cells = counted_cells(monkeypatch, ds, nnd + alp, folds)
        _, without_cells = counted_cells(monkeypatch, ds, nnd[2:] + alp, folds)
        assert all_cells == without_cells
        for config, shared in zip(nnd + alp, all_results):
            assert isinstance(shared, ExperimentResult)
            (alone,) = run_cv(ds, [config], folds)
            assert alone == shared

    def test_failing_search_leaves_each_model_its_own_error(self):
        ds = labelled_mixed(2)
        train = evaluation.orient(ds.take(np.flatnonzero(~ds.labels)))
        models = [NndConfig(DistanceVariant.ABSOLUTE, k=3).fit(train),
                  AlpConfig(DistanceVariant.ABSOLUTE, k=3, l=4).fit(train)]
        bad_queries = np.zeros((2, 3))
        assert _neighbour_plans(models, bad_queries) == {}
        for model in models:
            with pytest.raises(ValueError, match="the model expects 4"):
                model.anomaly_scores(bad_queries)


class TestSyntheticAuroc:
    def test_null_shift_near_chance(self):
        vals = [
            synthetic_auroc(
                SynthSpec("gaussian", 0.0, n_train=200, seed=replicate_seed(0, "gaussian", 0.0, r)),
                [NndConfig(DistanceVariant.ABSOLUTE, k=8)],
            )[0]
            for r in range(5)
        ]
        assert 0.35 < np.mean(vals) < 0.65

    def test_scale_flag_changes_pipeline(self):
        spec = SynthSpec("gaussian", 0.5, n_train=100, seed=11)
        config = NndConfig(DistanceVariant.RAMP, k=4)
        scaled = synthetic_auroc(spec, [config], scale=True)[0]
        raw = synthetic_auroc(spec, [config], scale=False)[0]
        assert 0.0 <= scaled <= 1.0 and 0.0 <= raw <= 1.0


    def test_sequence_of_configs_scores_each_on_one_problem(self):
        spec = SynthSpec("gaussian", 0.5, n_train=100, seed=11)
        good = NndConfig(DistanceVariant.RAMP, k=4)
        bad = AlpConfig(DistanceVariant.RAMP, k=100)  # needs k < n_train
        got = synthetic_auroc(spec, [good, bad, good])
        assert got[0] == got[2] == synthetic_auroc(spec, [good])[0]
        assert isinstance(got[1], ValueError) and "k must be" in str(got[1])
        (alone,) = synthetic_auroc(spec, [bad])
        assert isinstance(alone, ValueError) and "k must be" in str(alone)

class TestWilcoxon:
    def test_identical_columns_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            wilcoxon_one_sided([1.0] * 6, [1.0] * 6)

    def test_maximal_statistic_exact(self):
        x = list(range(1, 13))
        y = [0.0] * 12
        assert wilcoxon_one_sided(x, y, method="exact") == 1.0 / 2**12

    def test_exact_matches_scipy_on_untied_data(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            ours = wilcoxon_one_sided(x, y, method="exact")
            ref = stats.wilcoxon(x, y, alternative="greater", mode="exact").pvalue
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_approx_is_tie_and_continuity_corrected(self):
        # Hand-checked: W+=59 over n=11 with one tied pair of |d|.
        x = [0.922, 0.923, 0.653, 0.769, 0.927, 0.504, 1.000, 0.718, 0.624, 0.976, 0.994, 0.625]
        y = [0.823, 0.971, 0.602, 0.715, 0.901, 0.476, 1.000, 0.648, 0.597, 0.950, 0.995, 0.570]
        assert wilcoxon_one_sided(x, y) == pytest.approx(0.011654, abs=5e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
            min_size=5, max_size=12,
        ),
        st.sampled_from(["approx", "exact"]),
    )
    @example(
        [(922, 823), (923, 971), (653, 602), (769, 715), (927, 901), (504, 476),
         (1000, 1000), (718, 648), (624, 597), (976, 950), (994, 995), (625, 570)],
        "approx",
    )
    def test_equals_scipy_reference_bitwise(self, pairs, method):
        # Thousandths from a few integers make tied and zero differences common.
        x = np.array([a for a, _ in pairs]) / 1000.0
        y = np.array([b for _, b in pairs]) / 1000.0
        if np.count_nonzero(x - y) < 5:
            with pytest.raises(ValueError, match="at least 5"):
                wilcoxon_one_sided(x, y, method=method)
            return
        assert wilcoxon_one_sided(x, y, method=method) == reference_wilcoxon(x, y, method)

    def test_too_few_nonzero_differences(self):
        with pytest.raises(ValueError, match="at least 5"):
            wilcoxon_one_sided([1, 2, 3, 4], [0, 0, 0, 0])

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            wilcoxon_one_sided([1.0] * 6, [0.0] * 6, method="bootstrap")

    def test_one_sidedness(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal(20) + 1.5
        y = rng.standard_normal(20)
        assert wilcoxon_one_sided(x, y) < 0.05
        assert wilcoxon_one_sided(y, x) > 0.9


class TestHolmBonferroni:
    def test_single_p_unchanged(self):
        assert holm_bonferroni([0.04]) == pytest.approx([0.04])

    def test_step_down_hand_example(self):
        assert np.allclose(holm_bonferroni([0.01, 0.04]), [0.02, 0.04])

    def test_order_preserved(self):
        out = holm_bonferroni([0.04, 0.01])
        assert np.allclose(out, [0.04, 0.02])

    def test_monotone_and_dominates_input(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            p = rng.uniform(1e-6, 1.0, int(rng.integers(1, 10)))
            adj = holm_bonferroni(p)
            assert np.all(adj >= p)
            assert np.all(adj <= 1.0)
            order = np.argsort(p, kind="stable")
            assert np.all(np.diff(adj[order]) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            holm_bonferroni([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            holm_bonferroni([0.0, 0.5])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            holm_bonferroni([0.5, float("nan")])


class TestDiagnostic:
    def test_clear_directionality_not_flagged(self):
        ds = Dataset(
            (AttributeSpec("a", Direction.HIGH),),
            [[0.1], [0.1], [0.9], [0.9]],
            [False, False, True, True],
        )
        report = directionality_diagnostic(ds)
        assert report[0].anomalous_mean == pytest.approx(0.9)
        assert not report[0].flagged

    def test_identical_means_flagged_at_zero_tau(self):
        ds = Dataset(
            (AttributeSpec("a", Direction.HIGH),),
            [[0.5], [0.5]],
            [False, True],
        )
        assert directionality_diagnostic(ds)[0].flagged

    def test_tau_widens_the_flag(self):
        ds = Dataset(
            (AttributeSpec("a", Direction.HIGH),),
            [[0.0], [0.05]],
            [False, True],
        )
        assert not directionality_diagnostic(ds)[0].flagged
        assert directionality_diagnostic(ds, tau=0.1)[0].flagged

    def test_single_class_rejected(self):
        ds = Dataset((AttributeSpec("a"),), [[1.0]], [True])
        with pytest.raises(ValueError, match="both classes"):
            directionality_diagnostic(ds)

    def test_shifted_gaussian_never_flagged(self):
        from dirad.synthgen import generate

        for seed in range(20):
            spec = SynthSpec("gaussian", 0.5, seed=replicate_seed(1, "gaussian", 0.5, seed))
            train, test = generate(spec)
            # Diagnose the full labelled data: training normals plus test set.
            records = np.vstack([train.records, test.records])
            labels = np.r_[np.zeros(len(train.records), dtype=bool), test.labels]
            ds = Dataset(train.schema, records, labels)
            report = directionality_diagnostic(ds)
            assert not any(entry.flagged for entry in report)


class TestResultCsv:
    def test_fold_and_summary_layout(self):
        result = ExperimentResult("d1", "nnd", "ramp", (0.5, 0.75), 0.625)
        fold_text = fold_results_csv([result])
        lines = fold_text.strip().splitlines()
        assert lines[0] == "dataset,detector,variant,fold,auroc"
        assert lines[1] == "d1,nnd,ramp,1,0.5"
        assert lines[3] == "d1,nnd,ramp,mean,0.625"
        summary = summary_csv([result]).strip().splitlines()
        assert summary[1] == "d1,nnd,ramp,0.625"
