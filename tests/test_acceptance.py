"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
real-data spot checks need user-supplied UCI files (see README) and skip
cleanly when absent.
"""

import contextlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dirad import alp, nnd
from dirad.alp import AlpConfig, default_k, default_l
from dirad.dataset import Dataset, parse_csv, parse_schema
from dirad.distance import DistanceVariant
from dirad.evaluation import (
    auroc,
    holm_bonferroni,
    make_folds,
    run_cv,
    synthetic_auroc,
    wilcoxon_one_sided,
)
from dirad.nnd import NndConfig, contract
from dirad.synthgen import SynthSpec, replicate_seed

from cv_spies import fitted_per_fold
from oracles import directional_dataset, pairwise_auroc, signed_raw_oracle

ABS = DistanceVariant.ABSOLUTE
RAMP = DistanceVariant.RAMP
SIGNED = DistanceVariant.SIGNED


@contextlib.contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {description}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} {description}: PASS ({elapsed:.1f}s)")


def test_01_auroc_matches_pairwise_oracle():
    with criterion(1, "AUROC equals the pairwise-count oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        for _ in range(500):
            n = int(rng.integers(2, 201))
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            if rng.integers(2):
                scores = np.round(rng.standard_normal(n), 1)  # force ties
            else:
                scores = rng.standard_normal(n)
            assert auroc(scores, labels) == pairwise_auroc(scores, labels)
        assert time.perf_counter() - start < 5.0


def test_02_signed_shortcut_equals_direct_evaluation():
    with criterion(2, "signed shortcut matches direct weighted-NND"):
        rng = np.random.default_rng(1002)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            m = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(n, 8) + 1))
            train = rng.standard_normal((n, m)) * 2
            y = rng.standard_normal(m) * 2
            model = nnd.fit(directional_dataset(train), NndConfig(SIGNED, k=k))
            expected = signed_raw_oracle(train, y, k)
            got = nnd.raw_scores(model, [y])[0]
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_03_variant_collapse_without_directional_attributes():
    with criterion(3, "variants collapse bit-identically on adirectional data"):
        rng = np.random.default_rng(1003)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            m = int(rng.integers(1, 6))
            ds = directional_dataset(rng.standard_normal((n, m)), n_directional=0)
            queries = rng.standard_normal((7, m))
            k = int(rng.integers(1, n + 1))
            scores = {
                v: nnd.anomaly_scores(nnd.fit(ds, NndConfig(v, k=k)), queries)
                for v in (ABS, RAMP, SIGNED)
            }
            assert np.array_equal(scores[ABS], scores[RAMP])
            assert np.array_equal(scores[ABS], scores[SIGNED])
            ak = int(rng.integers(1, n))
            al = int(rng.integers(1, n + 1))
            alp_scores = {
                v: alp.anomaly_scores(alp.fit(ds, AlpConfig(v, k=ak, l=al)), queries)
                for v in (ABS, RAMP)
            }
            assert np.array_equal(alp_scores[ABS], alp_scores[RAMP])


def test_04_ramp_monotonicity():
    with criterion(4, "NND-ramp raw score is monotone in directional attributes"):
        rng = np.random.default_rng(1004)
        checked = 0
        while checked < 200:
            n = int(rng.integers(3, 25))
            m = int(rng.integers(2, 6))
            n_dir = int(rng.integers(1, m + 1))
            ds = directional_dataset(rng.standard_normal((n, m)), n_dir)
            model = nnd.fit(ds, NndConfig(RAMP, k=int(rng.integers(1, n + 1))))
            for _ in range(5):
                y = rng.standard_normal(m)
                bumped = y.copy()
                bumped[int(rng.integers(0, n_dir))] += float(rng.uniform(0.0, 3.0))
                raws = nnd.raw_scores(model, [bumped, y])
                assert raws[0] >= raws[1]
                checked += 1


def test_05_alp_default_hyperparameters():
    with criterion(5, "ALP defaults reproduce k=38, l=41 at n=1000"):
        assert default_k(1000) == 38
        assert default_l(1000) == 41


def test_06_contraction_anchors_and_rank_preservation():
    with criterion(6, "score contraction anchors and AUROC invariance"):
        assert contract(0.0) == 0.5
        rng = np.random.default_rng(1006)
        for _ in range(50):
            n = int(rng.integers(5, 100))
            labels = np.zeros(n, dtype=bool)
            labels[: int(rng.integers(1, n))] = True
            rng.shuffle(labels)
            raw = rng.standard_normal(n) * 10
            assert auroc(raw, labels) == auroc(contract(raw), labels)


def test_07_synthetic_null_is_chance_level():
    with criterion(7, "null-shift synthetic AUROC sits at chance"):
        start = time.perf_counter()
        for family in ("gaussian", "bernoulli"):
            for variant in (ABS, RAMP, SIGNED):
                values = [
                    synthetic_auroc(
                        SynthSpec(family, 0.0,
                                  seed=replicate_seed(0, family, 0.0, r)),
                        [NndConfig(variant, k=8)],
                    )[0]
                    for r in range(20)
                ]
                mean = float(np.mean(values))
                assert 0.45 <= mean <= 0.55, (family, variant.value, mean)
        assert time.perf_counter() - start < 120.0


def test_08_synthetic_variant_ordering():
    with criterion(8, "gaussian a=0.5 ordering: signed >= ramp > absolute"):
        start = time.perf_counter()
        per_variant = {}
        for variant in (ABS, RAMP, SIGNED):
            per_variant[variant] = np.array(
                [
                    synthetic_auroc(
                        SynthSpec("gaussian", 0.5,
                                  seed=replicate_seed(0, "gaussian", 0.5, r)),
                        [NndConfig(variant, k=8)],
                    )[0]
                    for r in range(20)
                ]
            )
        mean_abs = per_variant[ABS].mean()
        mean_ramp = per_variant[RAMP].mean()
        mean_signed = per_variant[SIGNED].mean()
        assert mean_signed >= mean_ramp > mean_abs
        gaps = per_variant[SIGNED] - per_variant[ABS]
        assert (gaps > 0).sum() >= 18
        # Margins pinned from the first oracle run (signed 0.870, ramp 0.844,
        # absolute 0.639 on these seeds); floors sit at roughly half the gap.
        assert mean_signed - mean_abs >= 0.10
        assert mean_ramp - mean_abs >= 0.08
        assert time.perf_counter() - start < 180.0


def test_09_alp_ramp_beats_absolute_on_shifted_gaussian():
    with criterion(9, "ALP defaults: ramp outperforms absolute at a=0.5"):
        start = time.perf_counter()
        means = {}
        for variant in (ABS, RAMP):
            values = [
                synthetic_auroc(
                    SynthSpec("gaussian", 0.5,
                              seed=replicate_seed(0, "gaussian", 0.5, r)),
                    [AlpConfig(variant)],
                )[0]
                for r in range(10)
            ]
            means[variant] = float(np.mean(values))
        assert means[RAMP] > means[ABS]
        assert time.perf_counter() - start < 300.0


def test_10_published_statistics_reproduction():
    with criterion(10, "signed-rank p-values match the published analysis"):
        start = time.perf_counter()
        nnd_abs = [0.823, 0.971, 0.602, 0.715, 0.901, 0.476, 1.000, 0.648,
                   0.597, 0.950, 0.995, 0.570]
        nnd_ramp = [0.922, 0.923, 0.653, 0.769, 0.927, 0.504, 1.000, 0.718,
                    0.624, 0.976, 0.994, 0.625]
        nnd_signed = [0.724, 0.716, 0.540, 0.735, 0.804, 0.557, 0.998, 0.683,
                      0.583, 0.969, 0.995, 0.633]
        alp_abs = [0.877, 0.895, 0.581, 0.734, 0.927, 0.459, 1.000, 0.648,
                   0.634, 0.957, 0.872, 0.537]
        alp_ramp = [0.924, 0.926, 0.636, 0.766, 0.936, 0.484, 1.000, 0.714,
                    0.621, 0.981, 0.995, 0.654]
        p_ramp_abs = wilcoxon_one_sided(nnd_ramp, nnd_abs)
        p_ramp_signed = wilcoxon_one_sided(nnd_ramp, nnd_signed)
        p_alp = wilcoxon_one_sided(alp_ramp, alp_abs)
        assert p_ramp_abs == pytest.approx(0.011, abs=0.003)
        assert p_ramp_signed == pytest.approx(0.021, abs=0.004)
        assert p_alp == pytest.approx(0.0029, abs=0.001)
        adjusted = holm_bonferroni([p_ramp_abs, p_ramp_signed])
        assert adjusted[0] == pytest.approx(0.023, abs=0.003)
        assert time.perf_counter() - start < 1.0


def _load_uci(name):
    root = os.environ.get("DIRAD_UCI_DIR")
    base = Path(root) if root else Path(__file__).resolve().parent.parent / "data" / "uci"
    data_path = base / f"{name}.csv"
    schema_path = base / f"{name}.schema"
    if not (data_path.exists() and schema_path.exists()):
        pytest.skip(f"UCI files for {name} not supplied (looked in {base})")
    schema, rule = parse_schema(schema_path.read_text(encoding="utf-8"))
    if rule is None:
        pytest.skip(f"{name}.schema declares no label column")
    return parse_csv(data_path.read_text(encoding="utf-8"), schema, rule)


def test_11_real_data_spot_checks():
    with criterion(11, "real-data spot checks (conditional on UCI files)"):
        start = time.perf_counter()

        def cv_mean(ds, config):
            plan = make_folds(int((~ds.labels).sum()), folds=5, seed=0)
            return run_cv(ds, [config], plan)[0].mean_auroc

        bankruptcy = _load_uci("qualitative-bankruptcy")
        assert cv_mean(bankruptcy, NndConfig(ABS, k=8)) >= 0.99

        wisconsin = _load_uci("wisconsin")
        assert cv_mean(wisconsin, NndConfig(ABS, k=8)) == pytest.approx(0.995, abs=0.02)

        ai4i = _load_uci("ai4i2020")
        ramp_mean = cv_mean(ai4i, NndConfig(RAMP, k=8))
        abs_mean = cv_mean(ai4i, NndConfig(ABS, k=8))
        assert ramp_mean - abs_mean >= 0.05
        assert time.perf_counter() - start < 600.0


def test_12_no_leakage_from_fold_test_records(monkeypatch):
    with criterion(12, "fold-test perturbations never move fitted state"):
        rng = np.random.default_rng(1012)
        for run_idx in range(10):
            n_normal = int(rng.integers(25, 60))
            n_anom = int(rng.integers(5, 20))
            m = int(rng.integers(2, 5))
            records = np.vstack(
                [rng.standard_normal((n_normal, m)),
                 rng.standard_normal((n_anom, m)) + 1.0]
            )
            labels = np.r_[np.zeros(n_normal, dtype=bool),
                           np.ones(n_anom, dtype=bool)]
            ds = directional_dataset(records, int(rng.integers(0, m + 1)))
            ds = Dataset(ds.schema, ds.records, labels)
            if run_idx % 2:
                config = NndConfig(RAMP if run_idx % 4 == 1 else SIGNED, k=3)
            else:
                config = AlpConfig(RAMP if run_idx % 4 == 0 else ABS, k=3, l=4)
            plan = make_folds(n_normal, folds=5, seed=int(rng.integers(0, 1000)))
            fitted = fitted_per_fold(monkeypatch, ds, config, plan)

            fold = int(rng.integers(0, 5))
            normal_idx = np.flatnonzero(~labels)
            anom_idx = np.flatnonzero(labels)
            perturbed = np.array(records)
            test_rows = np.r_[normal_idx[plan[fold][1]], anom_idx]
            perturbed[test_rows] += rng.uniform(0.5, 3.0, perturbed[test_rows].shape)
            ds2 = Dataset(ds.schema, perturbed, labels)
            refitted = fitted_per_fold(monkeypatch, ds2, config, plan)

            scaler_a, model_a = fitted[fold]
            scaler_b, model_b = refitted[fold]
            assert scaler_a.midhinge.tobytes() == scaler_b.midhinge.tobytes()
            assert scaler_a.semi_iqr.tobytes() == scaler_b.semi_iqr.tobytes()
            assert model_a.train.tobytes() == model_b.train.tobytes()
            if isinstance(model_a, alp.AlpModel):
                assert (
                    alp.with_table(model_a).train_nn_dists.tobytes()
                    == alp.with_table(model_b).train_nn_dists.tobytes()
                )
            elif model_a.sorted_sums is not None:
                assert model_a.sorted_sums.tobytes() == model_b.sorted_sums.tobytes()
