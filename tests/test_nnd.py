import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirad import nnd
from dirad.dataset import AttributeSpec, Dataset, Direction
from dirad.distance import DistanceVariant
from dirad.nnd import NndConfig, contract, linear_weights, weighted_sum

from oracles import assert_same_scores, directional_dataset, nnd_oracle

ABS = DistanceVariant.ABSOLUTE
RAMP = DistanceVariant.RAMP
SIGNED = DistanceVariant.SIGNED


class TestLinearWeights:
    def test_single_weight_is_one(self):
        assert np.array_equal(linear_weights(1), [1.0])

    def test_k_three_closed_form(self):
        assert np.allclose(linear_weights(3), [1 / 2, 1 / 3, 1 / 6], atol=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 50])
    def test_normalised_and_strictly_decreasing(self, k):
        w = linear_weights(k)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w > 0)
        assert np.all(np.diff(w) < 0) or k == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            linear_weights(0)


class TestWeightedSum:
    def test_adds_in_weight_order_from_zero(self):
        # Left to right, 1e16 + 1 + 1 rounds back to 1e16 twice; adding the
        # ones first, as a pairwise or blocked sum may, gives 1e16 + 2.
        weights = np.ones(3)
        assert weighted_sum(weights, [1e16, 1.0, 1.0]) == 1e16
        assert weighted_sum(weights, [1.0, 1.0, 1e16]) == 1e16 + 2.0
        # A sum from +0.0 is never -0.0.
        assert math.copysign(1.0, weighted_sum(np.ones(1), [-0.0])) == 1.0

    def test_counts_must_match(self):
        with pytest.raises(ValueError):
            weighted_sum(np.ones(2), [1.0])


class TestFit:
    def test_model_has_k_weights(self):
        model = nnd.fit(directional_dataset(np.zeros((10, 2))), NndConfig(ABS, k=8))
        assert model.weights.shape == (8,)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            nnd.fit(directional_dataset(np.zeros((5, 2))), NndConfig(ABS, k=8))

    def test_signed_sums_sorted_descending(self):
        model = nnd.fit(
            directional_dataset([[1.0], [5.0], [3.0]]), NndConfig(SIGNED, k=1)
        )
        assert np.array_equal(model.sorted_sums, [5.0, 3.0, 1.0])

    def test_low_direction_rejected(self):
        ds = Dataset((AttributeSpec("a", Direction.LOW),), [[1.0]])
        with pytest.raises(ValueError, match="orient"):
            nnd.fit(ds, NndConfig(RAMP, k=1))

    def test_sorted_sums_absent_for_symmetric_variants(self):
        model = nnd.fit(directional_dataset(np.zeros((4, 2))), NndConfig(RAMP, k=2))
        assert model.sorted_sums is None



class TestRawScore:
    def test_zero_for_training_record(self):
        ds = directional_dataset([[1.0, 2.0], [3.0, 4.0]])
        model = nnd.fit(ds, NndConfig(ABS, k=1))
        assert nnd.raw_scores(model, [[1.0, 2.0]])[0] == 0.0

    def test_single_training_point_all_variants(self):
        ds = directional_dataset([[0.0]])
        cases = {ABS: 5.0, RAMP: 0.0, SIGNED: -5.0}
        for variant, expected in cases.items():
            model = nnd.fit(ds, NndConfig(variant, k=1))
            assert nnd.raw_scores(model, [[-5.0]])[0] == expected

    def test_k1_recovers_first_neighbour_distance(self):
        rng = np.random.default_rng(71)
        train = rng.standard_normal((12, 3))
        ds = directional_dataset(train)
        model = nnd.fit(ds, NndConfig(ABS, k=1))
        y = rng.standard_normal(3)
        d1 = np.abs(y - train).sum(axis=1).min()
        assert nnd.raw_scores(model, [y])[0] == pytest.approx(d1, rel=1e-12)

    def test_dimension_mismatch(self):
        model = nnd.fit(directional_dataset(np.zeros((3, 2))), NndConfig(ABS, k=1))
        with pytest.raises(ValueError, match="attributes"):
            nnd.raw_scores(model, [[1.0]])


class TestSignedRisk:
    def test_direct_evaluation(self):
        model = nnd.fit(
            directional_dataset([[5.0], [3.0], [1.0]]), NndConfig(SIGNED, k=1)
        )
        assert nnd.signed_risks(model, [[7.0]])[0] == 2.0

    def test_cancellation_at_weighted_mean(self):
        model = nnd.fit(
            directional_dataset([[5.0], [3.0], [1.0]]), NndConfig(SIGNED, k=2)
        )
        target = float(model.weights @ model.sorted_sums[:2])
        assert nnd.signed_risks(model, [[target]])[0] == pytest.approx(0.0, abs=1e-12)

    def test_strictly_increasing_in_directional_attributes(self):
        rng = np.random.default_rng(73)
        ds = directional_dataset(rng.standard_normal((9, 3)))
        model = nnd.fit(ds, NndConfig(SIGNED, k=4))
        for _ in range(50):
            y = rng.standard_normal(3)
            bumped = y.copy()
            j = rng.integers(0, 3)
            bumped[j] += float(rng.uniform(0.01, 2.0))
            risks = nnd.signed_risks(model, [bumped, y])
            assert risks[0] > risks[1]

    def test_requires_signed_variant(self):
        model = nnd.fit(directional_dataset(np.zeros((3, 1))), NndConfig(ABS, k=1))
        with pytest.raises(ValueError, match="signed"):
            nnd.signed_risks(model, [[0.0]])


class TestSignedShortcut:
    def test_mixed_composition_adds_adirectional_nnd(self):
        rng = np.random.default_rng(83)
        train = rng.standard_normal((10, 4))
        ds = directional_dataset(train, n_directional=2)
        model = nnd.fit(ds, NndConfig(SIGNED, k=3))
        y = rng.standard_normal(4)
        risk = nnd.signed_risks(model, [y])[0]
        adir = train[:, 2:]
        dists = np.sort(np.abs(y[2:] - adir).sum(axis=1))
        expected = risk + float(linear_weights(3) @ dists[:3])
        assert nnd.raw_scores(model, [y])[0] == pytest.approx(expected, rel=1e-12)


class TestContract:
    def test_anchors(self):
        assert contract(0.0) == 0.5
        assert contract(1.0) == 0.75
        assert contract(-1.0) == 0.25

    def test_strictly_increasing_and_bounded(self):
        raws = np.linspace(-50, 50, 1001)
        out = contract(raws)
        assert np.all(np.diff(out) > 0)
        assert np.all((out > 0) & (out < 1))

    def test_matches_scalar_on_arrays(self):
        raws = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        assert np.array_equal(contract(raws), [contract(float(r)) for r in raws])

    def test_infinities_map_to_the_limits(self):
        assert contract(np.inf) == 1.0 and contract(-np.inf) == 0.0
        out = contract(np.array([-np.inf, -1e308, 0.0, 1e308, np.inf, np.nan]))
        assert np.array_equal(out[:5], [0.0, 0.0, 0.5, 1.0, 1.0])
        assert np.isnan(out[5])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    def test_finite_scores_keep_their_bits(self, raws):
        raw = np.array(raws, dtype=np.float64)
        want = 0.5 * (raw / (np.abs(raw) + 1.0)) + 0.5
        assert np.array_equal(contract(raw), want)


def test_anomaly_score_is_contracted_raw():
    rng = np.random.default_rng(103)
    ds = directional_dataset(rng.standard_normal((8, 2)))
    model = nnd.fit(ds, NndConfig(RAMP, k=3))
    y = rng.standard_normal(2)
    raw = nnd.raw_scores(model, [y])[0]
    assert nnd.anomaly_scores(model, [y])[0] == contract(raw)


class TestScalarOracle:
    @settings(deadline=None)
    @given(data=st.data())
    def test_anomaly_scores_match_the_scalar_oracle_bitwise(self, data):
        # Small integers give tied distances and duplicate rows; +-1e308 rows
        # give sums and distances that overflow to inf; fractions make the
        # weighted sums round.
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(1, 4))
        values = st.one_of(
            st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, 1e308, -1e308]),
            st.floats(-3.0, 3.0, allow_subnormal=False),
        )
        records = data.draw(hnp.arrays(np.float64, (n, m), elements=values))
        records = np.concatenate([records, records[: data.draw(st.integers(0, 3))]])
        queries = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 6)), m),
                                       elements=values))
        k = data.draw(st.one_of(st.just(1), st.just(len(records)),
                                st.integers(1, len(records))))
        ds = directional_dataset(records, data.draw(st.integers(0, m)))
        for variant in (ABS, RAMP, SIGNED):
            got = nnd.fit(ds, NndConfig(variant, k=k)).anomaly_scores(queries)
            want = nnd_oracle(records, ds.directional_mask, variant, k, queries)
            assert_same_scores(got, want)
