import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirad import alp, neighbours
from dirad.alp import AlpConfig, default_k, default_l
from dirad.dataset import AttributeSpec, Dataset, Direction
from dirad.distance import DistanceVariant

ABS = DistanceVariant.ABSOLUTE
RAMP = DistanceVariant.RAMP


def dataset(records, n_directional=None):
    records = np.asarray(records, dtype=np.float64)
    m = records.shape[1]
    n_dir = m if n_directional is None else n_directional
    schema = tuple(
        AttributeSpec(f"x{j}", Direction.HIGH if j < n_dir else Direction.NONE)
        for j in range(m)
    )
    return Dataset(schema, records)


class TestDefaults:
    def test_published_values_at_n_1000(self):
        assert default_k(1000) == 38
        assert default_l(1000) == 41

    def test_small_n_rounding(self):
        assert default_k(3) == 6  # 5.5*ln 3 = 6.04

    def test_l_clamped_to_n(self):
        assert default_l(2) == 2  # 6*ln 2 rounds to 4, clamped
        assert default_l(10) == 10  # 6*ln 10 rounds to 14, clamped

    def test_k_clamped_at_fit_time(self):
        model = alp.fit(dataset(np.arange(6.0)[:, None]), AlpConfig(ABS))
        assert model.k == 5  # default_k(6) = 10, clamped to n-1


class TestConfigAndFit:
    def test_signed_rejected(self):
        with pytest.raises(ValueError, match="signed"):
            AlpConfig(DistanceVariant.SIGNED)

    def test_auto_resolution_at_n_1000(self):
        rng = np.random.default_rng(11)
        model = alp.fit(dataset(rng.standard_normal((1000, 2))), AlpConfig(ABS))
        assert model.k == 38 and model.l == 41

    def test_explicit_k_l_honoured(self):
        model = alp.fit(dataset(np.arange(9.0)[:, None]), AlpConfig(ABS, k=2, l=3))
        assert model.k == 2 and model.l == 3
        assert model.train_nn_dists.shape == (9, 2)

    def test_infeasible_explicit_values_rejected(self):
        ds = dataset(np.arange(4.0)[:, None])
        with pytest.raises(ValueError, match="k must be"):
            alp.fit(ds, AlpConfig(ABS, k=4, l=2))
        with pytest.raises(ValueError, match="l must be"):
            alp.fit(ds, AlpConfig(ABS, k=2, l=5))

    def test_duplicate_training_set_gives_zero_distances(self):
        model = alp.fit(dataset(np.ones((6, 2))), AlpConfig(ABS, k=2, l=2))
        assert np.array_equal(model.train_nn_dists, np.zeros((6, 2)))

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="at least 2"):
            alp.fit(dataset([[1.0]]), AlpConfig(ABS))


class TestLocalisedProximity:
    def test_hand_traced_three_point_instance(self):
        # train {0, 1, 3}, k=l=1, query 5: d1=2, its neighbour 3 has self-NN
        # distance 2, so D1=2 and lp = 2/(2+2) = 0.5.
        model = alp.fit(dataset([[0.0], [1.0], [3.0]]), AlpConfig(ABS, k=1, l=1))
        assert alp._lp_batch(model, [[5.0]])[0, 0] == 0.5
        assert alp.normality_scores(model, [[5.0]])[0] == 0.5

    def test_weighted_maximum_of_two_proximities(self):
        # Same instance with k=2: d = (2, 4) and the neighbour 3 has self-NN
        # distances (2, 3), so lp = (1/2, 3/7), weighted 2/3 and 1/3.
        model = alp.fit(dataset([[0.0], [1.0], [3.0]]), AlpConfig(ABS, k=2, l=1))
        assert np.allclose(alp._lp_batch(model, [[5.0]]), [[0.5, 3 / 7]])
        score = alp.normality_scores(model, [[5.0]])[0]
        assert score == pytest.approx(10 / 21, abs=1e-12)

    def test_zero_query_distance_gives_one(self):
        model = alp.fit(dataset([[0.0], [1.0], [3.0]]), AlpConfig(ABS, k=1, l=1))
        assert alp._lp_batch(model, [[1.0]])[0, 0] == 1.0

    def test_degenerate_duplicates_give_one(self):
        model = alp.fit(dataset(np.zeros((5, 1))), AlpConfig(ABS, k=2, l=2))
        lp = alp._lp_batch(model, [[0.0]])
        assert np.array_equal(lp, [[1.0, 1.0]])
        assert alp.normality_scores(model, [[0.0]])[0] == 1.0

    def test_direct_ratio(self):
        # Construct D=2 against d=6: lp must be 0.25.
        model = alp.fit(dataset([[0.0], [2.0]]), AlpConfig(ABS, k=1, l=1))
        # d1(8) = 6 (to 2); NN_1(8) = 2 whose own nearest distance is 2.
        assert alp._lp_batch(model, [[8.0]])[0, 0] == 0.25

    def test_index_bounds(self):
        # lp_i exists for i = 1..k only: one column per neighbour order.
        model = alp.fit(dataset([[0.0], [1.0], [3.0]]), AlpConfig(ABS, k=1, l=1))
        assert alp._lp_batch(model, [[5.0], [0.0]]).shape == (2, 1)


class TestScoreProperties:
    def test_scores_always_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(1, 4))
            ds = dataset(rng.standard_normal((n, m)))
            k = int(rng.integers(1, n))
            l = int(rng.integers(1, n + 1))
            variant = RAMP if rng.integers(2) else ABS
            model = alp.fit(ds, AlpConfig(variant, k=k, l=l))
            queries = rng.standard_normal((8, m)) * 3
            lp = alp._lp_batch(model, queries)
            scores = alp.normality_scores(model, queries)
            assert np.all((lp >= 0) & (lp <= 1))
            assert np.all((scores >= 0) & (scores <= 1))
            # A weighted maximum lies between the smallest and largest lp.
            assert np.all(lp.min(axis=1) - 1e-12 <= scores)
            assert np.all(scores <= lp.max(axis=1) + 1e-12)

    def test_training_permutation_leaves_scores_unchanged(self):
        # Absolute variant: continuous data gives no exact distance ties, so
        # the tie rule never engages and permutation cannot matter. (Ramp
        # produces exact zero-distance ties by construction, where the rule
        # legitimately picks a different equidistant record.)
        rng = np.random.default_rng(17)
        records = rng.standard_normal((25, 3))
        queries = rng.standard_normal((5, 3))
        base = alp.fit(dataset(records), AlpConfig(ABS, k=4, l=6))
        perm = rng.permutation(25)
        shuffled = alp.fit(dataset(records[perm]), AlpConfig(ABS, k=4, l=6))
        assert np.allclose(
            alp.normality_scores(base, queries),
            alp.normality_scores(shuffled, queries),
            atol=1e-12,
        )

    def test_scale_invariance_of_proximities(self):
        rng = np.random.default_rng(19)
        records = rng.standard_normal((20, 2))
        queries = rng.standard_normal((6, 2))
        for c in (0.5, 3.0, 100.0):
            base = alp.fit(dataset(records), AlpConfig(ABS, k=3, l=4))
            scaled = alp.fit(dataset(records * c), AlpConfig(ABS, k=3, l=4))
            assert np.allclose(
                alp.normality_scores(base, queries),
                alp.normality_scores(scaled, queries * c),
                atol=1e-9,
            )

    def test_ramp_equals_absolute_on_adirectional_data(self):
        rng = np.random.default_rng(23)
        ds = dataset(rng.standard_normal((15, 3)), n_directional=0)
        queries = rng.standard_normal((5, 3))
        m_abs = alp.fit(ds, AlpConfig(ABS, k=3, l=4))
        m_ramp = alp.fit(ds, AlpConfig(RAMP, k=3, l=4))
        assert np.array_equal(
            alp.normality_scores(m_abs, queries),
            alp.normality_scores(m_ramp, queries),
        )

    def test_anomaly_scores_are_complement(self):
        rng = np.random.default_rng(29)
        ds = dataset(rng.standard_normal((12, 2)))
        model = alp.fit(ds, AlpConfig(ABS, k=2, l=3))
        queries = rng.standard_normal((4, 2))
        assert np.array_equal(
            alp.anomaly_scores(model, queries),
            1.0 - alp.normality_scores(model, queries),
        )


class TestBlockedGather:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_blocks_match_the_whole_array_formula_bitwise(self, data):
        # Small integers give tied distances and duplicated rows; blocks run
        # from one row up to every query, k = 1 included.
        n = data.draw(st.integers(2, 25))
        m = data.draw(st.integers(1, 3))
        values = st.integers(-2, 2).map(float)
        records = data.draw(hnp.arrays(np.float64, (n, m), elements=values))
        rows = data.draw(st.integers(1, 30))
        queries = data.draw(hnp.arrays(np.float64, (rows, m), elements=values))
        k, l = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n))
        variant = data.draw(st.sampled_from([ABS, RAMP]))
        model = alp.fit(dataset(records), AlpConfig(variant, k=k, l=l))
        budget = data.draw(st.integers(1, 8 * l * k * rows))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(neighbours, "_BLOCK_BYTES", budget)
            got = alp._lp_batch(model, queries)
        # The whole (q, l, k) gather in one piece, as before blocking.
        dists, idx = model.query_knn(queries)
        local = model.train_nn_dists[idx[:, :l], :]
        big_d = (model.weights_l[None, :, None] * local).sum(axis=1)
        denom = big_d + dists[:, :k]
        expected = np.where(denom == 0.0, 1.0, big_d / np.where(denom == 0.0, 1.0, denom))
        assert got.tobytes() == expected.tobytes()
