import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirad import alp
from dirad.alp import AlpConfig, default_k, default_l
from dirad.distance import DistanceVariant
from dirad.neighbours import self_knn_batch

from oracles import alp_oracle, assert_same_scores, directional_dataset

ABS = DistanceVariant.ABSOLUTE
RAMP = DistanceVariant.RAMP


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
        model = alp.fit(directional_dataset(np.arange(6.0)[:, None]), AlpConfig(ABS))
        assert model.k == 5  # default_k(6) = 10, clamped to n-1


class TestConfigAndFit:
    def test_signed_rejected(self):
        with pytest.raises(ValueError, match="signed"):
            AlpConfig(DistanceVariant.SIGNED)

    def test_auto_resolution_at_n_1000(self):
        rng = np.random.default_rng(11)
        model = alp.fit(directional_dataset(rng.standard_normal((1000, 2))), AlpConfig(ABS))
        assert model.k == 38 and model.l == 41

    def test_explicit_k_l_honoured(self):
        model = alp.fit(directional_dataset(np.arange(9.0)[:, None]), AlpConfig(ABS, k=2, l=3))
        assert model.k == 2 and model.l == 3
        assert model.train_nn_dists is None  # fitting searches nothing
        assert alp.with_table(model).train_nn_dists.shape == (9, 2)

    def test_infeasible_explicit_values_rejected(self):
        ds = directional_dataset(np.arange(4.0)[:, None])
        with pytest.raises(ValueError, match="k must be"):
            alp.fit(ds, AlpConfig(ABS, k=4, l=2))
        with pytest.raises(ValueError, match="l must be"):
            alp.fit(ds, AlpConfig(ABS, k=2, l=5))

    def test_duplicate_training_set_gives_zero_distances(self):
        model = alp.fit(directional_dataset(np.ones((6, 2))), AlpConfig(ABS, k=2, l=2))
        assert np.array_equal(alp.with_table(model).train_nn_dists, np.zeros((6, 2)))

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="at least 2"):
            alp.fit(directional_dataset([[1.0]]), AlpConfig(ABS))


class TestLocalisedProximity:
    def test_hand_traced_three_point_instance(self):
        # train {0, 1, 3}, k=l=1, query 5: d1=2, its neighbour 3 has self-NN
        # distance 2, so D1=2 and lp = 2/(2+2) = 0.5.
        model = alp.fit(directional_dataset([[0.0], [1.0], [3.0]]), AlpConfig(ABS, k=1, l=1))
        assert alp._lp_batch(model, [[5.0]])[0, 0] == 0.5
        assert alp.normality_scores(model, [[5.0]])[0] == 0.5

    def test_weighted_maximum_of_two_proximities(self):
        # Same instance with k=2: d = (2, 4) and the neighbour 3 has self-NN
        # distances (2, 3), so lp = (1/2, 3/7), weighted 2/3 and 1/3.
        model = alp.fit(directional_dataset([[0.0], [1.0], [3.0]]), AlpConfig(ABS, k=2, l=1))
        assert np.allclose(alp._lp_batch(model, [[5.0]]), [[0.5, 3 / 7]])
        score = alp.normality_scores(model, [[5.0]])[0]
        assert score == pytest.approx(10 / 21, abs=1e-12)

    def test_zero_query_distance_gives_one(self):
        model = alp.fit(directional_dataset([[0.0], [1.0], [3.0]]), AlpConfig(ABS, k=1, l=1))
        assert alp._lp_batch(model, [[1.0]])[0, 0] == 1.0

    def test_degenerate_duplicates_give_one(self):
        model = alp.fit(directional_dataset(np.zeros((5, 1))), AlpConfig(ABS, k=2, l=2))
        lp = alp._lp_batch(model, [[0.0]])
        assert np.array_equal(lp, [[1.0, 1.0]])
        assert alp.normality_scores(model, [[0.0]])[0] == 1.0

    def test_direct_ratio(self):
        # Construct D=2 against d=6: lp must be 0.25.
        model = alp.fit(directional_dataset([[0.0], [2.0]]), AlpConfig(ABS, k=1, l=1))
        # d1(8) = 6 (to 2); NN_1(8) = 2 whose own nearest distance is 2.
        assert alp._lp_batch(model, [[8.0]])[0, 0] == 0.25

    def test_index_bounds(self):
        # lp_i exists for i = 1..k only: one column per neighbour order.
        model = alp.fit(directional_dataset([[0.0], [1.0], [3.0]]), AlpConfig(ABS, k=1, l=1))
        assert alp._lp_batch(model, [[5.0], [0.0]]).shape == (2, 1)


class TestScoreProperties:
    def test_scores_always_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(1, 4))
            ds = directional_dataset(rng.standard_normal((n, m)))
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
        base = alp.fit(directional_dataset(records), AlpConfig(ABS, k=4, l=6))
        perm = rng.permutation(25)
        shuffled = alp.fit(directional_dataset(records[perm]), AlpConfig(ABS, k=4, l=6))
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
            base = alp.fit(directional_dataset(records), AlpConfig(ABS, k=3, l=4))
            scaled = alp.fit(directional_dataset(records * c), AlpConfig(ABS, k=3, l=4))
            assert np.allclose(
                alp.normality_scores(base, queries),
                alp.normality_scores(scaled, queries * c),
                atol=1e-9,
            )

    def test_ramp_equals_absolute_on_adirectional_data(self):
        rng = np.random.default_rng(23)
        ds = directional_dataset(rng.standard_normal((15, 3)), n_directional=0)
        queries = rng.standard_normal((5, 3))
        m_abs = alp.fit(ds, AlpConfig(ABS, k=3, l=4))
        m_ramp = alp.fit(ds, AlpConfig(RAMP, k=3, l=4))
        assert np.array_equal(
            alp.normality_scores(m_abs, queries),
            alp.normality_scores(m_ramp, queries),
        )

    def test_anomaly_scores_are_complement(self):
        rng = np.random.default_rng(29)
        ds = directional_dataset(rng.standard_normal((12, 2)))
        model = alp.fit(ds, AlpConfig(ABS, k=2, l=3))
        queries = rng.standard_normal((4, 2))
        assert np.array_equal(
            alp.anomaly_scores(model, queries),
            1.0 - alp.normality_scores(model, queries),
        )


class TestBlockedGather:
    def test_scoring_searches_the_gathered_rows_once(self, monkeypatch):
        # Fitting searches nothing; scoring runs one self-kNN of the union of
        # the queries' l nearest rows, in row order.
        rng = np.random.default_rng(9)
        ds = directional_dataset(rng.standard_normal((40, 2)))
        calls = []

        def spy(train, k, spec, **given):
            calls.append(given)
            return self_knn_batch(train, k, spec, **given)

        monkeypatch.setattr(alp, "self_knn_batch", spy)
        model = alp.fit(ds, AlpConfig(RAMP, k=4, l=3))
        assert calls == []
        queries = rng.standard_normal((5, 2))
        _, idx = model.query_knn(queries)
        model.anomaly_scores(queries)
        assert len(calls) == 1 and calls[0].keys() == {"rows"}
        assert calls[0]["rows"].tolist() == np.unique(idx[:, :3]).tolist()
        # A model carrying its full table gathers from it and searches nothing.
        full = alp.with_table(model)
        assert len(calls) == 2 and calls[1] == {}
        full.anomaly_scores(queries)
        assert len(calls) == 2

    @pytest.mark.parametrize("bad", [-1, 30])
    def test_knn_index_out_of_range_rejected(self, bad):
        rng = np.random.default_rng(5)
        ds = directional_dataset(rng.standard_normal((30, 2)))
        model = alp.fit(ds, AlpConfig(RAMP, k=4, l=5))
        queries = rng.standard_normal((3, 2))
        dists, idx = model.query_knn(queries)
        idx = idx.copy()
        idx[1, model.l - 1] = bad
        with pytest.raises(ValueError, match=r"knn indices must be in \[0, 29\]"):
            model.anomaly_scores(queries, (dists, idx))

    def test_knn_without_indices_rejected(self):
        # ALP gathers by the indices, so a distances-only search cannot stand in.
        rng = np.random.default_rng(5)
        ds = directional_dataset(rng.standard_normal((30, 2)))
        model = alp.fit(ds, AlpConfig(RAMP, k=4, l=5))
        queries = rng.standard_normal((3, 2))
        knn = model.query_knn(queries, indices=False)
        assert knn[1] is None
        assert knn[0].tobytes() == model.query_knn(queries)[0].tobytes()
        with pytest.raises(ValueError, match="distances and indices"):
            model.anomaly_scores(queries, knn)

    def test_single_precision_train_nn_dists_score_as_double(self):
        # D is summed in float64; the exact widening keeps every score.
        rng = np.random.default_rng(6)
        model = alp.fit(directional_dataset(np.round(rng.standard_normal((20, 2)), 2)),
                        AlpConfig(ABS, k=3, l=4))
        single = alp.with_table(model).train_nn_dists.astype(np.float32)
        queries = rng.standard_normal((5, 2))
        scores = [
            alp.AlpModel(ABS, model.train, 3, 4, model.directional_mask, nn)
            .anomaly_scores(queries).tobytes()
            for nn in (single, single.astype(np.float64))
        ]
        assert scores[0] == scores[1]


class TestScalarOracle:
    def test_finite_distances_whose_sum_overflows(self):
        # Both rows' self-NN distance is 1e308, so D = 1e308 against d = 1e308:
        # D + d passes the float range, but lp = D / (D + d) is a half, not
        # D / inf = 0 with an overflow warning.
        model = alp.fit(directional_dataset([[1e308], [-2.0]]), AlpConfig(ABS, k=1, l=2))
        assert alp._lp_batch(model, [[-1e308]])[0, 0] == pytest.approx(0.5)

    @settings(deadline=None)
    @given(data=st.data())
    def test_anomaly_scores_match_the_scalar_oracle(self, data):
        # Small integers give tied distances and duplicate rows; +-1e308 rows
        # give distances that overflow to inf; fractions make D's sum over the
        # l neighbours round, so its order shows in the bits.
        m = data.draw(st.integers(1, 3))
        values = st.one_of(
            st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, 1e308, -1e308]),
            st.floats(-3.0, 3.0, allow_subnormal=False),
        )
        records = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(2, 11)), m),
                                       elements=values))
        records = np.concatenate([records, records[: data.draw(st.integers(0, 3))]])
        n = len(records)
        queries = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 6)), m),
                                       elements=values))
        k = data.draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
        l = data.draw(st.one_of(st.just(n), st.integers(1, n)))
        variant = data.draw(st.sampled_from([ABS, RAMP]))
        ds = directional_dataset(records, data.draw(st.integers(0, m)))
        model = alp.fit(ds, AlpConfig(variant, k=k, l=l))
        nn, neighbours, expected = alp_oracle(
            records, ds.directional_mask, variant, k, l, queries)
        assert alp.with_table(model).train_nn_dists.tobytes() == nn.tobytes()
        dists, idx = model.query_knn(queries)
        assert idx.tolist() == [near for near, _ in neighbours]
        assert dists.tobytes() == np.array([d for _, d in neighbours]).tobytes()
        assert_same_scores(model.anomaly_scores(queries), expected)

    @settings(deadline=None)
    @given(data=st.data())
    def test_table_less_model_scores_like_its_full_table(self, data):
        # A fitted model searches only the training rows its queries gather;
        # with l < n that is often a strict subset, which must give the bytes
        # of the full table and the oracle's scores.
        n = data.draw(st.integers(2, 24))
        m = data.draw(st.integers(1, 3))
        values = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 1e308, -1e308])
        records = data.draw(hnp.arrays(np.float64, (n, m), elements=values))
        queries = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(0, 6)), m),
                                       elements=values))
        k = data.draw(st.integers(1, n - 1))
        l = data.draw(st.integers(1, n))
        variant = data.draw(st.sampled_from([ABS, RAMP]))
        ds = directional_dataset(records, data.draw(st.integers(0, m)))
        model = alp.fit(ds, AlpConfig(variant, k=k, l=l))
        assert model.train_nn_dists is None
        full = alp.with_table(model)
        assert full.train_nn_dists.shape == (n, k)
        assert alp._lp_batch(model, queries).tobytes() == alp._lp_batch(full, queries).tobytes()
        got = model.anomaly_scores(queries)
        assert got.tobytes() == full.anomaly_scores(queries).tobytes()
        _, _, expected = alp_oracle(records, ds.directional_mask, variant, k, l, queries)
        assert_same_scores(got, expected)

