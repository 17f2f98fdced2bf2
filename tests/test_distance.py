from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirad.dataset import AttributeSpec, Direction
from dirad.distance import (
    DistanceSpec,
    DistanceVariant,
    distance_matrix,
    per_attribute,
    record_distance,
)

ABS = DistanceVariant.ABSOLUTE
RAMP = DistanceVariant.RAMP
SIGNED = DistanceVariant.SIGNED


def scalar_loop(y, x, variants):
    """Independent per-pair reference used as the oracle for the kernels."""
    acc = 0.0
    for yj, xj, v in zip(y, x, variants):
        diff = float(yj) - float(xj)
        if v is ABS:
            d = abs(diff)
        elif v is RAMP:
            d = diff if diff > 0.0 else 0.0
        else:
            d = diff
        acc += d
    return acc


class TestPerAttribute:
    def test_ramp_discards_negative_difference(self):
        assert per_attribute(-3.0, RAMP) == 0.0

    def test_signed_keeps_negative_difference(self):
        assert per_attribute(-3.0, SIGNED) == -3.0

    def test_all_variants_agree_on_positive_differences(self):
        assert per_attribute(2.0, ABS) == 2.0
        assert per_attribute(2.0, RAMP) == 2.0
        assert per_attribute(2.0, SIGNED) == 2.0


class TestDistanceSpec:
    def test_for_schema_maps_directional_attributes(self):
        schema = (
            AttributeSpec("a", Direction.HIGH),
            AttributeSpec("b", Direction.NONE),
        )
        spec = DistanceSpec.for_schema(schema, RAMP)
        assert spec.variants == (RAMP, ABS)


class TestRecordDistance:
    def test_mixed_signed_absolute_paradox_instance(self):
        # One directional (signed) and one adirectional (absolute) axis: the
        # mixed distance to the far-away record comes out smaller.
        spec = DistanceSpec((SIGNED, ABS))
        y = [0.0, 0.0]
        x_prime = [6.0, 4.0]
        x = [0.0, 2.0]
        assert record_distance(y, x_prime, spec) == -2.0
        assert record_distance(y, x, spec) == 2.0

    @pytest.mark.parametrize("variant", [ABS, RAMP, SIGNED])
    def test_identity_of_indiscernibles(self, variant):
        spec = DistanceSpec((variant,) * 3)
        x = np.array([1.5, -2.0, 0.25])
        assert record_distance(x, x, spec) == 0.0

    def test_boscovich_sum(self):
        spec = DistanceSpec((ABS, ABS))
        assert record_distance([1.0, 1.0], [0.0, 3.0], spec) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            record_distance([1.0], [1.0, 2.0], DistanceSpec((ABS, ABS)))


class TestDistanceMatrix:
    def test_one_by_one_reduces_to_record_distance(self):
        spec = DistanceSpec((RAMP,))
        dm = distance_matrix([[2.0]], [[5.0]], spec)
        assert dm.shape == (1, 1)
        assert dm[0, 0] == record_distance([2.0], [5.0], spec)

    def test_direct_two_by_two(self):
        spec = DistanceSpec((ABS,))
        dm = distance_matrix([[0.0], [1.0]], [[0.0], [2.0]], spec)
        assert np.array_equal(dm, [[0.0, 2.0], [1.0, 1.0]])

    def test_matches_scalar_loop_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(1, 6))
            pool = [ABS, RAMP, SIGNED]
            variants = tuple(pool[i] for i in rng.integers(0, len(pool), m))
            spec = DistanceSpec(variants)
            queries = rng.standard_normal((5, m)) * 3
            train = rng.standard_normal((5, m)) * 3
            dm = distance_matrix(queries, train, spec)
            for i in range(5):
                for j in range(5):
                    assert dm[i, j] == scalar_loop(queries[i], train[j], variants)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            distance_matrix([[1.0, 2.0]], [[1.0]], DistanceSpec((ABS,)))

    def test_signed_zero_difference_gives_positive_zero(self):
        # -0.0 - 0.0 is -0.0; accumulated from +0.0 the distance is +0.0.
        dm = distance_matrix([[-0.0]], [[0.0]], DistanceSpec((SIGNED,)))
        assert dm[0, 0] == 0.0 and not np.signbit(dm[0, 0])
        assert not np.signbit(record_distance([-0.0], [0.0], DistanceSpec((SIGNED,))))

    def test_ramp_zero_difference_gives_positive_zero(self):
        # np.fmax(-0.0, 0.0) may keep the -0.0 of a ramp term; the cell,
        # accumulated from +0.0, must still be +0.0.
        dm = distance_matrix([[-0.0]], [[0.0]], DistanceSpec((RAMP,)))
        assert dm[0, 0] == 0.0 and not np.signbit(dm[0, 0])
        assert not np.signbit(record_distance([-0.0], [0.0], DistanceSpec((RAMP,))))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_cell_equals_record_distance_bitwise(self, data):
        m = data.draw(st.integers(1, 4))
        pool = [ABS, RAMP, SIGNED]
        variants = data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
        spec = DistanceSpec(tuple(variants))
        values = st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False)
        shapes = st.tuples(st.integers(1, 5), st.just(m))
        queries = data.draw(hnp.arrays(np.float64, shapes, elements=values))
        train = data.draw(hnp.arrays(np.float64, shapes, elements=values))
        dm = distance_matrix(queries, train, spec)
        for i, y in enumerate(queries):
            for j, x in enumerate(train):
                expected = np.float64(record_distance(y, x, spec))
                assert dm[i, j].tobytes() == expected.tobytes()

    def test_ramp_of_infinite_inputs_matches_record_distance(self):
        # inf - inf is NaN, which the scalar ramp clamps to 0.0.
        spec = DistanceSpec((RAMP,))
        dm = distance_matrix([[np.inf], [-np.inf]], [[np.inf], [-np.inf]], spec)
        assert dm.tobytes() == np.array([[0.0, np.inf], [0.0, 0.0]]).tobytes()
        assert record_distance([np.inf], [np.inf], spec) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_infinite_inputs_match_record_distance(self, data):
        # Bitwise wherever the oracle gives a number. Absolute and signed
        # terms of inf - inf (or inf + -inf sums) give NaN on both sides, but
        # NaN payload bits may differ, so NaN cells are compared by position.
        m = data.draw(st.integers(1, 4))
        variants = data.draw(st.lists(st.sampled_from([ABS, RAMP, SIGNED]),
                                      min_size=m, max_size=m))
        spec = DistanceSpec(tuple(variants))
        values = st.sampled_from([np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e308, -1e308])
        shapes = st.tuples(st.integers(1, 4), st.just(m))
        queries = data.draw(hnp.arrays(np.float64, shapes, elements=values))
        train = data.draw(hnp.arrays(np.float64, shapes, elements=values))
        dm = distance_matrix(queries, train, spec)
        expected = np.array([[record_distance(y, x, spec) for x in train] for y in queries])
        assert np.array_equal(np.isnan(dm), np.isnan(expected))
        numbers = ~np.isnan(expected)
        assert dm[numbers].tobytes() == expected[numbers].tobytes()
        if set(variants) == {RAMP}:
            assert not np.isnan(dm).any()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_given_buffers_return_the_default_bytes(self, data):
        # Whatever the buffers held before (NaN, +-inf), the result is the
        # default call's, bit for bit: ties, +-0.0 and +-1e308 included.
        m = data.draw(st.integers(1, 4))
        variants = data.draw(st.lists(st.sampled_from([ABS, RAMP, SIGNED]),
                                      min_size=m, max_size=m))
        spec = DistanceSpec(tuple(variants))
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308])
        queries = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 5)), m),
                                       elements=values))
        train = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 5)), m),
                                     elements=values))
        stale = st.sampled_from([np.nan, np.inf, -np.inf])
        shape = (len(queries), len(train))
        out = data.draw(hnp.arrays(np.float64, shape, elements=stale))
        scratch = data.draw(hnp.arrays(np.float64, shape, elements=stale))
        got = distance_matrix(queries, train, spec, out=out, scratch=scratch)
        assert got is out
        assert got.tobytes() == distance_matrix(queries, train, spec).tobytes()

    @pytest.mark.parametrize("buffer", ["out", "scratch"])
    @pytest.mark.parametrize("shape, dtype", [((2, 4), np.float64), ((3, 3), np.float64),
                                              ((2, 3), np.float32)])
    def test_wrong_buffer_rejected(self, buffer, shape, dtype):
        with pytest.raises(ValueError, match=r"float64 arrays of shape \(2, 3\)"):
            distance_matrix(np.zeros((2, 1)), np.zeros((3, 1)), DistanceSpec((ABS,)),
                            **{buffer: np.zeros(shape, dtype)})

    @pytest.mark.parametrize("n", [3, 511, 512, 513, 2000])
    def test_rows_either_side_of_the_ufunc_buffer_match_bitwise(self, n):
        # The kernel runs with a 512-element ufunc buffer: training sets of
        # 511-513 rows put block rows on both sides of it, 2000 well past it,
        # so the SIMD bodies of fmax, abs and add run, not only their
        # remainder loops. The first attribute's term is built in the result
        # itself, so each variant takes that place in turn, with -0.0 queries
        # against +0.0 training values there; alone, against a column of
        # +0.0, as a later +0.0 term would hide a -0.0 it left in a cell.
        rng = np.random.default_rng(n)
        specials = np.array([0.0, -0.0, 1e308, -1e308, 1.5, -2.25])
        rest = (RAMP, SIGNED, ABS, SIGNED, RAMP)

        def draw(rows):
            values = rng.standard_normal((rows, 1 + len(rest))) * 10
            special = rng.random(values.shape) < 0.4
            values[special] = rng.choice(specials, int(special.sum()))
            return values

        for first in (ABS, RAMP, SIGNED):
            queries, train = draw(3), draw(n)
            queries[:, 0] = -0.0
            train[rng.random(n) < 0.5, 0] = 0.0
            for spec, y, x in ((DistanceSpec((first,)), queries[:, :1], np.zeros((n, 1))),
                               (DistanceSpec((first, *rest)), queries, train)):
                dm = distance_matrix(y, x, spec)
                expected = np.array([[record_distance(a, b, spec) for b in x] for a in y])
                assert dm.tobytes() == expected.tobytes(), (first, spec.m)
                numbers = dm[~np.isnan(dm)]
                if SIGNED in spec.variants:  # only signed terms may be negative
                    numbers = numbers[numbers == 0]
                assert not np.signbit(numbers).any(), (first, spec.m)

    def test_fortran_ordered_train_gives_identical_bytes(self):
        # The kNN loop hands the kernel a Fortran-ordered training matrix.
        rng = np.random.default_rng(19)
        spec = DistanceSpec((ABS, RAMP, SIGNED, ABS))
        values = rng.choice([0.0, -0.0, 1e308, -1e308, 1.5, -2.25], size=(60, 4))
        queries, train = values[:9], values[9:]
        c_order = distance_matrix(queries, np.ascontiguousarray(train), spec)
        f_order = distance_matrix(queries, np.asfortranarray(train), spec)
        assert c_order.tobytes() == f_order.tobytes()

    def test_ufunc_buffer_size_restored(self):
        spec = DistanceSpec((ABS, RAMP))
        rng = np.random.default_rng(3)
        queries, train = rng.standard_normal((4, 2)), rng.standard_normal((600, 2))

        def call_with(bufsize):
            old = np.setbufsize(bufsize)
            try:
                distance_matrix(queries, train, spec)
                return np.getbufsize()
            finally:
                np.setbufsize(old)

        assert call_with(16384) == 16384
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(call_with, [1024, 4096, 8192, 32768])) == [
                1024, 4096, 8192, 32768]
        main_thread = np.getbufsize()
        distance_matrix(queries, train, spec)
        assert np.getbufsize() == main_thread


class TestVariantIdentities:
    def test_ramp_directed_triangle_inequality(self):
        rng = np.random.default_rng(23)
        spec = DistanceSpec((RAMP,) * 4)
        for _ in range(200):
            y, x, z = rng.standard_normal((3, 4)) * 2
            dyz = record_distance(y, z, spec)
            dyx = record_distance(y, x, spec)
            dxz = record_distance(x, z, spec)
            assert dyz <= dyx + dxz + 1e-12

    def test_ramp_nonnegative_zero_on_self_and_asymmetric(self):
        spec = DistanceSpec((RAMP,))
        assert record_distance([1.0], [1.0], spec) == 0.0
        assert record_distance([2.0], [0.0], spec) == 2.0
        assert record_distance([0.0], [2.0], spec) == 0.0

    def test_absolute_is_ramp_sum_of_both_directions(self):
        rng = np.random.default_rng(31)
        abs_spec = DistanceSpec((ABS,) * 3)
        ramp_spec = DistanceSpec((RAMP,) * 3)
        for _ in range(100):
            y, x = rng.standard_normal((2, 3)) * 5
            total = record_distance(y, x, ramp_spec) + record_distance(x, y, ramp_spec)
            assert record_distance(y, x, abs_spec) == pytest.approx(total, abs=1e-12)

    def test_signed_additivity(self):
        rng = np.random.default_rng(37)
        spec = DistanceSpec((SIGNED,) * 3)
        for _ in range(100):
            y, y2, x = rng.standard_normal((3, 3))
            lhs = record_distance(y, x, spec) - record_distance(y2, x, spec)
            assert lhs == pytest.approx(float((y - y2).sum()), abs=1e-12)
