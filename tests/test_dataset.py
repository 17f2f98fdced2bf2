import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirad import dataset
from dirad.dataset import (
    AttributeSpec,
    Dataset,
    Direction,
    LabelRule,
    ScalingParams,
    _lines,
    apply_scaler,
    fit_scaler,
    format_csv,
    format_schema,
    orient,
    parse_csv,
    parse_schema,
)


def spec(*pairs):
    return tuple(AttributeSpec(n, Direction(d)) for n, d in pairs)


class TestParseCsv:
    def test_two_rows_no_labels(self):
        ds = parse_csv("a,b\n1,2\n3,4", spec(("a", "none"), ("b", "none")))
        assert np.array_equal(ds.records, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.labels is None

    def test_label_column(self):
        ds = parse_csv("a,b\n1,2\n3,4", spec(("a", "none")), LabelRule("b", "4"))
        assert ds.n_attributes == 1
        assert np.array_equal(ds.records, [[1.0], [3.0]])
        assert list(ds.labels) == [False, True]

    def test_malformed_cell_names_row_and_column(self):
        with pytest.raises(ValueError, match=r"row 1, column 'a'"):
            parse_csv("a,b\nx,2\n3,4", spec(("a", "none"), ("b", "none")))

    @pytest.mark.parametrize("text", ["a,b,y\n", "a,b,y", "b,y,a\r\n"])
    def test_header_only_reads_no_records(self, text):
        ds = parse_csv(text, spec(("a", "none"), ("b", "high")), LabelRule("y", "1"))
        assert ds.records.shape == (0, 2) and ds.records.dtype == np.float64
        assert ds.labels.shape == (0,) and ds.labels.dtype == np.bool_
        assert ds.schema == spec(("a", "none"), ("b", "high"))
        assert not ds.records.flags.writeable and not ds.labels.flags.writeable

    def test_one_row_keeps_its_bits_read_only(self):
        ds = parse_csv("b,y,a\n-0,0,1e308\n", spec(("a", "none"), ("b", "high")),
                       LabelRule("y", "1", "0"))
        assert ds.records.tobytes() == np.array([[1e308, -0.0]]).tobytes()
        assert ds.records.flags.c_contiguous and list(ds.labels) == [False]
        assert not ds.records.flags.writeable and not ds.labels.flags.writeable
        with pytest.raises(ValueError):
            ds.records[0, 0] = 2.0

    @pytest.mark.parametrize("text", ["a,a\n1,2\n", "a\n1\n", ""])
    def test_schema_naming_an_attribute_twice_is_rejected(self, text):
        # Before the header is read: it is the schema that is at fault.
        with pytest.raises(ValueError, match="attribute names must be unique within a schema"):
            parse_csv(text, spec(("a", "none"), ("a", "high")))

    def test_header_mismatch(self):
        with pytest.raises(ValueError, match="schema/header mismatch"):
            parse_csv("a,c\n1,2", spec(("a", "none"), ("b", "none")))

    def test_absent_label_column_reads_as_unlabelled(self):
        rule = LabelRule("y", "anomalous", "normal")
        ds = parse_csv("a,b\n1,2\n3,4", spec(("a", "none"), ("b", "none")), rule)
        assert np.array_equal(ds.records, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.labels is None

    def test_bom_prefixed_header_with_label_column(self):
        rule = LabelRule("y", "anomalous", "normal")
        ds = parse_csv("\ufeffy,a\nnormal,1\nanomalous,2",
                       spec(("a", "none")), rule)
        assert np.array_equal(ds.records, [[1.0], [2.0]])
        assert list(ds.labels) == [False, True]

    def test_unknown_label_value(self):
        rule = LabelRule("lab", "bad", "good")
        with pytest.raises(ValueError, match="unknown label value"):
            parse_csv("a,lab\n1,good\n2,meh", spec(("a", "none")), rule)

    def test_missing_header(self):
        with pytest.raises(ValueError, match="missing header"):
            parse_csv("", spec(("a", "none")))

    def test_header_order_does_not_matter(self):
        ds = parse_csv("b,a\n2,1", spec(("a", "none"), ("b", "none")))
        assert np.array_equal(ds.records, [[1.0, 2.0]])

    def test_roundtrip_is_fixed_point(self):
        rng = np.random.default_rng(11)
        schema = spec(("a", "high"), ("b", "low"), ("c", "none"))
        ds = Dataset(schema, rng.standard_normal((17, 3)) * 100,
                     rng.random(17) < 0.3)
        rule = LabelRule("y", "anomalous", "normal")
        text = format_csv(ds, rule)
        again = parse_csv(text, schema, rule)
        assert np.array_equal(ds.records, again.records)
        assert np.array_equal(ds.labels, again.labels)
        assert format_csv(again, rule) == text

    @settings(max_examples=150, deadline=None)
    @given(records=st.integers(1, 4).flatmap(lambda m: hnp.arrays(
        np.float64, st.tuples(st.integers(0, 40), st.just(m)),
        elements=st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])
        | st.floats(allow_nan=False, allow_infinity=False),
    )))
    @example(records=np.empty((0, 3)))  # header-only text
    def test_every_value_reads_back_bit_for_bit_whatever_the_line_ends(self, records):
        schema = tuple(AttributeSpec(f"a{j}") for j in range(records.shape[1]))
        text = format_csv(Dataset(schema, records))
        for version in (text, text.replace("\n", "\r\n"), text.replace("\n", "\r"),
                        "\ufeff" + text):
            again = parse_csv(version, schema).records
            assert again.shape == records.shape
            assert again.tobytes() == records.tobytes()


def csv_outcome(lines):
    """The rows ``csv.reader`` reads from ``lines`` and the error it stops at."""
    rows = []
    try:
        for row in csv.reader(lines):
            rows.append(row)
    except csv.Error as exc:
        return rows, str(exc)
    return rows, None


# Line ends, the separators str.splitlines also splits at, quotes, a BOM.
CSV_CHARS = ["\r", "\n", "\r\n", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029", "\ufeff", '"', ",", "1", "a"]


class TestLines:
    @settings(max_examples=300, deadline=None)
    @given(pieces=st.lists(st.sampled_from(CSV_CHARS), max_size=40),
           chunk=st.integers(1, 8))
    @example(pieces=["\ufeff", "a", ",", "1", "\n", "1", ",", "1"], chunk=1)
    @example(pieces=['"', "a", "\r", "\n", "1", '"', ",", "1", "\r\n"], chunk=2)
    @example(pieces=["a", "\r", "1", "\x85", "1", "\u2028", "\f"], chunk=1)
    def test_reads_the_rows_and_errors_of_a_string_io(self, pieces, chunk):
        # Pieces of a few characters put every kind of line end at a cut.
        text = "".join(pieces)
        with mock.patch.object(dataset, "_CHUNK_CHARS", chunk):
            assert list(_lines(text)) == list(io.StringIO(text, newline=""))
            assert csv_outcome(_lines(text)) == csv_outcome(io.StringIO(text, newline=""))

    def test_splits_only_at_carriage_returns_and_line_feeds(self):
        text = "a\x85b\u2028c\fd\ve\x1cf\rg\r\nh\ni"
        assert list(_lines(text)) == ["a\x85b\u2028c\fd\ve\x1cf\r", "g\r\n", "h\n", "i"]


class TestDatasetInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(spec(("a", "none")), [[np.nan]])

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            Dataset(spec(("a", "none")), [[1.0, 2.0]])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(spec(("a", "none"), ("a", "high")), [[1.0, 2.0]])

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(spec(("a", "none")), [[1.0], [2.0]], [True])

    def test_records_are_read_only(self):
        ds = Dataset(spec(("a", "none")), [[1.0]])
        with pytest.raises(ValueError):
            ds.records[0, 0] = 2.0

    def test_a_callers_array_is_copied_and_read_only(self):
        callers = np.array([[1.0, -0.0], [2.5, 3.0]])
        ds = Dataset(spec(("a", "none"), ("b", "high")), callers)
        assert not np.shares_memory(ds.records, callers)
        assert callers.flags.writeable and not ds.records.flags.writeable
        callers[0, 0] = 9.0
        assert ds.records.tobytes() == np.array([[1.0, -0.0], [2.5, 3.0]]).tobytes()


class TestOrient:
    def test_low_attribute_flips(self):
        ds = Dataset(spec(("a", "low")), [[1.0], [-2.0]])
        out = orient(ds)
        assert np.array_equal(out.records[:, 0], [-1.0, 2.0])
        assert out.schema[0].direction is Direction.HIGH

    def test_identity_without_low(self):
        ds = Dataset(spec(("a", "none"), ("b", "high")), [[1.0, 2.0]])
        out = orient(ds)
        assert np.array_equal(out.records, ds.records)
        assert out.schema == ds.schema

    def test_idempotent_after_first_flip(self):
        ds = Dataset(spec(("a", "low")), [[3.0], [-1.0]])
        once = orient(ds)
        twice = orient(once)
        assert np.array_equal(once.records, twice.records)
        assert once.schema == twice.schema

    def test_negates_low_columns_bit_for_bit_into_a_read_only_array(self):
        values = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, -2.25], [1e308, -5e-324, 7.0]])
        ds = Dataset(spec(("a", "low"), ("b", "low"), ("c", "none")), values)
        out = orient(ds)
        expected = values.copy()
        expected[:, :2] = -expected[:, :2]
        assert out.records.tobytes() == expected.tobytes()
        assert not out.records.flags.writeable
        assert ds.records.tobytes() == values.tobytes()

    def test_negating_twice_restores_values(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((20, 1))
        ds = Dataset(spec(("a", "low")), values)
        flipped = orient(ds).records
        assert np.array_equal(-flipped, values)


def quantile_scaler(train):
    """``fit_scaler`` as written on ``np.quantile``: the reference for its own
    sort-and-interpolate quartiles."""
    with np.errstate(over="ignore", invalid="ignore"):
        q1, q3 = np.quantile(train.records, [0.25, 0.75], axis=0)
        midhinge = (q1 + q3) / 2.0
        semi_iqr = (q3 - q1) / 2.0
        degenerate = semi_iqr == 0
        if np.any(degenerate):
            half_range = (
                np.max(train.records, axis=0) - np.min(train.records, axis=0)
            ) / 2.0
            semi_iqr = np.where(degenerate, half_range, semi_iqr)
            semi_iqr = np.where(semi_iqr == 0, 1.0, semi_iqr)
    overflowed = ~(np.isfinite(midhinge) & np.isfinite(semi_iqr))
    if overflowed.any():
        name = train.schema[overflowed.argmax()].name
        raise ValueError(f"scaling overflowed on attribute {name}")
    return ScalingParams(midhinge, semi_iqr)


def scaler_outcome(fit, records):
    """The fitted statistics' bytes, or the error message."""
    ds = Dataset(tuple(AttributeSpec(f"a{j}") for j in range(records.shape[1])),
                 records)
    try:
        params = fit(ds)
    except ValueError as exc:
        return str(exc)
    return params.midhinge.tobytes(), params.semi_iqr.tobytes()


# Signed zeros (a column holding both that reads a zero quartile takes
# np.quantile itself), ties and values whose differences or sums overflow.
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 1.5e308, -1.7e308]


class TestScaler:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_quartiles_match_np_quantile_bitwise(self, data):
        n = data.draw(st.integers(1, 60))
        m = data.draw(st.integers(1, 3))
        # A small palette gives ties and constant columns.
        palette = data.draw(st.lists(
            st.one_of(st.sampled_from(SPECIAL),
                      st.floats(-1e3, 1e3, allow_subnormal=False)),
            min_size=1, max_size=6,
        ))
        records = data.draw(hnp.arrays(np.float64, (n, m),
                                       elements=st.sampled_from(palette)))
        assert (scaler_outcome(fit_scaler, records)
                == scaler_outcome(quantile_scaler, records))

    # Columns whose sorted and partitioned order statistics differ in the
    # sign of a zero; n = 1 reads its one value as both quartiles.
    @pytest.mark.parametrize("column", [
        [-0.0],
        [0.0, 0.0, -0.0, -0.0, -0.0, 0.0, -2.0, -0.0, -0.0, -2.0, -2.0, -0.0,
         -0.0, -0.0, -0.0, 1.0, 1.0, 1.0, -2.0],
        [1.0, -2.0, -0.0, 0.0, -2.0, 0.0, -0.0, -0.0, -0.0, 1.0, -0.0, -0.0,
         -0.0, 1.0, -0.0],
    ], ids=["one-row", "ties-19", "ties-15"])
    def test_zero_quartiles_match_np_quantile_bitwise(self, column):
        records = np.array(column)[:, None]
        assert (scaler_outcome(fit_scaler, records)
                == scaler_outcome(quantile_scaler, records))

    @pytest.mark.parametrize("n", [999, 1000, 1001, 4003])
    def test_large_inputs_match_np_quantile_bitwise(self, n):
        rng = np.random.default_rng(n)
        normal = rng.standard_normal((n, 3))
        for records in (normal, np.round(normal * 2) / 2,
                        rng.choice(SPECIAL, size=(n, 3)),
                        rng.choice(SPECIAL[:4], size=(n, 3))):
            assert (scaler_outcome(fit_scaler, records)
                    == scaler_outcome(quantile_scaler, records))

    def test_only_columns_with_both_zeros_call_np_quantile(self, monkeypatch):
        rng = np.random.default_rng(5)
        mixed = np.where(rng.random(101) < 0.5, 0.0, -0.0)
        mixed[:20] = rng.standard_normal(20)
        records = np.column_stack([
            rng.standard_normal(101),
            rng.integers(0, 2, 101).astype(float),  # binary: +0.0 quartiles
            -rng.integers(0, 3, 101).astype(float),  # a "low" count: -0.0
            mixed,
        ])
        expected = scaler_outcome(quantile_scaler, records)
        calls = []

        def spy(a, q, axis):
            calls.append(np.array(a))
            return quantile(a, q, axis=axis)

        quantile = np.quantile
        monkeypatch.setattr(np, "quantile", spy)
        assert scaler_outcome(fit_scaler, records) == expected
        assert len(calls) == 1 and np.array_equal(calls[0], records[:, 3:])

    def test_hand_computed_quartiles(self):
        ds = Dataset(spec(("a", "none")), [[0.0], [2.0], [4.0], [6.0], [8.0]])
        params = fit_scaler(ds)
        assert params.midhinge[0] == 4.0
        assert params.semi_iqr[0] == 2.0

    def test_constant_attribute_falls_back_to_one(self):
        ds = Dataset(spec(("a", "none")), [[5.0]] * 4)
        params = fit_scaler(ds)
        assert params.midhinge[0] == 5.0
        assert params.semi_iqr[0] == 1.0

    def test_two_point_attribute(self):
        # Type-7 quartiles of [-1, 1] are -0.5 and 0.5, so the semi-IQR is 0.5.
        ds = Dataset(spec(("a", "none")), [[-1.0], [1.0]])
        params = fit_scaler(ds)
        assert params.midhinge[0] == 0.0
        assert params.semi_iqr[0] == 0.5

    def test_zero_iqr_uses_half_range(self):
        ds = Dataset(spec(("a", "none")), [[0.0], [1.0], [1.0], [1.0], [1.0], [3.0]])
        params = fit_scaler(ds)
        assert params.semi_iqr[0] == 1.5

    @pytest.mark.parametrize("column", [
        [0.0] * 20 + [1e308, -1e308],  # half the range overflows
        [-1e308, -1e308, 1e308, 1e308, 1e308],  # q1 interpolates inf * 0 = NaN
        [1e308, 1.5e308, 1.7e308, 1.7e308],  # the midhinge sum overflows
    ], ids=["half-range", "quartile", "midhinge"])
    def test_overflowing_statistic_names_its_attribute(self, column):
        ds = Dataset(spec(("a", "none"), ("b", "high")),
                     [[float(i), v] for i, v in enumerate(column)])
        with pytest.raises(ValueError, match="^scaling overflowed on attribute b$"):
            fit_scaler(ds)

    def test_empty_training_set(self):
        ds = Dataset(spec(("a", "none")), np.empty((0, 1)))
        with pytest.raises(ValueError, match="empty"):
            fit_scaler(ds)

    def test_apply_affine_map(self):
        params = fit_scaler(
            Dataset(spec(("a", "none")), [[0.0], [2.0], [4.0], [6.0], [8.0]])
        )
        scaled = apply_scaler(Dataset(spec(("a", "none")), [[8.0], [4.0]]), params)
        assert scaled.records[0, 0] == 2.0
        assert scaled.records[1, 0] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(records=hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)),
                              elements=st.sampled_from([0.0, -0.0])
                              | st.floats(1e-3, 1e6) | st.floats(-1e6, -1e-3)))
    def test_scaled_bytes_follow_the_formula_into_a_read_only_array(self, records):
        ds = Dataset(spec(("a", "none"), ("b", "high"), ("c", "none")), records,
                     np.arange(len(records)) % 2 == 0)
        params = fit_scaler(ds)
        scaled = apply_scaler(ds, params)
        expected = (records - params.midhinge) / params.semi_iqr
        assert scaled.records.tobytes() == expected.tobytes()
        assert scaled.records.flags.c_contiguous and not scaled.records.flags.writeable
        assert scaled.labels is ds.labels and scaled.schema == ds.schema

    @pytest.mark.parametrize("midhinge, semi_iqr",
                             [([np.nan], [1.0]), ([0.0], [np.inf]), ([np.inf], [1.0])])
    def test_non_finite_parameters_rejected(self, midhinge, semi_iqr):
        with pytest.raises(ValueError, match="finite"):
            ScalingParams(midhinge, semi_iqr)

    def test_apply_dimension_mismatch(self):
        params = fit_scaler(Dataset(spec(("a", "none")), [[1.0], [2.0]]))
        with pytest.raises(ValueError, match="attributes"):
            apply_scaler(Dataset(spec(("a", "none"), ("b", "none")),
                                 [[1.0, 2.0]]), params)

    def test_scaled_training_quartiles_are_plus_minus_one(self):
        rng = np.random.default_rng(3)
        ds = Dataset(spec(("a", "none"), ("b", "none")),
                     rng.standard_normal((40, 2)) * 7 + 3)
        scaled = apply_scaler(ds, fit_scaler(ds))
        q1, q3 = np.quantile(scaled.records, [0.25, 0.75], axis=0)
        assert np.allclose(q1, -1.0, atol=1e-12)
        assert np.allclose(q3, 1.0, atol=1e-12)

    def test_translation_and_scale_equivariance(self):
        rng = np.random.default_rng(9)
        raw = rng.standard_normal((25, 3))
        schema = spec(("a", "none"), ("b", "none"), ("c", "none"))
        base = Dataset(schema, raw)
        moved = Dataset(schema, raw * 4.5 + 11.0)
        out_base = apply_scaler(base, fit_scaler(base)).records
        out_moved = apply_scaler(moved, fit_scaler(moved)).records
        assert np.allclose(out_base, out_moved, atol=1e-9)


class TestSchemaFile:
    def test_roundtrip(self):
        schema = spec(("age", "high"), ("income", "low"), ("zip", "none"))
        rule = LabelRule("status", "sick", "healthy")
        text = format_schema(schema, rule)
        parsed_schema, parsed_rule = parse_schema(text)
        assert parsed_schema == schema
        assert parsed_rule == rule

    def test_label_line_without_normal_literal(self):
        parsed_schema, rule = parse_schema("a,high\nlabel,y,1\n")
        assert parsed_schema == spec(("a", "high"))
        assert rule == LabelRule("y", "1")

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            parse_schema("a,up\n")

    @pytest.mark.parametrize("text, lineno", [
        ("v,none\nu,high\nlabel,u,1\n", 3),
        ("label,u,1\nv,none\nu,high\n", 3),
    ], ids=["label-last", "label-first"])
    def test_label_column_that_is_an_attribute_rejected(self, text, lineno):
        # Otherwise parse_csv reads the labels from the attribute's column.
        with pytest.raises(ValueError) as info:
            parse_schema(text)
        assert str(info.value) == (
            f"line {lineno}: label column 'u' is also an attribute"
        )

    @pytest.mark.parametrize("text, lineno", [
        ("u,high\nu,low\n", 2),
        ("u,high\n# note\n\nv,none\nu,high\nlabel,y,1\n", 5),
    ], ids=["adjacent", "apart"])
    def test_attribute_declared_twice_rejected(self, text, lineno):
        # Otherwise the fault surfaces only in parse_csv, without a line.
        with pytest.raises(ValueError) as info:
            parse_schema(text)
        assert str(info.value) == f"line {lineno}: attribute 'u' is declared twice"

    def test_comments_and_blanks_skipped(self):
        parsed_schema, rule = parse_schema("# header\n\na,none\n")
        assert parsed_schema == spec(("a", "none"))
        assert rule is None
