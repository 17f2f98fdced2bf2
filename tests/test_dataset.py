import numpy as np
import pytest

from dirad.dataset import (
    AttributeSpec,
    Dataset,
    Direction,
    LabelRule,
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

    def test_negating_twice_restores_values(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((20, 1))
        ds = Dataset(spec(("a", "low")), values)
        flipped = orient(ds).records
        assert np.array_equal(-flipped, values)


class TestScaler:
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

    def test_comments_and_blanks_skipped(self):
        parsed_schema, rule = parse_schema("# header\n\na,none\n")
        assert parsed_schema == spec(("a", "none"))
        assert rule is None
