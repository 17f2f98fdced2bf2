import contextlib
import dataclasses
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirad import alp, nnd, persist
from dirad.cli import main
from dirad.dataset import AttributeSpec, Dataset, Direction, LabelRule, ScalingParams
from dirad.distance import DistanceVariant
from dirad.persist import FORMAT_VERSION, load_model, save_model


def fitted_models():
    rng = np.random.default_rng(31)
    schema = (
        AttributeSpec("a", Direction.HIGH),
        AttributeSpec("b", Direction.NONE),
    )
    ds = Dataset(schema, rng.standard_normal((12, 2)))
    yield nnd.fit(ds, nnd.NndConfig(DistanceVariant.ABSOLUTE, k=3))
    yield nnd.fit(ds, nnd.NndConfig(DistanceVariant.RAMP, k=2))
    yield nnd.fit(ds, nnd.NndConfig(DistanceVariant.SIGNED, k=4))
    yield alp.fit(ds, alp.AlpConfig(DistanceVariant.RAMP, k=3, l=5))
    # Signed with every attribute directional: no neighbour spec at all.
    all_dir = Dataset(
        tuple(AttributeSpec(f"x{j}", Direction.HIGH) for j in range(2)),
        rng.standard_normal((8, 2)),
    )
    yield nnd.fit(all_dir, nnd.NndConfig(DistanceVariant.SIGNED, k=2))


MODELS = list(fitted_models())


def assert_arrays_equal(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_roundtrip_is_bit_exact(tmp_path, model):
    path = tmp_path / "model.npz"
    save_model(path, model)
    loaded = load_model(path).model
    assert type(loaded) is type(model)
    assert loaded.neighbour_problem == model.neighbour_problem
    saved, restored = model.to_arrays(), loaded.to_arrays()
    assert saved.keys() == restored.keys()
    for key in saved:
        assert_arrays_equal(np.asarray(restored[key]), np.asarray(saved[key]))


def test_roundtrip_scores_identically(tmp_path):
    rng = np.random.default_rng(37)
    schema = tuple(AttributeSpec(f"x{j}", Direction.HIGH) for j in range(3))
    ds = Dataset(schema, rng.standard_normal((15, 3)))
    model = nnd.fit(ds, nnd.NndConfig(DistanceVariant.RAMP, k=4))
    path = tmp_path / "m.npz"
    save_model(path, model)
    loaded = load_model(path).model
    queries = rng.standard_normal((6, 3))
    assert np.array_equal(
        nnd.anomaly_scores(model, queries), nnd.anomaly_scores(loaded, queries)
    )


def test_bundle_carries_scaler_and_schema(tmp_path):
    rng = np.random.default_rng(41)
    schema = (AttributeSpec("f", Direction.HIGH),)
    ds = Dataset(schema, rng.standard_normal((10, 1)))
    model = nnd.fit(ds, nnd.NndConfig(DistanceVariant.ABSOLUTE, k=2))
    scaler = ScalingParams([0.5], [2.0])
    path = tmp_path / "bundle.npz"
    save_model(path, model, scaler=scaler, schema=schema)
    bundle = load_model(path)
    assert bundle.schema == schema
    assert_arrays_equal(bundle.scaler.midhinge, scaler.midhinge)
    assert_arrays_equal(bundle.scaler.semi_iqr, scaler.semi_iqr)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "weird.npz"
    np.savez(path, format_version=np.int64(FORMAT_VERSION + 1), kind=np.str_("nnd"))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_bundle_carries_label_rule(tmp_path):
    model = MODELS[0]
    for rule in (LabelRule("y", "anomalous", "normal"), LabelRule("status", "1")):
        path = tmp_path / "bundle.npz"
        save_model(path, model, label_rule=rule)
        assert load_model(path).label_rule == rule
    save_model(path, model)
    assert load_model(path).label_rule is None


def test_failed_save_keeps_the_old_bundle(tmp_path, monkeypatch):
    model = MODELS[0]
    path = tmp_path / "model.npz"
    save_model(path, model)
    before = path.read_bytes()

    def broken_savez(handle, **arrays):
        handle.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(persist.np, "savez", broken_savez)
    with pytest.raises(OSError, match="disk full"):
        save_model(path, model)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]


# Each fitted model saved the way `dirad score --save-model` saves it: with a
# scaler, a schema and the label rule, so scoring the labelled query CSV below
# needs nothing but the bundle.
LABEL_RULE = LabelRule("label", "anomalous", "normal")
SCHEMA = (AttributeSpec("x0", Direction.HIGH), AttributeSpec("x1", Direction.NONE))
SCALER = ScalingParams([0.0, 0.5], [1.0, 2.0])
NND_RAMP, NND_SIGNED, ALP_RAMP = 1, 2, 3  # positions in MODELS


def edited_bundle(path, model_index, edit):
    save_model(path, MODELS[model_index], SCALER, SCHEMA, LABEL_RULE)
    with np.load(path) as stored:
        arrays = dict(stored)
    edit(arrays)
    np.savez(path, **arrays)
    return path


def with_exponent(arrays, p):
    """Give bundle arrays the older NND layout: an ``exponent_p`` array under
    a digest that covers it."""
    arrays["exponent_p"] = np.float64(p)
    arrays["digest"] = np.str_(persist._digest(arrays))


def cut(stop, *keys):
    """An edit keeping the first ``stop`` entries of each key's last axis."""
    return lambda arrays: arrays.update({k: arrays[k][..., :stop] for k in keys})


@pytest.mark.parametrize(
    "model_index, edit, message",
    [
        (NND_RAMP, lambda a: a.pop("k"), "missing array 'k'"),
        (NND_RAMP, cut(1, "directional_mask"), "directional_mask must have 2 entries"),
        (NND_RAMP, lambda a: a.update(train=a["train"].astype(str)), "2-d float64"),
        (NND_RAMP, lambda a: a.update(k=np.int64(13)), "k=13 exceeds"),
        (NND_RAMP, lambda a: a.update(variant=np.str_("bogus")), "'bogus'"),
        (NND_SIGNED, lambda a: with_exponent(a, 2.0), "exponent_p=1"),
        (ALP_RAMP, cut(2, "train_nn_dists"), "train_nn_dists must have shape"),
        (ALP_RAMP, lambda a: a.update(l=np.int64(13)), "l must be in"),
        (ALP_RAMP, lambda a: a.update(variant=np.str_("signed")), "cannot be used"),
        (ALP_RAMP, cut(1, "directional_mask"), "directional_mask must have 2"),
        (ALP_RAMP, lambda a: a.pop("scaler_semi_iqr"), "missing array 'scaler_semi_iqr'"),
        (ALP_RAMP, cut(1, "scaler_midhinge", "scaler_semi_iqr"), "scaler must have 2"),
        (ALP_RAMP, cut(1, "schema_names"), "schema arrays must have 2"),
        (ALP_RAMP, lambda a: a.update(schema_label=np.str_("x,high")), "label line"),
    ],
)
def test_load_rejects_inconsistent_bundles(tmp_path, model_index, edit, message):
    path = edited_bundle(tmp_path / "model.npz", model_index, edit)
    with pytest.raises(ValueError, match=message):
        load_model(path)


def test_load_rejects_corrupted_array_data(tmp_path):
    path = tmp_path / "model.npz"
    model = MODELS[NND_RAMP]
    save_model(path, model)
    raw = bytearray(path.read_bytes())
    raw[raw.find(model.train.tobytes()) + 3] ^= 0xFF
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="invalid model bundle"):
        load_model(path)


def test_cut_training_rows_fail_the_digest(tmp_path):
    # Half the rows of a 12-row ramp model still make a consistent model.
    path = edited_bundle(
        tmp_path / "model.npz", NND_RAMP, lambda a: a.update(train=a["train"][:6])
    )
    with pytest.raises(ValueError, match="digest"):
        load_model(path)


PERSIST_KEYS = {
    "format_version", "kind", "digest", "scaler_midhinge", "scaler_semi_iqr",
    "schema_names", "schema_directions", "schema_label",
}


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_bundle_stores_only_constructor_fields(tmp_path, model):
    path = tmp_path / "model.npz"
    save_model(path, model, SCALER, SCHEMA, LABEL_RULE)
    with np.load(path) as stored:
        keys = set(stored.files)
    fields = {f.name for f in dataclasses.fields(model) if f.init}
    assert keys == fields | PERSIST_KEYS


TRAIN = Dataset(SCHEMA, np.random.default_rng(43).standard_normal((12, 2)))


@pytest.mark.parametrize(
    "config",
    [
        nnd.NndConfig(DistanceVariant.RAMP, k=13),
        nnd.NndConfig(DistanceVariant.RAMP, k=0),
        alp.AlpConfig(DistanceVariant.RAMP, k=12, l=5),
        alp.AlpConfig(DistanceVariant.RAMP, k=0, l=5),
        alp.AlpConfig(DistanceVariant.RAMP, k=3, l=13),
        alp.AlpConfig(DistanceVariant.RAMP, k=3, l=0),
    ],
    ids=["nnd-k13", "nnd-k0", "alp-k12", "alp-k0", "alp-l13", "alp-l0"],
)
def test_constructor_rejects_what_fit_rejects(config):
    with pytest.raises(ValueError) as from_fit:
        config.fit(TRAIN)
    mask = TRAIN.directional_mask
    if config.detector == "nnd":
        args = (config.variant, TRAIN.records, config.k, mask)
        model_class = nnd.NndModel
    else:
        args = (config.variant, TRAIN.records, config.k, config.l, mask)
        model_class = alp.AlpModel
    with pytest.raises(ValueError, match=re.escape(str(from_fit.value))):
        model_class(*args)


@pytest.fixture(scope="module")
def scoring_bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    queries = root / "queries.csv"
    queries.write_text("x0,x1,label\n0.5,-1.0,normal\n2.0,3.0,anomalous\n")
    paths = []
    for i, model in enumerate(MODELS):
        paths.append(root / f"model{i}.npz")
        save_model(paths[-1], model, SCALER, SCHEMA, LABEL_RULE)
    return queries, paths


def score_bundle(bundle, queries, out):
    """Exit code and stderr lines of `dirad score --model bundle`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["score", "--model", str(bundle), "--queries", str(queries),
                     "--out", str(out)])
    return code, err.getvalue().splitlines()


def test_version_1_bundle_names_the_fix(scoring_bundles, tmp_path):
    # The version 1 layout of MODELS[NND_RAMP]; it cannot be told apart from
    # one whose `low` attributes were stored as `high`.
    queries, _ = scoring_bundles
    model = MODELS[NND_RAMP]
    path, out = tmp_path / "v1.npz", tmp_path / "scores.csv"
    np.savez(
        path, format_version=np.int64(1), kind=np.str_("nnd"),
        variant=np.str_("ramp"), train=model.train, weights=model.weights,
        directional_mask=model.directional_mask,
        spec_codes=np.array([1, 0], dtype=np.int8),  # v1 layout: ramp, absolute
        spec_p=np.float64(1.0), scaler_midhinge=SCALER.midhinge,
        scaler_semi_iqr=SCALER.semi_iqr, schema_names=np.array(["x0", "x1"]),
        schema_directions=np.array(["high", "none"]),
        schema_label=np.str_("label,label,anomalous,normal"),
    )
    code, lines = score_bundle(path, queries, out)
    assert code == 1 and len(lines) == 1
    assert lines[0].startswith("error: ")
    assert "dirad score --train ... --save-model" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "model_index", [i for i, m in enumerate(MODELS) if m.detector == "nnd"]
)
def test_older_bundle_with_unit_exponent_scores_identically(
    scoring_bundles, tmp_path, model_index
):
    queries, paths = scoring_bundles
    older = edited_bundle(
        tmp_path / "older.npz", model_index, lambda a: with_exponent(a, 1.0)
    )
    outputs = []
    for path in (paths[model_index], older):
        outputs.append(tmp_path / f"{path.stem}.csv")
        assert score_bundle(path, queries, outputs[-1]) == (0, [])
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_intact_bundles_score_without_schema(scoring_bundles, tmp_path):
    queries, paths = scoring_bundles
    for path in paths:
        out = tmp_path / "scores.csv"
        assert score_bundle(path, queries, out) == (0, [])
        assert len(out.read_text().splitlines()) == 3


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_bundle_fails_with_one_error_line(
    scoring_bundles, tmp_path_factory, data
):
    queries, paths = scoring_bundles
    path = data.draw(st.sampled_from(paths), label="bundle")
    work = tmp_path_factory.mktemp("damaged")
    bad, out = work / "bad.npz", work / "scores.csv"
    damage = data.draw(st.sampled_from(["delete", "truncate", "retype", "cut"]))
    if damage == "cut":
        raw = path.read_bytes()
        bad.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="size")])
    else:
        with np.load(path) as stored:
            arrays = dict(stored)
        key = data.draw(st.sampled_from(sorted(arrays)), label="key")
        arr = arrays[key]
        if damage == "delete":
            del arrays[key]
        elif damage == "truncate":
            # Cut the last axis: rows of `train` alone would still make a
            # consistent, smaller NND model.
            arrays[key] = arr[..., :-1] if arr.ndim else arr.reshape(1)[:0]
        elif arr.dtype.kind == "U":
            arrays[key] = arr.astype(np.bytes_)
        else:
            others = [t for t in (np.float64, np.float32, np.int64, np.int8, np.bool_,
                                  np.str_) if np.dtype(t) != arr.dtype]
            arrays[key] = arr.astype(data.draw(st.sampled_from(others), label="dtype"))
        np.savez(bad, **arrays)
    code, lines = score_bundle(bad, queries, out)
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()
