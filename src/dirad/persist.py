"""Model bundle persistence: a versioned .npz with a bit-exact round trip.

Only this module knows the format. A bundle stores the fitted model's ``kind``
and one array per constructor field, named after it and read back through the
constructor, and may carry the scaler, schema and label rule it was trained
behind, so a saved model can score raw CSV queries without the original
training data. A SHA-256 ``digest`` over every other array catches edits that
leave the bundle well formed, such as cut training rows. An ALP bundle
always holds the full self-kNN table, which a fitted ALP model leaves out:
``save_model`` searches for it once (``alp.with_table``). A loaded model
then gathers D from the table; without it, every scoring call would search
the training rows its queries gather again: 1.4-12.7x slower per call at
n = 1,200-5,000 and 50 to n queries (ALP ramp, m = 10, 2-vCPU Xeon).
"""

from __future__ import annotations

import dataclasses
import enum
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alp import AlpModel, with_table
from .dataset import (
    AttributeSpec,
    Direction,
    LabelRule,
    ScalingParams,
    format_schema,
    parse_schema,
)
from .distance import DistanceVariant
from .nnd import NndModel

# Version 1 bundles could store a schema's ``low`` attributes as ``high``.
FORMAT_VERSION = 2

_MODELS = {"nnd": NndModel, "alp": AlpModel}

# (dtype, ndim, type a 0-d array is read as) of every array a bundle may hold;
# str means unicode of any width. Enum fields are stored by value.
_ARRAYS = {
    "format_version": (np.int64, 0, int),
    "kind": (str, 0, str),
    "digest": (str, 0, str),
    "exponent_p": (np.float64, 0, float),  # older NND bundles only
    # the model's constructor fields
    "variant": (str, 0, DistanceVariant),
    "train": (np.float64, 2, None),
    "k": (np.int64, 0, int),
    "l": (np.int64, 0, int),
    "directional_mask": (np.bool_, 1, None),
    "train_nn_dists": (np.float64, 2, None),
    # what the model was trained behind
    "scaler_midhinge": (np.float64, 1, None),
    "scaler_semi_iqr": (np.float64, 1, None),
    "schema_names": (str, 1, None),
    "schema_directions": (str, 1, None),
    "schema_label": (str, 0, str),
}


@dataclass(frozen=True)
class ModelBundle:
    model: NndModel | AlpModel
    scaler: ScalingParams | None = None
    schema: tuple[AttributeSpec, ...] | None = None
    label_rule: LabelRule | None = None


def write_atomic(path, write) -> None:
    """Call ``write`` on a binary handle to a temporary file beside ``path``,
    then rename that over ``path``, creating missing parent directories. On
    failure ``path`` keeps its old content and no temporary file is left."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _model_arrays(model: NndModel | AlpModel) -> dict:
    """One bundle array per constructor field of ``model``, in field order."""
    values = {f.name: getattr(model, f.name) for f in dataclasses.fields(model) if f.init}
    return {
        name: np.asarray(v.value if isinstance(v, enum.Enum) else v, _ARRAYS[name][0])
        for name, v in values.items()
    }


def save_model(
    path,
    model: NndModel | AlpModel,
    scaler: ScalingParams | None = None,
    schema: tuple[AttributeSpec, ...] | None = None,
    label_rule: LabelRule | None = None,
) -> NndModel | AlpModel:
    """Write the bundle through ``write_atomic`` and return the model it
    holds: an ALP model gets its full self-kNN table first (``with_table``),
    so a caller that goes on scoring need not search for it again."""
    if model.detector == "alp":
        model = with_table(model)
    arrays: dict = {
        "format_version": np.int64(FORMAT_VERSION),
        "kind": np.str_(model.detector),
        **_model_arrays(model),
    }
    if scaler is not None:
        arrays["scaler_midhinge"] = scaler.midhinge
        arrays["scaler_semi_iqr"] = scaler.semi_iqr
    if schema is not None:
        arrays["schema_names"] = np.array([a.name for a in schema])
        arrays["schema_directions"] = np.array([a.direction.value for a in schema])
    if label_rule is not None:
        arrays["schema_label"] = np.str_(format_schema((), label_rule).strip())
    arrays["digest"] = np.str_(_digest(arrays))
    # Write through a handle so np.savez cannot append ".npz" to the path.
    write_atomic(path, lambda handle: np.savez(handle, **arrays))
    return model


def _digest(arrays: dict) -> str:
    """SHA-256 over the key, dtype, shape and bytes of every array but
    ``digest``, in key order."""
    import hashlib  # loads OpenSSL, which scoring without bundles never needs

    sha = hashlib.sha256()
    for key in sorted(arrays.keys() - {"digest"}):
        arr = np.asarray(arrays[key])
        sha.update(repr((key, arr.dtype.str, arr.shape)).encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


def _read_arrays(path) -> dict:
    with open(path, "rb") as handle:
        if not zipfile.is_zipfile(handle):
            raise ValueError("not an .npz archive")
        handle.seek(0)
        with np.load(handle, allow_pickle=False) as data:
            return {key: data[key] for key in data.files}


def _stored(arrays: dict, key: str):
    """``arrays[key]`` checked against ``_ARRAYS`` for presence, dtype, ndim
    and, for floats, finiteness; a 0-d array is returned as its read type."""
    dtype, ndim, read = _ARRAYS[key]
    if key not in arrays:
        raise ValueError(f"missing array {key!r}")
    arr = np.asarray(arrays[key])
    dtype_ok = arr.dtype.kind == "U" if dtype is str else arr.dtype == dtype
    if not dtype_ok or arr.ndim != ndim:
        raise ValueError(
            f"array {key!r} must be {ndim}-d {np.dtype(dtype).name}, got "
            f"{arr.ndim}-d {arr.dtype}"
        )
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise ValueError(f"array {key!r} holds non-finite values")
    return arr if read is None else read(arr.item())


def _bundle(arrays: dict) -> ModelBundle:
    version = _stored(arrays, "format_version")
    if version < FORMAT_VERSION:
        raise ValueError(
            f"model format version {version} is no longer read; re-save the "
            "model with `dirad score --train ... --save-model`"
        )
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version}; this build "
            f"reads version {FORMAT_VERSION}"
        )
    kind = _stored(arrays, "kind")
    if kind not in _MODELS:
        raise ValueError(f"unknown model kind {kind!r}")
    # Older NND bundles also store the distance exponent; 1 is the only one.
    if kind == "nnd" and "exponent_p" in arrays:
        p = _stored(arrays, "exponent_p")
        if p != 1.0:
            raise ValueError(f"only exponent_p=1 is supported, got {p}")
    model_class = _MODELS[kind]
    fields = [f.name for f in dataclasses.fields(model_class) if f.init]
    model = model_class(**{name: _stored(arrays, name) for name in fields})
    m = model.train.shape[1]
    scaler = None
    # Either array of a pair present means both must be.
    if "scaler_midhinge" in arrays or "scaler_semi_iqr" in arrays:
        scaler = ScalingParams(
            _stored(arrays, "scaler_midhinge"), _stored(arrays, "scaler_semi_iqr")
        )
        if scaler.midhinge.shape != (m,):
            raise ValueError(f"the scaler must have {m} attributes")
    schema = None
    if "schema_names" in arrays or "schema_directions" in arrays:
        names = _stored(arrays, "schema_names")
        directions = _stored(arrays, "schema_directions")
        if names.shape != (m,) or directions.shape != (m,):
            raise ValueError(f"the schema arrays must have {m} entries")
        schema = tuple(
            AttributeSpec(str(name), Direction(str(direction)))
            for name, direction in zip(names, directions)
        )
    label_rule = None
    if "schema_label" in arrays:
        attrs, label_rule = parse_schema(_stored(arrays, "schema_label"))
        if attrs or label_rule is None:
            raise ValueError("schema_label must hold a single label line")
    # Last, so that each structural defect above keeps its own message.
    if _stored(arrays, "digest") != _digest(arrays):
        raise ValueError("the arrays do not match the stored digest")
    return ModelBundle(model, scaler, schema, label_rule)


def load_model(path) -> ModelBundle:
    """Read a bundle written by ``save_model``; any defect is a ValueError."""
    try:
        return _bundle(_read_arrays(path))
    except (ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: invalid model bundle: {exc}") from None
