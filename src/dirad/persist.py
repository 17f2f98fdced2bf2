"""Model bundle persistence: a versioned .npz with a bit-exact round trip.

A bundle always stores the fitted model (its ``kind`` plus its ``to_arrays``)
and may carry the scaler, schema and label rule it was trained behind, so a
saved model can score raw CSV queries without the original training data. A
SHA-256 ``digest`` over every other array catches edits that leave the bundle
well formed, such as cut training rows.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alp import AlpModel
from .dataset import (
    AttributeSpec,
    Direction,
    LabelRule,
    ScalingParams,
    format_schema,
    parse_schema,
    stored_array,
)
from .nnd import NndModel

# Version 1 bundles could store a schema's ``low`` attributes as ``high``.
FORMAT_VERSION = 2

_MODELS = {"nnd": NndModel, "alp": AlpModel}


@dataclass(frozen=True)
class ModelBundle:
    model: NndModel | AlpModel
    scaler: ScalingParams | None = None
    schema: tuple[AttributeSpec, ...] | None = None
    label_rule: LabelRule | None = None


def save_model(
    path,
    model: NndModel | AlpModel,
    scaler: ScalingParams | None = None,
    schema: tuple[AttributeSpec, ...] | None = None,
    label_rule: LabelRule | None = None,
) -> None:
    """Write the bundle to a temporary file, then rename it over ``path``."""
    arrays: dict = {
        "format_version": np.int64(FORMAT_VERSION),
        "kind": np.str_(model.detector),
        **model.to_arrays(),
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
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        # Write through a handle so np.savez cannot append ".npz" to the path.
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _digest(arrays: dict) -> str:
    """SHA-256 over the key, dtype, shape and bytes of every array but
    ``digest``, in key order."""
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


def _bundle(arrays: dict) -> ModelBundle:
    version = int(stored_array(arrays, "format_version", np.int64, 0))
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
    kind = str(stored_array(arrays, "kind", str, 0))
    if kind not in _MODELS:
        raise ValueError(f"unknown model kind {kind!r}")
    model = _MODELS[kind].from_arrays(arrays)
    m = model.train.shape[1]
    scaler = None
    # Either array of a pair present means both must be.
    if "scaler_midhinge" in arrays or "scaler_semi_iqr" in arrays:
        scaler = ScalingParams(
            stored_array(arrays, "scaler_midhinge", np.float64, 1),
            stored_array(arrays, "scaler_semi_iqr", np.float64, 1),
        )
        if scaler.midhinge.shape != (m,):
            raise ValueError(f"the scaler must have {m} attributes")
    schema = None
    if "schema_names" in arrays or "schema_directions" in arrays:
        names = stored_array(arrays, "schema_names", str, 1)
        directions = stored_array(arrays, "schema_directions", str, 1)
        if names.shape != (m,) or directions.shape != (m,):
            raise ValueError(f"the schema arrays must have {m} entries")
        schema = tuple(
            AttributeSpec(str(name), Direction(str(direction)))
            for name, direction in zip(names, directions)
        )
    label_rule = None
    if "schema_label" in arrays:
        line = stored_array(arrays, "schema_label", str, 0)
        attrs, label_rule = parse_schema(str(line))
        if attrs or label_rule is None:
            raise ValueError("schema_label must hold a single label line")
    # Last, so that each structural defect above keeps its own message.
    if str(stored_array(arrays, "digest", str, 0)) != _digest(arrays):
        raise ValueError("the arrays do not match the stored digest")
    return ModelBundle(model, scaler, schema, label_rule)


def load_model(path) -> ModelBundle:
    """Read a bundle written by ``save_model``; any defect is a ValueError."""
    try:
        return _bundle(_read_arrays(path))
    except (ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: invalid model bundle: {exc}") from None
