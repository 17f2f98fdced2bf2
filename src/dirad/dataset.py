"""Tabular datasets with per-attribute directionality, plus robust scaling.

Attributes are tagged with a direction: ``high`` means large values indicate
anomality (a risk factor), ``low`` the opposite, ``none`` adirectional.
``orient`` flips ``low`` attributes so that detectors only ever see ``high``
and ``none``. Scaling subtracts the midhinge and divides by the
semi-interquartile range fitted on normal training data, mapping the training
interquartile range onto [-1, 1].
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class Direction(enum.Enum):
    """Which extreme of an attribute indicates anomality."""

    HIGH = "high"
    LOW = "low"
    NONE = "none"


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    direction: Direction = Direction.NONE


@dataclass(frozen=True)
class LabelRule:
    """Names the label column and the cell values that mark each class.

    ``normal_value`` is optional: when unset, every cell that is not the
    anomalous literal counts as normal; when set, any other value is an error.
    """

    column: str
    anomalous_value: str
    normal_value: str | None = None


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric record matrix with a directionality schema.

    ``records`` is an (n, m) float64 matrix; ``labels``, when present, is a
    boolean vector of length n with True marking anomalous records.
    """

    schema: tuple[AttributeSpec, ...]
    records: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        schema = tuple(self.schema)
        names = [a.name for a in schema]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique within a schema")
        records = np.array(self.records, dtype=np.float64, order="C")
        if records.ndim != 2:
            raise ValueError(f"records must be a 2-d matrix, got ndim={records.ndim}")
        if records.shape[1] != len(schema):
            raise ValueError(
                f"records have {records.shape[1]} columns but the schema has "
                f"{len(schema)} attributes"
            )
        if not np.all(np.isfinite(records)):
            raise ValueError("records contain missing or non-finite values")
        records.setflags(write=False)
        labels = self.labels
        if labels is not None:
            labels = np.array(labels, dtype=bool)
            if labels.shape != (records.shape[0],):
                raise ValueError("labels length must equal the number of records")
            labels.setflags(write=False)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "labels", labels)

    @property
    def n_records(self) -> int:
        return self.records.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.records.shape[1]

    @property
    def directional_mask(self) -> np.ndarray:
        """Boolean mask of attributes whose direction is not ``none``."""
        return np.array([a.direction is not Direction.NONE for a in self.schema])

    def take(self, rows: np.ndarray | Sequence[int]) -> "Dataset":
        """Row subset (labels sliced alongside when present)."""
        rows = np.asarray(rows)
        labels = None if self.labels is None else self.labels[rows]
        return Dataset(self.schema, self.records[rows], labels)


def parse_csv(
    text: str,
    schema: Sequence[AttributeSpec],
    label_rule: LabelRule | None = None,
) -> Dataset:
    """Parse an RFC-4180 style CSV (header row, '.' decimals) into a Dataset.

    Columns are matched to the schema by name; the header must contain exactly
    the schema attributes plus, when ``label_rule`` is given, its label
    column. A label column absent from the header reads as unlabelled data.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("missing header row") from None
    if header and header[0].startswith("﻿"):
        header = [header[0][1:]] + header[1:]
    if label_rule is not None and label_rule.column not in header:
        label_rule = None
    expected = [a.name for a in schema]
    if label_rule is not None:
        expected.append(label_rule.column)
    if sorted(header) != sorted(expected):
        raise ValueError(
            f"schema/header mismatch: header {header!r} does not match the "
            f"expected columns {sorted(expected)!r}"
        )
    position = {name: header.index(name) for name in header}
    attr_pos = [position[a.name] for a in schema]
    label_pos = position[label_rule.column] if label_rule is not None else None

    rows: list[list[float]] = []
    labels: list[bool] = []
    for rownum, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise ValueError(
                f"row {rownum}: expected {len(header)} cells, got {len(row)}"
            )
        values = []
        for a, pos in zip(schema, attr_pos):
            cell = row[pos]
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"row {rownum}, column {a.name!r}: could not parse "
                    f"{cell!r} as a number"
                ) from None
        rows.append(values)
        if label_rule is not None:
            cell = row[label_pos]
            if cell == label_rule.anomalous_value:
                labels.append(True)
            elif label_rule.normal_value is None or cell == label_rule.normal_value:
                labels.append(False)
            else:
                raise ValueError(
                    f"row {rownum}, column {label_rule.column!r}: unknown "
                    f"label value {cell!r}"
                )

    records = np.array(rows, dtype=np.float64).reshape(len(rows), len(schema))
    return Dataset(
        tuple(schema), records, np.array(labels, dtype=bool) if label_rule else None
    )


def format_csv(ds: Dataset, label_rule: LabelRule | None = None) -> str:
    """Serialize a Dataset back to CSV text; a round-trip is a fixed point.

    Floats are written with shortest round-trip precision, so re-parsing
    reproduces the records bit for bit.
    """
    if label_rule is not None and ds.labels is None:
        raise ValueError("label rule given but the dataset has no labels")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = [a.name for a in ds.schema]
    if label_rule is not None:
        header.append(label_rule.column)
    writer.writerow(header)
    normal = label_rule.normal_value if label_rule is not None else None
    for i in range(ds.n_records):
        row = [repr(float(v)) for v in ds.records[i]]
        if label_rule is not None:
            if ds.labels[i]:
                row.append(label_rule.anomalous_value)
            else:
                row.append(normal if normal is not None else "")
        writer.writerow(row)
    return out.getvalue()


def _label_is_attribute(lineno: int, column: str) -> ValueError:
    # parse_csv would read the labels from the attribute's column.
    return ValueError(f"line {lineno}: label column '{column}' is also an attribute")


def parse_schema(text: str) -> tuple[tuple[AttributeSpec, ...], LabelRule | None]:
    """Parse a schema file: one ``name,direction`` line per attribute.

    An optional ``label,<column>,<anomalous-literal>[,<normal-literal>]`` line
    declares the label column. Blank lines and '#' comments are skipped.
    """
    attrs: list[AttributeSpec] = []
    label: LabelRule | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts[0] == "label":
            if label is not None:
                raise ValueError(f"line {lineno}: duplicate label declaration")
            if len(parts) == 3:
                label = LabelRule(parts[1], parts[2])
            elif len(parts) == 4:
                label = LabelRule(parts[1], parts[2], parts[3])
            else:
                raise ValueError(
                    f"line {lineno}: label line needs a column and an "
                    f"anomalous literal"
                )
            if any(a.name == label.column for a in attrs):
                raise _label_is_attribute(lineno, label.column)
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'name,direction', got {raw!r}")
        name, direction = parts
        if label is not None and name == label.column:
            raise _label_is_attribute(lineno, name)
        if any(a.name == name for a in attrs):
            raise ValueError(f"line {lineno}: attribute {name!r} is declared twice")
        try:
            attrs.append(AttributeSpec(name, Direction(direction)))
        except ValueError:
            raise ValueError(
                f"line {lineno}: direction must be high, low or none, got "
                f"{direction!r}"
            ) from None
    return tuple(attrs), label


def format_schema(
    schema: Iterable[AttributeSpec], label_rule: LabelRule | None = None
) -> str:
    lines = [f"{a.name},{a.direction.value}" for a in schema]
    if label_rule is not None:
        line = f"label,{label_rule.column},{label_rule.anomalous_value}"
        if label_rule.normal_value is not None:
            line += f",{label_rule.normal_value}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def orient(ds: Dataset) -> Dataset:
    """Negate every direction=low attribute and relabel it direction=high.

    High values then indicate anomality for every directional attribute;
    applying the operation twice is the same as applying it once.
    """
    records = np.array(ds.records)
    schema = []
    for j, attr in enumerate(ds.schema):
        if attr.direction is Direction.LOW:
            records[:, j] = -records[:, j]
            schema.append(AttributeSpec(attr.name, Direction.HIGH))
        else:
            schema.append(attr)
    return Dataset(tuple(schema), records, ds.labels)


@dataclass(frozen=True)
class ScalingParams:
    """Per-attribute midhinge and semi-interquartile range."""

    midhinge: np.ndarray
    semi_iqr: np.ndarray

    def __post_init__(self) -> None:
        mid = np.array(self.midhinge, dtype=np.float64)
        semi = np.array(self.semi_iqr, dtype=np.float64)
        if mid.ndim != 1 or mid.shape != semi.shape:
            raise ValueError("midhinge and semi_iqr must be equal-length vectors")
        if not np.all(semi > 0):
            raise ValueError("semi_iqr entries must be strictly positive")
        mid.setflags(write=False)
        semi.setflags(write=False)
        object.__setattr__(self, "midhinge", mid)
        object.__setattr__(self, "semi_iqr", semi)


def stored_array(arrays, key: str, dtype, ndim: int) -> np.ndarray:
    """``arrays[key]`` of a model bundle, checked for presence, dtype (any
    unicode width for ``str``), ndim and, for floats, finiteness."""
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
    return arr


def fit_scaler(train: Dataset) -> ScalingParams:
    """Fit midhinge/semi-IQR per attribute on (normal) training records.

    Quartiles use linear interpolation between order statistics (the common
    "type 7" rule). A zero semi-IQR falls back to half the full range, and to
    1 if the attribute is constant.
    """
    if train.n_records == 0:
        raise ValueError("cannot fit a scaler on an empty training set")
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
    return ScalingParams(midhinge, semi_iqr)


def apply_scaler(ds: Dataset, params: ScalingParams) -> Dataset:
    """Map every value v in attribute j to (v - midhinge[j]) / semi_iqr[j];
    a value that overflows is a ValueError naming its attribute."""
    if ds.n_attributes != params.midhinge.shape[0]:
        raise ValueError(
            f"dataset has {ds.n_attributes} attributes but the scaler was "
            f"fitted on {params.midhinge.shape[0]}"
        )
    with np.errstate(over="ignore"):  # reported below, by attribute
        scaled = (ds.records - params.midhinge) / params.semi_iqr
    overflowed = np.isinf(scaled).any(axis=0)
    if overflowed.any():
        name = ds.schema[overflowed.argmax()].name
        raise ValueError(f"scaling overflowed on attribute {name}")
    return Dataset(ds.schema, scaled, ds.labels)
