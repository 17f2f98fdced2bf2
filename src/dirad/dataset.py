"""Tabular datasets with per-attribute directionality, plus robust scaling.

Attributes are tagged with a direction: ``high`` means large values indicate
anomality (a risk factor), ``low`` the opposite, ``none`` adirectional.
``orient`` flips ``low`` attributes so that detectors only ever see ``high``
and ``none``. Scaling subtracts the midhinge and divides by the
semi-interquartile range fitted on normal training data, mapping the training
interquartile range onto [-1, 1]. The CSV and schema text formats are read and
written here; the model bundle format belongs to ``persist`` alone.
``csv_text`` is the one CSV writer: ``format_csv`` (synth's data files),
``evaluation``'s ``fold_results_csv``, ``summary_csv`` and ``sweep_csv``, and
the scores of ``dirad score`` and the report of ``dirad stats`` all go
through it, so it alone decides quoting and line ends.
"""

from __future__ import annotations

import array
import csv
import enum
import io
import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

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

    @classmethod
    def _built(cls, schema: tuple[AttributeSpec, ...], records: np.ndarray,
               labels: np.ndarray | None) -> "Dataset":
        """A Dataset around arrays this module has just built and checked.

        ``schema`` is a tuple of uniquely named attributes, ``records`` a
        fresh C-ordered (n, m) float64 array that nothing else holds and that
        is known to be finite, and ``labels`` None or a bool vector of length
        n that nothing else writes; so both are made read-only and kept,
        neither copied nor scanned again as ``__post_init__`` would (on a
        1,000 x 10 problem, 17 us of ``apply_scaler``'s 85 us).
        """
        records.setflags(write=False)
        if labels is not None:
            labels.setflags(write=False)
        ds = object.__new__(cls)
        object.__setattr__(ds, "schema", schema)
        object.__setattr__(ds, "records", records)
        object.__setattr__(ds, "labels", labels)
        return ds

    def take(self, rows: np.ndarray | Sequence[int]) -> "Dataset":
        """Row subset (labels sliced alongside when present)."""
        rows = np.asarray(rows)
        labels = None if self.labels is None else self.labels[rows]
        return Dataset(self.schema, self.records[rows], labels)


# Characters per io.StringIO in _lines: it holds 4 bytes a character, so a
# whole 10 MB CSV in one took 37 MB (tracemalloc).
_CHUNK_CHARS = 1 << 16


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text`` with their ends, as ``io.StringIO(text,
    newline="")`` reads them: split only at ``\r\n``, ``\r`` and ``\n``.

    ``text`` is read through one StringIO per piece of at least
    ``_CHUNK_CHARS`` characters, each cut just after a ``\n``, which always
    ends a line. A text without ``\n`` is read in one piece.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield from io.StringIO(text[start:end], newline="")
        start = end


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
    schema = tuple(schema)
    expected = [a.name for a in schema]
    if len(set(expected)) != len(expected):
        raise ValueError("attribute names must be unique within a schema")
    reader = csv.reader(_lines(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("missing header row") from None
    if header and header[0].startswith("﻿"):
        header = [header[0][1:]] + header[1:]
    if label_rule is not None and label_rule.column not in header:
        label_rule = None
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

    # One float64 buffer for every cell, 8 bytes a value; a list of float
    # objects per row would take about 42 (tracemalloc, 10-value rows).
    values = array.array("d")
    labels: list[bool] = []
    rownum = 0
    for rownum, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise ValueError(
                f"row {rownum}: expected {len(header)} cells, got {len(row)}"
            )
        for a, pos in zip(schema, attr_pos):
            cell = row[pos]
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"row {rownum}, column {a.name!r}: could not parse "
                    f"{cell!r} as a number"
                ) from None
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

    records = np.frombuffer(values, dtype=np.float64).reshape(rownum, len(schema))
    finite = np.isfinite(records)
    if not finite.all():  # name the first non-finite cell, in the order read
        r, j = divmod(int(np.argmin(finite)), len(schema))
        row = next(itertools.islice(csv.reader(_lines(text)), r + 1, None))
        raise ValueError(
            f"row {r + 1}, column {schema[j].name!r}: {row[attr_pos[j]]!r} "
            f"is not a finite number"
        )
    return Dataset._built(
        schema, records, np.array(labels, dtype=bool) if label_rule else None
    )


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The CSV text of a header and its rows, one ``\\n`` after each row.

    A field is written as its ``str`` (a Python float's is its shortest
    round-trip repr); one that holds a comma, a double quote, a ``\\r`` or a
    ``\\n`` is quoted as RFC 4180 says, so ``csv`` reads it back.
    """
    # csv quotes a field holding a character of the line terminator, so rows
    # are written with "\r\n", which quotes both, and then end in "\n" alone.
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join([line[:-2] + "\n" for line in lines])


def format_csv(ds: Dataset, label_rule: LabelRule | None = None) -> str:
    """Serialize a Dataset back to CSV text; a round-trip is a fixed point.

    Floats are written with shortest round-trip precision, so re-parsing
    reproduces the records bit for bit.
    """
    if label_rule is not None and ds.labels is None:
        raise ValueError("label rule given but the dataset has no labels")
    header = [a.name for a in ds.schema]
    rows = ds.records.tolist()
    if label_rule is not None:
        header.append(label_rule.column)
        normal = label_rule.normal_value or ""
        for row, anomalous in zip(rows, ds.labels):
            row.append(label_rule.anomalous_value if anomalous else normal)
    return csv_text(header, rows)


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
    low = [a.direction is Direction.LOW for a in ds.schema]
    schema = tuple(
        AttributeSpec(a.name, Direction.HIGH) if flip else a
        for a, flip in zip(ds.schema, low)
    )
    # Multiplying by -1.0 negates exactly, zeros included, and by 1.0 keeps.
    records = ds.records * np.where(low, -1.0, 1.0)
    return Dataset._built(schema, records, ds.labels)


@dataclass(frozen=True)
class ScalingParams:
    """Per-attribute midhinge and semi-interquartile range: finite, and the
    semi-IQR strictly positive."""

    midhinge: np.ndarray
    semi_iqr: np.ndarray

    def __post_init__(self) -> None:
        mid = np.array(self.midhinge, dtype=np.float64)
        semi = np.array(self.semi_iqr, dtype=np.float64)
        if mid.ndim != 1 or mid.shape != semi.shape:
            raise ValueError("midhinge and semi_iqr must be equal-length vectors")
        if not np.all(semi > 0):
            raise ValueError("semi_iqr entries must be strictly positive")
        if not (np.isfinite(mid).all() and np.isfinite(semi).all()):
            raise ValueError("midhinge and semi_iqr entries must be finite")
        mid.setflags(write=False)
        semi.setflags(write=False)
        object.__setattr__(self, "midhinge", mid)
        object.__setattr__(self, "semi_iqr", semi)


def _quartiles(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column type-7 quartiles, bit-identical to ``np.quantile``'s."""
    n = records.shape[0]
    ordered = records.T.copy()
    ordered.sort(axis=1)
    quartiles, reads_zero = [], False
    for p in (0.25, 0.75):
        # np.quantile's order statistics and weight at the virtual index
        # (n - 1) * p: its floor and the next one, or, where it reaches the
        # last (n = 1), the last one twice at index -1.
        v = (n - 1) * p
        lo, hi = (int(v), int(v) + 1) if v < n - 1 else (-1, -1)
        a, b, t = ordered[:, lo], ordered[:, hi], v - lo
        # np.quantile's lerp, form for form: the t >= 0.5 form rounds differently.
        quartiles.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
        reads_zero = reads_zero | (a == 0) | (b == 0)
    # Tied values have equal bits, except -0.0 and +0.0: in a column holding
    # both, sorting and np.quantile's partition may place them differently (or
    # a SIMD sort may rewrite one as the other). Where such a column reads a
    # zero, np.quantile decides.
    suspect = np.flatnonzero(reads_zero)
    if suspect.size:
        zero, negative = records[:, suspect] == 0, np.signbit(records[:, suspect])
        mixed = suspect[(zero & negative).any(axis=0) & (zero & ~negative).any(axis=0)]
        if mixed.size:
            quartiles[0][mixed], quartiles[1][mixed] = np.quantile(
                records[:, mixed], [0.25, 0.75], axis=0
            )
    return quartiles[0], quartiles[1]


def fit_scaler(train: Dataset) -> ScalingParams:
    """Fit midhinge/semi-IQR per attribute on (normal) training records.

    Quartiles use linear interpolation between order statistics (the common
    "type 7" rule). A zero semi-IQR falls back to half the full range, and to
    1 if the attribute is constant. A statistic that overflows is a
    ValueError naming its attribute.

    Each column is sorted once and its quartiles interpolated by NumPy's
    ``_lerp`` formula at the virtual index (n - 1) * p, written out here: on a
    1,000 x 10 problem ``np.quantile`` spent about 0.30 of its 0.38 ms in a
    multi-kth partition, and its ``np.unique`` imported ``numpy.ma``
    (+0.9 MB resident); the sort stays faster up to 50,000 rows. Sorted and
    partitioned columns hold the same values at each position, and equal
    values have equal bits except -0.0 and +0.0. So only a column holding
    both zeros, with a zero among the order statistics read, takes its
    quartiles from ``np.quantile`` itself.
    """
    if train.n_records == 0:
        raise ValueError("cannot fit a scaler on an empty training set")
    # Interpolating across a gap wider than the float range gives inf or
    # inf * 0 = NaN; any non-finite statistic is reported below, by attribute.
    with np.errstate(over="ignore", invalid="ignore"):
        q1, q3 = _quartiles(train.records)
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
    # Finite: finite records, finite statistics and no inf, checked above.
    return Dataset._built(ds.schema, scaled, ds.labels)
