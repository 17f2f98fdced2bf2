"""Fuzz ``dirad score`` with generated training and query CSV files.

Every example must either exit 0 with one finite score per query row, or exit
nonzero with exactly one stderr line, ``error: ...`` naming the input file at
fault, no traceback and no ``--out`` file. The example budget is Hypothesis's
current profile: the default one in tier-1, and the larger ``fuzz`` profile
(tests/conftest.py) for a longer run:

    pytest tests/test_csv_fuzz.py --hypothesis-profile fuzz
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dirad import cli

SCHEMA = "a,high\nb,low\nc,none\n"
HEADERS = ["a,b,c", "c,a,b", '"a","b","c"']
BAD_HEADERS = ["a,b", "a,b,c,d", "a,a,c", "A,b,c", ""]

# Spellings float() reads: finite ones, extreme magnitudes among them, then
# ones that overflow or are not finite.
NUMBERS = [
    "0", "1.5", "-2", "3e2", "0.0", "-0.0", "+0.0", "5e-324", "-5e-324",
    "2.2250738585072014e-308", "1e308", "-1e308", "1.7976931348623157e308",
    "1e309", "nan", "NaN", "-nan", "inf", "-inf", "+Inf", "infinity", "-Infinity",
]
JUNK = ["", " ", " 1 ", "x", '"', "1,5", "1\n2", "1\r2", "é", "\ufeff1"]

finite_cells = st.one_of(
    st.sampled_from(NUMBERS[:13]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
bad_cells = st.one_of(st.sampled_from(NUMBERS[13:]), st.sampled_from(JUNK),
                      st.text(max_size=3))
FAULTS = ("blank", "header", "ragged", "cell", "byte")


def quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def csv_files(draw, clean):
    """CSV bytes: a header and one to eight rows of three cells, each quoted
    or not, line ends mixed, with or without a BOM and a final line end. Of
    ``clean`` + 5 draws, ``clean`` have no fault and each other one part that
    goes wrong: the file is blank or header-only, the header is not the
    schema's, a row is ragged, a cell is non-finite or not a number, or a byte
    that is not UTF-8 is inserted."""
    fault = draw(st.sampled_from((None,) * clean + FAULTS))
    if fault == "blank":
        return draw(st.sampled_from([b"", b"\n", b"\r\n", b"\xef\xbb\xbf", b"a,b,c"]))
    header = draw(st.sampled_from(BAD_HEADERS if fault == "header" else HEADERS))
    rows = draw(st.lists(st.lists(finite_cells, min_size=3, max_size=3),
                         min_size=1, max_size=8))
    if fault in ("ragged", "cell"):
        row = draw(st.integers(0, len(rows) - 1))
        if fault == "ragged":
            rows[row] = draw(st.lists(finite_cells, max_size=5).filter(lambda r: len(r) != 3))
        else:
            rows[row][draw(st.integers(0, 2))] = draw(bad_cells)
    lines = [header] + [",".join(quoted(c) if draw(st.booleans()) else c for c in row)
                        for row in rows]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = ("\ufeff" * draw(st.booleans()) + text).encode()
    if fault == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


DETECTORS = [["--detector", "nnd", "--variant", v, "--k", "1"]
             for v in ("absolute", "ramp", "signed")]
DETECTORS += [["--detector", "alp", "--variant", v] for v in ("absolute", "ramp")]


def query_rows(data):
    """The records ``data`` holds if it parses: the CSV rows after its header."""
    text = data.decode("utf-8-sig")
    if not text.strip():
        return 0
    return len(list(csv.reader(io.StringIO(text, newline="")))) - 1


@settings(deadline=None)
@given(train=csv_files(clean=15), queries=csv_files(clean=5),
       detector=st.sampled_from(DETECTORS))
def test_score_exits_with_finite_scores_or_one_error_naming_the_file(
        train, queries, detector):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {name: root / f"{name}.csv" for name in ("train", "queries")}
        paths["train"].write_bytes(train)
        paths["queries"].write_bytes(queries)
        (root / "schema.txt").write_text(SCHEMA)
        out = root / "scores.csv"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["score", "--train", str(paths["train"]),
                             "--schema", str(root / "schema.txt"), *detector,
                             "--queries", str(paths["queries"]), "--out", str(out)])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            with open(out, newline="", encoding="utf-8") as handle:
                scores = list(csv.DictReader(handle))
            assert [int(r["row"]) for r in scores] == list(range(1, len(scores) + 1))
            assert len(scores) == query_rows(queries)
            assert all(math.isfinite(float(r["score"])) for r in scores)
        else:
            assert len(lines) == 1, lines
            assert any(lines[0].startswith(f"error: {path}: ") for path in paths.values())
            assert not out.exists()
