"""Fuzzing of dataset CSVs and point files through the command line.

Each example writes generated bytes as a dataset CSV and as a point
file: ragged rows, empty cells, NaN and infinities, huge and
non-numeric cells, bytes that are not UTF-8, header-only and label-only
files. It then runs ``dataset import``, ``model fit`` and ``explain
rise`` on them in-process through ``cli.main``. Every run must end one
of two ways: exit 0 with one JSON document that parses with NaN and
infinities rejected, where a fit's checkpoint also passes ``model
inspect``; or exit 2, 3 or 4 with one JSON error on stderr, valid
against the error schema, no traceback, and no checkpoint written.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesteach import cli
from bayesteach.models import FAMILIES

ERROR_SCHEMA = json.loads(
    (Path(cli.__file__).with_name("schemas") / "error.schema.json").read_text(encoding="utf-8")
)

NOT_UTF8 = [b"\xff", b"\xfe\xff", b"\xc3\x28", b"\x80abc", b"1.0\xe9"]

numbers = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # up to 1.8e308
).map(str.encode)
odd_cells = st.sampled_from(["", "nan", "-NaN", "inf", "-Infinity", "abc", " 2 ", "0x1"])
labels = st.sampled_from(["a", "b", "c", "", "é"]).map(str.encode)
DEFECTS = ["none", "none", "none", "odd cell", "short row", "long row", "not utf-8"]


@st.composite
def _table(draw, width, rows):
    """``rows`` lists of ``width`` numeric cells, with at most one defect."""
    table = [[draw(numbers) for _ in range(width)] for _ in range(rows)]
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "none" or not table:
        return table
    row = table[draw(st.integers(0, rows - 1))]
    if defect == "long row":
        row.append(draw(numbers))
    elif row:
        j = draw(st.integers(0, width - 1))
        if defect == "short row":
            row.pop(j)
        elif defect == "odd cell":
            row[j] = draw(odd_cells).encode()
        else:
            row[j] = draw(st.sampled_from(NOT_UTF8))
    return table


@st.composite
def inputs(draw):
    """(csv bytes, point bytes, family): a dataset with ``width`` feature
    columns (none makes a label-only file) and up to 10 rows (none makes
    a header-only file), and a point mostly of the same width."""
    width = draw(st.sampled_from([0, 1, 2, 2, 3]))
    label_at = draw(st.integers(0, width))
    header = [f"f{j}".encode() for j in range(width)]
    lines = [header[:label_at] + [b"label"] + header[label_at:]]
    for row in draw(_table(width, draw(st.integers(0, 10)))):
        lines.append(row[:label_at] + [draw(labels)] + row[label_at:])
    data = b"\n".join(b",".join(line) for line in lines) + b"\n"

    point_width = draw(st.sampled_from([width, width, width, 1, 3]))
    point = [b",".join(row) for row in draw(_table(point_width, 1))]
    if draw(st.booleans()):
        point.insert(0, b",".join(f"f{j}".encode() for j in range(point_width)))
    return data, b"\n".join(point) + b"\n", draw(st.sampled_from(FAMILIES))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    # a warning printed on stderr would break its one-document contract
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"document holds {name}")


def check(argv):
    """Run ``argv`` and check how it ended; return its exit code."""
    code, out, err = run(argv)
    if code == 0:
        assert err == "", (argv[:2], err)
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert code in (2, 3, 4), (argv[:2], code, err)
        assert out == "" and "Traceback" not in err, (argv[:2], err)
        doc = json.loads(err)
        jsonschema.validate(doc, ERROR_SCHEMA)
        assert doc["error"]["exit_code"] == code
    return code


@pytest.fixture(scope="module")
def fuzz_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("input_fuzz")
    data, fixture, scratch = root / "blobs.csv", root / "logistic.json", str(root / "setup.json")
    assert run([
        "dataset", "make", "--generator", "gaussian-blobs", "--classes", "2", "--dim", "2",
        "--per-class", "5", "--seed", "1", "--csv", str(data), "--out", scratch,
    ])[0] == 0
    assert run([
        "model", "fit", "--data", str(data), "--family", "logistic", "--seed", "0",
        "--save", str(fixture), "--out", scratch,
    ])[0] == 0
    return root


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=inputs())
def test_csv_and_point_bytes_end_in_a_document_or_one_json_error(fuzz_ws, case):
    data, point, family = case
    csv_path, point_path, saved = fuzz_ws / "data.csv", fuzz_ws / "point.csv", fuzz_ws / "fit.json"
    csv_path.write_bytes(data)
    point_path.write_bytes(point)
    saved.unlink(missing_ok=True)

    check(["dataset", "import", "--in", str(csv_path)])
    fitted = check([
        "model", "fit", "--data", str(csv_path), "--family", family, "--seed", "0",
        "--save", str(saved), "--epochs", "50",
    ]) == 0
    assert saved.exists() == fitted
    if fitted:
        assert check(["model", "inspect", "--model", str(saved)]) == 0
    model = saved if fitted else fuzz_ws / "logistic.json"
    check(["explain", "rise", "--model", str(model), "--point", str(point_path),
           "--masks", "16", "--seed", "0"])
