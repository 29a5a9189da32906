"""Fuzzing of checkpoint documents through the command line.

Each example starts from a valid checkpoint of one model family, breaks
it in one way, and runs ``model inspect`` and one explain command on it
in-process through ``cli.main``. Every broken checkpoint must end in one
JSON error document on stderr, valid against the error schema, with exit
code 3 or 4 and no traceback.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesteach import cli

ERROR_SCHEMA = json.loads(
    (Path(cli.__file__).with_name("schemas") / "error.schema.json").read_text(encoding="utf-8")
)

NUMERIC = {
    "gaussian": ("means", "covariance", "log_priors"),
    "logistic": ("weights", "bias"),
    "mlp": ("W1", "b1", "W2", "b2", "loss_trace"),
    "plda": ("projection", "center", "latent_means", "psi", "within", "between", "log_priors"),
    "linear": ("weights", "bias", "clip_eps"),
}
# scalars, and arrays whose length no other parameter or class_count pins:
# a checkpoint with a shorter or longer array there is still a valid model
UNSIZED = {("mlp", "loss_trace"), ("linear", "weights"), ("linear", "bias"), ("linear", "clip_eps")}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_ws")
    data, scratch = str(root / "data.csv"), str(root / "setup.json")
    assert run([
        "dataset", "make", "--generator", "gaussian-blobs", "--classes", "2", "--dim", "2",
        "--per-class", "5", "--seed", "1", "--csv", data, "--out", scratch,
    ])[0] == 0
    point = root / "point.csv"
    point.write_text("0.5,-0.25\n", encoding="utf-8")
    checkpoints = {}
    for family in NUMERIC:
        path = root / f"{family}.json"
        assert run([
            "model", "fit", "--data", data, "--family", family, "--seed", "0",
            "--save", str(path), "--out", scratch,
        ])[0] == 0
        checkpoints[family] = json.loads(path.read_text(encoding="utf-8"))
    return {"root": root, "data": data, "point": str(point), "checkpoints": checkpoints}


def _resized(value, longer: bool):
    return value + value[-1:] if longer else value[:-1]


def _first_cell(value, cell):
    if not isinstance(value, list):
        return cell
    return [_first_cell(value[0], cell)] + value[1:]


@st.composite
def breakages(draw):
    """(family, description, edit): one way to break a valid checkpoint."""
    family = draw(st.sampled_from(sorted(NUMERIC)))
    kind = draw(st.sampled_from(["drop", "array", "class_count"]))
    if kind == "drop":
        key = draw(st.sampled_from(("family", "class_count", "parameters") + NUMERIC[family]))

        def edit(ckpt):
            (ckpt if key in ckpt else ckpt["parameters"]).pop(key)

        return family, f"drop {key}", edit
    if kind == "class_count":
        count = draw(st.one_of(
            st.integers(-2, 6).filter(lambda c: c != 2),
            st.sampled_from(["2", 2.5, None, True, math.nan, [2]]),
        ))
        return family, f"class_count {count!r}", lambda ckpt: ckpt.update(class_count=count)
    key = draw(st.sampled_from(NUMERIC[family]))
    ops = {
        "string": lambda v: "abc",
        "nan": lambda v: math.nan,
        "inf": lambda v: math.inf,
        "nan cell": lambda v: _first_cell(v, math.nan),
        "-inf cell": lambda v: _first_cell(v, -math.inf),
        "string cell": lambda v: _first_cell(v, "abc"),
    }
    if (family, key) not in UNSIZED:
        ops["shorter"] = lambda v: _resized(v, False)
        ops["longer"] = lambda v: _resized(v, True)
    op = draw(st.sampled_from(sorted(ops)))

    def edit(ckpt):
        ckpt["parameters"][key] = ops[op](ckpt["parameters"][key])

    return family, f"{op} {key}", edit


def _explain(family, fuzz_ws, path):
    if family == "plda":
        return ["explain", "plda-examples", "--model", path, "--data", fuzz_ws["data"],
                "--per-class-k", "1"]
    return ["explain", "rise", "--model", path, "--point", fuzz_ws["point"],
            "--masks", "32", "--seed", "0"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(breakage=breakages())
def test_a_broken_checkpoint_ends_in_one_json_error(fuzz_ws, breakage):
    family, what, edit = breakage
    ckpt = json.loads(json.dumps(fuzz_ws["checkpoints"][family]))
    edit(ckpt)
    path = fuzz_ws["root"] / "broken.json"
    path.write_text(json.dumps(ckpt), encoding="utf-8")
    for argv in (["model", "inspect", "--model", str(path)], _explain(family, fuzz_ws, str(path))):
        code, out, err = run(argv)
        assert code in (3, 4), (what, argv[:2], code, err)
        assert out == "" and "Traceback" not in err, (what, argv[:2])
        doc = json.loads(err)
        jsonschema.validate(doc, ERROR_SCHEMA)
        assert doc["error"]["exit_code"] == code
