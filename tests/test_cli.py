"""End-to-end checks of the command line front end.

Every test drives ``cli.main`` in-process and inspects the JSON it
emits; each emitted document is validated against the schema shipped
with the package. One subprocess test covers the ``python -m`` entry.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bayesteach import cli, errors

SCHEMA_DIR = Path(cli.__file__).with_name("schemas")
_SCHEMAS = {}


def schema(name: str) -> dict:
    if name not in _SCHEMAS:
        with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
            _SCHEMAS[name] = json.load(fh)
    return _SCHEMAS[name]


def run_ok(capsys, argv, schema_name, code=0):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == code, captured.err
    assert captured.err == ""
    doc = json.loads(captured.out)
    jsonschema.validate(doc, schema(schema_name))
    return doc, captured.out


def run_err(capsys, argv, code):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    doc = json.loads(captured.err)
    jsonschema.validate(doc, schema("error"))
    assert doc["error"]["exit_code"] == code
    return doc["error"]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A workspace with a dataset, three fitted models, and a probe point."""
    root = tmp_path_factory.mktemp("cli_ws")
    paths = {
        "data": str(root / "data.csv"),
        "gaussian": str(root / "gaussian.json"),
        "logistic": str(root / "logistic.json"),
        "plda": str(root / "plda.json"),
        "point": str(root / "point.csv"),
        "root": root,
    }
    # --out keeps the fixture's own stdout empty
    scratch = str(root / "setup.json")
    assert cli.main([
        "dataset", "make", "--generator", "gaussian-blobs",
        "--classes", "2", "--dim", "2", "--per-class", "6",
        "--separation", "4.0", "--seed", "3",
        "--csv", paths["data"], "--out", scratch,
    ]) == 0
    for family in ("gaussian", "logistic", "plda"):
        assert cli.main([
            "model", "fit", "--data", paths["data"], "--family", family,
            "--seed", "0", "--save", paths[family], "--out", scratch,
        ]) == 0
    with open(paths["point"], "w", encoding="utf-8") as fh:
        fh.write("f0,f1\n0.25,-0.1\n")
    return paths


# ---------------------------------------------------------------------------
# dataset and model documents


def test_dataset_make_document(capsys, tmp_path):
    csv_path = str(tmp_path / "blobs.csv")
    doc, _ = run_ok(capsys, [
        "dataset", "make", "--generator", "gaussian-blobs",
        "--classes", "3", "--dim", "2", "--per-class", "4",
        "--separation", "5.0", "--seed", "9", "--csv", csv_path,
    ], "dataset")
    assert doc["command"] == "dataset" and doc["action"] == "make"
    assert doc["result"]["rows"] == 12
    assert doc["result"]["feature_count"] == 2
    assert doc["result"]["class_count"] == 3
    assert doc["runtime_ms"] is None
    assert Path(csv_path).exists()


def test_dataset_import_document(capsys, ws):
    doc, _ = run_ok(capsys, ["dataset", "import", "--in", ws["data"]], "dataset")
    assert doc["action"] == "import"
    assert doc["result"]["rows"] == 12
    assert doc["result"]["class_count"] == 2
    assert doc["seed"] is None


def test_model_fit_and_inspect_documents(capsys, ws, tmp_path):
    save = str(tmp_path / "m.json")
    doc, _ = run_ok(capsys, [
        "model", "fit", "--data", ws["data"], "--family", "gaussian",
        "--seed", "1", "--save", save,
    ], "model")
    assert doc["result"]["family"] == "gaussian"
    assert 0.0 <= doc["result"]["train_accuracy"] <= 1.0
    assert Path(save).exists()

    doc, _ = run_ok(capsys, ["model", "inspect", "--model", save], "model")
    assert doc["action"] == "inspect"
    assert doc["result"]["family"] == "gaussian"
    assert doc["result"]["class_count"] == 2


def test_stdout_and_out_file_agree_byte_for_byte(capsys, ws, tmp_path):
    argv = ["model", "inspect", "--model", ws["logistic"]]
    _, first = run_ok(capsys, argv, "model")
    _, second = run_ok(capsys, argv, "model")
    assert first == second

    out = tmp_path / "doc.json"
    rc = cli.main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.out == ""
    assert out.read_text(encoding="utf-8") == first


def test_timing_flag_fills_runtime_ms(capsys, ws):
    doc, _ = run_ok(capsys, ["model", "inspect", "--model", ws["logistic"]], "model")
    assert doc["runtime_ms"] is None
    doc, _ = run_ok(
        capsys, ["model", "inspect", "--model", ws["logistic"], "--timing"], "model"
    )
    assert isinstance(doc["runtime_ms"], float) and doc["runtime_ms"] >= 0.0


# ---------------------------------------------------------------------------
# explain subcommands


def test_plda_examples_document(capsys, ws):
    doc, _ = run_ok(capsys, [
        "explain", "plda-examples", "--model", ws["plda"],
        "--data", ws["data"], "--per-class-k", "1",
    ], "explain")
    assert doc["method"] == "plda-examples"
    assert doc["theta"]["kind"] == "latent-class-means"
    assert len(doc["result"]["indices"]) == 2
    assert set(doc["result"]["per_class"]) == {"0", "1"}
    assert doc["diagnostics"]["space_size"] == 36
    assert 0.0 < doc["diagnostics"]["posterior_probability"] <= 1.0


def test_threads_leave_the_result_unchanged(capsys, ws):
    argv = [
        "explain", "plda-examples", "--model", ws["plda"],
        "--data", ws["data"], "--per-class-k", "1",
    ]
    _, one = run_ok(capsys, argv + ["--threads", "1"], "explain")
    _, two = run_ok(capsys, argv + ["--threads", "2"], "explain")
    assert one == two


def test_mh_sample_requires_a_seed(capsys, ws):
    err = run_err(capsys, [
        "explain", "plda-examples", "--model", ws["plda"],
        "--data", ws["data"], "--strategy", "mh-sample",
    ], cli.USAGE_EXIT)
    assert err["type"] == "UsageError"
    assert "--seed" in err["message"]


def test_mh_sample_is_seed_deterministic(capsys, ws):
    argv = [
        "explain", "plda-examples", "--model", ws["plda"], "--data", ws["data"],
        "--per-class-k", "1", "--strategy", "mh-sample",
        "--mh-steps", "300", "--mh-burn-in", "30", "--seed", "5",
    ]
    doc, first = run_ok(capsys, argv, "explain")
    _, second = run_ok(capsys, argv, "explain")
    assert first == second
    assert doc["seed"] == 5
    assert doc["config"]["strategy"] == "mh-sample"


def test_mmd_critic_document(capsys, ws):
    doc, _ = run_ok(capsys, [
        "explain", "mmd-critic", "--data", ws["data"],
        "--prototypes", "2", "--criticisms", "1",
    ], "explain")
    assert doc["seed"] is None
    assert len(doc["result"]["prototypes"]["indices"]) == 2
    assert len(doc["result"]["criticisms"]["indices"]) == 1
    assert doc["diagnostics"]["final_mmd2"] >= 0.0


def test_mmd_critic_runs_the_median_heuristic_once(capsys, ws, monkeypatch):
    from bayesteach import learners

    calls, median = [], learners.median_bandwidth
    monkeypatch.setattr(learners, "median_bandwidth", lambda data: calls.append(data.shape) or median(data))
    run_ok(capsys, ["explain", "mmd-critic", "--data", ws["data"], "--prototypes", "2", "--criticisms", "2"],
           "explain")
    assert calls == [(12, 2)]


def test_mmd_critic_with_every_row_a_prototype_exits_3(capsys, ws):
    err = run_err(capsys, [
        "explain", "mmd-critic", "--data", ws["data"], "--prototypes", "12", "--criticisms", "1",
    ], cli.DATA_EXIT)
    assert err["type"] == "BadSpec"
    assert "no non-prototype row is left to criticise" in err["message"]


def test_mmd_critic_at_a_tiny_bandwidth_has_a_non_increasing_trace(capsys, tmp_path):
    # at bandwidth 1e-8 the README rows are kernel-orthogonal: k(x, x) = 1
    # and k(x, y) = 0, so m prototypes leave mmd2 = 1/m - 1/24, first
    # reached by the lowest rows
    data = str(tmp_path / "blobs.csv")
    assert cli.main([
        "dataset", "make", "--generator", "gaussian-blobs", "--classes", "3", "--dim", "2",
        "--per-class", "8", "--separation", "5.0", "--seed", "11", "--csv", data,
        "--out", str(tmp_path / "made.json"),
    ]) == 0
    doc, _ = run_ok(capsys, [
        "explain", "mmd-critic", "--data", data, "--prototypes", "3", "--criticisms", "2",
        "--bandwidth", "1e-8",
    ], "explain")
    prototypes = doc["result"]["prototypes"]
    trace = prototypes["mmd2_trace"]
    assert all(later <= earlier for earlier, later in zip(trace, trace[1:]))
    assert prototypes["indices"] == [0, 1, 2]
    assert trace == pytest.approx([1 / m - 1 / 24 for m in (1, 2, 3)], abs=1e-15)


def test_rise_renders_a_pgm_with_the_default_name(capsys, ws, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc, _ = run_ok(capsys, [
        "explain", "rise", "--model", ws["logistic"], "--point", ws["point"],
        "--masks", "200", "--seed", "0", "--render", "pgm",
    ], "explain")
    assert doc["renders"] == ["rise.pgm"]
    assert (tmp_path / "rise.pgm").read_bytes().startswith(b"P5")
    assert len(doc["result"]["values"]) == 2
    assert doc["diagnostics"]["max_stderr"] > 0.0


def test_rise_render_out_picks_the_path(capsys, ws, tmp_path):
    target = str(tmp_path / "saliency.svg")
    doc, _ = run_ok(capsys, [
        "explain", "rise", "--model", ws["logistic"], "--point", ws["point"],
        "--masks", "200", "--seed", "0", "--render", "svg", "--render-out", target,
    ], "explain")
    assert doc["renders"] == [target]
    assert "<svg" in Path(target).read_text(encoding="utf-8")[:200]


def test_sampled_shap_requires_a_seed(capsys, ws):
    err = run_err(capsys, [
        "explain", "shap", "--model", ws["logistic"], "--point", ws["point"],
        "--background", ws["data"], "--class", "1",
    ], cli.USAGE_EXIT)
    assert "--seed" in err["message"]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_sampled_shap_rejects_fewer_than_one_sample(capsys, ws, samples):
    err = run_err(capsys, [
        "explain", "shap", "--model", ws["logistic"], "--point", ws["point"],
        "--background", ws["data"], "--class", "1", "--samples", samples, "--seed", "0",
    ], cli.DATA_EXIT)
    assert err["type"] == "BadSpec"
    assert err["message"] == f"sampled mode needs n_samples >= 1, got {samples}"


def test_exact_shap_document(capsys, ws):
    doc, _ = run_ok(capsys, [
        "explain", "shap", "--model", ws["logistic"], "--point", ws["point"],
        "--background", ws["data"], "--class", "1", "--exact",
    ], "explain")
    assert doc["seed"] is None
    assert len(doc["result"]["phi"]) == 2
    assert abs(doc["diagnostics"]["efficiency_gap"]) < 1e-9


def test_lime_document(capsys, ws):
    doc, _ = run_ok(capsys, [
        "explain", "lime", "--model", ws["logistic"], "--point", ws["point"],
        "--class", "1", "--probes", "300", "--seed", "2",
    ], "explain")
    assert len(doc["result"]["weights"]) == 2
    assert doc["seed"] == 2


_CLASS_METHODS = {
    "shap-exact": ["shap", "--background", "data", "--exact"],
    "shap-sampled": ["shap", "--background", "data", "--samples", "64", "--seed", "0"],
    "lime": ["lime", "--probes", "50", "--seed", "0"],
}


@pytest.mark.parametrize("label", ["2", "9", "-1"])
@pytest.mark.parametrize("method", sorted(_CLASS_METHODS))
def test_class_out_of_range_exits_3(capsys, ws, method, label):
    name, *extra = [ws[a] if a == "data" else a for a in _CLASS_METHODS[method]]
    err = run_err(capsys, [
        "explain", name, "--model", ws["logistic"], "--point", ws["point"], "--class", label, *extra,
    ], cli.DATA_EXIT)
    assert err["type"] == "BadSpec"
    assert err["message"] == f"label {label} out of range for 2 classes"


@pytest.mark.parametrize("label", ["2", "5", "-1"])
@pytest.mark.parametrize("learner, strategy", [
    ("nearest-class", "exhaustive-max"),
    ("nearest-class", "mh-sample"),
    ("masked-prediction", "mc-expectation"),
])
def test_recombine_target_class_out_of_range_exits_3(capsys, ws, learner, strategy, label):
    x_kind, model = ("example-set", "plda") if learner == "nearest-class" else ("feature-mask", "logistic")
    err = run_err(capsys, [
        "explain", "recombine", "--theta", "predicted-label", "--x-kind", x_kind,
        "--learner", learner, "--strategy", strategy, "--model", ws[model], "--data", ws["data"],
        "--point", ws["point"], "--param", f"target_class={label}", "--seed", "0",
    ], cli.DATA_EXIT)
    assert err["type"] == "BadSpec"
    assert err["message"] == f"label {label} out of range for 2 classes"


@pytest.mark.parametrize("cells, col", [("nan,0.5", 1), ("0.5,inf", 2), ("-inf,nan", 1)])
@pytest.mark.parametrize("method", ["rise", "lime"])
def test_non_finite_point_exits_3(capsys, ws, tmp_path, method, cells, col):
    point = tmp_path / "point.csv"
    point.write_text(f"f0,f1\n{cells}\n", encoding="utf-8")
    err = run_err(capsys, [
        "explain", method, "--model", ws["logistic"], "--point", str(point),
        "--class", "1", "--seed", "0",
    ], cli.DATA_EXIT)
    assert err["type"] == "ParseError"
    assert err["detail"] == {"row": 2, "col": col}


def test_tree_distill_renders_svg_only(capsys, ws, tmp_path):
    argv = [
        "explain", "tree-distill", "--model", ws["logistic"], "--data", ws["data"],
        "--depth", "2", "--epochs", "40", "--seed", "0",
    ]
    err = run_err(capsys, argv + ["--render", "pgm"], cli.USAGE_EXIT)
    assert "svg" in err["message"]

    target = str(tmp_path / "tree.svg")
    doc, _ = run_ok(capsys, argv + ["--render", "svg", "--render-out", target], "explain")
    assert doc["renders"] == [target]
    assert "<svg" in Path(target).read_text(encoding="utf-8")[:200]
    assert doc["diagnostics"]["final_kl"] >= 0.0


def test_recombine_parses_params_as_json(capsys, ws):
    doc, _ = run_ok(capsys, [
        "explain", "recombine", "--theta", "latent-class-means",
        "--x-kind", "example-set", "--learner", "plda",
        "--strategy", "exhaustive-max", "--model", ws["plda"],
        "--data", ws["data"], "--param", "per_class_k=1", "--seed", "0",
    ], "explain")
    assert doc["config"]["params"] == {"per_class_k": 1}
    assert doc["diagnostics"]["learner"] == "plda"
    assert doc["result"]["combination"]["params"] == {"per_class_k": 1}
    assert len(doc["result"]["result"]["indices"]) == 2


def test_recombine_rejects_a_bad_param_token(capsys, ws):
    err = run_err(capsys, [
        "explain", "recombine", "--theta", "latent-class-means",
        "--x-kind", "example-set", "--learner", "plda",
        "--strategy", "exhaustive-max", "--model", ws["plda"],
        "--data", ws["data"], "--param", "nokey", "--seed", "0",
    ], cli.USAGE_EXIT)
    assert "key=value" in err["message"]


def test_recombine_incompatible_pairing_exits_3(capsys, ws):
    err = run_err(capsys, [
        "explain", "recombine", "--theta", "latent-class-means",
        "--x-kind", "example-set", "--learner", "nearest-class",
        "--strategy", "exhaustive-max", "--model", ws["plda"],
        "--data", ws["data"], "--seed", "0",
    ], cli.DATA_EXIT)
    assert err["type"] == "IncompatibleCombination"


@pytest.mark.parametrize("steps", [
    ["--mh-steps", "0"],
    ["--mh-steps", "-4"],
    ["--mh-steps", "10", "--mh-burn-in", "-5"],
    ["--mh-steps", str(10**24)],
])
def test_plda_examples_rejects_bad_chain_lengths(capsys, ws, steps):
    err = run_err(capsys, [
        "explain", "plda-examples", "--model", ws["plda"], "--data", ws["data"],
        "--per-class-k", "1", "--strategy", "mh-sample", "--seed", "5",
    ] + steps, cli.DATA_EXIT)
    assert err["type"] == "BadSpec"


@pytest.mark.parametrize("param", ["n=0", "burn_in=-1", f"n={10**24}", f"burn_in={10**24}"])
def test_recombine_mh_rejects_bad_chain_lengths(capsys, ws, param):
    err = run_err(capsys, [
        "explain", "recombine", "--theta", "predicted-label",
        "--x-kind", "example-set", "--learner", "nearest-class",
        "--strategy", "mh-sample", "--model", ws["plda"], "--data", ws["data"],
        "--point", ws["point"], "--param", "per_class_k=1", "--param", param, "--seed", "0",
    ], cli.DATA_EXIT)
    assert err["type"] == "BadSpec"


@pytest.mark.parametrize("argv", [
    ["explain", "recombine", "--theta", "predicted-label", "--x-kind", "feature-mask",
     "--learner", "masked-prediction", "--strategy", "mc-expectation", "--param", f"n={10**24}",
     "--data", "{data}"],
    ["explain", "rise", "--masks", str(10**24)],
    ["explain", "lime", "--class", "1", "--probes", "100000000"],  # probes, not masks
])
def test_mask_draws_past_the_limit_exit_3(capsys, ws, argv):
    argv = [a.format(data=ws["data"]) for a in argv]
    err = run_err(capsys, argv + [
        "--model", ws["logistic"], "--point", ws["point"], "--seed", "0",
    ], cli.DATA_EXIT)
    assert err["type"] == "BadSpec" and "limit" in err["message"]


def test_exact_shap_past_the_limit_exits_3(capsys, tmp_path):
    """2^40 - 2 coalitions of a 40-feature point are refused before any
    is built: an attempted allocation would end as a MemoryError."""
    data, model, point = (str(tmp_path / name) for name in ("wide.csv", "wide.json", "point.csv"))
    assert cli.main(["dataset", "make", "--generator", "gaussian-blobs", "--classes", "2", "--dim", "40",
                     "--per-class", "3", "--seed", "0", "--csv", data, "--out", str(tmp_path / "make.json")]) == 0
    assert cli.main(["model", "fit", "--data", data, "--family", "logistic", "--seed", "0",
                     "--save", model, "--out", str(tmp_path / "fit.json")]) == 0
    Path(point).write_text(",".join(["0.5"] * 40) + "\n", encoding="utf-8")
    err = run_err(capsys, ["explain", "shap", "--model", model, "--point", point,
                           "--background", data, "--class", "1", "--exact"], cli.DATA_EXIT)
    assert err["type"] == "BadSpec" and "limit" in err["message"]


def _traced(run):
    """``run()`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [
    ["--generator", "gaussian-blobs", "--per-class", "1000000000"],
    ["--generator", "two-moons", "--n", str(10**30)],
    ["--generator", "grid-image", "--side", "100000"],
])
def test_dataset_make_past_the_limit_exits_3_before_drawing(capsys, tmp_path, argv):
    argv = ["dataset", "make", *argv, "--seed", "0", "--csv", str(tmp_path / "big.csv")]
    err, peak = _traced(lambda: run_err(capsys, argv, cli.DATA_EXIT))
    assert err["type"] == "BadSpec" and "limit" in err["message"]
    assert peak < 8 << 20, peak
    assert not (tmp_path / "big.csv").exists()


def test_pairwise_distances_past_the_limit_exit_3_before_allocating(capsys, ws, tmp_path):
    """4,097 rows of one class: their 4,097^2 distances (134 MB) exceed
    the limit of 2^24 for mmd-critic's bandwidth and kernel matrices and
    for the mmd learner's reference rows."""
    data = tmp_path / "rows.csv"
    data.write_text("x0,x1,label\n" + "".join(f"{i / 4097!r},{i % 7!r},0\n" for i in range(4097)),
                    encoding="utf-8")
    mmd = ["explain", "mmd-critic", "--data", str(data), "--prototypes", "2", "--criticisms", "2"]
    recombine = ["explain", "recombine", "--theta", "class-data-distribution", "--x-kind", "example-set",
                 "--learner", "mmd", "--strategy", "mh-sample", "--model", ws["logistic"],
                 "--data", str(data), "--param", "n=10", "--param", "burn_in=0", "--seed", "0"]
    for argv in (mmd, mmd + ["--bandwidth", "1.0"], recombine):
        err, peak = _traced(lambda: run_err(capsys, argv, cli.DATA_EXIT))
        assert err["type"] == "BadSpec" and "4097 x 4097" in err["message"], argv
        assert peak < 8 << 20, (argv, peak)


class _ArrayMemoryError(MemoryError):
    """Named as numpy names the error of an array it cannot allocate."""


@pytest.mark.parametrize("error", [MemoryError, _ArrayMemoryError])
def test_a_memory_error_exits_3(capsys, monkeypatch, tmp_path, error):
    """The handler's callee raises instead of allocating."""
    message = "Unable to allocate 14.9 GiB for an array with shape (1000000000, 2) and data type float64"

    def make_synthetic(spec, seed):
        raise error(message)

    monkeypatch.setattr(cli, "make_synthetic", make_synthetic)
    err = run_err(capsys, ["dataset", "make", "--generator", "gaussian-blobs", "--per-class", "1000000000",
                           "--seed", "0", "--csv", str(tmp_path / "big.csv")], cli.DATA_EXIT)
    assert err == {"type": "MemoryError", "message": message, "exit_code": cli.DATA_EXIT}


@pytest.mark.parametrize("param, key", [
    ("n=abc", "n"),
    ("keep_prob=[1]", "keep_prob"),
    ("baseline=[1,2,3]", "baseline"),
    ("baseline=[]", "baseline"),
    ("target_class=null", "target_class"),
])
def test_recombine_rejects_an_unusable_param_value(capsys, ws, param, key):
    err = run_err(capsys, [
        "explain", "recombine", "--theta", "predicted-label",
        "--x-kind", "feature-mask", "--learner", "masked-prediction",
        "--strategy", "mc-expectation", "--model", ws["logistic"], "--data", ws["data"],
        "--point", ws["point"], "--param", param, "--seed", "0",
    ], cli.DATA_EXIT)
    assert err["type"] == "BadSpec"
    assert f"--param {key}=" in err["message"]
    if key == "baseline":  # not numpy's broadcast text, but the width the point has
        assert err["message"].endswith("expected one number or 2 numbers, one per feature")


_PLDA_MH = ["--theta", "latent-class-means", "--x-kind", "example-set", "--strategy", "mh-sample",
            "--model", "plda"]


@pytest.mark.parametrize("learner, params, message", [
    ("plda", ["per_class_k=1.9"], "--param per_class_k=1.9 is not usable: not an integer"),
    ("plda", ["n=50.7", "burn_in=true"], "--param n=50.7 is not usable: not an integer"),
    ("plda", ["burn_in=true"], "--param burn_in=True is not usable: a bool is not a number"),
    ("mmd", ["class_index=true"], "--param class_index=True is not usable: a bool is not a number"),
    ("nearest-class", ["temperature=true"],
     "--param temperature=True is not usable: a bool is not a number"),
    ("masked-prediction", ["baseline=true"], "--param baseline=True is not usable: a bool is not a number"),
    ("masked-prediction", ["baseline=[0.5,false]"],
     "--param baseline=[0.5, False] is not usable: a bool is not a number"),
], ids=["fractional-int", "fractional-n", "bool-int", "bool-class-index", "bool-number",
        "bool-baseline", "bool-in-baseline"])
def test_recombine_rejects_a_param_of_the_wrong_type(capsys, ws, learner, params, message):
    recipe = _PLDA_MH if learner == "plda" else _RECIPES[learner]
    argv = [ws[a] if a in ("plda", "logistic") else a for a in recipe]
    err = run_err(capsys, [
        "explain", "recombine", "--learner", learner, *argv, "--data", ws["data"],
        "--point", ws["point"], *[arg for p in params for arg in ("--param", p)], "--seed", "0",
    ], cli.DATA_EXIT)
    assert (err["type"], err["message"]) == ("BadSpec", message)


@pytest.mark.parametrize("learner, param, value", [
    ("plda", "per_class_k=1.0", 1.0),  # an integer key reads an integral number
    ("nearest-class", "temperature=2", 2),  # a number key reads an integer
    ("masked-prediction", "baseline=[0,0.5]", [0, 0.5]),
])
def test_recombine_accepts_a_param_of_the_right_type(capsys, ws, learner, param, value):
    recipe = _PLDA_MH if learner == "plda" else _RECIPES[learner]
    argv = [ws[a] if a in ("plda", "logistic") else a for a in recipe]
    doc, _ = run_ok(capsys, [
        "explain", "recombine", "--learner", learner, *argv, "--data", ws["data"],
        "--point", ws["point"], "--param", param, "--param", "n=200", "--seed", "0",
    ], "explain")
    assert doc["config"]["params"][param.split("=")[0]] == value
    if learner == "plda":
        assert len(doc["result"]["result"]["indices"]) == 2  # one row per class


_RECIPES = {
    "nearest-class": ["--theta", "predicted-label", "--x-kind", "example-set",
                      "--strategy", "exhaustive-max", "--model", "plda"],
    "masked-prediction": ["--theta", "predicted-label", "--x-kind", "feature-mask",
                          "--strategy", "mc-expectation", "--model", "logistic"],
    "mmd": ["--theta", "class-data-distribution", "--x-kind", "example-set",
            "--strategy", "exhaustive-max", "--model", "plda"],
    "surrogate-fit": ["--theta", "local-decision-boundary", "--x-kind", "linear-weights",
                      "--strategy", "gradient-fit", "--model", "logistic"],
}


@pytest.mark.parametrize("learner, param", [
    ("nearest-class", "temperature=NaN"),
    ("nearest-class", "temperature=Infinity"),
    ("masked-prediction", "baseline=NaN"),
    ("masked-prediction", "baseline=[0.5,NaN]"),
    ("masked-prediction", "keep_prob=NaN"),
    ("mmd", "bandwidth=-Infinity"),
    ("surrogate-fit", "ridge=NaN"),
    ("surrogate-fit", "kernel_width=Infinity"),
    ("surrogate-fit", "learning_rate=NaN"),  # a key the linear-weights recipe does not read
])
def test_recombine_rejects_a_non_finite_param(capsys, ws, learner, param):
    # the JSON constants reach the JSON reader, which names the number
    argv = [ws[a] if a in ("plda", "logistic") else a for a in _RECIPES[learner]]
    err = run_err(capsys, [
        "explain", "recombine", "--learner", learner, *argv, "--data", ws["data"],
        "--point", ws["point"], "--param", param, "--seed", "0",
    ], cli.DATA_EXIT)
    number = re.search(r"-?(NaN|Infinity)", param).group()
    assert err["type"] == "BadSpec"
    assert err["message"] == f"--param {param} holds {number}, not a finite number"


def test_recombine_spellings_of_one_value_print_one_document(tmp_path, ws):
    """An integer key reads an integral number as its integer, and every
    document echoes the value as read."""
    argv = [ws[a] if a in ("plda", "logistic") else a for a in _PLDA_MH]
    texts = []
    for spelling in ("50", "50.0", "5e1"):
        out = tmp_path / f"n-{spelling}.json"
        assert cli.main([
            "explain", "recombine", "--learner", "plda", *argv, "--data", ws["data"],
            "--param", "per_class_k=1", "--param", "burn_in=0", "--param", f"n={spelling}",
            "--seed", "3", "--out", str(out),
        ]) == 0
        texts.append(out.read_bytes())
    assert texts[1:] == texts[:1] * 2
    doc = json.loads(texts[0])
    assert doc["config"]["params"] == doc["result"]["combination"]["params"] == {
        "per_class_k": 1, "burn_in": 0, "n": 50}
    assert doc["result"]["result"]["metadata"]["steps"] == 50


@pytest.mark.parametrize("learner, param", [
    ("plda", 'n="50"'),
    ("plda", "n=1_000"),
    ("plda", 'n=" 50 "'),
    ("nearest-class", "temperature=.5"),
    ("nearest-class", "temperature=nan"),
])
def test_recombine_refuses_a_string_for_every_key(capsys, ws, learner, param):
    recipe = _PLDA_MH if learner == "plda" else _RECIPES[learner]
    argv = [ws[a] if a in ("plda", "logistic") else a for a in recipe]
    err = run_err(capsys, [
        "explain", "recombine", "--learner", learner, *argv, "--data", ws["data"],
        "--point", ws["point"], "--param", param, "--seed", "0",
    ], cli.DATA_EXIT)
    key = param.split("=")[0]
    assert err["type"] == "BadSpec"
    assert err["message"].startswith(f"--param {key}=")
    assert "is not usable: a string is not" in err["message"]


@pytest.mark.parametrize("strategy", ["exhaustive-max", "mh-sample"])
def test_nearest_class_overflowing_scores_exit_4(capsys, ws, strategy):
    # every squared distance over this temperature is -inf, whose softmax
    # would be NaN
    err = run_err(capsys, [
        "explain", "recombine", "--theta", "predicted-label", "--x-kind", "example-set",
        "--learner", "nearest-class", "--strategy", strategy, "--model", ws["plda"],
        "--data", ws["data"], "--point", ws["point"], "--param", "per_class_k=1",
        "--param", "temperature=1e-320", "--param", "n=20", "--param", "burn_in=0",
        "--seed", "0",
    ], cli.NUMERICAL_EXIT)
    assert err["type"] == "NonFiniteResult"
    assert "temperature 1e-320" in err["message"]


@pytest.mark.parametrize("argv", [
    ["explain", "tree-distill", "--epochs", "3", "--learning-rate", "1e308"],
    ["explain", "recombine", "--theta", "predictive-distribution", "--x-kind", "soft-tree",
     "--learner", "surrogate-fit", "--strategy", "gradient-fit", "--param", "epochs=3",
     "--param", "learning_rate=1e308"],
])
def test_diverging_tree_distillation_exits_4(capsys, ws, argv):
    err = run_err(capsys, argv + [
        "--model", ws["logistic"], "--data", ws["data"], "--seed", "0",
    ], cli.NUMERICAL_EXIT)
    assert err["type"] == "NonFiniteResult"
    assert err["message"].startswith("tree distillation diverged after ")


@pytest.mark.parametrize("argv", [
    ["explain", "lime", "--point", "{point}", "--class", "0", "--kernel-width", "{width}"],
    ["explain", "recombine", "--theta", "local-decision-boundary", "--x-kind", "soft-tree",
     "--learner", "surrogate-fit", "--strategy", "gradient-fit", "--point", "{point}",
     "--data", "{data}", "--param", "kernel_width={width}", "--param", "epochs=3"],
], ids=["lime", "recombine-tree"])
@pytest.mark.parametrize("width", ["2e+154", "1e-200"])
def test_a_kernel_width_whose_squares_overflow_or_vanish_exits_4(capsys, ws, argv, width):
    err = run_err(capsys, [a.format(point=ws["point"], data=ws["data"], width=width) for a in argv] + [
        "--model", ws["logistic"], "--seed", "0",
    ], cli.NUMERICAL_EXIT)
    assert err == {"type": "NonFiniteResult", "exit_code": cli.NUMERICAL_EXIT,
                   "message": f"the probe weights at kernel width {width} are not finite or all zero"}


@pytest.mark.parametrize("argv", [
    ["explain", "lime", "--point", "{point}", "--class", "1", "--ridge", "{ridge}", "--probes", "{probes}"],
    ["explain", "recombine", "--theta", "local-decision-boundary", "--x-kind", "linear-weights",
     "--learner", "surrogate-fit", "--strategy", "gradient-fit", "--point", "{point}",
     "--data", "{data}", "--param", "ridge={ridge}", "--param", "probe_count={probes}"],
], ids=["lime", "recombine"])
@pytest.mark.parametrize("ridge, probes, code", [("0", "2", 4), ("0", "3", 0), ("0.001", "2", 0)])
def test_a_lime_design_of_lower_rank_than_its_coefficients_exits_4(capsys, ws, argv, ridge, probes, code):
    # two features and an intercept are three coefficients: two probes
    # without a ridge leave the fit unidentified
    argv = [a.format(point=ws["point"], data=ws["data"], ridge=ridge, probes=probes) for a in argv]
    argv += ["--model", ws["logistic"], "--seed", "0"]
    if code == 0:
        run_ok(capsys, argv, "explain")
        return
    err = run_err(capsys, argv, cli.NUMERICAL_EXIT)
    assert err == {"type": "SingularSystem", "exit_code": cli.NUMERICAL_EXIT,
                   "message": "the weighted design has rank 2 < 3 coefficients; add probes or a ridge"}


@pytest.mark.parametrize("command", [
    ["rise", "--point", "{point}", "--masks", "20", "--seed", "0"],
    ["shap", "--point", "{point}", "--background", "{data}", "--class", "0", "--exact"],
    ["lime", "--point", "{point}", "--class", "0", "--seed", "0"],
    ["tree-distill", "--data", "{data}", "--epochs", "3", "--seed", "0"],
], ids=lambda command: command[0])
def test_overflowing_prediction_exits_4(capsys, ws, tmp_path, command):
    # finite weights whose logits at (5, 5) overflow to +-inf, so the
    # softmax would be NaN
    path = _edit_checkpoint(
        ws["logistic"], lambda p: p.update(weights=[[1e308, 1e308], [-1e308, -1e308]]),
        tmp_path / "huge.json",
    )
    point = tmp_path / "point.csv"
    point.write_text("5,5\n", encoding="utf-8")
    argv = [arg.format(data=ws["data"], point=point) for arg in command]
    err = run_err(capsys, ["explain", *argv, "--model", path], cli.NUMERICAL_EXIT)
    assert err["type"] == "NonFiniteResult"
    assert err["message"] == "logistic class probabilities are not finite: the scores overflow"


def test_diverging_fit_exits_4_and_saves_nothing(capsys, ws, tmp_path):
    save = tmp_path / "x.json"
    err = run_err(capsys, [
        "model", "fit", "--data", ws["data"], "--family", "logistic", "--seed", "0",
        "--save", str(save), "--learning-rate", "1e300",
    ], cli.NUMERICAL_EXIT)
    assert err["type"] == "NonFiniteResult"
    assert err["message"].startswith("the logistic fit overflowed")
    assert not save.exists()


@pytest.mark.parametrize("family, what", [("gaussian", "shared"), ("plda", "within-class")])
def test_collinear_fit_exits_4_with_a_remedy_a_user_can_take(capsys, tmp_path, family, what):
    # two identical columns at ~1e8: the constant ridge is lost in rounding
    column = (np.random.default_rng(0).standard_normal(12) * 1e8).tolist()
    rows = [f"{v!r},{v!r},{i // 6}" for i, v in enumerate(column)]
    data = tmp_path / "collinear.csv"
    data.write_text("f0,f1,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    save = tmp_path / "x.json"
    err = run_err(capsys, ["model", "fit", "--data", str(data), "--family", family, "--seed", "0",
                           "--save", str(save)], cli.NUMERICAL_EXIT)
    assert (err["type"], err["message"]) == (
        "SingularCovariance", f"{what} covariance is singular; rescale the features or drop collinear ones")
    assert not save.exists()


@pytest.mark.parametrize("flags, message", [
    (["--family", "mlp", "--hidden", "-1"], "an mlp needs at least one hidden unit, got -1"),
    (["--family", "mlp", "--hidden", "0"], "an mlp needs at least one hidden unit, got 0"),
    (["--family", "mlp", "--epochs", "-1"], "epochs must be in [0, 16777216], got -1"),
    (["--family", "logistic", "--epochs", "-1"], "epochs must be in [0, 16777216], got -1"),
    (["--family", "mlp", "--hidden", "104856", "--epochs", "0"],
     "an mlp epoch holds 10 x (104856 hidden units + 2 classes) x 16 rows, features and classes, "
     "over the limit of 16777216 entries"),
], ids=["negative-hidden", "zero-hidden", "negative-mlp-epochs", "negative-logistic-epochs",
        "mlp-epoch-working-set"])
def test_model_fit_out_of_bounds_exits_3_and_saves_nothing(capsys, ws, tmp_path, flags, message):
    save = tmp_path / "x.json"
    err = run_err(capsys, ["model", "fit", "--data", ws["data"], "--seed", "0", "--save", str(save), *flags],
                  cli.DATA_EXIT)
    assert (err["type"], err["message"]) == ("BadSpec", message)
    assert not save.exists()


@pytest.mark.parametrize("family", ["logistic", "mlp"])
def test_model_fit_epochs_over_the_limit_exit_3(capsys, ws, tmp_path, monkeypatch, family):
    from bayesteach import models

    # a limit of 5 stands in for MAX_DRAWS, so an over-limit fit would end at once
    monkeypatch.setattr(models, "MAX_DRAWS", 5)
    save = tmp_path / "x.json"
    err = run_err(capsys, ["model", "fit", "--data", ws["data"], "--family", family, "--epochs", "6",
                           "--seed", "0", "--save", str(save)], cli.DATA_EXIT)
    assert err["message"] == "epochs must be in [0, 5], got 6"
    assert not save.exists()


def test_one_hidden_unit_and_no_epoch_fit_and_inspect(capsys, ws, tmp_path):
    save = str(tmp_path / "mlp.json")
    run_ok(capsys, ["model", "fit", "--data", ws["data"], "--family", "mlp", "--hidden", "1",
                    "--epochs", "0", "--seed", "0", "--save", save], "model")
    doc, _ = run_ok(capsys, ["model", "inspect", "--model", save], "model")
    assert doc["result"]["parameter_shapes"]["W1"] == [1, 2]
    assert doc["result"]["parameter_shapes"]["loss_trace"] == [1]


_WIDTH_MISMATCHES = {
    "plda-examples": ["explain", "plda-examples", "--model", "{plda}", "--data", "{wide}", "--per-class-k", "1"],
    "plda-examples-independent": ["explain", "plda-examples", "--model", "{plda}", "--data", "{wide}",
                                  "--per-class-k", "1", "--independent"],
    "recombine-plda": ["explain", "recombine", "--theta", "latent-class-means", "--x-kind", "example-set",
                       "--learner", "plda", "--strategy", "exhaustive-max", "--model", "{plda}",
                       "--data", "{wide}", "--param", "per_class_k=1", "--seed", "0"],
    "recombine-nearest-class": ["explain", "recombine", "--theta", "predicted-label", "--x-kind", "example-set",
                                "--learner", "nearest-class", "--strategy", "exhaustive-max", "--model", "{plda}",
                                "--data", "{wide}", "--point", "{point}", "--seed", "0"],
    "study-example-selection": ["study", "run", "--config", "{study}", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(_WIDTH_MISMATCHES))
def test_data_of_another_width_than_the_model_exits_3(capsys, ws, tmp_path, name):
    """Three-feature data against a two-feature plda model and point."""
    wide = str(tmp_path / "wide.csv")
    assert cli.main(["dataset", "make", "--generator", "gaussian-blobs", "--classes", "2", "--dim", "3",
                     "--per-class", "4", "--seed", "3", "--csv", wide, "--out", str(tmp_path / "make.json")]) == 0
    study = tmp_path / "study.json"
    study.write_text(json.dumps({"study": "example-selection", "model": ws["plda"], "data": wide,
                                 "params": {"per_class_k": 1, "trials": 5, "random_subset_count": 5}}))
    argv = [a.format(plda=ws["plda"], wide=wide, point=ws["point"], study=study) for a in _WIDTH_MISMATCHES[name]]
    err = run_err(capsys, argv, cli.DATA_EXIT)
    assert err["type"] == "DimensionMismatch"


@pytest.mark.parametrize("combination, params, unknown, accepted", [
    (["--theta", "latent-class-means", "--x-kind", "example-set", "--learner", "plda",
      "--strategy", "mh-sample"],
     ["n=10", "burn_in=0", "bogus=3"], "bogus", "burn_in, n, per_class_k"),
    (["--theta", "predictive-distribution", "--x-kind", "soft-tree",
      "--learner", "surrogate-fit", "--strategy", "gradient-fit"],
     ["depth=2", "per_class_k=1"], "per_class_k", "beta, depth, epochs"),
])
def test_recombine_rejects_a_param_no_recipe_reads(capsys, ws, combination, params, unknown, accepted):
    argv = ["explain", "recombine", *combination, "--model", ws["plda"], "--data", ws["data"],
            "--seed", "0"]
    for param in params:
        argv += ["--param", param]
    err = run_err(capsys, argv, cli.DATA_EXIT)
    assert err["type"] == "BadSpec"
    assert f"reads no --param {unknown};" in err["message"]
    assert f"accepted: {accepted}" in err["message"]


@pytest.mark.parametrize("combination, steps_field", [
    (["--theta", "latent-class-means", "--learner", "plda", "--param", "per_class_k=1"], "steps"),
    (["--theta", "class-data-distribution", "--learner", "mmd"], "n"),
])
def test_recombine_mh_honours_chain_lengths(capsys, ws, combination, steps_field):
    doc, _ = run_ok(capsys, [
        "explain", "recombine", "--x-kind", "example-set", "--strategy", "mh-sample",
        *combination, "--model", ws["plda"], "--data", ws["data"],
        "--param", "n=10", "--param", "burn_in=0", "--seed", "0",
    ], "explain")
    metadata = doc["result"]["result"]["metadata"]
    assert metadata[steps_field] == 10
    assert metadata["burn_in"] == 0


# ---------------------------------------------------------------------------
# failure modes


def test_missing_required_flag_exits_2(capsys, tmp_path):
    err = run_err(capsys, [
        "dataset", "make", "--generator", "gaussian-blobs",
        "--csv", str(tmp_path / "x.csv"),
    ], cli.USAGE_EXIT)
    assert err["type"] == "UsageError"
    assert "--seed" in err["message"]


# every float flag, with the arguments its command requires
_FLOAT_FLAGS = [
    ("--separation", ["dataset", "make", "--generator", "gaussian-blobs", "--seed", "0",
                      "--csv", "out"]),
    ("--noise", ["dataset", "make", "--generator", "two-moons", "--seed", "0", "--csv", "out"]),
    ("--learning-rate", ["model", "fit", "--data", "data", "--family", "mlp", "--seed", "0",
                         "--save", "out"]),
    ("--bandwidth", ["explain", "mmd-critic", "--data", "data", "--prototypes", "2",
                     "--criticisms", "1"]),
    ("--keep", ["explain", "rise", "--model", "logistic", "--point", "point", "--seed", "0"]),
    ("--baseline", ["explain", "rise", "--model", "logistic", "--point", "point", "--seed", "0"]),
    ("--kernel-width", ["explain", "lime", "--model", "logistic", "--point", "point",
                        "--class", "1", "--seed", "0"]),
    ("--ridge", ["explain", "lime", "--model", "logistic", "--point", "point",
                 "--class", "1", "--seed", "0"]),
    ("--beta", ["explain", "tree-distill", "--model", "logistic", "--data", "data", "--seed", "0"]),
    ("--learning-rate", ["explain", "tree-distill", "--model", "logistic", "--data", "data",
                         "--seed", "0"]),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "abc"])
@pytest.mark.parametrize("flag, command", [
    pytest.param(flag, command, id=f"{command[1]}{flag}") for flag, command in _FLOAT_FLAGS
])
def test_non_finite_float_flag_exits_2(capsys, ws, tmp_path, flag, command, value):
    names = dict(ws, out=str(tmp_path / "out"))
    argv = [names[a] if a in names else a for a in command]
    err = run_err(capsys, argv + [f"{flag}={value}"], cli.USAGE_EXIT)
    assert err["type"] == "UsageError"
    assert err["message"] == f"argument {flag}: expected a finite number, got {value!r}"
    assert list(tmp_path.iterdir()) == []


def test_missing_file_exits_3(capsys):
    err = run_err(capsys, ["model", "inspect", "--model", "no-such-model.json"],
                  cli.DATA_EXIT)
    assert err["type"] == "FileNotFoundError"


def test_bad_csv_cell_reports_row_and_column(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,f1,label\n1.0,oops,a\n", encoding="utf-8")
    err = run_err(capsys, ["dataset", "import", "--in", str(bad)], cli.DATA_EXIT)
    assert err["type"] == "NonNumericFeature"
    assert err["detail"] == {"row": 2, "col": 2}


# each command with a directory where it reads or writes a file
_DIRECTORY_PATHS = {
    "import-in": ["dataset", "import", "--in", "{dir}"],
    "fit-save": ["model", "fit", "--data", "{data}", "--family", "logistic", "--seed", "0",
                 "--save", "{dir}"],
    "inspect-out": ["model", "inspect", "--model", "{logistic}", "--out", "{dir}"],
}


@pytest.mark.parametrize("command", sorted(_DIRECTORY_PATHS))
def test_a_directory_in_place_of_a_file_exits_3(capsys, ws, tmp_path, command):
    argv = [a.format(dir=tmp_path, data=ws["data"], logistic=ws["logistic"])
            for a in _DIRECTORY_PATHS[command]]
    err = run_err(capsys, argv, cli.DATA_EXIT)
    assert err["type"] == "IsADirectoryError"
    assert list(tmp_path.iterdir()) == []


# each command with the path whose file holds bytes that are not UTF-8
_UNDECODABLE = {
    "dataset-import": ["dataset", "import", "--in", "{bad}"],
    "model-fit": ["model", "fit", "--data", "{bad}", "--family", "logistic", "--seed", "0",
                  "--save", "{save}"],
    "model-inspect": ["model", "inspect", "--model", "{bad}"],
    "rise-point": ["explain", "rise", "--model", "{logistic}", "--point", "{bad}", "--seed", "0"],
    "study-config": ["study", "run", "--config", "{bad}", "--seed", "0"],
}


@pytest.mark.parametrize("command", sorted(_UNDECODABLE))
def test_undecodable_file_exits_3(capsys, ws, tmp_path, command):
    bad = tmp_path / "bad"
    bad.write_bytes(b"f0,f1,label\n1.0,2.0,\xff\xfe\n")
    save = tmp_path / "m.json"
    argv = [a.format(bad=bad, save=save, logistic=ws["logistic"]) for a in _UNDECODABLE[command]]
    err = run_err(capsys, argv, cli.DATA_EXIT)
    assert err["type"] == "UnicodeDecodeError"
    assert not save.exists()


@pytest.mark.parametrize("command", [
    ["model", "inspect", "--model", "{file}"],
    ["study", "run", "--config", "{file}", "--seed", "0"],
    ["explain", "recombine", "--theta", "latent-class-means", "--x-kind", "example-set",
     "--learner", "plda", "--strategy", "exhaustive-max", "--model", "{plda}", "--data", "{data}",
     "--seed", "0", "--param", "n={digits}"],
], ids=["checkpoint", "study-config", "param"])
def test_a_json_integer_too_long_to_read_exits_3(capsys, ws, tmp_path, command):
    digits = "9" * 5000  # int() reads at most 4,300 digits
    path = tmp_path / "long.json"
    path.write_text(f'{{"seed": {digits}}}', encoding="utf-8")
    argv = [a.format(file=path, plda=ws["plda"], data=ws["data"], digits=digits) for a in command]
    err = run_err(capsys, argv, cli.DATA_EXIT)
    assert err == {"type": "BadSpec", "exit_code": cli.DATA_EXIT,
                   "message": "a JSON integer of 5000 digits is too long to read"}


@pytest.mark.parametrize("command", [
    ["dataset", "import", "--in", "{csv}"],
    ["model", "fit", "--data", "{csv}", "--family", "logistic", "--seed", "0", "--save", "{save}"],
], ids=["import", "fit"])
def test_label_only_csv_exits_3(capsys, tmp_path, command):
    csv_path = tmp_path / "labels.csv"
    csv_path.write_text("label\na\nb\na\n", encoding="utf-8")
    save = tmp_path / "m.json"
    err = run_err(capsys, [a.format(csv=csv_path, save=save) for a in command], cli.DATA_EXIT)
    assert err["type"] == "BadSpec"
    assert err["message"] == "a dataset needs at least one feature column"
    assert not save.exists()


def test_numerical_collapse_exits_4(capsys, ws, tmp_path):
    # a saturated checkpoint drives every masked class-1 probability to
    # exactly zero, so the saliency average has nothing to normalize by
    ckpt = {
        "family": "logistic", "class_count": 2,
        "parameters": {"weights": [[0.0, 0.0], [0.0, 0.0]],
                       "bias": [0.0, -2000.0]},
        "config": {}, "seed": 0,
    }
    path = tmp_path / "saturated.json"
    path.write_text(json.dumps(ckpt), encoding="utf-8")
    err = run_err(capsys, [
        "explain", "rise", "--model", str(path), "--point", ws["point"],
        "--class", "1", "--masks", "50", "--seed", "0",
    ], cli.NUMERICAL_EXIT)
    assert err["type"] == "ZeroTotalWeight"


def _edit_checkpoint(path, edit, out):
    with open(path, encoding="utf-8") as fh:
        ckpt = json.load(fh)
    edit(ckpt["parameters"])
    out.write_text(json.dumps(ckpt), encoding="utf-8")
    return str(out)


def _set_cell(key, value):
    def edit(params):
        first = params[key][0]
        (first if isinstance(first, list) else params[key])[0] = value
    return edit


_PLDA_EXAMPLES = ["explain", "plda-examples", "--per-class-k", "1", "--data", "{data}"]
_RISE = ["explain", "rise", "--point", "{point}", "--masks", "50", "--seed", "0"]
_SHAP_EXACT = ["explain", "shap", "--point", "{point}", "--background", "{data}",
               "--class", "1", "--exact"]


@pytest.mark.parametrize("family, edit, command", [
    ("logistic", lambda p: p.update(weights="abc"), ["model", "inspect"]),
    ("plda", lambda p: p.update(latent_means=p["latent_means"][:1]), _PLDA_EXAMPLES),
    ("plda", lambda p: p.update(projection=p["projection"] + p["projection"][:1]), _PLDA_EXAMPLES),
    ("plda", lambda p: p.update(projection=p["projection"] + p["projection"][:1]), ["model", "inspect"]),
    ("plda", _set_cell("latent_means", math.nan), _PLDA_EXAMPLES),
    ("plda", lambda p: p.update(psi=[0.0 for _ in p["psi"]]), _PLDA_EXAMPLES),
    ("plda", _set_cell("psi", -1.0), _PLDA_EXAMPLES),
    ("logistic", _set_cell("bias", math.inf), _RISE),
    ("logistic", _set_cell("bias", math.inf), _SHAP_EXACT),
    ("gaussian", lambda p: p.update(shared=False, covariance=[p["covariance"]] * 2), ["model", "inspect"]),
    ("gaussian", lambda p: p.update(covariance=[[1.0, 2.0], [2.0, 1.0]]), ["model", "inspect"]),
    ("gaussian", lambda p: p.update(covariance=[[1.0, 0.0], [0.0, 0.0]]), _RISE),
], ids=["non-numeric-array", "short-latent-means", "projection-rows-plda-examples",
        "projection-rows-inspect", "nan-latent-mean", "zero-psi", "negative-psi",
        "infinite-bias-rise", "infinite-bias-shap", "per-class-covariance",
        "indefinite-covariance", "singular-covariance-rise"])
def test_malformed_checkpoint_exits_3(capsys, ws, tmp_path, family, edit, command):
    path = _edit_checkpoint(ws[family], edit, tmp_path / "edited.json")
    argv = [arg.format(data=ws["data"], point=ws["point"]) for arg in command]
    err = run_err(capsys, argv + ["--model", path], cli.DATA_EXIT)
    assert err["type"] == "BadSpec"


def test_checkpoint_config_with_a_nan_exits_3(capsys, ws, tmp_path):
    with open(ws["logistic"], encoding="utf-8") as fh:
        ckpt = json.load(fh)
    ckpt["config"] = {"epochs": math.nan}
    path = tmp_path / "nan-config.json"
    path.write_text(json.dumps(ckpt), encoding="utf-8")
    err = run_err(capsys, ["model", "inspect", "--model", str(path)], cli.DATA_EXIT)
    assert err["type"] == "BadSpec"


def _readme_exit_codes() -> dict:
    """Error class name -> exit code, from the rows for codes 3 and 4 of
    the README's exit-code table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    codes = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| ([34]) \|(.*)\|$", line)
        if row:
            for name in re.findall(r"`([A-Z]\w*)`", row.group(2)):
                codes[name] = int(row.group(1))
    return codes


_ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.EngineError)
    and cls not in (errors.EngineError, errors.NumericalError)
]


def test_readme_lists_every_error_class():
    assert set(_readme_exit_codes()) == {cls.__name__ for cls in _ERROR_CLASSES}


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_exit_code_reaches_the_cli(capsys, monkeypatch, cls):
    assert cls.exit_code == _readme_exit_codes()[cls.__name__]
    parse = issubclass(cls, errors.ParseError)

    def handler(args):
        raise cls("raised on purpose", row=2, col=5) if parse else cls("raised on purpose")

    monkeypatch.setattr(cli, "_cmd_model_inspect", handler)
    err = run_err(capsys, ["model", "inspect", "--model", "unused.json"], cls.exit_code)
    assert err["type"] == cls.__name__
    assert err.get("detail") == ({"row": 2, "col": 5} if parse else None)


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    captured = capsys.readouterr()
    assert "usage: bayesteach" in captured.out


# texts printed from the whole parser tree, stored under tests/usage:
# file, argv, exit code and the stream that carries the text
USAGE_TEXTS = Path(__file__).with_name("usage")
USAGE_CASES = {
    "cli-help.txt": (["--help"], 0, "out"),
    "cli-explain-help.txt": (["explain", "--help"], 0, "out"),
    "cli-unknown-command.err.json": (["frobnicate"], cli.USAGE_EXIT, "err"),
    "cli-missing-flag.err.json": (["explain", "rise", "--model", "m.json"], cli.USAGE_EXIT, "err"),
}


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_help_and_usage_errors_match_the_stored_text(capsys, monkeypatch, name):
    argv, code, stream = USAGE_CASES[name]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert cli.main(argv) == code
    assert getattr(capsys.readouterr(), stream) == (USAGE_TEXTS / name).read_text(encoding="utf-8")


LEAVES = [(group, leaf) for group, (_, _, leaves) in cli._commands().items() for leaf in leaves]
# the required arguments of each leaf, with made-up values
LEAF_ARGS = {
    ("dataset", "make"): "--generator two-moons --seed 1 --csv a.csv",
    ("dataset", "import"): "--in a.csv",
    ("model", "fit"): "--data a.csv --family plda --seed 0 --save m.json",
    ("model", "inspect"): "--model m.json",
    ("explain", "plda-examples"): "--model m.json --data a.csv",
    ("explain", "mmd-critic"): "--data a.csv --prototypes 2 --criticisms 1",
    ("explain", "rise"): "--model m.json --point p.csv --seed 1",
    ("explain", "shap"): "--model m.json --point p.csv --background a.csv --class 0",
    ("explain", "lime"): "--model m.json --point p.csv --class 0 --seed 1",
    ("explain", "tree-distill"): "--model m.json --data a.csv --seed 1",
    ("explain", "recombine"): "--theta predicted-label --x-kind example-set --learner plda "
                              "--strategy greedy --model m.json --data a.csv --seed 1",
    ("study", "run"): "--config c.json --seed 1",
    ("oracle", "check"): "",
}


@pytest.mark.parametrize("group, leaf", LEAVES)
def test_the_one_leaf_parser_reads_argv_as_the_whole_tree_does(capsys, monkeypatch, group, leaf):
    argv = [group, leaf, *LEAF_ARGS[group, leaf].split()]
    assert vars(cli.build_parser(argv).parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    other = next(pair for pair in LEAVES if pair[0] != group)
    with pytest.raises(cli._UsageError):
        cli.build_parser(argv).parse_args([*other, *LEAF_ARGS[other].split()])

    # the leaf's help and its usage errors are the whole tree's
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for parser in (cli.build_parser(argv), cli.build_parser()):
        with pytest.raises(SystemExit):
            parser.parse_args([group, leaf, "--help"])
        with pytest.raises(cli._UsageError) as usage:
            parser.parse_args([group, leaf, "--bogus"])
        texts.append((capsys.readouterr().out, str(usage.value)))
    assert texts[0] == texts[1]


SEEDED = [(group, leaf) for group, leaf in LEAVES
          if "--seed" in [flag for flag, _ in cli._commands()[group][2][leaf][2]]]


@pytest.mark.parametrize("seed", ["-1", "-7", "1.5", "abc"])
@pytest.mark.parametrize("group, leaf", SEEDED)
def test_a_seed_that_is_not_a_non_negative_integer_exits_2(capsys, group, leaf, seed):
    # numpy seeds only non-negative integers; the value is refused while
    # parsing, before any file is read
    argv = [group, leaf, *re.sub(r"--seed \S+", "", LEAF_ARGS[group, leaf]).split(), "--seed", seed]
    err = run_err(capsys, argv, cli.USAGE_EXIT)
    assert err["type"] == "UsageError" and "--seed" in err["message"]


# ---------------------------------------------------------------------------
# oracle and study commands


def test_oracle_check_document(capsys):
    doc, _ = run_ok(capsys, ["oracle", "check", "--suite", "mmd"], "oracle")
    assert doc["suite"] == "mmd"
    assert doc["passed"] is True
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])


def test_oracle_check_rejects_unknown_suite(capsys):
    err = run_err(capsys, ["oracle", "check", "--suite", "bogus"], cli.USAGE_EXIT)
    assert err["type"] == "UsageError"


def _study_config(ws, tmp_path, threshold_value):
    config = {
        "study": "example-selection",
        "model": ws["plda"],
        "data": ws["data"],
        "params": {"per_class_k": 1, "trials": 50, "random_subset_count": 20},
        "thresholds": [
            {"field": "accuracy_gap", "op": "ge", "value": threshold_value}
        ],
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return config, str(path)


def test_study_run_document_and_config_hash(capsys, ws, tmp_path):
    config, path = _study_config(ws, tmp_path, -1.0)
    doc, _ = run_ok(capsys, ["study", "run", "--config", path, "--seed", "4"], "study")
    assert doc["study"] == "example-selection"
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    assert doc["config_hash"] == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert doc["thresholds"][0]["passed"] is True
    assert doc["thresholds"][0]["observed"] == doc["result"]["accuracy_gap"]
    assert 0.0 <= doc["result"]["teacher_accuracy"] <= 1.0


def test_failed_threshold_exits_1_but_still_reports(capsys, ws, tmp_path):
    _, path = _study_config(ws, tmp_path, 10.0)
    doc, _ = run_ok(
        capsys, ["study", "run", "--config", path, "--seed", "4"], "study", code=1
    )
    assert doc["thresholds"][0]["passed"] is False


def test_study_params_are_read_by_the_kinds_of_their_defaults(capsys, ws, tmp_path):
    """``"n": 300.0`` runs as ``300``, a number key reads a float, and a
    string is refused as on ``--param``; ``config`` stays the file."""
    results = []
    for n in (300, 300.0):
        config = {"study": "strategy-mismatch", "model": ws["plda"], "data": ws["data"],
                  "params": {"per_class_k": 1, "n": n, "burn_in": 20, "distractor_scale": 1}}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        doc, _ = run_ok(capsys, ["study", "run", "--config", str(path), "--seed", "0"], "study")
        assert doc["config"] == config
        results.append(doc["result"])
    assert results[0] == results[1]

    config = {"study": "example-selection", "model": ws["plda"], "data": ws["data"],
              "params": {"per_class_k": 1, "trials": 5, "random_subset_count": 5, "distractor_scale": 1}}
    path.write_text(json.dumps(config), encoding="utf-8")
    _, out = run_ok(capsys, ["study", "run", "--config", str(path), "--seed", "0"], "study")
    assert '"distractor_scale": 1.0' in out and '"distractor_scale": 1,' in out

    config["params"]["trials"] = "5"
    path.write_text(json.dumps(config), encoding="utf-8")
    err = run_err(capsys, ["study", "run", "--config", str(path), "--seed", "0"], cli.DATA_EXIT)
    assert (err["type"], err["message"]) == (
        "BadSpec", "study param trials='5' is not usable: a string is not an integer")


@pytest.mark.parametrize("study", ["example-selection", "bias-sweep", "strategy-mismatch"])
def test_an_overflowing_distractor_warns_nothing(capsys, ws, tmp_path, study):
    # the distractor's squared distances overflow: its density is exactly
    # 0, and numpy's overflow warning would reach stderr
    config = {"study": study, "model": ws["plda"], "data": ws["data"],
              "params": {"per_class_k": 1, "distractor_scale": 1e155}}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    _, out = run_ok(capsys, ["study", "run", "--config", str(path), "--seed", "0"], "study")
    json.loads(out, parse_constant=lambda token: pytest.fail(f"{token} in the document"))


# at these seeds the standard normals carry the jitter past the float range
@pytest.mark.parametrize("study, seed, scale", [
    ("example-selection", 6, 1.7e308),
    ("bias-sweep", 6, 1.7e308),
    ("strategy-mismatch", 6, 1.7e308),
    ("example-selection", 1, -1e308),
])
def test_a_distractor_that_overflows_exits_4(capsys, ws, tmp_path, study, seed, scale):
    config = {"study": study, "model": ws["plda"], "data": ws["data"],
              "params": {"per_class_k": 1, "distractor_scale": scale}}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would end in a traceback
        err = run_err(capsys, ["study", "run", "--config", str(path), "--seed", str(seed)], 4)
    assert err["type"] == "NonFiniteResult"


@pytest.fixture(scope="module")
def ws24(tmp_path_factory):
    """24 rows in three classes of 8, and a PLDA model fitted to them."""
    root = tmp_path_factory.mktemp("ws24")
    scratch = str(root / "setup.json")
    assert cli.main(["dataset", "make", "--generator", "gaussian-blobs", "--classes", "3",
                     "--dim", "2", "--per-class", "8", "--separation", "5.0", "--seed", "11",
                     "--csv", str(root / "data.csv"), "--out", scratch]) == 0
    assert cli.main(["model", "fit", "--data", str(root / "data.csv"), "--family", "plda",
                     "--seed", "0", "--save", str(root / "plda.json"), "--out", scratch]) == 0
    return root


@pytest.mark.parametrize("study, params", [
    ("bias-sweep", {"task_count": -3}),
    ("bias-sweep", {"task_count": 0}),
    # 700,000 subsets of 24 rows draw 16.8M uniforms, over 2^24
    ("example-selection", {"trials": 700_000, "random_subset_count": 5}),
])
def test_a_study_count_out_of_range_exits_3(capsys, ws24, tmp_path, study, params):
    config = {"study": study, "model": str(ws24 / "plda.json"), "data": str(ws24 / "data.csv"),
              "params": params}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    err = run_err(capsys, ["study", "run", "--config", str(path), "--seed", "0"], cli.DATA_EXIT)
    assert err["type"] == "BadSpec" and "subsets need" in err["message"]


def test_a_tied_selection_study_refuses_2_to_the_40_trials_before_any_coin(capsys, ws24, tmp_path):
    # a distractor scale of 0 makes the two candidates equal, so every 2AFC
    # pair ties and flips a coin per trial; the random arm's draw refuses
    # the count first, with no large allocation
    config = {"study": "example-selection", "model": str(ws24 / "plda.json"), "data": str(ws24 / "data.csv"),
              "params": {"distractor_scale": 0.0, "trials": 1 << 40}}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    tracemalloc.start()
    try:
        err = run_err(capsys, ["study", "run", "--config", str(path), "--seed", "0"], cli.DATA_EXIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == {"type": "BadSpec", "exit_code": cli.DATA_EXIT, "message":
                   "1099511627776 subsets need n >= 1 and at most 16777216 uniforms, 24 per subset"}
    assert peak < 16 << 20


@pytest.mark.parametrize("study, params", [
    ("bias-sweep", {"strengths": [0, -5, 5], "task_count": 20}),
    ("example-selection", {"bias_strength": -1, "trials": 5, "random_subset_count": 5}),
])
def test_a_negative_bias_strength_exits_3(capsys, ws, tmp_path, study, params):
    config = {"study": study, "model": ws["plda"], "data": ws["data"], "params": params}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    err = run_err(capsys, ["study", "run", "--config", str(path), "--seed", "0"], cli.DATA_EXIT)
    assert err == {"type": "BadSpec", "message": "confirmation strength must be nonnegative",
                   "exit_code": cli.DATA_EXIT}


@pytest.mark.parametrize("config", [
    {"study": "example-selection", "data": "DATA"},  # no model
    [1, 2],  # not an object
    {"study": "example-selection", "model": "PLDA", "data": "DATA", "params": {"bogus": 1}},
    {"study": "bias-sweep", "model": "PLDA", "data": "DATA", "params": {"bogus": 1}},
    {"study": "strategy-mismatch", "model": "PLDA", "data": "DATA", "params": {"bogus": 1}},
    {"study": "strategy-mismatch", "model": "PLDA", "data": "DATA", "params": {"n": "many"}},
    {"study": "strategy-mismatch", "model": "PLDA", "data": "DATA", "params": {"n": 0}},
    {"study": "strategy-mismatch", "model": "PLDA", "data": "DATA", "params": {"burn_in": -1}},
    {"study": "example-selection", "model": "PLDA", "data": "DATA", "params": [1]},
    {"study": ["example-selection"], "model": "PLDA", "data": "DATA"},
    {"study": "example-selection", "model": "PLDA", "data": "DATA",
     "params": {"trials": 5, "random_subset_count": 5}, "thresholds": [{"op": "ge", "value": 1}]},
    {"study": "example-selection", "model": "PLDA", "data": "DATA",
     "params": {"trials": 5, "random_subset_count": 5},
     "thresholds": [{"field": "calibration", "op": "ge", "value": 1}]},
    {"study": "example-selection", "model": "PLDA", "data": "DATA", "note": math.nan},
    {"study": "example-selection", "model": "PLDA", "data": "DATA",
     "params": {"distractor_scale": math.nan}},
    {"study": "bias-sweep", "model": "PLDA", "data": "DATA", "params": {"strengths": [-math.inf]}},
    {"study": "example-selection", "model": "PLDA", "data": "DATA",
     "params": {"distractor_scale": 10**400}},
    {"study": "strategy-mismatch", "model": "PLDA", "data": "DATA", "params": {"n": 10**24}},
    {"study": "strategy-mismatch", "model": "PLDA", "data": "DATA", "params": {"burn_in": 10**24}},
])
def test_bad_study_configs_exit_3(capsys, ws, tmp_path, config):
    text = json.dumps(config).replace('"PLDA"', json.dumps(ws["plda"]))
    path = tmp_path / "bad-study.json"
    path.write_text(text.replace('"DATA"', json.dumps(ws["data"])), encoding="utf-8")
    err = run_err(capsys, ["study", "run", "--config", str(path), "--seed", "0"], cli.DATA_EXIT)
    assert err["type"] == "BadSpec"


# ---------------------------------------------------------------------------
# packaging


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bayesteach.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "usage: bayesteach" in proc.stdout


_SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
loaded = {}
from bayesteach import cli
loaded["import"] = scipy_modules()
code = cli.main(sys.argv[1:])
loaded["plda fit"] = scipy_modules()
print(json.dumps({"code": code, "loaded": loaded}))
"""


def test_no_scipy_module_is_loaded_by_import_or_plda_fit(ws, tmp_path):
    out, saved = tmp_path / "fit.json", tmp_path / "plda.json"
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, "model", "fit", "--data", ws["data"],
         "--family", "plda", "--seed", "0", "--save", str(saved), "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"code": 0, "loaded": {"import": [], "plda fit": []}}
    doc = json.loads(out.read_text(encoding="utf-8"))
    jsonschema.validate(doc, schema("model"))
    assert saved.read_text(encoding="utf-8") == Path(ws["plda"]).read_text(encoding="utf-8")


_NUMPY_MA_PROBE = """
import sys
from bayesteach import cli
code = cli.main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


def test_example_selection_leaves_numpy_ma_unloaded(ws, tmp_path):
    # np.unique, np.median and np.setdiff1d import numpy.ma, about 14 ms,
    # on their first call
    plda = ["explain", "plda-examples", "--model", ws["plda"], "--data", ws["data"],
            "--per-class-k", "1", "--mh-steps", "50", "--seed", "0", "--strategy"]
    for argv in (plda + ["exhaustive-max"], plda + ["mh-sample"],
                 ["explain", "mmd-critic", "--data", ws["data"], "--prototypes", "2", "--criticisms", "2"]):
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_MA_PROBE, *argv, "--out", str(tmp_path / "doc.json")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"], argv


def test_example_selection_study_leaves_numpy_ma_unloaded(ws, tmp_path):
    # the study's 0.99 quantile is taken without np.quantile, whose
    # np.unique imports numpy.ma
    config = tmp_path / "study.json"
    config.write_text(json.dumps({
        "study": "example-selection", "model": ws["plda"], "data": ws["data"],
        "params": {"trials": 5, "random_subset_count": 50},
    }), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_PROBE, "study", "run", "--config", str(config),
         "--seed", "0", "--out", str(tmp_path / "doc.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


# BLAS thread-count variables, in the order OpenBLAS prefers them; MKL
# reads its own before OMP_NUM_THREADS
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
needs_proc_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                      reason="counts threads through /proc/self/task")


def blas_env(omp_threads=None) -> dict:
    """This process's environment without BLAS thread variables, plus
    ``OMP_NUM_THREADS`` when given; the package imports from any directory."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    package_root = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    if omp_threads is not None:
        env["OMP_NUM_THREADS"] = omp_threads
    return env


def two_blas_threads() -> int:
    """Threads OpenBLAS starts for ``OMP_NUM_THREADS=2``: it never starts
    more than the CPUs this process may run on."""
    return min(2, len(os.sched_getaffinity(0)))


_THREAD_PROBE = """
import os
import bayesteach
print(len(os.listdir("/proc/self/task")), os.environ.get("OMP_NUM_THREADS"))
"""


@needs_proc_tasks
def test_importing_the_package_loads_blas_on_one_thread_and_restores_the_environment():
    def probe(env):
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    assert probe(blas_env()) == ["1", "None"]
    assert probe(blas_env("2")) == [str(two_blas_threads()), "2"]


_MODULES_PROBE = """
import sys
from bayesteach import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.startswith("bayesteach.")))
"""


@pytest.mark.parametrize("argv, absent", [
    ("dataset make --generator two-moons --n 20 --seed 0 --csv moons.csv",
     ("explainers", "studies", "recombine", "checks")),
    ("model inspect --model {plda}", ("explainers", "studies", "recombine", "checks")),
    ("explain plda-examples --model {plda} --data {data}", ("studies", "recombine", "checks")),
])
def test_a_command_loads_only_the_modules_it_runs(ws, tmp_path, argv, absent):
    """Each handler imports the modules of its own subcommand. The test
    runs in a child, since this process has imported them all."""
    argv = [*argv.format(**ws).split(), "--out", str(tmp_path / "doc.json")]
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *argv], env=blas_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0" and "bayesteach.models" in loaded
    assert sorted({f"bayesteach.{name}" for name in absent} & set(loaded)) == []


_CLI_THREAD_PROBE = """
import os, sys
from bayesteach import cli
code = cli.main(sys.argv[1:])
print(code, len(os.listdir("/proc/self/task")))
"""


@needs_proc_tasks
def test_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    """`model fit --family mlp` on 600 grid images and `explain rise` with
    8,192 masks (their matrix products are large enough for OpenBLAS to
    split across threads) write the same bytes on one BLAS thread and on
    two. Each child runs in its own directory with the same relative
    paths, so the documents can be compared whole."""
    data = str(tmp_path / "grid.csv")
    assert cli.main(["dataset", "make", "--generator", "grid-image", "--classes", "2",
                     "--side", "6", "--per-class", "300", "--seed", "2", "--csv", data,
                     "--out", str(tmp_path / "make.json")]) == 0
    header, *rows = Path(data).read_text(encoding="utf-8").splitlines()
    keep = [i for i, name in enumerate(header.split(",")) if name != "label"]
    point = "".join(",".join(line.split(",")[i] for i in keep) + "\n" for line in (header, rows[-1]))
    (tmp_path / "point.csv").write_text(point, encoding="utf-8")

    runs = {}
    for name, env, threads in (("one", blas_env(), 1), ("two", blas_env("2"), two_blas_threads())):
        cwd = tmp_path / name
        cwd.mkdir()
        for argv in (
            ["model", "fit", "--data", data, "--family", "mlp", "--seed", "0",
             "--save", "mlp.json", "--out", "fit.json"],
            ["explain", "rise", "--model", "mlp.json", "--point", str(tmp_path / "point.csv"),
             "--masks", "8192", "--seed", "0", "--out", "rise.json"],
        ):
            proc = subprocess.run([sys.executable, "-c", _CLI_THREAD_PROBE, *argv], env=env,
                                  cwd=cwd, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == ["0", str(threads)], argv
        runs[name] = {f: (cwd / f).read_bytes() for f in ("mlp.json", "fit.json", "rise.json")}
    assert runs["one"] == runs["two"]
