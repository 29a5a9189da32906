"""End-to-end checks of the command line front end.

Every test drives ``cli.main`` in-process and inspects the JSON it
emits; each emitted document is validated against the schema shipped
with the package. One subprocess test covers the ``python -m`` entry.
"""

import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
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
    """A workspace with a dataset, two fitted models, and a probe point."""
    root = tmp_path_factory.mktemp("cli_ws")
    paths = {
        "data": str(root / "data.csv"),
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
    assert cli.main([
        "model", "fit", "--data", paths["data"], "--family", "logistic",
        "--seed", "0", "--save", paths["logistic"], "--out", scratch,
    ]) == 0
    assert cli.main([
        "model", "fit", "--data", paths["data"], "--family", "plda",
        "--seed", "0", "--save", paths["plda"], "--out", scratch,
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
])
def test_mask_draws_past_the_limit_exit_3(capsys, ws, argv):
    argv = [a.format(data=ws["data"]) for a in argv]
    err = run_err(capsys, argv + [
        "--model", ws["logistic"], "--point", ws["point"], "--seed", "0",
    ], cli.DATA_EXIT)
    assert err["type"] == "BadSpec" and "limit" in err["message"]


@pytest.mark.parametrize("param, key", [
    ("n=abc", "n"),
    ("keep_prob=[1]", "keep_prob"),
    ("baseline=[1,2,3]", "baseline"),
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
    ("nearest-class", "temperature=nan"),
    ("nearest-class", "temperature=Infinity"),
    ("masked-prediction", "baseline=NaN"),
    ("masked-prediction", "baseline=[0.5,NaN]"),
    ("masked-prediction", "keep_prob=nan"),
    ("mmd", "bandwidth=-Infinity"),
    ("surrogate-fit", "ridge=nan"),
    ("surrogate-fit", "kernel_width=inf"),
    ("surrogate-fit", "learning_rate=NaN"),  # a key the linear-weights recipe does not read
])
def test_recombine_rejects_a_non_finite_param(capsys, ws, learner, param):
    argv = [ws[a] if a in ("plda", "logistic") else a for a in _RECIPES[learner]]
    err = run_err(capsys, [
        "explain", "recombine", "--learner", learner, *argv, "--data", ws["data"],
        "--point", ws["point"], "--param", param, "--seed", "0",
    ], cli.DATA_EXIT)
    key = param.split("=")[0]
    assert err["type"] == "BadSpec"
    assert err["message"].startswith(f"--param {key}=")
    assert err["message"].endswith("not a finite number")


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
], ids=["non-numeric-array", "short-latent-means", "projection-rows-plda-examples",
        "projection-rows-inspect", "nan-latent-mean", "zero-psi", "negative-psi",
        "infinite-bias-rise", "infinite-bias-shap"])
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
    # np.unique imports numpy.ma, about 14 ms, on its first call
    for strategy in ("exhaustive-max", "mh-sample"):
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_MA_PROBE, "explain", "plda-examples",
             "--model", ws["plda"], "--data", ws["data"], "--per-class-k", "1",
             "--strategy", strategy, "--mh-steps", "50", "--seed", "0",
             "--out", str(tmp_path / "doc.json")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]
