"""Fuzzing of study configs and of ``--param`` and ``--class`` values.

Study configs are drawn as JSON objects: a known or unknown study, params
named after the study's keyword parameters (and an unknown one) holding
values of their own type or of any JSON type, thresholds, and extra keys.
``explain recombine`` gets drawn ``--param`` values for every learner's
keys, and ``explain rise``, ``shap`` and ``lime`` get drawn ``--class``
values. Greedy nearest-class runs are drawn on their own as well: when
the wanted class is not class 0, their first steps score -inf, which
the document must write as null. Counts stay at 50 or below so that
runs are short; floats span the whole finite range. Every run goes
in-process through ``cli.main`` and must end one of two ways: exit 0
(or 1 for a study whose threshold fails) with one JSON document on
stdout that holds no NaN or infinity, or exit 2, 3 or 4 with one JSON
error on stderr, valid against the error schema, and no traceback.
"""

import contextlib
import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesteach import cli

ERROR_SCHEMA = json.loads(
    (Path(cli.__file__).with_name("schemas") / "error.schema.json").read_text(encoding="utf-8")
)

FLOATS = st.floats(allow_nan=False, allow_infinity=False)  # up to 1.8e308
# half the draws near the defaults, so that many runs get past validation
USUAL_OR_ANY = st.floats(0.05, 5.0) | FLOATS
KINDS = {
    "count": st.integers(1, 50),
    "k": st.integers(1, 7),  # the fixture has 6 rows per class
    "float": st.one_of(USUAL_OR_ANY, USUAL_OR_ANY, USUAL_OR_ANY, st.integers(-(10**400), 10**400)),
    "bool": st.booleans(),
    "floats": st.lists(FLOATS, max_size=4),
    "class": st.integers(0, 1) | st.integers(),
    "depth": st.integers(-1, 4),  # a tree of depth d has 2**d leaves
}
ANY_JSON = st.recursive(  # its integers stay counts a run can afford
    st.none() | st.booleans() | st.integers(-50, 50) | FLOATS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
# each study's keyword parameters; a few are left out at random, but
# counts are always set, so no run falls back to thousands of trials
STUDY_PARAMS = {
    "example-selection": {
        "per_class_k": "k", "distractor_scale": "float", "trials": "count",
        "random_subset_count": "count", "bias_strength": "float", "bias_favors_distractor": "bool",
    },
    "bias-sweep": {
        "strengths": "floats", "per_class_k": "k", "distractor_scale": "float", "task_count": "count",
    },
    "strategy-mismatch": {
        "per_class_k": "k", "n": "count", "burn_in": "count", "distractor_scale": "float",
        "bias_strength": "float",
    },
}
ALWAYS_SET = {"trials", "random_subset_count", "task_count", "n", "burn_in"}
RESULT_FIELDS = [
    "accuracy_gap", "teacher_accuracy", "beats_random_p99", "calibration", "rows",
    "monotone_non_increasing", "sampled_mean_value", "sampling_beats_max", "no.such.field",
]
OPS = ["ge", "le", "gt", "lt", "eq", "is", "near"]

# learner -> (theta, x-kinds, strategies, model, {param: kind})
RECOMBINE = {
    "plda": ("latent-class-means", ["example-set"], ["exhaustive-max", "mh-sample"], "plda",
             {"per_class_k": "k", "n": "count", "burn_in": "count"}),
    "masked-prediction": ("predicted-label", ["feature-mask"],
                          ["exhaustive-max", "mh-sample", "mc-expectation"], "logistic",
                          {"baseline": "float", "target_class": "class", "keep_prob": "float",
                           "n": "count", "burn_in": "count"}),
    "nearest-class": ("predicted-label", ["example-set"], ["exhaustive-max", "mh-sample", "greedy"],
                      "logistic", {"target_class": "class", "temperature": "float",
                                   "per_class_k": "k", "n": "count", "burn_in": "count"}),
    "mmd": ("class-data-distribution", ["example-set"], ["exhaustive-max", "mh-sample", "greedy"],
            "logistic", {"class_index": "class", "bandwidth": "float", "temperature": "float",
                         "m": "k", "n": "count", "burn_in": "count"}),
    "surrogate-fit": ("local-decision-boundary", ["linear-weights", "soft-tree"], ["gradient-fit"],
                      "logistic", {"depth": "depth", "beta": "float", "epochs": "count",
                                   "learning_rate": "float", "kernel_width": "float",
                                   "probe_count": "count", "target_class": "class", "ridge": "float"}),
}
RECOMBINE_COUNTS = {"n", "burn_in", "epochs", "probe_count"}
ODD_TEXT = st.sampled_from(
    ["0", "-1", "NaN", "-Infinity", "1e999", "null", "true", "[1, 2]", "{}", "abc", "", "1.5"]
)


def rarely(draw) -> bool:
    """True for about one draw in six."""
    return draw(st.integers(0, 5)) == 5


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [str(w.message) for w in caught] == [], argv[:3]
    return code, out.getvalue(), err.getvalue()


def non_finite(node, path=()):
    """(path, value) of every NaN or infinite float in a parsed document."""
    if isinstance(node, float) and not math.isfinite(node):
        yield path, node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from non_finite(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from non_finite(value, path + (i,))


def check(argv, document_codes=(0,)):
    """Run ``argv`` and check how it ended; return its exit code and its
    document, or None after an error."""
    code, out, err = run(argv)
    if code in document_codes:
        assert err == "", (argv[:3], err)
        doc = json.loads(out)
        assert list(non_finite(doc)) == [], argv
        return code, doc
    assert code in (2, 3, 4), (argv[:3], code, err)
    assert out == "" and "Traceback" not in err, (argv[:3], err)
    doc = json.loads(err)
    jsonschema.validate(doc, ERROR_SCHEMA)
    assert doc["error"]["exit_code"] == code
    return code, None


@pytest.fixture(scope="module")
def fuzz_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_fuzz")
    paths = {name: str(root / f"{name}.json") for name in ("plda", "logistic")}
    paths["data"], scratch = str(root / "blobs.csv"), str(root / "setup.json")
    assert run([
        "dataset", "make", "--generator", "gaussian-blobs", "--classes", "2", "--dim", "2",
        "--per-class", "6", "--seed", "1", "--csv", paths["data"], "--out", scratch,
    ])[0] == 0
    for family in ("plda", "logistic"):
        assert run([
            "model", "fit", "--data", paths["data"], "--family", family, "--seed", "0",
            "--save", paths[family], "--out", scratch,
        ])[0] == 0
    paths["point"] = str(root / "point.csv")
    Path(paths["point"]).write_text("0.5,-0.25\n", encoding="utf-8")
    paths["root"] = root
    return paths


@st.composite
def study_configs(draw):
    """A study config without its model and data paths."""
    study = "no-such-study" if rarely(draw) else draw(st.sampled_from(sorted(STUDY_PARAMS)))
    kinds = STUDY_PARAMS.get(study, {})
    keys = {key for key in kinds if key in ALWAYS_SET or not rarely(draw)}
    if rarely(draw):
        keys.add("bogus")
    odd = rarely(draw)  # give some values another JSON type
    params = {}
    for key in sorted(keys):
        well_typed = key in kinds and not (odd and draw(st.booleans()))
        params[key] = draw(KINDS[kinds[key]] if well_typed else ANY_JSON)
    config = {"study": study, "params": params}
    if draw(st.booleans()):
        config["thresholds"] = draw(st.lists(st.fixed_dictionaries({
            "field": st.sampled_from(RESULT_FIELDS), "op": st.sampled_from(OPS), "value": ANY_JSON,
        }), max_size=2))
    if draw(st.booleans()):
        config["note"] = draw(ANY_JSON)
    if rarely(draw):
        config["label_column"] = draw(ANY_JSON)
    return config, "logistic" if rarely(draw) else "plda"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=study_configs())
def test_a_drawn_study_config_ends_in_a_document_or_one_json_error(fuzz_ws, case):
    config, model = case
    config = {**config, "model": fuzz_ws[model], "data": fuzz_ws["data"]}
    path = fuzz_ws["root"] / "study.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    check(["study", "run", "--config", str(path), "--seed", "0"], document_codes=(0, 1))


@st.composite
def recombine_argvs(draw, ws):
    learner = draw(st.sampled_from(sorted(RECOMBINE)))
    theta, x_kinds, strategies, model, kinds = RECOMBINE[learner]
    keys = {key for key in kinds if key in RECOMBINE_COUNTS or not rarely(draw)}
    if rarely(draw):
        keys.add("bogus")
    argv = [
        "explain", "recombine", "--theta", theta, "--x-kind", draw(st.sampled_from(x_kinds)),
        "--learner", learner, "--strategy", draw(st.sampled_from(strategies)),
        "--model", ws[model], "--data", ws["data"], "--point", ws["point"], "--seed", "0",
    ]
    odd = rarely(draw)  # give some values an odd text
    for key in sorted(keys):
        well_typed = key in kinds and not (odd and draw(st.booleans()))
        value = json.dumps(draw(KINDS[kinds[key]])) if well_typed else draw(ODD_TEXT)
        argv += ["--param", f"{key}={value}"]
    return argv


CLASS_COMMANDS = {
    "rise": ["--masks", "16"],
    "shap": ["--background", "{data}", "--exact"],
    "lime": ["--probes", "20"],
}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_drawn_param_and_class_values_end_in_a_document_or_one_json_error(fuzz_ws, data):
    check(data.draw(recombine_argvs(fuzz_ws)))

    method = data.draw(st.sampled_from(sorted(CLASS_COMMANDS)))
    target = data.draw(KINDS["class"].map(str) | ODD_TEXT)
    check([
        "explain", method, "--model", fuzz_ws["logistic"], "--point", fuzz_ws["point"],
        "--seed", "0", f"--class={target}",
        *(a.format(data=fuzz_ws["data"]) for a in CLASS_COMMANDS[method]),
    ])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(k=st.integers(1, 6), target=st.integers(0, 1), temperature=USUAL_OR_ANY)
def test_drawn_greedy_runs_whose_first_steps_score_minus_infinity(fuzz_ws, k, target, temperature):
    # nearest-class needs the wanted class, and greedy fills class 0's pool
    # first, so wanting class 1 gives the first k steps a score of -inf
    code, doc = check([
        "explain", "recombine", "--theta", "predicted-label", "--x-kind", "example-set",
        "--learner", "nearest-class", "--strategy", "greedy", "--model", fuzz_ws["logistic"],
        "--data", fuzz_ws["data"], "--point", fuzz_ws["point"], "--seed", "0",
        "--param", f"per_class_k={k}", "--param", f"target_class={target}",
        "--param", f"temperature={json.dumps(temperature)}",
    ])
    if code == 0:
        trace = doc["result"]["result"]["metadata"]["score_trace"]
        assert len(trace) == 2 * k
        assert (trace[:k] == [None] * k) == (target == 1)


@pytest.mark.parametrize("count", [0, -1, -(10**30)])
def test_a_random_subset_count_below_one_exits_3(fuzz_ws, count):
    path = fuzz_ws["root"] / "few-subsets.json"
    path.write_text(json.dumps({
        "study": "example-selection", "model": fuzz_ws["plda"], "data": fuzz_ws["data"],
        "params": {"trials": 5, "random_subset_count": count},
    }), encoding="utf-8")
    code, _ = check(["study", "run", "--config", str(path), "--seed", "0"])
    assert code == 3


# (flags, expected exit): a tree past the size limit, or epochs out of
# [0, 2^24], is refused; zero epochs return the initial tree
TREE_SIZES = [
    (["--depth", "64"], 3),
    (["--depth", "30"], 3),
    (["--depth", "20"], 3),  # 2^21 - 1 nodes times 12 rows
    (["--depth", str(10**30)], 3),
    (["--epochs", "-5"], 3),
    (["--epochs", str((1 << 24) + 1)], 3),
    (["--epochs", "0"], 0),
    (["--depth", "4", "--epochs", "2"], 0),
    # under a bound on each array, but an epoch holds several of its
    # 12.6M-entry route arrays at once
    (["--depth", "19"], 3),
]


@pytest.mark.parametrize("flags,want", TREE_SIZES)
def test_tree_sizes_past_the_limit_exit_3_before_allocating(fuzz_ws, flags, want):
    argvs = [
        ["explain", "tree-distill", "--model", fuzz_ws["logistic"], "--data", fuzz_ws["data"],
         "--seed", "0", *flags],
        ["explain", "recombine", "--theta", "predictive-distribution", "--x-kind", "soft-tree",
         "--learner", "surrogate-fit", "--strategy", "gradient-fit", "--model", fuzz_ws["logistic"],
         "--data", fuzz_ws["data"], "--seed", "0",
         *(f"--param={flag[2:]}={value}" for flag, value in zip(flags[::2], flags[1::2]))],
    ]
    for argv in argvs:
        tracemalloc.start()
        try:
            code, _ = check(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == want, argv
        assert peak < 8 << 20, (argv, peak)
