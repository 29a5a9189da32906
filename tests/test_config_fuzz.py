"""Fuzzing of study configs and of ``--param``, ``--seed`` and ``--class`` values.

The keys and their kinds are read where they are declared: each
learner's ``--param`` keys from ``LEARNER_REGISTRY``, and each study's
params from the keyword parameters of its function in ``studies.STUDIES``,
whose defaults give their kinds. Study configs are drawn as JSON objects:
a known or unknown study, params holding values of their declared kind,
sometimes one of another kind (a fractional number for an integer, a
bool or a string for a number, or any JSON value), an unknown param,
thresholds, and extra keys. ``explain recombine`` gets drawn ``--param``
values of the same sorts, and odd texts that are not JSON, for every
learner's keys, and ``explain rise``, ``shap`` and ``lime`` get drawn
``--class`` values. ``--seed`` is drawn too, negative values included.
Greedy nearest-class runs are drawn on their own as well: when the
wanted class is not class 0, their first steps score -inf, which the
document must write as null. Counts stay small so that runs are short;
floats span the whole finite range. Every run goes in-process through
``cli.main`` and must end one of two ways: exit 0 (or 1 for a study
whose threshold fails) with one JSON document on stdout that holds no
NaN or infinity, or exit 2, 3 or 4 with one JSON error on stderr, valid
against the error schema, and no traceback. A run ends in a document
only when every drawn value has its declared kind and the seed is not
negative.
"""

import contextlib
import inspect
import io
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesteach import cli
from bayesteach.recombine import LEARNER_REGISTRY
from bayesteach.studies import STUDIES

ERROR_SCHEMA = json.loads(
    (Path(cli.__file__).with_name("schemas") / "error.schema.json").read_text(encoding="utf-8")
)

FLOATS = st.floats(allow_nan=False, allow_infinity=False)  # up to 1.8e308
USUAL = st.floats(0.05, 5.0)
USUAL_OR_ANY = USUAL | FLOATS


def weighted(*choices):
    """One of the ``(weight, strategy)`` choices, drawn in proportion to
    its weight (``st.one_of`` draws each distinct strategy equally often)."""
    return st.sampled_from([s for weight, s in choices for _ in range(weight)]).flatmap(lambda s: s)


SMALL = st.integers(1, 2)  # a count, size or class index every run can afford
# values of each kind: numbers are mostly small or near the defaults, so
# that many runs get past validation, and integers are sometimes integral
# floats and sometimes far past every bound
OF_KIND = {
    int: weighted((4, SMALL), (1, SMALL.map(float)), (1, st.integers(-(10**30), 0)),
                  (1, st.integers(2**24 + 1, 10**30))),
    float: weighted((3, USUAL), (1, FLOATS), (1, st.integers(-(10**400), 10**400))),
    bool: st.booleans(),
    list: st.lists(USUAL_OR_ANY | SMALL, max_size=4),
    None: st.none(),
}
FRACTIONS = st.floats(1.0, 2.0, exclude_min=True, exclude_max=True)  # 1.x, read as 1 by a lax int()
# values of a nearby kind that a lax reader could take
NEAR_KIND = {
    int: weighted((2, FRACTIONS), (1, st.booleans()), (1, SMALL.map(str))),
    float: st.one_of(st.booleans(), USUAL.map(str), SMALL.map(str)),
    bool: st.one_of(st.integers(0, 1), st.sampled_from(["true", "false"])),
    list: st.one_of(st.lists(st.booleans() | USUAL.map(str), min_size=1, max_size=3), USUAL.map(str)),
    None: st.just(0),
}
ANY_JSON = st.recursive(  # its integers stay counts a run can afford
    st.none() | st.booleans() | st.integers(-50, 50) | FLOATS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
SEEDS = st.integers(0, 9) | st.integers(0, 2**64)
RESULT_FIELDS = [
    "accuracy_gap", "teacher_accuracy", "beats_random_p99", "calibration", "rows",
    "monotone_non_increasing", "sampled_mean_value", "sampling_beats_max", "no.such.field",
]
OPS = ["ge", "le", "gt", "lt", "eq", "is", "near"]

# learner -> (theta, x-kinds, strategies, model)
RECOMBINE = {
    "plda": ("latent-class-means", ["example-set"], ["exhaustive-max", "mh-sample"], "plda"),
    "masked-prediction": ("predicted-label", ["feature-mask"],
                          ["exhaustive-max", "mh-sample", "mc-expectation"], "logistic"),
    "nearest-class": ("predicted-label", ["example-set"], ["exhaustive-max", "mh-sample", "greedy"],
                      "logistic"),
    "mmd": ("class-data-distribution", ["example-set"], ["exhaustive-max", "mh-sample", "greedy"],
            "logistic"),
    "surrogate-fit": ("local-decision-boundary", ["linear-weights", "soft-tree"], ["gradient-fit"],
                      "logistic"),
}
ODD_TEXT = st.sampled_from(
    ["0", "-1", "NaN", "-Infinity", "1e999", "null", "true", "[1, 2]", "{}", "abc", "", "1.5",
     "1_000", ".5", "nan", "inf", " 50 "]
)


def study_kinds(study) -> dict:
    """A study's params and their kinds, from the defaults of its function:
    a tuple default declares a list of numbers."""
    return {
        name: list if isinstance(p.default, tuple) else type(p.default)
        for name, p in inspect.signature(study).parameters.items() if name not in ("model", "data", "seed")
    }


def has_kind(value, kind) -> bool:
    """Whether a JSON value has a declared kind: an integer is an integer
    or a number without a fractional part, a number (``float``) any finite
    number, a list finite numbers, and a bool is no number."""
    if isinstance(kind, tuple):
        return any(has_kind(value, one) for one in kind)
    if kind is None or kind is bool:
        return value is None if kind is None else isinstance(value, bool)
    if kind is list:
        return isinstance(value, list) and all(has_kind(v, float) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind is int:
        return isinstance(value, int) or value.is_integer()
    return abs(value) <= sys.float_info.max


def parsed(text: str):
    """A ``--param`` value as the command reads it: JSON, or else the text."""
    try:
        return json.loads(text)
    except ValueError:
        return text


@st.composite
def drawn_params(draw, kinds: dict, odd: bool) -> dict:
    """Values for the declared ``kinds``: integer keys are always set, so
    that no run falls back to a default of thousands of steps, and the
    others now and then left out. With ``odd``, one key gets a value of a
    nearby kind, or any JSON value, and the other keys small integers or
    nothing, so that the odd value most often decides how the run ends."""
    keys = sorted(key for key, kind in kinds.items() if kind is int or not rarely(draw))
    odd_key = draw(st.sampled_from(keys)) if odd and keys else None
    params = {}
    for key in keys:
        kind = kinds[key] if isinstance(kinds[key], tuple) else (kinds[key],)
        if key == odd_key:
            params[key] = draw(weighted((3, NEAR_KIND[kind[0]]), (1, ANY_JSON)))
        elif odd_key is None:
            params[key] = draw(st.sampled_from(kind).flatmap(OF_KIND.get))
        elif kind == (int,):
            params[key] = draw(SMALL)
    return params


def fault(draw, *faults):
    """None, ``value`` (one value of another kind than the declared one),
    ``seed`` (a negative seed) or one of ``faults``, so that a run meets at
    most one fault. None and ``value`` are listed more than once, as the
    outcomes drawn most often."""
    return draw(st.sampled_from([None, None, "value", "value", "value", "seed", *faults]))


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
def study_configs(draw, study):
    """A config of ``study`` without its model and data paths, the model
    and seed to run it with, and whether its params all have their
    declared kinds."""
    broken = fault(draw, "study", "param", "thresholds", "label_column", "model")
    kinds = study_kinds(STUDIES[study])
    params = draw(drawn_params(kinds, broken == "value"))
    if broken == "param":
        params["bogus"] = draw(ANY_JSON)
    config = {"study": "no-such-study" if broken == "study" else study, "params": params}
    if broken == "thresholds":
        config["thresholds"] = draw(st.lists(st.fixed_dictionaries({
            "field": st.sampled_from(RESULT_FIELDS), "op": st.sampled_from(OPS), "value": ANY_JSON,
        }), max_size=2))
    if draw(st.booleans()):
        config["note"] = draw(ANY_JSON)
    if broken == "label_column":
        config["label_column"] = draw(ANY_JSON)
    well_kinded = all(has_kind(value, kinds.get(key, ())) for key, value in params.items())
    seed = draw(st.integers(-(10**20), -1) if broken == "seed" else SEEDS)
    return config, "logistic" if broken == "model" else "plda", seed, well_kinded


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_a_drawn_study_config_ends_in_a_document_or_one_json_error(fuzz_ws, data):
    for study in sorted(STUDIES):
        config, model, seed, well_kinded = data.draw(study_configs(study))
        config = {**config, "model": fuzz_ws[model], "data": fuzz_ws["data"]}
        path = fuzz_ws["root"] / "study.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, _ = check(["study", "run", "--config", str(path), f"--seed={seed}"], document_codes=(0, 1))
        assert code > 1 or (well_kinded and seed >= 0), (config["params"], seed)


@st.composite
def recombine_argvs(draw, ws, learner):
    """An ``explain recombine`` argv of ``learner``, and whether its
    ``--param`` values all have their declared kinds and its seed is not
    negative."""
    theta, x_kinds, strategies, model = RECOMBINE[learner]
    kinds = LEARNER_REGISTRY[learner].params
    broken = fault(draw, "param", "text")
    texts = {key: json.dumps(value) for key, value in draw(drawn_params(kinds, broken == "value")).items()}
    if broken == "param":
        texts["bogus"] = json.dumps(draw(ANY_JSON))
    if broken == "text" and texts:  # one value an odd text, JSON or not
        texts[draw(st.sampled_from(sorted(texts)))] = draw(ODD_TEXT)
    seed = draw(st.integers(-(10**20), -1) if broken == "seed" else SEEDS)
    argv = [
        "explain", "recombine", "--theta", theta, "--x-kind", draw(st.sampled_from(x_kinds)),
        "--learner", learner, "--strategy", draw(st.sampled_from(strategies)),
        "--model", ws[model], "--data", ws["data"], "--point", ws["point"], f"--seed={seed}",
    ]
    for key, text in texts.items():
        argv += ["--param", f"{key}={text}"]
    return argv, seed >= 0 and all(has_kind(parsed(text), kinds.get(key, ())) for key, text in texts.items())


CLASS_COMMANDS = {
    "rise": ["--masks", "16"],
    "shap": ["--background", "{data}", "--exact"],
    "lime": ["--probes", "20"],
}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_drawn_param_and_class_values_end_in_a_document_or_one_json_error(fuzz_ws, data):
    for learner in sorted(LEARNER_REGISTRY):
        argv, well_kinded = data.draw(recombine_argvs(fuzz_ws, learner))
        code, _ = check(argv)
        assert code != 0 or well_kinded, argv

    method = data.draw(st.sampled_from(sorted(CLASS_COMMANDS)))
    target = data.draw((st.integers(0, 1) | st.integers()).map(str) | ODD_TEXT)
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
