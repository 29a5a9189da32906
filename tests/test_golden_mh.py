"""Stored CLI output of small seeded Metropolis runs, of every
recombination recipe, and of the README's exhaustive example selection,
example-selection study, and rise, shap, lime, tree-distill and
mmd-critic commands.

Each case runs one command in a fresh workspace built from the README's
dataset and checkpoints, and compares stdout (or, for a rejected
combination, stderr) with the document stored under ``tests/golden``,
byte for byte. The chains must not change their samples, modes or study
floats when the sampler is rewritten, and a recipe must not change its
output when the recombination table is reorganized; regenerate a golden
file only for a deliberate change of output.

Two of the cases also run under the benchmark tracer,
``benchmarks/launcher.py``, which wraps functions of the package by name;
a traced run must succeed, write its spans and print the same document.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bayesteach import cli

GOLDEN = Path(__file__).with_name("golden")
ROOT = Path(__file__).resolve().parents[1]

CASES = {
    "plda-examples-mh": [
        "explain", "plda-examples", "--model", "plda.json", "--data", "blobs.csv",
        "--per-class-k", "2", "--strategy", "mh-sample",
        "--mh-steps", "3000", "--mh-burn-in", "100", "--seed", "7",
    ],
    # the README's recombine command
    "recombine-plda-mh": [
        "explain", "recombine", "--theta", "latent-class-means", "--x-kind", "example-set",
        "--learner", "plda", "--strategy", "mh-sample", "--model", "plda.json",
        "--data", "blobs.csv", "--param", "per_class_k=1", "--seed", "3",
    ],
    "recombine-nearest-mh": [
        "explain", "recombine", "--theta", "predicted-label", "--x-kind", "example-set",
        "--learner", "nearest-class", "--strategy", "mh-sample", "--model", "plda.json",
        "--data", "blobs.csv", "--point", "point.csv",
        "--param", "per_class_k=2", "--param", "n=800", "--param", "burn_in=50", "--seed", "0",
    ],
    "recombine-mask-mh": [
        "explain", "recombine", "--theta", "predicted-label", "--x-kind", "feature-mask",
        "--learner", "masked-prediction", "--strategy", "mh-sample", "--model", "logistic.json",
        "--data", "blobs.csv", "--point", "point.csv",
        "--param", "n=400", "--param", "burn_in=20", "--seed", "2",
    ],
    "study-strategy-mismatch": ["study", "run", "--config", "mismatch.json", "--seed", "0"],
}


def _recombine(theta, x_kind, learner, strategy, model, *extra):
    return ["explain", "recombine", "--theta", theta, "--x-kind", x_kind, "--learner", learner,
            "--strategy", strategy, "--model", model, "--data", "blobs.csv", *extra]


_POINT = ("--point", "point.csv")

# one run per registry combination the Metropolis cases leave out
RECIPE_CASES = {
    "recombine-plda-max": _recombine(
        "latent-class-means", "example-set", "plda", "exhaustive-max", "plda.json",
        "--param", "per_class_k=1", "--seed", "0"),
    "recombine-nearest-max": _recombine(
        "predicted-label", "example-set", "nearest-class", "exhaustive-max", "plda.json",
        *_POINT, "--param", "per_class_k=2", "--param", "temperature=0.5", "--seed", "0"),
    "recombine-nearest-greedy": _recombine(
        "predicted-label", "example-set", "nearest-class", "greedy", "plda.json",
        *_POINT, "--param", "per_class_k=2", "--param", "target_class=1", "--seed", "0"),
    "recombine-mask-max": _recombine(
        "predicted-label", "feature-mask", "masked-prediction", "exhaustive-max", "logistic.json",
        *_POINT, "--param", "baseline=0.0", "--seed", "0"),
    "recombine-mask-mc": _recombine(
        "predicted-label", "feature-mask", "masked-prediction", "mc-expectation", "logistic.json",
        *_POINT, "--param", "n=200", "--param", "keep_prob=0.6", "--seed", "4"),
    "recombine-mmd-max": _recombine(
        "class-data-distribution", "example-set", "mmd", "exhaustive-max", "plda.json",
        "--param", "class_index=1", "--param", "m=2", "--seed", "0"),
    "recombine-mmd-greedy": _recombine(
        "class-data-distribution", "example-set", "mmd", "greedy", "plda.json",
        "--param", "m=3", "--param", "bandwidth=1.5", "--seed", "0"),
    "recombine-mmd-mh": _recombine(
        "class-data-distribution", "example-set", "mmd", "mh-sample", "plda.json",
        "--param", "temperature=0.5", "--seed", "5"),
    "recombine-surrogate-distribution-tree": _recombine(
        "predictive-distribution", "soft-tree", "surrogate-fit", "gradient-fit", "logistic.json",
        "--param", "depth=2", "--param", "epochs=30", "--seed", "1"),
    "recombine-surrogate-boundary-linear": _recombine(
        "local-decision-boundary", "linear-weights", "surrogate-fit", "gradient-fit",
        "logistic.json", *_POINT, "--param", "probe_count=200", "--param", "kernel_width=0.8",
        "--seed", "1"),
    "recombine-surrogate-boundary-tree": _recombine(
        "local-decision-boundary", "soft-tree", "surrogate-fit", "gradient-fit", "logistic.json",
        *_POINT, "--param", "depth=2", "--param", "epochs=30", "--param", "probe_count=200",
        "--seed", "1"),
}

# the README's example selection, joint and class by class, its
# example-selection study with fewer trials and random subsets, and its
# attribution, surrogate and prototype commands
README_CASES = {
    "plda-examples-max": [
        "explain", "plda-examples", "--model", "plda.json", "--data", "blobs.csv",
        "--per-class-k", "2", "--seed", "0",
    ],
    "plda-examples-independent": [
        "explain", "plda-examples", "--model", "plda.json", "--data", "blobs.csv",
        "--per-class-k", "2", "--independent", "--seed", "0",
    ],
    "study-example-selection": ["study", "run", "--config", "selection.json", "--seed", "0"],
    # the README's saliency, Shapley, LIME, soft-tree and MMD-critic commands
    "explain-rise": [
        "explain", "rise", "--model", "logistic.json", "--point", "point.csv",
        "--masks", "4000", "--seed", "0", "--render", "pgm", "--render-out", "saliency.pgm",
    ],
    "explain-shap-exact": [
        "explain", "shap", "--model", "logistic.json", "--point", "point.csv",
        "--background", "blobs.csv", "--class", "1", "--exact",
    ],
    "explain-lime": [
        "explain", "lime", "--model", "logistic.json", "--point", "point.csv",
        "--class", "1", "--seed", "0",
    ],
    "explain-tree-distill": [
        "explain", "tree-distill", "--model", "logistic.json", "--data", "blobs.csv",
        "--seed", "0", "--render", "svg", "--render-out", "tree.svg",
    ],
    "explain-mmd-critic": [
        "explain", "mmd-critic", "--data", "blobs.csv", "--prototypes", "3", "--criticisms", "2",
    ],
}

# a combination the compatibility table admits but the recipe rejects
REJECTED_CASES = {
    "recombine-surrogate-distribution-linear": _recombine(
        "predictive-distribution", "linear-weights", "surrogate-fit", "gradient-fit",
        "logistic.json", "--seed", "0"),
}


@pytest.fixture(scope="module")
def readme_ws(tmp_path_factory):
    """The README's dataset and checkpoints, named as the README names them."""
    root = tmp_path_factory.mktemp("golden_ws")
    scratch = str(root / "setup.json")
    for argv in (
        ["dataset", "make", "--generator", "gaussian-blobs", "--classes", "3", "--dim", "2",
         "--per-class", "8", "--separation", "5.0", "--seed", "11", "--csv", "blobs.csv"],
        ["model", "fit", "--data", "blobs.csv", "--family", "plda", "--seed", "0",
         "--save", "plda.json"],
        ["model", "fit", "--data", "blobs.csv", "--family", "logistic", "--seed", "0",
         "--save", "logistic.json"],
    ):
        argv = [a if a.startswith("-") or not a.endswith((".csv", ".json")) else str(root / a)
                for a in argv]
        assert cli.main(argv + ["--out", scratch]) == 0
    (root / "point.csv").write_text("f0,f1\n0.3,-0.2\n", encoding="utf-8")
    config = {
        "study": "strategy-mismatch",
        "model": "plda.json",
        "data": "blobs.csv",
        "params": {"per_class_k": 2, "n": 300, "burn_in": 50},
    }
    (root / "mismatch.json").write_text(json.dumps(config), encoding="utf-8")
    config = {
        "study": "example-selection",
        "model": "plda.json",
        "data": "blobs.csv",
        "params": {"trials": 200, "random_subset_count": 100},
    }
    (root / "selection.json").write_text(json.dumps(config), encoding="utf-8")
    return root


def _run(argv, workspace, capsys, monkeypatch):
    monkeypatch.chdir(workspace)
    rc = cli.main(argv)
    return rc, capsys.readouterr()


@pytest.mark.parametrize("name", sorted(CASES))
def test_mh_output_matches_the_stored_document(name, readme_ws, capsys, monkeypatch):
    rc, captured = _run(CASES[name], readme_ws, capsys, monkeypatch)
    assert rc == 0, captured.err
    assert captured.out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(RECIPE_CASES))
def test_recipe_output_matches_the_stored_document(name, readme_ws, capsys, monkeypatch):
    rc, captured = _run(RECIPE_CASES[name], readme_ws, capsys, monkeypatch)
    assert rc == 0, captured.err
    assert captured.out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(README_CASES))
def test_readme_output_matches_the_stored_document(name, readme_ws, capsys, monkeypatch):
    rc, captured = _run(README_CASES[name], readme_ws, capsys, monkeypatch)
    assert rc == 0, captured.err
    assert captured.out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(REJECTED_CASES))
def test_rejected_recipe_error_matches_the_stored_document(name, readme_ws, capsys, monkeypatch):
    rc, captured = _run(REJECTED_CASES[name], readme_ws, capsys, monkeypatch)
    assert rc == 3
    assert captured.out == ""
    assert captured.err == (GOLDEN / f"{name}.err.json").read_text(encoding="utf-8")


def test_every_golden_file_is_the_document_of_exactly_one_case():
    stored = [f"{name}.json" for cases in (CASES, RECIPE_CASES, README_CASES) for name in cases]
    stored += [f"{name}.err.json" for name in REJECTED_CASES]
    assert len(stored) == len(set(stored)), "two cases share a stored document"
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(stored)


@pytest.mark.parametrize("name", ["recombine-nearest-mh", "plda-examples-max"])
def test_traced_run_matches_the_stored_document(name, readme_ws, tmp_path):
    spans = tmp_path / "spans.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "launcher.py"), str(spans), "--",
         *{**CASES, **README_CASES}[name]],
        cwd=readme_ws, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    recorded = json.loads(spans.read_text(encoding="utf-8"))
    assert {"cli.import", "cli.main"} <= {span[1] for span in recorded["spans"]}
    assert any(call[1] == "learners.log_likelihood" for call in recorded["calls"])
