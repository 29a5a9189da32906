"""Stored CLI output of small seeded Metropolis runs.

Each case runs one command in a fresh workspace built from the README's
dataset and checkpoints, and compares stdout with the document stored
under ``tests/golden``, byte for byte. The chains must not change their
samples, modes or study floats when the sampler is rewritten; regenerate
a golden file only for a deliberate change of output.
"""

import json
from pathlib import Path

import pytest

from bayesteach import cli

GOLDEN = Path(__file__).with_name("golden")

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
    return root


@pytest.mark.parametrize("name", sorted(CASES))
def test_mh_output_matches_the_stored_document(name, readme_ws, capsys, monkeypatch):
    monkeypatch.chdir(readme_ws)
    rc = cli.main(CASES[name])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
