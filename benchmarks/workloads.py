"""Workload definitions: fixtures made from the workload seed, and the
CLI invocations each workload times.

A workload is a list of commands, each one `bayesteach` invocation run
in its own interpreter with the fixture directory as working directory,
so every path below is relative to it. The README walkthrough fixtures
use the README's flags; the workload seed replaces the README's dataset
seed of 11, which is the default.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 11

# "full" is what the timed and traced runs use. "smoke" keeps every
# command and every code path but shrinks the spaces and sample counts so
# a whole workload finishes in seconds; its outputs are checked for
# invariants only, never against stored values.
SIZES = {
    "full": {
        "exhaustive_per_class": 12,  # C(12,2)^3 = 287,496 candidates
        "readme_per_class": 8,  # C(8,2)^3 = 21,952 candidates, the README's space
        "plda_mh_steps": 100_000,
        "nearest_mh_steps": 20_000,
        "masks": 50_000,
        "study_trials": 2000,
        "random_subsets": 1000,
        "mismatch_n": 2000,
        "distill_epochs": 800,
    },
    "smoke": {
        "exhaustive_per_class": 5,
        "readme_per_class": 4,
        "plda_mh_steps": 2000,
        "nearest_mh_steps": 500,
        "masks": 500,
        "study_trials": 100,
        "random_subsets": 50,
        "mismatch_n": 200,
        "distill_epochs": 50,
    },
}

WORKLOADS = ("plda-exhaustive", "cli-walkthrough", "generic-search")

# The share of --seconds one pass of each workload is given: a run makes
# --seconds // PASS_SECONDS passes, at least one. A full-size pass takes
# about 22 s, 18 s and 17 s on a 2-CPU x86-64 virtual machine, so at 30
# seconds the walkthrough runs twice, giving its latency tail 26 samples.
PASS_SECONDS = {"plda-exhaustive": 30, "cli-walkthrough": 15, "generic-search": 30}

# plda-exhaustive sweeps four datasets per pass: the seed's own ("big"),
# one more drawn from the seed ("big-1"), and each of them with its rows
# listed in reverse order within every class ("-r"). A sweep's cost
# grows with the argmax's position in enumeration order, because
# explain_by_examples searches the support for it linearly (seconds at
# the far end of the space), and reversing the rows moves an early argmax
# late and a late one early. The pairs keep that cost, on average, in
# every run, while its variation from seed to seed would otherwise swamp
# the run-to-run comparison.
EXHAUSTIVE_TAGS = ("big", "big-r", "big-1", "big-1-r")

GRID_SIDE = 6  # grid-image points have GRID_SIDE**2 = 36 features


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``argv`` excludes the program and ``--out``;
    its first word names the output schema. ``data``, ``model`` and
    ``per_class_k`` describe the example subset its output holds, if any."""

    name: str
    argv: tuple[str, ...]
    data: str | None = None
    model: str | None = None
    per_class_k: int | None = None
    reference_for: str | None = None
    reversed_of: str | None = None


def _blobs_spec(per_class: int) -> dict:
    return {
        "generator": "gaussian-blobs",
        "classes": 3,
        "dim": 2,
        "per_class": per_class,
        "separation": 5.0,
    }


def _reversed_within_classes(data):
    """The same points with each class's rows in reverse order; classes
    keep their order, so the CSV encodes the same labels."""
    import numpy as np
    from bayesteach.models import Dataset

    order = np.concatenate([data.class_rows(c)[::-1] for c in range(data.class_count)])
    return Dataset(data.features[order], data.labels[order], data.class_count,
                   metadata=data.metadata)


def make_fixtures(seed: int, size: str, directory: str) -> None:
    """Write every fixture any workload reads, deterministically.

    Datasets and checkpoints go through bayesteach's own generator, fit
    and save functions, so they are the files the CLI would write.
    """
    from bayesteach.models import fit_model, make_synthetic, save_csv, save_model

    sz = SIZES[size]

    def path(name: str) -> str:
        return os.path.join(directory, name)

    def save_blobs(tag: str, data) -> None:
        save_csv(data, path(f"blobs-{tag}.csv"))
        save_model(fit_model("plda", data, {}, seed=0), path(f"plda-{tag}.json"))

    save_blobs("readme", make_synthetic(_blobs_spec(sz["readme_per_class"]), seed))
    for i, tag in enumerate(EXHAUSTIVE_TAGS[::2]):
        data = make_synthetic(_blobs_spec(sz["exhaustive_per_class"]), seed + (i << 32))
        save_blobs(tag, data)
        save_blobs(tag + "-r", _reversed_within_classes(data))

    grid = make_synthetic(
        {"generator": "grid-image", "classes": 2, "side": GRID_SIDE, "per_class": 30}, seed
    )
    save_csv(grid, path("grid.csv"))
    save_model(fit_model("mlp", grid, {}, seed=0), path("mlp-grid.json"))

    with open(path("point.csv"), "w", encoding="utf-8") as fh:
        fh.write("f0,f1\n0.3,-0.2\n")
    # the last grid row, a class-1 image, is the saliency point
    header = ",".join(f"f{j}" for j in range(GRID_SIDE * GRID_SIDE))
    with open(path("grid-point.csv"), "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + ",".join(repr(float(v)) for v in grid.features[-1]) + "\n")

    studies = {
        "study-selection.json": {
            "study": "example-selection",
            "model": "plda.json",
            "data": "blobs.csv",
            "params": {
                "trials": sz["study_trials"],
                "random_subset_count": sz["random_subsets"],
            },
        },
        "study-mismatch.json": {
            "study": "strategy-mismatch",
            "model": "plda-readme.json",
            "data": "blobs-readme.csv",
            "params": {"per_class_k": 2, "n": sz["mismatch_n"], "burn_in": 200},
        },
    }
    for name, config in studies.items():
        with open(path(name), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")


def commands(workload: str, seed: int, size: str) -> list[Command]:
    """The timed commands of one pass, in the order they run."""
    sz = SIZES[size]
    if workload == "plda-exhaustive":
        return [
            Command(
                "plda-exhaustive" + tag[3:],
                ("explain", "plda-examples", "--model", f"plda-{tag}.json",
                 "--data", f"blobs-{tag}.csv", "--per-class-k", "2"),
                data=f"blobs-{tag}.csv", model=f"plda-{tag}.json", per_class_k=2,
                reversed_of="plda-exhaustive" + tag[3:-2] if tag.endswith("-r") else None,
            )
            for tag in EXHAUSTIVE_TAGS
        ]
    if workload == "cli-walkthrough":
        blobs = _blobs_spec(sz["readme_per_class"])
        return [
            Command(
                "dataset-make",
                ("dataset", "make", "--generator", "gaussian-blobs",
                 "--classes", "3", "--dim", "2", "--per-class", str(blobs["per_class"]),
                 "--separation", "5.0", "--seed", str(seed), "--csv", "blobs.csv"),
            ),
            Command(
                "fit-plda",
                ("model", "fit", "--data", "blobs.csv", "--family", "plda",
                 "--seed", "0", "--save", "plda.json"),
            ),
            Command(
                "fit-logistic",
                ("model", "fit", "--data", "blobs.csv", "--family", "logistic",
                 "--seed", "0", "--save", "logistic.json"),
            ),
            Command(
                "plda-examples",
                ("explain", "plda-examples", "--model", "plda.json",
                 "--data", "blobs.csv", "--per-class-k", "2"),
                data="blobs.csv", model="plda.json", per_class_k=2,
            ),
            Command(
                "rise",
                ("explain", "rise", "--model", "logistic.json", "--point", "point.csv",
                 "--masks", "4000", "--seed", "0", "--render", "pgm",
                 "--render-out", "saliency.pgm"),
            ),
            Command(
                "shap-exact",
                ("explain", "shap", "--model", "logistic.json", "--point", "point.csv",
                 "--background", "blobs.csv", "--class", "1", "--exact"),
            ),
            Command(
                "recombine-plda-mh",
                ("explain", "recombine", "--theta", "latent-class-means",
                 "--x-kind", "example-set", "--learner", "plda", "--strategy", "mh-sample",
                 "--model", "plda.json", "--data", "blobs.csv",
                 "--param", "per_class_k=1", "--seed", "3"),
                data="blobs.csv", model="plda.json", per_class_k=1,
            ),
            Command(
                "study-selection",
                ("study", "run", "--config", "study-selection.json", "--seed", "0"),
            ),
            Command(
                "dataset-import",
                ("dataset", "import", "--in", "blobs.csv"),
            ),
            Command(
                "model-inspect",
                ("model", "inspect", "--model", "plda.json"),
            ),
            Command(
                "mmd-critic",
                ("explain", "mmd-critic", "--data", "blobs.csv",
                 "--prototypes", "3", "--criticisms", "2"),
            ),
            Command(
                "lime",
                ("explain", "lime", "--model", "logistic.json", "--point", "point.csv",
                 "--class", "1", "--seed", "0"),
            ),
            Command(
                "tree-distill",
                ("explain", "tree-distill", "--model", "logistic.json", "--data", "blobs.csv",
                 "--epochs", str(sz["distill_epochs"]), "--seed", "0",
                 "--render", "svg", "--render-out", "tree.svg"),
            ),
        ]
    if workload == "generic-search":
        masks = str(sz["masks"])
        return [
            Command(
                "plda-mh",
                ("explain", "plda-examples", "--model", "plda-big.json",
                 "--data", "blobs-big.csv", "--per-class-k", "2",
                 "--strategy", "mh-sample", "--mh-steps", str(sz["plda_mh_steps"]),
                 "--seed", "0"),
                data="blobs-big.csv", model="plda-big.json", per_class_k=2,
            ),
            Command(
                "nearest-mh",
                ("explain", "recombine", "--theta", "predicted-label",
                 "--x-kind", "example-set", "--learner", "nearest-class",
                 "--strategy", "mh-sample", "--model", "plda-big.json",
                 "--data", "blobs-big.csv", "--point", "point.csv",
                 "--param", "per_class_k=2", "--param", f"n={sz['nearest_mh_steps']}",
                 "--seed", "0"),
                data="blobs-big.csv", per_class_k=2,
            ),
            Command(
                "nearest-exhaustive",
                ("explain", "recombine", "--theta", "predicted-label",
                 "--x-kind", "example-set", "--learner", "nearest-class",
                 "--strategy", "exhaustive-max", "--model", "plda-readme.json",
                 "--data", "blobs-readme.csv", "--point", "point.csv",
                 "--param", "per_class_k=2", "--seed", "0"),
                data="blobs-readme.csv", per_class_k=2,
            ),
            Command(
                "mc-expectation",
                ("explain", "recombine", "--theta", "predicted-label",
                 "--x-kind", "feature-mask", "--learner", "masked-prediction",
                 "--strategy", "mc-expectation", "--model", "mlp-grid.json",
                 "--data", "grid.csv", "--point", "grid-point.csv",
                 "--param", f"n={masks}", "--param", "baseline=0.0", "--seed", "0"),
            ),
            Command(
                "rise-grid",
                ("explain", "rise", "--model", "mlp-grid.json", "--point", "grid-point.csv",
                 "--masks", masks, "--seed", "0"),
            ),
            Command(
                "study-mismatch",
                ("study", "run", "--config", "study-mismatch.json", "--seed", "0"),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def reference_commands(workload: str, seed: int, size: str) -> list[Command]:
    """Untimed invocations whose outputs the timed ones are checked against:
    the per-class ``--independent`` assembly of each exhaustive argmax. A
    row-reversed twin is checked against its original instead."""
    refs = []
    for cmd in commands(workload, seed, size):
        if (cmd.argv[:2] == ("explain", "plda-examples") and "mh-sample" not in cmd.argv
                and cmd.reversed_of is None):
            refs.append(Command(
                cmd.name + "-independent", cmd.argv + ("--independent",),
                data=cmd.data, model=cmd.model, per_class_k=cmd.per_class_k,
                reference_for=cmd.name,
            ))
    return refs


def warmup_command() -> Command:
    """A cheap invocation that imports the whole CLI, so __pycache__ and
    the page cache are warm before the first timed pass."""
    return Command("warmup", ("model", "inspect", "--model", "plda-readme.json"))
