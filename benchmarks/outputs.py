"""Output checks. Every invocation the benchmark makes is checked here,
and an invocation that exits unexpectedly or fails a check counts as
failed.

Three kinds of check:
  - every document validates against its schema in src/bayesteach/schemas;
  - invariants that hold for any seed (valid subsets, log-likelihoods that
    match a recomputation, exhaustive argmax equal to the per-class
    assembly and unchanged by reversing the row order, RISE equal to
    mc-expectation within their standard errors, exact SHAP efficiency);
  - at the default seed and full size, values stored in expected.json,
    derived once by ``derive_expected`` from the brute-force oracles.
"""

from __future__ import annotations

import json
import math
import os
from functools import lru_cache

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
SCHEMA_DIR = os.path.join(os.path.dirname(HERE), "src", "bayesteach", "schemas")

# Floats compared with expected.json, and log-likelihoods compared with the
# harness's recomputation, must agree to this relative tolerance. Indices
# must match exactly.
REL_TOL = 1e-9
SHAP_EFFICIENCY_TOL = 1e-9
# RISE and mc-expectation estimate the same saliency; they must agree
# within this many combined standard errors, coordinate by coordinate.
SALIENCY_SIGMAS = 3.0


@lru_cache(maxsize=None)
def _validator(name: str):
    from jsonschema import Draft202012Validator

    with open(os.path.join(SCHEMA_DIR, f"{name}.schema.json"), encoding="utf-8") as fh:
        return Draft202012Validator(json.load(fh))


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _result(doc: dict) -> dict:
    result = doc["result"]
    # recombine nests the method's own result one level down
    return result["result"] if doc.get("method") == "recombine" else result


def summary(doc: dict) -> dict:
    """The fields of an example-selection document compared across runs."""
    result = _result(doc)
    out = {"indices": list(result["indices"])}
    prob = doc.get("diagnostics", {}).get("posterior_probability")
    if prob is None:
        prob = result.get("metadata", {}).get("posterior_probability")
    if prob is not None:
        out["posterior_probability"] = prob
    if "log_likelihood" in result:
        out["log_likelihood"] = result["log_likelihood"]
    return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


class Checker:
    """Checks the documents of one run; loads fixtures lazily and once."""

    def __init__(self, workdir: str, expected: dict | None):
        self.workdir = workdir
        self.expected = expected or {}
        self._fixtures: dict[str, object] = {}

    def _fixture(self, kind: str, name: str):
        key = f"{kind}:{name}"
        if key not in self._fixtures:
            from bayesteach.models import load_csv, load_model

            path = os.path.join(self.workdir, name)
            self._fixtures[key] = load_csv(path, "label") if kind == "data" else load_model(path)
        return self._fixtures[key]

    def check(self, cmd, exit_code: int, doc: dict | None, docs: dict) -> list[str]:
        """Problems with one invocation; ``docs`` holds the documents of the
        same pass (and of the last pass, for reference commands)."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        if doc is None:
            return ["no readable document written"]
        problems = [
            f"schema: {err.message}"
            for err in _validator(cmd.argv[0]).iter_errors(doc)
        ]
        if problems:
            return problems
        if cmd.per_class_k is not None:
            problems += self._check_subset(cmd, doc)
        if cmd.reference_for is not None:
            timed = docs.get(cmd.reference_for)
            if timed is None or summary(timed)["indices"] != summary(doc)["indices"]:
                problems.append(f"argmax differs from the --independent assembly ({cmd.name})")
        if cmd.reversed_of is not None:
            original = docs.get(cmd.reversed_of)
            if original is None or self._unreversed(cmd, doc) != summary(original)["indices"]:
                problems.append(f"argmax differs from that of {cmd.reversed_of} on the same rows")
        if cmd.name in self.expected:
            problems += self._check_expected(self.expected[cmd.name], summary(doc))
        if cmd.name.startswith("shap"):
            gap = abs(doc["diagnostics"]["efficiency_gap"])
            if not gap <= SHAP_EFFICIENCY_TOL:
                problems.append(f"shap efficiency gap {gap:.3e} > {SHAP_EFFICIENCY_TOL:g}")
        if cmd.name == "rise-grid" and "mc-expectation" in docs:
            problems += _check_saliency_pair(doc, docs["mc-expectation"])
        return problems

    def _check_subset(self, cmd, doc: dict) -> list[str]:
        data = self._fixture("data", cmd.data)
        indices = summary(doc)["indices"]
        if any(not isinstance(i, int) or not 0 <= i < data.n_rows for i in indices):
            return [f"indices out of range: {indices}"]
        counts = np.bincount(data.labels[indices], minlength=data.class_count)
        if len(set(indices)) != len(indices) or np.any(counts != cmd.per_class_k):
            return [f"not {cmd.per_class_k} distinct rows per class: {indices}"]
        if cmd.model is None:
            return []
        from bayesteach.models import plda_posterior_over_means

        reported = summary(doc).get("log_likelihood")
        recomputed = plda_posterior_over_means(self._fixture("model", cmd.model), data, indices)
        if reported is None or not _close(reported, recomputed):
            return [f"log-likelihood {reported} != recomputed {recomputed}"]
        return []

    def _unreversed(self, cmd, doc: dict) -> list[int]:
        """A row-reversed twin's indices as rows of its original dataset."""
        data = self._fixture("data", cmd.data)
        order = np.concatenate([data.class_rows(c)[::-1] for c in range(data.class_count)])
        return sorted(int(order[i]) for i in summary(doc)["indices"])

    @staticmethod
    def _check_expected(want: dict, got: dict) -> list[str]:
        problems = []
        for key, value in want.items():
            if key not in got:
                problems.append(f"{key} missing")
            elif key == "indices":
                if got[key] != value:
                    problems.append(f"indices {got[key]} != expected {value}")
            elif not _close(got[key], value):
                problems.append(f"{key} {got[key]!r} != expected {value!r}")
        return problems


def _check_saliency_pair(rise_doc: dict, mc_doc: dict) -> list[str]:
    rise, mc = rise_doc["result"], _result(mc_doc)
    diff = np.abs(np.array(rise["values"]) - np.array(mc["values"]))
    sigma = np.hypot(np.array(rise["stderr"]), np.array(mc["stderr"]))
    if np.all(diff <= SALIENCY_SIGMAS * sigma):
        return []
    worst = int(np.argmax(diff - SALIENCY_SIGMAS * sigma))
    return [f"rise and mc-expectation disagree at feature {worst}: "
            f"|diff| {diff[worst]:.3e} > {SALIENCY_SIGMAS:g} x stderr {sigma[worst]:.3e}"]


def derive_expected(workdir: str) -> dict:
    """Default-seed reference outputs from the brute-force oracles, for
    fixtures written by ``workloads.make_fixtures`` into ``workdir``."""
    from bayesteach import oracle
    from bayesteach.learners import make_nearest_class_learner, make_plda_learner
    from bayesteach.models import load_csv, load_model, plda_posterior_over_means, predict_proba
    from bayesteach.spaces import SubsetSpace
    from bayesteach.types import TargetInference, ThetaKind

    def argmax_of(learner, theta, space) -> tuple[list[int], float]:
        support, probs = oracle.exhaustive_posterior(learner, theta, space)
        best = int(np.argmax(probs))
        return list(support[best].payload), float(probs[best])

    def load(tag: str):
        data = load_csv(os.path.join(workdir, f"blobs-{tag}.csv"), "label")
        return data, load_model(os.path.join(workdir, f"plda-{tag}.json"))

    out = {}
    for name, tag in (("plda-exhaustive", "big"), ("plda-examples", "readme")):
        data, model = load(tag)
        theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, model.parameters["latent_means"])
        indices, prob = argmax_of(
            make_plda_learner(model, data), theta, SubsetSpace.per_class(data.labels, 2)
        )
        out[name] = {
            "indices": indices,
            "posterior_probability": prob,
            "log_likelihood": plda_posterior_over_means(model, data, indices),
        }

    data, model = load("readme")
    with open(os.path.join(workdir, "point.csv"), encoding="utf-8") as fh:
        point = np.array([float(v) for v in fh.read().splitlines()[1].split(",")])
    label = int(np.argmax(predict_proba(model, point[None, :])[0]))
    indices, prob = argmax_of(
        make_nearest_class_learner(data, point),
        TargetInference(ThetaKind.PREDICTED_LABEL, label),
        SubsetSpace.per_class(data.labels, 2),
    )
    out["nearest-exhaustive"] = {"indices": indices, "posterior_probability": prob}
    return out
