"""Compatibility rules and end-to-end runs of recombined methods."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from bayesteach.errors import BadSpec, IncompatibleCombination, StrategySpaceMismatch
from bayesteach.learners import make_nearest_class_learner
from bayesteach.models import fit_model, jsonable, make_synthetic, predict_proba
from bayesteach.recombine import (
    LEARNER_REGISTRY,
    RecombinedExplainer,
    check_compatibility,
    recombine,
)
from bayesteach.studies import PopulationMember, SimulatedStudy, simulate_2afc
from bayesteach.types import ExplanationKind, TargetInference, ThetaKind, example_set

TK, XK = ThetaKind, ExplanationKind


# ---------------------------------------------------------------------------
# the compatibility matrix


def test_named_soft_tree_recombination_is_valid():
    method = recombine(TK.LOCAL_DECISION_BOUNDARY, XK.SOFT_TREE, "surrogate-fit", "gradient-fit")
    assert isinstance(method, RecombinedExplainer)
    desc = jsonable(method)
    assert desc["theta_kind"] == "local-decision-boundary"
    assert desc["explanation_kind"] == "soft-tree"


def test_parameter_level_target_requires_matching_parametric_form():
    with pytest.raises(IncompatibleCombination):
        recombine(TK.LATENT_CLASS_MEANS, XK.FEATURE_MASK, "plda", "exhaustive-max")
    with pytest.raises(IncompatibleCombination):
        recombine(TK.LATENT_CLASS_MEANS, XK.EXAMPLE_SET, "nearest-class", "exhaustive-max")
    # the matching form with example sets is the one allowed pairing
    recombine(TK.LATENT_CLASS_MEANS, XK.EXAMPLE_SET, "plda", "exhaustive-max")


def test_learner_theta_and_explanation_ranges_enforced():
    with pytest.raises(IncompatibleCombination):
        check_compatibility(TK.PREDICTED_LABEL, XK.EXAMPLE_SET, "mmd")
    with pytest.raises(IncompatibleCombination):
        check_compatibility(TK.PREDICTED_LABEL, XK.FEATURE_MASK, "nearest-class")
    with pytest.raises(BadSpec):
        check_compatibility(TK.PREDICTED_LABEL, XK.EXAMPLE_SET, "oracle")


def test_strategy_space_rules():
    with pytest.raises(StrategySpaceMismatch):
        recombine(TK.LATENT_CLASS_MEANS, XK.EXAMPLE_SET, "plda", "greedy")
    with pytest.raises(StrategySpaceMismatch):
        recombine(TK.PREDICTED_LABEL, XK.FEATURE_MASK, "masked-prediction", "greedy")
    with pytest.raises(StrategySpaceMismatch):
        recombine(TK.PREDICTED_LABEL, XK.EXAMPLE_SET, "nearest-class", "mc-expectation")
    with pytest.raises(StrategySpaceMismatch):
        recombine(TK.LOCAL_DECISION_BOUNDARY, XK.SOFT_TREE, "surrogate-fit", "exhaustive-max")
    with pytest.raises(BadSpec):
        recombine(TK.PREDICTED_LABEL, XK.EXAMPLE_SET, "nearest-class", "anneal")


def test_greedy_allowed_for_partial_subset_learners():
    assert LEARNER_REGISTRY["plda"].partial_subsets is False
    assert LEARNER_REGISTRY["nearest-class"].partial_subsets is True
    recombine(TK.PREDICTED_LABEL, XK.EXAMPLE_SET, "nearest-class", "greedy")


def test_every_registered_learner_has_a_valid_combination():
    combos = {
        "plda": (TK.LATENT_CLASS_MEANS, XK.EXAMPLE_SET, "exhaustive-max"),
        "masked-prediction": (TK.PREDICTED_LABEL, XK.FEATURE_MASK, "mh-sample"),
        "nearest-class": (TK.PREDICTED_LABEL, XK.EXAMPLE_SET, "exhaustive-max"),
        "mmd": (TK.CLASS_DATA_DISTRIBUTION, XK.EXAMPLE_SET, "exhaustive-max"),
        "surrogate-fit": (TK.PREDICTIVE_DISTRIBUTION, XK.SOFT_TREE, "gradient-fit"),
    }
    assert set(combos) == set(LEARNER_REGISTRY)
    for learner_id, (tk, xk, strategy) in combos.items():
        recombine(tk, xk, learner_id, strategy)


# ---------------------------------------------------------------------------
# end-to-end runs


def recombine_data():
    return make_synthetic(
        {"generator": "gaussian-blobs", "classes": 2, "dim": 2, "per_class": 8,
         "separation": 4.0},
        seed=7,
    )


def test_plda_recombination_matches_direct_method():
    from bayesteach.explainers import explain_by_examples

    data = recombine_data()
    model = fit_model("plda", data, seed=0)
    method = recombine(TK.LATENT_CLASS_MEANS, XK.EXAMPLE_SET, "plda", "exhaustive-max",
                       {"per_class_k": 2})
    out = method.run(model, data, seed=0)
    direct = explain_by_examples(model, data, per_class_k=2)
    assert tuple(out["result"]["indices"]) == direct.indices
    assert out["combination"]["learner_id"] == "plda"


def test_masked_prediction_recombination_runs_by_sampling(logistic_grid, grid_image):
    method = recombine(TK.PREDICTED_LABEL, XK.FEATURE_MASK, "masked-prediction",
                       "mh-sample", {"n": 300, "burn_in": 50})
    out = method.run(logistic_grid, grid_image, point=grid_image.features[0], seed=1)
    mask = out["result"]["mask"]
    assert len(mask) == grid_image.n_features
    assert set(mask) <= {0, 1}
    again = method.run(logistic_grid, grid_image, point=grid_image.features[0], seed=1)
    assert again["result"]["mask"] == mask


def test_mmd_recombination_selects_spread_rows():
    data = recombine_data()
    model = fit_model("gaussian", data, seed=0)
    method = recombine(TK.CLASS_DATA_DISTRIBUTION, XK.EXAMPLE_SET, "mmd",
                       "exhaustive-max", {"class_index": 0, "m": 2})
    out = method.run(model, data, seed=0)
    indices = out["result"]["indices"]
    assert len(indices) == 2
    assert all(data.labels[i] == 0 for i in indices)


def test_surrogate_recombinations_produce_fit_reports(moons):
    model = fit_model("logistic", moons, seed=0)
    tree = recombine(TK.PREDICTIVE_DISTRIBUTION, XK.SOFT_TREE, "surrogate-fit",
                     "gradient-fit", {"depth": 2, "epochs": 120})
    out = tree.run(model, moons, seed=0)
    assert out["result"]["final_kl"] >= 0
    assert out["result"]["tree"]["depth"] == 2

    lime = recombine(TK.LOCAL_DECISION_BOUNDARY, XK.LINEAR_WEIGHTS, "surrogate-fit",
                     "gradient-fit", {"probe_count": 400})
    out = lime.run(model, moons, point=np.array([0.5, 0.25]), seed=0)
    assert len(out["result"]["weights"]) == 2

    boundary_tree = recombine(TK.LOCAL_DECISION_BOUNDARY, XK.SOFT_TREE, "surrogate-fit",
                              "gradient-fit", {"depth": 2, "epochs": 120,
                                               "probe_count": 300})
    out = boundary_tree.run(model, moons, point=np.array([0.5, 0.25]), seed=0)
    assert out["result"]["boundary_fit_loss"] >= 0


def test_point_required_where_locality_matters(moons):
    model = fit_model("logistic", moons, seed=0)
    method = recombine(TK.PREDICTED_LABEL, XK.EXAMPLE_SET, "nearest-class",
                       "exhaustive-max")
    with pytest.raises(BadSpec):
        method.run(model, moons, seed=0)


def test_novel_nearest_class_method_beats_random_examples():
    # teacher-chosen examples must outteach random ones in a simulated
    # two-alternative forced choice at an ambiguous probe point
    data = recombine_data()
    model = fit_model("gaussian", data, seed=0)
    means = np.asarray(data.metadata["means"])
    point = means.mean(axis=0) - 0.2 * (means[1] - means[0])
    predicted = int(np.argmax(predict_proba(model, point[None, :])[0]))

    method = recombine(TK.PREDICTED_LABEL, XK.EXAMPLE_SET, "nearest-class",
                       "exhaustive-max")
    out = method.run(model, data, point=point, seed=0)
    selected = tuple(out["result"]["indices"])

    learner = make_nearest_class_learner(data, point)
    member = PopulationMember(learner, 1.0, None)
    candidates = (
        TargetInference(TK.PREDICTED_LABEL, 0),
        TargetInference(TK.PREDICTED_LABEL, 1),
    )

    def accuracy(shown):
        study = SimulatedStudy((member,), candidates, ((predicted, 50),) * len(shown))
        log_liks = [[learner.log_likelihood(c, x) for c in candidates] for x in shown]
        return simulate_2afc(study, [log_liks], seed=0).overall_accuracy

    teacher_acc = accuracy([example_set(selected)])
    rng = np.random.default_rng(1)
    pools = [np.flatnonzero(data.labels == c) for c in range(2)]
    random_acc = accuracy([
        example_set(tuple(sorted(int(rng.choice(pool)) for pool in pools))) for _ in range(200)
    ])
    assert teacher_acc >= random_acc + 0.2


# ---------------------------------------------------------------------------
# declared params


# every combination each learner's recipe runs
RECIPE_RUNS = {
    "plda": [(TK.LATENT_CLASS_MEANS, XK.EXAMPLE_SET, s) for s in ("exhaustive-max", "mh-sample")],
    "masked-prediction": [(TK.PREDICTED_LABEL, XK.FEATURE_MASK, s)
                          for s in ("exhaustive-max", "mh-sample", "mc-expectation")],
    "nearest-class": [(TK.PREDICTED_LABEL, XK.EXAMPLE_SET, s)
                      for s in ("exhaustive-max", "greedy", "mh-sample")],
    "mmd": [(TK.CLASS_DATA_DISTRIBUTION, XK.EXAMPLE_SET, s)
            for s in ("exhaustive-max", "greedy", "mh-sample")],
    "surrogate-fit": [
        (TK.PREDICTIVE_DISTRIBUTION, XK.SOFT_TREE, "gradient-fit"),
        (TK.LOCAL_DECISION_BOUNDARY, XK.LINEAR_WEIGHTS, "gradient-fit"),
        (TK.LOCAL_DECISION_BOUNDARY, XK.SOFT_TREE, "gradient-fit"),
    ],
}

PARAM_VALUES = {
    "per_class_k": 1, "n": 30, "burn_in": 5, "baseline": 0.0, "target_class": 1,
    "keep_prob": 0.5, "temperature": 1.0, "class_index": 0, "bandwidth": 1.0, "m": 2,
    "depth": 2, "beta": 0.0, "epochs": 5, "learning_rate": 0.05, "kernel_width": 1.0,
    "probe_count": 50, "ridge": 1e-3,
}


class _LookupLog(dict):
    """Recipe params that record every key a recipe asks for."""

    def __init__(self, values):
        super().__init__(values)
        self.asked = set()

    def __contains__(self, key):
        self.asked.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.asked.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("learner_id", sorted(LEARNER_REGISTRY))
def test_recipe_reads_exactly_the_params_it_declares(learner_id):
    assert set(RECIPE_RUNS) == set(LEARNER_REGISTRY)
    data = recombine_data()
    model = fit_model("plda" if learner_id == "plda" else "logistic", data, seed=0)
    declared = set(LEARNER_REGISTRY[learner_id].params)
    asked = set()
    for tk, xk, strategy in RECIPE_RUNS[learner_id]:
        params = {key: PARAM_VALUES[key] for key in declared}
        method = recombine(tk, xk, learner_id, strategy, params)
        logged = _LookupLog(params)
        out = dataclasses.replace(method, params=logged).run(
            model, data, point=data.features[0], seed=0)
        assert out["combination"]["params"] == params
        asked |= logged.asked
    assert asked == declared


def test_readme_lists_the_param_keys_of_each_learner():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", readme, flags=re.M))
    listed = {learner: set(re.findall(r"`(\w+)`", rows.get(learner, ""))) for learner in LEARNER_REGISTRY}
    assert listed == {learner: set(spec.params) for learner, spec in LEARNER_REGISTRY.items()}
