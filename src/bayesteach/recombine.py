"""Recombination: build new explanation methods from validated parts.

Compatibility encodes exactly two rules. A parameter-level inference
target can only be taught through the learner that shares its parametric
form, the one whose ``theta_kinds`` hold it (latent class means need the
PLDA-shaped learner fitting example sets). Generalization-level targets,
which describe input-output behaviour, pair with any explanation kind a
learner can consume.
A third, mechanical check rejects strategies that cannot operate on the
chosen explanation kind at all.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import field

import numpy as np

from . import teacher
from .errors import BadSpec, IncompatibleCombination, StrategySpaceMismatch
from .explainers import distill_tree, explain_by_examples, lime_local, local_probes
from .learners import (
    KernelConfig,
    class_column,
    make_masked_prediction_learner,
    make_mmd_learner,
    make_nearest_class_learner,
    predicted_label,
)
from .models import Dataset, TargetModel, batch_predictor, jsonable, param_value
from .spaces import MaskSpace, SubsetSpace
from .types import ExplanationKind, TargetInference, ThetaKind, record


@record
class LearnerSpec:
    """A learner of the recombination table: the kinds it scores, its recipe
    ``(method, model, data, point, seed) -> result document`` and the
    kind (``models.param_value``) of each ``--param`` key the recipe reads,
    left out of the comparison and hash. Recipes call the explainers and
    ``teacher.run_strategy`` by module-level name at call time, so a
    wrapper installed on one of those names takes effect."""

    theta_kinds: frozenset
    explanation_kinds: frozenset
    recipe: Callable[..., dict]
    params: dict = field(compare=False)
    # greedy grows subsets one row at a time, so it needs a learner that
    # can score class-incomplete example sets
    partial_subsets: bool = True


def _plda_recipe(method, model, data, point, seed) -> dict:
    p = method.params
    report = explain_by_examples(
        model, data, per_class_k=p.get("per_class_k", 2), strategy=method.strategy,
        seed=seed, mh_steps=p.get("n", 20000), mh_burn_in=p.get("burn_in", 2000),
    )
    return jsonable(report)


def _masked_prediction_recipe(method, model, data, point, seed) -> dict:
    p = method.params
    point = _point(point, "masked-prediction combinations")
    if "baseline" in p and np.shape(p["baseline"]) not in ((), point.shape):
        raise BadSpec(f"--param baseline={p['baseline']!r} is not usable: expected one number "
                      f"or {point.size} numbers, one per feature")
    theta = _label_target(model, point, p)
    learner = make_masked_prediction_learner(model, point, p.get("baseline", data.features.mean(axis=0)))
    space = MaskSpace(point.shape[0], p.get("keep_prob", 0.5))
    return _search(method, learner, theta, space, seed, n=4000, burn_in=1000)


def _nearest_class_recipe(method, model, data, point, seed) -> dict:
    p = method.params
    point = _point(point, "nearest-class combinations")
    theta = _label_target(model, point, p)
    learner = make_nearest_class_learner(data, point, p.get("temperature", 1.0))
    space = SubsetSpace.per_class(data.labels, p.get("per_class_k", 1))
    return _search(method, learner, theta, space, seed, n=10000, burn_in=1000)


def _mmd_recipe(method, model, data, point, seed) -> dict:
    p = method.params
    class_index = p.get("class_index", 0)
    rows = data.class_rows(class_index)
    if rows.size == 0:
        raise BadSpec(f"class {class_index} has no rows")
    reference = data.features[rows]
    learner = make_mmd_learner(data, KernelConfig(p.get("bandwidth")), p.get("temperature", 1.0))
    theta = TargetInference(ThetaKind.CLASS_DATA_DISTRIBUTION, (reference, class_index))
    space = SubsetSpace([rows.tolist()], [p.get("m", 2)])
    return _search(method, learner, theta, space, seed, n=10000, burn_in=1000)


def _surrogate_recipe(method, model, data, point, seed) -> dict:
    p = method.params
    if method.theta_kind is ThetaKind.PREDICTIVE_DISTRIBUTION:
        if method.explanation_kind is not ExplanationKind.SOFT_TREE:
            raise IncompatibleCombination(
                "matching a full predictive distribution needs a distribution-valued surrogate"
            )
        return jsonable(distill_tree(model, data.features, seed=seed, **_tree_options(p, epochs=800)))

    # Local decision boundary: probes around the point, rbf weighted.
    point = _point(point, "local boundary surrogates")
    width = p.get("kernel_width", 1.0)
    count = p.get("probe_count", 2000)
    target_class = p.get("target_class", 1)
    if method.explanation_kind is ExplanationKind.LINEAR_WEIGHTS:
        report = lime_local(
            model, point, probe_count=count, kernel_width=width,
            ridge=p.get("ridge", 1e-3), seed=seed, target_class=target_class,
        )
        return jsonable(report)

    predict = batch_predictor(model)
    probes, weights = local_probes(point, count, width, seed)
    target = class_column(predict(probes), target_class)
    tree_report = distill_tree(lambda X: _pair_predict(predict, X, target_class), probes, seed=seed,
                               sample_weights=weights, **_tree_options(p, epochs=600))
    # LIME's fidelity: the kernel-weighted mean squared error of the
    # tree's target-class probability
    fitted = tree_report.tree.predict_proba(probes)[:, 1]
    loss = float(np.sum(weights * (fitted - target) ** 2) / float(weights.sum()))
    return {**jsonable(tree_report), "boundary_fit_loss": loss, "target_class": target_class}


def _search(method, learner, theta, space, seed, n: int, burn_in: int) -> dict:
    """Run the method's strategy and report its result; ``n`` and
    ``burn_in`` default the params of the same name."""
    p = method.params
    result = teacher.run_strategy(learner, theta, space, method.strategy, seed=seed,
                                  n=p.get("n", n), burn_in=p.get("burn_in", burn_in))
    out = {"strategy": result.strategy, "metadata": jsonable(result.metadata)}
    payload = result.explanation.payload
    if result.explanation.kind is ExplanationKind.EXAMPLE_SET:
        out["indices"] = list(payload)
    elif result.explanation.kind is ExplanationKind.FEATURE_MASK:
        out["mask"] = np.asarray(payload).astype(int).tolist()
    elif result.explanation.kind is ExplanationKind.SALIENCY_VECTOR:
        out["values"] = np.asarray(payload).tolist()
        if result.stderr is not None:
            out["stderr"] = result.stderr.tolist()
    return out


def _tree_options(p: dict, epochs: int) -> dict:
    """The soft-tree fit params; ``epochs`` is the recipe's default."""
    return {"depth": p.get("depth", 3), "beta": p.get("beta", 0.0), "epochs": p.get("epochs", epochs),
            "learning_rate": p.get("learning_rate", 0.05)}


def _point(point, what: str) -> np.ndarray:
    if point is None:
        raise BadSpec(f"{what} need a point")
    return np.asarray(point, dtype=float)


def _label_target(model, point: np.ndarray, params: dict) -> TargetInference:
    """The predicted-label target of ``target_class`` (``predicted_label``)."""
    label = predicted_label(batch_predictor(model), point, params.get("target_class"))
    return TargetInference(ThetaKind.PREDICTED_LABEL, label)


LEARNER_REGISTRY: dict[str, LearnerSpec] = {
    "plda": LearnerSpec(
        frozenset({ThetaKind.LATENT_CLASS_MEANS}),
        frozenset({ExplanationKind.EXAMPLE_SET}),
        _plda_recipe,
        {"per_class_k": int, "n": int, "burn_in": int},
        partial_subsets=False,
    ),
    "masked-prediction": LearnerSpec(
        frozenset({ThetaKind.PREDICTED_LABEL}),
        frozenset({ExplanationKind.FEATURE_MASK}),
        _masked_prediction_recipe,
        {"baseline": (float, list), "target_class": int, "keep_prob": float, "n": int, "burn_in": int},
    ),
    "nearest-class": LearnerSpec(
        frozenset({ThetaKind.PREDICTED_LABEL}),
        frozenset({ExplanationKind.EXAMPLE_SET}),
        _nearest_class_recipe,
        {"target_class": int, "temperature": float, "per_class_k": int, "n": int, "burn_in": int},
    ),
    "mmd": LearnerSpec(
        frozenset({ThetaKind.CLASS_DATA_DISTRIBUTION}),
        frozenset({ExplanationKind.EXAMPLE_SET}),
        _mmd_recipe,
        {"class_index": int, "bandwidth": (float, None), "temperature": float, "m": int, "n": int,
         "burn_in": int},
    ),
    "surrogate-fit": LearnerSpec(
        frozenset({ThetaKind.LOCAL_DECISION_BOUNDARY, ThetaKind.PREDICTIVE_DISTRIBUTION}),
        frozenset({ExplanationKind.LINEAR_WEIGHTS, ExplanationKind.SOFT_TREE}),
        _surrogate_recipe,
        {"depth": int, "beta": float, "epochs": int, "learning_rate": float, "kernel_width": float,
         "probe_count": int, "target_class": int, "ridge": float},
    ),
}

_STRATEGY_NEEDS = {
    "exhaustive-max": {ExplanationKind.EXAMPLE_SET, ExplanationKind.FEATURE_MASK},
    "mh-sample": {ExplanationKind.EXAMPLE_SET, ExplanationKind.FEATURE_MASK},
    "greedy": {ExplanationKind.EXAMPLE_SET},
    "mc-expectation": {ExplanationKind.FEATURE_MASK},
    "gradient-fit": {ExplanationKind.LINEAR_WEIGHTS, ExplanationKind.SOFT_TREE},
}


def check_compatibility(theta_kind: ThetaKind, explanation_kind: ExplanationKind, learner_id: str) -> None:
    """Raise IncompatibleCombination naming the violated rule."""
    if learner_id not in LEARNER_REGISTRY:
        raise BadSpec(f"unknown learner {learner_id!r}; choose from {sorted(LEARNER_REGISTRY)}")
    spec = LEARNER_REGISTRY[learner_id]
    if not theta_kind.is_generalization_level:
        if theta_kind not in spec.theta_kinds or explanation_kind is not ExplanationKind.EXAMPLE_SET:
            raise IncompatibleCombination(
                f"{theta_kind.value} is a parameter-level target: it requires a "
                f"learner of the same parametric form fitting example sets, "
                f"not ({explanation_kind.value}, {learner_id})"
            )
    if theta_kind not in spec.theta_kinds:
        raise IncompatibleCombination(
            f"learner {learner_id!r} cannot score {theta_kind.value} targets"
        )
    if explanation_kind not in spec.explanation_kinds:
        raise IncompatibleCombination(
            f"learner {learner_id!r} does not consume {explanation_kind.value} explanations"
        )


@record
class RecombinedExplainer:
    """A runnable method assembled from (target kind, explanation kind,
    learner, strategy). ``recombine`` validates; run executes the
    learner's recipe."""

    theta_kind: ThetaKind
    explanation_kind: ExplanationKind
    learner_id: str
    strategy: str
    params: dict = field(default_factory=dict)

    def run(self, model: TargetModel, data: Dataset, point: np.ndarray | None = None, seed: int = 0) -> dict:
        result = LEARNER_REGISTRY[self.learner_id].recipe(self, model, data, point, seed)
        return {"combination": jsonable(self), "seed": seed, "result": result}


def _pair_predict(predict, X, target_class):
    p = class_column(predict(X), target_class)
    return np.column_stack([1.0 - p, p])


def recombine(
    theta_kind: ThetaKind,
    explanation_kind: ExplanationKind,
    learner_id: str,
    strategy: str,
    params: dict | None = None,
) -> RecombinedExplainer:
    """Validate the combination, read each of ``params`` by its declared
    kind (``models.param_value``) and return a runnable explainer that
    holds the values as read."""
    check_compatibility(theta_kind, explanation_kind, learner_id)
    if strategy not in _STRATEGY_NEEDS:
        raise BadSpec(f"unknown strategy {strategy!r}; choose from {sorted(_STRATEGY_NEEDS)}")
    if explanation_kind not in _STRATEGY_NEEDS[strategy]:
        raise StrategySpaceMismatch(
            f"strategy {strategy!r} cannot search {explanation_kind.value} explanations"
        )
    if strategy == "greedy" and not LEARNER_REGISTRY[learner_id].partial_subsets:
        raise StrategySpaceMismatch(
            f"greedy grows subsets row by row, but learner {learner_id!r} "
            f"only scores class-complete example sets"
        )
    kinds = LEARNER_REGISTRY[learner_id].params
    params = params or {}
    unknown = sorted(set(params) - set(kinds))
    if unknown:
        raise BadSpec(f"learner {learner_id!r} reads no --param {', '.join(unknown)}; "
                      f"accepted: {', '.join(sorted(kinds))}")
    read = {key: param_value(f"--param {key}", value, kinds[key]) for key, value in params.items()}
    return RecombinedExplainer(theta_kind, explanation_kind, learner_id, strategy, read)
