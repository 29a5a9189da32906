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
from .models import Dataset, TargetModel, batch_predictor, jsonable
from .spaces import MaskSpace, SubsetSpace
from .types import ExplanationKind, TargetInference, ThetaKind, record


@record
class LearnerSpec:
    """A learner of the recombination table: the kinds it scores, its recipe
    ``(method, model, data, point, seed) -> result document`` and the
    ``--param`` keys the recipe reads. Recipes call the explainers and
    ``teacher.run_strategy`` by module-level name at call time, so a
    wrapper installed on one of those names takes effect."""

    theta_kinds: frozenset
    explanation_kinds: frozenset
    recipe: Callable[..., dict]
    params: frozenset
    # greedy grows subsets one row at a time, so it needs a learner that
    # can score class-incomplete example sets
    partial_subsets: bool = True


def _plda_recipe(method, model, data, point, seed) -> dict:
    p = method.params
    report = explain_by_examples(
        model, data, per_class_k=_param(p, "per_class_k", 2, int),
        strategy=method.strategy,
        seed=seed, mh_steps=_param(p, "n", 20000, int), mh_burn_in=_param(p, "burn_in", 2000, int),
    )
    return jsonable(report)


def _masked_prediction_recipe(method, model, data, point, seed) -> dict:
    p = method.params
    point = _point(point, "masked-prediction combinations")
    baseline = _param(p, "baseline", data.features.mean(axis=0),
                      lambda v: np.broadcast_to(np.asarray(v, dtype=float), point.shape))
    theta = _label_target(model, point, p)
    learner = make_masked_prediction_learner(model, point, baseline)
    space = MaskSpace(point.shape[0], _param(p, "keep_prob", 0.5, float))
    return _search(method, learner, theta, space, seed, n=4000, burn_in=1000)


def _nearest_class_recipe(method, model, data, point, seed) -> dict:
    p = method.params
    point = _point(point, "nearest-class combinations")
    theta = _label_target(model, point, p)
    learner = make_nearest_class_learner(data, point, _param(p, "temperature", 1.0, float))
    space = SubsetSpace.per_class(data.labels, _param(p, "per_class_k", 1, int))
    return _search(method, learner, theta, space, seed, n=10000, burn_in=1000)


def _mmd_recipe(method, model, data, point, seed) -> dict:
    p = method.params
    class_index = _param(p, "class_index", 0, int)
    rows = data.class_rows(class_index)
    if rows.size == 0:
        raise BadSpec(f"class {class_index} has no rows")
    reference = data.features[rows]
    kernel = KernelConfig(bandwidth=_param(p, "bandwidth", None, lambda v: None if v is None else float(v)))
    learner = make_mmd_learner(data, kernel, _param(p, "temperature", 1.0, float))
    theta = TargetInference(ThetaKind.CLASS_DATA_DISTRIBUTION, (reference, class_index))
    space = SubsetSpace([rows.tolist()], [_param(p, "m", 2, int)])
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
    width = _param(p, "kernel_width", 1.0, float)
    count = _param(p, "probe_count", 2000, int)
    target_class = _param(p, "target_class", 1, int)
    if method.explanation_kind is ExplanationKind.LINEAR_WEIGHTS:
        report = lime_local(
            model, point, probe_count=count, kernel_width=width,
            ridge=_param(p, "ridge", 1e-3, float), seed=seed, target_class=target_class,
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
                                  n=_param(p, "n", n, int), burn_in=_param(p, "burn_in", burn_in, int))
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
    return {"depth": _param(p, "depth", 3, int), "beta": _param(p, "beta", 0.0, float),
            "epochs": _param(p, "epochs", epochs, int),
            "learning_rate": _param(p, "learning_rate", 0.05, float)}


def _point(point, what: str) -> np.ndarray:
    if point is None:
        raise BadSpec(f"{what} need a point")
    return np.asarray(point, dtype=float)


def _label_target(model, point: np.ndarray, params: dict) -> TargetInference:
    """The predicted-label target of ``target_class`` (``predicted_label``)."""
    label = predicted_label(batch_predictor(model), point, _param(params, "target_class", None, int))
    return TargetInference(ThetaKind.PREDICTED_LABEL, label)


LEARNER_REGISTRY: dict[str, LearnerSpec] = {
    "plda": LearnerSpec(
        frozenset({ThetaKind.LATENT_CLASS_MEANS}),
        frozenset({ExplanationKind.EXAMPLE_SET}),
        _plda_recipe,
        frozenset({"per_class_k", "n", "burn_in"}),
        partial_subsets=False,
    ),
    "masked-prediction": LearnerSpec(
        frozenset({ThetaKind.PREDICTED_LABEL}),
        frozenset({ExplanationKind.FEATURE_MASK}),
        _masked_prediction_recipe,
        frozenset({"baseline", "target_class", "keep_prob", "n", "burn_in"}),
    ),
    "nearest-class": LearnerSpec(
        frozenset({ThetaKind.PREDICTED_LABEL}),
        frozenset({ExplanationKind.EXAMPLE_SET}),
        _nearest_class_recipe,
        frozenset({"target_class", "temperature", "per_class_k", "n", "burn_in"}),
    ),
    "mmd": LearnerSpec(
        frozenset({ThetaKind.CLASS_DATA_DISTRIBUTION}),
        frozenset({ExplanationKind.EXAMPLE_SET}),
        _mmd_recipe,
        frozenset({"class_index", "bandwidth", "temperature", "m", "n", "burn_in"}),
    ),
    "surrogate-fit": LearnerSpec(
        frozenset({ThetaKind.LOCAL_DECISION_BOUNDARY, ThetaKind.PREDICTIVE_DISTRIBUTION}),
        frozenset({ExplanationKind.LINEAR_WEIGHTS, ExplanationKind.SOFT_TREE}),
        _surrogate_recipe,
        frozenset({"depth", "beta", "epochs", "learning_rate", "kernel_width", "probe_count",
                   "target_class", "ridge"}),
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


def _param(params: dict, key: str, default, kind):
    """The recipe parameter ``key`` converted by ``kind``, or ``default``
    when it is absent. No key reads a bool, so a bool (alone or in a list)
    raises BadSpec naming the key, and so do a number with a fractional
    part for an ``int`` key, a value the conversion rejects, and a float
    with a NaN or infinite entry."""
    if key not in params:
        return default
    value = params[key]
    if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
        raise BadSpec(f"--param {key}={value!r} is not usable: a bool is not a number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise BadSpec(f"--param {key}={value!r} is not usable: not an integer")
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadSpec(f"--param {key}={value!r} is not usable: {exc}") from exc
    if isinstance(converted, (float, np.ndarray)) and not np.all(np.isfinite(converted)):
        raise BadSpec(f"--param {key}={value!r} is not usable: not a finite number")
    return converted


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
    """Validate the combination and return a runnable explainer."""
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
    accepted = LEARNER_REGISTRY[learner_id].params
    unknown = sorted(set(params or {}) - accepted)
    if unknown:
        raise BadSpec(f"learner {learner_id!r} reads no --param {', '.join(unknown)}; "
                      f"accepted: {', '.join(sorted(accepted))}")
    return RecombinedExplainer(theta_kind, explanation_kind, learner_id, strategy, dict(params or {}))
