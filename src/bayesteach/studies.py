"""Simulated user studies: the artifact's evaluation layer.

A study confronts a population of simulated learners with two-alternative
forced-choice tasks: shown an explanation, pick which of two candidate
inferences it teaches. Reports carry accuracy, belief shift, and a
calibration table of predicted versus realized accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import teacher
from .core import logsumexp
from .errors import BadSpec
from .learners import BiasConfig, biased_learner, make_plda_learner
from .models import Dataset, TargetModel, jsonable
from .spaces import SubsetSpace
from .types import Explanation, LearnerModel, TargetInference, ThetaKind

CALIBRATION_BINS = 10


@dataclass(frozen=True)
class TwoAfcTask:
    """One forced choice: which candidate does explanation x teach?"""

    candidates: tuple[TargetInference, ...]
    target_index: int
    x: Explanation
    trials: int = 1

    def __post_init__(self):
        if len(self.candidates) != 2:
            raise BadSpec("a forced choice needs exactly two candidates")
        if not 0 <= self.target_index < 2:
            raise BadSpec("target_index must be 0 or 1")
        if self.trials < 1:
            raise BadSpec("trials must be >= 1")


@dataclass(frozen=True)
class PopulationMember:
    base_learner: LearnerModel
    weight: float = 1.0
    bias: BiasConfig | None = None

    def learner(self) -> LearnerModel:
        if self.bias is None:
            return self.base_learner
        return biased_learner(self.base_learner, self.bias)

    def prior_on(self, task: TwoAfcTask) -> np.ndarray:
        if self.bias is None:
            return np.full(2, 0.5)
        masses = np.array([math.exp(self.bias.log_prior_of(c)) for c in task.candidates])
        if masses.sum() <= 0:
            return np.full(2, 0.5)
        return masses / masses.sum()


@dataclass(frozen=True)
class SimulatedStudy:
    population: tuple[PopulationMember, ...]
    tasks: tuple[TwoAfcTask, ...]

    def __post_init__(self):
        if not self.population or not self.tasks:
            raise BadSpec("a study needs at least one member and one task")
        if any(m.weight <= 0 for m in self.population):
            raise BadSpec("population weights must be positive")


@dataclass(frozen=True)
class StudyReport:
    overall_accuracy: float
    overall_belief_shift: float
    per_task: tuple[dict, ...]
    calibration: dict
    trial_count: int

    def to_dict(self) -> dict:
        return {
            "overall_accuracy": self.overall_accuracy,
            "overall_belief_shift": self.overall_belief_shift,
            "per_task": [jsonable(t) for t in self.per_task],
            "calibration": jsonable(self.calibration),
            "trial_count": self.trial_count,
        }


def _target_mass(log_liks: list[float], target: int) -> float:
    """Normalized posterior mass on the target candidate; every candidate
    gets an equal share when every likelihood is zero."""
    if all(v == -math.inf for v in log_liks):
        return 1.0 / len(log_liks)
    return float(math.exp(log_liks[target] - logsumexp(log_liks)))


def _choice_outcomes(log_liks: list[float], target: int, trials: int, rng: np.random.Generator) -> float:
    """Fraction of trials picking the target; exact ties flip a fair coin."""
    gap = log_liks[target] - log_liks[1 - target]
    if gap > 0:
        return 1.0
    if gap < 0:
        return 0.0
    return float(np.mean(rng.random(trials) < 0.5))


def simulate_2afc(study: SimulatedStudy, seed: int) -> StudyReport:
    """Run every (member, task) pair; aggregate by population weight.

    The predicted accuracy for a pair is the learner's normalized
    posterior mass on the target candidate; realized accuracy is the
    simulated argmax choice. Randomness is derived per (seed, member,
    task) so results do not depend on iteration order.
    """
    member_w = np.array([m.weight for m in study.population], dtype=float)
    member_w = member_w / member_w.sum()

    per_task: list[dict] = []
    records: list[tuple[float, float, float]] = []  # (weight, predicted, realized)
    total_trials = 0
    for t_idx, task in enumerate(study.tasks):
        total_trials += task.trials
        task_acc = 0.0
        task_pred = 0.0
        task_shift = 0.0
        for m_idx, member in enumerate(study.population):
            learner = member.learner()
            log_liks = [learner.log_likelihood(c, task.x) for c in task.candidates]
            predicted = _target_mass(log_liks, task.target_index)
            rng = np.random.default_rng((seed, m_idx, t_idx))
            realized = _choice_outcomes(log_liks, task.target_index, task.trials, rng)
            prior = member.prior_on(task)[task.target_index]
            task_acc += member_w[m_idx] * realized
            task_pred += member_w[m_idx] * predicted
            task_shift += member_w[m_idx] * (predicted - prior)
            records.append((member_w[m_idx] * task.trials, predicted, realized))
        per_task.append(
            {
                "accuracy": task_acc,
                "predicted": task_pred,
                "belief_shift": task_shift,
                "trials": task.trials,
            }
        )

    trials_per_task = np.array([t.trials for t in study.tasks], dtype=float)
    acc = np.array([t["accuracy"] for t in per_task])
    shift = np.array([t["belief_shift"] for t in per_task])
    overall_acc = float(acc @ trials_per_task / trials_per_task.sum())
    overall_shift = float(shift @ trials_per_task / trials_per_task.sum())

    edges = np.linspace(0.0, 1.0, CALIBRATION_BINS + 1)
    pred = np.array([r[1] for r in records])
    real = np.array([r[2] for r in records])
    wts = np.array([r[0] for r in records])
    bins = np.clip((pred * CALIBRATION_BINS).astype(int), 0, CALIBRATION_BINS - 1)
    calibration = {"bin_edges": edges.tolist(), "bins": []}
    for b in range(CALIBRATION_BINS):
        inside = bins == b
        w = float(wts[inside].sum())
        entry = {"count": int(inside.sum()), "weight": w}
        if w > 0:
            entry["predicted_mean"] = float(pred[inside] @ wts[inside] / w)
            entry["realized_mean"] = float(real[inside] @ wts[inside] / w)
        else:
            entry["predicted_mean"] = None
            entry["realized_mean"] = None
        calibration["bins"].append(entry)

    return StudyReport(overall_acc, overall_shift, tuple(per_task), calibration, total_trials)


# ---------------------------------------------------------------------------
# named studies


def _plda_candidates(model: TargetModel, distractor_scale: float, seed: int, key: int, study: str):
    """The two candidates of a PLDA study: the model's latent class means
    and a distractor jittered from them by ``distractor_scale`` standard
    normals drawn from ``default_rng((seed, key))``. A model of another
    family raises BadSpec naming the study."""
    if model.family != "plda":
        raise BadSpec(f"the {study} explains plda models")
    rng = np.random.default_rng((seed, key))
    true_means = model.parameters["latent_means"]
    distractor = true_means + float(distractor_scale) * rng.standard_normal(true_means.shape)
    return (
        TargetInference(ThetaKind.LATENT_CLASS_MEANS, true_means),
        TargetInference(ThetaKind.LATENT_CLASS_MEANS, distractor),
    )


def example_selection_study(
    model: TargetModel,
    data: Dataset,
    per_class_k: int = 2,
    distractor_scale: float = 0.4,
    trials: int = 2000,
    seed: int = 0,
    random_subset_count: int = 1000,
    bias_strength: float = 0.0,
    bias_favors_distractor: bool = True,
) -> dict:
    """Teacher-selected examples versus random subsets on a 2AFC task.

    The learner must identify the true latent class means against a
    jittered distractor. One arm shows the teacher's argmax subset on
    every trial; the other draws a fresh random subset per trial.
    """
    candidates = _plda_candidates(model, distractor_scale, seed, 0xD15, "example selection study")
    base = make_plda_learner(model, data)
    space = SubsetSpace.per_class(data.labels, per_class_k)
    bias = None
    if bias_strength > 0:
        favored = (0.1, 0.9) if bias_favors_distractor else (0.9, 0.1)
        bias = BiasConfig(bias_strength, candidates, np.array(favored))
    member = PopulationMember(base, 1.0, bias)

    selected_x = teacher.run_strategy(base, candidates[0], space, "exhaustive-max").explanation
    teacher_task = TwoAfcTask(candidates, 0, selected_x, trials=trials)
    teacher_report = simulate_2afc(SimulatedStudy((member,), (teacher_task,)), seed)

    draw_rng = np.random.default_rng((seed, 0xA11))
    random_tasks = tuple(
        TwoAfcTask(candidates, 0, space.initial_state(draw_rng), trials=1)
        for _ in range(trials)
    )
    random_report = simulate_2afc(SimulatedStudy((member,), random_tasks), seed)

    ll_rng = np.random.default_rng((seed, 0x5EED))
    random_lls = np.array([
        base.log_likelihood(candidates[0], space.initial_state(ll_rng))
        for _ in range(random_subset_count)
    ])
    selected_ll = base.log_likelihood(candidates[0], selected_x)
    percentile_99 = float(np.quantile(random_lls, 0.99))

    return {
        "selected_indices": list(selected_x.payload),
        "teacher_accuracy": teacher_report.overall_accuracy,
        "random_accuracy": random_report.overall_accuracy,
        "accuracy_gap": teacher_report.overall_accuracy - random_report.overall_accuracy,
        "teacher_belief_shift": teacher_report.overall_belief_shift,
        "random_belief_shift": random_report.overall_belief_shift,
        "selected_log_likelihood": float(selected_ll),
        "random_log_likelihood_p99": percentile_99,
        "beats_random_p99": bool(selected_ll >= percentile_99),
        "distractor_scale": distractor_scale,
        "bias_strength": bias_strength,
        "trials": trials,
        "calibration": teacher_report.calibration,
    }


def bias_sensitivity_study(
    model: TargetModel,
    data: Dataset,
    strengths=(0.0, 5.0, 50.0),
    per_class_k: int = 2,
    distractor_scale: float = 0.4,
    task_count: int = 200,
    seed: int = 0,
) -> dict:
    """Sweep confirmation-bias strength with the prior favoring the
    wrong candidate. Every task is scored once per strength by the same
    member, so accuracy is comparable across the sweep; the final column
    reports mean posterior mass on the favored (wrong) candidate.
    """
    candidates = _plda_candidates(model, distractor_scale, seed, 0xB1A5, "bias sweep")
    base = make_plda_learner(model, data)
    space = SubsetSpace.per_class(data.labels, per_class_k)
    draw_rng = np.random.default_rng((seed, 0xA11))
    tasks = tuple(
        TwoAfcTask(candidates, 0, space.initial_state(draw_rng), trials=1)
        for _ in range(task_count)
    )

    rows = []
    for strength in strengths:
        if strength > 0:
            member = PopulationMember(
                base, 1.0, BiasConfig(strength, candidates, np.array([0.1, 0.9]))
            )
        else:
            member = PopulationMember(base, 1.0)
        report = simulate_2afc(SimulatedStudy((member,), tasks), seed)
        favored_mass = 1.0 - float(
            np.mean([t["predicted"] for t in report.per_task])
        )
        rows.append(
            {
                "strength": float(strength),
                "accuracy": report.overall_accuracy,
                "belief_shift": report.overall_belief_shift,
                "favored_candidate_mass": favored_mass,
            }
        )
    accs = [r["accuracy"] for r in rows]
    return {
        "strengths": [float(s) for s in strengths],
        "rows": rows,
        "monotone_non_increasing": all(
            accs[i + 1] <= accs[i] + 1e-12 for i in range(len(accs) - 1)
        ),
    }


def strategy_mismatch_study(
    selector: LearnerModel,
    evaluator: LearnerModel,
    candidates: tuple[TargetInference, ...],
    target_index: int,
    space,
    n: int = 2000,
    burn_in: int = 200,
    seed: int = 0,
) -> dict:
    """Does sampling explanations beat committing to the argmax when the
    explainee differs from the learner model used to select?

    The selector picks (or samples) x for the target candidate; the
    evaluator scores each x by its normalized posterior mass on the
    target. Reported, not a universal claim: the outcome depends on how
    the two learners disagree.
    """
    theta = candidates[target_index]
    x_max = teacher.run_strategy(selector, theta, space, "exhaustive-max").explanation
    chain = teacher.run_strategy(selector, theta, space, "mh-sample", seed=seed, n=n, burn_in=burn_in)
    samples = chain.samples

    def evaluator_mass(x: Explanation) -> float:
        return _target_mass([evaluator.log_likelihood(c, x) for c in candidates], target_index)

    max_value = evaluator_mass(x_max)
    cache: dict = {}
    total = 0.0
    for state in samples.states:
        if state not in cache:
            cache[state] = evaluator_mass(samples.explanation_of(state))
        total += cache[state]
    sampled_value = total / len(samples)
    return {
        "max_explanation_value": max_value,
        "sampled_mean_value": sampled_value,
        "sampling_beats_max": bool(sampled_value > max_value),
        "sample_count": len(samples),
        "distinct_samples": len(cache),
    }


def plda_strategy_mismatch_study(
    model: TargetModel,
    data: Dataset,
    per_class_k: int = 2,
    n: int = 2000,
    burn_in: int = 200,
    distractor_scale: float = 0.4,
    bias_strength: float = 1.0,
    seed: int = 0,
) -> dict:
    """``strategy_mismatch_study`` on a PLDA model: the selector is the
    PLDA learner and the evaluator the same learner with confirmation
    bias toward a jittered distractor of the latent class means."""
    candidates = _plda_candidates(model, distractor_scale, seed, 0xD15, "strategy mismatch study")
    selector = make_plda_learner(model, data)
    evaluator = biased_learner(
        selector, BiasConfig(float(bias_strength), candidates, np.array([0.1, 0.9]))
    )
    space = SubsetSpace.per_class(data.labels, int(per_class_k))
    return strategy_mismatch_study(
        selector, evaluator, candidates, 0, space, n=int(n), burn_in=int(burn_in), seed=seed
    )
