"""Simulated user studies: the artifact's evaluation layer.

A study confronts a population of simulated learners with two-alternative
forced-choice tasks: shown an explanation, pick which of two candidate
inferences it teaches. Reports carry accuracy, belief shift, and a
calibration table of predicted versus realized accuracy.
"""

from __future__ import annotations

import math

import numpy as np

from . import core, teacher
from .errors import BadSpec, NonFiniteResult
from .learners import BiasConfig, biased_learner, in_order_sum, linear_quantile, make_plda_learner
from .models import Dataset, TargetModel
from .spaces import SubsetSpace
from .types import LearnerModel, TargetInference, ThetaKind, record

CALIBRATION_BINS = 10


@record
class PopulationMember:
    base_learner: LearnerModel
    weight: float = 1.0
    bias: BiasConfig | None = None

    def learner(self) -> LearnerModel:
        if self.bias is None:
            return self.base_learner
        return biased_learner(self.base_learner, self.bias)

    def prior_on(self, candidates: tuple[TargetInference, ...]) -> np.ndarray:
        if self.bias is None or self.bias.confirmation_strength == 0:
            return np.full(2, 0.5)
        masses = np.array([math.exp(self.bias.log_prior_of(c)) for c in candidates])
        if masses.sum() <= 0:
            return np.full(2, 0.5)
        return masses / masses.sum()


@record
class SimulatedStudy:
    """Forced choices between two candidates; a task is ``(target, trials)``."""

    population: tuple[PopulationMember, ...]
    candidates: tuple[TargetInference, ...]
    tasks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.population or not self.tasks:
            raise BadSpec("a study needs at least one member and one task")
        if any(m.weight <= 0 for m in self.population):
            raise BadSpec("population weights must be positive")
        if len(self.candidates) != 2 or any(target not in (0, 1) for target, _ in self.tasks):
            raise BadSpec("a forced choice needs two candidates and a target of 0 or 1")
        if any(trials < 1 for _, trials in self.tasks):
            raise BadSpec("trials must be >= 1")


@record
class StudyReport:
    overall_accuracy: float
    overall_belief_shift: float
    per_task: tuple[dict, ...]
    calibration: dict
    trial_count: int


def _target_masses(log_liks: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Normalized posterior mass on the target candidate of each row of a
    (T, k) log-likelihood array, from one row-wise log-sum-exp; a row
    whose likelihoods are all zero gives every candidate an equal share."""
    lse = core.logsumexp(log_liks)
    on_target = log_liks[np.arange(len(targets)), targets]
    flat = np.all(log_liks == -np.inf, axis=1)
    # math.exp, not np.exp: the two can differ in the last bit
    return np.array([
        1.0 / log_liks.shape[1] if f else math.exp(v - z)
        for f, v, z in zip(flat.tolist(), on_target.tolist(), lse.tolist())
    ])


def simulate_2afc(study: SimulatedStudy, log_liks, seed: int) -> StudyReport:
    """Run every (member, task) pair; aggregate by population weight.

    ``log_liks[m]`` is member m's (T, 2) array, the log likelihoods of
    each task's explanation under the candidates. The predicted accuracy
    for a pair is the normalized posterior mass on the target candidate,
    from one row-wise log-sum-exp (``_target_masses``); realized accuracy
    is the simulated argmax choice, the fraction of trials picking the
    target. A pair whose likelihood gap is not strictly positive or
    negative (an exact tie, or NaN) flips a fair coin per trial, drawn
    from ``default_rng((seed, member, task))``, so results do not depend
    on iteration order. Per-task sums add members in population order,
    and the calibration records run task by task.
    """
    member_w = np.array([m.weight for m in study.population], dtype=float)
    member_w = member_w / member_w.sum()
    tasks = study.tasks
    rows = np.arange(len(tasks))
    targets = np.array([target for target, _ in tasks], dtype=np.intp)
    trials = np.array([n for _, n in tasks], dtype=float)

    acc = np.zeros(len(tasks))
    pred_sum = np.zeros(len(tasks))
    shift = np.zeros(len(tasks))
    predicted = np.empty((len(tasks), len(study.population)))
    realized = np.empty_like(predicted)
    for m_idx, member in enumerate(study.population):
        member_ll = np.asarray(log_liks[m_idx], dtype=float)
        pred = _target_masses(member_ll, targets)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which ties
            gap = member_ll[rows, targets] - member_ll[rows, 1 - targets]
        real = np.where(gap > 0, 1.0, 0.0)
        for t_idx in np.flatnonzero(~((gap > 0) | (gap < 0))).tolist():
            rng = np.random.default_rng((seed, m_idx, t_idx))
            real[t_idx] = float(np.mean(rng.random(tasks[t_idx][1]) < 0.5))
        prior = member.prior_on(study.candidates)[targets]
        w = member_w[m_idx]
        acc += w * real
        pred_sum += w * pred
        shift += w * (pred - prior)
        predicted[:, m_idx], realized[:, m_idx] = pred, real

    per_task = tuple(
        {"accuracy": a, "predicted": p, "belief_shift": s, "trials": n}
        for a, p, s, (_, n) in zip(acc, pred_sum, shift, tasks)
    )
    overall_acc = float(acc @ trials / trials.sum())
    overall_shift = float(shift @ trials / trials.sum())

    edges = np.linspace(0.0, 1.0, CALIBRATION_BINS + 1)
    pred = predicted.reshape(-1)
    real = realized.reshape(-1)
    wts = (trials[:, None] * member_w[None, :]).reshape(-1)
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

    return StudyReport(overall_acc, overall_shift, per_task, calibration, sum(n for _, n in tasks))


# ---------------------------------------------------------------------------
# named studies


def _plda_candidates(model: TargetModel, distractor_scale: float, seed: int, key: int, study: str):
    """The two candidates of a PLDA study: the model's latent class means
    and a distractor jittered from them by ``distractor_scale`` standard
    normals drawn from ``default_rng((seed, key))``. A model of another
    family raises BadSpec naming the study, and a distractor that
    overflows raises NonFiniteResult."""
    if model.family != "plda":
        raise BadSpec(f"the {study} explains plda models")
    rng = np.random.default_rng((seed, key))
    true_means = model.parameters["latent_means"]
    with np.errstate(over="ignore"):
        distractor = true_means + float(distractor_scale) * rng.standard_normal(true_means.shape)
    if not np.all(np.isfinite(distractor)):
        raise NonFiniteResult(f"the {study}'s distractor overflows at distractor_scale {distractor_scale}")
    return (
        TargetInference(ThetaKind.LATENT_CLASS_MEANS, true_means),
        TargetInference(ThetaKind.LATENT_CLASS_MEANS, distractor),
    )


def _scored(learner: LearnerModel, candidates, space, rows) -> np.ndarray | None:
    """The log likelihood of each row of a ``SubsetSpace.draw`` array (a
    row) under each candidate (a column), by one ``core.PoolTable`` each;
    None when the learner does not split the space's pools."""
    splits = [core.pool_terms(learner, c, space) for c in candidates]
    if any(split is None for split in splits):
        return None
    return np.column_stack([core.PoolTable(space, *split).score(np.asarray(rows)) for split in splits])


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
    every trial; the other draws a fresh random subset per trial. The
    selected subset's likelihood is ranked against ``random_subset_count``
    random ones; ``SubsetSpace.draw`` refuses a count below 1.
    """
    candidates = _plda_candidates(model, distractor_scale, seed, 0xD15, "example selection study")
    base = make_plda_learner(model, data)
    space = SubsetSpace.per_class(data.labels, per_class_k)
    favored = (0.1, 0.9) if bias_favors_distractor else (0.9, 0.1)
    member = PopulationMember(base, 1.0, BiasConfig(bias_strength, candidates, np.array(favored)))
    learner = member.learner()

    # the random arm first: its draw refuses an oversized trial count
    # before the teacher arm flips a tie coin per trial
    shown = space.draw(np.random.default_rng((seed, 0xA11)), trials)
    random_study = SimulatedStudy((member,), candidates, ((0, 1),) * trials)
    random_report = simulate_2afc(random_study, [_scored(learner, candidates, space, shown)], seed)

    selected_x = teacher.run_strategy(base, candidates[0], space, "exhaustive-max").explanation
    selected = _scored(learner, candidates, space, np.array([selected_x.payload]))
    teacher_report = simulate_2afc(SimulatedStudy((member,), candidates, ((0, trials),)), [selected], seed)

    ranked = space.draw(np.random.default_rng((seed, 0x5EED)), random_subset_count)
    random_lls = _scored(base, candidates[:1], space, ranked)[:, 0]
    selected_ll = base.log_likelihood(candidates[0], selected_x)
    percentile_99 = linear_quantile(random_lls, 0.99)

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
    shown = space.draw(np.random.default_rng((seed, 0xA11)), task_count)
    tasks = ((0, 1),) * task_count

    favored = np.array([0.1, 0.9])
    members = [PopulationMember(base, 1.0, BiasConfig(s, candidates, favored)) for s in strengths]
    # a biased learner keeps the base's pool scorers and changes only their
    # combine, so each candidate's pool terms are scored once for the sweep
    columns = [core.PoolTable(space, *core.pool_terms(base, c, space)).columns(shown) for c in candidates]
    rows = []
    for strength, member in zip(strengths, members):
        tables = [core.PoolTable(space, *core.pool_terms(member.learner(), c, space)) for c in candidates]
        log_liks = np.column_stack([table.weights(terms) for table, terms in zip(tables, columns)])
        report = simulate_2afc(SimulatedStudy((member,), candidates, tasks), [log_liks], seed)
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

    # the argmax, then each distinct sample in order of first visit
    distinct = samples.tally.records
    xs = [x_max] + [samples.explanation_of(r) for r in distinct.tolist()]
    log_liks = _scored(evaluator, candidates, space, [x.payload for x in xs])
    if log_liks is None:
        log_liks = np.array([[evaluator.log_likelihood(c, x) for c in candidates] for x in xs], dtype=float)
    masses = _target_masses(log_liks, np.full(len(xs), target_index))
    max_value = float(masses[0])
    sampled_value = in_order_sum(samples.at_each_step(masses[1:])) / len(samples)
    return {
        "max_explanation_value": max_value,
        "sampled_mean_value": sampled_value,
        "sampling_beats_max": bool(sampled_value > max_value),
        "sample_count": len(samples),
        "distinct_samples": len(distinct),
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


# a config's study name -> the function whose keyword parameters are its params
STUDIES = {
    "example-selection": example_selection_study,
    "bias-sweep": bias_sensitivity_study,
    "strategy-mismatch": plda_strategy_mismatch_study,
}
