"""Simulated explainee studies: 2AFC runs, target mass, named studies."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from bayesteach import learners, studies, teacher
from bayesteach.errors import BadSpec, MissingClass
from bayesteach.learners import BiasConfig, biased_learner, linear_quantile, make_plda_learner, median
from bayesteach.models import fit_model, jsonable, make_synthetic
from bayesteach.spaces import EnumeratedSpace, SubsetSpace
from bayesteach.studies import (
    CALIBRATION_BINS,
    PopulationMember,
    SimulatedStudy,
    StudyReport,
    _plda_candidates,
    _target_masses,
    bias_sensitivity_study,
    example_selection_study,
    plda_strategy_mismatch_study,
    simulate_2afc,
    strategy_mismatch_study,
)
from bayesteach.types import LearnerModel, TargetInference, ThetaKind, example_set

C0 = TargetInference(ThetaKind.PREDICTED_LABEL, 0)
C1 = TargetInference(ThetaKind.PREDICTED_LABEL, 1)
X = example_set((0,))


def pair_learner(ll0, ll1):
    table = {C0.key(): ll0, C1.key(): ll1}
    return LearnerModel("pair", lambda theta, x: table[theta.key()])


def scored(population, shown):
    """Each member's (T, 2) log likelihoods of the explanations shown in
    the tasks, one explanation per task, under C0 and C1."""
    return [[[m.learner().log_likelihood(c, x) for c in (C0, C1)] for x in shown] for m in population]


def run(population, tasks, seed):
    """simulate_2afc over C0 and C1, every task showing X."""
    study = SimulatedStudy(tuple(population), (C0, C1), tuple(tasks))
    return simulate_2afc(study, scored(study.population, [X] * len(study.tasks)), seed)


# ---------------------------------------------------------------------------
# 2AFC simulation


def test_indifferent_learner_scores_at_chance():
    member = PopulationMember(pair_learner(-1.0, -1.0))
    report = run((member,), [(0, 10000)], seed=0)
    assert report.overall_accuracy == pytest.approx(0.5, abs=0.02)
    assert report.per_task[0]["predicted"] == pytest.approx(0.5)
    assert report.overall_belief_shift == pytest.approx(0.0)
    assert report.trial_count == 10000


def test_confident_learner_is_always_right_or_wrong():
    right = PopulationMember(pair_learner(0.0, -5.0))
    report = run((right,), [(0, 7)], seed=3)
    assert report.overall_accuracy == 1.0
    report = run((right,), [(1, 7)], seed=3)
    assert report.overall_accuracy == 0.0


def test_population_weights_mix_members():
    right = PopulationMember(pair_learner(0.0, -5.0), weight=3.0)
    wrong = PopulationMember(pair_learner(-5.0, 0.0), weight=1.0)
    report = run((right, wrong), [(0, 4)], seed=0)
    assert report.overall_accuracy == pytest.approx(0.75)


def test_task_weighting_is_by_trials():
    member = PopulationMember(pair_learner(0.0, -5.0))
    many_right, few_wrong = (0, 90), (1, 10)
    report = run((member,), [many_right, few_wrong], seed=0)
    assert report.overall_accuracy == pytest.approx(0.9)


def test_biased_member_shifts_belief_from_its_prior():
    bias = BiasConfig(2.0, (C0, C1), np.array([0.9, 0.1]))
    member = PopulationMember(pair_learner(-1.0, -1.0), bias=bias)
    report = run((member,), [(0, 1)], seed=0)
    predicted = report.per_task[0]["predicted"]
    assert predicted > 0.9  # strength 2 sharpens the 0.9 prior
    assert report.overall_belief_shift == pytest.approx(predicted - 0.9)


def test_a_zero_strength_bias_is_no_bias():
    # BiasConfig's rule: strength zero disables the bias, whatever the prior
    base = pair_learner(-1.0, -2.0)
    member = PopulationMember(base, bias=BiasConfig(0.0, (C0, C1), np.array([0.9, 0.1])))
    assert member.learner() is base
    assert member.prior_on((C0, C1)).tolist() == [0.5, 0.5]
    unbiased = run((PopulationMember(base),), [(0, 3)], seed=0)
    assert jsonable(run((member,), [(0, 3)], seed=0)) == jsonable(unbiased)


def test_simulation_is_seed_deterministic_and_order_free():
    member = PopulationMember(pair_learner(-1.0, -1.0))
    tasks = [(0, 11)] * 4
    a = run((member,), tasks, seed=5)
    b = run((member,), tasks, seed=5)
    assert jsonable(a) == jsonable(b)


def test_calibration_bins_cover_predictions():
    members = (
        PopulationMember(pair_learner(math.log(0.25), math.log(0.75))),
        PopulationMember(pair_learner(math.log(0.85), math.log(0.15))),
    )
    report = run(members, [(0, 20)], seed=0)
    bins = report.calibration["bins"]
    assert len(bins) == 10
    assert bins[2]["count"] == 1 and bins[2]["predicted_mean"] == pytest.approx(0.25)
    assert bins[8]["count"] == 1 and bins[8]["predicted_mean"] == pytest.approx(0.85)
    empty = [b for b in bins if b["count"] == 0]
    assert all(b["predicted_mean"] is None for b in empty)


def test_study_validation():
    member = PopulationMember(pair_learner(0, 0))
    with pytest.raises(BadSpec):
        SimulatedStudy((member,), (C0, C1, C0), ((0, 1),))
    with pytest.raises(BadSpec):
        SimulatedStudy((member,), (C0, C1), ((2, 1),))
    with pytest.raises(BadSpec):
        SimulatedStudy((member,), (C0, C1), ((0, 0),))
    with pytest.raises(BadSpec):
        SimulatedStudy((member,), (C0, C1), ())
    with pytest.raises(BadSpec):
        SimulatedStudy((PopulationMember(pair_learner(0, 0), weight=0.0),), (C0, C1), ((0, 1),))
    with pytest.raises(BadSpec):
        SimulatedStudy((), (C0, C1), ((0, 1),))


# ---------------------------------------------------------------------------
# target mass


def test_target_mass_is_normalized_mass():
    log_liks = np.array([[math.log(0.3), math.log(0.7)]] * 2 + [[-math.inf, -math.inf]])
    masses = _target_masses(log_liks, np.array([0, 1, 0]))
    assert masses[0] == pytest.approx(0.3)
    assert masses[1] == pytest.approx(0.7)
    assert masses[2] == 0.5


# ---------------------------------------------------------------------------
# the array path against the loop-first reference


def reference_target_mass(log_liks, target):
    if all(v == -math.inf for v in log_liks):
        return 1.0 / len(log_liks)
    return float(math.exp(log_liks[target] - float(scipy_logsumexp(log_liks))))


def reference_simulate_2afc(study, shown, seed):
    """One (task, member) pair at a time: the learner built, the two
    candidates scored on the task's shown explanation and a generator
    made for every pair."""
    member_w = np.array([m.weight for m in study.population], dtype=float)
    member_w = member_w / member_w.sum()
    per_task, records, total_trials = [], [], 0
    for t_idx, ((target, trials), x) in enumerate(zip(study.tasks, shown)):
        total_trials += trials
        task_acc = task_pred = task_shift = 0.0
        for m_idx, member in enumerate(study.population):
            learner = member.learner()
            log_liks = [learner.log_likelihood(c, x) for c in study.candidates]
            predicted = reference_target_mass(log_liks, target)
            rng = np.random.default_rng((seed, m_idx, t_idx))
            gap = log_liks[target] - log_liks[1 - target]
            if gap > 0:
                realized = 1.0
            elif gap < 0:
                realized = 0.0
            else:
                realized = float(np.mean(rng.random(trials) < 0.5))
            prior = member.prior_on(study.candidates)[target]
            task_acc += member_w[m_idx] * realized
            task_pred += member_w[m_idx] * predicted
            task_shift += member_w[m_idx] * (predicted - prior)
            records.append((member_w[m_idx] * trials, predicted, realized))
        per_task.append({"accuracy": task_acc, "predicted": task_pred,
                         "belief_shift": task_shift, "trials": trials})

    trials_per_task = np.array([trials for _, trials in study.tasks], dtype=float)
    acc = np.array([t["accuracy"] for t in per_task])
    shift = np.array([t["belief_shift"] for t in per_task])
    overall_acc = float(acc @ trials_per_task / trials_per_task.sum())
    overall_shift = float(shift @ trials_per_task / trials_per_task.sum())

    pred = np.array([r[1] for r in records])
    real = np.array([r[2] for r in records])
    wts = np.array([r[0] for r in records])
    bins = np.clip((pred * CALIBRATION_BINS).astype(int), 0, CALIBRATION_BINS - 1)
    calibration = {"bin_edges": np.linspace(0.0, 1.0, CALIBRATION_BINS + 1).tolist(), "bins": []}
    for b in range(CALIBRATION_BINS):
        inside = bins == b
        w = float(wts[inside].sum())
        entry = {"count": int(inside.sum()), "weight": w, "predicted_mean": None, "realized_mean": None}
        if w > 0:
            entry["predicted_mean"] = float(pred[inside] @ wts[inside] / w)
            entry["realized_mean"] = float(real[inside] @ wts[inside] / w)
        calibration["bins"].append(entry)
    return StudyReport(overall_acc, overall_shift, tuple(per_task), calibration, total_trials)


def same_document(a, b) -> bool:
    """Equal as written: JSON text tells -0.0 from 0.0, which == does not."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def random_study(rng):
    """Seeded members and tasks: log likelihoods drawn per (candidate,
    explanation) with exact ties, all -inf pairs and NaN-free infinities,
    weighted members, a biased member, trials above 1 and both targets;
    with the explanation each task shows."""
    xs = [example_set((i,)) for i in range(int(rng.integers(1, 6)))]
    members = []
    for m in range(int(rng.integers(1, 4))):
        table = {}
        for x in xs:
            kind = rng.integers(0, 4)
            if kind == 0:  # an exact tie
                ll0 = ll1 = float(rng.normal())
            elif kind == 1:  # zero likelihood for both
                ll0 = ll1 = -math.inf
            else:
                ll0, ll1 = rng.normal(0.0, 3.0, 2).tolist()
                if kind == 3:
                    ll1 = -math.inf
            table[(C0.key(), x.key())] = ll0
            table[(C1.key(), x.key())] = ll1
        learner = LearnerModel("drawn", lambda theta, x, t=table: t[(theta.key(), x.key())])
        bias = None
        if rng.random() < 0.4:
            p = float(rng.uniform(0.05, 0.95))
            bias = BiasConfig(float(rng.uniform(0.5, 3.0)), (C0, C1), np.array([p, 1.0 - p]))
        members.append(PopulationMember(learner, float(rng.uniform(0.2, 3.0)), bias))
    tasks, shown = [], []
    for _ in range(int(rng.integers(1, 12))):
        target, x, trials = int(rng.integers(0, 2)), xs[int(rng.integers(0, len(xs)))], int(rng.integers(1, 9))
        tasks.append((target, trials))
        shown.append(x)
    return SimulatedStudy(tuple(members), (C0, C1), tuple(tasks)), shown


def test_simulate_2afc_equals_the_loop_first_reference_on_named_cases():
    tie = PopulationMember(pair_learner(-1.0, -1.0), weight=2.0)
    right = PopulationMember(pair_learner(0.0, -5.0), weight=3.0)
    dead = PopulationMember(pair_learner(-math.inf, -math.inf), weight=0.5)
    biased = PopulationMember(
        pair_learner(-0.3, -0.2), bias=BiasConfig(2.0, (C0, C1), np.array([0.7, 0.3]))
    )
    tasks = ((0, 9), (1, 4), (1, 1))
    for population in [(tie, right), (biased,), (dead, tie, biased, right)]:
        study = SimulatedStudy(population, (C0, C1), tasks)
        for seed in (0, 3, 17):
            got = jsonable(run(population, tasks, seed))
            assert same_document(got, jsonable(reference_simulate_2afc(study, [X] * 3, seed)))


def test_simulate_2afc_equals_the_loop_first_reference_on_drawn_studies():
    rng = np.random.default_rng(2024)
    for case in range(150):
        study, shown = random_study(rng)
        got = jsonable(simulate_2afc(study, scored(study.population, shown), case))
        assert same_document(got, jsonable(reference_simulate_2afc(study, shown, case))), case


# ---------------------------------------------------------------------------
# named studies


def study_data():
    return make_synthetic(
        {"generator": "gaussian-blobs", "classes": 2, "dim": 3, "per_class": 6,
         "separation": 5.0},
        seed=4,
    )


def test_example_selection_study_reports_and_ordering():
    data = study_data()
    model = fit_model("plda", data, seed=0)
    out = example_selection_study(
        model, data, per_class_k=2, distractor_scale=0.4, trials=200, seed=0,
        random_subset_count=200,
    )
    assert set(out) >= {
        "selected_indices", "teacher_accuracy", "random_accuracy", "accuracy_gap",
        "teacher_belief_shift", "random_belief_shift", "selected_log_likelihood",
        "random_log_likelihood_p99", "beats_random_p99", "calibration",
    }
    assert out["teacher_accuracy"] >= out["random_accuracy"]
    assert out["accuracy_gap"] == pytest.approx(
        out["teacher_accuracy"] - out["random_accuracy"]
    )
    assert out["beats_random_p99"] == (
        out["selected_log_likelihood"] > out["random_log_likelihood_p99"]
    )
    again = example_selection_study(
        model, data, per_class_k=2, distractor_scale=0.4, trials=200, seed=0,
        random_subset_count=200,
    )
    assert again == out


def test_studies_raise_the_missing_class_of_the_joint_likelihood():
    # a model class that the data lacks leaves every subset without it
    data = study_data()
    model = fit_model("plda", make_synthetic(
        {"generator": "gaussian-blobs", "classes": 3, "dim": 3, "per_class": 6, "separation": 5.0}, seed=4))
    for study in (example_selection_study, bias_sensitivity_study):
        with pytest.raises(MissingClass, match="no row of class 2"):
            study(model, data, seed=0)


def quantile_cases():
    """Random, tied, single-element, infinite and NaN arrays."""
    rng = np.random.default_rng(0)
    cases = [np.array(case) for case in (
        [0.5], [-3.0], [math.inf], [-math.inf], [math.nan], [-math.inf, math.inf],
        [2.0, 2.0], [1.0, math.nan, -1.0], [-math.inf] * 3 + [1.0], [1.0] + [math.inf] * 3,
    )]
    for n in (*range(2, 40), 99, 100, 101, 199, 200, 201, 1000):
        cases.append(rng.standard_normal(n) * 10.0)
        cases.append(rng.integers(-2, 3, n).astype(float))  # mostly ties
        with_inf = rng.standard_normal(n)
        draw = rng.random(n)
        with_inf[draw < 0.2] = -math.inf
        with_inf[draw > 0.9] = math.inf
        cases.append(with_inf)
    return cases


def test_linear_quantile_equals_np_quantile_to_the_bit():
    for values in quantile_cases():
        for q in (0.99, 0.0, 0.25, 0.5, 0.7, 1.0):
            with np.errstate(invalid="ignore"):  # inf - inf inside np.quantile
                want = np.quantile(values, q)
            got = linear_quantile(values, q)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (values, q, got, want)


def test_median_equals_np_median_to_the_bit():
    for values in quantile_cases():
        if not np.isnan(values).any():
            with np.errstate(invalid="ignore"):  # inf - inf
                want, got = np.median(values), median(values)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (values, got, want)


def test_bias_sweep_raises_favored_mass_and_reports_monotonicity():
    data = study_data()
    model = fit_model("plda", data, seed=0)
    out = bias_sensitivity_study(
        model, data, strengths=(0.0, 5.0, 50.0), per_class_k=2, task_count=50, seed=0
    )
    rows = out["rows"]
    assert [r["strength"] for r in rows] == [0.0, 5.0, 50.0]
    masses = [r["favored_candidate_mass"] for r in rows]
    assert masses[0] < masses[1] <= masses[2]
    accs = [r["accuracy"] for r in rows]
    assert out["monotone_non_increasing"] == all(
        b <= a + 1e-12 for a, b in zip(accs, accs[1:])
    )


def test_bias_sweep_scores_only_the_drawn_subsets_of_a_large_pool(monkeypatch):
    # C(1500, 2) = 1,123,500 subsets per class pool against 20 drawn tasks:
    # a pool table that scored every combination would take minutes here
    data = make_synthetic(
        {"generator": "gaussian-blobs", "classes": 2, "dim": 3, "per_class": 1500, "separation": 5.0}, seed=4)
    model = fit_model("plda", data, seed=0)
    calls = []
    logpdf = learners.plda_class_logpdf
    monkeypatch.setattr(learners, "plda_class_logpdf", lambda *a: calls.append(a) or logpdf(*a))
    strengths = (0.0, 5.0)
    out = bias_sensitivity_study(model, data, strengths=strengths, task_count=20, seed=0)
    # a call scores a stack of row sets, so count the sets
    scored = [rows for _, stack, _ in calls for rows in stack.reshape(-1, 2, 3)]
    assert len(scored) <= 20 * 2 * 2  # tasks x class pools x candidates
    candidates = _plda_candidates(model, 0.4, 0, 0xB1A5, "bias sweep")
    space = SubsetSpace.per_class(data.labels, 2)
    shown = [example_set(row) for row in space.draw(np.random.default_rng((0, 0xA11)), 20).tolist()]
    base = make_plda_learner(model, data)
    for strength, row in zip(strengths, out["rows"]):
        member = PopulationMember(base, 1.0, BiasConfig(strength, candidates, np.array([0.1, 0.9])))
        want = reference_simulate_2afc(SimulatedStudy((member,), candidates, ((0, 1),) * 20), shown, 0)
        assert (row["accuracy"], row["belief_shift"]) == (want.overall_accuracy, want.overall_belief_shift)


def test_strategy_mismatch_study_on_a_constructed_disagreement():
    # selector is nearly indifferent, so it samples all three candidates;
    # its argmax is the one explanation the evaluator cannot use
    cands = [example_set((i,)) for i in range(3)]
    space = EnumeratedSpace(cands)
    sel_table = {cands[0].key(): 0.10, cands[1].key(): 0.05, cands[2].key(): 0.0}
    selector = LearnerModel("sel", lambda theta, x: sel_table[x.key()])

    def eval_ll(theta, x):
        good = x.key() != cands[0].key()
        if theta == C0:
            return math.log(0.9 if good else 0.1)
        return math.log(0.1 if good else 0.9)

    evaluator = LearnerModel("eval", eval_ll)
    out = strategy_mismatch_study(selector, evaluator, (C0, C1), 0, space,
                                  n=4000, burn_in=200, seed=0)
    assert out["max_explanation_value"] == pytest.approx(0.1)
    assert out["sampled_mean_value"] > 0.4
    assert out["sampling_beats_max"] is True
    assert out["sample_count"] == 4000
    assert out["distinct_samples"] == 3

    # when the evaluator shares the selector's taste, committing wins
    def agree_ll(theta, x):
        good = x.key() == cands[0].key()
        if theta == C0:
            return math.log(0.9 if good else 0.1)
        return math.log(0.1 if good else 0.9)

    out = strategy_mismatch_study(selector, LearnerModel("agree", agree_ll),
                                  (C0, C1), 0, space, n=4000, burn_in=200, seed=0)
    assert out["sampling_beats_max"] is False


def test_plda_strategy_mismatch_scores_each_evaluator_pool_once_per_candidate(monkeypatch):
    # the evaluator scores the argmax and the distinct samples through one
    # pool table per candidate, never through its joint likelihood
    data = study_data()
    model = fit_model("plda", data, seed=0)
    want = plda_strategy_mismatch_study(model, data, n=300, burn_in=50, seed=3)
    calls = Counter()

    def counted(base, bias):
        learner = biased_learner(base, bias)

        def log_likelihood(theta, x):
            calls["joint"] += 1
            return learner.log_likelihood(theta, x)

        def block_terms(theta, pools):
            scorers, combine = learner.block_terms(theta, pools)
            return [lambda rows, s=s: calls.update(["pool"]) or s(rows) for s in scorers], combine

        return LearnerModel(learner.description, log_likelihood).factored(block_terms)

    monkeypatch.setattr(studies, "biased_learner", counted)
    assert plda_strategy_mismatch_study(model, data, n=300, burn_in=50, seed=3) == want
    assert calls == Counter(pool=2 * 2)  # class pools x candidates


def reference_strategy_mismatch(selector, evaluator, candidates, target_index, space, n, burn_in, seed):
    """The evaluator's target mass of the argmax and of each sample, one
    explanation at a time, memoized per distinct state."""
    theta = candidates[target_index]
    x_max = teacher.run_strategy(selector, theta, space, "exhaustive-max").explanation
    samples = teacher.run_strategy(
        selector, theta, space, "mh-sample", seed=seed, n=n, burn_in=burn_in
    ).samples

    def evaluator_mass(x):
        return reference_target_mass([evaluator.log_likelihood(c, x) for c in candidates], target_index)

    max_value = evaluator_mass(x_max)
    cache, total = {}, 0.0
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


def test_strategy_mismatch_equals_the_loop_first_reference():
    data = study_data()
    model = fit_model("plda", data, seed=0)
    for seed, k, strength, target in [(0, 2, 1.0, 0), (1, 1, 3.0, 1), (5, 2, 0.5, 1)]:
        candidates = _plda_candidates(model, 0.4, seed, 0xD15, "strategy mismatch study")
        selector = make_plda_learner(model, data)
        evaluator = biased_learner(selector, BiasConfig(strength, candidates, np.array([0.1, 0.9])))
        space = SubsetSpace.per_class(data.labels, k)
        args = (selector, evaluator, candidates, target, space)
        got = strategy_mismatch_study(*args, n=300, burn_in=50, seed=seed)
        assert same_document(got, reference_strategy_mismatch(*args, 300, 50, seed))
        if target == 0:
            named = plda_strategy_mismatch_study(model, data, per_class_k=k, n=300, burn_in=50,
                                                 bias_strength=strength, seed=seed)
            assert same_document(named, got)
