"""Simulated explainee studies: 2AFC runs, target mass, named studies."""

import math

import numpy as np
import pytest

from bayesteach.errors import BadSpec
from bayesteach.learners import BiasConfig
from bayesteach.models import fit_model, make_synthetic
from bayesteach.spaces import EnumeratedSpace
from bayesteach.studies import (
    PopulationMember,
    SimulatedStudy,
    TwoAfcTask,
    _target_mass,
    bias_sensitivity_study,
    example_selection_study,
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


# ---------------------------------------------------------------------------
# 2AFC simulation


def test_indifferent_learner_scores_at_chance():
    member = PopulationMember(pair_learner(-1.0, -1.0))
    task = TwoAfcTask((C0, C1), 0, X, trials=10000)
    report = simulate_2afc(SimulatedStudy((member,), (task,)), seed=0)
    assert report.overall_accuracy == pytest.approx(0.5, abs=0.02)
    assert report.per_task[0]["predicted"] == pytest.approx(0.5)
    assert report.overall_belief_shift == pytest.approx(0.0)
    assert report.trial_count == 10000


def test_confident_learner_is_always_right_or_wrong():
    right = PopulationMember(pair_learner(0.0, -5.0))
    task = TwoAfcTask((C0, C1), 0, X, trials=7)
    report = simulate_2afc(SimulatedStudy((right,), (task,)), seed=3)
    assert report.overall_accuracy == 1.0
    wrong_target = TwoAfcTask((C0, C1), 1, X, trials=7)
    report = simulate_2afc(SimulatedStudy((right,), (wrong_target,)), seed=3)
    assert report.overall_accuracy == 0.0


def test_population_weights_mix_members():
    right = PopulationMember(pair_learner(0.0, -5.0), weight=3.0)
    wrong = PopulationMember(pair_learner(-5.0, 0.0), weight=1.0)
    task = TwoAfcTask((C0, C1), 0, X, trials=4)
    report = simulate_2afc(SimulatedStudy((right, wrong), (task,)), seed=0)
    assert report.overall_accuracy == pytest.approx(0.75)


def test_task_weighting_is_by_trials():
    member = PopulationMember(pair_learner(0.0, -5.0))
    many_right = TwoAfcTask((C0, C1), 0, X, trials=90)
    few_wrong = TwoAfcTask((C0, C1), 1, X, trials=10)
    report = simulate_2afc(SimulatedStudy((member,), (many_right, few_wrong)), seed=0)
    assert report.overall_accuracy == pytest.approx(0.9)


def test_biased_member_shifts_belief_from_its_prior():
    bias = BiasConfig(2.0, (C0, C1), np.array([0.9, 0.1]))
    member = PopulationMember(pair_learner(-1.0, -1.0), bias=bias)
    task = TwoAfcTask((C0, C1), 0, X, trials=1)
    report = simulate_2afc(SimulatedStudy((member,), (task,)), seed=0)
    predicted = report.per_task[0]["predicted"]
    assert predicted > 0.9  # strength 2 sharpens the 0.9 prior
    assert report.overall_belief_shift == pytest.approx(predicted - 0.9)


def test_simulation_is_seed_deterministic_and_order_free():
    member = PopulationMember(pair_learner(-1.0, -1.0))
    tasks = tuple(TwoAfcTask((C0, C1), 0, X, trials=11) for _ in range(4))
    a = simulate_2afc(SimulatedStudy((member,), tasks), seed=5)
    b = simulate_2afc(SimulatedStudy((member,), tasks), seed=5)
    assert a.to_dict() == b.to_dict()


def test_calibration_bins_cover_predictions():
    members = (
        PopulationMember(pair_learner(math.log(0.25), math.log(0.75))),
        PopulationMember(pair_learner(math.log(0.85), math.log(0.15))),
    )
    task = TwoAfcTask((C0, C1), 0, X, trials=20)
    report = simulate_2afc(SimulatedStudy(members, (task,)), seed=0)
    bins = report.calibration["bins"]
    assert len(bins) == 10
    assert bins[2]["count"] == 1 and bins[2]["predicted_mean"] == pytest.approx(0.25)
    assert bins[8]["count"] == 1 and bins[8]["predicted_mean"] == pytest.approx(0.85)
    empty = [b for b in bins if b["count"] == 0]
    assert all(b["predicted_mean"] is None for b in empty)


def test_study_validation():
    with pytest.raises(BadSpec):
        TwoAfcTask((C0, C1, C0), 0, X)
    with pytest.raises(BadSpec):
        TwoAfcTask((C0, C1), 2, X)
    with pytest.raises(BadSpec):
        TwoAfcTask((C0, C1), 0, X, trials=0)
    member = PopulationMember(pair_learner(0, 0), weight=0.0)
    with pytest.raises(BadSpec):
        SimulatedStudy((member,), (TwoAfcTask((C0, C1), 0, X),))
    with pytest.raises(BadSpec):
        SimulatedStudy((), (TwoAfcTask((C0, C1), 0, X),))


# ---------------------------------------------------------------------------
# target mass


def test_target_mass_is_normalized_mass():
    log_liks = [math.log(0.3), math.log(0.7)]
    assert _target_mass(log_liks, 0) == pytest.approx(0.3)
    assert _target_mass(log_liks, 1) == pytest.approx(0.7)
    assert _target_mass([-math.inf, -math.inf], 0) == 0.5


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
