"""The uniform strategy runner and its space compatibility rules."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from bayesteach.core import teacher_posterior
from bayesteach import oracle
from bayesteach.errors import AllZeroMass, BadSpec, DimensionMismatch, StrategySpaceMismatch
from bayesteach.explainers import explain_by_examples, rise_saliency
from bayesteach.learners import (
    make_masked_prediction_learner,
    make_nearest_class_learner,
    make_plda_learner,
)
from bayesteach.models import fit_model
from bayesteach.spaces import EnumeratedSpace, MaskSpace, SubsetSpace
from bayesteach.teacher import STRATEGIES, run_strategy
from bayesteach.types import (
    ExplanationKind,
    LearnerModel,
    TargetInference,
    ThetaKind,
    example_set,
)

THETA = TargetInference(ThetaKind.PREDICTED_LABEL, 0)


def additive_learner(row_scores):
    # log-likelihood separable across chosen rows: greedy is exact here
    def ll(theta, x):
        return math.fsum(row_scores[i] for i in x.payload)

    return LearnerModel("additive", ll)


def test_greedy_equals_exhaustive_on_a_separable_objective(rng):
    scores = dict(enumerate(rng.normal(size=12)))
    labels = np.repeat([0, 1, 2], 4)
    space = SubsetSpace.per_class(labels, 2)
    learner = additive_learner(scores)
    greedy = run_strategy(learner, THETA, space, "greedy")
    exact = run_strategy(learner, THETA, space, "exhaustive-max")
    assert greedy.explanation.payload == exact.explanation.payload
    trace = greedy.metadata["score_trace"]
    assert trace[-1] == pytest.approx(
        math.fsum(scores[i] for i in greedy.explanation.payload)
    )
    assert len(trace) == 6
    # each step adds the best row left in its class, so picks, in step
    # order, list a class's rows by decreasing score
    picks = greedy.metadata["picks"]
    assert sorted(picks) == sorted(greedy.explanation.payload)
    for c in range(3):
        in_class = [scores[i] for i in picks if labels[i] == c]
        assert in_class == sorted(in_class, reverse=True)


def test_greedy_writes_none_for_steps_before_every_class_is_reached():
    # the learner scores a subset only once it holds a row of each class
    labels = np.repeat([0, 1], 3)
    space = SubsetSpace.per_class(labels, 2)
    learner = LearnerModel(
        "both classes",
        lambda theta, x: -float(sum(x.payload)) if {0, 1} <= set(labels[list(x.payload)]) else -math.inf,
    )
    trace = run_strategy(learner, THETA, space, "greedy").metadata["score_trace"]
    assert trace == [None, None, -4.0, -8.0]
    assert json.loads(json.dumps(trace, allow_nan=False)) == trace


def test_greedy_with_no_scoring_subset_raises_all_zero_mass():
    space = SubsetSpace.per_class(np.repeat([0, 1], 3), 1)
    learner = LearnerModel("nothing", lambda theta, x: -math.inf)
    with pytest.raises(AllZeroMass):
        run_strategy(learner, THETA, space, "greedy")


def test_greedy_breaks_ties_toward_the_lowest_index():
    labels = np.zeros(5, dtype=int)
    space = SubsetSpace.per_class(labels, 2)
    learner = LearnerModel("flat", lambda theta, x: 0.0)
    result = run_strategy(learner, THETA, space, "greedy")
    assert result.explanation.payload == (0, 1)


def test_greedy_requires_a_subset_space():
    learner = LearnerModel("flat", lambda theta, x: 0.0)
    with pytest.raises(StrategySpaceMismatch):
        run_strategy(learner, THETA, MaskSpace(4, 0.5), "greedy")
    cands = [example_set((i,)) for i in range(3)]
    with pytest.raises(StrategySpaceMismatch):
        run_strategy(learner, THETA, EnumeratedSpace(cands), "greedy")


def test_mc_expectation_requires_a_mask_space():
    learner = LearnerModel("flat", lambda theta, x: 0.0)
    labels = np.repeat([0, 1], 3)
    with pytest.raises(StrategySpaceMismatch):
        run_strategy(learner, THETA, SubsetSpace.per_class(labels, 1), "mc-expectation")


def test_unknown_strategy_rejected():
    learner = LearnerModel("flat", lambda theta, x: 0.0)
    with pytest.raises(BadSpec):
        run_strategy(learner, THETA, MaskSpace(3, 0.5), "anneal")
    assert set(STRATEGIES) == {"exhaustive-max", "greedy", "mh-sample", "mc-expectation"}


def test_exhaustive_max_reports_the_posterior_mass():
    cands = [example_set((i,)) for i in range(4)]
    table = {c.key(): float(v) for c, v in zip(cands, [-2.0, -0.5, -1.0, -3.0])}
    learner = LearnerModel("t", lambda theta, x: table[x.key()])
    space = EnumeratedSpace(cands)
    result = run_strategy(learner, THETA, space, "exhaustive-max")
    assert result.explanation.payload == (1,)
    post = teacher_posterior(learner, THETA, space)
    assert result.metadata["posterior_probability"] == pytest.approx(
        float(post.probabilities().max())
    )
    assert result.metadata["support_size"] == 4


def test_mh_sample_trace_statistics():
    cands = [example_set((i,)) for i in range(6)]
    table = {c.key(): float(v) for c, v in zip(cands, [0.0, 1.0, 2.0, 2.5, -1.0, 0.5])}
    learner = LearnerModel("t", lambda theta, x: table[x.key()])
    space = EnumeratedSpace(cands)
    result = run_strategy(learner, THETA, space, "mh-sample", seed=3, n=5000, burn_in=500)
    assert result.samples is not None and len(result.samples) == 5000
    counts = Counter(s.payload for s in result.samples)
    top = max(counts.values())
    assert result.explanation.payload == min(p for p, c in counts.items() if c == top)
    assert result.metadata["distinct_states"] == len(counts) <= 6
    assert result.metadata["mode_frequency"] == top / 5000
    again = run_strategy(learner, THETA, space, "mh-sample", seed=3, n=5000, burn_in=500)
    assert [s.key() for s in again.samples] == [s.key() for s in result.samples]


def reference_mode(chain):
    """The most visited state of a chain of Explanations and its share,
    counted loop by loop; a tie goes to the smallest payload read as a
    tuple of ints. Also returns how many states tie for the top count."""
    counts = {}
    for x in chain:
        key = tuple(int(v) for v in x.payload)
        counts[key] = counts.get(key, 0) + 1
    top = max(counts.values())
    tied = sorted(key for key, c in counts.items() if c == top)
    return tied[0], top / len(chain), len(tied)


def test_mh_sample_reports_the_reference_chain_mode(plda3, blobs3, logistic2, blobs2):
    label = TargetInference(ThetaKind.PREDICTED_LABEL, 1)
    means = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])
    cands = [example_set((i,)) for i in range(6)]
    flat = LearnerModel("flat", lambda theta, x: 0.0 if x.payload[0] < 4 else -1.0)
    cases = [
        (make_nearest_class_learner(blobs3, np.zeros(2)), label, SubsetSpace.per_class(blobs3.labels, 1)),
        (make_nearest_class_learner(blobs3, np.zeros(2)), label, SubsetSpace.per_class(blobs3.labels, [2, 1, 2])),
        (make_plda_learner(plda3, blobs3), means, SubsetSpace.per_class(blobs3.labels, 2)),
        (make_masked_prediction_learner(logistic2, blobs2.features[0]), label, MaskSpace(4, 0.5)),
        (flat, THETA, EnumeratedSpace(cands)),
    ]
    ties = 0
    rates = set()
    for seed in range(8):
        for learner, theta, space in cases:
            n, burn_in = 20 + 7 * seed, seed
            ref, accepted = oracle.mh_reference(learner, theta, space, n, burn_in, seed)
            payload, frequency, tied = reference_mode(ref)
            ties += tied > 1
            rates.add(accepted / (n + burn_in))
            result = run_strategy(learner, theta, space, "mh-sample", seed=seed, n=n, burn_in=burn_in)
            assert tuple(int(v) for v in result.explanation.payload) == payload
            assert result.metadata["mode_frequency"] == frequency
            assert result.metadata["acceptance_rate"] == accepted / (n + burn_in)

        k = 1 + seed % 2
        space = SubsetSpace.per_class(blobs3.labels, k)
        ref, accepted = oracle.mh_reference(make_plda_learner(plda3, blobs3), means, space, 30, 2, seed)
        payload, frequency, _ = reference_mode(ref)
        report = explain_by_examples(plda3, blobs3, k, "mh-sample", seed, mh_steps=30, mh_burn_in=2)
        assert report.indices == payload
        assert report.metadata["mode_frequency"] == frequency
        assert report.metadata["acceptance_rate"] == accepted / 32
        assert report.strategy == "mh"
    assert ties >= 5  # the tie rule was exercised
    assert len(rates) > 10 and 0 < min(rates) < max(rates) <= 1


def test_mc_expectation_matches_exhaustive_mask_average(logistic_grid, grid_image):
    # likelihood-weighted mask average approximates the exact posterior
    # expectation computed over the enumerable mask space
    point = grid_image.features[0]
    learner = make_masked_prediction_learner(logistic_grid, point)
    theta = TargetInference(ThetaKind.PREDICTED_LABEL, 0)

    small = MaskSpace(8, 0.5)  # first 8 pixels only, for enumerability
    masked_learner = LearnerModel(
        "first-8",
        lambda t, x: learner.log_likelihood(
            t,
            _pad_mask(x, grid_image.n_features),
        ),
    )
    post = teacher_posterior(masked_learner, theta, small)
    masks = np.array([m.payload for m in post.support], dtype=float)
    exact = post.probabilities() @ masks

    result = run_strategy(masked_learner, theta, small, "mc-expectation", seed=0, n=20000)
    assert result.explanation.kind is ExplanationKind.SALIENCY_VECTOR
    np.testing.assert_allclose(result.explanation.payload, exact, atol=0.02)
    assert result.stderr is not None and np.all(result.stderr > 0)


def test_mc_expectation_batch_equals_the_per_draw_stream(logistic_grid, grid_image):
    point = grid_image.features[0]
    learner = make_masked_prediction_learner(logistic_grid, point)
    theta = TargetInference(ThetaKind.PREDICTED_LABEL, 1)
    space = MaskSpace(grid_image.n_features, 0.3)

    rng = np.random.default_rng(7)
    draws = [space.initial_state(rng) for _ in range(3000)]
    masks = np.array([d.payload for d in draws], dtype=float)
    assert np.array_equal(space.draw(np.random.default_rng(7), 3000), masks)

    weights = np.array([math.exp(learner.log_likelihood(theta, d)) for d in draws])
    batch = np.exp(learner.batch_log_likelihood(theta, masks))
    np.testing.assert_allclose(batch, weights, rtol=1e-12, atol=0)

    values, stderr = oracle.weighted_mean_and_stderr(masks, weights)
    result = run_strategy(learner, theta, space, "mc-expectation", seed=7, n=3000)
    np.testing.assert_allclose(result.explanation.payload, values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.stderr, stderr, rtol=1e-12, atol=0)
    assert math.isclose(result.metadata["weight_total"], weights.sum(), rel_tol=1e-12)

    # RISE is this search: the masked-prediction learner under mc-expectation
    rise = rise_saliency(logistic_grid, point, n_masks=3000, keep_prob=0.3, seed=7, target_class=1)
    assert np.array_equal(rise.values, result.explanation.payload)
    assert np.array_equal(rise.stderr, result.stderr)


def test_mc_expectation_raises_the_errors_of_the_per_draw_loop(logistic_grid, grid_image):
    point = grid_image.features[0]
    learner = make_masked_prediction_learner(logistic_grid, point)
    unbatched = LearnerModel(learner.description, learner.log_likelihood)
    label = TargetInference(ThetaKind.PREDICTED_LABEL, 0)
    space = MaskSpace(grid_image.n_features, 0.5)
    cases = [
        (label, MaskSpace(grid_image.n_features + 1, 0.5), 50, DimensionMismatch),
        (TargetInference(ThetaKind.PREDICTED_LABEL, 5), space, 50, BadSpec),  # no such class
        (TargetInference(ThetaKind.LATENT_CLASS_MEANS, 0), space, 50, BadSpec),
        (label, space, 0, BadSpec),
    ]
    for theta, space, n, error in cases:
        for search in (learner, unbatched):
            with pytest.raises(error):
                run_strategy(search, theta, space, "mc-expectation", seed=0, n=n)


def _pad_mask(x, full_dim):
    from bayesteach.types import Explanation

    padded = np.zeros(full_dim)
    padded[: len(x.payload)] = np.asarray(x.payload, dtype=float)
    return Explanation(ExplanationKind.FEATURE_MASK, padded)
