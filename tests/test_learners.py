"""Learner models: kernels, subset likelihoods, masking, bias."""

import math

import numpy as np
import pytest

from bayesteach import oracle
from bayesteach.errors import BadSpec, DimensionMismatch, MissingClass
from bayesteach.learners import (
    BiasConfig,
    KernelConfig,
    biased_learner,
    kernel_matrix,
    make_masked_prediction_learner,
    make_mmd_learner,
    make_nearest_class_learner,
    make_plda_learner,
    masked_batch_values,
    median_bandwidth,
    mmd2,
    witness,
)
from bayesteach.models import Dataset, fit_model, plda_posterior_over_means, predict_proba, softmax
from bayesteach.types import (
    Explanation,
    ExplanationKind,
    TargetInference,
    ThetaKind,
    example_set,
)

RBF1 = KernelConfig(1.0)


# ---------------------------------------------------------------------------
# kernels and MMD


def test_kernel_config_validation():
    with pytest.raises(BadSpec):
        KernelConfig(0.0)
    with pytest.raises(BadSpec):
        KernelConfig(-2.0)
    with pytest.raises(BadSpec):  # squares to 0, so the kernel would be 0/0
        KernelConfig(1e-200)


def test_median_bandwidth_resolution(rng):
    X = rng.normal(size=(40, 3))
    resolved = KernelConfig(None).resolve(X)
    assert resolved.bandwidth == pytest.approx(median_bandwidth(X))
    assert resolved.bandwidth > 0
    degenerate = np.zeros((5, 2))
    assert median_bandwidth(degenerate) == 1.0


def test_kernel_matrix_shape_and_bounds(rng):
    A, B = rng.normal(size=(7, 2)), rng.normal(size=(5, 2))
    K = kernel_matrix(A, B, RBF1)
    assert K.shape == (7, 5)
    assert np.all(K > 0) and np.all(K <= 1.0)
    with pytest.raises(DimensionMismatch):
        kernel_matrix(A, rng.normal(size=(5, 3)), RBF1)
    with pytest.raises(BadSpec):
        kernel_matrix(A, A, KernelConfig(None))


def test_kernel_self_similarity_is_exactly_one_at_a_tiny_bandwidth(blobs3):
    # the expansion a² + b² - 2ab leaves self-distances of a few ulps,
    # which a bandwidth of 1e-8 would turn into k(x, x) well below 1
    K = kernel_matrix(blobs3.features, blobs3.features, KernelConfig(1e-8))
    assert np.all(np.diag(K) == 1.0)
    assert np.all(K[~np.eye(blobs3.n_rows, dtype=bool)] == 0.0)


def test_mmd2_of_a_set_with_itself_is_zero(rng):
    X = rng.normal(size=(30, 4))
    assert abs(mmd2(X, X, RBF1)) <= 1e-12


def test_mmd2_is_symmetric_exactly(rng):
    A, B = rng.normal(size=(20, 3)), rng.normal(size=(12, 3))
    assert mmd2(A, B, RBF1) == mmd2(B, A, RBF1)


def test_mmd2_matches_double_loop_oracle():
    rng = np.random.default_rng(17)
    A = rng.normal(size=(100, 2))
    B = rng.normal(size=(100, 2)) + 10.0

    def naive(S, T):
        acc = []
        for s in S:
            for t in T:
                acc.append(math.exp(-float(((s - t) ** 2).sum()) / 2.0))
        return math.fsum(acc) / (len(S) * len(T))

    reference = naive(A, A) + naive(B, B) - 2.0 * naive(A, B)
    assert mmd2(A, B, RBF1) == pytest.approx(reference, abs=1e-6)
    assert mmd2(A, B, RBF1) >= 0


def test_witness_vanishes_when_prototypes_are_the_dataset(rng):
    X = rng.normal(size=(25, 3))
    for point in X[:10]:
        assert abs(witness(point, X, X, RBF1)) <= 1e-12


def test_witness_sign_tracks_coverage(rng):
    data = np.vstack([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 8.0])
    protos = data[:20]  # only the first cloud
    # a point in the uncovered cloud: close to data mass, far from protos
    assert witness(data[25], data, protos, RBF1) > 0


# ---------------------------------------------------------------------------
# PLDA learner


def test_plda_learner_full_subset_is_max(blobs3, plda3, rng):
    learner = make_plda_learner(plda3, blobs3)
    theta = TargetInference(
        ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"]
    )
    n = blobs3.n_rows
    full = learner.log_likelihood(theta, example_set(tuple(range(n))))
    assert plda_posterior_over_means(plda3, blobs3, range(n)) == pytest.approx(full, rel=1e-12)
    for _ in range(50):
        idx = rng.choice(n, size=int(rng.integers(3, n)), replace=False)
        if len(set(blobs3.labels[idx])) < blobs3.class_count:
            continue
        assert learner.log_likelihood(theta, example_set(tuple(idx))) < full


def test_plda_learner_propagates_missing_class(blobs3, plda3):
    learner = make_plda_learner(plda3, blobs3)
    theta = TargetInference(
        ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"]
    )
    with pytest.raises(MissingClass):
        learner.log_likelihood(theta, example_set(tuple(blobs3.class_rows(0))))
    for missing in range(blobs3.class_count):  # first, middle and last class
        rows = [int(blobs3.class_rows(c)[0]) for c in range(blobs3.class_count) if c != missing]
        with pytest.raises(MissingClass, match=f"class {missing}"):
            learner.log_likelihood(theta, example_set(rows))


def test_plda_learner_ignores_rows_of_a_class_the_model_lacks(blobs3):
    # a model of classes 0 and 1 reads a dataset that also holds class 2
    two = blobs3.labels < 2
    model = fit_model("plda", Dataset(blobs3.features[two], blobs3.labels[two], 2), seed=0)
    learner = make_plda_learner(model, blobs3)
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, model.parameters["latent_means"])
    known = [int(i) for c in (0, 1) for i in blobs3.class_rows(c)[:3]]
    extra = [int(i) for i in blobs3.class_rows(2)[:4]]
    want = learner.log_likelihood(theta, example_set(known))
    assert learner.log_likelihood(theta, example_set(extra[:2] + known + extra[2:])) == want


def test_plda_learner_scores_a_permuted_payload_to_the_same_float(blobs3, plda3, rng):
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])
    rows = [int(i) for c in range(3) for i in rng.choice(blobs3.class_rows(c), 3, replace=False)]
    want = make_plda_learner(plda3, blobs3).log_likelihood(theta, example_set(sorted(rows)))
    for _ in range(10):
        # a fresh learner each time, so no memoized class term is reused
        got = make_plda_learner(plda3, blobs3).log_likelihood(theta, example_set(rng.permutation(rows)))
        assert got == want


def test_plda_learner_rejects_wrong_kinds(blobs3, plda3):
    learner = make_plda_learner(plda3, blobs3)
    with pytest.raises(BadSpec):
        learner.log_likelihood(
            TargetInference(ThetaKind.PREDICTED_LABEL, 0), example_set((0, 8, 16))
        )


# ---------------------------------------------------------------------------
# masked prediction learner


def test_masked_identity_mask_recovers_model_probability(logistic_grid, grid_image):
    point = grid_image.features[0]
    full = predict_proba(logistic_grid, point[None, :])[0]
    ones = np.ones(point.shape[0])
    assert masked_batch_values(logistic_grid, point, ones, 0)[0] == (
        pytest.approx(float(full[0]), abs=1e-12)
    )


def test_mask_ratios_track_the_motif(logistic_grid, grid_image):
    # hiding everything except the class motif keeps the prediction;
    # hiding only the motif destroys it
    salient = set(grid_image.metadata["salient_pixels"][0])
    d = grid_image.n_features
    keep_motif = np.array([1.0 if j in salient else 0.0 for j in range(d)])
    hide_motif = 1.0 - keep_motif
    rows = grid_image.class_rows(0)[:10]
    for point in grid_image.features[rows]:
        base = masked_batch_values(logistic_grid, point, np.ones(d), 0)[0]
        kept = masked_batch_values(logistic_grid, point, keep_motif, 0)[0]
        hidden = masked_batch_values(logistic_grid, point, hide_motif, 0)[0]
        assert kept >= 0.9 * base
        assert hidden <= 0.6 * base


def test_masked_learner_log_space_and_kind_checks(logistic_grid, grid_image):
    point = grid_image.features[0]
    learner = make_masked_prediction_learner(logistic_grid, point)
    theta = TargetInference(ThetaKind.PREDICTED_LABEL, 0)
    mask = Explanation(ExplanationKind.FEATURE_MASK, np.ones(point.shape[0]))
    value = learner.log_likelihood(theta, mask)
    assert value == pytest.approx(
        math.log(masked_batch_values(logistic_grid, point, mask.payload, 0)[0])
    )
    with pytest.raises(BadSpec):
        learner.log_likelihood(theta, example_set((0,)))
    with pytest.raises(BadSpec):
        learner.log_likelihood(
            TargetInference(ThetaKind.CLASS_DATA_DISTRIBUTION, (None, 0)), mask
        )


def test_masked_batch_dimension_check(logistic_grid, grid_image):
    point = grid_image.features[0]
    with pytest.raises(DimensionMismatch):
        masked_batch_values(logistic_grid, point, np.ones(3), 0)


def random_net(rng, d):
    W1, W2 = rng.standard_normal((d, 5)), rng.standard_normal((5, 3))
    return lambda X: softmax(np.tanh(np.asarray(X) @ W1) @ W2)


def test_a_background_averages_the_masked_predictions_over_its_rows(rng):
    # the coalition value the oracle computes row by row, feature by feature
    for _ in range(10):
        d = int(rng.integers(2, 8))
        predict = random_net(rng, d)
        point = rng.standard_normal(d)
        background = rng.standard_normal((int(rng.integers(1, 10)), d))
        masks = (rng.random((16, d)) < 0.5).astype(float)
        value = oracle.coalition_value_fn(predict, point, background, 1)
        expected = [value(tuple(np.flatnonzero(mask).tolist())) for mask in masks]
        values = masked_batch_values(predict, point, masks, 1, background)
        np.testing.assert_allclose(values, expected, rtol=1e-14, atol=0)


def test_a_one_row_background_is_that_row_as_baseline_bit_for_bit(rng):
    d = 6
    predict = random_net(rng, d)
    point, row = rng.standard_normal(d), rng.standard_normal(d)
    masks = (rng.random((64, d)) < 0.5).astype(float)
    single = predict(row + masks * (point - row))[:, 2]
    assert np.array_equal(masked_batch_values(predict, point, masks, 2, row), single)
    assert np.array_equal(masked_batch_values(predict, point, masks, 2, row[None, :]), single)
    scalar = predict(0.5 + masks * (point - 0.5))[:, 2]
    assert np.array_equal(masked_batch_values(predict, point, masks, 2, 0.5), scalar)
    with pytest.raises(DimensionMismatch):
        masked_batch_values(predict, point, masks, 2, np.zeros((3, d + 1)))


# ---------------------------------------------------------------------------
# distribution-matching and nearest-class learners


def test_mmd_learner_prefers_representative_subsets(blobs2):
    learner = make_mmd_learner(blobs2, KernelConfig(None))
    reference = blobs2.features
    theta = TargetInference(ThetaKind.CLASS_DATA_DISTRIBUTION, (reference, None))
    both = example_set((0, 1, 20, 21))  # two per class
    one_side = example_set((0, 1, 2, 3))  # class 0 only
    assert learner.log_likelihood(theta, both) > learner.log_likelihood(theta, one_side)


def test_nearest_class_learner_tracks_shown_centroids(blobs3):
    point = blobs3.features[blobs3.class_rows(1)].mean(axis=0)
    learner = make_nearest_class_learner(blobs3, point)
    x = example_set((0, 8, 16))  # one row per class
    scores = [
        learner.log_likelihood(TargetInference(ThetaKind.PREDICTED_LABEL, c), x)
        for c in range(3)
    ]
    assert int(np.argmax(scores)) == 1
    total = math.fsum(math.exp(s) for s in scores)
    assert total == pytest.approx(1.0, abs=1e-9)
    # a label absent from the shown examples gets zero mass
    no_two = example_set((0, 8))
    assert learner.log_likelihood(
        TargetInference(ThetaKind.PREDICTED_LABEL, 2), no_two
    ) == -math.inf


# ---------------------------------------------------------------------------
# confirmation bias


def _two_candidates():
    return (
        TargetInference(ThetaKind.PREDICTED_LABEL, 0),
        TargetInference(ThetaKind.PREDICTED_LABEL, 1),
    )


def test_bias_config_validation():
    cands = _two_candidates()
    for strength in (-1.0, math.nan):
        with pytest.raises(BadSpec):
            BiasConfig(strength, cands, np.array([0.5, 0.5]))
    with pytest.raises(BadSpec):
        BiasConfig(1.0, cands, np.array([0.7, 0.7]))
    with pytest.raises(BadSpec):
        BiasConfig(1.0, cands, np.array([1.0]))


def test_zero_strength_bias_returns_the_base_learner():
    base = LearnerStub()
    bias = BiasConfig(0.0, _two_candidates(), np.array([0.9, 0.1]))
    assert biased_learner(base, bias) is base


class LearnerStub:
    description = "stub"

    @staticmethod
    def log_likelihood(theta, x):
        return -1.0


def test_bias_tilts_likelihood_toward_prior():
    cands = _two_candidates()
    base = LearnerStub()
    x = example_set((0,))
    for gamma in (0.5, 2.0, 10.0):
        bias = BiasConfig(gamma, cands, np.array([0.8, 0.2]))
        tilted = biased_learner(base, bias)
        favored = tilted.log_likelihood(cands[0], x)
        other = tilted.log_likelihood(cands[1], x)
        assert favored - other == pytest.approx(gamma * math.log(0.8 / 0.2))
    with pytest.raises(BadSpec):
        biased_learner(base, BiasConfig(1.0, cands, np.array([0.8, 0.2]))).log_likelihood(
            TargetInference(ThetaKind.PREDICTED_LABEL, 7), x
        )


def test_stronger_bias_gives_favored_candidate_more_posterior_mass():
    cands = _two_candidates()
    base = LearnerStub()
    x = example_set((0,))

    def favored_share(gamma):
        bias = BiasConfig(gamma, cands, np.array([0.9, 0.1]))
        learner = biased_learner(base, bias)
        a = learner.log_likelihood(cands[0], x)
        b = learner.log_likelihood(cands[1], x)
        m = max(a, b)
        return math.exp(a - m) / (math.exp(a - m) + math.exp(b - m))

    shares = [favored_share(g) for g in (0.0, 1.0, 3.0, 9.0)]
    assert all(s2 > s1 for s1, s2 in zip(shares, shares[1:]))
