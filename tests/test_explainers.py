"""The seven explanation builders and their supporting numerics."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from bayesteach import oracle
from bayesteach.checks import TWO_CLUSTER_POINTS
from bayesteach.core import mh_sample, teacher_posterior
from bayesteach.errors import BadSpec, DimensionMismatch, ZeroTotalWeight
from bayesteach.explainers import (
    coalition_rows,
    distill_tree,
    explain_by_examples,
    kernel_shap,
    lime_local,
    mmd_criticisms,
    mmd_prototypes,
    rise_saliency,
    tree_loss_and_grads,
)
from bayesteach.learners import (
    KernelConfig,
    make_masked_prediction_learner,
    make_plda_learner,
    mmd2,
    witness,
)
from bayesteach.models import Dataset, fit_model, make_synthetic, predict_proba
from bayesteach.spaces import EnumeratedSpace, MaskSpace, SubsetSpace
from bayesteach.types import Explanation, ExplanationKind, TargetInference, ThetaKind

# ---------------------------------------------------------------------------
# example selection


def small_blobs():
    return make_synthetic(
        {"generator": "gaussian-blobs", "classes": 2, "dim": 2, "per_class": 5,
         "separation": 5.0},
        seed=3,
    )


def test_per_class_argmax_assembles_the_joint_argmax():
    data = small_blobs()
    model = fit_model("plda", data, seed=0)
    exact = explain_by_examples(model, data, per_class_k=2, strategy="exhaustive-max")
    independent = explain_by_examples(model, data, per_class_k=2, per_class_independent=True)
    # the mean posterior factorizes per class, so both routes land on the
    # same subset
    assert exact.indices == independent.indices
    assert exact.space_size == math.comb(5, 2) ** 2
    assert exact.posterior_probability is not None
    assert 0 < exact.posterior_probability <= 1
    assert set(exact.per_class) == {"0", "1"}
    assert all(len(v) == 2 for v in exact.per_class.values())


def test_mh_strategy_reports_the_chain_mode():
    data = small_blobs()
    model = fit_model("plda", data, seed=0)
    sampled = explain_by_examples(
        model, data, per_class_k=2, strategy="mh-sample", mh_steps=8000, mh_burn_in=800,
        seed=0,
    )
    # rebuild the same chain and take its empirical mode independently;
    # ties go to the lowest index tuple
    learner = make_plda_learner(model, data)
    theta = TargetInference(
        ThetaKind.LATENT_CLASS_MEANS, model.parameters["latent_means"]
    )
    space = SubsetSpace.per_class(data.labels, 2)
    chain = mh_sample(learner, theta, space, 8000, 800, seed=0)
    counts = Counter(s.payload for s in chain)
    top = max(counts.values())
    expected = min(p for p, c in counts.items() if c == top)
    assert sampled.indices == expected
    assert sampled.metadata["mode_frequency"] == pytest.approx(top / len(chain))
    again = explain_by_examples(
        model, data, per_class_k=2, strategy="mh-sample", mh_steps=8000, mh_burn_in=800,
        seed=0,
    )
    assert again.indices == sampled.indices


def test_example_selection_needs_a_plda_model():
    data = small_blobs()
    with pytest.raises(BadSpec):
        explain_by_examples(fit_model("gaussian", data, seed=0), data)
    model = fit_model("plda", data, seed=0)
    with pytest.raises(BadSpec):
        explain_by_examples(model, data, strategy="simulated-annealing")


# ---------------------------------------------------------------------------
# prototypes and criticisms


def two_cluster_dataset():
    labels = np.repeat([0, 1], 6)
    return Dataset(TWO_CLUSTER_POINTS.copy(), labels, 2)


def test_greedy_prototypes_match_exhaustive_and_trace_is_monotone():
    data = two_cluster_dataset()
    kernel = KernelConfig(1.0)
    report = mmd_prototypes(data, 3, kernel)
    assert len(report.indices) == 3
    assert np.all(np.diff(report.mmd2_trace) < 0)

    best, best_val = None, math.inf
    for combo in itertools.combinations(range(data.n_rows), 3):
        v = mmd2(data.features[list(combo)], data.features, kernel)
        if v < best_val - 1e-15:
            best, best_val = combo, v
    assert tuple(sorted(report.indices)) == best
    assert report.mmd2_trace[-1] == pytest.approx(best_val, abs=1e-12)


def test_prototypes_cover_both_clusters():
    data = two_cluster_dataset()
    report = mmd_prototypes(data, 2, KernelConfig(1.0))
    sides = {0 if i < 6 else 1 for i in report.indices}
    assert sides == {0, 1}


def test_prototype_ties_break_to_the_lowest_index():
    flat = Dataset(np.zeros((6, 2)), np.repeat([0, 1], 3), 2)
    report = mmd_prototypes(flat, 2, KernelConfig(1.0))
    assert tuple(report.indices) == (0, 1)


def test_prototype_count_bounds():
    data = two_cluster_dataset()
    with pytest.raises(BadSpec):
        mmd_prototypes(data, 0)
    with pytest.raises(BadSpec):
        mmd_prototypes(data, 13)


def test_criticisms_surface_the_omitted_cluster():
    data = two_cluster_dataset()
    kernel = KernelConfig(1.0)
    protos = [0, 1, 2]  # first cluster only
    report = mmd_criticisms(data, protos, 3, kernel)
    assert all(i >= 6 for i in report.indices)
    resolved = kernel.resolve(data.features)
    for i, w in zip(report.indices, report.witness_values):
        assert w == pytest.approx(
            witness(data.features[i], data.features, data.features[protos], resolved)
        )
        assert w > 0  # under-covered side of the witness


def test_criticism_count_bounds():
    data = two_cluster_dataset()
    with pytest.raises(BadSpec):
        mmd_criticisms(data, [0, 1], 11)


# ---------------------------------------------------------------------------
# RISE


def test_rise_equals_posterior_expected_mask(logistic_grid, grid_image):
    point = grid_image.features[0]
    report = rise_saliency(logistic_grid, point, n_masks=400, seed=4)
    masks = MaskSpace(grid_image.n_features, 0.5).draw(np.random.default_rng(4), 400)
    pool = [
        Explanation(ExplanationKind.FEATURE_MASK, tuple(int(b) for b in row))
        for row in masks
    ]
    learner = make_masked_prediction_learner(logistic_grid, point)
    post = teacher_posterior(
        learner,
        TargetInference(ThetaKind.PREDICTED_LABEL, report.target_class),
        EnumeratedSpace(pool, descriptor="drawn masks"),
    )
    expected = post.probabilities() @ masks
    np.testing.assert_allclose(report.values, expected, atol=1e-12, rtol=0)


def test_rise_highlights_the_motif(logistic_grid, grid_image):
    salient = set(grid_image.metadata["salient_pixels"][0])
    point = grid_image.features[grid_image.class_rows(0)[0]]
    for seed in range(5):
        report = rise_saliency(logistic_grid, point, n_masks=10000, seed=seed,
                               target_class=0)
        motif = np.mean([report.values[j] for j in salient])
        rest = np.mean([report.values[j] for j in range(grid_image.n_features)
                        if j not in salient])
        assert motif > rest


def test_rise_stderr_shrinks_with_more_masks(logistic_grid, grid_image):
    point = grid_image.features[0]
    small = rise_saliency(logistic_grid, point, n_masks=1000, seed=0)
    large = rise_saliency(logistic_grid, point, n_masks=25000, seed=0)
    assert large.stderr.mean() < 0.5 * small.stderr.mean()
    # estimates from disjoint seeds agree within pooled error bars
    other = rise_saliency(logistic_grid, point, n_masks=25000, seed=99)
    pooled = np.sqrt(large.stderr**2 + other.stderr**2)
    assert np.all(np.abs(large.values - other.values) <= 6.0 * pooled)


def test_rise_parameter_validation(logistic_grid, grid_image):
    point = grid_image.features[0]
    with pytest.raises(BadSpec):
        rise_saliency(logistic_grid, point, n_masks=0)
    with pytest.raises(BadSpec):
        rise_saliency(logistic_grid, point, keep_prob=1.0)


@pytest.mark.parametrize("n_masks, rows", [(4000, [1, 4000]), (50_000, [1] + [4096] * 12 + [848])])
def test_rise_calls_the_model_once_per_block_of_masks(logistic_grid, grid_image, n_masks, rows):
    # the call for the target class on the point, then one per block
    calls = []

    def predict(points):
        calls.append(len(points))
        return predict_proba(logistic_grid, points)

    rise_saliency(predict, grid_image.features[0], n_masks=n_masks, seed=0)
    assert calls == rows


def test_weighted_mean_and_stderr_reduce_to_plain_statistics(rng):
    M = rng.normal(size=(400, 3))
    mean, stderr = oracle.weighted_mean_and_stderr(M, np.ones(400))
    np.testing.assert_allclose(mean, M.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(
        stderr, M.std(axis=0) / math.sqrt(400), rtol=1e-10
    )
    with pytest.raises(ZeroTotalWeight):
        oracle.weighted_mean_and_stderr(M, np.zeros(400))


# ---------------------------------------------------------------------------
# kernel SHAP


def tanh_net(d, seed):
    rng = np.random.default_rng(seed)
    W1, b1 = rng.standard_normal((6, d)), rng.standard_normal(6)
    W2, b2 = rng.standard_normal((3, 6)), rng.standard_normal(3)

    def predict(X):
        H = np.tanh(np.atleast_2d(X) @ W1.T + b1)
        logits = H @ W2.T + b2
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    return predict


def test_exact_shap_matches_permutation_oracle(rng):
    for case in range(3):
        d = int(rng.integers(2, 7))
        predict = tanh_net(d, case)
        point = rng.standard_normal(d)
        background = rng.standard_normal((12, d))
        report = kernel_shap(predict, point, background, target_class=1, mode="exact")
        value_fn = oracle.coalition_value_fn(predict, point, background, 1)
        ref = oracle.exact_shapley(value_fn, d)
        np.testing.assert_allclose(report.phi, ref, atol=1e-9, rtol=0)


def test_shap_linear_closed_form(rng):
    d = 6
    w = rng.normal(size=d)

    def predict(X):
        y = np.atleast_2d(X) @ w
        return np.column_stack([1.0 - y, y])

    point = rng.normal(size=d)
    background = rng.normal(size=(30, d))
    mu = background.mean(axis=0)
    for mode in ("exact", "sampled"):
        report = kernel_shap(
            predict, point, background, target_class=1, mode=mode,
            n_samples=2000, seed=0,
        )
        np.testing.assert_allclose(report.phi, w * (point - mu), atol=1e-6, rtol=0)


def test_shap_efficiency(rng):
    d = 7
    predict = tanh_net(d, 5)
    point = rng.standard_normal(d)
    background = rng.standard_normal((10, d))
    for mode in ("exact", "sampled"):
        report = kernel_shap(predict, point, background, target_class=0, mode=mode,
                             n_samples=1500, seed=2)
        assert math.fsum(report.phi) == pytest.approx(
            report.full_value - report.base_value, abs=1e-10
        )


def test_shap_symmetry_and_dummy_axioms(rng):
    # prediction depends on x0 + x1 symmetrically and ignores x3
    def predict(X):
        X = np.atleast_2d(X)
        y = np.tanh(X[:, 0] + X[:, 1]) + 0.5 * X[:, 2]
        return np.column_stack([1.0 - y, y])

    point = np.array([0.7, 0.7, -0.3, 2.5])
    background = rng.normal(size=(20, 4))
    background[:, 1] = background[:, 0]  # keep the symmetric pair exchangeable
    report = kernel_shap(predict, point, background, target_class=1, mode="exact")
    assert report.phi[0] == pytest.approx(report.phi[1], abs=1e-9)
    assert report.phi[3] == pytest.approx(0.0, abs=1e-10)


def test_sampled_coalitions_are_uniform_within_each_size():
    # over all d! orderings of the uniforms each coalition of size s
    # comes up s! (d - s)! times
    d = 5
    orders = np.array(list(itertools.permutations(range(d))), dtype=float)
    for s in range(1, d):
        counts = Counter(tuple(np.flatnonzero(row)) for row in coalition_rows(np.full(len(orders), s), orders))
        assert len(counts) == math.comb(d, s)
        assert set(counts.values()) == {math.factorial(s) * math.factorial(d - s)}


def test_sampled_shap_is_seed_deterministic(rng):
    predict = tanh_net(5, 1)
    point, background = rng.standard_normal(5), rng.standard_normal((4, 5))
    a, b, c = (kernel_shap(predict, point, background, mode="sampled", n_samples=300, seed=seed)
               for seed in (3, 3, 4))
    assert np.array_equal(a.phi, b.phi)
    assert not np.array_equal(a.phi, c.phi)


def test_shap_input_validation(rng):
    predict = tanh_net(3, 0)
    with pytest.raises(DimensionMismatch):
        kernel_shap(predict, np.zeros(3), rng.normal(size=(5, 4)))
    with pytest.raises(BadSpec):
        kernel_shap(predict, np.zeros(3), rng.normal(size=(5, 3)), mode="antithetic")


# ---------------------------------------------------------------------------
# LIME


def boundary_point(model):
    W, b = model.parameters["weights"], model.parameters["bias"]
    w = W[1] - W[0]
    return -(b[1] - b[0]) / float(w @ w) * w, w


def test_lime_recovers_the_logistic_gradient_direction(blobs2):
    model = fit_model("logistic", blobs2, seed=0)
    x0, w = boundary_point(model)
    for seed in range(5):
        report = lime_local(model, x0, probe_count=2000, kernel_width=0.5, seed=seed)
        cos = float(report.weights @ w / (np.linalg.norm(report.weights) * np.linalg.norm(w)))
        angle = math.degrees(math.acos(min(1.0, cos)))
        assert angle <= 5.0
        assert 0.0 <= report.r_squared <= 1.0


def test_lime_matches_linear_weights(linear_fixture):
    data, model = linear_fixture
    w = np.asarray(model.parameters["weights"], dtype=float)
    bias = model.parameters["bias"]
    x0 = (0.5 - bias) / float(w @ w) * w  # probability 0.5, no clipping nearby
    report = lime_local(model, x0, probe_count=5000, kernel_width=0.5, seed=1)
    cos = float(report.weights @ w / (np.linalg.norm(report.weights) * np.linalg.norm(w)))
    assert cos >= 0.999
    assert report.r_squared >= 0.8


def test_lime_parameter_validation(linear_fixture):
    data, model = linear_fixture
    x0 = np.zeros(data.n_features)
    with pytest.raises(BadSpec):
        lime_local(model, x0, probe_count=1)
    with pytest.raises(BadSpec):
        lime_local(model, x0, kernel_width=0.0)


def test_lime_is_seed_deterministic(linear_fixture):
    data, model = linear_fixture
    x0 = np.zeros(data.n_features)
    a = lime_local(model, x0, probe_count=500, seed=8)
    b = lime_local(model, x0, probe_count=500, seed=8)
    assert np.array_equal(a.weights, b.weights) and a.intercept == b.intercept


# ---------------------------------------------------------------------------
# soft tree distillation


def test_tree_gradients_match_finite_differences(rng):
    depth, d, classes, n = 2, 3, 2, 12
    Z = rng.normal(size=(n, d))
    t = rng.uniform(0.1, 1.0, (n, classes))
    targets = t / t.sum(axis=1, keepdims=True)
    weights = rng.uniform(0.5, 1.5, n)
    n_inner = 2**depth - 1
    params = {
        "W": rng.normal(size=(n_inner, d)),
        "b": rng.normal(size=n_inner),
        "T": np.abs(rng.normal(size=n_inner)) + 0.5,
        "L": rng.normal(size=(2**depth, classes)),
    }
    for beta in (0.0, 0.25):
        _, _, _, grads = tree_loss_and_grads(params, Z, targets, weights, beta, depth)
        for key in params:
            flat = params[key].reshape(-1)
            for slot in range(flat.size):
                h = 1e-6
                saved = flat[slot]
                flat[slot] = saved + h
                up, _, _, _ = tree_loss_and_grads(params, Z, targets, weights, beta, depth)
                flat[slot] = saved - h
                dn, _, _, _ = tree_loss_and_grads(params, Z, targets, weights, beta, depth)
                flat[slot] = saved
                fd = (up - dn) / (2 * h)
                assert grads[key].reshape(-1)[slot] == pytest.approx(fd, abs=2e-5)


def reference_route(Z, W, b, T):
    """Reach probabilities filled node by node."""
    n_inner = b.shape[0]
    pre = Z @ W.T + b
    with np.errstate(over="ignore"):
        gates = 1.0 / (1.0 + np.exp(-T * pre))
    reach = np.ones((Z.shape[0], 2 * n_inner + 1))
    for i in range(n_inner):
        reach[:, 2 * i + 1] = reach[:, i] * gates[:, i]
        reach[:, 2 * i + 2] = reach[:, i] * (1.0 - gates[:, i])
    return pre, gates, reach


def reference_loss_and_grads(params, Z, targets, sample_weights, beta, depth):
    """The soft-tree loss and gradients with a loop over the nodes for
    the entropy term and another, from the last node up, for the
    backward pass through the routing."""
    W, b, T, L = params["W"], params["b"], params["T"], params["L"]
    n_inner = 2**depth - 1
    w_total = float(sample_weights.sum())
    pre, gates, reach = reference_route(Z, W, b, T)
    P = reach[:, n_inner:]
    shifted = L - L.max(axis=1, keepdims=True)
    expL = np.exp(shifted)
    Q = expL / expL.sum(axis=1, keepdims=True)
    pi = np.clip(P @ Q, 1e-300, None)
    safe_t = np.clip(targets, 1e-300, None)
    kl_per = np.sum(targets * (np.log(safe_t) - np.log(pi)), axis=1)
    kl = float(sample_weights @ kl_per / w_total)

    reach_mass = sample_weights @ reach[:, :n_inner]
    gate_mass = sample_weights @ (reach[:, :n_inner] * gates)
    ok = reach_mass > 0
    alpha = np.where(ok, gate_mass / np.where(ok, reach_mass, 1.0), 0.5)
    a = np.clip(alpha, 1e-12, 1.0 - 1e-12)
    entropies = -a * np.log(a) - (1 - a) * np.log1p(-a)
    slopes = np.log1p(-a) - np.log(a)
    gate_entropy = float(np.where(ok, entropies, 0.0).mean())
    loss = kl - beta * gate_entropy

    dpi = (sample_weights / w_total)[:, None] * (-targets / pi)
    dQ = P.T @ dpi
    dL = Q * (dQ - (dQ * Q).sum(axis=1, keepdims=True))
    grad_reach = np.zeros_like(reach)
    grad_reach[:, n_inner:] = dpi @ Q.T
    grad_gates = np.zeros_like(gates)
    ent_scale = -beta / n_inner
    for i in range(n_inner):
        if ok[i]:
            coeff = ent_scale * slopes[i] / reach_mass[i]
            grad_gates[:, i] += coeff * sample_weights * reach[:, i]
            grad_reach[:, i] += coeff * sample_weights * (gates[:, i] - alpha[i])
    for i in reversed(range(n_inner)):
        gl = grad_reach[:, 2 * i + 1]
        gr = grad_reach[:, 2 * i + 2]
        grad_reach[:, i] += gl * gates[:, i] + gr * (1.0 - gates[:, i])
        grad_gates[:, i] += reach[:, i] * (gl - gr)
    sig_slope = grad_gates * gates * (1.0 - gates)
    dpre = sig_slope * T
    grads = {"W": dpre.T @ Z, "b": dpre.sum(axis=0), "T": (sig_slope * pre).sum(axis=0), "L": dL}
    return loss, kl, gate_entropy, grads, reach_mass


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def tree_case(rng, depth, saturated):
    n, d, classes = 17, 3, 3
    Z = rng.normal(size=(n, d))
    t = rng.uniform(0.0, 1.0, (n, classes))
    t[0, 0] = 0.0  # a zero target probability
    weights = rng.uniform(0.5, 1.5, n)
    weights[:2] = 0.0
    n_inner = 2**depth - 1
    params = {
        "W": rng.normal(size=(n_inner, d)),
        "b": rng.normal(size=n_inner),
        "T": np.abs(rng.normal(size=n_inner)) + 0.5,
        "L": rng.normal(size=(2**depth, classes)),
    }
    if saturated:
        # the root's gate is exactly 1 and its left child's exactly 0, so
        # from depth 2 on whole subtrees have zero reach mass
        params["b"][0] = 1e4
        if n_inner > 1:
            params["b"][1] = -1e4
    return params, Z, t / t.sum(axis=1, keepdims=True), weights


def test_tree_loss_and_grads_equal_the_per_node_loops_to_the_bit(rng):
    zero_mass_seen = False
    for depth in range(1, 6):
        for saturated in (False, True):
            params, Z, targets, weights = tree_case(rng, depth, saturated)
            for beta in (0.0, 0.7):
                *want, grads_want, reach_mass = reference_loss_and_grads(
                    params, Z, targets, weights, beta, depth)
                *got, grads = tree_loss_and_grads(params, Z, targets, weights, beta, depth)
                assert all(same_bits(g, w) for g, w in zip(got, want)), (depth, saturated, beta)
                for key in params:
                    assert same_bits(grads[key], grads_want[key]), (depth, saturated, beta, key)
                zero_mass_seen |= bool(np.any(reach_mass == 0))
    assert zero_mass_seen


def reference_distill(model, points, depth, beta, seed, epochs, learning_rate):
    """``distill_tree`` with Adam stepping each parameter array apart."""
    targets = predict_proba(model, points)
    Z = (points - points.mean(axis=0)) / points.std(axis=0)
    rng = np.random.default_rng(seed)
    n_inner, d, classes = 2**depth - 1, points.shape[1], targets.shape[1]
    params = {
        "W": 0.5 * rng.standard_normal((n_inner, d)),
        "b": 0.1 * rng.standard_normal(n_inner),
        "T": np.ones(n_inner),
        "L": 0.1 * rng.standard_normal((2**depth, classes)),
    }
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    weights = np.ones(points.shape[0])
    trace = []
    for step in range(1, epochs + 1):
        loss, _, _, grads, _ = reference_loss_and_grads(params, Z, targets, weights, beta, depth)
        trace.append(loss)
        for k in params:
            m[k] = beta1 * m[k] + (1 - beta1) * grads[k]
            v[k] = beta2 * v[k] + (1 - beta2) * grads[k] ** 2
            m_hat = m[k] / (1 - beta1**step)
            v_hat = v[k] / (1 - beta2**step)
            params[k] = params[k] - learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    trace.append(reference_loss_and_grads(params, Z, targets, weights, beta, depth)[0])
    return params, trace


def test_flat_vector_adam_equals_per_array_adam_to_the_bit(moons):
    model = fit_model("logistic", moons, seed=0)
    for depth, beta in [(2, 0.0), (3, 0.7)]:
        params, trace = reference_distill(model, moons.features, depth, beta, 4, 50, 0.05)
        report = distill_tree(model, moons.features, depth=depth, beta=beta, seed=4, epochs=50)
        tree = report.tree
        got = {"W": tree.node_weights, "b": tree.node_bias, "T": tree.node_temp, "L": tree.leaf_logits}
        assert all(same_bits(got[k], params[k]) for k in params), (depth, beta)
        assert same_bits(report.loss_trace, trace)


def test_distilled_tree_tracks_the_teacher_model(moons):
    model = fit_model("logistic", moons, seed=0)
    report = distill_tree(model, moons.features, depth=3, beta=0.0, seed=0)
    assert report.final_kl <= 0.05
    assert len(report.loss_trace) == 801


def test_entropy_prior_raises_gate_entropy(moons):
    model = fit_model("logistic", moons, seed=0)
    for seed in range(3):
        plain = distill_tree(model, moons.features, depth=2, beta=0.0, seed=seed,
                             epochs=300)
        priored = distill_tree(model, moons.features, depth=2, beta=0.1, seed=seed,
                               epochs=300)
        assert priored.gate_entropy > plain.gate_entropy


def test_tree_outputs_valid_distributions(moons, rng):
    model = fit_model("logistic", moons, seed=0)
    tree = distill_tree(model, moons.features, depth=3, seed=0, epochs=100).tree
    X = rng.normal(size=(1000, 2))
    P = tree.predict_proba(X)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12, rtol=0)
    assert np.all(P >= 0)


def test_distill_parameter_validation(moons):
    model = fit_model("logistic", moons, seed=0)
    with pytest.raises(BadSpec):
        distill_tree(model, moons.features, depth=0)
    with pytest.raises(BadSpec):
        distill_tree(model, moons.features, beta=-0.1)
    with pytest.raises(BadSpec):
        distill_tree(model, moons.features, sample_weights=np.zeros(moons.n_rows))
