"""Synthetic generators, the four model families, and checkpoint round trips."""

import itertools
import json
import math
from dataclasses import field

import numpy as np
import pytest

from bayesteach.errors import BadSpec, DimensionMismatch, MissingClass, NonFiniteResult
from bayesteach.models import (
    Dataset,
    fit_model,
    inspect_model,
    jsonable,
    load_csv,
    load_model,
    make_synthetic,
    mean_posterior_logpdf,
    model_from_dict,
    plda_posterior_over_means,
    predict_proba,
    save_csv,
    save_model,
)
from bayesteach.types import ThetaKind, record

# ---------------------------------------------------------------------------
# generators


def test_blob_means_are_equidistant_at_separation():
    for classes, dim, sep in [(2, 2, 4.0), (3, 2, 6.0), (4, 5, 2.5)]:
        data = make_synthetic(
            {"generator": "gaussian-blobs", "classes": classes, "dim": dim,
             "per_class": 3, "separation": sep},
            seed=0,
        )
        means = np.asarray(data.metadata["means"])
        for i, j in itertools.combinations(range(classes), 2):
            assert math.isclose(np.linalg.norm(means[i] - means[j]), sep, rel_tol=1e-9)


def test_blobs_reject_too_few_dimensions():
    with pytest.raises(BadSpec):
        make_synthetic(
            {"generator": "gaussian-blobs", "classes": 4, "dim": 2, "per_class": 2},
            seed=0,
        )


def test_generators_are_seed_deterministic():
    spec = {"generator": "two-moons", "n": 50, "noise": 0.2}
    a = make_synthetic(spec, seed=9)
    b = make_synthetic(spec, seed=9)
    c = make_synthetic(spec, seed=10)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_grid_image_motifs_are_bright_and_disjoint(grid_image):
    salient = grid_image.metadata["salient_pixels"]
    sets = [set(v) for v in salient.values()]
    assert not (sets[0] & sets[1])
    for c, pixels in salient.items():
        rows = grid_image.class_rows(int(c))
        on_motif = grid_image.features[np.ix_(rows, list(pixels))].mean()
        background = np.delete(grid_image.features[rows], list(pixels), axis=1).mean()
        assert on_motif > background + 0.5


def test_unknown_generator_rejected():
    with pytest.raises(BadSpec):
        make_synthetic({"generator": "checkerboard"}, seed=0)


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip(tmp_path, blobs3):
    path = tmp_path / "blobs.csv"
    save_csv(blobs3, str(path))
    back = load_csv(str(path), label_column="label")
    assert back.class_count == blobs3.class_count
    np.testing.assert_allclose(back.features, blobs3.features, atol=1e-12, rtol=0)
    assert np.array_equal(back.labels, blobs3.labels)
    header = path.read_text().splitlines()[0]
    assert "label" in header.split(",")


def test_csv_missing_label_column(tmp_path, blobs3):
    path = tmp_path / "blobs.csv"
    save_csv(blobs3, str(path))
    with pytest.raises(BadSpec):
        load_csv(str(path), label_column="target")


# ---------------------------------------------------------------------------
# fits and predictions


def test_fits_are_reproducible_bit_for_bit(blobs3, moons):
    for family, data, config in [
        ("gaussian", blobs3, {}),
        ("logistic", moons, {"epochs": 50}),
        ("mlp", moons, {"epochs": 30, "hidden": 8}),
        ("plda", blobs3, {}),
    ]:
        a = fit_model(family, data, config, seed=4)
        b = fit_model(family, data, config, seed=4)
        assert json.dumps(jsonable(a), sort_keys=True) == json.dumps(
            jsonable(b), sort_keys=True
        )


def test_gaussian_peaks_at_class_means(blobs3):
    model = fit_model("gaussian", blobs3, seed=0)
    means = model.parameters["means"]
    probs = predict_proba(model, means)
    assert list(np.argmax(probs, axis=1)) == list(range(blobs3.class_count))


def test_logistic_boundary_point_is_half_half(blobs2):
    model = fit_model("logistic", blobs2, seed=0)
    W, b = model.parameters["weights"], model.parameters["bias"]
    w = W[1] - W[0]
    # solve for a point on the boundary: w.x + (b1-b0) = 0
    x = -(b[1] - b[0]) / float(w @ w) * w
    p = predict_proba(model, x[None])[0]
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-9, rtol=0)


def test_probability_vectors_sum_to_one(blobs3, rng):
    for family in ("gaussian", "logistic", "mlp", "plda"):
        model = fit_model(
            family, blobs3, {"epochs": 40} if family in ("logistic", "mlp") else {},
            seed=0,
        )
        X = rng.normal(size=(1000, blobs3.n_features))
        P = predict_proba(model, X)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12, rtol=0)
        assert np.all(P >= 0)


def test_logistic_separates_two_moons(moons):
    model = fit_model("logistic", moons, seed=0)
    acc = float(np.mean(np.argmax(predict_proba(model, moons.features), 1) == moons.labels))
    assert acc >= 0.80


def test_mlp_loss_trace_is_non_increasing(moons):
    model = fit_model("mlp", moons, {"epochs": 200}, seed=0)
    trace = model.parameters["loss_trace"]
    assert len(trace) == 201
    assert np.all(np.diff(trace) <= 1e-12)


def test_predict_dimension_mismatch(blobs3):
    model = fit_model("gaussian", blobs3, seed=0)
    with pytest.raises(DimensionMismatch):
        predict_proba(model, np.zeros(blobs3.n_features + 1)[None])[0]


def test_fit_rejects_unknown_family(blobs3):
    with pytest.raises(BadSpec):
        fit_model("forest", blobs3)


def test_fit_requires_every_class():
    gone = Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 2)
    with pytest.raises(MissingClass):
        fit_model("gaussian", gone)


# ---------------------------------------------------------------------------
# PLDA internals


def test_plda_projection_whitens_within_class_covariance(plda3):
    p = plda3.parameters
    V, s_w = p["projection"], p["within"]
    gram = V.T @ s_w @ V
    np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-8, rtol=0)


@pytest.mark.parametrize("classes, dim", [(2, 2), (3, 2), (3, 4), (4, 5), (5, 5)])
def test_plda_fit_matches_the_generalized_eigenproblem(classes, dim):
    from scipy.linalg import eigh

    for seed in range(5):
        data = make_synthetic(
            {"generator": "gaussian-blobs", "classes": classes, "dim": dim, "per_class": 10}, seed
        )
        p = fit_model("plda", data, seed=0).parameters
        eigvals, eigvecs = eigh(p["between"], p["within"])
        order = np.argsort(eigvals)[::-1][: classes - 1]
        want = eigvecs[:, order]
        # an eigenvector's sign is arbitrary; projection and latent means flip together
        want = want * np.sign(np.sum(want * p["projection"], axis=0))
        np.testing.assert_allclose(p["projection"], want, rtol=0, atol=1e-13 * np.abs(want).max())
        np.testing.assert_allclose(p["psi"], np.maximum(eigvals[order], 1e-8), rtol=1e-13)


def test_plda_fit_with_an_overflowing_scatter_raises_non_finite():
    # one class mean at 1.2e153 squares past the largest float, and
    # eigh cannot converge on the NaN that leaves in the whitened scatter
    features = np.zeros((7, 3))
    features[6, 2] = 1.2116583925090265e153
    data = Dataset(features, np.array([0] * 6 + [1]), 2)
    with pytest.raises(NonFiniteResult, match="between-class scatter is not finite"):
        fit_model("plda", data, seed=0)


def test_feature_count_of_every_family(blobs2):
    for family in ("gaussian", "logistic", "mlp", "plda", "linear"):
        model = fit_model(family, blobs2, seed=0)
        assert inspect_model(model)["feature_count"] == blobs2.n_features == 4


def test_full_subset_maximizes_mean_posterior(blobs3, plda3, rng):
    n = blobs3.n_rows
    full = plda_posterior_over_means(plda3, blobs3, range(n))
    for _ in range(200):
        size = int(rng.integers(blobs3.class_count, n))
        idx = rng.choice(n, size=size, replace=False)
        if any((blobs3.labels[idx] == c).sum() == 0 for c in range(3)):
            continue
        assert plda_posterior_over_means(plda3, blobs3, idx) < full


def test_near_mean_subset_beats_far_outliers(blobs3, plda3):
    near, far = [], []
    for c in range(blobs3.class_count):
        rows = blobs3.class_rows(c)
        center = blobs3.features[rows].mean(axis=0)
        dists = np.linalg.norm(blobs3.features[rows] - center, axis=1)
        near.append(rows[np.argmin(dists)])
        far.append(rows[np.argmax(dists)])
    assert plda_posterior_over_means(plda3, blobs3, near) > plda_posterior_over_means(
        plda3, blobs3, far
    )


def test_subset_missing_a_class_raises(blobs3, plda3):
    only_class_zero = list(blobs3.class_rows(0))
    with pytest.raises(MissingClass):
        plda_posterior_over_means(plda3, blobs3, only_class_zero)
    with pytest.raises(MissingClass):
        plda_posterior_over_means(plda3, blobs3, [])


def _scalar_mean_posterior(observations, prior_var, at):
    # independent scalar-loop conjugate update; no shared code with the
    # vectorized implementation
    total = []
    for j in range(len(at)):
        n = len(observations)
        s = math.fsum(float(o[j]) for o in observations)
        precision = 1.0 / float(prior_var[j]) + n
        post_var = 1.0 / precision
        post_mean = s * post_var
        diff = float(at[j]) - post_mean
        total.append(-0.5 * (math.log(2.0 * math.pi * post_var) + diff * diff / post_var))
    return math.fsum(total)


def test_two_subset_ranking_matches_independent_oracle():
    # ten points, two classes; every cross-class pair is scored and the
    # ranking must match a from-scratch reimplementation of the posterior
    data = make_synthetic(
        {"generator": "gaussian-blobs", "classes": 2, "dim": 3, "per_class": 5,
         "separation": 5.0},
        seed=11,
    )
    model = fit_model("plda", data, seed=0)
    p = model.parameters
    mine, ref, seen_missing = [], [], 0
    for pair in itertools.combinations(range(10), 2):
        if len(set(data.labels[list(pair)])) < 2:
            with pytest.raises(MissingClass):
                plda_posterior_over_means(model, data, pair)
            seen_missing += 1
            continue
        mine.append(plda_posterior_over_means(model, data, pair))
        U = (data.features[list(pair)] - p["center"]) @ p["projection"]
        labels = data.labels[list(pair)]
        score = 0.0
        for c in range(2):
            obs = [U[i] for i in range(2) if labels[i] == c]
            score += _scalar_mean_posterior(obs, p["psi"], p["latent_means"][c])
        ref.append(score)
    assert seen_missing == 20 and len(mine) == 25
    np.testing.assert_allclose(mine, ref, rtol=1e-10)
    assert list(np.argsort(mine)) == list(np.argsort(ref))


def test_mean_posterior_monotone_in_supporting_points(rng):
    # appending an observation exactly at the evaluation point never
    # lowers the posterior density there
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 8))
        obs = rng.normal(size=(n, d))
        prior_var = rng.uniform(0.1, 4.0, d)
        at = rng.normal(size=d)
        before = mean_posterior_logpdf(obs, prior_var, at)
        after = mean_posterior_logpdf(np.vstack([obs, at]), prior_var, at)
        assert after >= before - 1e-12


def test_plda_latent_means_shape_checked(blobs3, plda3):
    wrong = np.zeros((2, 2))
    with pytest.raises(DimensionMismatch):
        plda_posterior_over_means(plda3, blobs3, range(blobs3.n_rows), wrong)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path, blobs3):
    for family in ("gaussian", "logistic", "mlp", "plda"):
        model = fit_model(
            family, blobs3, {"epochs": 30} if family in ("logistic", "mlp") else {},
            seed=2,
        )
        path = tmp_path / f"{family}.json"
        save_model(model, str(path))
        back = load_model(str(path))
        assert back.family == model.family
        assert back.class_count == model.class_count
        X = np.linspace(-1, 1, 5 * blobs3.n_features).reshape(5, -1)
        np.testing.assert_array_equal(predict_proba(back, X), predict_proba(model, X))
        payload = json.loads(path.read_text())
        assert set(payload) == {"family", "class_count", "parameters", "config", "seed"}


def test_jsonable_turns_a_record_into_the_dict_of_its_fields():
    @record
    class Inner:
        kind: ThetaKind
        count: np.int64

    @record
    class Outer:
        inner: Inner
        pair: tuple
        values: np.ndarray = field(repr=False)
        scale: np.float64 = np.float64(0.5)

    doc = jsonable(Outer(Inner(ThetaKind.PREDICTED_LABEL, np.int64(3)), (np.float32(0.25), (1, 2)),
                         np.arange(4).reshape(2, 2)))
    assert doc == {"inner": {"kind": "predicted-label", "count": 3}, "pair": [0.25, [1, 2]],
                   "values": [[0, 1], [2, 3]], "scale": 0.5}
    assert json.loads(json.dumps(doc)) == doc


def test_model_dict_round_trip_preserves_arrays(plda3):
    back = model_from_dict(jsonable(plda3))
    np.testing.assert_array_equal(
        back.parameters["projection"], plda3.parameters["projection"]
    )


def test_inspect_reports_family_and_shapes(plda3):
    info = inspect_model(plda3)
    assert info["family"] == "plda"
    assert info["class_count"] == 3
