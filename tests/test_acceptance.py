"""Acceptance gate: one test per shipped criterion.

Each test measures the quantity the criterion names, prints exactly one
pass/fail line with the observed value and its bound, and asserts.
``pytest tests/test_acceptance.py -v`` gives the per-criterion verdicts;
add ``-s`` to see the measurement lines inline.
"""

import itertools
import json
import math
import sys
import time
from collections import Counter

import numpy as np
import pytest

from bayesteach import cli, oracle
from bayesteach.checks import TWO_CLUSTER_POINTS
from bayesteach.core import mh_sample, select_max, teacher_posterior
from bayesteach.explainers import (
    distill_tree,
    kernel_shap,
    lime_local,
    mmd_criticisms,
    mmd_prototypes,
    rise_saliency,
)
from bayesteach.learners import (
    BiasConfig,
    KernelConfig,
    biased_learner,
    make_masked_prediction_learner,
    make_plda_learner,
    mmd2,
)
from bayesteach.models import Dataset, fit_model, make_synthetic
from bayesteach.spaces import EnumeratedSpace, MaskSpace
from bayesteach.studies import bias_sensitivity_study, example_selection_study
from bayesteach.types import (
    Explanation,
    ExplanationKind,
    LearnerModel,
    TargetInference,
    ThetaKind,
    example_set,
)

MODULE_START = time.monotonic()
THETA = TargetInference(ThetaKind.PREDICTED_LABEL, 0)


def criterion(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} | {detail}"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def table_learner(pairs):
    table = {x.key(): ll for x, ll in pairs}
    return LearnerModel("lookup", lambda theta, x: table[x.key()])


def random_case(rng):
    # mostly small spaces, a tail of large ones up to the |Omega| bound
    if rng.random() < 0.9:
        size = int(rng.integers(2, 401))
    else:
        size = int(rng.integers(1000, 5001))
    cands = [example_set((i,)) for i in range(size)]
    lls = rng.uniform(-30, 2, size)
    priors = rng.uniform(0, 3, size)
    if rng.random() < 0.3:
        lls[rng.integers(0, size, max(1, size // 8))] = -np.inf
    if rng.random() < 0.3:
        priors[rng.integers(0, size, max(1, size // 8))] = 0.0
    if not np.any((priors > 0) & np.isfinite(lls)):
        priors[0], lls[0] = 1.0, -1.0
    learner = table_learner(zip(cands, lls))
    return learner, EnumeratedSpace(cands, prior_weights=priors, descriptor="case")


def test_criterion_01_posterior_matches_oracle():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    worst = 0.0
    for _ in range(500):
        learner, space = random_case(rng)
        post = teacher_posterior(learner, THETA, space)
        support, probs = oracle.exhaustive_posterior(learner, THETA, space)
        assert [s.key() for s in post.support] == [s.key() for s in support]
        worst = max(worst, float(np.max(np.abs(post.probabilities() - probs))))
    elapsed = time.monotonic() - start
    criterion(
        1,
        worst <= 1e-12 and elapsed < 60.0,
        f"max |posterior - oracle| {worst:.2e} (tol 1e-12) over 500 cases, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_selection_consistency():
    rng = np.random.default_rng(1)
    agree = 0
    for _ in range(200):
        learner, space = random_case(rng)
        mine = select_max(teacher_posterior(learner, THETA, space))
        if mine.payload == oracle.best_subset_bruteforce(learner, THETA, space).payload:
            agree += 1

    worst_tv = 0.0
    for seed in (0, 1):
        case_rng = np.random.default_rng(seed)
        size = int(case_rng.integers(10, 51))
        cands = [example_set((i,)) for i in range(size)]
        learner = table_learner(zip(cands, case_rng.uniform(-4, 1, size)))
        space = EnumeratedSpace(cands)
        post = teacher_posterior(learner, THETA, space)
        exact = {s.key(): p for s, p in zip(post.support, post.probabilities())}
        samples = mh_sample(learner, THETA, space, n=200000, burn_in=5000, seed=seed)
        counts = Counter(s.key() for s in samples)
        keys = set(exact) | set(counts)
        tv = 0.5 * sum(
            abs(exact.get(k, 0.0) - counts.get(k, 0) / len(samples)) for k in keys
        )
        worst_tv = max(worst_tv, tv)
    criterion(
        2,
        agree == 200 and worst_tv <= 0.05,
        f"argmax == brute force on {agree}/200 spaces; "
        f"MH total variation {worst_tv:.4f} (tol 0.05) at n=200000",
    )


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


def test_criterion_03_shap_anchor():
    rng = np.random.default_rng(2)
    worst_oracle = worst_eff = 0.0
    for d in (2, 3, 4, 6, 8, 10):
        predict = tanh_net(d, d)
        point = rng.standard_normal(d)
        background = rng.standard_normal((12, d))
        report = kernel_shap(predict, point, background, target_class=1, mode="exact")
        ref = oracle.exact_shapley(
            oracle.coalition_value_fn(predict, point, background, 1), d
        )
        worst_oracle = max(worst_oracle, float(np.max(np.abs(report.phi - ref))))
        worst_eff = max(
            worst_eff,
            abs(report.full_value - report.base_value - math.fsum(report.phi)),
        )

    d = 6
    w = rng.normal(size=d)

    def linear_predict(X):
        y = np.atleast_2d(X) @ w
        return np.column_stack([1.0 - y, y])

    point = rng.standard_normal(d)
    background = rng.standard_normal((40, d))
    closed_form = w * (point - background.mean(axis=0))
    worst_linear = 0.0
    for mode in ("exact", "sampled"):
        report = kernel_shap(
            linear_predict, point, background, target_class=1, mode=mode,
            n_samples=2000, seed=0,
        )
        worst_linear = max(worst_linear, float(np.max(np.abs(report.phi - closed_form))))
        worst_eff = max(
            worst_eff,
            abs(report.full_value - report.base_value - math.fsum(report.phi)),
        )
    criterion(
        3,
        worst_oracle <= 1e-9 and worst_linear <= 1e-6 and worst_eff <= 1e-10,
        f"exact vs oracle max Δ {worst_oracle:.2e} (tol 1e-9, d <= 10); "
        f"linear closed form max Δ {worst_linear:.2e} (tol 1e-6); "
        f"efficiency gap max {worst_eff:.2e} (tol 1e-10)",
    )


def test_criterion_04_rise_identity(logistic_grid, grid_image):
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
    delta = float(np.max(np.abs(report.values - post.probabilities() @ masks)))

    salient = set(grid_image.metadata["salient_pixels"][0])
    probe = grid_image.features[grid_image.class_rows(0)[0]]
    wins = 0
    for seed in range(5):
        rep = rise_saliency(logistic_grid, probe, n_masks=10000, seed=seed,
                            target_class=0)
        motif = np.mean([rep.values[j] for j in salient])
        rest = np.mean([rep.values[j] for j in range(grid_image.n_features)
                        if j not in salient])
        wins += int(motif > rest)
    criterion(
        4,
        delta <= 1e-12 and wins == 5,
        f"posterior-expectation identity max Δ {delta:.2e} (tol 1e-12); "
        f"motif saliency above background on {wins}/5 seeds at N=10000",
    )


def test_criterion_05_mmd_critic(blobs2):
    kernel = KernelConfig(1.0)
    self_mmd = mmd2(blobs2.features, blobs2.features, KernelConfig(2.0))

    data = Dataset(TWO_CLUSTER_POINTS.copy(), np.repeat([0, 1], 6), 2)
    report = mmd_prototypes(data, 3, kernel)
    monotone = bool(np.all(np.diff(report.mmd2_trace) <= 0))
    best, best_val = None, math.inf
    for combo in itertools.combinations(range(data.n_rows), 3):
        v = mmd2(data.features[list(combo)], data.features, kernel)
        if v < best_val - 1e-15:
            best, best_val = combo, v
    greedy_optimal = tuple(sorted(report.indices)) == best

    # prototypes drawn from the first cluster only; criticisms must
    # point at the uncovered second cluster (rows 6..11)
    crit = mmd_criticisms(data, (0, 1, 2), 2, kernel)
    in_omitted = all(i >= 6 for i in crit.indices)
    criterion(
        5,
        self_mmd <= 1e-12 and monotone and greedy_optimal and in_omitted,
        f"mmd2(X,X) {self_mmd:.2e} (tol 1e-12); trace monotone {monotone}; "
        f"greedy == exhaustive {greedy_optimal} (n=12, m=3); "
        f"criticisms in omitted cluster {in_omitted}",
    )


def test_criterion_06_lime(blobs2, linear_fixture):
    model = fit_model("logistic", blobs2, seed=0)
    W, b = model.parameters["weights"], model.parameters["bias"]
    w = W[1] - W[0]
    x0 = -(b[1] - b[0]) / float(w @ w) * w
    worst_angle = 0.0
    for seed in range(5):
        report = lime_local(model, x0, probe_count=2000, kernel_width=0.5, seed=seed)
        cos = float(report.weights @ w
                    / (np.linalg.norm(report.weights) * np.linalg.norm(w)))
        worst_angle = max(worst_angle, math.degrees(math.acos(min(1.0, cos))))

    data, linear = linear_fixture
    lw = np.asarray(linear.parameters["weights"], dtype=float)
    x1 = (0.5 - linear.parameters["bias"]) / float(lw @ lw) * lw
    rep = lime_local(linear, x1, probe_count=5000, kernel_width=0.5, seed=1)
    cosine = float(rep.weights @ lw / (np.linalg.norm(rep.weights) * np.linalg.norm(lw)))
    criterion(
        6,
        worst_angle <= 5.0 and cosine >= 0.999,
        f"logistic gradient angle max {worst_angle:.2f} deg (tol 5 deg, 5 seeds); "
        f"linear cosine {cosine:.6f} (>= 0.999)",
    )


def test_criterion_07_distillation(blobs3):
    model = fit_model("logistic", blobs3, seed=0)
    report = distill_tree(model, blobs3.features, depth=3, beta=0.0, seed=0)
    pairs_ok = True
    entropies = []
    for seed in range(3):
        plain = distill_tree(model, blobs3.features, depth=2, beta=0.0,
                             seed=seed, epochs=300)
        priored = distill_tree(model, blobs3.features, depth=2, beta=0.1,
                               seed=seed, epochs=300)
        entropies.append((plain.gate_entropy, priored.gate_entropy))
        pairs_ok = pairs_ok and priored.gate_entropy >= plain.gate_entropy
    criterion(
        7,
        report.final_kl <= 0.05 and pairs_ok,
        f"depth-3 mean KL {report.final_kl:.5f} nats (tol 0.05) on separated blobs; "
        f"gate entropy beta=0.1 >= beta=0 on {sum(b >= a for a, b in entropies)}/3 "
        f"paired seeds",
    )


def test_criterion_08_example_selection_value():
    data = make_synthetic(
        {"generator": "gaussian-blobs", "classes": 3, "dim": 2,
         "per_class": 6, "separation": 4.0},
        seed=7,
    )
    model = fit_model("plda", data, seed=0)
    result = example_selection_study(
        model, data, trials=2000, random_subset_count=1000, seed=0
    )
    criterion(
        8,
        result["accuracy_gap"] >= 0.10 and result["beats_random_p99"],
        f"2AFC accuracy gap {result['accuracy_gap']:.4f} (>= 0.10 at 2000 trials); "
        f"selected log likelihood {result['selected_log_likelihood']:.3f} >= p99 of "
        f"1000 random subsets {result['random_log_likelihood_p99']:.3f}: "
        f"{result['beats_random_p99']}",
    )


def test_criterion_09_bias_meta_model(plda3, blobs3):
    base = make_plda_learner(plda3, blobs3)
    means = plda3.parameters["latent_means"]
    candidates = (
        TargetInference(ThetaKind.LATENT_CLASS_MEANS, means),
        TargetInference(ThetaKind.LATENT_CLASS_MEANS, means + 0.5),
    )
    identity = biased_learner(
        base, BiasConfig(0.0, candidates, np.array([0.5, 0.5]))
    ) is base

    sweep = bias_sensitivity_study(plda3, blobs3, strengths=(0.0, 5.0, 50.0), seed=0)
    concentration = sweep["rows"][-1]["favored_candidate_mass"]
    criterion(
        9,
        identity and concentration >= 0.99 and sweep["monotone_non_increasing"],
        f"gamma=0 returns the base learner object: {identity}; "
        f"favored-candidate mass at gamma=50: {concentration:.4f} (>= 0.99); "
        f"wrong-prior accuracy non-increasing in gamma: "
        f"{sweep['monotone_non_increasing']}",
    )


def _run_twice(capsys, argv):
    rc1 = cli.main(argv)
    first = capsys.readouterr().out
    rc2 = cli.main(argv)
    second = capsys.readouterr().out
    assert rc1 == rc2 and rc1 == 0, argv
    assert first, argv
    return first == second, first


def test_criterion_10_cli_reproducibility(tmp_path, capsys):
    data = str(tmp_path / "data.csv")
    model = str(tmp_path / "model.json")
    plda = str(tmp_path / "plda.json")
    point = str(tmp_path / "point.csv")
    config = str(tmp_path / "study.json")

    assert cli.main([
        "dataset", "make", "--generator", "gaussian-blobs", "--classes", "2",
        "--dim", "2", "--per-class", "6", "--separation", "4.0", "--seed", "3",
        "--csv", data, "--out", str(tmp_path / "setup.json"),
    ]) == 0
    capsys.readouterr()
    with open(point, "w", encoding="utf-8") as fh:
        fh.write("f0,f1\n0.25,-0.1\n")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({
            "study": "example-selection", "model": plda, "data": data,
            "params": {"per_class_k": 1, "trials": 50, "random_subset_count": 20},
            "thresholds": [],
        }, fh)

    runs = [
        ["dataset", "make", "--generator", "gaussian-blobs", "--classes", "2",
         "--dim", "2", "--per-class", "6", "--separation", "4.0", "--seed", "3",
         "--csv", data],
        ["dataset", "import", "--in", data],
        ["model", "fit", "--data", data, "--family", "logistic", "--seed", "0",
         "--save", model],
        ["model", "fit", "--data", data, "--family", "plda", "--seed", "0",
         "--save", plda],
        ["model", "inspect", "--model", model],
        ["explain", "plda-examples", "--model", plda, "--data", data,
         "--per-class-k", "1", "--strategy", "mh-sample", "--mh-steps", "400",
         "--mh-burn-in", "40", "--seed", "5"],
        ["explain", "mmd-critic", "--data", data, "--prototypes", "2",
         "--criticisms", "1"],
        ["explain", "rise", "--model", model, "--point", point,
         "--masks", "300", "--seed", "0"],
        ["explain", "shap", "--model", model, "--point", point,
         "--background", data, "--class", "1", "--samples", "256", "--seed", "1"],
        ["explain", "lime", "--model", model, "--point", point, "--class", "1",
         "--probes", "300", "--seed", "2"],
        ["explain", "tree-distill", "--model", model, "--data", data,
         "--depth", "2", "--epochs", "40", "--seed", "0"],
        ["explain", "recombine", "--theta", "latent-class-means",
         "--x-kind", "example-set", "--learner", "plda",
         "--strategy", "exhaustive-max", "--model", plda, "--data", data,
         "--param", "per_class_k=1", "--seed", "0"],
        ["study", "run", "--config", config, "--seed", "4"],
        ["oracle", "check", "--suite", "mmd"],
    ]
    stable = 0
    for argv in runs:
        same, _ = _run_twice(capsys, argv)
        stable += int(same)

    threads_stable = 0
    for argv in (runs[5], runs[11]):
        _, one = _run_twice(capsys, argv + ["--threads", "1"])
        _, two = _run_twice(capsys, argv + ["--threads", "2"])
        threads_stable += int(one == two)

    elapsed = time.monotonic() - MODULE_START
    criterion(
        10,
        stable == len(runs) and threads_stable == 2 and elapsed < 600.0,
        f"byte-identical reruns on {stable}/{len(runs)} subcommands; "
        f"thread-count invariance on {threads_stable}/2 threaded subcommands; "
        f"acceptance module elapsed {elapsed:.1f}s (full-suite bound 600s)",
    )
