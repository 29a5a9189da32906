"""Posterior normalization, selection, and sampling against brute force."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesteach import oracle
from bayesteach.core import (
    CHAIN_BLOCK,
    MAX_DRAWS,
    ChainWalk,
    in_order_sum,
    logsumexp,
    mask_expectation,
    mh_sample,
    pool_terms,
    posterior_max,
    sample_posterior,
    select_max,
    teacher_posterior,
)
from bayesteach.errors import (
    AllZeroMass,
    BadSpec,
    DimensionMismatch,
    MissingClass,
    NonFiniteResult,
    NotEnumerable,
    ZeroStartMass,
)
from bayesteach.explainers import explain_by_examples
from bayesteach.learners import (
    BiasConfig,
    KernelConfig,
    biased_learner,
    make_masked_prediction_learner,
    make_mmd_learner,
    make_nearest_class_learner,
    make_plda_learner,
)
from bayesteach.models import Dataset, fit_model, make_synthetic
from bayesteach.spaces import MAX_ENUMERATION, EnumeratedSpace, MaskSpace, SubsetSpace
from bayesteach.teacher import run_strategy
from bayesteach.types import LearnerModel, TargetInference, ThetaKind, example_set

THETA = TargetInference(ThetaKind.PREDICTED_LABEL, 0)


def table_learner(pairs):
    table = {x.key(): ll for x, ll in pairs}
    return LearnerModel("lookup", lambda theta, x: table[x.key()])


def random_case(rng, max_size=400):
    size = int(rng.integers(2, max_size + 1))
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


def test_posterior_matches_oracle_on_randomized_cases(rng):
    for _ in range(500):
        learner, space = random_case(rng)
        post = teacher_posterior(learner, THETA, space)
        ref_support, ref_probs = oracle.exhaustive_posterior(learner, THETA, space)
        assert [s.key() for s in post.support] == [s.key() for s in ref_support]
        np.testing.assert_allclose(post.probabilities(), ref_probs, atol=1e-12, rtol=0)


def test_posterior_probabilities_sum_to_one(rng):
    learner, space = random_case(rng)
    post = teacher_posterior(learner, THETA, space)
    assert math.isclose(float(post.probabilities().sum()), 1.0, abs_tol=1e-12)


def test_zero_prior_elements_are_excluded_from_support():
    cands = [example_set((i,)) for i in range(4)]
    learner = table_learner((c, -1.0) for c in cands)
    space = EnumeratedSpace(cands, prior_weights=[1.0, 0.0, 2.0, 0.0])
    post = teacher_posterior(learner, THETA, space)
    assert [s.payload for s in post.support] == [(0,), (2,)]


def test_weighted_enumerated_space_rejects_duplicate_candidates():
    # the prior of a candidate is looked up by its key, so a weighted
    # duplicate would read another copy's weight
    cands = [example_set((0,)), example_set((1,)), example_set((0,))]
    with pytest.raises(BadSpec, match="distinct"):
        EnumeratedSpace(cands, prior_weights=[5.0, 1.0, 0.0])
    learner = table_learner((c, -1.0) for c in cands)
    post = teacher_posterior(learner, THETA, EnumeratedSpace(cands))
    assert [x.payload for x in post.support] == [(0,), (1,), (0,)]
    np.testing.assert_allclose(post.probabilities(), [1 / 3] * 3, rtol=1e-15)


def test_all_zero_mass_raises():
    cands = [example_set((i,)) for i in range(3)]
    learner = table_learner((c, -math.inf) for c in cands)
    space = EnumeratedSpace(cands)
    with pytest.raises(AllZeroMass):
        teacher_posterior(learner, THETA, space)
    with pytest.raises(AllZeroMass):
        oracle.exhaustive_posterior(learner, THETA, space)


def test_all_zero_prior_raises():
    cands = [example_set((i,)) for i in range(3)]
    learner = table_learner((c, -1.0) for c in cands)
    space = EnumeratedSpace(cands, prior_weights=[0.0, 0.0, 0.0])
    with pytest.raises(AllZeroMass):
        teacher_posterior(learner, THETA, space)


def test_select_max_tie_resolves_to_lowest_index():
    # exactly representable weights force a true tie
    cands = [example_set((i,)) for i in range(5)]
    learner = table_learner((c, 0.0) for c in cands)
    space = EnumeratedSpace(cands, prior_weights=[0.25, 0.5, 0.5, 0.125, 0.5])
    post = teacher_posterior(learner, THETA, space)
    assert select_max(post).payload == (1,)
    assert oracle.best_subset_bruteforce(learner, THETA, space).payload == (1,)


def test_select_max_agrees_with_bruteforce(rng):
    for _ in range(500):
        learner, space = random_case(rng, max_size=200)
        mine = select_max(teacher_posterior(learner, THETA, space))
        assert mine.key() == oracle.best_subset_bruteforce(learner, THETA, space).key()


def test_likelihood_scale_invariance(rng):
    # multiplying every likelihood by a constant cannot move the posterior
    learner, space = random_case(rng)
    base = teacher_posterior(learner, THETA, space)
    shifted = LearnerModel(
        "scaled", lambda theta, x, f=learner.log_likelihood: f(theta, x) + 7.3
    )
    scaled = teacher_posterior(shifted, THETA, space)
    np.testing.assert_allclose(
        base.probabilities(), scaled.probabilities(), rtol=1e-12, atol=0
    )


def test_flat_likelihood_recovers_prior():
    cands = [example_set((i,)) for i in range(6)]
    priors = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    learner = table_learner((c, -2.0) for c in cands)
    space = EnumeratedSpace(cands, prior_weights=priors)
    post = teacher_posterior(learner, THETA, space)
    np.testing.assert_allclose(post.probabilities(), priors / priors.sum(), rtol=1e-13)


def test_sample_posterior_frequencies(rng):
    cands = [example_set((i,)) for i in range(3)]
    learner = table_learner(zip(cands, [0.0, math.log(2.0), math.log(5.0)]))
    space = EnumeratedSpace(cands)
    post = teacher_posterior(learner, THETA, space)
    draws = sample_posterior(post, 40000, seed=7)
    counts = Counter(d.payload for d in draws)
    freqs = np.array([counts[(i,)] / 40000 for i in range(3)])
    np.testing.assert_allclose(freqs, post.probabilities(), atol=0.01)


def test_sample_posterior_is_seed_deterministic(rng):
    learner, space = random_case(rng)
    post = teacher_posterior(learner, THETA, space)
    a = sample_posterior(post, 50, seed=3)
    b = sample_posterior(post, 50, seed=3)
    assert [x.key() for x in a] == [x.key() for x in b]


def tv_distance(exact: dict, counts: Counter, n: int) -> float:
    keys = set(exact) | set(counts)
    return 0.5 * sum(abs(exact.get(k, 0.0) - counts.get(k, 0) / n) for k in keys)


def test_mh_matches_exact_posterior_in_tv(rng):
    for seed in (0, 1):
        case_rng = np.random.default_rng(seed)
        size = int(case_rng.integers(10, 51))
        cands = [example_set((i,)) for i in range(size)]
        lls = case_rng.uniform(-4, 1, size)
        learner = table_learner(zip(cands, lls))
        space = EnumeratedSpace(cands)
        post = teacher_posterior(learner, THETA, space)
        exact = {s.key(): p for s, p in zip(post.support, post.probabilities())}
        samples = mh_sample(learner, THETA, space, n=200000, burn_in=5000, seed=seed)
        counts = Counter(s.key() for s in samples)
        assert tv_distance(exact, counts, len(samples)) <= 0.05


@pytest.mark.parametrize("layout", ["abac", "aaabc", "bacc"])
def test_mh_targets_the_multiset_posterior_with_duplicate_candidates(layout):
    # A candidate with c copies in an unweighted list of N is proposed
    # with probability c/(N-1), so the kernel is not symmetric across
    # distinct candidates; the w'/w test then targets c * w, the posterior
    # teacher_posterior normalizes over the list, summed by candidate.
    # Over 20 seeds per layout at this length the distance stayed at or
    # below 0.0061; the posterior that ignores the copies is 0.15 or more
    # away.
    named = {name: example_set((i,)) for i, name in enumerate("abc")}
    learner = table_learner([(named["a"], 0.0), (named["b"], -1.0), (named["c"], 0.7)])

    def by_key(cands):
        post = teacher_posterior(learner, THETA, EnumeratedSpace(cands))
        summed = Counter()
        for x, p in zip(post.support, post.probabilities()):
            summed[x.key()] += float(p)
        return summed

    samples = mh_sample(learner, THETA, EnumeratedSpace([named[k] for k in layout]),
                        n=100000, burn_in=1000, seed=0)
    counts = Counter(s.key() for s in samples)
    assert tv_distance(by_key([named[k] for k in layout]), counts, len(samples)) <= 0.01
    assert tv_distance(by_key(list(named.values())), counts, len(samples)) > 0.1


def test_mh_zero_start_mass():
    cands = [example_set((i,)) for i in range(3)]
    table = {cands[0].key(): -math.inf, cands[1].key(): -1.0, cands[2].key(): -1.0}
    learner = LearnerModel("t", lambda theta, x: table[x.key()])

    class PinnedStart(EnumeratedSpace):
        def initial_state(self, rng):
            return cands[0]

    space = PinnedStart(cands)
    with pytest.raises(ZeroStartMass):
        mh_sample(learner, THETA, space, n=10, burn_in=0, seed=0)


def test_mh_records_post_burn_in_states_only():
    cands = [example_set((i,)) for i in range(4)]
    learner = table_learner((c, -1.0) for c in cands)
    space = EnumeratedSpace(cands)
    samples = mh_sample(learner, THETA, space, n=123, burn_in=17, seed=5)
    assert len(samples) == 123


def test_subset_space_posterior_against_oracle(blobs3):
    space = SubsetSpace.per_class(blobs3.labels, 1)
    rows = {tuple(sorted(x.payload)) for x in space.elements()}
    assert len(rows) == space.size() == 8**3
    lls = {x.key(): float(-np.sum(np.asarray(x.payload))) for x in space.elements()}
    learner = LearnerModel("t", lambda theta, x: lls[x.key()])
    post = teacher_posterior(learner, THETA, space)
    _, ref_probs = oracle.exhaustive_posterior(learner, THETA, space)
    np.testing.assert_allclose(post.probabilities(), ref_probs, atol=1e-12, rtol=0)


def test_mask_space_enumeration_and_priors():
    space = MaskSpace(3, 0.25)
    masks = list(space.elements())
    assert len(masks) == 8
    total = math.fsum(space.prior_weight(m) for m in masks)
    assert math.isclose(total, 1.0, abs_tol=1e-12)
    heavy = max(masks, key=space.prior_weight)
    assert tuple(heavy.payload) == (0, 0, 0)  # keep_prob < 0.5 favors dropping


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(-20, 2), min_size=2, max_size=40), st.data())
def test_posterior_invariants_property(lls, data):
    cands = [example_set((i,)) for i in range(len(lls))]
    learner = table_learner(zip(cands, lls))
    space = EnumeratedSpace(cands)
    post = teacher_posterior(learner, THETA, space)
    probs = post.probabilities()
    assert math.isclose(float(probs.sum()), 1.0, abs_tol=1e-10)
    assert np.all(probs >= 0)
    # under a uniform prior the likelihood argmax carries maximal mass,
    # up to float rounding when two log-likelihoods nearly tie
    assert probs[int(np.argmax(lls))] >= float(probs.max()) - 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_mh_proposal_symmetry_enumerated(size, seed):
    # forward and reverse proposal probabilities match: uniform over others
    cands = [example_set((i,)) for i in range(size)]
    space = EnumeratedSpace(cands)
    rng = np.random.default_rng(seed)
    x = space.initial_state(rng)
    y = space.propose(x, rng)
    assert y.key() != x.key()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.integers(0, 10_000))
def test_mask_proposal_flips_exactly_one_bit(dim, seed):
    space = MaskSpace(dim, 0.5)
    rng = np.random.default_rng(seed)
    x = space.initial_state(rng)
    y = space.propose(x, rng)
    diff = sum(a != b for a, b in zip(x.payload, y.payload))
    assert diff == 1


# ---------------------------------------------------------------------------
# posterior_max: product route against the joint sweep


def block_learner(ks, terms):
    """A learner whose log likelihood is the sum, in pool order, of one
    term per pool (block terms with the default additive combine); counts
    its joint calls and its block_terms calls."""
    calls = Counter()

    def log_likelihood(theta, x):
        calls["joint"] += 1
        total, start = 0.0, 0
        for term, k in zip(terms, ks):
            total += term(x.payload[start : start + k])
            start += k
        return total

    def block_terms(theta, pools):
        calls["blocks"] += 1
        return terms, None

    return LearnerModel("blocks", log_likelihood).factored(block_terms), calls


def block_case(rng):
    """A random class-factorized subset space: 2-4 classes with
    non-contiguous labels and interleaved rows, unequal k, and a per-class
    term that depends only on the multiset of picked row values, so rows
    with duplicated values give exact ties."""
    while True:
        n_blocks = int(rng.integers(2, 5))
        sizes = [int(s) for s in rng.integers(2, 7, n_blocks)]
        ks = [int(rng.integers(1, min(3, s) + 1)) for s in sizes]
        if math.prod(math.comb(s, k) for s, k in zip(sizes, ks)) <= 3000:
            break
    labels = np.repeat(np.sort(rng.choice(50, n_blocks, replace=False)), sizes)
    rng.shuffle(labels)
    if rng.random() < 0.5:
        values = rng.integers(0, 3, labels.size) * 0.5
    else:
        values = rng.uniform(-1, 1, labels.size)
    space = SubsetSpace.per_class(labels, ks)
    forbidden = set()
    if rng.random() < 0.3:
        forbidden = {int(rng.choice(pool)) for pool, k in zip(space._pools, ks) if k < len(pool)}
    targets = rng.uniform(-1, 1, n_blocks)

    def term(b):
        def score(rows):
            if forbidden & set(rows):
                return -math.inf
            return -0.5 * (math.fsum(values[list(rows)]) - targets[b]) ** 2

        return score

    return space, ks, [term(b) for b in range(n_blocks)]


def test_product_route_matches_the_joint_sweep_and_brute_force(rng):
    ties = 0
    for _ in range(200):
        space, ks, terms = block_case(rng)
        learner, calls = block_learner(ks, terms)
        best = posterior_max(learner, THETA, space)
        assert calls == Counter(blocks=1, joint=1)

        post = teacher_posterior(learner, THETA, space)
        i = int(np.argmax(post.log_weights))
        ties += int(np.sum(post.log_weights == post.log_weights[i]) > 1)
        assert best.explanation.payload == post.support[i].payload
        assert best.explanation == oracle.best_subset_bruteforce(learner, THETA, space)
        assert best.log_weight == post.log_weights[i]
        assert math.isclose(best.probability, post.probabilities()[i], rel_tol=1e-12)
        assert math.isclose(best.log_normalizer, post.log_normalizer, rel_tol=1e-12)
        assert best.support_size == len(post) == space.size()
    assert ties > 20  # the tie rule was exercised


def test_product_route_all_zero_block_raises():
    space = SubsetSpace([[0, 1, 2], [3, 4]], [1, 1])
    terms = [lambda rows: 0.0, lambda rows: -math.inf]
    learner, _ = block_learner([1, 1], terms)
    with pytest.raises(AllZeroMass):
        posterior_max(learner, THETA, space)
    with pytest.raises(AllZeroMass):
        teacher_posterior(learner, THETA, space)


def test_prior_weighted_subset_space_takes_the_joint_route(rng):
    for _ in range(20):
        space, ks, terms = block_case(rng)
        weighted = SubsetSpace(space._pools, ks, prior_fn=lambda x: 1.0 + x.payload[0] % 3)
        learner, calls = block_learner(ks, terms)
        best = posterior_max(learner, THETA, weighted)
        assert calls["blocks"] == 0 and calls["joint"] == weighted.size()
        post = teacher_posterior(learner, THETA, weighted)
        i = int(np.argmax(post.log_weights))
        assert best.explanation == post.support[i]
        assert best.explanation == oracle.best_subset_bruteforce(learner, THETA, weighted)
        assert best.log_weight == post.log_weights[i]
        assert best.probability == post.probabilities()[i]
        assert best.log_normalizer == post.log_normalizer


def test_plda_product_route_agrees_with_the_joint_sweep(plda3, blobs3):
    learner = make_plda_learner(plda3, blobs3)
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])
    space = SubsetSpace.per_class(blobs3.labels, 2)
    best = posterior_max(learner, theta, space)
    post = teacher_posterior(learner, theta, space)
    i = int(np.argmax(post.log_weights))
    assert best.explanation == post.support[i]
    assert best.log_weight == post.log_weights[i]
    assert math.isclose(best.probability, post.probabilities()[i], rel_tol=1e-12)
    assert math.isclose(best.log_normalizer, post.log_normalizer, rel_tol=1e-12)

    # a confirmation-biased learner has no block terms: joint route, same argmax
    other = TargetInference(ThetaKind.LATENT_CLASS_MEANS, -plda3.parameters["latent_means"])
    biased = biased_learner(learner, BiasConfig(0.7, (theta, other), np.array([0.6, 0.4])))
    assert biased.block_terms is None
    joint = posterior_max(biased, theta, space)
    post = teacher_posterior(biased, theta, space)
    i = int(np.argmax(post.log_weights))
    assert joint.explanation == post.support[i] == best.explanation
    assert joint.log_weight == post.log_weights[i]
    assert joint.probability == post.probabilities()[i]
    assert math.isclose(joint.probability, best.probability, rel_tol=1e-12)


def test_plda_block_terms_refuse_pools_that_are_not_single_classes(plda3, blobs3):
    learner = make_plda_learner(plda3, blobs3)
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])
    rows = [blobs3.class_rows(c).tolist() for c in range(3)]
    mixed = [rows[0][:4] + rows[1][:4], rows[0][4:] + rows[1][4:], rows[2]]
    assert learner.block_terms(theta, mixed) is None
    split = [rows[0][:4], rows[0][4:], rows[1], rows[2]]
    assert learner.block_terms(theta, split) is None
    space = SubsetSpace(split, [1, 1, 1, 1])
    best = posterior_max(learner, theta, space)
    assert best.explanation == select_max(teacher_posterior(learner, theta, space))

    # rows of a class the model lacks do not enter the likelihood
    extra = Dataset(
        np.vstack([blobs3.features, blobs3.features[:3]]),
        np.concatenate([blobs3.labels, [3, 3, 3]]),
        4,
    )
    learner = make_plda_learner(plda3, extra)
    space = SubsetSpace.per_class(extra.labels, 1)
    terms, combine = learner.block_terms(theta, space._pools)
    assert len(terms) == 4 and combine is None
    best = posterior_max(learner, theta, space)
    post = teacher_posterior(learner, theta, space)
    i = int(np.argmax(post.log_weights))
    assert best.explanation == post.support[i]
    assert best.log_weight == post.log_weights[i]
    assert math.isclose(best.log_normalizer, post.log_normalizer, rel_tol=1e-12)


def test_product_route_raises_the_errors_of_the_joint_sweep(plda3, blobs3):
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])

    keep = blobs3.labels != 2
    two_classes = Dataset(blobs3.features[keep], blobs3.labels[keep], 3)
    learner = make_plda_learner(plda3, two_classes)
    space = SubsetSpace.per_class(two_classes.labels, 1)
    for search in (posterior_max, teacher_posterior):
        with pytest.raises(MissingClass):
            search(learner, theta, space)
    for independent in (False, True):
        with pytest.raises(MissingClass):
            explain_by_examples(plda3, two_classes, per_class_k=1, per_class_independent=independent)

    learner = make_plda_learner(plda3, blobs3)
    space = SubsetSpace.per_class(blobs3.labels, 1)
    short = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"][:2])
    for search in (posterior_max, teacher_posterior):
        with pytest.raises(DimensionMismatch):
            search(learner, short, space)


def test_product_route_keeps_the_joint_enumeration_limit():
    pools = [range(0, 12), range(12, 24), range(24, 36)]
    space = SubsetSpace(pools, [5, 5, 5])
    assert space.size() > MAX_ENUMERATION
    terms = [lambda rows: 0.0] * 3
    learner, calls = block_learner([5, 5, 5], terms)
    for search in (posterior_max, teacher_posterior):
        with pytest.raises(NotEnumerable):
            search(learner, THETA, space)
    assert not calls

    data = make_synthetic(
        {"generator": "gaussian-blobs", "classes": 3, "dim": 2, "per_class": 12, "separation": 5.0},
        seed=4,
    )
    with pytest.raises(NotEnumerable):
        explain_by_examples(fit_model("plda", data, seed=0), data, per_class_k=5)


# ---------------------------------------------------------------------------
# logsumexp and the array sweep against the per-candidate sweep


def test_logsumexp_equals_scipy_to_the_bit(rng):
    from scipy.special import logsumexp as scipy_logsumexp

    cases = [
        np.array([0.5]),
        np.array([-np.inf]),
        np.full(5, -np.inf),
        np.array([1.0, np.inf, 2.0]),
        np.array([np.inf, np.inf]),
        np.array([-np.inf, 3.0, -np.inf]),
        np.array([2.0, 2.0, 2.0]),
    ]
    for _ in range(2000):
        a = rng.uniform(-50, 50, int(rng.integers(1, 40)))
        if rng.random() < 0.4:
            a[rng.integers(0, a.size, max(1, a.size // 3))] = a.max()  # ties at the max
        if rng.random() < 0.4:
            a[rng.integers(0, a.size, max(1, a.size // 4))] = -np.inf
        if rng.random() < 0.3:
            a = np.round(a)  # ties below the max
        cases.append(a)
    for a in cases:
        want = float(scipy_logsumexp(a))
        got = logsumexp(a)
        assert got == want or (math.isnan(got) and math.isnan(want)), a
        assert logsumexp(a.tolist()) == got or math.isnan(got)
    assert logsumexp([]) == -math.inf


def plain(learner):
    """The same likelihood without batch hooks: the per-candidate sweep."""
    return LearnerModel(learner.description, learner.log_likelihood)


def nearest_case(rng, per_class=None):
    """A small labelled dataset, a point, a wanted class, and a subset
    space: class-factorized with unequal k, or one pool across classes so
    some candidates lack the wanted class; ``per_class`` picks one, None
    either at random."""
    n_classes = int(rng.integers(2, 5))
    dim = int(rng.integers(1, 4))
    sizes = rng.integers(2, 6, n_classes)
    labels = np.repeat(np.arange(n_classes), sizes)
    rng.shuffle(labels)
    features = rng.normal(size=(labels.size, dim)) * rng.uniform(0.1, 10.0)
    if rng.random() < 0.3:
        features = np.round(features)  # duplicate rows give exact ties
    data = Dataset(features, labels, n_classes)
    point = rng.normal(size=dim)
    wanted = int(rng.integers(0, n_classes))
    if per_class if per_class is not None else rng.random() < 0.5:
        ks = [int(rng.integers(1, min(3, s) + 1)) for s in sizes]
        space = SubsetSpace.per_class(labels, ks)
    else:
        space = SubsetSpace([range(labels.size)], [int(rng.integers(1, 4))])
    return data, point, wanted, space


def test_nearest_class_sweeps_match_the_oracle(rng):
    absent = 0
    for _ in range(150):
        data, point, wanted, space = nearest_case(rng)
        learner = make_nearest_class_learner(data, point, float(rng.uniform(0.5, 2.0)))
        theta = TargetInference(ThetaKind.PREDICTED_LABEL, wanted)
        post = teacher_posterior(learner, theta, space)
        ref_support, ref_probs = oracle.exhaustive_posterior(learner, theta, space)
        assert [x.payload for x in post.support] == [x.payload for x in ref_support]
        ref_logs = np.array([learner.log_likelihood(theta, x) for x in ref_support])
        finite = np.isfinite(ref_logs)
        absent += int(not finite.all())
        assert np.array_equal(np.isfinite(post.log_weights), finite)
        np.testing.assert_allclose(post.log_weights[finite], ref_logs[finite], rtol=1e-12, atol=0)
        assert int(np.argmax(post.log_weights)) == int(np.argmax(ref_probs))
        np.testing.assert_allclose(post.probabilities(), ref_probs, rtol=1e-9, atol=1e-300)
        best = posterior_max(learner, theta, space)
        assert best.explanation == oracle.best_subset_bruteforce(learner, theta, space)
    assert absent > 20  # candidates lacking the wanted class were exercised


def softmax_reference(data, point, temperature, wanted, x):
    """The nearest-class log likelihood in probability space: the
    wanted class's share of exp(score) over the classes shown."""
    rows = np.asarray(x.payload)
    classes = sorted(set(data.labels[rows].tolist()))
    if wanted not in classes:
        return -math.inf
    scores = {c: -np.sum((point - data.features[rows[data.labels[rows] == c]].mean(axis=0)) ** 2)
              / temperature for c in classes}
    return math.log(1.0 / math.fsum(math.exp(scores[c] - scores[wanted]) for c in classes))


def test_nearest_class_combine_route_matches_the_joint_sweep(rng):
    ties = absent = 0
    for _ in range(150):
        data, point, wanted, space = nearest_case(rng, per_class=True)
        if rng.random() < 0.1:
            wanted = data.class_count  # no pool holds it
        temperature = float(rng.uniform(0.5, 2.0))
        learner = make_nearest_class_learner(data, point, temperature)
        theta = TargetInference(ThetaKind.PREDICTED_LABEL, wanted)
        terms, combine = learner.block_terms(theta, space._pools)
        assert len(terms) == data.class_count and combine is not None
        if wanted == data.class_count:
            absent += 1
            for search in (posterior_max, teacher_posterior):
                with pytest.raises(AllZeroMass):
                    search(learner, theta, space)
            continue
        best = posterior_max(learner, theta, space)
        post = teacher_posterior(learner, theta, space)
        i = int(np.argmax(post.log_weights))
        ties += int(np.sum(post.log_weights == post.log_weights[i]) > 1)
        assert best.explanation == post.support[i]
        assert best.log_weight == post.log_weights[i]
        assert math.isclose(best.probability, post.probabilities()[i], rel_tol=1e-12)
        assert math.isclose(best.log_normalizer, post.log_normalizer, rel_tol=1e-12)
        assert best.support_size == len(post) == space.size()
        ref = softmax_reference(data, point, temperature, wanted, best.explanation)
        assert math.isclose(best.log_weight, ref, rel_tol=1e-9, abs_tol=1e-12)
    assert ties > 10 and absent > 5


def test_nearest_class_pool_scores_cover_large_k_in_one_dimension(rng):
    # eight or more rows per centroid, far from the point: every exp(score)
    # underflows unless the softmax is shifted by its maximum
    labels = np.repeat([0, 1], [10, 9])
    data = Dataset(rng.normal(size=(19, 1)) * 1e3, labels, 2)
    learner = make_nearest_class_learner(data, np.array([0.1]))
    theta = TargetInference(ThetaKind.PREDICTED_LABEL, 1)
    space = SubsetSpace.per_class(labels, [8, 8])
    best = posterior_max(learner, theta, space)
    ref = teacher_posterior(plain(learner), theta, space)
    i = int(np.argmax(ref.log_weights))
    assert best.explanation == ref.support[i]
    assert best.log_weight == ref.log_weights[i]
    assert math.isclose(best.log_normalizer, ref.log_normalizer, rel_tol=1e-12)
    weight = ChainWalk(learner, theta, space)
    states = [(x.payload[:8], x.payload[8:]) for x in ref.support]
    assert [weight(s) for s in states] == ref.log_weights.tolist()


def test_nearest_class_wanted_class_absent_everywhere_raises(blobs3):
    learner = make_nearest_class_learner(blobs3, np.zeros(2))
    theta = TargetInference(ThetaKind.PREDICTED_LABEL, 7)
    space = SubsetSpace.per_class(blobs3.labels, 1)
    terms, combine = learner.block_terms(theta, space._pools)
    assert combine([t(pool[:1]) for t, pool in zip(terms, space._pools)]) == -math.inf
    for search in (learner, plain(learner)):
        for run in (posterior_max, teacher_posterior):
            with pytest.raises(AllZeroMass):
                run(search, theta, space)
        with pytest.raises(ZeroStartMass):
            mh_sample(search, theta, space, 10, 0, 0)


def test_nearest_class_overflowing_scores_raise_on_every_route(blobs3):
    # a squared distance over this temperature is -inf, and a softmax of
    # -inf scores is NaN
    learner = make_nearest_class_learner(blobs3, np.zeros(2), 1e-320)
    theta = TargetInference(ThetaKind.PREDICTED_LABEL, 1)
    space = SubsetSpace.per_class(blobs3.labels, 1)
    assert learner.block_terms(theta, space._pools)[1] is not None
    searches = [
        lambda: learner.log_likelihood(theta, next(space.elements())),
        lambda: posterior_max(learner, theta, space),  # the combine route
        lambda: posterior_max(plain(learner), theta, space),  # the joint sweep
        lambda: teacher_posterior(learner, theta, space),
        lambda: mh_sample(learner, theta, space, 10, 0, 0),
        lambda: ChainWalk(learner, theta, space)(space.chain_start(np.random.default_rng(0))),
    ]
    for search in searches:
        with pytest.raises(NonFiniteResult, match="temperature 1e-320"):
            search()


def test_nearest_class_block_terms_need_single_class_pools_in_order(blobs3):
    learner = make_nearest_class_learner(blobs3, np.zeros(2))
    theta = TargetInference(ThetaKind.PREDICTED_LABEL, 1)
    rows = [blobs3.class_rows(c).tolist() for c in range(3)]
    for pools in (
        [rows[0][:4] + rows[1][:4], rows[0][4:] + rows[1][4:], rows[2]],  # mixed classes
        [rows[0][:4], rows[0][4:], rows[1], rows[2]],  # one class split
        [rows[2], rows[0], rows[1]],  # classes out of order
    ):
        assert learner.block_terms(theta, pools) is None
        space = SubsetSpace(pools, [1] * len(pools))
        best = posterior_max(learner, theta, space)
        assert best.explanation == select_max(teacher_posterior(learner, theta, space))


def test_plda_array_sweep_weights_equal_the_joint_sweep_to_the_bit(plda3, blobs3):
    # the per-pool routes, chain weights and posterior_max, give the joint
    # likelihood's weights to the bit
    learner = make_plda_learner(plda3, blobs3)
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])
    for k in (1, 2, [1, 3, 2]):
        space = SubsetSpace.per_class(blobs3.labels, k)
        weight = ChainWalk(learner, theta, space)
        ks = space._ks
        for x in space.elements():
            cuts = np.cumsum([0] + ks)
            state = tuple(x.payload[a:b] for a, b in zip(cuts[:-1], cuts[1:]))
            assert weight(state) == learner.log_likelihood(theta, x)
        post = teacher_posterior(plain(learner), theta, space)
        best = posterior_max(learner, theta, space)
        i = int(np.argmax(post.log_weights))
        assert best.explanation == post.support[i]
        assert best.log_weight == post.log_weights[i]
        assert math.isclose(best.log_normalizer, post.log_normalizer, rel_tol=1e-12)

    # pools out of class order would add the terms in another order
    rows = [blobs3.class_rows(c).tolist() for c in (2, 0, 1)]
    assert learner.block_terms(theta, rows) is None
    space = SubsetSpace(rows, [1, 1, 1])
    post = teacher_posterior(learner, theta, space)
    assert np.array_equal(post.log_weights, [learner.log_likelihood(theta, x) for x in post.support])


def test_additive_pool_weights_add_in_order_without_compensation():
    # 1e16 + 1.0 rounds back to 1e16, so in-order addition gives 0.0 where
    # a compensated sum gives 1.0
    assert in_order_sum([1e16, 1.0, -1e16]) == 0.0
    terms = [lambda rows: 1e16, lambda rows: 1.0, lambda rows: -1e16]
    learner, _ = block_learner([1, 1, 1], terms)
    space = SubsetSpace([[0, 1], [2, 3], [4, 5]], [1, 1, 1])
    weight = ChainWalk(learner, THETA, space)
    assert weight(((0,), (2,), (4,))) == learner.log_likelihood(THETA, example_set((0, 2, 4))) == 0.0


def test_array_routes_raise_the_errors_of_the_joint_sweep(blobs3, logistic_grid, grid_image):
    nearest = make_nearest_class_learner(blobs3, np.zeros(2))
    masked = make_masked_prediction_learner(logistic_grid, grid_image.features[0])
    label = TargetInference(ThetaKind.PREDICTED_LABEL, 0)
    means = TargetInference(ThetaKind.LATENT_CLASS_MEANS, np.zeros((3, 1)))
    space = SubsetSpace.per_class(blobs3.labels, 1)
    huge = SubsetSpace([range(0, 12), range(12, 24), range(24, 36)], [5, 5, 5])
    cases = [
        (nearest, means, space, BadSpec),  # wrong target kind
        (masked, label, space, BadSpec),  # example sets to a mask learner
        (nearest, label, huge, NotEnumerable),
    ]
    for learner, theta, where, error in cases:
        for search in (learner, plain(learner)):
            with pytest.raises(error):
                teacher_posterior(search, theta, where)
            with pytest.raises(error):
                posterior_max(search, theta, where)


# ---------------------------------------------------------------------------
# the Metropolis walk against the loop-first reference


def assert_same_chain(learner, theta, space, n, burn_in, seed):
    """The walk and ``oracle.mh_reference`` give the same samples, state
    for state, and accept the same number of proposals, or both raise the
    same error; returns the samples."""
    try:
        ref, accepted = oracle.mh_reference(learner, theta, space, n, burn_in, seed)
    except Exception as exc:  # the walk must fail the same way
        with pytest.raises(type(exc)):
            mh_sample(learner, theta, space, n, burn_in, seed)
        return None
    samples = mh_sample(learner, theta, space, n, burn_in, seed)
    assert len(samples) == len(ref) == n
    assert [s.key() for s in samples] == [x.key() for x in ref]
    assert (samples.accepted, samples.proposals) == (accepted, n + burn_in)
    return samples


def test_mh_walk_replays_the_reference_on_factored_subset_spaces(rng):
    full_pools = moved = zero_start = 0
    for _ in range(120):
        space, ks, terms = block_case(rng)
        learner, calls = block_learner(ks, terms)
        n, burn_in, seed = int(rng.integers(1, 300)), int(rng.integers(0, 30)), int(rng.integers(1 << 30))
        samples = assert_same_chain(learner, THETA, space, n, burn_in, seed)
        if samples is None:
            zero_start += 1
            continue
        full_pools += any(k == len(pool) for pool, k in zip(space._pools, ks))
        moved += len(samples.counts()) > 1
        calls.clear()
        mh_sample(learner, THETA, space, n, burn_in, seed)
        assert calls == Counter(joint=1, blocks=1)  # the start state only, then block terms
    assert full_pools > 10 and moved > 80 and zero_start > 3


def test_mh_walk_replays_the_reference_with_a_prior_and_without_block_terms(rng):
    for i in range(40):
        space, ks, terms = block_case(rng)
        learner, _ = block_learner(ks, terms)
        if i % 2:
            space = SubsetSpace(space._pools, ks, prior_fn=lambda x: float(x.payload[0] % 3))
        else:
            learner = plain(learner)
        assert_same_chain(learner, THETA, space, 200, int(rng.integers(0, 10)), i)


def test_mh_walk_replays_the_reference_for_nearest_class(rng):
    for i in range(30):
        data, point, wanted, space = nearest_case(rng)
        learner = make_nearest_class_learner(data, point, float(rng.uniform(0.5, 2.0)))
        theta = TargetInference(ThetaKind.PREDICTED_LABEL, wanted)
        assert_same_chain(learner, theta, space, 300, 20, i)


def test_nearest_class_chains_combine_pool_terms_as_the_joint_likelihood(rng):
    moved = 0
    for i in range(40):
        data, point, wanted, space = nearest_case(rng, per_class=True)
        learner = make_nearest_class_learner(data, point, float(rng.uniform(0.5, 2.0)))
        theta = TargetInference(ThetaKind.PREDICTED_LABEL, wanted)
        assert learner.block_terms(theta, space._pools)[1] is not None
        samples = assert_same_chain(learner, theta, space, 400, int(rng.integers(0, 20)), i)
        weight = ChainWalk(learner, theta, space)
        for state in samples.counts():
            assert weight(state) == learner.log_likelihood(theta, space.explanation_of(state))
        moved += len(samples.counts()) > 1
    assert moved > 30


def test_mh_walk_replays_the_reference_on_mask_and_enumerated_spaces(rng, logistic_grid, grid_image):
    learner = make_masked_prediction_learner(logistic_grid, grid_image.features[0])
    for label in (0, 1):
        theta = TargetInference(ThetaKind.PREDICTED_LABEL, label)
        for i in range(10):
            space = MaskSpace(grid_image.features.shape[1], float(rng.uniform(0.2, 0.8)))
            assert_same_chain(learner, theta, space, 200, 10, i)
    for i in range(30):
        table, space = random_case(rng, max_size=40)
        assert_same_chain(table, THETA, space, 300, int(rng.integers(0, 10)), i)


def test_mh_walk_on_plda_sums_the_block_terms_as_the_joint_likelihood(plda3, blobs3):
    learner = make_plda_learner(plda3, blobs3)
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])
    for seed, k in enumerate((1, 2, 3, [1, 3, 2], [4, 1, 2])):
        space = SubsetSpace.per_class(blobs3.labels, k)
        samples = assert_same_chain(learner, theta, space, 2000, 100, seed)
        weight = ChainWalk(learner, theta, space)
        for state in samples.counts():
            assert weight(state) == learner.log_likelihood(theta, samples.space.explanation_of(state))


def test_mh_walk_replays_the_reference_across_draw_blocks(plda3, blobs3, logistic_grid, grid_image):
    # two full blocks and seven more steps, the burn-in ending inside the
    # second block
    burn_in = CHAIN_BLOCK + 100
    n = 2 * CHAIN_BLOCK + 7 - burn_in
    plda = make_plda_learner(plda3, blobs3)
    means = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])
    masked = make_masked_prediction_learner(logistic_grid, grid_image.features[0])
    cases = [
        (plda, means, SubsetSpace.per_class(blobs3.labels, [2, 1, 3])),
        (masked, TargetInference(ThetaKind.PREDICTED_LABEL, 1), MaskSpace(grid_image.features.shape[1], 0.5)),
    ]
    for seed, (learner, theta, space) in enumerate(cases):
        samples = assert_same_chain(learner, theta, space, n, burn_in, seed)
        assert 0 < samples.accepted < n + burn_in


def replayed_proposals(space, samples, seed):
    """The start state and every proposal, in step order, of the seeded
    chain without burn-in whose samples are given, drawn as
    ``oracle.mh_reference`` draws them."""
    rng = np.random.default_rng(seed)
    initial_state, moves, apply = oracle._walk(space)
    start = state = initial_state(rng)
    proposals = []
    for block in range(0, len(samples), CHAIN_BLOCK):
        count = min(CHAIN_BLOCK, len(samples) - block)
        block_moves = moves(rng, count)
        rng.random(count)
        for i, move in enumerate(block_moves):
            proposals.append(apply(state, move))
            state = samples[block + i]
    return start, proposals


def test_mh_walk_needs_no_enumeration():
    pools = [range(0, 12), range(12, 24), range(24, 36)]
    space = SubsetSpace(pools, [5, 5, 5])
    assert space.size() > MAX_ENUMERATION
    terms = [lambda rows, b=b: -0.1 * (sum(rows) - 10 * b) ** 2 / 25 for b in range(3)]
    learner, _ = block_learner([5, 5, 5], terms)
    assert_same_chain(learner, THETA, space, 500, 50, 3)


def test_mh_walk_beyond_the_enumeration_limit_scores_each_proposed_segment_once():
    # three pools of 40 rows, k = 6: C(40,6)^3 > 2^64 states, and records
    # past 2^53, which a float cannot hold exactly
    ks = [6, 6, 6]
    space = SubsetSpace([range(40 * b, 40 * b + 40) for b in range(3)], ks)
    assert space.size() > 2**64 and space.size() > MAX_ENUMERATION

    def term(b):
        def score(rows):
            calls[b, rows] += 1
            return -0.02 * (sum(rows) - 240 * b - 150) ** 2
        return score

    learner, calls = block_learner(ks, [term(b) for b in range(3)])
    n, seed = CHAIN_BLOCK + 900, 5
    samples = assert_same_chain(learner, THETA, space, n, 0, seed)
    assert max(samples.states) > 2**53 and 0.2 < samples.accepted / n < 0.9

    start, proposals = replayed_proposals(space, samples, seed)
    cuts = np.cumsum([0] + ks)
    proposed = {(b, x.payload[cuts[b] : cuts[b + 1]]) for x in proposals for b in range(3)}
    calls.clear()
    mh_sample(learner, THETA, space, n, 0, seed)
    # the start state once by the joint likelihood, then each proposed
    # segment once by its pool term
    expected = Counter(proposed) + Counter(enumerate(space.state_of(start)))
    assert calls == expected + Counter(joint=1, blocks=1)


def counted(learner):
    """The learner, block terms kept, and the list of the explanations
    its joint likelihood is called on."""
    seen = []

    def log_likelihood(theta, x):
        seen.append(x)
        return learner.log_likelihood(theta, x)

    out = LearnerModel(learner.description, log_likelihood)
    return (out if learner.block_terms is None else out.factored(learner.block_terms)), seen


def test_mh_joint_route_scores_the_start_then_each_proposed_state_once(rng, logistic_grid, grid_image):
    # mask, enumerated, prior-weighted subset and plain-learner subset
    # chains weigh proposals by the joint likelihood; a state of zero
    # prior weight is not scored
    masked = make_masked_prediction_learner(logistic_grid, grid_image.features[0])
    checked = Counter()
    for seed in range(48):
        kind = ("mask", "enumerated", "prior", "plain")[seed % 4]
        if kind == "mask":
            theta = TargetInference(ThetaKind.PREDICTED_LABEL, seed // 4 % 2)
            learner, space = masked, MaskSpace(grid_image.features.shape[1], float(rng.uniform(0.2, 0.8)))
        elif kind == "enumerated":
            theta, (learner, space) = THETA, random_case(rng, max_size=40)
        else:
            space, ks, terms = block_case(rng)
            theta, learner = THETA, block_learner(ks, terms)[0]
            if kind == "prior":
                space = SubsetSpace(space._pools, ks, prior_fn=lambda x: float(x.payload[0] % 3))
            else:
                learner = plain(learner)
        assert pool_terms(learner, theta, space) is None
        learner, seen = counted(learner)
        n = int(rng.integers(1, 500))
        samples = assert_same_chain(learner, theta, space, n, 0, seed)
        if samples is None:
            continue
        assert all(type(record) is int for record in samples.states)
        start, proposals = replayed_proposals(space, samples, seed)
        scored = {x for x in proposals if space.log_prior(x) > -math.inf}
        seen.clear()
        mh_sample(learner, theta, space, n, 0, seed)
        assert Counter(seen) == Counter([start]) + Counter(scored)
        checked[kind] += 1
    assert len(checked) == 4 and min(checked.values()) >= 5


def test_mh_walk_raises_the_errors_of_the_reference(plda3, blobs3):
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])
    keep = blobs3.labels != 2
    two_classes = Dataset(blobs3.features[keep], blobs3.labels[keep], 3)
    short = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"][:2])
    cases = [
        (make_plda_learner(plda3, two_classes), theta, SubsetSpace.per_class(two_classes.labels, 1), MissingClass),
        (make_plda_learner(plda3, blobs3), short, SubsetSpace.per_class(blobs3.labels, 1), DimensionMismatch),
    ]
    terms = [lambda rows: 0.0, lambda rows: -math.inf]
    cases.append((block_learner([1, 1], terms)[0], THETA, SubsetSpace([[0, 1, 2], [3, 4]], [1, 1]), ZeroStartMass))
    for learner, th, space, error in cases:
        with pytest.raises(error):
            oracle.mh_reference(learner, th, space, 10, 0, 0)
        with pytest.raises(error):
            mh_sample(learner, th, space, 10, 0, 0)


@pytest.mark.parametrize("n, burn_in", [(0, 10), (-3, 0), (10, -1), (MAX_DRAWS, 1), (1, MAX_DRAWS)])
def test_mh_rejects_bad_chain_lengths(n, burn_in):
    cands = [example_set((i,)) for i in range(3)]
    with pytest.raises(BadSpec):
        mh_sample(table_learner((c, 0.0) for c in cands), THETA, EnumeratedSpace(cands), n, burn_in, 0)


def test_mask_draws_past_the_limit_raise_before_drawing():
    def weigh(masks):
        raise AssertionError("nothing may be drawn or weighed")

    space = MaskSpace(4, 0.5)
    with pytest.raises(BadSpec, match="limit"):
        mask_expectation(space, MAX_DRAWS // 4 + 1, 0, weigh)
    masks, weights, _, _ = mask_expectation(space, 3, 0, lambda m: np.ones(len(m)))
    assert masks.shape == (3, 4) and weights.tolist() == [1.0, 1.0, 1.0]


def test_mh_mode_searches_match_the_reference_counts(plda3, blobs3, logistic_grid, grid_image):
    # short chains leave many states tied for the mode
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])
    learner = make_plda_learner(plda3, blobs3)
    masked = make_masked_prediction_learner(logistic_grid, grid_image.features[0])
    label = TargetInference(ThetaKind.PREDICTED_LABEL, 1)
    mmd = make_mmd_learner(blobs3, KernelConfig(None), 0.5)
    rows = blobs3.class_rows(1)
    reference = TargetInference(ThetaKind.CLASS_DATA_DISTRIBUTION, (blobs3.features[rows], 1))
    for seed in range(20):
        k = 1 + seed % 2
        space = SubsetSpace.per_class(blobs3.labels, k)
        ref, _ = oracle.mh_reference(learner, theta, space, 25, 3, seed)
        counts = Counter(x.payload for x in ref)
        top = max(counts.items(), key=lambda kv: (kv[1], tuple(-i for i in kv[0])))
        report = explain_by_examples(plda3, blobs3, k, "mh-sample", seed, mh_steps=25, mh_burn_in=3)
        assert report.indices == top[0]
        assert report.metadata["mode_frequency"] == top[1] / 25

        searches = [
            (learner, theta, space),
            (masked, label, MaskSpace(grid_image.features.shape[1], 0.5)),
            (mmd, reference, SubsetSpace([rows.tolist()], [k + 1])),
        ]
        for search, target, where in searches:
            ref, _ = oracle.mh_reference(search, target, where, 25, 3, seed)
            counts = Counter(ref)
            top = max(counts.items(), key=lambda kv: (kv[1], tuple(-int(i) for i in kv[0].payload)))
            result = run_strategy(search, target, where, "mh-sample", seed=seed, n=25, burn_in=3)
            assert result.metadata["distinct_states"] == len(counts)
            assert result.metadata["mode_frequency"] == top[1] / 25
            assert result.explanation == top[0]
