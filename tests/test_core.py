"""Posterior normalization, selection, and sampling against brute force."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesteach import checks, core, oracle
from bayesteach.core import (
    CHAIN_BLOCK,
    JOINT_MEMO,
    MAX_DRAWS,
    ChainSamples,
    ChainWalk,
    PoolTable,
    in_order_sum,
    logsumexp,
    mask_expectation,
    mh_sample,
    pool_terms,
    posterior_max,
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
from bayesteach.models import Dataset, fit_model, make_synthetic, plda_class_logpdf
from bayesteach.spaces import MAX_ENUMERATION, EnumeratedSpace, MaskSpace, SubsetSpace, coalition_rows
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


class FixedUniforms:
    """A stand-in generator whose ``random`` returns the given arrays in
    turn; a draw past them fails the test."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def random(self, shape):
        assert self.arrays, "nothing more may be drawn"
        out = self.arrays.pop(0)
        assert out.shape == shape
        return out


def test_subset_draw_picks_every_combination_equally_often():
    # every ordering of a 4-row pool's uniforms, once each: each of the
    # C(4, 2) subsets is the two lowest of 4 of the 24 orderings
    orderings = np.array(list(itertools.permutations(range(4))), dtype=float)
    space = SubsetSpace([[10, 11, 12, 13]], [2])
    counts = Counter(map(tuple, space.draw(FixedUniforms(orderings), len(orderings)).tolist()))
    assert counts == {pair: 4 for pair in itertools.combinations([10, 11, 12, 13], 2)}


def test_subset_draw_is_seed_deterministic():
    pools = [range(0, 7), range(7, 12), range(12, 20)]
    space = SubsetSpace(pools, [2, 5, 3])
    rows = space.draw(np.random.default_rng(4), 50)
    assert rows.shape == (50, 10)
    assert np.array_equal(rows, space.draw(np.random.default_rng(4), 50))
    assert not np.array_equal(rows, space.draw(np.random.default_rng(5), 50))
    for row in rows.tolist():
        for pool, seg in zip(pools, space.state_of(example_set(row))):
            assert list(seg) == sorted(set(seg)) and set(seg) <= set(pool)


def test_subset_draw_keeps_the_rows_coalition_rows_ranks_lowest(rng):
    # one argpartition per pool picks the rows that the double argsort of
    # coalition_rows keeps, from the same uniforms, k = pool size included
    for case in range(300):
        sizes = rng.integers(1, 30, int(rng.integers(1, 4)))
        pools = np.split(rng.permutation(int(sizes.sum())) + 100, np.cumsum(sizes)[:-1])
        ks = [int(rng.integers(1, s + 1)) for s in sizes]
        n = int(rng.integers(1, 40))
        got = SubsetSpace(pools, ks).draw(np.random.default_rng(case), n)
        draws, want = np.random.default_rng(case), []
        for pool, k in zip(pools, ks):
            kept = coalition_rows(np.full(n, k), draws.random((n, len(pool))))
            want.append(np.array(sorted(pool))[np.nonzero(kept)[1].reshape(n, k)])
        assert np.array_equal(got, np.hstack(want))


@pytest.mark.parametrize("seed", range(10))
def test_subset_chain_start_is_the_reference_start(seed):
    space = SubsetSpace([range(0, 8), range(8, 13), range(13, 24)], [2, 5, 3])
    start = space.explanation_of(space.chain_start(np.random.default_rng(seed)))
    assert start == oracle._walk(space)[0](np.random.default_rng(seed))


@pytest.mark.parametrize("n", [0, -3, MAX_DRAWS // 24 + 1])
def test_subset_draws_out_of_range_raise_before_drawing(n):
    space = SubsetSpace([range(0, 8), range(8, 16), range(16, 24)], [2, 2, 2])
    with pytest.raises(BadSpec, match="subsets need"):
        space.draw(FixedUniforms(), n)


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
    its joint calls and its block_terms calls. Each term scores one
    segment tuple; its pool scorer maps an (N, k) array of segments to
    their N terms, a term call per segment."""
    calls = Counter()
    scorers = [lambda rows, term=term: np.array([term(tuple(r)) for r in rows.tolist()]) for term in terms]

    def log_likelihood(theta, x):
        calls["joint"] += 1
        total, start = 0.0, 0
        for term, k in zip(terms, ks):
            total += term(x.payload[start : start + k])
            start += k
        return total

    def block_terms(theta, pools):
        calls["blocks"] += 1
        return scorers, None

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


def test_a_learner_without_block_terms_takes_the_joint_route(rng):
    for _ in range(20):
        space, ks, terms = block_case(rng)
        blocks, calls = block_learner(ks, terms)
        learner = plain(blocks)
        best = posterior_max(learner, THETA, space)
        assert calls["blocks"] == 0 and calls["joint"] == space.size()
        post = teacher_posterior(learner, THETA, space)
        i = int(np.argmax(post.log_weights))
        assert best.explanation == post.support[i]
        assert best.explanation == oracle.best_subset_bruteforce(learner, THETA, space)
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

    # a confirmation-biased learner forwards the block terms: the combine
    # route, the argmax and weights of the joint sweep
    other = TargetInference(ThetaKind.LATENT_CLASS_MEANS, -plda3.parameters["latent_means"])
    biased = biased_learner(learner, BiasConfig(0.7, (theta, other), np.array([0.6, 0.4])))
    assert pool_terms(biased, theta, space)[1] is not None
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
    # an (r, c) array reduces its last axis: each row as a 1-D call gives it
    rows = np.stack([rng.uniform(-50, 50, 5) for _ in range(40)] + [
        np.full(5, -np.inf), np.array([1.0, np.inf, 2.0, 2.0, -np.inf]), np.full(5, 2.0),
        np.array([-np.inf, 3.0, -np.inf, 3.0, 0.0]), np.array([np.inf, -np.inf, 0.0, 1.0, 1.0]),
    ])
    rows[rng.random(rows.shape) < 0.2] = -np.inf
    got = logsumexp(rows)
    assert got.shape == (rows.shape[0],)
    want = np.array([logsumexp(r) for r in rows])
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == scipy_logsumexp(rows, axis=-1).tobytes()
    assert logsumexp(np.empty((3, 0))).tolist() == [-math.inf] * 3


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
    assert combine([t(np.array([pool[:1]]))[0] for t, pool in zip(terms, space._pools)]) == -math.inf
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


def split_learners(plda3, blobs3):
    """(learner, theta) pairs whose block terms split class pools: plda
    and nearest-class, each plain and with confirmation bias."""
    means = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])
    other = TargetInference(ThetaKind.LATENT_CLASS_MEANS, -plda3.parameters["latent_means"])
    label = TargetInference(ThetaKind.PREDICTED_LABEL, 1)
    cases = [
        (make_plda_learner(plda3, blobs3), means, other),
        (make_nearest_class_learner(blobs3, np.array([0.3, -0.2]), 0.5), label,
         TargetInference(ThetaKind.PREDICTED_LABEL, 0)),
    ]
    for learner, theta, rival in cases:
        yield learner, theta
        yield biased_learner(learner, BiasConfig(1.7, (theta, rival), np.array([0.3, 0.7]))), theta


def test_pool_table_scores_drawn_subsets_as_the_joint_likelihood_to_the_bit(plda3, blobs3):
    for learner, theta in split_learners(plda3, blobs3):
        for k in (1, 2, 3):
            space = SubsetSpace.per_class(blobs3.labels, k)
            rows = space.draw(np.random.default_rng(k), 1000)
            table = PoolTable(space, *pool_terms(learner, theta, space))
            want = np.array([learner.log_likelihood(theta, example_set(row)) for row in rows.tolist()])
            assert table.score(rows).tobytes() == want.tobytes(), (learner.description, k)


def test_pool_table_best_is_the_brute_force_argmax_with_exact_ties(rng):
    ties = 0
    for i in range(150):
        if i % 2:
            space, ks, terms = block_case(rng)
            learner, theta = block_learner(ks, terms)[0], THETA
        else:
            data, point, wanted, space = nearest_case(rng, per_class=True)
            learner = make_nearest_class_learner(data, point, float(rng.uniform(0.5, 2.0)))
            theta = TargetInference(ThetaKind.PREDICTED_LABEL, wanted)
        try:
            want = oracle.best_subset_bruteforce(learner, theta, space)
        except AllZeroMass:
            continue
        x, log_z = PoolTable(space, *pool_terms(learner, theta, space)).best()
        post = teacher_posterior(plain(learner), theta, space)
        ties += int(np.sum(post.log_weights == post.log_weights.max()) > 1)
        assert x == want
        assert math.isclose(log_z, post.log_normalizer, rel_tol=1e-12)
    assert ties > 20  # the tie rule was exercised


@pytest.mark.parametrize("dim", [2, 36])
def test_pool_scorers_equal_the_per_segment_terms_to_the_bit(dim):
    # a scorer's (N, k) array of segments gives, term for term, the bits
    # of one plda_class_logpdf or one centroid score per segment, plain and
    # under confirmation bias; the tables built on them score drawn subsets
    # as the joint likelihood does
    data = make_synthetic(
        {"generator": "gaussian-blobs", "classes": 3, "dim": dim, "per_class": 9, "separation": 3.0}, seed=dim)
    model = fit_model("plda", data, seed=0)
    means = model.parameters["latent_means"]
    point = data.features[0] + 0.25
    temperature = 0.5

    def centroid_score(c, rows):
        return -float(((point - rows.mean(axis=0)) ** 2).sum()) / temperature

    cases = [
        (make_plda_learner(model, data), TargetInference(ThetaKind.LATENT_CLASS_MEANS, means),
         TargetInference(ThetaKind.LATENT_CLASS_MEANS, -means), lambda c, rows: plda_class_logpdf(model, rows, means[c])),
        (make_nearest_class_learner(data, point, temperature), TargetInference(ThetaKind.PREDICTED_LABEL, 1),
         TargetInference(ThetaKind.PREDICTED_LABEL, 0), centroid_score),
    ]
    for base, theta, rival, reference in cases:
        for learner in (base, biased_learner(base, BiasConfig(1.7, (theta, rival), np.array([0.3, 0.7])))):
            for k in (1, 2, 3):
                space = SubsetSpace.per_class(data.labels, k)
                scorers, combine = pool_terms(learner, theta, space)
                for c, (scorer, pool) in enumerate(zip(scorers, space._pools)):
                    segments = np.array(list(itertools.combinations(pool, k)))
                    want = np.array([reference(c, data.features[list(s)]) for s in segments.tolist()])
                    assert scorer(segments).tobytes() == want.tobytes(), (learner.description, k, c)
                rows = space.draw(np.random.default_rng(k), 300)
                want = np.array([learner.log_likelihood(theta, example_set(row)) for row in rows.tolist()])
                assert PoolTable(space, scorers, combine).score(rows).tobytes() == want.tobytes()


def test_pool_table_calls_each_scorer_once_per_pool():
    # two 60-row pools at k = 2: one call on all 1,770 combinations of a
    # pool for the argmax, one on the segments of drawn rows
    space = SubsetSpace([range(60), range(60, 120)], [2, 2])
    calls = []

    def term(segment):
        return -0.01 * (sum(segment) % 97 - 40.0) ** 2

    def scorer(rows):
        calls.append(rows.shape)
        return np.array([term(s) for s in rows.tolist()])

    x, _ = PoolTable(space, [scorer, scorer], None).best()
    assert calls == [(1770, 2), (1770, 2)]
    want = []
    for pool in space._pools:
        combos = list(itertools.combinations(pool, 2))
        values = [term(s) for s in combos]
        want += combos[values.index(max(values))]
    assert x.payload == tuple(want)
    rows = np.vstack([space.draw(np.random.default_rng(0), 50)] * 2)
    calls.clear()
    PoolTable(space, [scorer, scorer], None).score(rows)
    assert calls == [(100, 2), (100, 2)]


def test_pool_table_hands_a_scorer_blocks_of_row_indices(monkeypatch):
    # a pool of more than CHAIN_BLOCK row indices is scored a block at a
    # time, to the same argmax; on 36 features the gathered rows of
    # C(300, 2) = 44,850 combinations a pool would take ~54 MB at once,
    # in blocks ~4.6 MB
    space = SubsetSpace([range(60), range(60, 120)], [2, 2])
    calls = []

    def scorer(rows):
        calls.append(len(rows))
        return -0.01 * (rows.sum(axis=1) % 97 - 40.0) ** 2

    want = PoolTable(space, [scorer, scorer], None).best()
    monkeypatch.setattr(core, "CHAIN_BLOCK", 64)
    calls.clear()
    assert PoolTable(space, [scorer, scorer], None).best() == want
    assert sum(calls) == 2 * 1770 and max(calls) == 32
    monkeypatch.undo()

    data = make_synthetic(
        {"generator": "gaussian-blobs", "classes": 2, "dim": 36, "per_class": 300, "separation": 5.0}, seed=1)
    model = fit_model("plda", data, seed=0)
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, model.parameters["latent_means"])
    space = SubsetSpace.per_class(data.labels, 2)
    table = PoolTable(space, *pool_terms(make_plda_learner(model, data), theta, space))
    table.best()  # first-use allocations
    assert traced_peak(table.best) < 12e6


def test_biased_split_routes_equal_the_joint_sweep_and_the_reference_chain(plda3, blobs3):
    for i, (learner, theta) in enumerate(list(split_learners(plda3, blobs3))[1::2]):
        for k in (1, 2):
            space = SubsetSpace.per_class(blobs3.labels, k)
            assert pool_terms(learner, theta, space)[1] is not None
            best = posterior_max(learner, theta, space)
            post = teacher_posterior(plain(learner), theta, space)
            j = int(np.argmax(post.log_weights))
            assert best.explanation == post.support[j]
            assert best.log_weight == post.log_weights[j]
            assert math.isclose(best.probability, post.probabilities()[j], rel_tol=1e-12)
            assert math.isclose(best.log_normalizer, post.log_normalizer, rel_tol=1e-12)
            assert assert_same_chain(learner, theta, space, 1500, 50, i + k) is not None


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
        moved += len(samples.tally) > 1
        calls.clear()
        mh_sample(learner, THETA, space, n, burn_in, seed)
        assert calls == Counter(joint=1, blocks=1)  # the start state only, then block terms
    assert full_pools > 10 and moved > 80 and zero_start > 3


def test_mh_walk_replays_the_reference_with_a_prior_and_without_block_terms(rng):
    # the subset space's uniform prior; the learner scores joint states only
    for i in range(40):
        space, ks, terms = block_case(rng)
        learner, _ = block_learner(ks, terms)
        assert_same_chain(plain(learner), THETA, space, 200, int(rng.integers(0, 10)), i)


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
        for state in map(samples.decode, samples.tally.records):
            assert weight(state) == learner.log_likelihood(theta, space.explanation_of(state))
        moved += len(samples.tally) > 1
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
        for state in map(samples.decode, samples.tally.records):
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
    # the start state once by the joint likelihood and once by its pool
    # terms, then each other proposed segment once by its pool term
    held = set(enumerate(space.state_of(start)))
    assert calls == Counter(proposed | held) + Counter(held) + Counter(joint=1, blocks=1)


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
    # mask, enumerated and plain-learner subset chains weigh the start
    # and the proposals by the joint likelihood, each distinct state once;
    # a state of zero prior weight is not scored
    masked = make_masked_prediction_learner(logistic_grid, grid_image.features[0])
    checked = Counter()
    for seed in range(48):
        kind = ("mask", "enumerated", "plain")[seed % 3]
        if kind == "mask":
            theta = TargetInference(ThetaKind.PREDICTED_LABEL, seed // 3 % 2)
            learner, space = masked, MaskSpace(grid_image.features.shape[1], float(rng.uniform(0.2, 0.8)))
        elif kind == "enumerated":
            theta, (learner, space) = THETA, random_case(rng, max_size=40)
        else:
            space, ks, terms = block_case(rng)
            theta, learner = THETA, plain(block_learner(ks, terms)[0])
        assert pool_terms(learner, theta, space) is None
        learner, seen = counted(learner)
        n = int(rng.integers(1, 500))
        samples = assert_same_chain(learner, theta, space, n, 0, seed)
        if samples is None:
            continue
        assert samples.states.dtype == np.min_scalar_type(math.prod(space.radices) - 1)
        start, proposals = replayed_proposals(space, samples, seed)
        scored = {x for x in proposals if space.log_prior(x) > -math.inf}
        seen.clear()
        mh_sample(learner, theta, space, n, 0, seed)
        assert Counter(seen) == Counter(scored | {start})
        checked[kind] += 1
    assert len(checked) == 3 and min(checked.values()) >= 5


def counter_tally(samples):
    """The tally and mode of a chain read from a ``Counter`` over its
    records, whose keys keep the order of first visit."""
    counts = Counter(samples.states.tolist())
    top = max(counts.values())
    tied = [samples.explanation_of(r) for r, c in counts.items() if c == top]
    mode = min(tied, key=lambda x: tuple(int(v) for v in x.payload))
    return list(counts), list(counts.values()), (mode, top / len(samples)), len(tied) > 1


def forty_by_six_chain(n, seed):
    """A chain on three pools of 40 rows at k = 6, C(40,6)^3 > 2^64
    states, whose records need the ``object`` dtype."""
    space = SubsetSpace([range(40 * b, 40 * b + 40) for b in range(3)], [6, 6, 6])
    terms = [lambda rows, b=b: -0.02 * (sum(rows) - 240 * b - 150) ** 2 for b in range(3)]
    return mh_sample(block_learner([6, 6, 6], terms)[0], THETA, space, n, 0, seed)


def mask_learner(dim, scale):
    """A cheap masked learner: a fixed linear score of the kept entries."""
    weights = np.linspace(-1.0, 1.0, dim) * scale
    return LearnerModel("linear mask", lambda theta, x: float(weights @ x.payload))


def test_chain_tally_and_mode_equal_a_counter_over_the_records(rng):
    chains, ties = [], 0
    for i in range(60):
        kind = ("split", "plain", "enumerated", "mask")[i % 4]
        n = int(rng.integers(1, 60)) if i % 3 else int(rng.integers(CHAIN_BLOCK, 2 * CHAIN_BLOCK + 50))
        if kind in ("split", "plain"):
            space, ks, terms = block_case(rng)
            learner = block_learner(ks, terms)[0]
            learner = learner if kind == "split" else plain(learner)
        elif kind == "enumerated":
            learner, space = random_case(rng, max_size=40)
        else:
            space = MaskSpace(int(rng.integers(1, 9)), float(rng.uniform(0.2, 0.8)))
            learner = mask_learner(space.dim, float(rng.uniform(0.1, 3.0)))
        try:
            chains.append(mh_sample(learner, THETA, space, n, int(rng.integers(0, 20)), i))
        except ZeroStartMass:
            continue
    chains.append(forty_by_six_chain(CHAIN_BLOCK + 900, 5))
    assert chains[-1].states.dtype == object
    for samples in chains:
        records, counts, mode, tied = counter_tally(samples)
        assert samples.tally.records.tolist() == records
        assert samples.tally.counts.tolist() == counts
        assert len(samples.tally) == len(records)
        assert samples.mode() == mode
        ties += tied
        values = rng.normal(size=len(records))
        value_of = dict(zip(records, values.tolist()))
        assert list(samples.at_each_step(values)) == [value_of[r] for r in samples.states.tolist()]
    assert len(chains) > 50 and ties > 10


def test_chain_tally_breaks_a_tied_mode_by_the_smallest_payload():
    # records 2 and 0 tie with two visits each; 2, the first visited, has
    # the larger payload
    space = EnumeratedSpace([example_set((i,)) for i in (3, 7, 5)])
    samples = ChainSamples(space, np.array([2, 1, 0, 2, 0], dtype=np.uint8), 3, 5, lambda r: (space._candidates[int(r)],))
    assert samples.tally.records.tolist() == [2, 1, 0]
    assert samples.tally.counts.tolist() == [2, 1, 2]
    assert samples.mode() == (example_set((3,)), 0.4)


def test_chain_records_are_an_integer_array_holding_the_radix_product(plda3, blobs3):
    means = TargetInference(ThetaKind.LATENT_CLASS_MEANS, plda3.parameters["latent_means"])
    twelve = SubsetSpace([range(12 * b, 12 * b + 12) for b in range(3)], [2, 2, 2])
    table, listed = random_case(np.random.default_rng(3), max_size=40)
    cases = [
        (make_plda_learner(plda3, blobs3), means, SubsetSpace.per_class(blobs3.labels, 2), None),
        (block_learner([2, 2, 2], [lambda rows: 0.0] * 3)[0], THETA, twelve, np.uint32),  # 287,496
        (mask_learner(36, 0.1), THETA, MaskSpace(36, 0.5), np.uint64),
        (mask_learner(64, 0.1), THETA, MaskSpace(64, 0.5), np.uint64),
        (mask_learner(65, 0.1), THETA, MaskSpace(65, 0.5), object),
        (table, THETA, listed, np.uint8),
    ]
    for learner, theta, space, dtype in cases:
        samples = mh_sample(learner, theta, space, 300, 40, 0)
        assert samples.states.dtype == np.min_scalar_type(math.prod(space.radices) - 1)
        assert dtype is None or samples.states.dtype == dtype
        if samples.states.dtype == object:
            assert all(type(r) is int for r in samples.states)
        else:
            assert np.iinfo(samples.states.dtype).max >= math.prod(space.radices) - 1
        # the post-burn-in view of the walk's records, not a copy
        assert samples.states.base is not None and samples.states.base.shape == (340,)
    samples = forty_by_six_chain(500, 1)
    assert samples.states.dtype == object and all(type(r) is int for r in samples.states)


@pytest.mark.parametrize("dim", [1, 5, 36, 64, 65, 100])
def test_mask_bits_chains_replay_the_reference_state_for_state(dim, monkeypatch):
    # the chain walks each mask as its int bits, its own id: the walk
    # interns no segment; a memo that drops old weights changes calls,
    # never states
    learner, theta = mask_learner(dim, 0.3), THETA
    for seed in range(3):
        space = MaskSpace(dim, 0.3 + 0.2 * seed)
        assert_same_chain(learner, theta, space, 700, 50, seed)
        monkeypatch.setattr(core, "JOINT_MEMO", 8)
        assert_same_chain(learner, theta, space, 700, 50, seed)
        monkeypatch.undo()
        walk = ChainWalk(learner, theta, space)
        walk.walk(space.chain_start(np.random.default_rng(seed)), np.random.default_rng(seed), 300)
        assert walk.segments == [range(1 << dim)] and walk.ids == [{}] and walk.values == [[]]


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_split_chain_and_its_tally_stay_under_32_bytes_a_step():
    # 200,000 steps over 287,496 states that visit ~77,000 of them:
    # records as Python ints in a list and a Counter tally take ~51 B a
    # step here, one uint32 record a step, its sorted copy and ~40 B per
    # distinct record ~23 B
    n = 200_000
    space = SubsetSpace([range(12 * b, 12 * b + 12) for b in range(3)], [2, 2, 2])
    terms = [lambda rows, b=b: -0.05 * (sum(rows) - 24 * b - 11) ** 2 for b in range(3)]
    learner = block_learner([2, 2, 2], terms)[0]
    assert pool_terms(learner, THETA, space) is not None

    def run():
        samples = mh_sample(learner, THETA, space, n, 0, 0)
        samples.mode()
        assert len(samples.tally) > 50_000

    assert traced_peak(run) / n < 32


def test_a_mask_chain_past_the_memo_cap_grows_under_96_bytes_a_step(monkeypatch):
    # with the joint memo capped at 1,024 weights, 16,384 more steps of a
    # chain that keeps moving add ~37 B a step, mostly the tally of its
    # ~24,000 distinct masks; an unbounded memo adds ~190 B a step, and
    # interned Explanations with it ~920 B
    monkeypatch.setattr(core, "JOINT_MEMO", 1024)
    space, learner = MaskSpace(36, 0.5), mask_learner(36, 0.01)

    def run(n):
        return lambda: mh_sample(learner, THETA, space, n, 0, 0).mode()

    traced_peak(run(1000))  # first-use allocations
    short, long = traced_peak(run(2 * CHAIN_BLOCK)), traced_peak(run(6 * CHAIN_BLOCK))
    assert (long - short) / (4 * CHAIN_BLOCK) < 96
    assert JOINT_MEMO <= 1 << 16  # ~200 B a weight: a full memo stays near 10 MB


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
    weight_total, values, _ = mask_expectation(space, 3, 0, lambda m: np.ones(len(m)))
    assert values.shape == (4,) and weight_total == 3.0


@pytest.mark.parametrize("dim", [36, 5])
@pytest.mark.parametrize("n", [CHAIN_BLOCK, CHAIN_BLOCK + 1, 2 * CHAIN_BLOCK + 900])
def test_mask_draws_in_blocks_continue_one_stream(dim, n):
    # mask_expectation draws a block at a time, the last block shorter;
    # the sample must be the one a single draw of every mask gives
    space = MaskSpace(dim, 0.3)
    rng = np.random.default_rng(11)
    blocks = [space.draw(rng, min(CHAIN_BLOCK, n - start)) for start in range(0, n, CHAIN_BLOCK)]
    assert np.array_equal(np.vstack(blocks), space.draw(np.random.default_rng(11), n))


def test_mask_expectation_memory_does_not_grow_with_the_mask_count():
    space = MaskSpace(36, 0.5)

    def peak(n):
        tracemalloc.start()
        try:
            mask_expectation(space, n, 0, lambda masks: masks[:, 0] + 1.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16 * CHAIN_BLOCK) <= 1.25 * peak(2 * CHAIN_BLOCK)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streamed_mask_expectation_equals_the_one_shot_mean(seed):
    name, passed, detail = checks.mask_expectation_stream(seed=seed)
    assert passed, detail


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
