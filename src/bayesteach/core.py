"""Posterior machinery for explanation selection.

The teacher treats explanation choice as inference: each candidate x gets
unnormalized weight P_L(theta | x) * P(x), where P_L is the learner's
likelihood of drawing the intended inference from x and P(x) is the
explanation prior. Normalizing over the candidate space yields the
teacher posterior; explanations are picked by maximizing it, sampling it,
or walking it with a Markov chain when the space is too large to sweep.

All weight arithmetic is carried in log space and normalized with
log-sum-exp. Zero total mass raises instead of silently renormalizing.

When the likelihood splits over the pools of a uniform-prior subset
space (the learner's ``block_terms``), each pool's combinations are
scored once, by ``posterior_max`` and by a Metropolis walk alike. An
additive split makes the posterior a product of per-pool posteriors,
whose argmax and normalizer are taken pool by pool.

A Metropolis walk reports its mode: the most visited state, ties going
to the smallest payload (``ChainSamples.mode``).

The posterior mean of a mask under likelihood weighting, the average
behind RISE and mc-expectation, is ``mask_expectation``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroMass, BadSpec, ZeroStartMass, ZeroTotalWeight
from .spaces import ExplanationSpace, MaskSpace, SubsetSpace
from .types import Explanation, LearnerModel, TargetInference, TeacherPosterior, example_set, feature_mask

# A Metropolis walk draws its moves and uniforms this many steps at a time.
CHAIN_BLOCK = 4096

# Chains of more steps (burn-in included) and mask draws of more entries
# (masks times dimension) are refused before anything is drawn.
MAX_DRAWS = 1 << 24


def logsumexp(a) -> float:
    """log(sum(exp(a))) over a 1-D sequence, computed as
    ``scipy.special.logsumexp`` computes it, to the bit: the maxima are
    summed apart and the remaining terms enter through log1p. An empty or
    all -inf input gives -inf."""
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.size == 0:
        return -math.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, keepdims=True)
        at_max = a == a_max
        count = np.sum(at_max, keepdims=True, dtype=float)
        rest = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), keepdims=True)
        rest = np.where(rest == 0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + a_max
        if not np.isfinite(out[0]):
            # infinite or NaN entries: the direct formula handles them
            out = np.log(np.sum(np.exp(a), keepdims=True))
    return float(out[0])


def score_rows(learner: LearnerModel, theta: TargetInference, masks: np.ndarray) -> np.ndarray:
    """Log likelihood of every row of an (N, d) array of feature masks.
    The first row is scored by the joint ``log_likelihood``, so any error
    a per-draw loop would raise is raised here too; the rest go through
    ``batch_log_likelihood`` when the learner has one, and one by one
    otherwise."""
    first = learner.log_likelihood(theta, feature_mask(masks[0]))
    if learner.batch_log_likelihood is None:
        rest = [learner.log_likelihood(theta, feature_mask(r)) for r in masks[1:]]
        return np.array([first] + rest, dtype=float)
    return np.asarray(learner.batch_log_likelihood(theta, masks), dtype=float)


def weighted_mean_and_stderr(matrix: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight-normalized column means with delta-method standard errors.

    With uniform weights the error term reduces to the familiar
    std / sqrt(N).
    """
    total = float(weights.sum())
    if total <= 0.0:
        raise ZeroTotalWeight("all weights are zero; the average is undefined")
    mean = weights @ matrix / total
    resid = weights[:, None] * (matrix - mean)
    stderr = np.sqrt((resid**2).sum(axis=0)) / total
    return mean, stderr


def mask_expectation(space: MaskSpace, n: int, seed: int, weigh):
    """Draw n masks from the space's prior with ``default_rng(seed)`` and
    average them weighted by ``weigh(masks)``, a likelihood per mask: the
    posterior mean of the mask under the teacher posterior. RISE and the
    mc-expectation strategy both run here. Returns the masks, the weights,
    and the weighted means with their standard errors. ``n < 1`` or more
    than ``MAX_DRAWS`` mask entries raises ``BadSpec``."""
    if n < 1:
        raise BadSpec(f"mask count must be >= 1, got {n}")
    if n * space.dim > MAX_DRAWS:
        raise BadSpec(f"{n} masks of {space.dim} entries exceed the limit of {MAX_DRAWS} entries")
    masks = space.draw(np.random.default_rng(seed), n)
    weights = weigh(masks)
    values, stderr = weighted_mean_and_stderr(masks, weights)
    return masks, weights, values, stderr


def pool_terms(learner: LearnerModel, theta: TargetInference, space: ExplanationSpace):
    """The learner's ``block_terms`` on the space's pools, ``(scorers,
    combine)``, when the space is a uniform-prior ``SubsetSpace`` whose
    pools they split; None for any other learner or space."""
    if not isinstance(space, SubsetSpace) or space._prior_fn is not None or learner.block_terms is None:
        return None
    return learner.block_terms(theta, space._pools)


def in_order_sum(terms) -> float:
    """The terms added left to right from 0.0; builtin ``sum`` compensates
    its rounding from Python 3.12 on."""
    total = 0.0
    for t in terms:
        total += t
    return total


def pool_scores(terms, space: SubsetSpace):
    """Each pool of the space with its ``block_terms`` scorer: yields the
    pool's combinations in lexicographic order and their terms."""
    for term, pool, k in zip(terms, space._pools, space._ks):
        combos = list(itertools.combinations(pool, k))
        yield combos, np.array([term(combo) for combo in combos], dtype=float)


def teacher_posterior(
    learner: LearnerModel,
    theta: TargetInference,
    space: ExplanationSpace,
) -> TeacherPosterior:
    """Normalize likelihood * prior over every positive-prior candidate.

    The support keeps enumeration order, so downstream tie-breaking by
    index is well defined.
    """
    support: list[Explanation] = []
    log_priors: list[float] = []
    for x in space.elements():
        lp = space.log_prior(x)
        if lp > -np.inf:
            support.append(x)
            log_priors.append(lp)
    if not support:
        raise AllZeroMass(f"{space.descriptor}: no candidate has positive prior weight")

    log_liks = [learner.log_likelihood(theta, x) for x in support]
    log_weights = np.asarray(log_liks, dtype=float) + np.asarray(log_priors, dtype=float)
    if np.all(np.isneginf(log_weights)):
        raise AllZeroMass(
            f"{space.descriptor}: every candidate has zero likelihood * prior"
        )
    return TeacherPosterior(tuple(support), log_weights, logsumexp(log_weights))


@dataclass(frozen=True)
class PosteriorMax:
    """The maximum-posterior explanation with its unnormalized log weight,
    its posterior probability, the log normalizer and the support size."""

    explanation: Explanation
    log_weight: float
    probability: float
    log_normalizer: float
    support_size: int


def posterior_max(
    learner: LearnerModel,
    theta: TargetInference,
    space: ExplanationSpace,
) -> PosteriorMax:
    """The argmax of the teacher posterior; ties go to the lowest index.

    On a subset space with a uniform prior, a learner whose
    ``block_terms`` split its likelihood over the space's pools has each
    pool's combinations scored once. When the likelihood is their sum,
    the posterior is a product: log Z is the sum of the per-pool
    log-sum-exps, and the argmax is the concatenation of the per-pool
    first argmaxes, which is the first argmax in the space's
    lexicographic product order. Otherwise the ``combine`` step maps the
    pool terms of every candidate, in product order, to its weight. The
    chosen set is then scored by the joint likelihood, so its log weight,
    and any error the joint sweep would raise, are those of
    ``teacher_posterior``. The joint size limit still applies. Every
    other case sweeps the joint space with ``teacher_posterior``.
    """
    if isinstance(space, SubsetSpace):
        space._check_enumerable()
    split = pool_terms(learner, theta, space)
    if split is None:
        posterior = teacher_posterior(learner, theta, space)
        i = int(np.argmax(posterior.log_weights))
        return PosteriorMax(
            posterior.support[i],
            float(posterior.log_weights[i]),
            float(posterior.probabilities()[i]),
            posterior.log_normalizer,
            len(posterior),
        )

    terms, combine = split
    pools = list(pool_scores(terms, space))
    if combine is None:
        picks = [int(np.argmax(scores)) for _, scores in pools]
        log_z = in_order_sum(logsumexp(scores) for _, scores in pools)
    else:
        grid = np.indices([len(scores) for _, scores in pools]).reshape(len(pools), -1)
        columns = [scores[g].tolist() for (_, scores), g in zip(pools, grid)]
        weights = np.fromiter(map(combine, zip(*columns)), dtype=float, count=grid.shape[1])
        picks = grid[:, int(np.argmax(weights))]
        log_z = logsumexp(weights)
    x = example_set(itertools.chain.from_iterable(combos[i] for (combos, _), i in zip(pools, picks)))
    log_weight = float(learner.log_likelihood(theta, x))
    if log_z == -np.inf:
        raise AllZeroMass(
            f"{space.descriptor}: every candidate has zero likelihood * prior"
        )
    return PosteriorMax(x, log_weight, math.exp(log_weight - log_z), log_z, space.size())


def select_max(posterior: TeacherPosterior) -> Explanation:
    """The maximum-posterior explanation; ties go to the lowest index."""
    return posterior.support[int(np.argmax(posterior.log_weights))]


def sample_posterior(posterior: TeacherPosterior, n: int, seed: int) -> list[Explanation]:
    """Draw n independent explanations from the posterior."""
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(posterior.support), size=n, p=posterior.probabilities())
    return [posterior.support[int(i)] for i in draws]


class ChainSamples(Sequence):
    """The recorded states of a Metropolis walk, read as Explanations.

    ``states`` holds one int record per step, in step order, that
    ``decode`` maps to the chain state. An Explanation is built from a
    record only when it is read (``explanation_of``). ``counts`` tallies
    the states in order of first visit. ``accepted`` counts the
    proposals, burn-in included, that passed the Metropolis test, out of
    ``proposals``."""

    def __init__(self, space: ExplanationSpace, states: list[int], accepted: int, proposals: int, decode):
        self.space = space
        self.states = states
        self.accepted = accepted
        self.proposals = proposals
        self.decode = decode

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> Explanation:
        return self.explanation_of(self.states[i])

    def explanation_of(self, record: int) -> Explanation:
        """The Explanation of one record of ``states``."""
        return self.space.explanation_of(self.decode(record))

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals

    @functools.cached_property
    def tally(self) -> Counter:
        """Visits per record, in order of first visit; counted once."""
        return Counter(self.states)

    def counts(self) -> Counter:
        """Visits per chain state, in order of first visit, read off
        ``tally`` into a new Counter."""
        return Counter({self.decode(r): c for r, c in self.tally.items()})

    def mode(self) -> tuple[Explanation, float]:
        """The most visited state and the share of samples it holds; a tie
        goes to the smallest payload read as a tuple of ints."""
        top = max(self.tally.values())
        tied = (self.explanation_of(r) for r, c in self.tally.items() if c == top)
        return min(tied, key=lambda x: tuple(int(v) for v in x.payload)), top / len(self)


class ChainWalk:
    """A Metropolis walk's tables over the parts of the space's chain
    state, each filled when the walk first needs an entry:

    - each part's segments interned to ids, in order of first sight;
    - the neighbour id of each move from an id, found by the space's
      ``segment_step``.

    A walk records one int per step, the mixed-radix index of the
    per-part ids with the space's ``radices``; ``decode`` maps it back to
    the state, a tuple of segments. On a one-part space the record is the
    id itself.

    When ``pool_terms`` splits the space, a weight is ``combine`` (or
    ``in_order_sum``) of the pool terms in pool order, so it equals the
    joint likelihood to the bit; each id's term is computed the first
    time a proposal holds that segment. Otherwise one memo keyed by the
    record holds the joint weight, the likelihood plus the log prior; a
    state of zero prior weight is not scored. Called on a state, the walk
    gives its log weight."""

    def __init__(self, learner: LearnerModel, theta: TargetInference, space: ExplanationSpace):
        self.learner, self.theta, self.space = learner, theta, space
        split = pool_terms(learner, theta, space)
        self.terms, combine = split if split is not None else (None, None)
        self.combine = combine or in_order_sum
        radices = space.radices
        self.segments: list[list] = [[] for _ in radices]
        self.ids: list[dict] = [{} for _ in radices]
        self.values: list[list] = [[] for _ in radices]
        self.strides = [math.prod(radices[c + 1 :]) for c in range(len(radices))]

    def intern(self, c: int, segment) -> int:
        i = self.ids[c].get(segment)
        if i is None:
            i = self.ids[c][segment] = len(self.segments[c])
            self.segments[c].append(segment)
            self.values[c].append(None)
        return i

    def term(self, c: int, i: int) -> float:
        t = self.values[c][i]
        if t is None:
            t = self.values[c][i] = self.terms[c](self.segments[c][i])
        return t

    def joint_weight(self, ids) -> float:
        """The likelihood plus log prior of the state of the per-part
        ``ids``; a state of zero prior weight is not scored."""
        x = self.space.explanation_of(tuple(self.segments[c][i] for c, i in enumerate(ids)))
        lp = self.space.log_prior(x)
        return -np.inf if lp == -np.inf else self.learner.log_likelihood(self.theta, x) + lp

    def __call__(self, state) -> float:
        """The log weight of a state, a tuple of segments."""
        ids = [self.intern(c, seg) for c, seg in enumerate(state)]
        if self.terms is None:
            return self.joint_weight(ids)
        return self.combine([self.term(c, i) for c, i in enumerate(ids)])

    def decode(self, record: int) -> tuple:
        return tuple(
            segments[record // stride % radix]
            for segments, stride, radix in zip(self.segments, self.strides, self.space.radices)
        )

    def walk(self, state, state_w: float, rng: np.random.Generator, total: int) -> tuple[list[int], int]:
        """``mh_sample``'s steps from ``state`` of weight ``state_w``: the
        records of all ``total`` steps and the accepted count."""
        space, combine, values, strides, exp = self.space, self.combine, self.values, self.strides, math.exp
        split, joint, spans = self.terms is not None, {}, space.spans
        neighbours: list[dict] = [{} for _ in values]
        ids = [self.intern(c, seg) for c, seg in enumerate(state)]
        bases = [i * span for i, span in zip(ids, spans)]
        index = sum(i * stride for i, stride in zip(ids, strides))
        # The pool terms of the current state. The start state's are
        # computed only as proposals come to hold its segments, so a term
        # is first computed exactly when a proposal first holds its
        # segment.
        current: list = [None] * len(values)
        pending = True
        records: list[int] = []
        record = records.append
        accepted = 0
        for start in range(0, total, CHAIN_BLOCK):
            count = min(CHAIN_BLOCK, total - start)
            parts, moves = space.chain_moves(rng, count)
            for c, m, u in zip(parts.tolist(), moves.tolist(), rng.random(count).tolist()):
                key = bases[c] + m
                nid = neighbours[c].get(key)
                if nid is None:
                    seg = space.segment_step(c, self.segments[c][ids[c]], m)
                    nid = neighbours[c][key] = self.intern(c, seg)
                proposal = index + (nid - ids[c]) * strides[c]
                kept = current[c]
                if not split:
                    prop_w = joint.get(proposal)
                    if prop_w is None:
                        prop_w = joint[proposal] = self.joint_weight([nid if p == c else i for p, i in enumerate(ids)])
                elif pending:
                    current = [self.term(p, nid if p == c else i) for p, i in enumerate(ids)]
                    prop_w = combine(current)
                else:
                    t = values[c][nid]
                    current[c] = self.term(c, nid) if t is None else t
                    prop_w = combine(current)
                log_alpha = prop_w - state_w
                if log_alpha >= 0 or u < exp(log_alpha):
                    state_w, index = prop_w, proposal
                    ids[c], bases[c] = nid, nid * spans[c]
                    accepted += 1
                    pending = False
                else:
                    current[c] = kept
                    pending = kept is None
                record(index)
        return records, accepted


def mh_sample(
    learner: LearnerModel,
    theta: TargetInference,
    space: ExplanationSpace,
    n: int,
    burn_in: int,
    seed: int,
) -> ChainSamples:
    """Metropolis walk over the space using its symmetric proposal kernel.

    Acceptance is min(1, w'/w) on the unnormalized weights, valid because
    the proposal is symmetric: a proposal passes when log(w'/w) >= 0 or
    a uniform draw falls below w'/w. The current state is recorded after
    every post-burn-in step, rejections included, so n samples are
    returned.

    Every chain is one ``ChainWalk`` over the parts of the space's chain
    state (``chain_start``, ``segment_step``): the pools of a
    ``SubsetSpace``, the Explanation itself on a ``MaskSpace`` or
    ``EnumeratedSpace``. It interns each part's segments and records one
    int per step. Its randomness is drawn in blocks of ``CHAIN_BLOCK``
    steps (the last block is shorter): the block's parts and moves
    (``chain_moves``), then one uniform per step, used or not. The start
    state is scored by the joint likelihood, so the errors of a joint
    sweep are raised. Proposals are weighed by the learner's per-pool
    terms when ``pool_terms`` splits the space, and by a memo of joint
    weights otherwise. The returned ``ChainSamples`` builds each
    Explanation only when it is read. ``n < 1``, ``burn_in < 0`` or
    ``n + burn_in`` over ``MAX_DRAWS`` raises ``BadSpec``.
    """
    if n < 1 or burn_in < 0:
        raise BadSpec(f"a chain needs n >= 1 and burn_in >= 0, got n={n}, burn_in={burn_in}")
    if n + burn_in > MAX_DRAWS:
        raise BadSpec(f"a chain of {n + burn_in} steps exceeds the limit of {MAX_DRAWS}")
    rng = np.random.default_rng(seed)
    state = space.chain_start(rng)
    x = space.explanation_of(state)
    lp = space.log_prior(x)
    state_w = -np.inf if lp == -np.inf else learner.log_likelihood(theta, x) + lp
    if state_w == -np.inf:
        raise ZeroStartMass(f"{space.descriptor}: initial state has zero posterior mass")

    walk = ChainWalk(learner, theta, space)
    records, accepted = walk.walk(state, state_w, rng, burn_in + n)
    # the burn-in steps are the first ones recorded
    return ChainSamples(space, records[burn_in:], accepted, burn_in + n, walk.decode)
