"""Posterior machinery for explanation selection.

The teacher treats explanation choice as inference: each candidate x gets
unnormalized weight P_L(theta | x) * P(x), where P_L is the learner's
likelihood of drawing the intended inference from x and P(x) is the
explanation prior. Normalizing over the candidate space yields the
teacher posterior; explanations are picked by maximizing it, sampling it,
or walking it with a Markov chain when the space is too large to sweep.

All weight arithmetic is carried in log space and normalized with
log-sum-exp. Zero total mass raises instead of silently renormalizing.

When the likelihood splits over the pools of a subset space (the
learner's ``block_terms``; a subset space's prior is uniform), each
pool segment is scored once: by a ``PoolTable``, which serves
``posterior_max`` and the scoring of drawn subsets, and by a Metropolis
walk. An additive split makes the posterior a product of per-pool
posteriors, whose argmax and normalizer are taken pool by pool.

A Metropolis walk reports its mode: the most visited state, ties going
to the smallest payload (``ChainSamples.mode``).

The posterior mean of a mask under likelihood weighting, the average
behind mc-expectation and so behind RISE, is ``mask_expectation``. It
draws, weighs and sums ``CHAIN_BLOCK`` masks at a time, so its memory
does not grow with the mask count, and takes each standard error from
per-entry weight sums in closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from .errors import AllZeroMass, BadSpec, ZeroStartMass, ZeroTotalWeight
from .learners import in_order_sum
from .spaces import ExplanationSpace, MaskSpace, SubsetSpace
from .types import (MAX_DRAWS, Explanation, LearnerModel, TargetInference, TeacherPosterior,
                    example_set, feature_mask, record)

# A Metropolis walk draws its moves and uniforms this many steps at a
# time, a mask expectation draws, weighs and sums this many masks, and a
# pool scorer is handed this many row indices per call, bounding its gather.
CHAIN_BLOCK = 4096
# A Metropolis walk that weighs states by the joint likelihood memoizes
# the weights of this many states, the oldest dropped first.
JOINT_MEMO = 1 << 15


def logsumexp(a):
    """log(sum(exp(a))) over the last axis, computed as
    ``scipy.special.logsumexp`` computes it, to the bit: the maxima are
    summed apart and the remaining terms enter through log1p. A 1-D input
    gives a float, an (..., n) array an array of its row values; an empty
    or all -inf row gives -inf."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.shape[-1] == 0:
        out = np.full(a.shape[:-1] + (1,), -np.inf)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a_max = np.max(a, axis=-1, keepdims=True)
            at_max = a == a_max
            count = np.sum(at_max, axis=-1, keepdims=True, dtype=float)
            rest = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max), axis=-1, keepdims=True)
            rest = np.where(rest == 0, rest, rest / count)
            out = np.log1p(rest) + np.log(count) + a_max
            odd = ~np.isfinite(out)
            if odd.any():
                # infinite or NaN entries: the direct formula handles them
                out = np.where(odd, np.log(np.sum(np.exp(a), axis=-1, keepdims=True)), out)
    out = out[..., 0]
    return float(out) if out.ndim == 0 else out


def score_rows(learner: LearnerModel, theta: TargetInference, masks: np.ndarray) -> np.ndarray:
    """Log likelihood of every row of an (N, d) array of feature masks,
    in one ``batch_log_likelihood`` call when the learner has one, and
    row by row through ``log_likelihood`` otherwise."""
    if learner.batch_log_likelihood is None:
        return np.array([learner.log_likelihood(theta, feature_mask(r)) for r in masks], dtype=float)
    return np.asarray(learner.batch_log_likelihood(theta, masks), dtype=float)


def mask_expectation(space: MaskSpace, n: int, seed: int, weigh):
    """Draw n masks from the space's prior with ``default_rng(seed)`` and
    average them weighted by ``weigh(masks)``, a likelihood per mask: the
    posterior mean of the mask under the teacher posterior. The
    mc-expectation strategy runs here, and RISE through it.

    The masks are drawn, weighed and summed ``CHAIN_BLOCK`` at a time
    (the last block is shorter); successive draws from one rng give the
    sample a single draw would. Per entry the blocks add up the weight
    total W, the sum of w m, and the sums of w^2 over the draws with
    m = 1 and with m = 0. The mean is mu = sum(w m) / W, and for 0/1
    masks the delta-method standard error sqrt(sum((w (m - mu))^2)) / W
    is exactly sqrt((1 - mu)^2 sum_{m=1} w^2 + mu^2 sum_{m=0} w^2) / W.

    Returns ``(W, means, stderrs)``. ``n < 1`` or more than ``MAX_DRAWS``
    mask entries raises ``BadSpec``, and a zero W ``ZeroTotalWeight``."""
    if n < 1:
        raise BadSpec(f"mask count must be >= 1, got {n}")
    if n * space.dim > MAX_DRAWS:
        raise BadSpec(f"{n} masks of {space.dim} entries exceed the limit of {MAX_DRAWS} entries")
    rng = np.random.default_rng(seed)
    total = 0.0
    weighted, sq_kept, sq_dropped = np.zeros((3, space.dim))
    for start in range(0, n, CHAIN_BLOCK):
        masks = space.draw(rng, min(CHAIN_BLOCK, n - start))
        weights = weigh(masks)
        squares = weights * weights
        total += float(weights.sum())
        weighted += weights @ masks
        sq_kept += squares @ masks
        sq_dropped += squares @ (1.0 - masks)
    if total <= 0.0:
        raise ZeroTotalWeight("all weights are zero; the average is undefined")
    mean = weighted / total
    stderr = np.sqrt((1.0 - mean) ** 2 * sq_kept + mean**2 * sq_dropped) / total
    return total, mean, stderr


def pool_terms(learner: LearnerModel, theta: TargetInference, space: ExplanationSpace):
    """The learner's ``block_terms`` on the space's pools, ``(scorers,
    combine)``, when the space is a ``SubsetSpace`` whose pools they
    split; None for any other learner or space."""
    if not isinstance(space, SubsetSpace) or learner.block_terms is None:
        return None
    return learner.block_terms(theta, space._pools)


def block_scores(term, segments: np.ndarray) -> np.ndarray:
    """A pool scorer's terms of an (N, k) array of segments, handed to it
    ``CHAIN_BLOCK`` row indices (at least one segment) per call."""
    step = max(1, CHAIN_BLOCK // segments.shape[1])
    return np.concatenate([term(segments[i : i + step]) for i in range(0, len(segments), step)])


class PoolTable:
    """A learner's ``block_terms`` on a subset space's pools. A candidate's
    weight, ``combine`` (None: the ``in_order_sum``) of its pool terms,
    equals its log likelihood to the bit. ``best`` scores every
    combination of every pool once, as the joint argmax must; ``score``
    only the segments of the rows it is given, so its cost grows with the
    draws, not with the pools' C(n, k). Both use ``block_scores``."""

    def __init__(self, space: SubsetSpace, terms, combine):
        self.space, self.scorers, self.combine = space, terms, combine

    def best(self) -> tuple[Explanation, float]:
        """The first argmax in lexicographic product order, and log Z. With
        no ``combine`` the posterior is a product, taken pool by pool;
        otherwise ``combine`` weighs the whole grid."""
        combos = [np.fromiter(itertools.chain.from_iterable(itertools.combinations(pool, k)), np.intp).reshape(-1, k)
                  for pool, k in zip(self.space._pools, self.space._ks)]
        terms = [block_scores(term, cs) for term, cs in zip(self.scorers, combos)]
        if self.combine is None:
            picks = [int(np.argmax(t)) for t in terms]
            log_z = in_order_sum(logsumexp(t) for t in terms)
        else:
            grid = np.indices([len(t) for t in terms]).reshape(len(terms), -1)
            weights = self.weights([t[g] for t, g in zip(terms, grid)])
            picks = grid[:, int(np.argmax(weights))]
            log_z = logsumexp(weights)
        return example_set(itertools.chain.from_iterable(c[i] for c, i in zip(combos, picks))), log_z

    def weights(self, columns) -> np.ndarray:
        """The weight of each candidate from its pool terms, one column
        per pool; a sum adds whole columns."""
        if self.combine is None:
            return in_order_sum(columns)
        return np.fromiter(map(self.combine, zip(*(c.tolist() for c in columns))), dtype=float, count=len(columns[0]))

    def columns(self, rows: np.ndarray) -> list[np.ndarray]:
        """Each pool's terms of the rows of a ``SubsetSpace.draw`` array,
        one column per pool."""
        segments = np.split(rows, np.cumsum(self.space._ks)[:-1], axis=1)
        return [block_scores(term, s) for term, s in zip(self.scorers, segments)]

    def score(self, rows: np.ndarray) -> np.ndarray:
        """The weight of each row of a ``SubsetSpace.draw`` array."""
        return self.weights(self.columns(rows))


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


@record
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

    On a subset space, whose prior is uniform, a learner whose
    ``block_terms`` split its likelihood over the space's pools is
    searched by ``PoolTable.best``, each pool's combinations scored once.
    The chosen set is then scored by the joint likelihood, so its log
    weight, and any error the joint sweep would raise, are those of
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

    x, log_z = PoolTable(space, *split).best()
    log_weight = float(learner.log_likelihood(theta, x))
    if log_z == -np.inf:
        raise AllZeroMass(
            f"{space.descriptor}: every candidate has zero likelihood * prior"
        )
    return PosteriorMax(x, log_weight, math.exp(log_weight - log_z), log_z, space.size())


def select_max(posterior: TeacherPosterior) -> Explanation:
    """The maximum-posterior explanation; ties go to the lowest index."""
    return posterior.support[int(np.argmax(posterior.log_weights))]


@record
class Tally:
    """A chain's distinct records in order of first visit, and the visits
    to each; its length is the number of distinct records."""

    records: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.records)


class ChainSamples(Sequence):
    """The recorded states of a Metropolis walk, read as Explanations.

    ``states`` holds one record per step, in step order, in an integer
    array whose dtype holds every record (``object`` past 2^64 - 1), that
    ``decode`` maps to the chain state. An Explanation is built from a
    record only when it is read (``explanation_of``). ``tally`` counts
    the records in order of first visit. ``accepted`` counts the
    proposals, burn-in included, that passed the Metropolis test, out of
    ``proposals``."""

    def __init__(self, space: ExplanationSpace, states: np.ndarray, accepted: int, proposals: int, decode):
        self.space = space
        self.states = states
        self.accepted = accepted
        self.proposals = proposals
        self.decode = decode

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> Explanation:
        return self.explanation_of(self.states[i])

    def explanation_of(self, record) -> Explanation:
        """The Explanation of one record of ``states``."""
        return self.space.explanation_of(self.decode(record))

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals

    @functools.cached_property
    def tally(self) -> Tally:
        """Visits per distinct record, counted once, with no table keyed
        by state: a sorted copy of the records gives the distinct records
        and their counts, a ``searchsorted`` per block of steps the first
        step of each, and those first steps their order. Beyond the
        records it holds one sorted copy, two bools per step and a few ints
        per distinct record."""
        states = self.states
        ordered = np.sort(states)
        starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        ascending, counts = ordered[starts], np.diff(starts, append=len(states))
        del ordered, starts
        first = np.full(len(ascending), len(states))
        for start in range(0, len(states), CHAIN_BLOCK):
            block = states[start : start + CHAIN_BLOCK]
            np.minimum.at(first, np.searchsorted(ascending, block), np.arange(start, start + len(block)))
        order = np.argsort(first)
        del first
        return Tally(ascending[order], counts[order])

    def at_each_step(self, values: np.ndarray):
        """``values[i]``, one value per record of ``tally``, as Python
        floats at every step in step order, read a block of steps at a
        time."""
        order = np.argsort(self.tally.records)
        ascending = self.tally.records[order]
        for start in range(0, len(self.states), CHAIN_BLOCK):
            yield from values[order[np.searchsorted(ascending, self.states[start : start + CHAIN_BLOCK])]].tolist()

    def mode(self) -> tuple[Explanation, float]:
        """The most visited state and the share of samples it holds; a tie
        goes to the smallest payload read as a tuple of ints."""
        tally = self.tally
        top = int(tally.counts.max())
        tied = (self.explanation_of(r) for r in tally.records[tally.counts == top].tolist())
        return min(tied, key=lambda x: tuple(int(v) for v in x.payload)), top / len(self)


class ChainWalk:
    """A Metropolis walk's tables over the parts of the space's chain
    state, each filled when the walk first needs an entry:

    - each part's segments interned to ids, in order of first sight;
    - the neighbour id of each move from an id, found by the space's
      ``segment_step``.

    A ``self_indexed`` space's segments are their own ids, so the walk
    interns nothing and caches no neighbour for them: a mask part is the
    mask's int bits, and a move its ``segment_step``.

    A walk records one int per step, the mixed-radix index of the
    per-part ids with the space's ``radices``, into an integer array
    a block of steps at a time; ``decode`` maps a record back to the
    state, a tuple of segments. On a one-part space the record is the id
    itself.

    A walk's start is weighed by ``joint_weight``, the likelihood plus
    the log prior, a state of zero prior weight left unscored. It then
    enters the tables as a proposal would. When ``pool_terms`` splits the
    space, a proposal's weight is ``combine`` (or ``in_order_sum``) of the
    pool terms in pool order, so it equals the joint likelihood to the
    bit; each id's term is computed once, for the start or for the first
    proposal that holds that segment. Otherwise a memo keyed by the
    record holds the joint weight of the last ``JOINT_MEMO`` states
    scored, the start included; the oldest entry leaves first. Called on
    a state, the walk gives its log weight."""

    def __init__(self, learner: LearnerModel, theta: TargetInference, space: ExplanationSpace):
        self.learner, self.theta, self.space = learner, theta, space
        split = pool_terms(learner, theta, space)
        self.terms, combine = split if split is not None else (None, None)
        self.combine = combine or in_order_sum
        radices = space.radices
        # a self-indexed part's segment table is the identity
        self.segments: list = [range(r) if space.self_indexed else [] for r in radices]
        self.ids: list[dict] = [{} for _ in radices]
        self.values: list[list] = [[] for _ in radices]
        self.strides = [math.prod(radices[c + 1 :]) for c in range(len(radices))]

    def intern(self, c: int, segment) -> int:
        if self.space.self_indexed:
            return segment
        i = self.ids[c].get(segment)
        if i is None:
            i = self.ids[c][segment] = len(self.segments[c])
            self.segments[c].append(segment)
            self.values[c].append(None)
        return i

    def term(self, c: int, i: int) -> float:
        t = self.values[c][i]
        if t is None:
            t = self.values[c][i] = float(self.terms[c](np.array([self.segments[c][i]]))[0])
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

    def decode(self, record) -> tuple:
        record = int(record)
        return tuple(
            segments[record // stride % radix]
            for segments, stride, radix in zip(self.segments, self.strides, self.space.radices)
        )

    def walk(self, state, rng: np.random.Generator, total: int) -> tuple[np.ndarray, int]:
        """``mh_sample``'s steps from ``state``: the records of all
        ``total`` steps and the accepted count. A start of zero weight
        raises ``ZeroStartMass``."""
        space, combine, values, strides, exp = self.space, self.combine, self.values, self.strides, math.exp
        split, spans, step, indexed = self.terms is not None, space.spans, space.segment_step, space.self_indexed
        neighbours: list[dict] = [{} for _ in values]
        ids = [self.intern(c, seg) for c, seg in enumerate(state)]
        state_w = self.joint_weight(ids)
        if state_w == -np.inf:
            raise ZeroStartMass(f"{space.descriptor}: initial state has zero posterior mass")
        bases = [i * span for i, span in zip(ids, spans)]
        index = sum(i * stride for i, stride in zip(ids, strides))
        joint = OrderedDict([(index, state_w)])
        current = [self.term(c, i) for c, i in enumerate(ids)] if split else None
        records = np.empty(total, dtype=np.min_scalar_type(math.prod(space.radices) - 1))
        accepted = 0
        for start in range(0, total, CHAIN_BLOCK):
            count = min(CHAIN_BLOCK, total - start)
            parts, moves = space.chain_moves(rng, count)
            block: list[int] = []
            record = block.append
            for c, m, u in zip(parts.tolist(), moves.tolist(), rng.random(count).tolist()):
                if indexed:
                    nid = step(c, ids[c], m)
                else:
                    key = bases[c] + m
                    nid = neighbours[c].get(key)
                    if nid is None:
                        nid = neighbours[c][key] = self.intern(c, step(c, self.segments[c][ids[c]], m))
                proposal = index + (nid - ids[c]) * strides[c]
                if split:
                    kept, t = current[c], values[c][nid]
                    current[c] = self.term(c, nid) if t is None else t
                    prop_w = combine(current)
                else:
                    prop_w = joint.get(proposal)
                    if prop_w is None:
                        prop_w = joint[proposal] = self.joint_weight([nid if p == c else i for p, i in enumerate(ids)])
                        if len(joint) > JOINT_MEMO:
                            joint.popitem(last=False)
                log_alpha = prop_w - state_w
                if log_alpha >= 0 or u < exp(log_alpha):
                    state_w, index = prop_w, proposal
                    ids[c], bases[c] = nid, nid * spans[c]
                    accepted += 1
                elif split:
                    current[c] = kept
                record(index)
            records[start : start + count] = block
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
    ``SubsetSpace``, the mask's int bits on a ``MaskSpace``, the
    Explanation itself on an ``EnumeratedSpace``. It interns each part's
    segments (a mask's bits are their own id) and records one int per
    step into an integer array. A chain starts from one draw:
    ``SubsetSpace.draw`` on a subset space, ``initial_state`` on the
    others. The rest of its randomness is drawn in blocks of
    ``CHAIN_BLOCK`` steps (the last block is shorter): the block's parts
    and moves (``chain_moves``), then one uniform per step, used or not.
    The walk
    weighs the start state once, by the joint likelihood, so the errors
    of a joint sweep are raised, and ``ZeroStartMass`` when its weight is
    zero. Proposals are weighed by the learner's per-pool terms when
    ``pool_terms`` splits the space, and by a bounded memo of joint
    weights otherwise. The returned ``ChainSamples`` holds a view of the
    post-burn-in records and builds each Explanation only when it is
    read. ``n < 1``, ``burn_in < 0`` or ``n + burn_in`` over
    ``MAX_DRAWS`` raises ``BadSpec``.
    """
    if n < 1 or burn_in < 0:
        raise BadSpec(f"a chain needs n >= 1 and burn_in >= 0, got n={n}, burn_in={burn_in}")
    if n + burn_in > MAX_DRAWS:
        raise BadSpec(f"a chain of {n + burn_in} steps exceeds the limit of {MAX_DRAWS}")
    rng = np.random.default_rng(seed)
    walk = ChainWalk(learner, theta, space)
    records, accepted = walk.walk(space.chain_start(rng), rng, burn_in + n)
    # the burn-in steps are the first ones recorded
    return ChainSamples(space, records[burn_in:], accepted, burn_in + n, walk.decode)
