"""Slow, transparent reference implementations.

These exist to check the main code paths and must not share their
numerics: normalization here is plain probability-space summation with
compensated accumulation (math.fsum), never log-sum-exp; Shapley values
come from the subset-sum definition with exact combinatorial weights,
never from a regression; subset search is a full scan. The Metropolis
reference is the exception: to replay a chain step for step it must
draw and compare exactly as the fast walk does, so it shares the
acceptance arithmetic and the block schedule of its draws, and keeps
only the loop-first form.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .core import CHAIN_BLOCK
from .errors import AllZeroMass, ZeroStartMass
from .spaces import ExplanationSpace, SubsetSpace
from .types import Explanation, LearnerModel, TargetInference, example_set


def exhaustive_posterior(
    learner: LearnerModel,
    theta: TargetInference,
    space: ExplanationSpace,
) -> tuple[tuple[Explanation, ...], np.ndarray]:
    """Normalize likelihood * prior by direct summation.

    Returns the positive-prior support in enumeration order and the
    normalized probabilities, aligned.
    """
    support: list[Explanation] = []
    weights: list[float] = []
    for x in space.elements():
        prior = space.prior_weight(x)
        if prior > 0.0:
            support.append(x)
            weights.append(learner.likelihood(theta, x) * prior)
    if not support:
        raise AllZeroMass(f"{space.descriptor}: no candidate has positive prior weight")
    total = math.fsum(weights)
    if total <= 0.0:
        raise AllZeroMass(f"{space.descriptor}: total candidate mass is zero")
    probs = np.array([w / total for w in weights])
    return tuple(support), probs


def best_subset_bruteforce(
    learner: LearnerModel,
    theta: TargetInference,
    space: ExplanationSpace,
) -> Explanation:
    """Full scan for the maximum-weight candidate; first winner stands."""
    best: Explanation | None = None
    best_w = -1.0
    any_prior = False
    for x in space.elements():
        prior = space.prior_weight(x)
        if prior <= 0.0:
            continue
        any_prior = True
        w = learner.likelihood(theta, x) * prior
        if w > best_w:
            best, best_w = x, w
    if not any_prior:
        raise AllZeroMass(f"{space.descriptor}: no candidate has positive prior weight")
    if best_w <= 0.0:
        raise AllZeroMass(f"{space.descriptor}: every candidate has zero weight")
    return best


def _subset_walk(space: SubsetSpace):
    """Start, block draws and move of a subset space, on the concatenated
    payload: one chosen row is swapped for one unchosen row of a
    uniformly drawn pool."""

    def initial_state(rng: np.random.Generator) -> Explanation:
        parts = []
        for pool, k in zip(space._pools, space._ks):
            chosen = rng.choice(len(pool), size=k, replace=False)
            parts.extend(sorted(pool[i] for i in chosen))
        return example_set(parts)

    def moves(rng: np.random.Generator, count: int):
        # the pools, then for each the position of the dropped row among
        # the pool's k chosen rows and of the added row among its
        # unchosen rows (at least one position is drawn)
        ks = np.array(space._ks)
        free = np.array([len(pool) for pool in space._pools]) - ks
        c = rng.integers(len(space._pools), size=count)
        drop = rng.integers(0, ks[c])
        add = rng.integers(0, np.maximum(free[c], 1))
        return list(zip(c, drop, add))

    def apply(x: Explanation, move) -> Explanation:
        c, drop, add = (int(v) for v in move)
        segs, start = [], 0
        for k in space._ks:
            segs.append(tuple(x.payload[start : start + k]))
            start += k
        pool, seg = space._pools[c], segs[c]
        out = [i for i in pool if i not in seg]
        if not out:
            return x
        segs[c] = tuple(sorted(set(seg) - {seg[drop]} | {out[add]}))
        return example_set(i for seg in segs for i in seg)

    return initial_state, moves, apply


def _walk(space: ExplanationSpace):
    """Start, block draws and move of a space, on Explanations: the
    subset walk above, or the one-part kernel of a mask or enumerated
    space read through its ``chain_moves`` and ``segment_step``."""
    if isinstance(space, SubsetSpace):
        return _subset_walk(space)

    def moves(rng: np.random.Generator, count: int) -> list[int]:
        return space.chain_moves(rng, count)[1].tolist()

    def apply(x: Explanation, move: int) -> Explanation:
        return space.segment_step(0, x, move)

    return space.initial_state, moves, apply


def mh_reference(
    learner: LearnerModel,
    theta: TargetInference,
    space: ExplanationSpace,
    n: int,
    burn_in: int,
    seed: int,
) -> tuple[list[Explanation], int]:
    """Metropolis walk over Explanations: every proposal is an
    Explanation, its weight is the joint likelihood plus log prior cached
    per Explanation, and subset spaces rebuild their segments and unchosen
    rows at every step. Same draws, in the same blocks of
    ``core.CHAIN_BLOCK`` steps, and the same acceptance rule as
    ``core.mh_sample``, so a seeded chain gives the same samples.
    Returns the samples and the number of proposals, burn-in included,
    that passed the Metropolis test."""
    rng = np.random.default_rng(seed)
    initial_state, moves, apply = _walk(space)

    @functools.lru_cache(maxsize=None)
    def log_weight(x: Explanation) -> float:
        lp = space.log_prior(x)
        return -np.inf if lp == -np.inf else learner.log_likelihood(theta, x) + lp

    state = initial_state(rng)
    state_w = log_weight(state)
    if state_w == -np.inf:
        raise ZeroStartMass(f"{space.descriptor}: initial state has zero posterior mass")

    samples: list[Explanation] = []
    accepted = 0
    block_moves, uniforms = [], []
    for step in range(burn_in + n):
        if step % CHAIN_BLOCK == 0:
            count = min(CHAIN_BLOCK, burn_in + n - step)
            block_moves = moves(rng, count)
            uniforms = rng.random(count)
        proposal = apply(state, block_moves[step % CHAIN_BLOCK])
        prop_w = log_weight(proposal)
        log_alpha = prop_w - state_w
        if log_alpha >= 0 or uniforms[step % CHAIN_BLOCK] < math.exp(log_alpha):
            state, state_w = proposal, prop_w
            accepted += 1
        if step >= burn_in:
            samples.append(state)
    return samples, accepted


def exact_shapley(value_fn: Callable[[tuple[int, ...]], float], n_features: int) -> np.ndarray:
    """Shapley values straight from the definition.

    phi_j = sum over coalitions S not containing j of
    v(S + j) - v(S), weighted by 1 / (n * C(n-1, |S|)).
    Every coalition value is computed once; the per-feature sums use
    compensated accumulation.
    """
    d = int(n_features)
    values = {}
    for bits in range(1 << d):
        coalition = tuple(j for j in range(d) if bits >> j & 1)
        values[bits] = float(value_fn(coalition))

    phi = np.zeros(d)
    for j in range(d):
        terms = []
        for bits in range(1 << d):
            if bits >> j & 1:
                continue
            s = bin(bits).count("1")
            weight = 1.0 / (d * math.comb(d - 1, s))
            terms.append(weight * (values[bits | 1 << j] - values[bits]))
        phi[j] = math.fsum(terms)
    return phi


def coalition_value_fn(
    predict: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    background: np.ndarray,
    class_index: int,
) -> Callable[[tuple[int, ...]], float]:
    """Value of a coalition: mean model output with the coalition's
    features taken from the point and the rest from each background row.

    Written loop-first on purpose; the fast path lives elsewhere.
    """
    point = np.asarray(point, dtype=float)
    background = np.atleast_2d(np.asarray(background, dtype=float))

    def value(coalition: tuple[int, ...]) -> float:
        outputs = []
        for row in background:
            z = row.copy()
            for j in coalition:
                z[j] = point[j]
            outputs.append(float(predict(z[None, :])[0, class_index]))
        return math.fsum(outputs) / len(outputs)

    return value
