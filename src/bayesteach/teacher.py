"""One entry point over the search strategies.

Every explanation method reduces to: pick a learner, an inference
target, and a candidate space, then search. This module gives the
searches a uniform interface so methods can be rebuilt from parts; it is
the one place in the package that dispatches a search strategy.

  exhaustive-max   normalize everything, take the argmax
  greedy           forward selection over subset slots
  mh-sample        Metropolis walk, reports its mode with the trace
  mc-expectation   likelihood-weighted average of prior draws
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import field

import numpy as np

from . import core
from .errors import AllZeroMass, BadSpec, StrategySpaceMismatch
from .spaces import ExplanationSpace, MaskSpace, SubsetSpace
from .types import (
    Explanation,
    ExplanationKind,
    LearnerModel,
    TargetInference,
    example_set,
    record,
)

STRATEGIES = ("exhaustive-max", "greedy", "mh-sample", "mc-expectation")


@record
class StrategyResult:
    explanation: Explanation
    strategy: str
    metadata: dict = field(default_factory=dict)
    samples: Sequence[Explanation] | None = None
    stderr: np.ndarray | None = field(default=None, repr=False)
    log_normalizer: float | None = None


def run_strategy(
    learner: LearnerModel,
    theta: TargetInference,
    space: ExplanationSpace,
    strategy: str,
    seed: int = 0,
    n: int = 10000,
    burn_in: int = 1000,
) -> StrategyResult:
    """Search the space with one strategy. ``n`` is the chain length of
    mh-sample, after ``burn_in`` discarded steps, and the draw count of
    mc-expectation."""
    if strategy == "exhaustive-max":
        best = core.posterior_max(learner, theta, space)
        meta = {
            "posterior_probability": best.probability,
            "log_weight": best.log_weight,
            "support_size": best.support_size,
        }
        return StrategyResult(best.explanation, strategy, meta, log_normalizer=best.log_normalizer)

    if strategy == "greedy":
        if not isinstance(space, SubsetSpace):
            raise StrategySpaceMismatch("greedy selection needs a subset space")
        return _greedy_subsets(learner, theta, space)

    if strategy == "mh-sample":
        samples = core.mh_sample(learner, theta, space, n, burn_in, seed)
        mode, frequency = samples.mode()
        meta = {
            "n": n,
            "burn_in": burn_in,
            "distinct_states": len(samples.tally),
            "mode_frequency": frequency,
            "acceptance_rate": samples.acceptance_rate,
        }
        return StrategyResult(mode, strategy, meta, samples=samples)

    if strategy == "mc-expectation":
        if not isinstance(space, MaskSpace):
            raise StrategySpaceMismatch("mc-expectation needs a mask space")
        weight_total, values, stderr = core.mask_expectation(
            space, n, seed, lambda masks: np.exp(core.score_rows(learner, theta, masks))
        )
        meta = {"n": n, "weight_total": weight_total}
        return StrategyResult(
            Explanation(ExplanationKind.SALIENCY_VECTOR, values),
            strategy,
            meta,
            stderr=stderr,
        )

    raise BadSpec(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def _greedy_subsets(learner: LearnerModel, theta: TargetInference, space: SubsetSpace) -> StrategyResult:
    """Fill per-class quotas one row at a time, each time adding the row
    whose partial subset the learner scores highest; ties keep the lowest
    index. Exact when the objective is separable across rows; requires a
    learner that can score partial subsets. ``picks`` lists the row added
    at each step, in step order, and ``score_trace`` the score after it; a
    step whose best score is -inf enters ``score_trace`` as None. Raises
    AllZeroMass when the finished subset still scores -inf, as every
    search strategy does."""
    pools, quotas = space._pools, space._ks
    chosen: list[list[int]] = [[] for _ in pools]
    picks: list[int] = []
    trace: list[float | None] = []
    for c, (pool, quota) in enumerate(zip(pools, quotas)):
        for _ in range(quota):
            best, best_score = None, -math.inf
            for cand in pool:
                if cand in chosen[c]:
                    continue
                trial = [sorted(seg) for seg in chosen]
                trial[c] = sorted(trial[c] + [cand])
                partial = example_set(itertools.chain.from_iterable(trial))
                score = learner.log_likelihood(theta, partial)
                # best is None keeps the lowest index when every
                # candidate is scoreless (-inf), e.g. before the subset
                # reaches a class the learner insists on
                if best is None or score > best_score:
                    best, best_score = cand, score
            chosen[c].append(best)
            chosen[c].sort()
            picks.append(best)
            trace.append(None if best_score == -math.inf else best_score)
    if trace[-1] is None:
        raise AllZeroMass(f"{space.descriptor}: the learner gives the greedy subset zero likelihood")
    final = example_set(itertools.chain.from_iterable(chosen))
    meta = {"score_trace": trace, "log_likelihood": trace[-1], "picks": picks}
    return StrategyResult(final, "greedy", meta)
