"""Simulated learners: likelihood functions P_L(theta | x).

Each factory closes over its context (model, dataset, point) and returns
a LearnerModel whose log-likelihood scores an inference target given an
explanation. Loss-based learners use the exp(-loss) bridge so that lower
loss means higher likelihood.

Confirmation bias is a meta-model: it multiplies any base likelihood by
prior_belief(theta) raised to the bias strength, so strength zero is
exactly the unbiased learner.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadSpec, DimensionMismatch, MissingClass, NonFiniteResult, ZeroTotalWeight
from .models import (
    Dataset,
    TargetModel,
    batch_predictor,
    plda_class_logpdf,
)
from .types import (
    Explanation,
    ExplanationKind,
    LearnerModel,
    TargetInference,
    ThetaKind,
)

# ---------------------------------------------------------------------------
# kernels


@dataclass(frozen=True)
class KernelConfig:
    """Bandwidth of the rbf kernel; None means median heuristic."""

    bandwidth: float | None = None

    def __post_init__(self):
        # a bandwidth under ~1e-154 squares to 0, and the kernel to 0/0
        if self.bandwidth is not None and not (self.bandwidth > 0 and self.bandwidth * self.bandwidth > 0):
            raise BadSpec(f"bandwidth must be positive and square to a positive number, got {self.bandwidth!r}")

    def resolve(self, data: np.ndarray) -> "KernelConfig":
        if self.bandwidth is not None:
            return self
        return KernelConfig(median_bandwidth(data))


def median_bandwidth(data: np.ndarray) -> float:
    """Median pairwise distance; falls back to 1.0 for degenerate data."""
    sq = _sqdists(data, data)
    off = sq[np.triu_indices(sq.shape[0], k=1)]
    positive = off[off > 0]
    if positive.size == 0:
        return 1.0
    return float(np.sqrt(np.median(positive)))


def _sqdists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    a2 = (A * A).sum(axis=1)[:, None]
    b2 = (B * B).sum(axis=1)[None, :]
    return np.maximum(a2 + b2 - 2.0 * A @ B.T, 0.0)


def kernel_matrix(A: np.ndarray, B: np.ndarray, kernel: KernelConfig) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"kernel inputs disagree: {A.shape[1]} vs {B.shape[1]} features")
    if kernel.bandwidth is None:
        raise BadSpec("kernel bandwidth is unresolved; call resolve() on data first")
    return np.exp(-_sqdists(A, B) / (2.0 * kernel.bandwidth * kernel.bandwidth))


def mmd2(set_a: np.ndarray, set_b: np.ndarray, kernel: KernelConfig) -> float:
    """Squared maximum mean discrepancy, biased V-statistic.

    The biased form keeps mmd2(X, X) exactly representable as zero up to
    rounding and stays nonnegative for positive-definite kernels.
    """
    kaa = kernel_matrix(set_a, set_a, kernel).mean()
    kbb = kernel_matrix(set_b, set_b, kernel).mean()
    kab = kernel_matrix(set_a, set_b, kernel).mean()
    return float(kaa + kbb - 2.0 * kab)


def witness(point: np.ndarray, data: np.ndarray, prototypes: np.ndarray, kernel: KernelConfig) -> float:
    """Mean kernel similarity to the data minus to the prototypes.

    Large magnitude marks a point the prototypes misrepresent; the sign
    says which side over-covers it.
    """
    point = np.atleast_2d(np.asarray(point, dtype=float))
    to_data = kernel_matrix(point, data, kernel).mean()
    to_protos = kernel_matrix(point, prototypes, kernel).mean()
    return float(to_data - to_protos)


# ---------------------------------------------------------------------------
# subset learners


def _pool_classes(data: Dataset, pools) -> list[int] | None:
    """The class of each pool when every pool holds a single class and the
    classes ascend, the order in which the subset learners visit classes;
    None otherwise. Their ``block_terms`` apply only then."""
    classes = [set(data.labels[list(pool)].tolist()) for pool in pools]
    if any(len(c) != 1 for c in classes):
        return None
    classes = [int(c.pop()) for c in classes]
    return classes if classes == sorted(set(classes)) else None


def make_plda_learner(model: TargetModel, data: Dataset) -> LearnerModel:
    """PLDA learner with per-class memoization.

    The mean posterior factorizes over classes: the log likelihood is a
    sum of one term per class, and each (target, class, subset rows) term
    is scored once even when a joint space repeats it. ``block_terms``
    exposes the terms for subset spaces whose pools are single classes.
    """
    shape = model.parameters["latent_means"].shape

    def theta_array(theta: TargetInference) -> np.ndarray:
        theta_arr = np.asarray(theta.payload, dtype=float)
        if theta_arr.shape != shape:
            raise DimensionMismatch(f"latent means must have shape {shape}, got {theta_arr.shape}")
        return theta_arr

    @functools.lru_cache(maxsize=None)
    def class_term(theta: TargetInference, c: int, rows: tuple[int, ...]) -> float:
        return plda_class_logpdf(model, data.features[list(rows)], theta_array(theta)[c])

    def log_likelihood(theta: TargetInference, x: Explanation) -> float:
        if theta.kind is not ThetaKind.LATENT_CLASS_MEANS:
            raise BadSpec(f"plda learner scores latent class means, not {theta.kind.value}")
        if x.kind is not ExplanationKind.EXAMPLE_SET:
            raise BadSpec(f"plda learner consumes example sets, not {x.kind.value}")
        theta_array(theta)
        indices = np.asarray(x.payload, dtype=int)
        labels = data.labels[indices]
        total = 0.0
        for c in range(model.class_count):
            rows = tuple(sorted(indices[labels == c].tolist()))
            if not rows:
                raise MissingClass(f"subset has no row of class {c}")
            total += class_term(theta, c, rows)
        return total

    def block_terms(theta: TargetInference, pools):
        """One class term per pool, added in pool order as
        ``log_likelihood`` adds them (``_pool_classes``); rows of a class
        the model lacks add 0."""
        if theta.kind is not ThetaKind.LATENT_CLASS_MEANS:
            raise BadSpec(f"plda learner scores latent class means, not {theta.kind.value}")
        theta_array(theta)
        classes = _pool_classes(data, pools)
        if classes is None:
            return None

        def scorer(c: int):
            if c >= model.class_count:
                return lambda rows: 0.0
            return lambda rows: class_term(theta, c, rows)

        return [scorer(c) for c in classes], None

    return LearnerModel("plda mean-posterior learner", log_likelihood).factored(block_terms)


# ---------------------------------------------------------------------------
# masked prediction learner


def masked_prediction_likelihood(
    model_or_fn,
    point: np.ndarray,
    mask: np.ndarray,
    label: int,
    baseline: np.ndarray | float = 0.0,
) -> float:
    """Probability of ``label`` when unmasked features are replaced by the
    baseline: composite = baseline + mask * (point - baseline)."""
    values = masked_batch_values(model_or_fn, point, np.asarray(mask)[None, :], label, baseline)
    return float(values[0])


def masked_batch_values(
    model_or_fn,
    point: np.ndarray,
    masks: np.ndarray,
    label: int,
    baseline: np.ndarray | float = 0.0,
) -> np.ndarray:
    predict = batch_predictor(model_or_fn)
    point = np.asarray(point, dtype=float)
    masks = np.atleast_2d(np.asarray(masks, dtype=float))
    if masks.shape[1] != point.shape[0]:
        raise DimensionMismatch(
            f"masks have {masks.shape[1]} entries for a {point.shape[0]}-feature point"
        )
    base = np.broadcast_to(np.asarray(baseline, dtype=float), point.shape)
    composites = base + masks * (point - base)
    return class_column(predict(composites), label)


def class_column(probs: np.ndarray, label: int) -> np.ndarray:
    """Column ``label`` of a batch of class probabilities; a label outside
    [0, C) raises BadSpec."""
    if not 0 <= label < probs.shape[1]:
        raise BadSpec(f"label {label} out of range for {probs.shape[1]} classes")
    return probs[:, label]


def make_masked_prediction_learner(
    model_or_fn, point: np.ndarray, baseline: np.ndarray | float = 0.0
) -> LearnerModel:
    def check_theta(theta: TargetInference) -> None:
        if theta.kind is not ThetaKind.PREDICTED_LABEL:
            raise BadSpec(f"masked-prediction learner scores predicted labels, not {theta.kind.value}")

    def log_likelihood(theta: TargetInference, x: Explanation) -> float:
        check_theta(theta)
        if x.kind is not ExplanationKind.FEATURE_MASK:
            raise BadSpec(f"masked-prediction learner consumes feature masks, not {x.kind.value}")
        value = masked_prediction_likelihood(model_or_fn, point, np.asarray(x.payload), int(theta.payload), baseline)
        return math.log(value) if value > 0 else -math.inf

    def batch_log_likelihood(theta: TargetInference, masks: np.ndarray) -> np.ndarray:
        check_theta(theta)
        values = masked_batch_values(model_or_fn, point, masks, int(theta.payload), baseline)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(values > 0, np.log(values), -np.inf)

    return LearnerModel("masked-prediction learner", log_likelihood).batched(batch_log_likelihood)


# ---------------------------------------------------------------------------
# surrogate fit loss


def _surrogate_outputs(surrogate: Explanation, points: np.ndarray, want_dist: bool):
    if surrogate.kind is ExplanationKind.LINEAR_WEIGHTS:
        weights, intercept = surrogate.payload
        out = points @ np.asarray(weights, dtype=float) + float(intercept)
        if want_dist:
            raise BadSpec("linear-weights surrogates model one class probability, not a distribution")
        return out
    if surrogate.kind is ExplanationKind.SOFT_TREE:
        probs = surrogate.payload.predict_proba(points)
        return probs if want_dist else probs[:, 1]
    raise BadSpec(f"{surrogate.kind.value} is not a surrogate explanation")


def surrogate_fit_loss(
    surrogate: Explanation,
    target_values: np.ndarray,
    probe_points: np.ndarray,
    probe_weights: np.ndarray,
    theta_kind: ThetaKind,
) -> float:
    """How badly the surrogate reproduces the target on weighted probes.

    Local decision boundary: weighted mean squared error against the
    target class probability. Predictive distribution: weighted mean
    KL(target || surrogate). Both are weight-normalized, so rescaling
    all probe weights leaves the loss unchanged.
    """
    points = np.atleast_2d(np.asarray(probe_points, dtype=float))
    weights = np.asarray(probe_weights, dtype=float)
    if weights.shape != (points.shape[0],):
        raise DimensionMismatch("one probe weight per probe point required")
    if np.any(weights < 0):
        raise BadSpec("probe weights must be nonnegative")
    total = float(weights.sum())
    if total <= 0.0:
        raise ZeroTotalWeight("all probe weights are zero")

    if theta_kind is ThetaKind.LOCAL_DECISION_BOUNDARY:
        target = np.asarray(target_values, dtype=float)
        out = _surrogate_outputs(surrogate, points, want_dist=False)
        return float(np.sum(weights * (out - target) ** 2) / total)
    if theta_kind is ThetaKind.PREDICTIVE_DISTRIBUTION:
        target = np.atleast_2d(np.asarray(target_values, dtype=float))
        out = np.clip(_surrogate_outputs(surrogate, points, want_dist=True), 1e-12, None)
        safe_target = np.clip(target, 1e-12, None)
        kl = np.sum(target * (np.log(safe_target) - np.log(out)), axis=1)
        return float(np.sum(weights * kl) / total)
    raise BadSpec(f"surrogate fit loss is undefined for {theta_kind.value}")


# ---------------------------------------------------------------------------
# distribution-matching and nearest-class learners


def make_mmd_learner(data: Dataset, kernel: KernelConfig, temperature: float = 1.0) -> LearnerModel:
    """Scores how well an example subset matches a reference sample,
    via exp(-mmd2 / temperature)."""
    if temperature <= 0:
        raise BadSpec("temperature must be positive")

    def log_likelihood(theta: TargetInference, x: Explanation) -> float:
        if theta.kind is not ThetaKind.CLASS_DATA_DISTRIBUTION:
            raise BadSpec(f"mmd learner scores class data distributions, not {theta.kind.value}")
        if x.kind is not ExplanationKind.EXAMPLE_SET:
            raise BadSpec(f"mmd learner consumes example sets, not {x.kind.value}")
        reference, _class_index = theta.payload
        subset = data.features[np.asarray(x.payload, dtype=int)]
        resolved = kernel.resolve(np.asarray(reference, dtype=float))
        return -mmd2(subset, np.asarray(reference, dtype=float), resolved) / temperature

    return LearnerModel("distribution-matching learner", log_likelihood)


def make_nearest_class_learner(data: Dataset, point: np.ndarray, temperature: float = 1.0) -> LearnerModel:
    """A learner that classifies the point by nearest class centroid of
    the shown examples; likelihood is its softmax class probability. A
    class's score depends only on that class's rows, so ``block_terms``
    scores single-class pools apart and combines them by the same softmax.
    A score that overflows (a squared distance over a tiny temperature)
    raises ``NonFiniteResult``, since the softmax of -inf scores is NaN.
    """
    if temperature <= 0:
        raise BadSpec("temperature must be positive")
    point = np.asarray(point, dtype=float)

    def check_theta(theta: TargetInference) -> None:
        if theta.kind is not ThetaKind.PREDICTED_LABEL:
            raise BadSpec(f"nearest-class learner scores predicted labels, not {theta.kind.value}")

    def class_score(rows: np.ndarray) -> float:
        distance = float(((point - rows.mean(axis=0)) ** 2).sum())
        score = -distance / temperature
        if not math.isfinite(score):
            raise NonFiniteResult(
                f"nearest-class score of a squared distance {distance!r} at temperature "
                f"{temperature!r} is not finite; raise the temperature"
            )
        return score

    def softmax_at(scores, j: int) -> float:
        top = max(scores)
        return scores[j] - (math.log(math.fsum(math.exp(s - top) for s in scores)) + top)

    def log_likelihood(theta: TargetInference, x: Explanation) -> float:
        check_theta(theta)
        if x.kind is not ExplanationKind.EXAMPLE_SET:
            raise BadSpec(f"nearest-class learner consumes example sets, not {x.kind.value}")
        indices = np.asarray(x.payload, dtype=int)
        labels = data.labels[indices]
        wanted = int(theta.payload)
        classes = sorted(set(labels.tolist()))
        if wanted not in classes:
            return -math.inf
        scores = [class_score(data.features[indices[labels == c]]) for c in classes]
        return softmax_at(scores, classes.index(wanted))

    def block_terms(theta: TargetInference, pools):
        """One centroid score per pool (``_pool_classes``), combined by the
        softmax at the wanted class; -inf when no pool holds it."""
        check_theta(theta)
        classes = _pool_classes(data, pools)
        if classes is None:
            return None
        scorers = [lambda rows: class_score(data.features[list(rows)])] * len(pools)
        wanted = int(theta.payload)
        if wanted not in classes:
            return scorers, lambda scores: -math.inf
        return scorers, lambda scores, j=classes.index(wanted): softmax_at(scores, j)

    return LearnerModel("nearest-class-centroid learner", log_likelihood).factored(block_terms)


# ---------------------------------------------------------------------------
# confirmation bias


@dataclass(frozen=True)
class BiasConfig:
    """Confirmation bias: prior beliefs over candidate inference targets
    and a strength exponent. Strength zero disables the bias."""

    confirmation_strength: float
    candidates: tuple[TargetInference, ...]
    prior_belief: np.ndarray = field(repr=False)

    def __post_init__(self):
        prior = np.asarray(self.prior_belief, dtype=float)
        if self.confirmation_strength < 0:
            raise BadSpec("confirmation strength must be nonnegative")
        if prior.shape != (len(self.candidates),):
            raise BadSpec("one prior mass per candidate required")
        if np.any(prior < 0) or abs(float(prior.sum()) - 1.0) > 1e-9:
            raise BadSpec("prior belief must be a probability vector")
        object.__setattr__(self, "prior_belief", prior)
        object.__setattr__(self, "candidates", tuple(self.candidates))

    def log_prior_of(self, theta: TargetInference) -> float:
        for i, cand in enumerate(self.candidates):
            if cand is theta or cand == theta:
                p = self.prior_belief[i]
                return math.log(p) if p > 0 else -math.inf
        raise BadSpec("inference target is not among the bias candidates")


def biased_learner(base: LearnerModel, bias: BiasConfig) -> LearnerModel:
    """base likelihood times prior_belief ** strength.

    Strength zero returns the base learner itself, so the unbiased case
    is recovered exactly rather than approximately.
    """
    gamma = float(bias.confirmation_strength)
    if gamma == 0.0:
        return base

    def log_likelihood(theta: TargetInference, x: Explanation) -> float:
        return base.log_likelihood(theta, x) + gamma * bias.log_prior_of(theta)

    return LearnerModel(f"{base.description} [bias strength {gamma}]", log_likelihood)
