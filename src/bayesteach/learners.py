"""Simulated learners: likelihood functions P_L(theta | x).

Each factory closes over its context (model, dataset, point) and returns
a LearnerModel whose log-likelihood scores an inference target given an
explanation. The distribution-matching learner uses the exp(-loss)
bridge on the squared MMD, so that lower loss means higher likelihood.

Confirmation bias is a meta-model: it multiplies any base likelihood by
prior_belief(theta) raised to the bias strength, so strength zero is
exactly the unbiased learner.
"""

from __future__ import annotations

import functools
import math
from dataclasses import field

import numpy as np

from .errors import BadSpec, DimensionMismatch, MissingClass, NonFiniteResult
from .models import (
    Dataset,
    TargetModel,
    batch_predictor,
    plda_class_logpdf,
)
from .types import (
    MAX_DRAWS,
    Explanation,
    ExplanationKind,
    LearnerModel,
    TargetInference,
    ThetaKind,
    record,
)

# ---------------------------------------------------------------------------
# kernels


@record
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
    return float(np.sqrt(median(positive)))


# np.median and np.quantile import numpy.ma (9-15 ms) on their first
# call; these take the same floats from one sort.
def median(values: np.ndarray) -> float:
    """``np.median`` of NaN-free values, bit for bit: the middle value, or
    the mean of the two middle values."""
    ordered = np.sort(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def linear_quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` bit for bit, by numpy's default linear
    method. The result lies at virtual index (n - 1) q between two order
    statistics, and is interpolated from the lower one below half way
    and from the upper one from half way on, as numpy does; a NaN, which
    sorts last, makes the result NaN."""
    ordered = np.sort(values)
    top = len(ordered) - 1
    if math.isnan(ordered[-1]):
        return float(ordered[-1])
    position = top * q
    if position < top:
        lower = math.floor(position)
        upper = lower + 1
    else:  # numpy takes index -1 for both order statistics
        lower = upper = -1
    below, above = float(ordered[lower]), float(ordered[upper])
    gamma = position - lower
    step = above - below
    return above - step * (1 - gamma) if gamma >= 0.5 else below + step * gamma


# The rounding error of a² + b² - 2ab is below this times a² + b².
_EXPANSION_ROUNDING = 4.0 * np.finfo(float).eps


def _sqdists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances by the expansion a² + b² - 2ab. An entry below
    its rounding error is 0, so a point's distance to itself is exactly 0
    and k(x, x) = 1; an entry whose norms overflow stays inf (or NaN).
    More than ``MAX_DRAWS`` entries raise BadSpec before any is computed."""
    if A.shape[0] * B.shape[0] > MAX_DRAWS:
        raise BadSpec(f"{A.shape[0]} x {B.shape[0]} pairwise distances exceed the limit of {MAX_DRAWS} entries")
    norms = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :]
    sq = norms - 2.0 * A @ B.T
    return np.where(sq < _EXPANSION_ROUNDING * norms, 0.0, sq)


def kernel_matrix(A: np.ndarray, B: np.ndarray, kernel: KernelConfig) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"kernel inputs disagree: {A.shape[1]} vs {B.shape[1]} features")
    if kernel.bandwidth is None:
        raise BadSpec("kernel bandwidth is unresolved; call resolve() on data first")
    return np.exp(-_sqdists(A, B) / (2.0 * kernel.bandwidth * kernel.bandwidth))


def mmd2(set_a: np.ndarray, set_b: np.ndarray, kernel: KernelConfig, *, kbb=None) -> float:
    """Squared maximum mean discrepancy, biased V-statistic.

    The biased form keeps mmd2(X, X) exactly representable as zero up to
    rounding and stays nonnegative for positive-definite kernels. ``kbb``,
    the mean kernel value over set_b x set_b, is computed when not given.
    """
    kaa = kernel_matrix(set_a, set_a, kernel).mean()
    if kbb is None:
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


def in_order_sum(terms) -> float:
    """The terms added left to right from 0.0; builtin ``sum`` compensates
    its rounding from Python 3.12 on."""
    total = 0.0
    for t in terms:
        total += t
    return total


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
    """PLDA learner whose likelihood splits over classes.

    The mean posterior factorizes over classes: the log likelihood is a
    sum of one ``plda_class_logpdf`` term per class, of the class's rows
    ascending. ``block_terms`` scores them per single-class pool, a stack
    of row subsets per call. Data of another width than the model's
    raises DimensionMismatch.
    """
    width = model.parameters["center"].shape[0]
    if data.n_features != width:
        raise DimensionMismatch(f"the plda model expects {width} features, the data has {data.n_features}")
    shape = model.parameters["latent_means"].shape

    def means_of(theta: TargetInference) -> np.ndarray:
        if theta.kind is not ThetaKind.LATENT_CLASS_MEANS:
            raise BadSpec(f"plda learner scores latent class means, not {theta.kind.value}")
        means = np.asarray(theta.payload, dtype=float)
        if means.shape != shape:
            raise DimensionMismatch(f"latent means must have shape {shape}, got {means.shape}")
        return means

    def log_likelihood(theta: TargetInference, x: Explanation) -> float:
        means = means_of(theta)
        if x.kind is not ExplanationKind.EXAMPLE_SET:
            raise BadSpec(f"plda learner consumes example sets, not {x.kind.value}")
        # rows of a class the model lacks are ignored
        rows = np.sort(np.asarray(x.payload, dtype=np.intp))
        labels = data.labels[rows]
        total = 0.0
        for c in range(model.class_count):
            if not (labels == c).any():
                raise MissingClass(f"subset has no row of class {c}")
            total += plda_class_logpdf(model, data.features[rows[labels == c]], means[c])
        return total

    def block_terms(theta: TargetInference, pools):
        """One class term per pool, added in pool order as
        ``log_likelihood`` adds them (``_pool_classes``); rows of a class
        the model lacks add 0. A model class no pool holds raises the
        ``MissingClass`` of every candidate."""
        means = means_of(theta)
        classes = _pool_classes(data, pools)
        if classes is None:
            return None
        missing = set(range(model.class_count)).difference(classes)
        if missing:
            raise MissingClass(f"subset has no row of class {min(missing)}")

        def scorer(c: int):
            if c >= model.class_count:
                return lambda rows: np.zeros(len(rows))
            return lambda rows: plda_class_logpdf(model, data.features[rows], means[c])

        return [scorer(c) for c in classes], None

    return LearnerModel("plda mean-posterior learner", log_likelihood).factored(block_terms)


# ---------------------------------------------------------------------------
# masked prediction learner


def masked_batch_values(
    model_or_fn,
    point: np.ndarray,
    masks: np.ndarray,
    label: int,
    baseline: np.ndarray | float = 0.0,
) -> np.ndarray:
    """Probability of ``label`` under each mask's composite, where the
    features a mask hides take the baseline's values: composite =
    baseline + mask * (point - baseline). The baseline is a scalar, a
    row, or an (m, d) background; a background's m composites per mask
    are scored and their probabilities averaged, so a one-row background
    gives the values of that row as baseline."""
    predict = batch_predictor(model_or_fn)
    point = np.asarray(point, dtype=float)
    masks = np.atleast_2d(np.asarray(masks, dtype=float))
    base = np.asarray(baseline, dtype=float)
    if base.ndim < 2:
        base = np.broadcast_to(base, point.shape)[None, :]
    for name, width in (("masks", masks.shape[1]), ("background rows", base.shape[1])):
        if width != point.shape[0]:
            raise DimensionMismatch(f"{name} have {width} entries for a {point.shape[0]}-feature point")
    composites = base + masks[:, None, :] * (point - base)
    values = class_column(predict(composites.reshape(-1, point.shape[0])), label)
    return values.reshape(masks.shape[0], base.shape[0]).mean(axis=1)


def class_column(probs: np.ndarray, label: int) -> np.ndarray:
    """Column ``label`` of a batch of class probabilities; a label outside
    [0, C) raises BadSpec."""
    if not 0 <= label < probs.shape[1]:
        raise BadSpec(f"label {label} out of range for {probs.shape[1]} classes")
    return probs[:, label]


def predicted_label(predict, point: np.ndarray, label: int | None = None) -> int:
    """``label``, by default the class ``predict`` gives the point; a label
    outside [0, C) raises BadSpec."""
    probs = predict(point[None, :])
    label = int(np.argmax(probs[0])) if label is None else label
    class_column(probs, label)
    return label


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
        value = float(masked_batch_values(model_or_fn, point, x.payload, int(theta.payload), baseline)[0])
        return math.log(value) if value > 0 else -math.inf

    def batch_log_likelihood(theta: TargetInference, masks: np.ndarray) -> np.ndarray:
        check_theta(theta)
        values = masked_batch_values(model_or_fn, point, masks, int(theta.payload), baseline)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(values > 0, np.log(values), -np.inf)

    return LearnerModel("masked-prediction learner", log_likelihood).batched(batch_log_likelihood)


# ---------------------------------------------------------------------------
# distribution-matching and nearest-class learners


def make_mmd_learner(data: Dataset, kernel: KernelConfig, temperature: float = 1.0) -> LearnerModel:
    """Scores how well an example subset matches a reference sample,
    via exp(-mmd2 / temperature). The bandwidth resolved on the reference
    and the reference's kernel self-term are computed once per target."""
    if temperature <= 0:
        raise BadSpec("temperature must be positive")

    @functools.lru_cache(maxsize=None)
    def reference_terms(theta: TargetInference):
        reference = np.asarray(theta.payload[0], dtype=float)
        resolved = kernel.resolve(reference)
        return reference, resolved, kernel_matrix(reference, reference, resolved).mean()

    def log_likelihood(theta: TargetInference, x: Explanation) -> float:
        if theta.kind is not ThetaKind.CLASS_DATA_DISTRIBUTION:
            raise BadSpec(f"mmd learner scores class data distributions, not {theta.kind.value}")
        if x.kind is not ExplanationKind.EXAMPLE_SET:
            raise BadSpec(f"mmd learner consumes example sets, not {x.kind.value}")
        reference, resolved, kbb = reference_terms(theta)
        subset = data.features[np.asarray(x.payload, dtype=int)]
        return -mmd2(subset, reference, resolved, kbb=kbb) / temperature

    return LearnerModel("distribution-matching learner", log_likelihood)


def make_nearest_class_learner(data: Dataset, point: np.ndarray, temperature: float = 1.0) -> LearnerModel:
    """A learner that classifies the point by nearest class centroid of
    the shown examples; likelihood is its softmax class probability. A
    class's score depends only on that class's rows, so ``block_terms``
    scores single-class pools apart and combines them by the same softmax.
    A score that overflows (a squared distance over a tiny temperature)
    raises ``NonFiniteResult``, since the softmax of -inf scores is NaN,
    and a point of another width than the data ``DimensionMismatch``.
    """
    if temperature <= 0:
        raise BadSpec("temperature must be positive")
    point = np.asarray(point, dtype=float)
    if point.shape != (data.n_features,):
        raise DimensionMismatch(f"the point has shape {point.shape}, the data {data.n_features} features")

    def check_theta(theta: TargetInference) -> None:
        if theta.kind is not ThetaKind.PREDICTED_LABEL:
            raise BadSpec(f"nearest-class learner scores predicted labels, not {theta.kind.value}")

    def class_score(rows: np.ndarray):
        """The centroid score of each (k, d) set of rows in the last two
        axes: a float for one set, an array for a stack."""
        distance = ((point - rows.mean(axis=-2)) ** 2).sum(axis=-1)
        with np.errstate(over="ignore"):
            score = -distance / temperature
        if not np.isfinite(score).all():
            distance = float(np.ravel(distance)[np.argmin(np.isfinite(score))])
            raise NonFiniteResult(
                f"nearest-class score of a squared distance {distance!r} at temperature "
                f"{temperature!r} is not finite; raise the temperature"
            )
        return score if score.ndim else float(score)

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
        scorers = [lambda rows: class_score(data.features[rows])] * len(pools)
        wanted = int(theta.payload)
        if wanted not in classes:
            return scorers, lambda scores: -math.inf
        return scorers, lambda scores, j=classes.index(wanted): softmax_at(scores, j)

    return LearnerModel("nearest-class-centroid learner", log_likelihood).factored(block_terms)


# ---------------------------------------------------------------------------
# confirmation bias


@record
class BiasConfig:
    """Confirmation bias: prior beliefs over candidate inference targets
    and a strength exponent. Strength zero disables the bias."""

    confirmation_strength: float
    candidates: tuple[TargetInference, ...]
    prior_belief: np.ndarray = field(repr=False)

    def __post_init__(self):
        prior = np.asarray(self.prior_belief, dtype=float)
        if not self.confirmation_strength >= 0:  # NaN included
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

    def block_terms(theta: TargetInference, pools):
        """The base's, the bias added after their combine as in ``log_likelihood``; None as theirs."""
        split = base.block_terms and base.block_terms(theta, pools)
        if split:
            scorers, combine = split
            return scorers, lambda terms: (combine or in_order_sum)(terms) + gamma * bias.log_prior_of(theta)

    return LearnerModel(f"{base.description} [bias strength {gamma}]", log_likelihood).factored(block_terms)
