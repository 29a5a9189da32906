"""Explanation methods, each a specific choice of learner, inference
target, explanation space, and search strategy.

  explain_by_examples  per-class example subsets for a discriminant model
  mmd_prototypes       greedy prototype selection minimizing squared MMD
  mmd_criticisms       points the prototypes represent worst
  rise_saliency        saliency as a likelihood-weighted average of masks
  kernel_shap          additive attributions via weighted least squares
  lime_local           local linear surrogate of one class probability
  distill_tree         soft decision tree matching a model's distribution

The example, prototype and saliency methods build their learner, target
and space and search them through ``teacher.run_strategy``, looked up at
call time; they keep no search of their own. Kernel SHAP scores its
coalitions by the masked-prediction learner's values over a background,
and fits them by ``weighted_fit``, LIME's kernel-weighted regression.
Results are records, which ``models.jsonable`` turns into their documents
field by field.
"""

from __future__ import annotations

import math
from dataclasses import field

import numpy as np

from . import core, teacher
from .errors import BadSpec, NonFiniteResult, SingularSystem
from .learners import (
    KernelConfig,
    class_column,
    make_masked_prediction_learner,
    make_mmd_learner,
    make_plda_learner,
    masked_batch_values,
    predicted_label,
    witness,
)
from .models import Dataset, TargetModel, batch_predictor, softmax
from .spaces import MaskSpace, SubsetSpace, coalition_rows
from .types import TargetInference, ThetaKind, record


# ---------------------------------------------------------------------------
# example selection


@record
class ExampleSelectionReport:
    indices: tuple[int, ...]
    per_class: dict[str, tuple[int, ...]]
    log_likelihood: float
    posterior_probability: float | None
    strategy: str
    space_size: int
    metadata: dict = field(default_factory=dict)


def _split_by_class(data: Dataset, indices) -> dict[str, tuple[int, ...]]:
    """The rows of ``indices`` of each class, keyed by the class as a str."""
    arr = np.asarray(indices, dtype=int)
    labels = data.labels[arr]
    return {
        str(c): tuple(sorted(arr[labels == c].tolist()))
        for c in sorted(set(labels.tolist()))
    }


def explain_by_examples(
    model: TargetModel,
    data: Dataset,
    per_class_k: int = 2,
    strategy: str = "exhaustive-max",
    seed: int = 0,
    per_class_independent: bool = False,
    mh_steps: int = 20000,
    mh_burn_in: int = 2000,
) -> ExampleSelectionReport:
    """Pick the example subset a subset-trained learner would most likely
    read the full-fit latent class means from: the posterior argmax
    (exhaustive-max), or the mode of a Metropolis chain (mh-sample),
    reported as strategy "mh". Both run through ``teacher.run_strategy``,
    looked up at call time."""
    if model.family != "plda":
        raise BadSpec(f"example selection explains plda models, not {model.family}")
    learner = make_plda_learner(model, data)
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, model.parameters["latent_means"])
    space = SubsetSpace.per_class(data.labels, per_class_k)

    if per_class_independent:
        # The mean posterior factorizes over classes, so the per-class
        # argmax assembles the joint argmax directly.
        terms, _ = core.pool_terms(learner, theta, space)
        x, _ = core.PoolTable(space, terms, None).best()
        ll = learner.log_likelihood(theta, x)
        return ExampleSelectionReport(
            x.payload, _split_by_class(data, x.payload), ll, None,
            "per-class-independent", space.size(),
        )

    if strategy not in ("exhaustive-max", "mh-sample"):
        raise BadSpec(f"unknown strategy {strategy!r}; use exhaustive-max or mh-sample")
    result = teacher.run_strategy(learner, theta, space, strategy, seed=seed, n=mh_steps, burn_in=mh_burn_in)
    x, meta = result.explanation, result.metadata
    if strategy == "exhaustive-max":
        return ExampleSelectionReport(
            x.payload, _split_by_class(data, x.payload), meta["log_weight"],
            meta["posterior_probability"], strategy, space.size(),
            {"log_normalizer": result.log_normalizer},
        )
    return ExampleSelectionReport(
        x.payload, _split_by_class(data, x.payload), learner.log_likelihood(theta, x), None,
        "mh", space.size(),
        {"mode_frequency": meta["mode_frequency"], "steps": mh_steps, "burn_in": mh_burn_in,
         "acceptance_rate": meta["acceptance_rate"]},
    )


# ---------------------------------------------------------------------------
# prototypes and criticisms


@record
class PrototypeReport:
    indices: tuple[int, ...]
    mmd2_trace: tuple[float, ...]
    bandwidth: float


@record
class CriticismReport:
    indices: tuple[int, ...]
    witness_values: tuple[float, ...]
    bandwidth: float


def mmd_prototypes(data: Dataset, m: int, kernel: KernelConfig = KernelConfig()) -> PrototypeReport:
    """Greedy forward selection of m rows minimizing squared MMD to the
    full dataset; ties break toward the lower row index. The mmd learner
    at temperature 1 scores -mmd2 against the whole data, and
    ``teacher.run_strategy`` runs greedy over the m-subsets of all rows,
    so the trace is the negated score trace."""
    X = data.features
    n = X.shape[0]
    if not 1 <= m <= n:
        raise BadSpec(f"prototype count must be in [1, {n}], got {m}")
    resolved = kernel.resolve(X)
    theta = TargetInference(ThetaKind.CLASS_DATA_DISTRIBUTION, (X, None))
    space = SubsetSpace([range(n)], [m])
    meta = teacher.run_strategy(make_mmd_learner(data, resolved), theta, space, "greedy").metadata
    return PrototypeReport(tuple(meta["picks"]), tuple(-s for s in meta["score_trace"]), resolved.bandwidth)


def mmd_criticisms(
    data: Dataset,
    prototype_indices,
    c: int,
    kernel: KernelConfig = KernelConfig(),
) -> CriticismReport:
    """The c non-prototype rows with the largest absolute witness value."""
    X = data.features
    protos = np.asarray(list(prototype_indices), dtype=int)
    kept = np.ones(X.shape[0], dtype=bool)
    kept[protos] = False
    rest = np.flatnonzero(kept)
    if rest.size == 0:
        raise BadSpec(f"no non-prototype row is left to criticise: all {X.shape[0]} rows are prototypes")
    if not 1 <= c <= rest.size:
        raise BadSpec(f"criticism count must be in [1, {rest.size}], got {c}")
    resolved = kernel.resolve(X)
    values = np.array([witness(X[i], X, X[protos], resolved) for i in rest])
    # Sort by decreasing |witness|; equal magnitudes keep index order.
    order = sorted(range(rest.size), key=lambda i: (-abs(values[i]), rest[i]))[:c]
    picked = [int(rest[i]) for i in order]
    return CriticismReport(tuple(picked), tuple(float(values[i]) for i in order), resolved.bandwidth)


# ---------------------------------------------------------------------------
# saliency


@record
class SaliencyReport:
    values: np.ndarray = field(repr=False)
    stderr: np.ndarray = field(repr=False)
    target_class: int
    mask_count: int
    keep_prob: float


def rise_saliency(
    model_or_fn,
    point: np.ndarray,
    n_masks: int = 4000,
    keep_prob: float = 0.5,
    seed: int = 0,
    baseline: np.ndarray | float = 0.0,
    target_class: int | None = None,
) -> SaliencyReport:
    """Expected mask weighted by masked prediction likelihood.

    saliency_j = sum_i w_i M_ij / sum_i w_i with w_i the probability the
    model keeps the target class under mask M_i. An expectation, not a
    maximum: averaging is what cancels the noise in individual masks.
    This is the masked-prediction learner searched by mc-expectation over
    ``n_masks`` draws of the mask space.
    """
    point = np.asarray(point, dtype=float)
    space = MaskSpace(point.shape[0], keep_prob)
    predict = batch_predictor(model_or_fn)
    target_class = predicted_label(predict, point, target_class)
    learner = make_masked_prediction_learner(predict, point, baseline)
    theta = TargetInference(ThetaKind.PREDICTED_LABEL, target_class)
    result = teacher.run_strategy(learner, theta, space, "mc-expectation", seed=seed, n=n_masks)
    return SaliencyReport(result.explanation.payload, result.stderr, target_class, n_masks, keep_prob)


# ---------------------------------------------------------------------------
# kernel SHAP


@record
class ShapReport:
    phi: np.ndarray = field(repr=False)
    base_value: float
    full_value: float
    target_class: int
    mode: str
    coalition_count: int


def weighted_fit(X: np.ndarray, y: np.ndarray, w: np.ndarray, p: np.ndarray, remedy: str) -> np.ndarray:
    """The beta minimising sum_i w_i (y_i - X_i . beta)^2 + sum_j p_j beta_j^2,
    from the normal equations. A penalised system [sqrt(w) X; diag(sqrt p)]
    of rank below its column count, by lstsq's rcond=None rule, leaves the
    fit unidentified and raises SingularSystem, whose message ends in
    ``remedy``."""
    rank = np.linalg.matrix_rank(np.vstack([np.sqrt(w)[:, None] * X, np.diag(np.sqrt(p))[p > 0]]))
    if rank < X.shape[1]:
        raise SingularSystem(f"the weighted design has rank {rank} < {X.shape[1]} coefficients; {remedy}")
    return np.linalg.solve(X.T @ (w[:, None] * X) + np.diag(p), X.T @ (w * y))


def kernel_shap(
    model_or_fn,
    point: np.ndarray,
    background: np.ndarray,
    target_class: int | None = None,
    mode: str = "exact",
    n_samples: int = 2048,
    seed: int = 0,
) -> ShapReport:
    """Additive attributions by kernel-weighted least squares.

    A coalition's value is the masked-prediction learner's, averaged over
    the background (``masked_batch_values``). Exact mode enumerates every
    nontrivial coalition; the two boundary coalitions enter as hard
    constraints (intercept fixed at the empty value, attributions summing
    to full minus empty), enforced by eliminating the last attribution
    before ``weighted_fit``. Sampled mode draws ``n_samples`` coalitions;
    fewer than one raises BadSpec. So does a request whose coalition
    rows, times the background rows and the features, exceed
    ``core.MAX_DRAWS`` entries, before anything is evaluated.
    """
    if mode not in ("exact", "sampled"):
        raise BadSpec(f"unknown mode {mode!r}; use exact or sampled")
    if mode == "sampled" and n_samples < 1:
        raise BadSpec(f"sampled mode needs n_samples >= 1, got {n_samples}")
    point = np.asarray(point, dtype=float)
    background = np.atleast_2d(np.asarray(background, dtype=float))
    d = point.shape[0]
    coalitions = 0 if d == 1 else 2**d - 2 if mode == "exact" else n_samples
    if coalitions * background.shape[0] * d > core.MAX_DRAWS:
        raise BadSpec(f"{coalitions} coalitions over {background.shape[0]} background rows of {d} "
                      f"features exceed the limit of {core.MAX_DRAWS} entries")
    predict = batch_predictor(model_or_fn)
    target_class = predicted_label(predict, point, target_class)

    boundary = np.stack([np.zeros(d), np.ones(d)])
    base_value, full_value = masked_batch_values(predict, point, boundary, target_class, background)
    delta = full_value - base_value
    if d == 1:
        return ShapReport(np.array([delta]), float(base_value), float(full_value), target_class, mode, 2)

    if mode == "exact":
        rows = ((np.arange(1, 2**d - 1)[:, None] >> np.arange(d)) & 1).astype(np.float64)
        sizes = rows.sum(axis=1).astype(int).tolist()
        weights = np.array([(d - 1) / (math.comb(d, s) * s * (d - s)) for s in sizes])  # the Shapley kernel
    else:
        rng = np.random.default_rng(seed)
        sizes = np.arange(1, d)
        size_probs = (d - 1) / (sizes * (d - sizes))
        size_probs = size_probs / size_probs.sum()
        rows = coalition_rows(rng.choice(sizes, size=n_samples, p=size_probs), rng.random((n_samples, d)))
        weights = np.ones(n_samples)

    values = masked_batch_values(predict, point, rows, target_class, background)
    # Eliminate phi_{d-1} via the efficiency constraint.
    y = values - base_value - rows[:, -1] * delta
    design = rows[:, :-1] - rows[:, -1:]
    solution = weighted_fit(design, y, weights, np.zeros(d - 1), "add samples or background variety")
    phi = np.concatenate([solution, [delta - solution.sum()]])
    return ShapReport(phi, float(base_value), float(full_value), target_class, mode, rows.shape[0] + 2)


# ---------------------------------------------------------------------------
# LIME


@record
class LimeReport:
    weights: np.ndarray = field(repr=False)
    intercept: float
    r_squared: float
    target_class: int
    kernel_width: float
    probe_count: int


def local_probes(point: np.ndarray, count: int, width: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` Gaussian probes of scale ``width`` around the point, drawn
    from ``default_rng(seed)``, and their rbf weights. More than
    ``core.MAX_DRAWS`` probe entries (probes times features) raise
    BadSpec before any is drawn. A width so large that the squared
    distances overflow, or so small that the weights vanish, raises
    NonFiniteResult."""
    if count < 2:
        raise BadSpec(f"probe count must be >= 2, got {count}")
    if width <= 0:
        raise BadSpec("kernel width must be positive")
    if count * point.shape[0] > core.MAX_DRAWS:
        raise BadSpec(f"{count} probes of {point.shape[0]} features exceed the limit of {core.MAX_DRAWS} entries")
    rng = np.random.default_rng(seed)
    probes = point + width * rng.standard_normal((count, point.shape[0]))
    with np.errstate(all="ignore"):
        sq = ((probes - point) ** 2).sum(axis=1)
        weights = np.exp(-sq / (2.0 * width * width))
    if not (np.all(np.isfinite(weights)) and weights.sum() > 0):
        raise NonFiniteResult(f"the probe weights at kernel width {width!r} are not finite or all zero")
    return probes, weights


def lime_local(
    model_or_fn,
    point: np.ndarray,
    probe_count: int = 2000,
    kernel_width: float = 1.0,
    ridge: float = 1e-3,
    seed: int = 0,
    target_class: int = 1,
) -> LimeReport:
    """Ridge regression from Gaussian probes to the target class
    probability, weighted by an rbf kernel around the point, by
    ``weighted_fit``: a design of lower rank than its coefficients, such
    as no ridge and no more probes than features, raises SingularSystem."""
    point = np.asarray(point, dtype=float)
    if ridge < 0:
        raise BadSpec("ridge must be nonnegative")
    probes, weights = local_probes(point, probe_count, kernel_width, seed)
    predict = batch_predictor(model_or_fn)
    target = class_column(predict(probes), target_class)

    design = np.column_stack([probes, np.ones(probe_count)])
    penalty = np.append(np.full(point.shape[0], ridge), 0.0)  # the intercept is never shrunk
    coef = weighted_fit(design, target, weights, penalty, "add probes or a ridge")

    fitted = design @ coef
    total = float(weights.sum())
    mean_target = float(weights @ target / total)
    ss_res = float(weights @ (target - fitted) ** 2)
    ss_tot = float(weights @ (target - mean_target) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return LimeReport(coef[:-1], float(coef[-1]), r2, target_class, kernel_width, probe_count)


# ---------------------------------------------------------------------------
# soft decision tree distillation


@record
class SoftTree:
    """A complete binary soft decision tree.

    Inner node i holds (weight vector, bias, gating temperature); its gate
    is sigmoid(temperature * (w . z + b)) on standardized inputs, and the
    children of i are 2i+1 and 2i+2. Leaves hold class logits; the tree
    prediction is the reach-probability mixture of the leaf softmaxes,
    which is a valid distribution by construction.
    """

    depth: int
    node_weights: np.ndarray = field(repr=False)
    node_bias: np.ndarray = field(repr=False)
    node_temp: np.ndarray = field(repr=False)
    leaf_logits: np.ndarray = field(repr=False)
    scaler_mean: np.ndarray = field(repr=False)
    scaler_scale: np.ndarray = field(repr=False)

    @property
    def n_inner(self) -> int:
        return 2**self.depth - 1

    def leaf_distributions(self) -> np.ndarray:
        return softmax(self.leaf_logits)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Z = (np.atleast_2d(X) - self.scaler_mean) / self.scaler_scale
        *_, reach = _route(Z, self.node_weights, self.node_bias, self.node_temp)
        return reach[:, self.n_inner :] @ self.leaf_distributions()


def _levels(n_inner: int):
    """The inner nodes of a complete tree level by level from the root, as
    (lo, hi): level [lo, hi) has children [hi, 2 hi + 1), the left child
    of node i, 2i + 1, at hi + 2 (i - lo) and the right one just after."""
    lo = 0
    while lo < n_inner:
        yield lo, 2 * lo + 1
        lo = 2 * lo + 1


def _route(Z: np.ndarray, W: np.ndarray, b: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, ...]:
    """Pre-activations, gates, one minus the gates, and reach probabilities
    of a soft tree whose inner nodes are the rows of ``W, b, T``, on
    standardized inputs ``Z``. Column i of ``reach`` is the probability of
    reaching node i; the last ``len(b) + 1`` columns are the leaves. Reach
    is filled one level at a time: a node's reach times its gate goes to
    its left child, times one minus its gate to its right child."""
    n_inner = b.shape[0]
    pre = Z @ W.T + b
    with np.errstate(over="ignore"):  # exp overflowing to inf closes the gate
        gates = 1.0 / (1.0 + np.exp(-T * pre))
    ungates = 1.0 - gates
    reach = np.ones((Z.shape[0], 2 * n_inner + 1))
    for lo, hi in _levels(n_inner):
        parent = reach[:, lo:hi]
        np.multiply(parent, gates[:, lo:hi], out=reach[:, hi : 2 * hi + 1 : 2])
        np.multiply(parent, ungates[:, lo:hi], out=reach[:, hi + 1 : 2 * hi + 1 : 2])
    return pre, gates, ungates, reach


def _entropy_and_slope(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.minimum(np.maximum(alpha, 1e-12), 1.0 - 1e-12)
    log_a, log_b = np.log(a), np.log1p(-a)
    return -a * log_a - (1 - a) * log_b, log_b - log_a


def tree_loss_and_grads(
    params: dict,
    Z: np.ndarray,
    targets: np.ndarray,
    sample_weights: np.ndarray,
    beta: float,
    depth: int,
) -> tuple[float, float, float, dict]:
    """Loss = weighted mean KL(target || tree) - beta * mean gate entropy,
    with exact reverse-mode gradients for every parameter.

    Gate entropy is the binary entropy of each node's reach-weighted mean
    gate activation, averaged over inner nodes; the gradient flows through
    both the gates and the reach probabilities. The entropy term enters
    every node with reach mass at once, and the backward pass runs one
    tree level at a time from the deepest, each node taking its
    children's reach gradients; a node of zero reach mass gets no entropy
    term.
    """
    W, b, T, L = params["W"], params["b"], params["T"], params["L"]
    n_inner = 2**depth - 1
    w_total = float(sample_weights.sum())

    pre, gates, ungates, reach = _route(Z, W, b, T)
    P = reach[:, n_inner:]
    Q = softmax(L)
    pi = np.maximum(P @ Q, 1e-300)

    safe_t = np.maximum(targets, 1e-300)
    kl_per = np.sum(targets * (np.log(safe_t) - np.log(pi)), axis=1)
    kl = float(sample_weights @ kl_per / w_total)

    reach_mass = sample_weights @ reach[:, :n_inner]
    gate_mass = sample_weights @ (reach[:, :n_inner] * gates)
    ok = reach_mass > 0
    safe_mass = np.where(ok, reach_mass, 1.0)
    alpha = np.where(ok, gate_mass / safe_mass, 0.5)
    entropies, slopes = _entropy_and_slope(alpha)
    gate_entropy = float(np.where(ok, entropies, 0.0).sum() / n_inner)

    loss = kl - beta * gate_entropy

    # Backward pass. d(loss)/d(pi), then into leaves and reach.
    dpi = (sample_weights / w_total)[:, None] * (-targets / pi)
    dQ = P.T @ dpi
    dL = Q * (dQ - (dQ * Q).sum(axis=1, keepdims=True))

    grad_reach = np.zeros_like(reach)
    grad_reach[:, n_inner:] = dpi @ Q.T
    # the entropy term of each node with reach mass, added to zeros
    coeff = (-beta / n_inner) * slopes / safe_mass
    weighted = coeff * sample_weights[:, None]
    grad_gates = np.zeros_like(gates)
    grad_gates += np.where(ok, weighted * reach[:, :n_inner], 0.0)
    grad_reach[:, :n_inner] += np.where(ok, weighted * (gates - alpha), 0.0)
    for lo, hi in reversed(list(_levels(n_inner))):
        gl = grad_reach[:, hi : 2 * hi + 1 : 2]
        gr = grad_reach[:, hi + 1 : 2 * hi + 1 : 2]
        grad_reach[:, lo:hi] += gl * gates[:, lo:hi] + gr * ungates[:, lo:hi]
        grad_gates[:, lo:hi] += reach[:, lo:hi] * (gl - gr)

    sig_slope = grad_gates * gates * ungates
    dpre = sig_slope * T
    dW = dpre.T @ Z
    db = dpre.sum(axis=0)
    dT = (sig_slope * pre).sum(axis=0)
    return loss, kl, gate_entropy, {"W": dW, "b": db, "T": dT, "L": dL}


# Floats an epoch of ``distill_tree`` holds at once, per tree node and per
# row, feature or class: the route arrays are rows x nodes, and the
# parameters, their gradients and Adam's moments features x nodes and
# classes x leaves. Measured with tracemalloc at depths 10-16: 3.1-6.0.
EPOCH_ARRAYS = 10


@record
class DistillReport:
    tree: SoftTree
    final_kl: float
    gate_entropy: float
    beta: float
    loss_trace: tuple[float, ...]


def distill_tree(
    model_or_fn,
    points: np.ndarray,
    depth: int = 3,
    beta: float = 0.0,
    seed: int = 0,
    epochs: int = 800,
    learning_rate: float = 0.05,
    sample_weights: np.ndarray | None = None,
) -> DistillReport:
    """Fit a soft decision tree to the model's predictive distribution.

    Full-batch Adam on KL(target || tree) minus beta times the gate
    entropy prior; higher beta prefers trees whose inner nodes route
    meaningful traffic both ways. A fit that diverges (a non-finite loss
    or parameter, e.g. from a huge learning rate) raises
    ``NonFiniteResult``.

    Sizes are bounded before the tree is allocated: an epoch's working
    set, ``EPOCH_ARRAYS`` floats per node and per row, feature or class,
    may not exceed ``core.MAX_DRAWS`` entries (about 128 MB), and epochs
    must lie in [0, ``MAX_DRAWS``]; zero epochs return the initial tree.
    The parameters W, b, T and L are views into one flat vector, which
    Adam updates in one step per epoch.
    """
    if depth < 1:
        raise BadSpec(f"depth must be >= 1, got {depth}")
    if beta < 0:
        raise BadSpec("the entropy prior weight must be nonnegative")
    if not 0 <= epochs <= core.MAX_DRAWS:
        raise BadSpec(f"epochs must be in [0, {core.MAX_DRAWS}], got {epochs}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    predict = batch_predictor(model_or_fn)
    targets = predict(points)
    n, d = points.shape
    classes = targets.shape[1]
    # any depth past 62 is over the limit; min() spares building its int
    width = n + d + classes
    if (2 ** (min(depth, 62) + 1) - 1) * width * EPOCH_ARRAYS > core.MAX_DRAWS:
        raise BadSpec(f"a depth-{depth} tree's epoch holds {EPOCH_ARRAYS} x (2^{depth + 1} - 1) nodes x "
                      f"{width} rows, features and classes, over the limit of {core.MAX_DRAWS} "
                      "entries; lower the depth")
    weights = np.ones(n) if sample_weights is None else np.asarray(sample_weights, dtype=float)
    if weights.shape != (n,) or np.any(weights < 0) or weights.sum() <= 0:
        raise BadSpec("sample weights must be nonnegative with positive total")

    mean = points.mean(axis=0)
    scale = points.std(axis=0)
    scale[scale < 1e-12] = 1.0
    Z = (points - mean) / scale

    rng = np.random.default_rng(seed)
    n_inner = 2**depth - 1
    flat = np.concatenate([
        0.5 * rng.standard_normal(n_inner * d),
        0.1 * rng.standard_normal(n_inner),
        np.ones(n_inner),
        0.1 * rng.standard_normal(2**depth * classes),
    ])
    W, b, T, L = np.split(flat, np.cumsum([n_inner * d, n_inner, n_inner]))
    params = {"W": W.reshape(n_inner, d), "b": b, "T": T, "L": L.reshape(2**depth, classes)}

    # Adam, full batch. m, v and flat are updated in place by the operations
    # of m = beta1*m + (1-beta1)*grad, v = beta2*v + (1-beta2)*grad**2 and
    # flat -= (learning_rate*m_hat) / (sqrt(v_hat) + eps), in that order, so
    # every float is the one those expressions give.
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    trace = []

    def diverged(steps: int) -> NonFiniteResult:
        return NonFiniteResult(
            f"tree distillation diverged after {steps} Adam steps at learning rate "
            f"{learning_rate!r}; lower the learning rate"
        )

    # overflow shows as a non-finite loss, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, epochs + 1):
            loss, _, _, grads = tree_loss_and_grads(params, Z, targets, weights, beta, depth)
            if not math.isfinite(loss):
                raise diverged(step - 1)
            trace.append(loss)
            grad = np.concatenate([grads[k].reshape(-1) for k in params])
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * np.square(grad, out=grad)
            update = m / (1 - beta1**step)
            update *= learning_rate
            np.sqrt(np.divide(v, 1 - beta2**step, out=grad), out=grad)
            grad += eps
            update /= grad
            flat -= update
            del grads, grad, update  # so the next epoch's peak holds none of them

        loss, kl, entropy, _ = tree_loss_and_grads(params, Z, targets, weights, beta, depth)
    if not (math.isfinite(loss) and np.all(np.isfinite(flat))):
        raise diverged(epochs)
    trace.append(loss)
    tree = SoftTree(depth, params["W"], params["b"], params["T"], params["L"], mean, scale)
    return DistillReport(tree, kl, entropy, beta, tuple(trace))
