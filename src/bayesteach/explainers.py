"""Explanation methods, each a specific choice of learner, inference
target, explanation space, and search strategy.

  explain_by_examples  per-class example subsets for a discriminant model
  mmd_prototypes       greedy prototype selection minimizing squared MMD
  mmd_criticisms       points the prototypes represent worst
  rise_saliency        saliency as a likelihood-weighted average of masks
  kernel_shap          additive attributions via weighted least squares
  lime_local           local linear surrogate of one class probability
  distill_tree         soft decision tree matching a model's distribution

Result objects are plain dataclasses with ``to_dict`` for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core, teacher
from .errors import BadSpec, DimensionMismatch, NonFiniteResult, SingularSystem
from .learners import (
    KernelConfig,
    class_column,
    kernel_matrix,
    make_plda_learner,
    masked_batch_values,
    witness,
)
from .models import Dataset, TargetModel, batch_predictor, jsonable, predict_proba
from .spaces import MaskSpace, SubsetSpace
from .types import (
    Explanation,
    ExplanationKind,
    TargetInference,
    ThetaKind,
    example_set,
)


# ---------------------------------------------------------------------------
# example selection


@dataclass(frozen=True)
class ExampleSelectionReport:
    indices: tuple[int, ...]
    per_class: dict[int, tuple[int, ...]]
    log_likelihood: float
    posterior_probability: float | None
    strategy: str
    space_size: int
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "per_class": {str(c): list(v) for c, v in self.per_class.items()},
            "log_likelihood": self.log_likelihood,
            "posterior_probability": self.posterior_probability,
            "strategy": self.strategy,
            "space_size": self.space_size,
            "metadata": jsonable(self.metadata),
        }


def _split_by_class(data: Dataset, indices) -> dict[int, tuple[int, ...]]:
    arr = np.asarray(indices, dtype=int)
    labels = data.labels[arr]
    return {
        int(c): tuple(sorted(arr[labels == c].tolist()))
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
        chosen: list[int] = []
        terms, _ = core.pool_terms(learner, theta, space)
        for combos, scores in core.pool_scores(terms, space):
            chosen.extend(combos[int(np.argmax(scores))])
        x = example_set(chosen)
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


@dataclass(frozen=True)
class PrototypeReport:
    indices: tuple[int, ...]
    mmd2_trace: tuple[float, ...]
    bandwidth: float

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "mmd2_trace": list(self.mmd2_trace),
            "bandwidth": self.bandwidth,
        }


@dataclass(frozen=True)
class CriticismReport:
    indices: tuple[int, ...]
    witness_values: tuple[float, ...]
    bandwidth: float

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "witness_values": list(self.witness_values),
            "bandwidth": self.bandwidth,
        }


def mmd_prototypes(data: Dataset, m: int, kernel: KernelConfig = KernelConfig()) -> PrototypeReport:
    """Greedy forward selection of m rows minimizing squared MMD to the
    full dataset; ties break toward the lower row index."""
    X = data.features
    n = X.shape[0]
    if not 1 <= m <= n:
        raise BadSpec(f"prototype count must be in [1, {n}], got {m}")
    resolved = kernel.resolve(X)
    K = kernel_matrix(X, X, resolved)
    mean_xx = float(K.mean())
    row_sums = K.sum(axis=1)

    chosen: list[int] = []
    pp_sum = 0.0  # sum of K over chosen x chosen
    px_sum = 0.0  # sum of K over chosen x all
    trace: list[float] = []
    for step in range(m):
        size = step + 1
        best_idx, best_val = -1, math.inf
        for c in range(n):
            if c in chosen:
                continue
            cross = 2.0 * sum(K[c, p] for p in chosen) + K[c, c]
            cand_pp = (pp_sum + cross) / size**2
            cand_px = (px_sum + row_sums[c]) / (size * n)
            val = cand_pp + mean_xx - 2.0 * cand_px
            if val < best_val:
                best_idx, best_val = c, val
        chosen.append(best_idx)
        pp_sum += 2.0 * sum(K[best_idx, p] for p in chosen[:-1]) + K[best_idx, best_idx]
        px_sum += row_sums[best_idx]
        trace.append(best_val)
    return PrototypeReport(tuple(chosen), tuple(trace), resolved.bandwidth)


def mmd_criticisms(
    data: Dataset,
    prototype_indices,
    c: int,
    kernel: KernelConfig = KernelConfig(),
) -> CriticismReport:
    """The c non-prototype rows with the largest absolute witness value."""
    X = data.features
    protos = np.asarray(list(prototype_indices), dtype=int)
    rest = np.setdiff1d(np.arange(X.shape[0]), protos)
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


@dataclass(frozen=True)
class SaliencyReport:
    values: np.ndarray = field(repr=False)
    stderr: np.ndarray = field(repr=False)
    target_class: int
    mask_count: int
    keep_prob: float
    masks: np.ndarray | None = field(default=None, repr=False)
    weights: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        return {
            "values": self.values.tolist(),
            "stderr": self.stderr.tolist(),
            "target_class": self.target_class,
            "mask_count": self.mask_count,
            "keep_prob": self.keep_prob,
        }


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
    """
    point = np.asarray(point, dtype=float)
    if n_masks < 1:
        raise BadSpec(f"mask count must be >= 1, got {n_masks}")
    space = MaskSpace(point.shape[0], keep_prob)
    predict = batch_predictor(model_or_fn)
    if target_class is None:
        target_class = int(np.argmax(predict(point[None, :])[0]))
    masks, weights, values, stderr = core.mask_expectation(
        space, n_masks, seed, lambda m: masked_batch_values(predict, point, m, target_class, baseline)
    )
    return SaliencyReport(
        values, stderr, target_class, n_masks, keep_prob, masks=masks, weights=weights
    )


# ---------------------------------------------------------------------------
# kernel SHAP


@dataclass(frozen=True)
class ShapReport:
    phi: np.ndarray = field(repr=False)
    base_value: float
    full_value: float
    target_class: int
    mode: str
    coalition_count: int

    def to_dict(self) -> dict:
        return {
            "phi": self.phi.tolist(),
            "base_value": self.base_value,
            "full_value": self.full_value,
            "target_class": self.target_class,
            "mode": self.mode,
            "coalition_count": self.coalition_count,
        }


def _coalition_values(predict, point, background, rows: np.ndarray, target_class: int) -> np.ndarray:
    """Mean prediction over the background for each 0/1 coalition row."""
    n_bg = background.shape[0]
    n_rows = rows.shape[0]
    composites = np.where(
        rows[:, None, :] > 0, point[None, None, :], background[None, :, :]
    ).reshape(n_rows * n_bg, -1)
    probs = class_column(predict(composites), target_class).reshape(n_rows, n_bg)
    return probs.mean(axis=1)


def _shapley_kernel_weights(sizes: np.ndarray, d: int) -> np.ndarray:
    return np.array([
        (d - 1) / (math.comb(d, int(s)) * int(s) * (d - int(s))) for s in sizes
    ])


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

    Exact mode enumerates every nontrivial coalition; the two boundary
    coalitions enter as hard constraints (intercept fixed at the empty
    value, attributions summing to full minus empty), enforced by
    eliminating the last attribution from the regression. Sampled mode
    draws ``n_samples`` coalitions; fewer than one raises BadSpec.
    """
    if mode == "sampled" and n_samples < 1:
        raise BadSpec(f"sampled mode needs n_samples >= 1, got {n_samples}")
    point = np.asarray(point, dtype=float)
    background = np.atleast_2d(np.asarray(background, dtype=float))
    if background.shape[1] != point.shape[0]:
        raise DimensionMismatch(
            f"background rows have {background.shape[1]} features for a "
            f"{point.shape[0]}-feature point"
        )
    predict = batch_predictor(model_or_fn)
    if target_class is None:
        target_class = int(np.argmax(predict(point[None, :])[0]))
    d = point.shape[0]

    boundary = np.stack([np.zeros(d), np.ones(d)])
    base_value, full_value = _coalition_values(predict, point, background, boundary, target_class)
    delta = full_value - base_value
    if d == 1:
        return ShapReport(np.array([delta]), float(base_value), float(full_value), target_class, mode, 2)

    if mode == "exact":
        bits = np.arange(1, 2**d - 1)
        rows = (bits[:, None] >> np.arange(d)[None, :]) & 1
        rows = rows.astype(np.float64)
        weights = _shapley_kernel_weights(rows.sum(axis=1), d)
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        sizes = np.arange(1, d)
        size_probs = (d - 1) / (sizes * (d - sizes))
        size_probs = size_probs / size_probs.sum()
        drawn = rng.choice(sizes, size=n_samples, p=size_probs)
        rows = np.zeros((n_samples, d))
        for i, s in enumerate(drawn):
            rows[i, rng.choice(d, size=int(s), replace=False)] = 1.0
        weights = np.ones(n_samples)
    else:
        raise BadSpec(f"unknown mode {mode!r}; use exact or sampled")

    values = _coalition_values(predict, point, background, rows, target_class)
    # Eliminate phi_{d-1} via the efficiency constraint.
    y = values - base_value - rows[:, -1] * delta
    design = rows[:, :-1] - rows[:, -1:]
    sqrt_w = np.sqrt(weights)
    solution, _, rank, _ = np.linalg.lstsq(sqrt_w[:, None] * design, sqrt_w * y, rcond=None)
    if rank < d - 1:
        raise SingularSystem(
            f"coalition design has rank {rank} < {d - 1}; add samples or background variety"
        )
    phi = np.concatenate([solution, [delta - solution.sum()]])
    return ShapReport(
        phi, float(base_value), float(full_value), target_class, mode, rows.shape[0] + 2
    )


# ---------------------------------------------------------------------------
# LIME


@dataclass(frozen=True)
class LimeReport:
    weights: np.ndarray = field(repr=False)
    intercept: float
    r_squared: float
    target_class: int
    kernel_width: float
    probe_count: int

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "target_class": self.target_class,
            "kernel_width": self.kernel_width,
            "probe_count": self.probe_count,
        }


def local_probes(point: np.ndarray, count: int, width: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` Gaussian probes of scale ``width`` around the point, drawn
    from ``default_rng(seed)``, and their rbf weights. A width so large
    that the squared distances overflow, or so small that the weights
    vanish, raises NonFiniteResult."""
    if count < 2:
        raise BadSpec(f"probe count must be >= 2, got {count}")
    if width <= 0:
        raise BadSpec("kernel width must be positive")
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
    probability, weighted by an rbf kernel around the point."""
    point = np.asarray(point, dtype=float)
    if ridge < 0:
        raise BadSpec("ridge must be nonnegative")
    probes, weights = local_probes(point, probe_count, kernel_width, seed)
    predict = batch_predictor(model_or_fn)
    target = class_column(predict(probes), target_class)

    design = np.column_stack([probes, np.ones(probe_count)])
    wd = weights[:, None] * design
    gram = design.T @ wd
    penalty = ridge * np.eye(point.shape[0] + 1)
    penalty[-1, -1] = 0.0  # the intercept is never shrunk
    try:
        coef = np.linalg.solve(gram + penalty, design.T @ (weights * target))
    except np.linalg.LinAlgError:
        raise SingularSystem("probe design is degenerate") from None

    fitted = design @ coef
    total = float(weights.sum())
    mean_target = float(weights @ target / total)
    ss_res = float(weights @ (target - fitted) ** 2)
    ss_tot = float(weights @ (target - mean_target) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return LimeReport(
        coef[:-1], float(coef[-1]), r2, target_class, kernel_width, probe_count
    )


# ---------------------------------------------------------------------------
# soft decision tree distillation


@dataclass(frozen=True)
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

    def key(self) -> tuple:
        return (
            self.depth,
            self.node_weights.tobytes(),
            self.node_bias.tobytes(),
            self.node_temp.tobytes(),
            self.leaf_logits.tobytes(),
        )

    def leaf_distributions(self) -> np.ndarray:
        shifted = self.leaf_logits - self.leaf_logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Z = (np.atleast_2d(X) - self.scaler_mean) / self.scaler_scale
        _, _, reach = _route(Z, self.node_weights, self.node_bias, self.node_temp)
        return reach[:, self.n_inner :] @ self.leaf_distributions()

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "node_weights": self.node_weights.tolist(),
            "node_bias": self.node_bias.tolist(),
            "node_temp": self.node_temp.tolist(),
            "leaf_logits": self.leaf_logits.tolist(),
            "scaler_mean": self.scaler_mean.tolist(),
            "scaler_scale": self.scaler_scale.tolist(),
        }


def _route(Z: np.ndarray, W: np.ndarray, b: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-activations, gates and reach probabilities of a soft tree whose
    inner nodes are the rows of ``W, b, T``, on standardized inputs ``Z``.
    Column i of ``reach`` is the probability of reaching node i; the last
    ``len(b) + 1`` columns are the leaves."""
    n_inner = b.shape[0]
    pre = Z @ W.T + b
    with np.errstate(over="ignore"):  # exp overflowing to inf closes the gate
        gates = 1.0 / (1.0 + np.exp(-T * pre))
    reach = np.ones((Z.shape[0], 2 * n_inner + 1))
    for i in range(n_inner):
        reach[:, 2 * i + 1] = reach[:, i] * gates[:, i]
        reach[:, 2 * i + 2] = reach[:, i] * (1.0 - gates[:, i])
    return pre, gates, reach


def _entropy_and_slope(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.clip(alpha, 1e-12, 1.0 - 1e-12)
    return -a * np.log(a) - (1 - a) * np.log1p(-a), np.log1p(-a) - np.log(a)


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
    both the gates and the reach probabilities.
    """
    W, b, T, L = params["W"], params["b"], params["T"], params["L"]
    n_inner = 2**depth - 1
    w_total = float(sample_weights.sum())

    pre, gates, reach = _route(Z, W, b, T)
    P = reach[:, n_inner:]
    shifted = L - L.max(axis=1, keepdims=True)
    expL = np.exp(shifted)
    Q = expL / expL.sum(axis=1, keepdims=True)
    pi = np.clip(P @ Q, 1e-300, None)

    safe_t = np.clip(targets, 1e-300, None)
    kl_per = np.sum(targets * (np.log(safe_t) - np.log(pi)), axis=1)
    kl = float(sample_weights @ kl_per / w_total)

    reach_mass = sample_weights @ reach[:, :n_inner]
    gate_mass = sample_weights @ (reach[:, :n_inner] * gates)
    ok = reach_mass > 0
    alpha = np.where(ok, gate_mass / np.where(ok, reach_mass, 1.0), 0.5)
    entropies, slopes = _entropy_and_slope(alpha)
    gate_entropy = float(np.where(ok, entropies, 0.0).mean())

    loss = kl - beta * gate_entropy

    # Backward pass. d(loss)/d(pi), then into leaves and reach.
    dpi = (sample_weights / w_total)[:, None] * (-targets / pi)
    dQ = P.T @ dpi
    dL = Q * (dQ - (dQ * Q).sum(axis=1, keepdims=True))

    grad_reach = np.zeros_like(reach)
    grad_reach[:, n_inner:] = dpi @ Q.T
    grad_gates = np.zeros_like(gates)
    ent_scale = -beta / n_inner
    for i in range(n_inner):
        if ok[i]:
            coeff = ent_scale * slopes[i] / reach_mass[i]
            grad_gates[:, i] += coeff * sample_weights * reach[:, i]
            grad_reach[:, i] += coeff * sample_weights * (gates[:, i] - alpha[i])
    for i in reversed(range(n_inner)):
        gl = grad_reach[:, 2 * i + 1]
        gr = grad_reach[:, 2 * i + 2]
        grad_reach[:, i] += gl * gates[:, i] + gr * (1.0 - gates[:, i])
        grad_gates[:, i] += reach[:, i] * (gl - gr)

    sig_slope = grad_gates * gates * (1.0 - gates)
    dpre = sig_slope * T
    dW = dpre.T @ Z
    db = dpre.sum(axis=0)
    dT = (sig_slope * pre).sum(axis=0)
    return loss, kl, gate_entropy, {"W": dW, "b": db, "T": dT, "L": dL}


@dataclass(frozen=True)
class DistillReport:
    tree: SoftTree
    final_kl: float
    gate_entropy: float
    beta: float
    loss_trace: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "tree": self.tree.to_dict(),
            "final_kl": self.final_kl,
            "gate_entropy": self.gate_entropy,
            "beta": self.beta,
            "loss_trace": list(self.loss_trace),
        }


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
    """
    if depth < 1:
        raise BadSpec(f"depth must be >= 1, got {depth}")
    if beta < 0:
        raise BadSpec("the entropy prior weight must be nonnegative")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    predict = batch_predictor(model_or_fn)
    targets = predict(points)
    n, d = points.shape
    classes = targets.shape[1]
    weights = np.ones(n) if sample_weights is None else np.asarray(sample_weights, dtype=float)
    if weights.shape != (n,) or np.any(weights < 0) or weights.sum() <= 0:
        raise BadSpec("sample weights must be nonnegative with positive total")

    mean = points.mean(axis=0)
    scale = points.std(axis=0)
    scale[scale < 1e-12] = 1.0
    Z = (points - mean) / scale

    rng = np.random.default_rng(seed)
    n_inner = 2**depth - 1
    params = {
        "W": 0.5 * rng.standard_normal((n_inner, d)),
        "b": 0.1 * rng.standard_normal(n_inner),
        "T": np.ones(n_inner),
        "L": 0.1 * rng.standard_normal((2**depth, classes)),
    }

    # Adam, full batch.
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v) for k, v in params.items()}
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
            for k in params:
                m[k] = beta1 * m[k] + (1 - beta1) * grads[k]
                v[k] = beta2 * v[k] + (1 - beta2) * grads[k] ** 2
                m_hat = m[k] / (1 - beta1**step)
                v_hat = v[k] / (1 - beta2**step)
                params[k] = params[k] - learning_rate * m_hat / (np.sqrt(v_hat) + eps)

        loss, kl, entropy, _ = tree_loss_and_grads(params, Z, targets, weights, beta, depth)
    if not (math.isfinite(loss) and all(np.all(np.isfinite(p)) for p in params.values())):
        raise diverged(epochs)
    trace.append(loss)
    tree = SoftTree(depth, params["W"], params["b"], params["T"], params["L"], mean, scale)
    return DistillReport(tree, kl, entropy, beta, tuple(trace))
