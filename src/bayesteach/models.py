"""Datasets, synthetic generators, and the target models that get explained.

Target models are plain parameter bundles; prediction is a pure function
of (model, point). Checkpoints round-trip through JSON so a fit can be
inspected and explained in later processes.

Model families:
  gaussian   class-conditional Gaussians, shared or per-class covariance
  logistic   multinomial logistic regression, full-batch gradient descent
  mlp        one hidden tanh layer, full-batch gradient descent
  plda       two-covariance discriminant model with a latent projection
             that whitens within-class covariance
  linear     clipped linear class-1 probability; a fixture family whose
             attributions have a closed form
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadSpec,
    DimensionMismatch,
    MissingClass,
    NonFiniteResult,
    NonNumericFeature,
    ParseError,
    SingularCovariance,
)

FAMILIES = ("gaussian", "logistic", "mlp", "plda", "linear")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, integer labels, and bookkeeping.

    features  (n, d) float64, C-contiguous
    labels    (n,) int64 in [0, class_count)
    """

    features: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    class_count: int
    feature_names: tuple[str, ...] = ()
    label_name: str = "label"
    metadata: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise DimensionMismatch(f"features must be 2-d, got shape {feats.shape}")
        if feats.shape[1] < 1:
            raise BadSpec("a dataset needs at least one feature column")
        if labels.shape != (feats.shape[0],):
            raise DimensionMismatch(
                f"got {feats.shape[0]} rows but {labels.shape[0]} labels"
            )
        if not np.all(np.isfinite(feats)):
            raise BadSpec("features must be finite")
        if self.class_count < 1:
            raise BadSpec(f"class_count must be >= 1, got {self.class_count}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
            raise BadSpec("labels must lie in [0, class_count)")
        names = tuple(self.feature_names) or tuple(f"f{j}" for j in range(feats.shape[1]))
        if len(names) != feats.shape[1]:
            raise DimensionMismatch("one feature name per column required")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_rows(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.labels == c)


# ---------------------------------------------------------------------------
# synthetic data


def _simplex_means(classes: int, dim: int, separation: float) -> np.ndarray:
    """Class means that are mutually equidistant at exactly ``separation``."""
    if dim < classes - 1:
        raise BadSpec(
            f"{classes} equidistant means need at least {classes - 1} dimensions"
        )
    corners = np.eye(classes)
    corners -= corners.mean(axis=0)
    # The centered corners span a (classes-1)-dim subspace; project onto an
    # orthonormal basis of it, then scale pairwise distance sqrt(2) -> sep.
    u, _, _ = np.linalg.svd(corners.T, full_matrices=False)
    coords = corners @ u[:, : classes - 1]
    means = np.zeros((classes, dim))
    means[:, : classes - 1] = coords * (separation / math.sqrt(2.0))
    return means


def _gaussian_blobs(spec: dict, rng: np.random.Generator) -> Dataset:
    classes = int(spec.get("classes", 3))
    dim = int(spec.get("dim", 2))
    per_class = int(spec.get("per_class", 20))
    separation = float(spec.get("separation", 4.0))
    if classes < 2 or per_class < 1 or dim < 1:
        raise BadSpec("gaussian-blobs needs classes >= 2, dim >= 1, per_class >= 1")
    if separation <= 0:
        raise BadSpec("separation must be positive")
    means = _simplex_means(classes, dim, separation)
    features = np.vstack(
        [means[c] + rng.standard_normal((per_class, dim)) for c in range(classes)]
    )
    labels = np.repeat(np.arange(classes), per_class)
    meta = {"generator": "gaussian-blobs", "means": means.tolist()}
    return Dataset(features, labels, classes, metadata=meta)


def _two_moons(spec: dict, rng: np.random.Generator) -> Dataset:
    n = int(spec.get("n", 200))
    noise = float(spec.get("noise", 0.1))
    if n < 2:
        raise BadSpec("two-moons needs n >= 2")
    if noise < 0:
        raise BadSpec("noise must be nonnegative")
    n_outer = n // 2
    n_inner = n - n_outer
    t_outer = np.linspace(0.0, math.pi, n_outer)
    t_inner = np.linspace(0.0, math.pi, n_inner)
    outer = np.column_stack([np.cos(t_outer), np.sin(t_outer)])
    inner = np.column_stack([1.0 - np.cos(t_inner), 0.5 - np.sin(t_inner)])
    features = np.vstack([outer, inner]) + noise * rng.standard_normal((n, 2))
    labels = np.concatenate([np.zeros(n_outer, np.int64), np.ones(n_inner, np.int64)])
    return Dataset(features, labels, 2, metadata={"generator": "two-moons"})


def _grid_image(spec: dict, rng: np.random.Generator) -> Dataset:
    classes = int(spec.get("classes", 2))
    side = int(spec.get("side", 8))
    motif_size = int(spec.get("motif_size", 2))
    per_class = int(spec.get("per_class", 30))
    if classes < 2 or per_class < 1:
        raise BadSpec("grid-image needs classes >= 2 and per_class >= 1")
    if motif_size < 1 or motif_size > side:
        raise BadSpec("motif must fit inside the grid")

    # One bright block per class, spread along the diagonal. Blocks must
    # not share pixels or the ground-truth saliency sets are ambiguous.
    span = side - motif_size
    salient: dict[int, list[int]] = {}
    for c in range(classes):
        offset = round(c * span / max(classes - 1, 1))
        pixels = [
            (offset + r) * side + (offset + col)
            for r in range(motif_size)
            for col in range(motif_size)
        ]
        salient[c] = sorted(pixels)
    flat = [p for pix in salient.values() for p in pix]
    if len(set(flat)) != len(flat):
        raise BadSpec(f"side {side} too small for {classes} disjoint motifs")

    n = classes * per_class
    features = np.clip(0.1 + 0.05 * rng.standard_normal((n, side * side)), 0.0, 1.0)
    labels = np.repeat(np.arange(classes), per_class)
    for c in range(classes):
        rows = np.flatnonzero(labels == c)
        block = np.clip(0.9 + 0.05 * rng.standard_normal((per_class, len(salient[c]))), 0.0, 1.0)
        features[np.ix_(rows, salient[c])] = block
    meta = {
        "generator": "grid-image",
        "side": side,
        "salient_pixels": {int(c): pix for c, pix in salient.items()},
    }
    return Dataset(features, labels, classes, metadata=meta)


_GENERATORS = {
    "gaussian-blobs": _gaussian_blobs,
    "two-moons": _two_moons,
    "grid-image": _grid_image,
}


def make_synthetic(spec: dict, seed: int) -> Dataset:
    """Build one of the named synthetic datasets, deterministically."""
    name = spec.get("generator")
    if name not in _GENERATORS:
        raise BadSpec(f"unknown generator {name!r}; choose from {sorted(_GENERATORS)}")
    return _GENERATORS[name](spec, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# CSV I/O


def save_csv(dataset: Dataset, path: str) -> None:
    """Write header plus rows; floats use repr so values round-trip."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [dataset.label_name])
        label_names = dataset.metadata.get("label_names")
        for row, label in zip(dataset.features, dataset.labels):
            shown = label_names[label] if label_names else int(label)
            writer.writerow([repr(float(v)) for v in row] + [shown])


def load_csv(path: str, label_column: str) -> Dataset:
    """Read a CSV with a header row. Labels are encoded by first occurrence.

    Row and column numbers in errors are 1-based; the header is row 1.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", 1, 1) from None
        if label_column not in header:
            raise BadSpec(f"label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for r, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise ParseError(
                    f"expected {len(header)} cells, got {len(record)}", r, 1
                )
            feats = []
            for i, cell in enumerate(record):
                if i == label_idx:
                    raw_labels.append(cell)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise NonNumericFeature(f"cannot parse {cell!r}", r, i + 1) from None
                if not math.isfinite(value):
                    raise NonNumericFeature(f"non-finite value {cell!r}", r, i + 1)
                feats.append(value)
            rows.append(feats)

    if not rows:
        raise ParseError("no data rows", 2, 1)
    label_names: list[str] = []
    codes = []
    for name in raw_labels:
        if name not in label_names:
            label_names.append(name)
        codes.append(label_names.index(name))
    meta = {"label_names": label_names, "source": path}
    return Dataset(
        np.array(rows), np.array(codes), len(label_names),
        feature_names=tuple(feature_names), label_name=label_column, metadata=meta,
    )


# ---------------------------------------------------------------------------
# target models


@dataclass(frozen=True)
class TargetModel:
    family: str
    class_count: int
    parameters: dict = field(repr=False)
    config: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadSpec(f"unknown family {self.family!r}; choose from {FAMILIES}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _chol_or_raise(cov: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise SingularCovariance(
            f"{what} is singular; enable regularization or add data"
        ) from None


def _class_means(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-class feature means and row counts; a class without rows
    raises MissingClass."""
    C = data.class_count
    means = np.zeros((C, data.n_features))
    counts = np.zeros(C)
    for c in range(C):
        rows = data.class_rows(c)
        if rows.size == 0:
            raise MissingClass(f"class {c} has no training rows")
        counts[c] = rows.size
        means[c] = data.features[rows].mean(axis=0)
    return means, counts


def _fit_gaussian(data: Dataset, config: dict, seed: int) -> TargetModel:
    shared = bool(config.get("shared_covariance", True))
    ridge = float(config.get("ridge", 1e-6))
    C, d, n = data.class_count, data.n_features, data.n_rows
    means, counts = _class_means(data)
    centered = data.features - means[data.labels]
    if shared:
        cov = centered.T @ centered / n + ridge * np.eye(d)
        _chol_or_raise(cov, "shared covariance")
    else:
        cov = np.zeros((C, d, d))
        for c in range(C):
            rows = data.class_rows(c)
            cc = centered[rows]
            cov[c] = cc.T @ cc / rows.size + ridge * np.eye(d)
            _chol_or_raise(cov[c], f"class {c} covariance")
    params = {
        "means": means,
        "covariance": cov,
        "log_priors": np.log(counts / n),
        "shared": shared,
    }
    return TargetModel("gaussian", C, params, dict(config), seed)


def _fit_logistic(data: Dataset, config: dict, seed: int) -> TargetModel:
    lr = float(config.get("learning_rate", 0.5))
    epochs = int(config.get("epochs", 600))
    reg = float(config.get("reg", 1e-2))
    C, d, n = data.class_count, data.n_features, data.n_rows
    W = np.zeros((C, d))
    b = np.zeros(C)
    Y = _one_hot(data.labels, C)
    X = data.features
    for _ in range(epochs):
        P = _softmax(X @ W.T + b)
        G = (P - Y) / n
        W -= lr * (G.T @ X + reg * W)
        b -= lr * G.sum(axis=0)
    return TargetModel("logistic", C, {"weights": W, "bias": b}, dict(config), seed)


def _fit_mlp(data: Dataset, config: dict, seed: int) -> TargetModel:
    hidden = int(config.get("hidden", 16))
    lr = float(config.get("learning_rate", 0.05))
    epochs = int(config.get("epochs", 400))
    C, d, n = data.class_count, data.n_features, data.n_rows
    rng = np.random.default_rng(seed)
    W1 = 0.1 * rng.standard_normal((hidden, d))
    b1 = np.zeros(hidden)
    W2 = 0.1 * rng.standard_normal((C, hidden))
    b2 = np.zeros(C)
    X, Y = data.features, _one_hot(data.labels, C)

    def loss(P: np.ndarray) -> float:
        return float(-np.sum(Y * np.log(np.clip(P, 1e-300, None))) / n)

    trace = []
    for _ in range(epochs):
        H = np.tanh(X @ W1.T + b1)
        P = _softmax(H @ W2.T + b2)
        trace.append(loss(P))
        dZ2 = (P - Y) / n
        dW2 = dZ2.T @ H
        db2 = dZ2.sum(axis=0)
        dH = dZ2 @ W2
        dZ1 = dH * (1.0 - H * H)
        dW1 = dZ1.T @ X
        db1 = dZ1.sum(axis=0)
        W2 -= lr * dW2
        b2 -= lr * db2
        W1 -= lr * dW1
        b1 -= lr * db1
    H = np.tanh(X @ W1.T + b1)
    trace.append(loss(_softmax(H @ W2.T + b2)))
    params = {"W1": W1, "b1": b1, "W2": W2, "b2": b2, "loss_trace": np.array(trace)}
    return TargetModel("mlp", C, params, dict(config), seed)


def _fit_plda(data: Dataset, config: dict, seed: int) -> TargetModel:
    ridge = float(config.get("ridge", 1e-6))
    C, d, n = data.class_count, data.n_features, data.n_rows
    latent_dim = int(config.get("latent_dim", min(d, C - 1)))
    if latent_dim < 1 or latent_dim > d:
        raise BadSpec(f"latent_dim must be in [1, {d}], got {latent_dim}")
    center = data.features.mean(axis=0)
    means, counts = _class_means(data)
    centered = data.features - means[data.labels]
    s_w = centered.T @ centered / n + ridge * np.eye(d)
    inv_chol = np.linalg.inv(_chol_or_raise(s_w, "within-class covariance"))
    gap = means - center
    s_b = (gap * counts[:, None]).T @ gap / n

    # Generalized eigenvectors of (S_b, S_w) through S_w = L L': with U the
    # eigenvectors of inv(L) S_b inv(L)', V = inv(L)' U has V' S_w V = I,
    # so the projection whitens within-class covariance by construction.
    whitened = inv_chol @ s_b @ inv_chol.T
    if not np.all(np.isfinite(whitened)):
        raise NonFiniteResult("the plda fit overflowed: the whitened between-class scatter is not finite")
    eigvals, eigvecs = np.linalg.eigh(whitened)
    order = np.argsort(eigvals)[::-1][:latent_dim]
    projection = inv_chol.T @ eigvecs[:, order]
    psi = np.maximum(eigvals[order], 1e-8)
    latent_means = (means - center) @ projection
    params = {
        "projection": projection,
        "center": center,
        "latent_means": latent_means,
        "psi": psi,
        "within": s_w,
        "between": s_b,
        "log_priors": np.log(counts / n),
    }
    return TargetModel("plda", C, params, dict(config), seed)


def _fit_linear(data: Dataset, config: dict, seed: int) -> TargetModel:
    if data.class_count != 2:
        raise BadSpec("the linear fixture family is binary only")
    eps = float(config.get("clip_eps", 1e-6))
    X = np.column_stack([data.features, np.ones(data.n_rows)])
    target = (data.labels == 1).astype(float)
    coef, *_ = np.linalg.lstsq(X, target, rcond=None)
    params = {"weights": coef[:-1], "bias": float(coef[-1]), "clip_eps": eps}
    return TargetModel("linear", 2, params, dict(config), seed)


_FITTERS = {
    "gaussian": _fit_gaussian,
    "logistic": _fit_logistic,
    "mlp": _fit_mlp,
    "plda": _fit_plda,
    "linear": _fit_linear,
}


def fit_model(family: str, data: Dataset, config: dict | None = None, seed: int = 0) -> TargetModel:
    """Fit one model family. A fit whose parameters overflow to a NaN or
    infinite value (huge features, too large a learning rate) raises
    NonFiniteResult, so no checkpoint of it can be written."""
    if family not in _FITTERS:
        raise BadSpec(f"unknown family {family!r}; choose from {FAMILIES}")
    if data.class_count < 2:
        raise BadSpec("target models need at least two classes")
    with np.errstate(all="ignore"):
        model = _FITTERS[family](data, dict(config or {}), int(seed))
    diverged = sorted(k for k, v in model.parameters.items() if not np.all(np.isfinite(v)))
    if diverged:
        raise NonFiniteResult(f"the {family} fit overflowed: parameters {diverged} are not finite")
    return model


# ---------------------------------------------------------------------------
# prediction


def _gaussian_log_joint(model: TargetModel, X: np.ndarray) -> np.ndarray:
    p = model.parameters
    means, cov = p["means"], p["covariance"]
    C, d = means.shape
    out = np.zeros((X.shape[0], C))
    for c in range(C):
        sigma = cov if p["shared"] else cov[c]
        chol = _chol_or_raise(sigma, "covariance")
        diff = X - means[c]
        z = np.linalg.solve(chol, diff.T).T
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, c] = -0.5 * (np.sum(z * z, axis=1) + logdet + d * math.log(2 * math.pi))
    return out + p["log_priors"]


def predict_proba(model: TargetModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch of points, rows summing to one.
    Raises NonFiniteResult when a probability is not finite, as when a
    huge parameter or point makes the scores overflow."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d_expected = _feature_dim(model)
    if X.shape[1] != d_expected:
        raise DimensionMismatch(f"model expects {d_expected} features, got {X.shape[1]}")
    with np.errstate(all="ignore"):
        probs = _family_proba(model, X)
    if not np.all(np.isfinite(probs)):
        raise NonFiniteResult(f"{model.family} class probabilities are not finite: the scores overflow")
    return probs


def _family_proba(model: TargetModel, X: np.ndarray) -> np.ndarray:
    p = model.parameters
    if model.family == "gaussian":
        return _softmax(_gaussian_log_joint(model, X))
    if model.family == "logistic":
        return _softmax(X @ p["weights"].T + p["bias"])
    if model.family == "mlp":
        H = np.tanh(X @ p["W1"].T + p["b1"])
        return _softmax(H @ p["W2"].T + p["b2"])
    if model.family == "plda":
        U = (X - p["center"]) @ p["projection"]
        sq = ((U[:, None, :] - p["latent_means"][None]) ** 2).sum(axis=2)
        return _softmax(-0.5 * sq + p["log_priors"])
    if model.family == "linear":
        eps = p["clip_eps"]
        p1 = np.clip(X @ p["weights"] + p["bias"], eps, 1.0 - eps)
        return np.column_stack([1.0 - p1, p1])
    raise BadSpec(f"unknown family {model.family!r}")


def _feature_dim(model: TargetModel) -> int:
    """The ``d`` of the first parameter in ``_PARAM_SHAPES`` that has one."""
    key, letters = next((k, s) for k, s in _PARAM_SHAPES[model.family].items() if "d" in s)
    return model.parameters[key].shape[letters.index("d")]


def batch_predictor(model_or_fn):
    """Accept a TargetModel or any callable mapping (n, d) -> (n, C)."""
    if isinstance(model_or_fn, TargetModel):
        return lambda X: predict_proba(model_or_fn, X)
    if callable(model_or_fn):
        return model_or_fn
    raise BadSpec(f"cannot predict with object of type {type(model_or_fn).__name__}")


# ---------------------------------------------------------------------------
# PLDA mean posterior


def mean_posterior_logpdf(observations: np.ndarray, prior_var: np.ndarray, at: np.ndarray) -> float:
    """Log density of ``at`` under the posterior over a Gaussian mean.

    Model per coordinate j: mean ~ N(0, prior_var[j]), each observation
    ~ N(mean, 1). Conjugate update, evaluated at ``at``. A squared
    distance that overflows gives -inf, the exact limit, without a
    warning.
    """
    obs = np.atleast_2d(observations)
    n = obs.shape[0]
    precision = 1.0 / prior_var + n
    post_var = 1.0 / precision
    post_mean = obs.sum(axis=0) / precision
    diff = np.asarray(at, dtype=float) - post_mean
    with np.errstate(over="ignore"):
        return float(np.sum(-0.5 * (np.log(2 * math.pi * post_var) + diff * diff / post_var)))


def plda_class_logpdf(model: TargetModel, rows: np.ndarray, class_mean: np.ndarray) -> float:
    """The mean posterior's log density at ``class_mean`` after the rows of
    one class, projected with the full-fit whitening map, are observed."""
    p = model.parameters
    return mean_posterior_logpdf((rows - p["center"]) @ p["projection"], p["psi"], class_mean)


def plda_posterior_over_means(
    model: TargetModel,
    data: Dataset,
    subset_indices,
    latent_means: np.ndarray | None = None,
) -> float:
    """Log density the subset-trained mean posterior puts on class means:
    the sum over classes of ``plda_class_logpdf`` of the class's subset
    rows at its row of ``latent_means`` (default: the full-fit means), the
    term ``learners.make_plda_learner`` memoizes. Raises MissingClass
    when the subset leaves any class unrepresented.
    """
    if model.family != "plda":
        raise BadSpec(f"mean posterior is defined for plda models, not {model.family}")
    p = model.parameters
    theta = p["latent_means"] if latent_means is None else np.asarray(latent_means, dtype=float)
    if theta.shape != p["latent_means"].shape:
        raise DimensionMismatch(
            f"latent means must have shape {p['latent_means'].shape}, got {theta.shape}"
        )
    indices = np.asarray(list(subset_indices), dtype=int)
    labels = data.labels[indices]
    total = 0.0
    for c in range(model.class_count):
        rows = indices[labels == c]
        if rows.size == 0:
            raise MissingClass(f"subset has no row of class {c}")
        total += plda_class_logpdf(model, data.features[rows], theta[c])
    return total


# ---------------------------------------------------------------------------
# checkpoints


def jsonable(value):
    """``value`` with numpy arrays and scalars, nested in dicts, lists and
    tuples, turned into the lists and Python numbers ``json`` writes."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


# The array parameters of each family, with their shapes: a letter names
# a dimension that must agree across the family's arrays, and C is the
# checkpoint's class_count. A per-class gaussian covariance is "Cdd".
_PARAM_SHAPES = {
    "gaussian": {"means": "Cd", "covariance": "dd", "log_priors": "C"},
    "logistic": {"weights": "Cd", "bias": "C"},
    "mlp": {"W1": "hd", "b1": "h", "W2": "Ch", "b2": "C", "loss_trace": "t"},
    "plda": {"projection": "dL", "center": "d", "latent_means": "CL", "psi": "L",
             "within": "dd", "between": "dd", "log_priors": "C"},
    "linear": {"weights": "d"},
}


def model_to_dict(model: TargetModel) -> dict:
    return {
        "family": model.family,
        "class_count": model.class_count,
        "parameters": jsonable(model.parameters),
        "config": jsonable(model.config),
        "seed": model.seed,
    }


def model_from_dict(payload: dict) -> TargetModel:
    """A model from its checkpoint document. Anything a fit could not have
    written raises BadSpec: a missing key, an array that does not convert
    to finite floats, shapes that disagree with each other or with
    ``class_count``, a PLDA ``psi`` that is not positive, a linear
    ``bias`` or ``clip_eps`` out of range, or a non-finite number in the
    config."""
    try:
        family = payload["family"]
        class_count = payload["class_count"]
        parameters = dict(payload["parameters"])
        config = dict(payload.get("config", {}))
        seed = int(payload.get("seed", 0))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadSpec(f"malformed checkpoint: {exc}") from None
    if not isinstance(family, str) or family not in _PARAM_SHAPES:
        raise BadSpec(f"unknown family {family!r}; choose from {FAMILIES}")
    try:
        # the config is echoed into documents, which must stay valid JSON
        json.dumps(config, allow_nan=False)
    except ValueError:
        raise BadSpec("checkpoint config holds a NaN or infinite number") from None
    if type(class_count) is not int or class_count < 2 or (family == "linear" and class_count != 2):
        raise BadSpec(f"a {family} checkpoint cannot have class_count {class_count!r}")
    shapes = dict(_PARAM_SHAPES[family])
    if family == "gaussian":
        if not isinstance(parameters.get("shared"), bool):
            raise BadSpec("a gaussian checkpoint needs 'shared' as true or false")
        if not parameters["shared"]:
            shapes["covariance"] = "Cdd"
    dims = {"C": class_count}
    for key, letters in shapes.items():
        if key not in parameters:
            raise BadSpec(f"checkpoint for {family!r} is missing parameter {key!r}")
        try:
            value = np.asarray(parameters[key], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise BadSpec(f"checkpoint parameter {key!r} is not an array of numbers") from None
        if not np.all(np.isfinite(value)):
            raise BadSpec(f"checkpoint parameter {key!r} holds a NaN or infinite value")
        if value.ndim != len(letters) or any(
            size < 1 or dims.setdefault(letter, size) != size for letter, size in zip(letters, value.shape)
        ):
            raise BadSpec(
                f"checkpoint parameter {key!r} has shape {value.shape}, which disagrees with "
                f"class_count {class_count} or the other parameters"
            )
        parameters[key] = value
    if family == "plda" and np.any(parameters["psi"] <= 0):
        raise BadSpec("checkpoint parameter 'psi' must be positive")
    if family == "linear":
        bias, eps = parameters.get("bias"), parameters.get("clip_eps")
        numbers = all(type(v) in (int, float) and math.isfinite(v) for v in (bias, eps))
        if not (numbers and 0 <= eps < 0.5):
            raise BadSpec(
                f"a linear checkpoint needs a finite 'bias' and a 'clip_eps' in [0, 0.5), "
                f"got {bias!r} and {eps!r}"
            )
    return TargetModel(family, class_count, parameters, config, seed)


def save_model(model: TargetModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> TargetModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh, parse_int=json_int))


def json_int(text: str) -> int:
    """``parse_int`` for every JSON input: an integer literal too long for
    ``int()`` (over 4,300 digits) raises BadSpec, not a bare ValueError."""
    try:
        return int(text)
    except ValueError:
        raise BadSpec(f"a JSON integer of {len(text)} digits is too long to read") from None


def inspect_model(model: TargetModel) -> dict:
    """A light JSON-safe summary: family, sizes, config, parameter shapes."""
    shapes = {
        key: list(np.shape(value))
        for key, value in model.parameters.items()
        if isinstance(value, (np.ndarray, list))
    }
    return {
        "family": model.family,
        "class_count": model.class_count,
        "feature_count": _feature_dim(model),
        "parameter_shapes": shapes,
        "config": jsonable(model.config),
        "seed": model.seed,
    }
