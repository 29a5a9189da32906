"""Command line front end.

Every subcommand emits a single JSON document (stdout, or --out) that
validates against a schema shipped under bayesteach/schemas. Errors are
machine readable JSON on stderr with a matching exit code: 2 for usage,
3 for data problems, 4 for numerical failures. Output is byte identical
across reruns with the same inputs and flags; runtime_ms stays null
unless --timing is passed, precisely so the default output never varies.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import math
import sys
import time

import numpy as np

from . import render
from .checks import run_oracle_suite
from .errors import BadSpec, EngineError, ParseError
from .explainers import (
    distill_tree,
    explain_by_examples,
    kernel_shap,
    lime_local,
    mmd_criticisms,
    mmd_prototypes,
    rise_saliency,
)
from .learners import KernelConfig
from .models import (
    FAMILIES,
    fit_model,
    inspect_model,
    json_int,
    jsonable,
    load_csv,
    load_model,
    make_synthetic,
    predict_proba,
    save_csv,
    save_model,
)
from .recombine import recombine
from .studies import (
    bias_sensitivity_study,
    example_selection_study,
    plda_strategy_mismatch_study,
)
from .types import ExplanationKind, ThetaKind

USAGE_EXIT = 2
# An EngineError carries its own exit code: 3 for bad data or requests, 4
# for numerical failures (errors.NumericalError). A missing, malformed or
# undecodable input file is a data error, and so is any file that cannot
# be opened, read or written (OSError).
DATA_EXIT = EngineError.exit_code
NUMERICAL_EXIT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits on its own; route through the JSON error channel instead
    def error(self, message):
        raise _UsageError(message)


def _dump(doc: dict) -> str:
    return json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"


def _emit(doc: dict, out: str | None) -> None:
    text = _dump(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(kind: str, message: str, exit_code: int, detail: dict | None = None) -> None:
    body = {"type": kind, "message": message, "exit_code": exit_code}
    if detail:
        body["detail"] = detail
    sys.stderr.write(_dump({"error": body}))


def _load_point(path: str) -> np.ndarray:
    """First data row of a CSV as a float vector; a header row of
    non-numeric cells is skipped, and a NaN or infinite cell raises
    ParseError."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if not rows:
        raise ParseError(f"{path} has no data rows", row=1, col=1)
    start = 0
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        start = 1
    if start >= len(rows):
        raise ParseError(f"{path} has a header but no data row", row=2, col=1)
    values = []
    for j, cell in enumerate(rows[start]):
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(
                f"non-numeric value {cell!r}", row=start + 1, col=j + 1
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {cell!r}", row=start + 1, col=j + 1)
        values.append(value)
    return np.array(values, dtype=float)


def _echoed_json(text: str, what: str):
    """Parse JSON that a command echoes into its document: a study config
    or a ``--param`` value. The document must stay strict JSON, so NaN,
    infinities and literals that overflow (``1e999``) raise BadSpec naming
    ``what``, and so does an integer too long to read."""

    def finite(number: str) -> float:
        value = float(number)
        if not math.isfinite(value):
            raise BadSpec(f"{what} holds {number}, not a finite number")
        return value

    return json.loads(text, parse_constant=finite, parse_float=finite, parse_int=json_int)


def _require_seed_when(condition: bool, seed, why: str) -> None:
    if condition and seed is None:
        raise _UsageError(f"--seed is required {why}")


def _class_counts(data) -> dict:
    counts = np.bincount(data.labels, minlength=data.class_count)
    names = data.metadata.get("label_names")
    keys = [str(names[c]) if names else str(c) for c in range(data.class_count)]
    return {k: int(v) for k, v in zip(keys, counts)}


def _dataset_result(data, path: str | None) -> dict:
    return {
        "rows": int(data.features.shape[0]),
        "feature_count": int(data.features.shape[1]),
        "class_count": int(data.class_count),
        "feature_names": list(data.feature_names),
        "label_name": data.label_name,
        "class_counts": _class_counts(data),
        "path": path,
        "metadata": json.loads(_dump(data.metadata))
        if data.metadata
        else {},
    }


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (document, exit_code)


def _cmd_dataset_make(args) -> tuple[dict, int]:
    spec = {"generator": args.generator}
    for key in ("classes", "dim", "per_class", "separation", "n", "noise", "side", "motif_size"):
        value = getattr(args, key)
        if value is not None:
            spec[key] = value
    data = make_synthetic(spec, args.seed)
    save_csv(data, args.csv)
    doc = {
        "command": "dataset",
        "action": "make",
        "seed": args.seed,
        "config": spec,
        "result": _dataset_result(data, args.csv),
    }
    return doc, 0


def _cmd_dataset_import(args) -> tuple[dict, int]:
    data = load_csv(args.infile, args.label_column)
    if args.csv:
        save_csv(data, args.csv)
    doc = {
        "command": "dataset",
        "action": "import",
        "seed": None,
        "config": {"in": args.infile, "label_column": args.label_column},
        "result": _dataset_result(data, args.csv),
    }
    return doc, 0


def _model_config_from_args(args) -> dict:
    config = {}
    if args.hidden is not None:
        config["hidden"] = args.hidden
    if args.epochs is not None:
        config["epochs"] = args.epochs
    if args.learning_rate is not None:
        config["learning_rate"] = args.learning_rate
    if args.latent_dim is not None:
        config["latent_dim"] = args.latent_dim
    return config


def _cmd_model_fit(args) -> tuple[dict, int]:
    data = load_csv(args.data, args.label_column)
    config = _model_config_from_args(args)
    model = fit_model(args.family, data, config, seed=args.seed)
    probs = predict_proba(model, data.features)
    accuracy = float(np.mean(np.argmax(probs, axis=1) == data.labels))
    save_model(model, args.save)
    result = inspect_model(model)
    result["train_accuracy"] = accuracy
    result["path"] = args.save
    doc = {
        "command": "model",
        "action": "fit",
        "seed": args.seed,
        "config": {"data": args.data, "family": args.family, **config},
        "result": result,
    }
    return doc, 0


def _cmd_model_inspect(args) -> tuple[dict, int]:
    model = load_model(args.model)
    result = inspect_model(model)
    result["path"] = args.model
    doc = {
        "command": "model",
        "action": "inspect",
        "seed": None,
        "config": {"model": args.model},
        "result": result,
    }
    return doc, 0


def _explain_envelope(method: str, theta_kind: str, config: dict, seed,
                      result: dict, diagnostics: dict, description: str | None = None) -> dict:
    return {
        "method": method,
        "theta": {"kind": theta_kind, "description": description},
        "config": config,
        "seed": seed,
        "result": result,
        "diagnostics": diagnostics,
    }


def _render_vector(doc: dict, values, args, stem: str) -> None:
    if not getattr(args, "render", None):
        return
    out = args.render_out or f"{stem}.{args.render}"
    if args.render == "pgm":
        with open(out, "wb") as fh:
            fh.write(render.saliency_to_pgm(values))
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(render.saliency_to_svg(values))
    doc["renders"] = [out]


def _cmd_explain_plda_examples(args) -> tuple[dict, int]:
    _require_seed_when(args.strategy == "mh-sample", args.seed, "for mh-sample")
    model = load_model(args.model)
    data = load_csv(args.data, args.label_column)
    report = explain_by_examples(
        model,
        data,
        per_class_k=args.per_class_k,
        strategy=args.strategy,
        seed=args.seed if args.seed is not None else 0,
        per_class_independent=args.independent,
        mh_steps=args.mh_steps,
        mh_burn_in=args.mh_burn_in,
    )
    config = {
        "model": args.model,
        "data": args.data,
        "per_class_k": args.per_class_k,
        "strategy": args.strategy,
        "independent": args.independent,
    }
    diagnostics = {
        "log_likelihood": report.log_likelihood,
        "posterior_probability": report.posterior_probability,
        "space_size": report.space_size,
    }
    doc = _explain_envelope(
        "plda-examples", ThetaKind.LATENT_CLASS_MEANS.value, config, args.seed,
        report.to_dict(), diagnostics, "latent class means of the fitted model",
    )
    return doc, 0


def _cmd_explain_mmd_critic(args) -> tuple[dict, int]:
    data = load_csv(args.data, args.label_column)
    kernel = KernelConfig(bandwidth=args.bandwidth)
    proto = mmd_prototypes(data, args.prototypes, kernel)
    crit = mmd_criticisms(data, proto.indices, args.criticisms, kernel)
    config = {
        "data": args.data,
        "prototypes": args.prototypes,
        "criticisms": args.criticisms,
        "bandwidth": args.bandwidth,
    }
    result = {"prototypes": proto.to_dict(), "criticisms": crit.to_dict()}
    diagnostics = {"final_mmd2": proto.mmd2_trace[-1], "bandwidth": proto.bandwidth}
    doc = _explain_envelope(
        "mmd-critic", ThetaKind.CLASS_DATA_DISTRIBUTION.value, config, None,
        result, diagnostics, "training data distribution",
    )
    return doc, 0


def _cmd_explain_rise(args) -> tuple[dict, int]:
    model = load_model(args.model)
    point = _load_point(args.point)
    report = rise_saliency(
        model,
        point,
        n_masks=args.masks,
        keep_prob=args.keep,
        seed=args.seed,
        baseline=args.baseline,
        target_class=args.target_class,
    )
    config = {
        "model": args.model,
        "point": args.point,
        "masks": args.masks,
        "keep": args.keep,
        "baseline": args.baseline,
        "class": report.target_class,
    }
    diagnostics = {
        "mean_stderr": float(np.mean(report.stderr)),
        "max_stderr": float(np.max(report.stderr)),
    }
    doc = _explain_envelope(
        "rise", ThetaKind.PREDICTED_LABEL.value, config, args.seed,
        report.to_dict(), diagnostics, f"predicted label {report.target_class}",
    )
    _render_vector(doc, report.values, args, "rise")
    return doc, 0


def _cmd_explain_shap(args) -> tuple[dict, int]:
    _require_seed_when(not args.exact, args.seed, "for sampled coalitions")
    model = load_model(args.model)
    point = _load_point(args.point)
    background = load_csv(args.background, args.label_column)
    report = kernel_shap(
        model,
        point,
        background.features,
        target_class=args.target_class,
        mode="exact" if args.exact else "sampled",
        n_samples=args.samples,
        seed=args.seed if args.seed is not None else 0,
    )
    config = {
        "model": args.model,
        "point": args.point,
        "background": args.background,
        "class": args.target_class,
        "exact": args.exact,
        "samples": None if args.exact else args.samples,
    }
    efficiency_gap = float(report.full_value - report.base_value - report.phi.sum())
    doc = _explain_envelope(
        "shap", ThetaKind.PREDICTED_LABEL.value, config,
        None if args.exact else args.seed,
        report.to_dict(), {"efficiency_gap": efficiency_gap},
        f"predicted label {args.target_class}",
    )
    _render_vector(doc, report.phi, args, "shap")
    return doc, 0


def _cmd_explain_lime(args) -> tuple[dict, int]:
    model = load_model(args.model)
    point = _load_point(args.point)
    report = lime_local(
        model,
        point,
        probe_count=args.probes,
        kernel_width=args.kernel_width,
        ridge=args.ridge,
        seed=args.seed,
        target_class=args.target_class,
    )
    config = {
        "model": args.model,
        "point": args.point,
        "probes": args.probes,
        "kernel_width": args.kernel_width,
        "ridge": args.ridge,
        "class": args.target_class,
    }
    doc = _explain_envelope(
        "lime", ThetaKind.LOCAL_DECISION_BOUNDARY.value, config, args.seed,
        report.to_dict(), {"r_squared": report.r_squared},
        "local decision boundary around the point",
    )
    _render_vector(doc, report.weights, args, "lime")
    return doc, 0


def _cmd_explain_tree_distill(args) -> tuple[dict, int]:
    model = load_model(args.model)
    data = load_csv(args.data, args.label_column)
    report = distill_tree(
        model,
        data.features,
        depth=args.depth,
        beta=args.beta,
        seed=args.seed,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
    )
    config = {
        "model": args.model,
        "data": args.data,
        "depth": args.depth,
        "beta": args.beta,
        "epochs": args.epochs,
        "learning_rate": args.learning_rate,
    }
    diagnostics = {"final_kl": report.final_kl, "gate_entropy": report.gate_entropy}
    doc = _explain_envelope(
        "tree-distill", ThetaKind.PREDICTIVE_DISTRIBUTION.value, config, args.seed,
        report.to_dict(), diagnostics, "predictive distribution over the dataset",
    )
    if args.render:
        if args.render != "svg":
            raise _UsageError("tree renders are svg only")
        out = args.render_out or "tree-distill.svg"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(render.tree_to_svg(report.tree))
        doc["renders"] = [out]
    return doc, 0


def _cmd_explain_recombine(args) -> tuple[dict, int]:
    model = load_model(args.model)
    data = load_csv(args.data, args.label_column)
    point = _load_point(args.point) if args.point else None
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise _UsageError(f"--param needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            params[key] = _echoed_json(raw, f"--param {item}")
        except json.JSONDecodeError:
            params[key] = raw
    try:
        theta_kind = ThetaKind(args.theta)
        x_kind = ExplanationKind(args.x_kind)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    method = recombine(theta_kind, x_kind, args.learner, args.strategy, params)
    result = method.run(model, data, point=point, seed=args.seed)
    config = {
        "model": args.model,
        "data": args.data,
        "point": args.point,
        "learner": args.learner,
        "strategy": args.strategy,
        "params": params,
    }
    doc = _explain_envelope(
        "recombine", args.theta, config, args.seed, result,
        {"x_kind": args.x_kind, "learner": args.learner, "strategy": args.strategy},
    )
    return doc, 0


def _threshold_lookup(result: dict, field: str):
    node = result
    for part in field.split("."):
        if isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise BadSpec(f"threshold field {field!r} not present in the study result")
    return node


_THRESHOLD_OPS = {
    "ge": lambda a, b: a >= b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "lt": lambda a, b: a < b,
    "eq": lambda a, b: a == b,
    "is": lambda a, b: bool(a) is bool(b),
}


def _studies() -> dict:
    """Study name -> function, built on each call from the module-level
    names, so a wrapper installed on one of those names takes effect."""
    return {
        "example-selection": example_selection_study,
        "bias-sweep": bias_sensitivity_study,
        "strategy-mismatch": plda_strategy_mismatch_study,
    }


def _study_params(study, params) -> dict:
    """A study config's ``params``, checked against the keyword parameters
    of the study function: each key must be one of them, and each value
    must have the type of that parameter's default."""
    if not isinstance(params, dict):
        raise BadSpec("study params must be a JSON object")
    signature = inspect.signature(study).parameters
    defaults = {k: p.default for k, p in signature.items() if k not in ("model", "data", "seed")}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise BadSpec(f"unknown study params {unknown}; accepted: {sorted(defaults)}")
    for key, value in params.items():
        default = defaults[key]
        if isinstance(default, tuple):
            ok = isinstance(value, list) and all(_is_number(v) for v in value)
        elif isinstance(default, bool):
            ok = isinstance(value, bool)
        elif isinstance(default, int):
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = _is_number(value)
        if not ok:
            raise BadSpec(f"study param {key!r} must be like {default!r}, got {value!r}")
    return params


def _is_number(value) -> bool:
    """A JSON number a float can hold: an integer beyond the float range
    (10**400) is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _cmd_study_run(args) -> tuple[dict, int]:
    with open(args.config, encoding="utf-8") as fh:
        config = _echoed_json(fh.read(), "the study config")
    if not isinstance(config, dict):
        raise BadSpec("a study config must be a JSON object")
    name = config.get("study")
    studies = _studies()
    if not isinstance(name, str) or name not in studies:
        raise BadSpec(f"unknown study {name!r}; choose from {sorted(studies)}")
    paths = {key: config.get(key) for key in ("model", "data")}
    label_column = config.get("label_column", "label")
    for key, value in dict(paths, label_column=label_column).items():
        if not isinstance(value, str):
            raise BadSpec(f"study config needs {key!r} as a string, got {value!r}")
    params = _study_params(studies[name], config.get("params", {}))
    specs = config.get("thresholds", [])
    if not isinstance(specs, list) or not all(
        isinstance(spec, dict) and isinstance(spec.get("field"), str) and {"op", "value"} <= set(spec)
        for spec in specs
    ):
        raise BadSpec("thresholds must be a list of objects with 'field', 'op' and 'value'")
    model = load_model(paths["model"])
    data = load_csv(paths["data"], label_column)
    result = studies[name](model, data, seed=args.seed, **params)

    thresholds = []
    for spec in specs:
        observed = _threshold_lookup(result, spec["field"])
        op = spec["op"]
        if not isinstance(op, str) or op not in _THRESHOLD_OPS:
            raise BadSpec(f"unknown threshold op {op!r}")
        try:
            passed = bool(_THRESHOLD_OPS[op](observed, spec["value"]))
        except TypeError:
            raise BadSpec(
                f"threshold field {spec['field']!r} holds a {type(observed).__name__}, "
                f"which {op!r} cannot compare with {spec['value']!r}"
            ) from None
        thresholds.append(
            {
                "field": spec["field"],
                "op": op,
                "value": spec["value"],
                "observed": observed,
                "passed": passed,
            }
        )
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    doc = {
        "command": "study",
        "study": name,
        "seed": args.seed,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "config": config,
        "result": result,
        "thresholds": thresholds,
    }
    exit_code = 0 if all(t["passed"] for t in thresholds) else 1
    return doc, exit_code


def _cmd_oracle_check(args) -> tuple[dict, int]:
    report = run_oracle_suite(args.suite, seed=args.seed)
    doc = {
        "command": "oracle",
        "suite": report["suite"],
        "passed": report["passed"],
        "checks": report["checks"],
    }
    return doc, 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser wiring


def _add_common(parser) -> None:
    parser.add_argument("--out", help="write the JSON document here instead of stdout")
    parser.add_argument("--timing", action="store_true", help="fill runtime_ms (otherwise null)")


def _add_render(parser) -> None:
    parser.add_argument("--render", choices=("pgm", "svg"))
    parser.add_argument("--render-out", help="render target path")


def _finite_float(text: str) -> float:
    """``type=`` of every float flag: a NaN or infinite value is a usage
    error, as a non-numeric one is."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="bayesteach", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="make or import datasets")
    dsub = p_dataset.add_subparsers(dest="action", required=True)

    p_make = dsub.add_parser("make", help="generate a synthetic dataset")
    p_make.add_argument("--generator", required=True,
                        choices=("gaussian-blobs", "two-moons", "grid-image"))
    p_make.add_argument("--classes", type=int)
    p_make.add_argument("--dim", type=int)
    p_make.add_argument("--per-class", dest="per_class", type=int)
    p_make.add_argument("--separation", type=_finite_float)
    p_make.add_argument("--n", type=int)
    p_make.add_argument("--noise", type=_finite_float)
    p_make.add_argument("--side", type=int)
    p_make.add_argument("--motif-size", dest="motif_size", type=int)
    p_make.add_argument("--seed", type=int, required=True)
    p_make.add_argument("--csv", required=True, help="CSV path for the dataset")
    _add_common(p_make)
    p_make.set_defaults(handler=_cmd_dataset_make)

    p_import = dsub.add_parser("import", help="validate and summarize a CSV dataset")
    p_import.add_argument("--in", dest="infile", required=True)
    p_import.add_argument("--label-column", default="label")
    p_import.add_argument("--csv", help="optionally rewrite the normalized CSV here")
    _add_common(p_import)
    p_import.set_defaults(handler=_cmd_dataset_import)

    p_model = sub.add_parser("model", help="fit or inspect target models")
    msub = p_model.add_subparsers(dest="action", required=True)

    p_fit = msub.add_parser("fit", help="fit a target model to a CSV dataset")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--label-column", default="label")
    p_fit.add_argument("--family", required=True,
                       choices=FAMILIES)
    p_fit.add_argument("--seed", type=int, required=True)
    p_fit.add_argument("--save", required=True, help="model checkpoint path")
    p_fit.add_argument("--hidden", type=int)
    p_fit.add_argument("--epochs", type=int)
    p_fit.add_argument("--learning-rate", dest="learning_rate", type=_finite_float)
    p_fit.add_argument("--latent-dim", dest="latent_dim", type=int)
    _add_common(p_fit)
    p_fit.set_defaults(handler=_cmd_model_fit)

    p_inspect = msub.add_parser("inspect", help="summarize a model checkpoint")
    p_inspect.add_argument("--model", required=True)
    _add_common(p_inspect)
    p_inspect.set_defaults(handler=_cmd_model_inspect)

    p_explain = sub.add_parser("explain", help="run an explanation method")
    esub = p_explain.add_subparsers(dest="method", required=True)

    p_plda = esub.add_parser("plda-examples", help="teach latent class means by examples")
    p_plda.add_argument("--model", required=True)
    p_plda.add_argument("--data", required=True)
    p_plda.add_argument("--label-column", default="label")
    p_plda.add_argument("--per-class-k", dest="per_class_k", type=int, default=2)
    p_plda.add_argument("--strategy", choices=("exhaustive-max", "mh-sample"),
                        default="exhaustive-max")
    p_plda.add_argument("--independent", action="store_true",
                        help="assemble the argmax class by class")
    p_plda.add_argument("--mh-steps", dest="mh_steps", type=int, default=20000)
    p_plda.add_argument("--mh-burn-in", dest="mh_burn_in", type=int, default=2000)
    p_plda.add_argument("--seed", type=int)
    p_plda.add_argument("--threads", type=int, default=1)
    _add_common(p_plda)
    p_plda.set_defaults(handler=_cmd_explain_plda_examples)

    p_mmd = esub.add_parser("mmd-critic", help="prototypes and criticisms")
    p_mmd.add_argument("--data", required=True)
    p_mmd.add_argument("--label-column", default="label")
    p_mmd.add_argument("--prototypes", type=int, required=True)
    p_mmd.add_argument("--criticisms", type=int, required=True)
    p_mmd.add_argument("--bandwidth", type=_finite_float)
    _add_common(p_mmd)
    p_mmd.set_defaults(handler=_cmd_explain_mmd_critic)

    p_rise = esub.add_parser("rise", help="random-mask saliency")
    p_rise.add_argument("--model", required=True)
    p_rise.add_argument("--point", required=True)
    p_rise.add_argument("--class", dest="target_class", type=int)
    p_rise.add_argument("--masks", type=int, default=4000)
    p_rise.add_argument("--keep", type=_finite_float, default=0.5)
    p_rise.add_argument("--baseline", type=_finite_float, default=0.0)
    p_rise.add_argument("--seed", type=int, required=True)
    _add_render(p_rise)
    _add_common(p_rise)
    p_rise.set_defaults(handler=_cmd_explain_rise)

    p_shap = esub.add_parser("shap", help="Shapley value attributions")
    p_shap.add_argument("--model", required=True)
    p_shap.add_argument("--point", required=True)
    p_shap.add_argument("--background", required=True, help="CSV of background rows")
    p_shap.add_argument("--label-column", default="label")
    p_shap.add_argument("--class", dest="target_class", type=int, required=True)
    p_shap.add_argument("--exact", action="store_true")
    p_shap.add_argument("--samples", type=int, default=2048)
    p_shap.add_argument("--seed", type=int)
    _add_render(p_shap)
    _add_common(p_shap)
    p_shap.set_defaults(handler=_cmd_explain_shap)

    p_lime = esub.add_parser("lime", help="local linear surrogate")
    p_lime.add_argument("--model", required=True)
    p_lime.add_argument("--point", required=True)
    p_lime.add_argument("--class", dest="target_class", type=int, required=True)
    p_lime.add_argument("--probes", type=int, default=2000)
    p_lime.add_argument("--kernel-width", dest="kernel_width", type=_finite_float, default=1.0)
    p_lime.add_argument("--ridge", type=_finite_float, default=1e-3)
    p_lime.add_argument("--seed", type=int, required=True)
    _add_render(p_lime)
    _add_common(p_lime)
    p_lime.set_defaults(handler=_cmd_explain_lime)

    p_tree = esub.add_parser("tree-distill", help="soft decision tree surrogate")
    p_tree.add_argument("--model", required=True)
    p_tree.add_argument("--data", required=True)
    p_tree.add_argument("--label-column", default="label")
    p_tree.add_argument("--depth", type=int, default=3)
    p_tree.add_argument("--beta", type=_finite_float, default=0.0)
    p_tree.add_argument("--epochs", type=int, default=800)
    p_tree.add_argument("--learning-rate", dest="learning_rate", type=_finite_float, default=0.05)
    p_tree.add_argument("--seed", type=int, required=True)
    _add_render(p_tree)
    _add_common(p_tree)
    p_tree.set_defaults(handler=_cmd_explain_tree_distill)

    p_comb = esub.add_parser("recombine", help="assemble a method from parts")
    p_comb.add_argument("--theta", required=True,
                        choices=[k.value for k in ThetaKind])
    p_comb.add_argument("--x-kind", dest="x_kind", required=True,
                        choices=[k.value for k in ExplanationKind])
    p_comb.add_argument("--learner", required=True)
    p_comb.add_argument("--strategy", required=True)
    p_comb.add_argument("--model", required=True)
    p_comb.add_argument("--data", required=True)
    p_comb.add_argument("--label-column", default="label")
    p_comb.add_argument("--point")
    p_comb.add_argument("--param", action="append", metavar="KEY=VALUE")
    p_comb.add_argument("--seed", type=int, required=True)
    p_comb.add_argument("--threads", type=int, default=1)
    _add_common(p_comb)
    p_comb.set_defaults(handler=_cmd_explain_recombine)

    p_study = sub.add_parser("study", help="simulated explainee studies")
    ssub = p_study.add_subparsers(dest="action", required=True)
    p_run = ssub.add_parser("run", help="run a study described by a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--threads", type=int, default=1)
    _add_common(p_run)
    p_run.set_defaults(handler=_cmd_study_run)

    p_oracle = sub.add_parser("oracle", help="cross-check against brute force")
    osub = p_oracle.add_subparsers(dest="action", required=True)
    p_check = osub.add_parser("check", help="run an oracle agreement suite")
    p_check.add_argument("--suite", default="all",
                         choices=("all", "posterior", "shap", "rise", "mmd"))
    p_check.add_argument("--seed", type=int, default=0)
    _add_common(p_check)
    p_check.set_defaults(handler=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit_error("UsageError", str(exc), USAGE_EXIT)
        return USAGE_EXIT
    except SystemExit as exc:  # --help lands here
        return int(exc.code or 0)

    started = time.perf_counter()
    try:
        doc, exit_code = args.handler(args)
        doc["runtime_ms"] = (time.perf_counter() - started) * 1000.0 if args.timing else None
        _emit(doc, args.out)
        return exit_code
    except _UsageError as exc:
        _emit_error("UsageError", str(exc), USAGE_EXIT)
        return USAGE_EXIT
    except ParseError as exc:
        _emit_error(
            type(exc).__name__, str(exc), exc.exit_code,
            {"row": exc.row, "col": exc.col},
        )
        return exc.exit_code
    except EngineError as exc:
        _emit_error(type(exc).__name__, str(exc), exc.exit_code)
        return exc.exit_code
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _emit_error(type(exc).__name__, str(exc), DATA_EXIT)
        return DATA_EXIT


run = main


if __name__ == "__main__":
    sys.exit(main())
