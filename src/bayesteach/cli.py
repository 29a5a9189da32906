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
import json
import math
import sys
import time

import numpy as np

# models serves every command (each document is written through its
# jsonable); beyond it, each handler imports the modules of its own
# subcommand, so a command loads no explainer, study or check it does not run.
from .errors import BadSpec, EngineError, ParseError
from .models import (
    FAMILIES,
    fit_model,
    inspect_model,
    json_int,
    jsonable,
    load_csv,
    load_model,
    make_synthetic,
    param_value,
    predict_proba,
    save_csv,
    save_model,
)
from .types import ExplanationKind, ThetaKind

USAGE_EXIT = 2
# An EngineError carries its own exit code: 3 for bad data or requests, 4
# for numerical failures (errors.NumericalError). A missing, malformed or
# undecodable input file is a data error, and so is any file that cannot
# be opened, read or written (OSError), and so is a request too large for
# the memory at hand (MemoryError).
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
    flags = ("hidden", "epochs", "learning_rate", "latent_dim")
    return {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}


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
    from . import render

    out = args.render_out or f"{stem}.{args.render}"
    if args.render == "pgm":
        with open(out, "wb") as fh:
            fh.write(render.saliency_to_pgm(values))
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(render.saliency_to_svg(values))
    doc["renders"] = [out]


def _cmd_explain_plda_examples(args) -> tuple[dict, int]:
    from .explainers import explain_by_examples

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
        jsonable(report), diagnostics, "latent class means of the fitted model",
    )
    return doc, 0


def _cmd_explain_mmd_critic(args) -> tuple[dict, int]:
    from .explainers import mmd_criticisms, mmd_prototypes
    from .learners import KernelConfig

    data = load_csv(args.data, args.label_column)
    proto = mmd_prototypes(data, args.prototypes, KernelConfig(bandwidth=args.bandwidth))
    # reuse the bandwidth the prototypes resolved: the median heuristic runs once
    crit = mmd_criticisms(data, proto.indices, args.criticisms, KernelConfig(proto.bandwidth))
    config = {
        "data": args.data,
        "prototypes": args.prototypes,
        "criticisms": args.criticisms,
        "bandwidth": args.bandwidth,
    }
    result = {"prototypes": jsonable(proto), "criticisms": jsonable(crit)}
    diagnostics = {"final_mmd2": proto.mmd2_trace[-1], "bandwidth": proto.bandwidth}
    doc = _explain_envelope(
        "mmd-critic", ThetaKind.CLASS_DATA_DISTRIBUTION.value, config, None,
        result, diagnostics, "training data distribution",
    )
    return doc, 0


def _cmd_explain_rise(args) -> tuple[dict, int]:
    from .explainers import rise_saliency

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
        jsonable(report), diagnostics, f"predicted label {report.target_class}",
    )
    _render_vector(doc, report.values, args, "rise")
    return doc, 0


def _cmd_explain_shap(args) -> tuple[dict, int]:
    from .explainers import kernel_shap

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
        jsonable(report), {"efficiency_gap": efficiency_gap},
        f"predicted label {args.target_class}",
    )
    _render_vector(doc, report.phi, args, "shap")
    return doc, 0


def _cmd_explain_lime(args) -> tuple[dict, int]:
    from .explainers import lime_local

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
        jsonable(report), {"r_squared": report.r_squared},
        "local decision boundary around the point",
    )
    _render_vector(doc, report.weights, args, "lime")
    return doc, 0


def _cmd_explain_tree_distill(args) -> tuple[dict, int]:
    from .explainers import distill_tree

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
        jsonable(report), diagnostics, "predictive distribution over the dataset",
    )
    if args.render:
        if args.render != "svg":
            raise _UsageError("tree renders are svg only")
        from . import render

        out = args.render_out or "tree-distill.svg"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(render.tree_to_svg(report.tree))
        doc["renders"] = [out]
    return doc, 0


def _cmd_explain_recombine(args) -> tuple[dict, int]:
    from .recombine import recombine

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
        "params": method.params,
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


def _study_params(study, params) -> dict:
    """A study config's ``params`` read through ``param_value``: each key
    must be a keyword parameter of the study function, whose default
    declares its kind (a tuple default takes a list of numbers)."""
    import inspect

    if not isinstance(params, dict):
        raise BadSpec("study params must be a JSON object")
    signature = inspect.signature(study).parameters
    kinds = {k: list if isinstance(p.default, tuple) else type(p.default)
             for k, p in signature.items() if k not in ("model", "data", "seed")}
    unknown = sorted(set(params) - set(kinds))
    if unknown:
        raise BadSpec(f"unknown study params {unknown}; accepted: {sorted(kinds)}")
    return {key: param_value(f"study param {key}", value, kinds[key]) for key, value in params.items()}


def _cmd_study_run(args) -> tuple[dict, int]:
    import hashlib

    from .studies import STUDIES

    with open(args.config, encoding="utf-8") as fh:
        config = _echoed_json(fh.read(), "the study config")
    if not isinstance(config, dict):
        raise BadSpec("a study config must be a JSON object")
    name = config.get("study")
    if not isinstance(name, str) or name not in STUDIES:
        raise BadSpec(f"unknown study {name!r}; choose from {sorted(STUDIES)}")
    paths = {key: config.get(key) for key in ("model", "data")}
    label_column = config.get("label_column", "label")
    for key, value in dict(paths, label_column=label_column).items():
        if not isinstance(value, str):
            raise BadSpec(f"study config needs {key!r} as a string, got {value!r}")
    params = _study_params(STUDIES[name], config.get("params", {}))
    specs = config.get("thresholds", [])
    if not isinstance(specs, list) or not all(
        isinstance(spec, dict) and isinstance(spec.get("field"), str) and {"op", "value"} <= set(spec)
        for spec in specs
    ):
        raise BadSpec("thresholds must be a list of objects with 'field', 'op' and 'value'")
    model = load_model(paths["model"])
    data = load_csv(paths["data"], label_column)
    result = STUDIES[name](model, data, seed=args.seed, **params)

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
    from .checks import run_oracle_suite

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


def _seed(text: str) -> int:
    """``type=`` of every --seed: numpy seeds only non-negative integers,
    so any other value is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


# every leaf takes these after its own arguments
_COMMON = [
    ("--out", {"help": "write the JSON document here instead of stdout"}),
    ("--timing", {"action": "store_true", "help": "fill runtime_ms (otherwise null)"}),
]


def _commands() -> dict:
    """The command tree: group -> (help, dest of the leaf name, {leaf:
    (help, handler, arguments)}), each argument a flag and its
    ``add_argument`` keywords. It is built on each call from the
    module-level handler names, so a handler replaced on the module takes
    effect."""
    model, data = ("--model", {"required": True}), ("--data", {"required": True})
    label = ("--label-column", {"default": "label"})
    seed = ("--seed", {"type": _seed, "required": True})
    threads = ("--threads", {"type": int, "default": 1})
    render = [("--render", {"choices": ("pgm", "svg")}), ("--render-out", {"help": "render target path"})]
    return {
        "dataset": ("make or import datasets", "action", {
            "make": ("generate a synthetic dataset", _cmd_dataset_make, [
                ("--generator", {"required": True, "choices": ("gaussian-blobs", "two-moons", "grid-image")}),
                ("--classes", {"type": int}),
                ("--dim", {"type": int}),
                ("--per-class", {"type": int}),
                ("--separation", {"type": _finite_float}),
                ("--n", {"type": int}),
                ("--noise", {"type": _finite_float}),
                ("--side", {"type": int}),
                ("--motif-size", {"type": int}),
                seed,
                ("--csv", {"required": True, "help": "CSV path for the dataset"}),
            ]),
            "import": ("validate and summarize a CSV dataset", _cmd_dataset_import, [
                ("--in", {"dest": "infile", "required": True}),
                label,
                ("--csv", {"help": "optionally rewrite the normalized CSV here"}),
            ]),
        }),
        "model": ("fit or inspect target models", "action", {
            "fit": ("fit a target model to a CSV dataset", _cmd_model_fit, [
                data, label,
                ("--family", {"required": True, "choices": FAMILIES}),
                seed,
                ("--save", {"required": True, "help": "model checkpoint path"}),
                ("--hidden", {"type": int}),
                ("--epochs", {"type": int}),
                ("--learning-rate", {"type": _finite_float}),
                ("--latent-dim", {"type": int}),
            ]),
            "inspect": ("summarize a model checkpoint", _cmd_model_inspect, [model]),
        }),
        "explain": ("run an explanation method", "method", {
            "plda-examples": ("teach latent class means by examples", _cmd_explain_plda_examples, [
                model, data, label,
                ("--per-class-k", {"type": int, "default": 2}),
                ("--strategy", {"choices": ("exhaustive-max", "mh-sample"), "default": "exhaustive-max"}),
                ("--independent", {"action": "store_true", "help": "assemble the argmax class by class"}),
                ("--mh-steps", {"type": int, "default": 20000}),
                ("--mh-burn-in", {"type": int, "default": 2000}),
                ("--seed", {"type": _seed}),
                threads,
            ]),
            "mmd-critic": ("prototypes and criticisms", _cmd_explain_mmd_critic, [
                data, label,
                ("--prototypes", {"type": int, "required": True}),
                ("--criticisms", {"type": int, "required": True}),
                ("--bandwidth", {"type": _finite_float}),
            ]),
            "rise": ("random-mask saliency", _cmd_explain_rise, [
                model,
                ("--point", {"required": True}),
                ("--class", {"dest": "target_class", "type": int}),
                ("--masks", {"type": int, "default": 4000}),
                ("--keep", {"type": _finite_float, "default": 0.5}),
                ("--baseline", {"type": _finite_float, "default": 0.0}),
                seed,
                *render,
            ]),
            "shap": ("Shapley value attributions", _cmd_explain_shap, [
                model,
                ("--point", {"required": True}),
                ("--background", {"required": True, "help": "CSV of background rows"}),
                label,
                ("--class", {"dest": "target_class", "type": int, "required": True}),
                ("--exact", {"action": "store_true"}),
                ("--samples", {"type": int, "default": 2048}),
                ("--seed", {"type": _seed}),
                *render,
            ]),
            "lime": ("local linear surrogate", _cmd_explain_lime, [
                model,
                ("--point", {"required": True}),
                ("--class", {"dest": "target_class", "type": int, "required": True}),
                ("--probes", {"type": int, "default": 2000}),
                ("--kernel-width", {"type": _finite_float, "default": 1.0}),
                ("--ridge", {"type": _finite_float, "default": 1e-3}),
                seed,
                *render,
            ]),
            "tree-distill": ("soft decision tree surrogate", _cmd_explain_tree_distill, [
                model, data, label,
                ("--depth", {"type": int, "default": 3}),
                ("--beta", {"type": _finite_float, "default": 0.0}),
                ("--epochs", {"type": int, "default": 800}),
                ("--learning-rate", {"type": _finite_float, "default": 0.05}),
                seed,
                *render,
            ]),
            "recombine": ("assemble a method from parts", _cmd_explain_recombine, [
                ("--theta", {"required": True, "choices": [k.value for k in ThetaKind]}),
                ("--x-kind", {"required": True, "choices": [k.value for k in ExplanationKind]}),
                ("--learner", {"required": True}),
                ("--strategy", {"required": True}),
                model, data, label,
                ("--point", {}),
                ("--param", {"action": "append", "metavar": "KEY=VALUE"}),
                seed,
                threads,
            ]),
        }),
        "study": ("simulated explainee studies", "action", {
            "run": ("run a study described by a JSON config", _cmd_study_run, [
                ("--config", {"required": True}), seed, threads,
            ]),
        }),
        "oracle": ("cross-check against brute force", "action", {
            "check": ("run an oracle agreement suite", _cmd_oracle_check, [
                ("--suite", {"default": "all", "choices": ("all", "posterior", "shap", "rise", "mmd")}),
                ("--seed", {"type": _seed, "default": 0}),
            ]),
        }),
    }


def build_parser(argv=()) -> _Parser:
    """The parser of the command tree. When ``argv`` starts with a known
    group and leaf, only that leaf is built; any other ``argv`` gets the
    whole tree, from which help and usage errors are printed."""
    tree = _commands()
    group, leaf = (*argv[:2], None, None)[:2]
    if group in tree and leaf in tree[group][2]:
        group_help, dest, leaves = tree[group]
        tree = {group: (group_help, dest, {leaf: leaves[leaf]})}
    parser = _Parser(prog="bayesteach", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for group, (group_help, dest, leaves) in tree.items():
        leaf_parsers = sub.add_parser(group, help=group_help).add_subparsers(dest=dest, required=True)
        for leaf, (leaf_help, handler, arguments) in leaves.items():
            leaf_parser = leaf_parsers.add_parser(leaf, help=leaf_help)
            for flag, options in arguments + _COMMON:
                leaf_parser.add_argument(flag, **options)
            leaf_parser.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
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
    except EngineError as exc:
        _emit_error(type(exc).__name__, str(exc), exc.exit_code, exc.detail)
        return exc.exit_code
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _emit_error(type(exc).__name__, str(exc), DATA_EXIT)
        return DATA_EXIT
    except MemoryError as exc:  # numpy raises a subclass under a private name
        _emit_error("MemoryError", str(exc), DATA_EXIT)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
