"""Per-layer metrics from the spans the launcher records.

Times are totals over one pass of a workload, except the import times,
which are per invocation (the median over the pass's invocations).
A layer the workload never enters reads 0. A span's self time is its
duration minus the time its child spans and aggregated calls cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name -> unit, in report order; every traced run prints all of them
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_stats_s": "s",
    "cli.import_scipy_special_s": "s",
    "cli.main_s": "s",
    "models.load_s": "s",
    "models.fit_s": "s",
    "models.predict_calls": "count",
    "models.predict_rows": "count",
    "models.predict_rows_per_s": "1/s",
    "spaces.candidates": "count",
    "spaces.enumerate_s": "s",
    "spaces.candidates_per_s": "1/s",
    "spaces.pruned_zero_prior": "count",
    "spaces.propose_calls": "count",
    "spaces.propose_s": "s",
    "learners.loglik_calls": "count",
    "learners.loglik_s": "s",
    "learners.loglik_per_s": "1/s",
    "learners.calls_per_candidate": "ratio",
    "core.posterior_s": "s",
    "core.posterior_self_s": "s",
    "core.select_max_s": "s",
    "core.mh_steps": "count",
    "core.mh_steps_per_s": "1/s",
    "core.mh_accept_ratio": "ratio",
    "core.mh_cache_hit_ratio": "ratio",
    "core.mh_distinct_states": "count",
    "teacher.exhaustive_max_s": "s",
    "teacher.mh_sample_s": "s",
    "teacher.mc_expectation_s": "s",
    "teacher.mc_draws_per_s": "1/s",
    "explainers.examples_self_s": "s",
    "explainers.rise_masks_per_s": "1/s",
    "explainers.shap_coalition_evals_per_s": "1/s",
    "explainers.lime_probes_per_s": "1/s",
    "explainers.distill_epochs_per_s": "1/s",
    "explainers.mmd_critic_s": "s",
    "studies.study_s": "s",
    "studies.simulate_2afc_s": "s",
    "studies.tasks_per_s": "1/s",
    "trace.overhead_s": "s",
}

# Times of a layer that some workload never enters, where they read 0 on
# every run. They are printed with the rest but left out of the result
# line, whose times must all be measurements; their counts and rates stay.
PRINT_ONLY = {
    "models.fit_s",
    "spaces.propose_s",
    "teacher.exhaustive_max_s",
    "teacher.mh_sample_s",
    "teacher.mc_expectation_s",
    "explainers.mmd_critic_s",
    "studies.study_s",
    "studies.simulate_2afc_s",
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``
    output; a module appears once, where it was first imported."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        out.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return out


def pass_metrics(invocations: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass. Each invocation is the
    launcher's dump plus ``imports`` from ``parse_importtime``."""
    total = defaultdict(float)  # span name -> summed duration
    self_time = defaultdict(float)  # span name -> summed self time
    attrs = defaultdict(float)  # (span name, attribute) -> sum
    calls = defaultdict(lambda: [0, 0.0, 0])  # call name -> count, seconds, items
    under = defaultdict(int)  # (span name, call name) -> count
    imports = defaultdict(list)
    for inv in invocations:
        spans = inv["spans"]
        covered = defaultdict(float)
        for sid, name, parent, start, end, span_attrs in spans:
            total[name] += end - start
            if parent is not None:
                covered[parent] += end - start
            for key, value in span_attrs.items():
                attrs[name, key] += value
        for parent, name, count, seconds, items in inv["calls"]:
            entry = calls[name]
            entry[0] += count
            entry[1] += seconds
            entry[2] += items
            if parent is not None:
                covered[parent] += seconds
                under[spans[parent][1], name] += count
        for sid, name, parent, start, end, _ in spans:
            self_time[name] += end - start - covered[sid]
            if name == "cli.import":
                imports["cli.import_s"].append(end - start)
        for module, key in (("scipy.stats", "cli.import_scipy_stats_s"),
                            ("scipy.special", "cli.import_scipy_special_s")):
            imports[key].append(inv["imports"].get(module, 0.0))

    predict, elements = calls["models.predict_proba"], calls["spaces.elements"]
    propose, loglik = calls["spaces.propose"], calls["learners.log_likelihood"]
    visited = elements[2] + propose[0] + calls["spaces.initial_state"][0]
    mh_steps = attrs["core.mh_sample", "steps"]
    m = {key: statistics.median(values) for key, values in imports.items()}
    m.update({
        "cli.main_s": total["cli.main"],
        "models.load_s": total["models.load"],
        "models.fit_s": total["models.fit"],
        "models.predict_calls": predict[0],
        "models.predict_rows": predict[2],
        "models.predict_rows_per_s": _rate(predict[2], predict[1]),
        "spaces.candidates": elements[2],
        "spaces.enumerate_s": elements[1],
        "spaces.candidates_per_s": _rate(elements[2], elements[1]),
        "spaces.pruned_zero_prior": calls["spaces.log_prior"][2],
        "spaces.propose_calls": propose[0],
        "spaces.propose_s": propose[1],
        "learners.loglik_calls": loglik[0],
        "learners.loglik_s": loglik[1],
        "learners.loglik_per_s": _rate(loglik[0], loglik[1]),
        "learners.calls_per_candidate": _rate(loglik[0], visited),
        "core.posterior_s": total["core.teacher_posterior"],
        "core.posterior_self_s": self_time["core.teacher_posterior"],
        "core.select_max_s": total["core.select_max"],
        "core.mh_steps": mh_steps,
        "core.mh_steps_per_s": _rate(mh_steps, total["core.mh_sample"]),
        "core.mh_accept_ratio": _rate(attrs["core.mh_sample", "moved"],
                                      attrs["core.mh_sample", "transitions"]),
        "core.mh_cache_hit_ratio": (
            1.0 - under["core.mh_sample", "learners.log_likelihood"] / mh_steps
            if mh_steps else 0.0
        ),
        "core.mh_distinct_states": attrs["core.mh_sample", "distinct"],
        "teacher.exhaustive_max_s": total["teacher.exhaustive-max"],
        "teacher.mh_sample_s": total["teacher.mh-sample"],
        "teacher.mc_expectation_s": total["teacher.mc-expectation"],
        "teacher.mc_draws_per_s": _rate(attrs["teacher.mc-expectation", "draws"],
                                        total["teacher.mc-expectation"]),
        "explainers.examples_self_s": self_time["explainers.explain_by_examples"],
        "explainers.mmd_critic_s": total["explainers.mmd"],
        "studies.study_s": total["studies.study"],
        "studies.simulate_2afc_s": total["studies.simulate_2afc"],
        "studies.tasks_per_s": _rate(attrs["studies.simulate_2afc", "items"],
                                     total["studies.simulate_2afc"]),
    })
    for metric, span in (("rise_masks_per_s", "rise_saliency"),
                         ("shap_coalition_evals_per_s", "kernel_shap"),
                         ("lime_probes_per_s", "lime_local"),
                         ("distill_epochs_per_s", "distill_tree")):
        span = "explainers." + span
        m["explainers." + metric] = _rate(attrs[span, "items"], total[span])
    return m


def check_metrics(invocations: list[dict]) -> dict[str, float]:
    """Oracle-suite timings, total and per check, from a traced
    ``oracle check`` invocation."""
    m = {}
    for inv in invocations:
        for _, name, _, start, end, _ in inv["spans"]:
            if name.startswith("checks."):
                m[name + "_s"] = m.get(name + "_s", 0.0) + end - start
    return m
