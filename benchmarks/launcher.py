"""Run one bayesteach CLI invocation with spans recorded at the boundary
of each layer of the package.

    python3 -X importtime launcher.py SPANS_OUT [--coarse] -- CLI ARGS...

Before calling ``bayesteach.cli.main`` the launcher replaces the public
entry points of each module with timing wrappers: in the defining module
and in every bayesteach module that imported the name, plus the methods
of the explanation spaces and the log-likelihood of every LearnerModel
built afterwards. The package source is not edited.

  - Coarse calls (load, fit, posterior, search, explainer, study) become
    spans: name, start, end, parent span and attributes.
  - Per-candidate calls (learner log-likelihoods, prior, proposal,
    enumeration, predict) are too many to record one by one; each is
    aggregated into a call count, summed time and an item count under the
    span that was open when it ran. ``--coarse`` leaves them unwrapped.

Everything stays in memory and is written to SPANS_OUT as JSON at exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.perf_counter


class Recorder:
    """Spans and aggregated calls of one invocation, held in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent, start, end, attrs]
        self.stack: list[int] = []
        self.calls: dict[tuple, list] = {}  # (parent, name) -> [count, seconds, items]
        self.active: set[str] = set()

    def _parent(self):
        return self.stack[-1] if self.stack else None

    def open(self, name: str, start: float) -> int:
        sid = len(self.spans)
        self.spans.append([sid, name, self._parent(), start, None, {}])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, end: float) -> None:
        self.stack.pop()
        self.spans[sid][4] = end

    def add(self, parent, name: str, seconds: float, items: int = 0) -> None:
        entry = self.calls.setdefault((parent, name), [0, 0.0, 0])
        entry[0] += 1
        entry[1] += seconds
        entry[2] += items

    def dump(self) -> dict:
        calls = [[p, n, c, s, i] for (p, n), (c, s, i) in self.calls.items()]
        return {"spans": self.spans, "calls": calls}

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` in a span. ``name`` is a string or a function of the
        call's (args, kwargs); ``attrs(args, kwargs, result)`` adds facts
        about the call once it has returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name(args, kwargs) if callable(name) else name, clock())
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                self.close(sid, end)
                if done and attrs:
                    # attribute bookkeeping is tracing cost, kept out of self times
                    self.spans[sid][5] = attrs(args, kwargs, result)
                    self.add(self.spans[sid][2], "trace.bookkeeping", clock() - end)

        return wrapper

    def count(self, name, fn, items=None):
        """Aggregate calls of ``fn`` under the open span. A call made while
        another call of the same name is running (a learner wrapping a
        learner) is part of that call and is not counted again."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self.active:
                return fn(*args, **kwargs)
            self.active.add(name)
            parent = self._parent()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                self.active.discard(name)
            self.add(parent, name, seconds, items(args, result) if items else 0)
            return result

        return wrapper

    def count_elements(self, fn):
        """Enumeration is lazy, so time each step of the iterator instead of
        the call that creates it; the item count is the candidates yielded."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent()
            iterator = iter(fn(*args, **kwargs))
            seconds, count = 0.0, 0
            try:
                while True:
                    start = clock()
                    try:
                        x = next(iterator)
                    except StopIteration:
                        seconds += clock() - start
                        return
                    seconds += clock() - start
                    count += 1
                    yield x
            finally:
                self.add(parent, "spaces.elements", seconds, count)

        return wrapper


def _mh_attrs(args, kwargs, samples):
    names = ("learner", "theta", "space", "n", "burn_in", "seed")
    bound = dict(zip(names, args), **kwargs)
    keys = [s.key() for s in samples]
    moved = sum(1 for a, b in zip(keys, keys[1:]) if a != b)
    return {
        "steps": int(bound["n"]) + int(bound["burn_in"]),
        "transitions": max(len(keys) - 1, 0),
        "moved": moved,
        "distinct": len(set(keys)),
    }


def _strategy_name(args, kwargs):
    strategy = args[3] if len(args) > 3 else kwargs["strategy"]
    return "teacher." + strategy


def _strategy_attrs(args, kwargs, result):
    return {"draws": int(result.metadata.get("n", 0))} if result.strategy == "mc-expectation" else {}


def install(rec: Recorder, coarse: bool) -> None:
    """Wrap the layer boundaries of every loaded bayesteach module."""
    import bayesteach.checks as checks
    import bayesteach.core as core
    import bayesteach.explainers as explainers
    import bayesteach.models as models
    import bayesteach.studies as studies
    import bayesteach.teacher as teacher
    from bayesteach.spaces import EnumeratedSpace, MaskSpace, SubsetSpace
    from bayesteach.types import LearnerModel

    wrappers = {
        models.load_model: rec.span("models.load", models.load_model),
        models.load_csv: rec.span("models.load", models.load_csv),
        models.fit_model: rec.span("models.fit", models.fit_model),
        core.teacher_posterior: rec.span("core.teacher_posterior", core.teacher_posterior),
        core.select_max: rec.span("core.select_max", core.select_max),
        core.mh_sample: rec.span("core.mh_sample", core.mh_sample, _mh_attrs),
        teacher.run_strategy: rec.span(_strategy_name, teacher.run_strategy, _strategy_attrs),
        explainers.explain_by_examples: rec.span(
            "explainers.explain_by_examples", explainers.explain_by_examples),
        explainers.rise_saliency: rec.span(
            "explainers.rise_saliency", explainers.rise_saliency,
            lambda a, k, r: {"items": r.mask_count}),
        explainers.kernel_shap: rec.span(
            "explainers.kernel_shap", explainers.kernel_shap,
            lambda a, k, r: {"items": r.coalition_count}),
        explainers.lime_local: rec.span(
            "explainers.lime_local", explainers.lime_local,
            lambda a, k, r: {"items": r.probe_count}),
        explainers.distill_tree: rec.span(
            "explainers.distill_tree", explainers.distill_tree,
            lambda a, k, r: {"items": len(r.loss_trace) - 1}),
        explainers.mmd_prototypes: rec.span("explainers.mmd", explainers.mmd_prototypes),
        explainers.mmd_criticisms: rec.span("explainers.mmd", explainers.mmd_criticisms),
        studies.example_selection_study: rec.span(
            "studies.study", studies.example_selection_study),
        studies.bias_sensitivity_study: rec.span(
            "studies.study", studies.bias_sensitivity_study),
        studies.strategy_mismatch_study: rec.span(
            "studies.study", studies.strategy_mismatch_study),
        studies.simulate_2afc: rec.span(
            "studies.simulate_2afc", studies.simulate_2afc,
            lambda a, k, r: {"items": len(a[0].tasks) * len(a[0].population)}),
        checks.run_oracle_suite: rec.span("checks.oracle_suite", checks.run_oracle_suite),
    }
    for fns in checks.SUITES.values():
        for fn in fns:
            if fn not in wrappers:
                wrappers[fn] = rec.span(f"checks.{fn.__name__}", fn)
    if not coarse:
        wrappers[models.predict_proba] = rec.count(
            "models.predict_proba", models.predict_proba, lambda a, r: len(r))

    by_id = {id(fn): wrapper for fn, wrapper in wrappers.items()}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "bayesteach" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, attr, by_id[id(value)])
    for group, fns in checks.SUITES.items():
        checks.SUITES[group] = [by_id[id(fn)] for fn in fns]

    if coarse:
        return
    for cls in (SubsetSpace, MaskSpace, EnumeratedSpace):
        cls.elements = rec.count_elements(cls.elements)
        cls.log_prior = rec.count(
            "spaces.log_prior", cls.log_prior, lambda a, r: int(r == float("-inf")))
        cls.propose = rec.count("spaces.propose", cls.propose)
        cls.initial_state = rec.count("spaces.initial_state", cls.initial_state)

    original_init = LearnerModel.__init__

    def learner_init(self, description, log_likelihood):
        original_init(self, description, rec.count("learners.log_likelihood", log_likelihood))

    LearnerModel.__init__ = learner_init


def main(argv: list[str]) -> int:
    out = argv[0]
    coarse = "--coarse" in argv[1:argv.index("--")]
    cli_args = argv[argv.index("--") + 1:]
    rec = Recorder()
    code = 1
    try:
        sid = rec.open("cli.import", clock())
        import bayesteach.cli as cli

        rec.close(sid, clock())
        install(rec, coarse)
        code = rec.span("cli.main", cli.main)(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(rec.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
