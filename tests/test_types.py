"""Explanations and inference targets are immutable values.

Each array in a payload, at the top level or inside a tuple, is copied
at construction and marked read-only, so the key computed then stays the
identity of the value: mutating the caller's array afterwards changes
neither the key, the hash nor the payload.

Every frozen record class of the package is declared with
``types.record``, which keeps the semantics of a frozen dataclass
without compiling code for each class at import.
"""

import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import bayesteach
from bayesteach.errors import BadSpec
from bayesteach.explainers import ExampleSelectionReport, SaliencyReport
from bayesteach.learners import BiasConfig, KernelConfig
from bayesteach.models import Dataset, TargetModel
from bayesteach.recombine import LEARNER_REGISTRY, LearnerSpec
from bayesteach.studies import PopulationMember, SimulatedStudy
from bayesteach.types import (
    Explanation,
    ExplanationKind,
    LearnerModel,
    TargetInference,
    ThetaKind,
    example_set,
    feature_mask,
)


def assert_unchanged_by(value, mutate, payload_array):
    key, digest, before = value.key(), hash(value), np.array(payload_array(value))
    mutate()
    assert value.key() == key
    assert hash(value) == digest
    np.testing.assert_array_equal(payload_array(value), before)
    assert not payload_array(value).flags.writeable
    with pytest.raises(ValueError):
        payload_array(value)[0] = 7


def test_mutating_the_callers_mask_changes_nothing():
    bits = np.array([1, 0, 1, 1], dtype=np.int8)
    mask = feature_mask(bits)

    def mutate():
        bits[:] = 0

    assert_unchanged_by(mask, mutate, lambda x: x.payload)
    assert mask == feature_mask([1, 0, 1, 1]) != feature_mask(bits)


def test_mutating_the_callers_latent_means_changes_nothing():
    means = np.arange(6.0).reshape(3, 2)
    theta = TargetInference(ThetaKind.LATENT_CLASS_MEANS, means)

    def mutate():
        means[:] += 1.0

    assert_unchanged_by(theta, mutate, lambda t: t.payload)
    assert theta == TargetInference(ThetaKind.LATENT_CLASS_MEANS, np.arange(6.0).reshape(3, 2))


def test_arrays_inside_a_tuple_payload_are_frozen_too():
    reference = np.ones((4, 2))
    theta = TargetInference(ThetaKind.CLASS_DATA_DISTRIBUTION, (reference, 1))

    def mutate():
        reference[0, 0] = -1.0

    assert_unchanged_by(theta, mutate, lambda t: t.payload[0])
    assert theta.payload[1] == 1


def test_key_is_the_kind_and_canonical_payload():
    bits = np.array([0, 1], dtype=np.int8)
    assert feature_mask(bits).key() == (
        ExplanationKind.FEATURE_MASK, ((2,), "int8", bits.tobytes()),
    )
    assert example_set([3, np.int64(1)]).key() == (ExplanationKind.EXAMPLE_SET, (3, 1))
    # the key, not the payload type, decides equality and the hash
    as_tuple = Explanation(ExplanationKind.FEATURE_MASK, (1, 0))
    as_list = Explanation(ExplanationKind.FEATURE_MASK, [1, 0])
    assert as_tuple == as_list and hash(as_tuple) == hash(as_list)
    assert as_tuple != feature_mask([1, 0])
    # a target and an explanation never compare equal
    assert TargetInference(ThetaKind.PREDICTED_LABEL, 0) != Explanation(ExplanationKind.EXAMPLE_SET, 0)


def test_no_package_class_holds_code_compiled_at_import():
    """``dataclass`` compiles the methods it writes with ``exec``, so their
    code comes from the file ``<string>``; every module is imported and no
    method of a class it defines may be such code."""
    generated = []
    for path in sorted(Path(bayesteach.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"bayesteach.{path.stem}" if path.stem != "__init__" else "bayesteach")
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for name, value in vars(cls).items():
                code = getattr(getattr(value, "__func__", value), "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    generated.append(f"{cls.__qualname__}.{name}")
    assert generated == []


def test_record_classes_keep_the_semantics_of_a_frozen_dataclass():
    # construction: positional or keyword arguments, defaults, a fresh
    # default_factory value each time, and the argument checks of __init__
    model = TargetModel("plda", 2, {})
    assert (model.config, model.seed) == ({}, 0)
    assert TargetModel(family="plda", class_count=2, parameters={}, seed=3).seed == 3
    assert TargetModel("plda", 2, {}).config is not model.config
    report = ExampleSelectionReport((0,), {0: (0,)}, 0.0, None, "greedy", 1)
    assert report.metadata == {} and report.metadata is not ExampleSelectionReport(
        (0,), {0: (0,)}, 0.0, None, "greedy", 1).metadata
    for args, kwargs in [((1.0, 2.0), {}), ((), {"width": 1.0}), ((1.0,), {"bandwidth": 1.0})]:
        with pytest.raises(TypeError):
            KernelConfig(*args, **kwargs)
    with pytest.raises(TypeError):
        TargetModel("plda", 2)

    # a field with init=False reads its default, and the hooks leave
    # equality alone
    def score(theta, x):
        return 0.0

    learner = LearnerModel("flat", score)
    assert learner.block_terms is None and learner.batch_log_likelihood is None
    assert learner == LearnerModel("flat", score).factored(print) != LearnerModel("other", score)

    # __post_init__ runs, on construction and on replace
    candidates = (TargetInference(ThetaKind.PREDICTED_LABEL, 0), TargetInference(ThetaKind.PREDICTED_LABEL, 1))
    members = (PopulationMember(learner),)
    study = SimulatedStudy(members, candidates, ((0, 1),))
    for bad in [lambda: SimulatedStudy(members, candidates[:1], ((0, 1),)),
                lambda: dataclasses.replace(study, tasks=((2, 1),)),
                lambda: KernelConfig(-1.0), lambda: KernelConfig(bandwidth=1e-200)]:
        with pytest.raises(BadSpec):
            bad()

    # frozen: no field may be set or deleted, nor a new attribute added
    for name in ("bandwidth", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(KernelConfig(1.0), name, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del study.tasks

    # equality within one class over the compared fields, and their hash
    assert KernelConfig(1.0) == KernelConfig(bandwidth=1.0) != KernelConfig()
    assert hash(KernelConfig(1.0)) == hash(KernelConfig(bandwidth=1.0)) == hash((1.0,))
    assert KernelConfig() != (None,) and KernelConfig().__eq__((None,)) is NotImplemented
    prior = np.array([0.25, 0.75])
    bias = BiasConfig(1.0, candidates, prior)
    assert bias == BiasConfig(1.0, list(candidates), prior) != BiasConfig(2.0, candidates, prior)
    with pytest.raises(TypeError):
        hash(bias)  # its prior belief is an array
    spec = LEARNER_REGISTRY["plda"]
    twin = LearnerSpec(spec.theta_kinds, spec.explanation_kinds, spec.recipe, spec.params,
                       spec.partial_subsets)
    assert twin == spec and hash(twin) == hash(spec)
    assert dataclasses.replace(spec, partial_subsets=not spec.partial_subsets) != spec

    # the repr leaves out fields marked repr=False
    data = Dataset(np.zeros((2, 1)), np.array([0, 1]), 2, ("f0",))
    assert repr(data) == "Dataset(class_count=2, feature_names=('f0',), label_name='label')"
    assert repr(SaliencyReport(np.zeros(1), np.zeros(1), 1, 5, 0.5)) == (
        "SaliencyReport(target_class=1, mask_count=5, keep_prob=0.5)")
    assert repr(KernelConfig()) == "KernelConfig(bandwidth=None)"

    # the field metadata stays a dataclass's
    assert dataclasses.is_dataclass(study) and dataclasses.is_dataclass(LearnerModel)
    assert [f.name for f in dataclasses.fields(LearnerModel)] == [
        "description", "log_likelihood", "block_terms", "batch_log_likelihood"]
    assert dataclasses.replace(study, tasks=((0, 3),)) == SimulatedStudy(members, candidates, ((0, 3),))
    with pytest.raises(ValueError):
        dataclasses.replace(learner, block_terms=None)  # an init=False field
