"""Explanations and inference targets are immutable values.

Each array in a payload, at the top level, inside a tuple or in a soft
tree's fields, is copied at construction and marked read-only, so the key
computed then stays the identity of the value: mutating the caller's
array afterwards changes neither the key, the hash nor the payload.
"""

import numpy as np
import pytest

from bayesteach.explainers import SoftTree
from bayesteach.types import (
    Explanation,
    ExplanationKind,
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


def test_a_soft_tree_payload_is_copied_with_frozen_arrays():
    tree = SoftTree(
        depth=1,
        node_weights=np.array([[1.0, -1.0]]),
        node_bias=np.zeros(1),
        node_temp=np.ones(1),
        leaf_logits=np.array([[0.0, 1.0], [1.0, 0.0]]),
        scaler_mean=np.zeros(2),
        scaler_scale=np.ones(2),
    )
    x = Explanation(ExplanationKind.SOFT_TREE, tree)
    probs = x.payload.predict_proba(np.array([[0.5, 0.25]]))

    def mutate():
        tree.node_weights[:] = -3.0
        tree.leaf_logits[:] = 5.0
        tree.scaler_scale[:] = 9.0

    assert_unchanged_by(x, mutate, lambda t: t.payload.node_weights)
    for name in ("node_bias", "node_temp", "leaf_logits", "scaler_mean", "scaler_scale"):
        assert not getattr(x.payload, name).flags.writeable
    np.testing.assert_array_equal(x.payload.predict_proba(np.array([[0.5, 0.25]])), probs)
    assert x == Explanation(ExplanationKind.SOFT_TREE, x.payload) != Explanation(ExplanationKind.SOFT_TREE, tree)
