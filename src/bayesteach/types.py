"""Domain types shared across the engine.

An inference target (what the explanation should teach) and an explanation
(the artifact shown to the learner) are tagged unions: a kind plus a
payload. Both are immutable values: construction copies array payloads
read-only and computes the canonical key once, which equality and hashing
read; no other module builds keys.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import FrozenInstanceError, MISSING, dataclass, field, fields
from typing import Any, Callable

import numpy as np

# Chains of more steps (burn-in included), mask draws of more entries
# (masks times dimension), pairwise distance matrices of more entries
# and synthetic datasets of more entries (rows times features) are
# refused before anything is drawn or allocated.
MAX_DRAWS = 1 << 24


class ThetaKind(enum.Enum):
    """What aspect of the target model an explanation is meant to convey."""

    PREDICTED_LABEL = "predicted-label"
    PREDICTIVE_DISTRIBUTION = "predictive-distribution"
    CLASS_DATA_DISTRIBUTION = "class-data-distribution"
    LOCAL_DECISION_BOUNDARY = "local-decision-boundary"
    LATENT_CLASS_MEANS = "latent-class-means"

    # Kinds that describe the target model's input-output behaviour rather
    # than its internal parameters. LATENT_CLASS_MEANS is the one
    # parameter-level kind and is treated specially by recombination.
    @property
    def is_generalization_level(self) -> bool:
        return self is not ThetaKind.LATENT_CLASS_MEANS


class ExplanationKind(enum.Enum):
    EXAMPLE_SET = "example-set"
    FEATURE_MASK = "feature-mask"
    SALIENCY_VECTOR = "saliency-vector"
    LINEAR_WEIGHTS = "linear-weights"
    SOFT_TREE = "soft-tree"


def record(cls):
    """Make ``cls`` a frozen dataclass without compiling code for it:
    ``dataclass`` records only the field metadata, so ``fields``,
    ``replace`` and ``is_dataclass`` work, and the shared methods below
    read it with the semantics of a frozen dataclass. A field with
    ``init=False`` reads its default from the class. A method that the
    class or a base below ``object`` defines is kept."""
    # dataclass builds a missing docstring through inspect.signature, which takes milliseconds
    cls.__doc__ = cls.__doc__ or f"{cls.__name__}({', '.join(cls.__annotations__)})"
    dataclass(cls, init=False, repr=False, eq=False)
    init = [f for f in fields(cls) if f.init]
    cls._record_layout = (
        tuple(f.name for f in init),
        {f.name: f for f in init if f.default is not MISSING or f.default_factory is not MISSING},
        hasattr(cls, "__post_init__"),
        tuple(f.name for f in fields(cls) if f.compare),
        tuple(f.name for f in fields(cls) if f.repr),
    )
    for name, method in _RECORD_METHODS.items():
        if not any(name in vars(base) for base in cls.__mro__[:-1]):
            setattr(cls, name, method)
    return cls


def _record_init(self, *args, **kwargs):
    names, optional, post_init, _, _ = self._record_layout
    if kwargs or len(args) != len(names):
        args = _bound(type(self).__name__, names, optional, args, kwargs)
    self.__dict__.update(zip(names, args))
    if post_init:
        self.__post_init__()


def _bound(name: str, names: tuple, optional: dict, args: tuple, kwargs: dict) -> list:
    """The values of the ``init`` fields ``names``, in order, from a call's
    arguments and the fields' defaults."""
    values = list(args[: len(names)])
    for key in names[len(args):]:
        if key in kwargs:
            values.append(kwargs.pop(key))
        elif key in optional:
            f = optional[key]
            values.append(f.default_factory() if f.default is MISSING else f.default)
        else:
            raise TypeError(f"{name}() missing required argument {key!r}")
    if kwargs or len(args) > len(names):
        raise TypeError(f"{name}() got unexpected arguments {args[len(names):]} {sorted(kwargs)}")
    return values


def _compared(self) -> tuple:
    return tuple([getattr(self, name) for name in self._record_layout[3]])


def _record_eq(self, other):
    return _compared(self) == _compared(other) if other.__class__ is self.__class__ else NotImplemented


def _record_hash(self):
    return hash(_compared(self))


def _record_repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_layout[4])
    return f"{self.__class__.__qualname__}({shown})"


def _record_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_RECORD_METHODS = {
    "__init__": _record_init,
    "__eq__": _record_eq,
    "__hash__": _record_hash,
    "__repr__": _record_repr,
    "__setattr__": _record_setattr,
    "__delattr__": _record_delattr,
}


_dtype_name = functools.lru_cache(maxsize=None)(str)  # str(dtype) is slow
_INT = frozenset({int})


def _canonical(value: Any) -> Any:
    """Reduce a payload to a hashable, equality-comparable form."""
    if isinstance(value, np.ndarray):
        return (value.shape, _dtype_name(value.dtype), value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    return value


def _frozen(value: Any) -> Any:
    """A read-only copy of an array; any other value as it is."""
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flags.writeable = False
    return value


@record
class _Value:
    """A kind plus a frozen payload, compared and hashed by its stored key."""

    kind: enum.Enum
    payload: Any

    def __init__(self, kind: enum.Enum, payload: Any) -> None:
        if type(payload) is tuple and _INT.issuperset(map(type, payload)):
            canonical = payload  # an example set is its own canonical form
        else:
            payload = tuple(map(_frozen, payload)) if type(payload) is tuple else _frozen(payload)
            canonical = _canonical(payload)
        # the kind's enum hash is slow and left out; __eq__ compares it
        self.__dict__.update(kind=kind, payload=payload, _key=(kind, canonical), _hash=hash(canonical))

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash


class TargetInference(_Value):
    """A candidate inference about the target model: kind plus payload.

    Payload conventions by kind:
      PREDICTED_LABEL           int class index
      PREDICTIVE_DISTRIBUTION   (points (n, d), probabilities (n, C))
      CLASS_DATA_DISTRIBUTION   (reference points (n, d), class index; None for all rows)
      LOCAL_DECISION_BOUNDARY   (point (d,), kernel width)
      LATENT_CLASS_MEANS        (C, q) array of latent class means
    """


class Explanation(_Value):
    """One candidate explanation: kind plus payload.

    Payload conventions by kind:
      EXAMPLE_SET      tuple of dataset row indices (distinct)
      FEATURE_MASK     (d,) array of {0, 1}
      SALIENCY_VECTOR  (d,) array of nonnegative reals

    LINEAR_WEIGHTS and SOFT_TREE name the surrogates that recombination
    fits with its gradient-fit strategy; no search scores them, so they
    are reported as fitted and never held in an Explanation.
    """


def example_set(indices) -> Explanation:
    return Explanation(ExplanationKind.EXAMPLE_SET, tuple(map(int, indices)))


def feature_mask(bits) -> Explanation:
    return Explanation(ExplanationKind.FEATURE_MASK, np.asarray(bits, dtype=np.int8))


@record
class LearnerModel:
    """A learner: a likelihood over inference targets given an explanation.

    The likelihood is held in log space; a value of -inf means the learner
    assigns the pair zero probability. ``likelihood`` exposes the plain
    nonnegative value for callers that work in probability space.

    Two optional hooks let searches score many candidates at once. They
    are attached with ``factored`` and ``batched`` rather than passed to
    the constructor, which takes the description and likelihood only.

    ``block_terms`` is for learners whose likelihood of an example set
    splits over the index pools of a subset space. Called as
    ``block_terms(theta, pools)`` it returns ``(scorers, combine)``: one
    scorer per pool, mapping an (N, k) int array of that pool's rows,
    each row ascending, to N terms, and a ``combine`` step mapping the
    list of terms, in pool order, to ``log_likelihood`` of the
    concatenated picks, rounding included. A ``combine`` of None means
    the terms added in pool order from 0.0. It returns None when the
    likelihood does not split over those pools that way.

    ``batch_log_likelihood(theta, masks)`` scores an (N, d) array of 0/1
    feature-mask entries in one pass; row i of the result is
    ``log_likelihood`` of row i as a mask.
    """

    description: str
    log_likelihood: Callable[[TargetInference, Explanation], float]
    block_terms: Callable | None = field(default=None, init=False, repr=False, compare=False)
    batch_log_likelihood: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def factored(self, block_terms) -> "LearnerModel":
        """Attach the ``block_terms`` hook to this new learner; returns it."""
        object.__setattr__(self, "block_terms", block_terms)
        return self

    def batched(self, batch_log_likelihood) -> "LearnerModel":
        """Attach the ``batch_log_likelihood`` hook to this new learner; returns it."""
        object.__setattr__(self, "batch_log_likelihood", batch_log_likelihood)
        return self

    def likelihood(self, theta: TargetInference, x: Explanation) -> float:
        return math.exp(self.log_likelihood(theta, x))


@record
class TeacherPosterior:
    """Normalized teacher posterior over an enumerated explanation support.

    ``support`` lists the positive-prior elements in enumeration order.
    ``log_weights`` holds the unnormalized log(likelihood * prior) per
    element; ``log_normalizer`` is their log-sum-exp.
    """

    support: tuple[Explanation, ...]
    log_weights: np.ndarray = field(repr=False)
    log_normalizer: float

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_weights - self.log_normalizer)

    def __len__(self) -> int:
        return len(self.support)
