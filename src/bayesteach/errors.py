"""Exception types raised across the engine.

Every failure mode that callers are expected to branch on gets its own
class; nothing here is ever swallowed into a default fallback. Each
class carries the exit code the command line reports it with: 3 for bad
data or requests (``EngineError``), 4 for numerical failures
(``NumericalError``).
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package. ``detail``, when
    set, is a dict the command line reports beside the message."""

    exit_code = 3
    detail: dict | None = None


class NumericalError(EngineError):
    """Base class for numerical failures: a computation that ran on valid
    input but has no finite or well-defined answer."""

    exit_code = 4


class AllZeroMass(NumericalError):
    """Every candidate explanation received zero weight; no posterior exists."""


class NonFiniteResult(NumericalError):
    """A score or loss overflowed or diverged to a non-finite value."""


class NotEnumerable(EngineError):
    """An exhaustive operation was asked of a space that cannot be enumerated."""


class ZeroStartMass(NumericalError):
    """A Markov chain was started from a state with zero posterior mass."""


class BadSpec(EngineError):
    """A generator, family, or config request that names nothing supported."""


class ParseError(EngineError):
    """A CSV cell could not be parsed. Its ``detail`` holds the 1-based row
    and column."""

    def __init__(self, message: str, row: int, col: int):
        super().__init__(f"{message} (row {row}, col {col})")
        self.detail = {"row": row, "col": col}


class NonNumericFeature(ParseError):
    """A feature cell held a non-numeric value."""


class SingularCovariance(NumericalError):
    """A covariance estimate is not positive definite even with the ridge
    added, as when features are collinear at a scale the ridge cannot lift."""


class DimensionMismatch(EngineError):
    """Array shapes disagree with the model or dataset they are used with."""


class MissingClass(EngineError):
    """An example subset fails to cover a class the inference target needs."""


class ZeroTotalWeight(NumericalError):
    """A weighted average was requested but all weights are zero."""


class SingularSystem(NumericalError):
    """A least-squares system is rank deficient; the fit is not identified."""


class IncompatibleCombination(EngineError):
    """A requested (inference target, explanation, learner) triple violates
    the compatibility rules. The message states the violated rule."""


class StrategySpaceMismatch(EngineError):
    """A search strategy was paired with a space it cannot operate on."""
