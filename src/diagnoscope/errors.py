"""Exception hierarchy for the diagnosis engine.

Domain failures (unexplainable observations, zero-probability evidence,
dominated utility entries, ...) raise subclasses of DiagnoscopeError so
callers can tell them apart from programming errors.
"""

from __future__ import annotations


class DiagnoscopeError(Exception):
    """Base class for all domain errors raised by this package."""


class UnknownAtomError(DiagnoscopeError):
    """A formula, scenario, or observation names an undeclared atom."""


class FreeObservableError(DiagnoscopeError):
    """A free observable was used where a rule-defined one is required."""


class InconsistentScenarioError(DiagnoscopeError):
    """The scenario contradicts the model's hard constraints."""


class UnexplainableObservationError(DiagnoscopeError):
    """No fault set accounts for the observations."""


class NegativeObservationError(DiagnoscopeError):
    """Abduction was asked to explain a negative observation literal."""


class ZeroProbabilityObservationError(DiagnoscopeError):
    """The observations have probability zero under the prior."""


class SearchSpaceError(DiagnoscopeError):
    """An exhaustive enumeration would exceed its size cap."""


class NoFiniteThresholdError(DiagnoscopeError):
    """A utility entry admits no treat/skip probability threshold.

    ``direction`` records why: "never-treat" or "always-treat" when one
    action dominates, "reversed" when treating pays off only at *low*
    fault probability, "indifferent" when the actions are always equal.
    """

    def __init__(self, message: str, direction: str):
        super().__init__(message)
        self.direction = direction
