"""Exception hierarchy for the repro package."""

from __future__ import annotations


class SpireError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SpireError):
    """Raised when input samples or datasets are malformed."""


class FitError(SpireError):
    """Raised when a roofline cannot be fit to the provided samples."""


class EstimationError(SpireError):
    """Raised when a model cannot produce an estimate for the given input."""


class ConfigError(SpireError):
    """Raised when a machine or collection configuration is inconsistent."""


class ParseError(DataError):
    """Raised when external tool output (e.g. ``perf stat``) cannot be parsed."""


class ServeOverloadError(SpireError):
    """Raised when the serving layer sheds a request under backpressure.

    The HTTP layer answers ``429`` + ``Retry-After: retry_after``;
    ``shed`` marks a request refused or failed by a server shutdown
    (``503``).
    """

    #: Seconds a refused client is told to wait before it retries.
    retry_after = 0.05

    def __init__(self, message: str, shed: bool = False):
        super().__init__(message)
        self.shed = shed


class GuardDivergenceError(SpireError):
    """Raised when a guarded kernel diverges from its scalar oracle and the
    guard policy is ``raise`` (the default policy degrades instead)."""


class DegradedDataWarning(UserWarning):
    """Emitted when the pipeline continues on incomplete or quarantined data.

    Raised as a *warning*, never an exception: the pipeline degrades
    gracefully (skipped workloads, quarantined samples, dropped metrics)
    and uses this category to make the degradation visible and
    filterable.
    """
