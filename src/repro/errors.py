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

    Carries ``retry_after`` (seconds) so the HTTP layer can answer with
    ``429`` + ``Retry-After``; ``shed`` marks a request that was already
    queued and then evicted by the ``oldest`` load-shed policy or failed
    by a server shutdown (``503``).
    """

    def __init__(
        self, message: str, retry_after: float = 0.05, shed: bool = False
    ):
        super().__init__(message)
        self.retry_after = retry_after
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
