"""Dispatch control for the vectorized hot path.

Every vectorized kernel (columnar sampling, batch piecewise evaluation,
array-based fitting and estimation) keeps its original scalar
implementation alive as a reference oracle.  Setting
``SPIRE_SCALAR_FALLBACK=1`` in the environment forces every dispatch
point back onto the scalar path — the escape hatch used by the hot-path
benchmark and by anyone bisecting a numerical discrepancy.  The flag is
read at call time so a single process can compare both paths.

:func:`force_scalar` is the in-process equivalent, scoped to the current
thread: ``serve.batch_estimate``'s runtime guard (:mod:`repro.guard`)
wraps its oracle replay in it so that *every* nested dispatch point takes
the scalar reference path while the oracle runs, and tests use it to
compare both paths.

Each vectorized kernel picks its path on this one switch; only
``serve.batch_estimate``, whose inputs arrive over HTTP, also samples
oracle checks at run time.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

__all__ = ["force_scalar", "scalar_fallback_enabled"]

_FALLBACK_OFF = ("", "0", "false", "no", "off")

_local = threading.local()


@contextmanager
def force_scalar():
    """Route every dispatch point on this thread through the scalar path.

    Reentrant; restores the previous state on exit.
    """
    previous = getattr(_local, "forced", False)
    _local.forced = True
    try:
        yield
    finally:
        _local.forced = previous


def scalar_fallback_forced() -> bool:
    """True inside a :func:`force_scalar` block on this thread."""
    return getattr(_local, "forced", False)


def scalar_fallback_enabled() -> bool:
    """True when the scalar reference path is forced.

    Either globally via the ``SPIRE_SCALAR_FALLBACK`` environment variable
    or thread-locally via :func:`force_scalar`.
    """
    if getattr(_local, "forced", False):
        return True
    return (
        os.environ.get("SPIRE_SCALAR_FALLBACK", "").strip().lower()
        not in _FALLBACK_OFF
    )

