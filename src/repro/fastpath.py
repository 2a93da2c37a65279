"""Dispatch control for the vectorized hot path.

Each computation has one fast path and one scalar reference oracle, and
chooses between them once, at its entry point.  Setting
``SPIRE_SCALAR_FALLBACK=1`` in the environment sends every computation
down its oracle all the way: nothing below an entry point reads the
switch.  The flag is read at call time so a single process can compare
both paths.  The entry points are:

- training and estimation: ``SpireModel.train`` and
  ``SpireModel.estimate``, ``packed_estimate`` and
  ``mean_absolute_bound_violation`` (:mod:`repro.core.ensemble`);
- one roofline fit: ``fit_metric_roofline``;
- samples in: ``SampleSanitizer.sanitize``, ``SampleSet.from_records``
  and ``PerfStatParser.parse``;
- simulation: ``collect_trace_samples`` (the trace substrate),
  ``ParallelRunner._run_fused`` (the fused experiment engine, whose
  oracle is the per-workload ``run_workload``) and
  ``run_experiment_with_report`` (pooling the training samples);
- streaming: ``StreamIngestor.push_perf`` and ``StreamIngestor.flush``,
  ``DriftMonitor.assess`` and ``OnlineSpire.refresh`` (a stream refit);
- serving: ``KernelGuard.use_fast``, the dispatch of
  ``serve.batch_estimate``.

A kernel called directly runs what it is: an ``*_arrays`` function its
fast path, its scalar twin (``upper_concave_chain``, ``pareto_front``,
``detect_direction``, ``fit_metric_roofline_scalar``) the reference.

:func:`force_scalar` is the in-process equivalent, scoped to the current
thread: ``serve.batch_estimate``'s runtime guard (:mod:`repro.guard`)
wraps its oracle replay in it, and tests use it to compare both paths.
Only ``serve.batch_estimate``, whose inputs arrive over HTTP, also
samples oracle checks at run time.
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

