"""Micro-batching: fuse concurrent requests into one evaluation.

A SPIRE server spends most of a small request's budget on fixed per-call
overhead: the per-request path runs one ``group_indices`` argsort plus
one ``estimate_batch`` and one ``time_weighted_mean`` *per metric* —
dozens of tiny NumPy calls for a typical 60-metric request.
:func:`batch_estimate` pays a fixed number of NumPy calls per *batch*
instead: :func:`~repro.core.ensemble.fused_estimate` concatenates the
requests' :class:`SampleArray` columns, evaluates every row against the
model's packed rooflines in one vectorized pass and reduces each
``(request, metric)`` segment left to right, so every request's result
is bit-identical to what :meth:`SpireModel.estimate
<repro.core.ensemble.SpireModel.estimate>` gives it alone
(``fused_estimate`` spells out why).

Dispatch runs through the ``serve.batch_estimate`` kernel guard: sampled
calls replay every request in the batch through the retained scalar
per-request path and compare to tolerance; a divergence trips the server
to that scalar per-request oracle for the rest of the process.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Sequence

from repro.core.columns import SampleArray
from repro.core.ensemble import (
    EnsembleEstimate,
    SpireModel,
    finish_estimate,
    fused_estimate,
)
from repro.errors import EstimationError, ServeOverloadError
from repro.fastpath import force_scalar
from repro.guard.dispatch import approx_equal, kernel_guard

__all__ = ["KERNEL", "MicroBatcher", "batch_estimate", "fused_estimate"]

KERNEL = "serve.batch_estimate"

#: Most requests one model may have pending; the next is answered 429.
QUEUE_LIMIT = 256

_EMPTY = "cannot estimate from an empty sample set"


def _finalize(
    tuples: "list[tuple | EstimationError]",
) -> "list[EnsembleEstimate | EstimationError]":
    """Per-request EnsembleEstimate construction, or its error."""
    out: "list[EnsembleEstimate | EstimationError]" = []
    for item in tuples:
        if isinstance(item, EstimationError):
            out.append(item)
            continue
        try:
            out.append(finish_estimate(*item))
        except EstimationError as exc:
            out.append(exc)
    return out


def _per_request(
    model: SpireModel, array: SampleArray
) -> "EnsembleEstimate | EstimationError":
    """The oracle the guard checks against: one request, scalar path."""
    try:
        with force_scalar():
            return model.estimate(array.to_sample_set())
    except EstimationError as exc:
        return exc


def batch_estimate(
    model: SpireModel, arrays: Sequence[SampleArray]
) -> "list[EnsembleEstimate | EstimationError]":
    """Evaluate many requests through one fused pass, guarded.

    Per-request failures (empty request, no covered metric) come back as
    :class:`EstimationError` entries instead of raising, so one bad
    request never fails its batch-mates.  The sampled oracle replays
    every request through the scalar per-request path under
    :func:`~repro.fastpath.force_scalar`; the tripped (or forced-scalar)
    state serves each request through that same oracle.
    """
    if not arrays:
        return []
    guard = kernel_guard(KERNEL)
    if not guard.use_fast():
        return [_per_request(model, array) for array in arrays]

    empty = [index for index, array in enumerate(arrays) if not len(array)]
    dense = [array for array in arrays if len(array)]

    def assemble(tuples: "list[tuple]"):
        merged: "list[tuple | EstimationError]" = []
        cursor = iter(tuples)
        for index in range(len(arrays)):
            if index in empty_set:
                merged.append(EstimationError(_EMPTY))
            else:
                merged.append(next(cursor))
        return _finalize(merged)

    empty_set = set(empty)
    if not guard.should_check():
        return assemble(fused_estimate(model, dense) if dense else [])

    fast = fused_estimate(model, dense) if dense else []
    with force_scalar():
        expected = [
            model._estimate_scalar(array.to_sample_set(), False)
            for array in dense
        ]
    try:
        ok = bool(approx_equal(fast, expected))
    except Exception:  # a comparison crash is itself a divergence
        ok = False
    if guard.resolve(ok, detail=f"{len(dense)} fused request(s)"):
        return assemble(fast)
    return assemble(expected)


class MicroBatcher:
    """Request coalescing with one scheduled flush per burst.

    A request appends its :class:`SampleArray` to its model's pending
    list and awaits a future.  The first request of a burst schedules
    one flush with ``loop.call_soon``, so every handler the event loop
    runs before that callback joins it.  The flush evaluates each
    model's pending requests with one :func:`batch_estimate` call and
    resolves their futures; the requests that arrive while one flush is
    evaluated form the next.  A batch costs a fixed number of NumPy
    calls however many metrics its requests cover, so it needs no
    company to be cheap.

    An evaluation that raises (a guard divergence under the ``raise``
    policy, or a bug) fails only its model's requests with that
    exception; the next burst schedules a new flush.

    Backpressure: a model with :data:`QUEUE_LIMIT` requests pending
    refuses the newcomer with :class:`ServeOverloadError` (the HTTP 429
    path).
    """

    def __init__(self, resolve: "Callable[[str], SpireModel]", stats=None):
        self._resolve = resolve
        self.stats = stats
        # model name -> [(request array, its future)] in arrival order
        self._pending: "dict[str, list[tuple]]" = {}
        self._scheduled = False
        self._closed = False

    def queue_depths(self) -> "dict[str, int]":
        return {name: len(queue) for name, queue in self._pending.items()}

    async def submit(self, model_name: str, array: SampleArray):
        """Join the next flush; returns the :class:`EnsembleEstimate`.

        Raises :class:`EstimationError` for per-request failures and
        :class:`ServeOverloadError` under backpressure or shutdown.
        """
        if self._closed:
            raise ServeOverloadError("server is shutting down", shed=True)
        queue = self._pending.setdefault(model_name, [])
        if len(queue) >= QUEUE_LIMIT:
            if self.stats is not None:
                self.stats.note_rejected()
            raise ServeOverloadError(
                f"queue for model {model_name!r} is full "
                f"({QUEUE_LIMIT} pending)"
            )
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        queue.append((array, future))
        if not self._scheduled:
            self._scheduled = True
            loop.call_soon(self._flush)
        return await future

    def _flush(self) -> None:
        self._scheduled = False
        pending, self._pending = self._pending, {}
        for name, queue in pending.items():
            if self.stats is not None:
                self.stats.note_batch(len(queue))
            try:
                results = batch_estimate(
                    self._resolve(name), [array for array, _ in queue]
                )
            except Exception as exc:
                results = [exc] * len(queue)
            for (_, future), result in zip(queue, results):
                if future.done():
                    continue  # the client went away before the flush
                if isinstance(result, Exception):
                    future.set_exception(result)
                else:
                    future.set_result(result)

    def drain(self) -> int:
        """Evaluate every pending request now and refuse later ones.

        The graceful half of shutdown: new submissions are refused with
        ``503``, and everything pending is evaluated and answered.
        Returns the number of requests flushed this way.
        """
        self._closed = True
        flushed = sum(len(queue) for queue in self._pending.values())
        self._flush()
        return flushed

    def close(self) -> None:
        """Fail every pending request with ``503`` and refuse later ones.

        The hard half of shutdown: a pending request gets an immediate
        ``ServeOverloadError`` with ``shed=True`` instead of hanging on
        a keep-alive connection that will never answer.
        """
        self._closed = True
        pending, self._pending = self._pending, {}
        for queue in pending.values():
            for _, future in queue:
                if not future.done():
                    future.set_exception(
                        ServeOverloadError(
                            "server is shutting down", shed=True
                        )
                    )
