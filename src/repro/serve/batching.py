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
from collections import deque
from typing import Callable, Sequence

from repro.core.columns import SampleArray
from repro.core.ensemble import (
    EnsembleEstimate,
    SpireModel,
    finish_estimate,
    fused_estimate,
)
from repro.errors import EstimationError, ServeOverloadError, SpireError
from repro.fastpath import force_scalar
from repro.guard.dispatch import approx_equal, kernel_guard

__all__ = ["KERNEL", "MicroBatcher", "batch_estimate", "fused_estimate"]

KERNEL = "serve.batch_estimate"

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
    """Request coalescing that dispatches whenever its lane is idle.

    A request enqueues its :class:`SampleArray` on its model's lane and
    awaits a future.  The lane's runner coroutine evaluates whatever is
    queued, up to ``max_batch`` requests, as soon as it runs — there is
    no deadline to wait out.  Evaluation runs on the event loop, so the
    requests that arrive while one batch is evaluated form the next.
    A batch costs a fixed number of NumPy calls however many metrics
    its requests cover, so it needs no company to be cheap.

    A batch whose evaluation raises (a guard divergence under the
    ``raise`` policy, or a bug) fails each of its requests with that
    exception; the lane keeps serving.

    Backpressure: a lane whose queue holds ``queue_limit`` requests
    either rejects the newcomer (``load_shed="reject"``, the HTTP 429
    path) or evicts its oldest queued request (``load_shed="oldest"``,
    favoring fresh arrivals when clients time out and retry anyway).
    """

    def __init__(
        self,
        resolve: "Callable[[str], SpireModel]",
        max_batch: int = 64,
        queue_limit: int = 256,
        load_shed: str = "reject",
        retry_after: float = 0.05,
        stats=None,
    ):
        if max_batch < 1:
            raise SpireError("max_batch must be at least 1")
        if queue_limit < 1:
            raise SpireError("queue_limit must be at least 1")
        if load_shed not in ("reject", "oldest"):
            raise SpireError(
                f"load_shed must be reject|oldest, got {load_shed!r}"
            )
        self._resolve = resolve
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.load_shed = load_shed
        self.retry_after = retry_after
        self.stats = stats
        self._lanes: "dict[str, _Lane]" = {}
        self._closed = False

    # -- introspection -------------------------------------------------

    def queue_depths(self) -> "dict[str, int]":
        return {name: len(lane.queue) for name, lane in self._lanes.items()}

    # -- request path --------------------------------------------------

    async def submit(self, model_name: str, array: SampleArray):
        """Enqueue one request; returns its :class:`EnsembleEstimate`.

        Raises :class:`EstimationError` for per-request failures and
        :class:`ServeOverloadError` under backpressure.
        """
        if self._closed:
            raise ServeOverloadError(
                "server is shutting down",
                retry_after=self.retry_after,
                shed=True,
            )
        lane = self._lanes.get(model_name)
        if lane is None:
            lane = _Lane(model_name)
            self._lanes[model_name] = lane
            lane.task = asyncio.ensure_future(self._run_lane(lane))
        if len(lane.queue) >= self.queue_limit:
            if self.load_shed == "reject":
                if self.stats is not None:
                    self.stats.note_rejected()
                raise ServeOverloadError(
                    f"queue for model {model_name!r} is full "
                    f"({self.queue_limit} pending)",
                    retry_after=self.retry_after,
                )
            victim = lane.queue.popleft()
            if not victim.future.done():
                victim.future.set_exception(
                    ServeOverloadError(
                        "request shed under load (oldest-first policy)",
                        retry_after=self.retry_after,
                        shed=True,
                    )
                )
            if self.stats is not None:
                self.stats.note_shed()
        future = asyncio.get_running_loop().create_future()
        lane.queue.append(_Pending(array, future))
        if self.stats is not None:
            self.stats.note_queue_depth(len(lane.queue))
        lane.event.set()
        return await future

    # -- lane runner ---------------------------------------------------

    async def _run_lane(self, lane: "_Lane") -> None:
        while True:
            if not lane.queue:
                if self._closed:
                    return
                lane.event.clear()
                if lane.queue or self._closed:  # raced with a set()
                    continue
                await lane.event.wait()
                continue
            batch = [
                lane.queue.popleft()
                for _ in range(min(self.max_batch, len(lane.queue)))
            ]
            if self.stats is not None:
                self.stats.note_batch(len(batch))
            try:
                model = self._resolve(lane.name)
                results = batch_estimate(model, [p.array for p in batch])
            except Exception as exc:
                results = [exc] * len(batch)
            for pending, result in zip(batch, results):
                if pending.future.done():
                    continue  # the client went away mid-batch
                if isinstance(result, Exception):
                    pending.future.set_exception(result)
                else:
                    pending.future.set_result(result)

    async def drain(self) -> int:
        """Flush every queued request through evaluation, then shut down.

        The graceful half of shutdown: new submissions are refused
        (``503``) immediately, but everything already queued is
        evaluated — lane runners burn down their queues in full-batch
        passes.  Returns the number of requests flushed this way.
        """
        self._closed = True
        flushed = sum(len(lane.queue) for lane in self._lanes.values())
        for lane in self._lanes.values():
            lane.event.set()
        tasks = [lane.task for lane in self._lanes.values() if lane.task]
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._lanes.clear()
        return flushed

    async def close(self) -> None:
        """Cancel lane runners and fail anything still queued with 503.

        The hard half of shutdown: queued requests get an immediate
        ``ServeOverloadError`` with ``shed=True`` (the HTTP ``503``
        path) instead of hanging on a keep-alive connection that will
        never answer.
        """
        self._closed = True
        for lane in self._lanes.values():
            if lane.task is not None:
                lane.task.cancel()
            while lane.queue:
                pending = lane.queue.popleft()
                if not pending.future.done():
                    pending.future.set_exception(
                        ServeOverloadError(
                            "server is shutting down",
                            retry_after=self.retry_after,
                            shed=True,
                        )
                    )
        tasks = [lane.task for lane in self._lanes.values() if lane.task]
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._lanes.clear()


class _Pending:
    __slots__ = ("array", "future")

    def __init__(self, array, future):
        self.array = array
        self.future = future


class _Lane:
    __slots__ = ("name", "queue", "event", "task")

    def __init__(self, name: str):
        self.name = name
        self.queue: "deque[_Pending]" = deque()
        self.event = asyncio.Event()
        self.task: "asyncio.Task | None" = None
