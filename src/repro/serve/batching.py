"""Micro-batching: fuse concurrent requests into one evaluation.

A SPIRE server spends most of a small request's budget on fixed per-call
overhead: the per-request path runs one ``group_indices`` argsort plus
one ``estimate_batch`` and one ``time_weighted_mean`` *per metric* —
dozens of tiny NumPy calls for a typical 60-metric request.
:func:`batch_estimate` pays a fixed number of NumPy calls per *batch*
instead: it concatenates the requests' :class:`SampleArray` columns,
sorts the fused rows once by ``(metric, request)``, evaluates every row
against the model's packed rooflines
(:meth:`SpireModel.packed_rooflines
<repro.core.ensemble.SpireModel.packed_rooflines>`) in one vectorized
pass, and reduces each ``(request, metric)`` segment with a positional
wavefront.

Bit-identity contract
---------------------
The scattered per-request results are bit-identical to what each request
would get from :meth:`SpireModel.estimate
<repro.core.ensemble.SpireModel.estimate>` alone:

- roofline evaluation is elementwise, and the packed table applies the
  same rules and float expressions as ``PiecewiseLinear.evaluate_array``,
  so batching rows across requests and metrics cannot change any row's
  estimate;
- the stable ``(metric, request)`` lexsort preserves original row order
  inside every segment, matching ``group_indices``'s ascending rows;
- Eq. 1's sums accumulate **left to right** (``np.cumsum``, not
  ``np.sum``'s pairwise tree), and ``np.add.reduceat`` does *not*
  reproduce that order.  The positional wavefront does: iteration ``k``
  adds every segment's ``k``-th row into its accumulator, vectorized
  across segments but strictly sequential within each, so every segment
  reduces exactly as its own ``np.cumsum`` would.

Dispatch runs through the ``serve.batch_estimate`` kernel guard: sampled
calls replay every request in the batch through the retained scalar
per-request path and compare to tolerance; a divergence trips the server
back to per-request evaluation for the rest of the process.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Awaitable, Callable, Sequence

import numpy as np

from repro.core.columns import SampleArray
from repro.core.ensemble import EnsembleEstimate, SpireModel
from repro.errors import EstimationError, ServeOverloadError, SpireError
from repro.fastpath import force_scalar
from repro.guard.dispatch import approx_equal, kernel_guard
from repro.guard.guardrails import check_estimates

__all__ = ["KERNEL", "MicroBatcher", "batch_estimate", "fused_estimate"]

KERNEL = "serve.batch_estimate"

#: The tuple shape shared with the per-request estimator internals:
#: ``(per_metric, sample_counts, skipped_metrics)``.
_EstimateTuple = tuple

_NO_COVERAGE = "none of the sample metrics are covered by this model"
_EMPTY = "cannot estimate from an empty sample set"


def _segment_ordered_sums(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Left-to-right sum of each contiguous segment (positional wavefront).

    Iteration ``k`` folds every segment's ``k``-th element into its
    accumulator: vectorized across segments, sequential within each, so
    the result is bit-identical to ``np.cumsum(segment)[-1]`` per
    segment.  Cost is O(longest segment) vectorized adds instead of one
    Python-level reduction per segment.
    """
    totals = np.zeros(len(starts), dtype=np.float64)
    if not len(starts):
        return totals
    totals[:] = values[starts]  # k = 0: every segment has at least one row
    for k in range(1, int(lengths.max())):
        live = np.flatnonzero(lengths > k)
        if not len(live):  # pragma: no cover - max() guarantees live rows
            break
        totals[live] += values[starts[live] + k]
    return totals


def fused_estimate(
    model: SpireModel, arrays: Sequence[SampleArray]
) -> "list[_EstimateTuple]":
    """One fused evaluation of many requests (the fast kernel).

    Returns one ``(per_metric, sample_counts, skipped_metrics)`` tuple
    per request — the same shape the per-request estimator internals
    produce, with dict/list entries in the request's own first-seen
    metric order.  An all-uncovered request yields an empty
    ``per_metric``; the caller maps that to the per-request error.
    """
    lengths = [len(a) for a in arrays]
    fused = SampleArray.concat(list(arrays))
    request = np.repeat(np.arange(len(arrays)), lengths)

    # Stable sort by (metric, request): rows of one (request, metric)
    # pair stay in original ascending order — exactly the rows (and row
    # order) group_indices() hands the per-request path.
    order = np.lexsort((request, fused.metric_ids))
    sorted_metric = fused.metric_ids[order]
    sorted_request = request[order]
    intensity = fused.intensity[order]
    times = fused.time[order]

    n = len(order)
    changed = np.flatnonzero(
        (np.diff(sorted_metric) != 0) | (np.diff(sorted_request) != 0)
    ) + 1
    seg_starts = np.concatenate(([0], changed))
    seg_lengths = np.diff(np.append(seg_starts, n))
    seg_metric = sorted_metric[seg_starts]
    seg_request = sorted_request[seg_starts]
    # Original fused position of each segment's first row: within one
    # request those positions order its metrics first-seen.
    seg_first_pos = order[seg_starts]

    # One packed roofline evaluation over every covered row at once.
    names = fused.metric_names
    index, table = model.packed_rooflines()
    function = np.asarray(
        [index.get(name, -1) for name in names], dtype=np.int64
    )
    covered = function >= 0
    rows = covered[sorted_metric]
    estimates = np.zeros(n, dtype=np.float64)
    estimates[rows] = table.evaluate(
        function[sorted_metric[rows]], intensity[rows]
    )

    seg_covered = covered[seg_metric]
    live_starts = seg_starts[seg_covered]
    live_lengths = seg_lengths[seg_covered]
    numerators = _segment_ordered_sums(estimates * times, live_starts, live_lengths)
    denominators = _segment_ordered_sums(times, live_starts, live_lengths)
    seg_value = np.zeros(len(seg_starts), dtype=np.float64)
    seg_value[seg_covered] = numerators / denominators

    # Scatter: per request, walk its segments in first-seen metric order.
    scatter = np.lexsort((seg_first_pos, seg_request))
    results: "list[_EstimateTuple]" = [
        ({}, {}, []) for _ in range(len(arrays))
    ]
    values = seg_value.tolist()
    counts_list = seg_lengths.tolist()
    covered_list = seg_covered.tolist()
    for seg in scatter.tolist():
        per_metric, counts, skipped = results[int(seg_request[seg])]
        name = names[int(seg_metric[seg])]
        if covered_list[seg]:
            per_metric[name] = values[seg]
            counts[name] = counts_list[seg]
        else:
            skipped.append(name)
    return results


def _finalize(
    tuples: "list[_EstimateTuple | EstimationError]",
) -> "list[EnsembleEstimate | EstimationError]":
    """Per-request guardrails and EnsembleEstimate construction."""
    out: "list[EnsembleEstimate | EstimationError]" = []
    for item in tuples:
        if isinstance(item, EstimationError):
            out.append(item)
            continue
        per_metric, counts, skipped = item
        if not per_metric:
            out.append(EstimationError(_NO_COVERAGE))
            continue
        check_estimates(per_metric)
        out.append(
            EnsembleEstimate(
                per_metric=per_metric,
                sample_counts=counts,
                skipped_metrics=skipped,
            )
        )
    return out


def _per_request(
    model: SpireModel, array: SampleArray
) -> "EnsembleEstimate | EstimationError":
    """The unfused reference: exactly what a lone request would get."""
    try:
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
    state serves each request through plain per-request estimation.
    """
    if not arrays:
        return []
    guard = kernel_guard(KERNEL)
    if not guard.use_fast():
        return [_per_request(model, array) for array in arrays]

    empty = [index for index, array in enumerate(arrays) if not len(array)]
    dense = [array for array in arrays if len(array)]

    def assemble(tuples: "list[_EstimateTuple]"):
        merged: "list[_EstimateTuple | EstimationError]" = []
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

    A batch whose evaluation raises (a guardrail violation under the
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
