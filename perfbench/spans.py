"""In-memory spans around the program's layer boundaries, and self time.

The tracer wraps public functions of the program from outside: nothing
under ``src/`` knows it is being timed.  Each call into a boundary opens
a span (layer, parent, start, end) whose parent is the innermost open
span of the same task, held in a :mod:`contextvars` variable so that
concurrent asyncio requests nest independently.  A task that inherited
its context from another task (the micro-batcher's lane, created inside
the first request that used it) gets detached spans; the boundary hooks
link them to every request they served, so a batch evaluated once for
two requests counts once in each request's time.

A layer's self time is its span's duration minus the union of its
children's intervals, so overlapping children are never counted twice.
"""

from __future__ import annotations

import asyncio
import contextvars
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

OP = "op"


@dataclass
class Span:
    id: int
    layer: str
    parent: "int | None"
    start: int
    end: int = 0
    task: "int | None" = None
    root: bool = False

    def row(self) -> list:
        return [self.id, self.layer, self.parent, self.start, self.end,
                int(self.root)]


def _task_id() -> "int | None":
    try:
        task = asyncio.current_task()
    except RuntimeError:
        return None
    return id(task) if task is not None else None


@dataclass
class Tracer:
    """Records spans, links between detached spans and requests, counts."""

    spans: list[Span] = field(default_factory=list)
    links: dict[int, list[int]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def open(self, layer: str, root: bool = False) -> "tuple[Span, object]":
        task = _task_id()
        parent = self._current.get()
        if parent is not None and parent.task != task:
            parent = None  # context inherited from another task
        span = Span(
            id=len(self.spans),
            layer=layer,
            parent=None if parent is None else parent.id,
            start=time.perf_counter_ns(),
            task=task,
            root=root,
        )
        self.spans.append(span)
        return span, self._current.set(span)

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter_ns()
        self._current.reset(token)

    def link(self, owner: Span, detached: Span) -> None:
        """Count ``detached`` (and its subtree) as a child of ``owner``."""
        self.links.setdefault(owner.id, []).append(detached.id)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def op(self):
        """Context manager marking one benchmark operation (a root span)."""
        return _SpanScope(self, OP, root=True)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [span.row() for span in self.spans],
                    "links": {str(k): v for k, v in self.links.items()},
                    "counts": self.counts,
                },
                handle,
            )


class _SpanScope:
    def __init__(self, tracer: Tracer, layer: str, root: bool = False):
        self.tracer, self.layer, self.root = tracer, layer, root

    def __enter__(self) -> Span:
        self.span, self.token = self.tracer.open(self.layer, self.root)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.span, self.token)


def load(path) -> "tuple[list[Span], dict[int, list[int]], dict[str, float]]":
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    spans = [
        Span(id=i, layer=layer, parent=parent, start=start, end=end,
             root=bool(root))
        for i, layer, parent, start, end, root in payload["spans"]
    ]
    links = {int(k): v for k, v in payload["links"].items()}
    return spans, links, payload["counts"]


def _covered(interval: tuple[int, int], children: list[tuple[int, int]]) -> int:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total = 0
    cursor = lo
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def attribute(
    spans: list[Span], links: "dict[int, list[int]] | None" = None
) -> "tuple[dict[str, int], int, int, int]":
    """Self time per layer over every root span's subtree.

    Returns ``(self_ns_by_layer, unattributed_ns, wall_ns, roots)`` where
    ``unattributed_ns`` is the roots' own self time and ``wall_ns`` their
    summed duration.  Linked detached subtrees are walked once per root
    that reaches them, as children of the span that linked them.
    """
    links = links or {}
    by_id = {span.id: span for span in spans}
    children: dict[int, list[int]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span.id)
    for owner, linked in links.items():
        children.setdefault(owner, []).extend(linked)

    layers: dict[str, int] = {}
    unattributed = wall = roots = 0
    for root in (s for s in spans if s.root):
        roots += 1
        wall += root.end - root.start
        stack = [root.id]
        while stack:
            span = by_id[stack.pop()]
            kids = children.get(span.id, [])
            own = (span.end - span.start) - _covered(
                (span.start, span.end),
                [(by_id[k].start, by_id[k].end) for k in kids],
            )
            if span.id == root.id:
                unattributed += own
            else:
                layers[span.layer] = layers.get(span.layer, 0) + own
            stack.extend(kids)
    return layers, unattributed, wall, roots


# ---------------------------------------------------------------------------
# Layer boundaries
# ---------------------------------------------------------------------------

#: layer -> public functions timed as that layer ("module:qualname").
#: A boundary missing from the program (renamed or deleted) is skipped
#: and reported, so the benchmark keeps running across refactors.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "pipeline": ("repro.pipeline:run_experiment_with_report",),
    "runtime": ("repro.runtime.runner:ParallelRunner.run_with_report",),
    "runtime.fused": ("repro.runtime.fused:simulate_tasks_fused",),
    "uarch": (
        "repro.uarch.core:CoreModel.simulate_run",
        "repro.uarch.batch:evaluate_run_columns",
    ),
    "counters.collect": ("repro.counters.collector:SampleCollector.collect",),
    "counters.parse": (
        "repro.counters.perf_parser:PerfStatParser.parse",
        "repro.counters.perf_parser:parse_perf_lines",
    ),
    "tma": (
        "repro.tma.topdown:TopDownAnalyzer.analyze",
        "repro.tma.drilldown:drilldown",
    ),
    "core.sanitize": (
        "repro.core.sanitize:SampleSanitizer.sanitize",
        "repro.core.sanitize:SampleSanitizer.sanitize_array",
        "repro.core.sanitize:TimestampScreen.screen",
    ),
    "core.columns": (
        "repro.core.columns:SampleArray.from_lists",
        "repro.core.columns:SampleArray.from_records",
    ),
    "core.train": ("repro.core.ensemble:SpireModel.train",),
    "core.fit": ("repro.core.roofline:fit_metric_roofline_arrays",),
    "geometry": (
        "repro.geometry.pareto:pareto_front_arrays",
        "repro.geometry.hull:upper_concave_chain_arrays",
    ),
    "core.analyze": ("repro.core.ensemble:SpireModel.analyze",),
    "core.estimate": (
        "repro.core.ensemble:SpireModel.estimate",
        "repro.core.roofline:MetricRoofline.estimate_batch",
    ),
    "trace.sampling": ("repro.trace.sampling:collect_trace_samples",),
    "trace.gen": (
        "repro.trace.kernels:make_kernel_trace_array",
        "repro.trace.kernels:stream_array",
        "repro.trace.kernels:pointer_chase_array",
        "repro.trace.kernels:branchy_array",
        "repro.trace.kernels:compute_array",
        "repro.trace.kernels:divider_array",
        "repro.trace.kernels:codebloat_array",
        "repro.trace.kernels:mixed_array",
    ),
    "trace.cache": ("repro.trace.cache:CacheHierarchy.access_batch",),
    "trace.branch": ("repro.trace.branch:GsharePredictor.update_batch",),
    "trace.wavefront": ("repro.trace.wavefront:run_span",),
    "trace.pipeline": (
        "repro.trace.pipeline:TracePipeline.execute_array_windowed",
        "repro.trace.pipeline:TracePipeline.execute_array",
    ),
    "serve.request": ("repro.serve.server:SpireServer._dispatch",),
    "serve.batching": ("repro.serve.batching:MicroBatcher.submit",),
    "serve.batching.eval": ("repro.serve.batching:batch_estimate",),
    "serve.registry": ("repro.serve.registry:ModelRegistry.get",),
    "stream.ingest": ("repro.stream.ingest:StreamIngestor.push_perf",),
    "stream.drift": ("repro.stream.drift:DriftMonitor.assess",),
    "stream.refit": (
        "repro.stream.incremental:OnlineSpire.insert",
        "repro.stream.incremental:OnlineSpire.insert_array",
        "repro.stream.incremental:OnlineSpire.refresh",
    ),
}

#: Per-op self-time metric name of each layer.
LAYER_METRICS = {
    layer: f"{layer}.self_ms"
    for layer in BOUNDARIES
    if layer not in ("serve.request", "serve.batching",
                     "serve.batching.eval", "serve.registry")
}
LAYER_METRICS.update({
    "serve.batching": "serve.batching.wait_ms",
    "serve.batching.eval": "serve.batching.eval_ms",
    "serve.registry": "serve.registry.get_ms",
})


def _hooks(tracer: Tracer) -> "dict[str, Callable]":
    """Per-target callbacks ``(span, args, kwargs, result)`` for counters
    and for linking the batcher's detached spans to their requests."""
    owners: dict[int, Span] = {}  # id(request array) -> its submit span

    def runner(span, args, kwargs, result):
        runner_obj, plan = args[0], args[1]
        _, report = result
        tracer.counts["runtime.jobs"] = float(getattr(runner_obj, "jobs", 0))
        tracer.count("runtime.worker_ms", 1e3 * sum(
            attempt.duration for attempt in report.attempts))
        tracer.count("uarch.windows", float(sum(
            task.n_windows for task in plan.tasks)))

    def sanitized(span, args, kwargs, result):
        tracer.count("core.sanitize.quarantined",
                     float(len(result[1].quarantined)))

    def submit_before(span, args, kwargs):
        array = args[2] if len(args) > 2 else kwargs.get("array")
        owners[id(array)] = span

    def submit_after(span, args, kwargs, result):
        array = args[2] if len(args) > 2 else kwargs.get("array")
        owners.pop(id(array), None)

    pending_gets: dict["int | None", Span] = {}

    def registry_get(span, args, kwargs, result):
        if span.parent is None:
            # Resolved by a batching lane: charged to the batch that follows.
            pending_gets[span.task] = span

    def batch(span, args, kwargs, result):
        arrays = args[1] if len(args) > 1 else kwargs.get("arrays", ())
        tracer.count("serve.batching.calls")
        tracer.count("serve.batching.requests", float(len(arrays)))
        if span.parent is not None:
            return
        get = pending_gets.pop(span.task, None)
        for array in arrays:
            owner = owners.get(id(array))
            if owner is not None:
                tracer.link(owner, span)
                if get is not None:
                    tracer.link(owner, get)

    return {
        "repro.runtime.runner:ParallelRunner.run_with_report": runner,
        "repro.core.sanitize:SampleSanitizer.sanitize": sanitized,
        "repro.core.sanitize:SampleSanitizer.sanitize_array": sanitized,
        "repro.serve.batching:MicroBatcher.submit": (submit_before,
                                                     submit_after),
        "repro.serve.registry:ModelRegistry.get": registry_get,
        "repro.serve.batching:batch_estimate": batch,
    }


def _guarded(tracer: Tracer, hook):
    """A hook that cannot fail the call it observes: hooks read program
    internals that a refactor may change, so a failure is only counted."""
    if hook is None:
        return None

    def call(*args):
        try:
            hook(*args)
        except Exception:
            tracer.count("hook_errors")

    return call


def _wrap(tracer: Tracer, fn: Callable, layer: str, hook):
    before, after = (hook if isinstance(hook, tuple) else (None, hook))
    before, after = _guarded(tracer, before), _guarded(tracer, after)
    if inspect.iscoroutinefunction(fn):
        async def traced_async(*args, **kwargs):
            span, token = tracer.open(layer)
            if before is not None:
                before(span, args, kwargs)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        traced_async.__wrapped__ = fn
        return traced_async

    def traced(*args, **kwargs):
        span, token = tracer.open(layer)
        if before is not None:
            before(span, args, kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span, token)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_dispatch(tracer: Tracer, fn: Callable, layer: str):
    """The server's request entry: a root span per ``/v1/`` request."""

    async def traced(self, request):
        if not request.path.startswith("/v1/"):
            return await fn(self, request)
        span, token = tracer.open(layer, root=True)
        try:
            return await fn(self, request)
        finally:
            tracer.close(span, token)

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every boundary; returns those missing from this version of
    the program."""
    hooks = _hooks(tracer)
    missing: list[str] = []
    replaced: dict[int, tuple[Callable, Callable]] = {}
    for layer, targets in BOUNDARIES.items():
        for target in targets:
            module_name, qualname = target.split(":")
            try:
                module = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                owner = module
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if target == "repro.serve.server:SpireServer._dispatch":
                wrapped = _wrap_dispatch(tracer, fn, layer)
            else:
                wrapped = _wrap(tracer, fn, layer, hooks.get(target))
            setattr(owner, attr, kind(wrapped) if kind else wrapped)
            if owner is module:
                replaced[id(fn)] = (fn, wrapped)
    _rebind(replaced)
    return missing


def _rebind(replaced: "dict[int, tuple[Callable, Callable]]") -> None:
    """Point ``from x import f`` copies (and dispatch tables) at wrappers."""

    def swap(value):
        original, wrapped = replaced.get(id(value), (None, None))
        return wrapped if original is value else None

    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if swap(value) is not None:
                setattr(module, attr, swap(value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if swap(item) is not None:
                        value[key] = swap(item)
