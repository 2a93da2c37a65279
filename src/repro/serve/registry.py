"""Model registry: packed artifacts, mmap zero-copy reloads, LRU residency.

A long-lived server cannot afford the JSON model loader on its hot
reload path: parsing materializes every breakpoint as a Python float and
a :class:`~repro.geometry.piecewise.Breakpoint` before the arrays the
evaluator actually touches are rebuilt from them.  The registry instead
serves models from a packed binary artifact (``<name>.spm``):

- a single JSON *head line* carrying the PR-5-style integrity header
  (``format``/``checksum``/``code_version``) plus per-metric metadata
  and payload offsets, padded so the payload starts 8-byte aligned;
- a flat little-endian float64 payload holding each roofline's
  breakpoint ``x`` then ``y`` arrays back to back.

:func:`map_model` maps the file read-only, hashes the payload bytes
straight out of the mapping (no copy), and builds
:class:`MappedPiecewiseLinear` functions whose evaluation arrays are
NumPy *views* into the mapping — a reload touches no breakpoint objects
and copies no coordinate data.  A checksum or structural mismatch
quarantines the artifact (:func:`~repro.guard.artifact.quarantine_file`)
and raises, so a corrupt model can never be served.

:class:`ModelRegistry` keeps the ``capacity`` most recently used models
resident (per-model LRU) and exposes the counters ``spire doctor``
surfaces through ``serve_state``.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.core.ensemble import SpireModel
from repro.core.roofline import MetricRoofline
from repro.errors import DataError
from repro.geometry.piecewise import Breakpoint, PiecewiseLinear
from repro.guard.artifact import atomic_write_bytes, quarantine_file

__all__ = [
    "MappedPiecewiseLinear",
    "ModelRegistry",
    "PACKED_MODEL_FORMAT",
    "PACKED_MODEL_SUFFIX",
    "map_model",
    "pack_model",
]

PACKED_MODEL_FORMAT = "spire-serve-model/1"
PACKED_MODEL_SUFFIX = ".spm"


class MappedPiecewiseLinear(PiecewiseLinear):
    """A piecewise function whose evaluation arrays view a shared buffer.

    The batch evaluators only ever read ``_evaluation_arrays()``; this
    subclass seeds that cache directly from zero-copy payload views and
    skips the breakpoint-object construction entirely.  The object
    representation (``_points``/``_xs``) materializes lazily on first
    scalar evaluation or ``breakpoints`` access — the packed serving
    path never gets there, and per-request estimation only through a
    roofline's flat infinite tail.
    """

    def __init__(self, bx: np.ndarray, by: np.ndarray):
        # Deliberately no super().__init__: bx/by stay views, and the
        # run-minimum array is the only allocation (same construction as
        # PiecewiseLinear._evaluation_arrays).
        starts = np.empty(len(bx), dtype=bool)
        starts[0] = True
        starts[1:] = bx[1:] != bx[:-1]
        start_indices = np.flatnonzero(starts)
        run_mins = np.minimum.reduceat(by, start_indices)
        counts = np.diff(np.append(start_indices, len(bx)))
        run_min_y = np.repeat(run_mins, counts)
        self._arrays = (bx, by, run_min_y)

    def __getattr__(self, name: str):
        if name in ("_points", "_xs"):
            bx, by, _ = self._arrays
            points = [
                Breakpoint(x, y) for x, y in zip(bx.tolist(), by.tolist())
            ]
            self.__dict__["_points"] = points
            self.__dict__["_xs"] = [p.x for p in points]
            return self.__dict__[name]
        raise AttributeError(name)

    @property
    def tail_y(self) -> float:
        """The flat-tail level without materializing breakpoints."""
        return float(self._arrays[1][-1])


def _payload_checksum(view) -> str:
    return "sha256:" + hashlib.sha256(view).hexdigest()


def pack_model(model: SpireModel, path: "str | Path") -> Path:
    """Serialize ``model`` into the packed ``.spm`` format, atomically."""
    from repro import __version__

    chunks: "list[np.ndarray]" = []
    metrics = []
    offset = 0
    for metric in model.metrics:
        roofline = model.roofline(metric)
        points = roofline.function.breakpoints
        bx = np.asarray([p.x for p in points], dtype="<f8")
        by = np.asarray([p.y for p in points], dtype="<f8")
        chunks.extend((bx, by))
        metrics.append(
            {
                "metric": metric,
                "apex": [roofline.apex.x, roofline.apex.y],
                "sample_count": roofline.sample_count,
                "infinite_sample_count": roofline.infinite_sample_count,
                "direction": roofline.direction,
                "offset": offset,
                "points": len(points),
            }
        )
        offset += 2 * len(points)

    payload = b"".join(chunk.tobytes() for chunk in chunks)
    head = {
        "header": {
            "format": PACKED_MODEL_FORMAT,
            "checksum": _payload_checksum(payload),
            "code_version": __version__,
        },
        "model": {
            "work_unit": model.work_unit,
            "time_unit": model.time_unit,
            "metrics": metrics,
        },
        "payload_float64": offset,
    }
    head_bytes = json.dumps(head, separators=(",", ":")).encode("utf-8")
    # Pad the head line so the payload lands 8-byte aligned: aligned
    # views are a hard requirement for float64 frombuffer on some
    # platforms and free everywhere else.
    padding = -(len(head_bytes) + 1) % 8
    blob = head_bytes + b" " * padding + b"\n" + payload
    return atomic_write_bytes(path, blob)


#: What converting an untrusted head field can raise: a missing key, a
#: wrong type, an unparseable string, or an infinite float cast to int.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _reject(path: Path, reason: str) -> "DataError":
    destination = quarantine_file(path, reason)
    suffix = f" (quarantined to {destination})" if destination else ""
    return DataError(f"{path}: {reason}{suffix}")


def map_model(path: "str | Path") -> "tuple[SpireModel, mmap.mmap]":
    """Map a packed model read-only; verify integrity on the raw bytes.

    Returns ``(model, mapping)`` — the caller owns the mapping and must
    keep it referenced for the model's lifetime (the rooflines' arrays
    view it).  Any verification failure quarantines the artifact and
    raises :class:`~repro.errors.DataError`.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: cannot map packed model: {exc}") from None

    try:
        newline = mapping.find(b"\n")
        if newline < 0:
            raise _reject(path, "missing packed-model head line")
        try:
            head = json.loads(mapping[:newline].decode("utf-8"))
        except (ValueError, RecursionError):
            raise _reject(path, "unparseable packed-model head") from None
        if not isinstance(head, dict):
            raise _reject(path, "packed-model head is not an object")
        header = head.get("header")
        if not isinstance(header, dict):
            raise _reject(path, "missing artifact header")
        found = header.get("format")
        if found != PACKED_MODEL_FORMAT:
            raise _reject(
                path,
                f"schema mismatch: expected {PACKED_MODEL_FORMAT!r}, "
                f"found {found!r}",
            )

        payload_offset = newline + 1
        payload = memoryview(mapping)[payload_offset:]
        if header.get("checksum") != _payload_checksum(payload):
            raise _reject(
                path, "checksum mismatch (truncated or corrupted content)"
            )

        # The checksum covers only the payload, so every head field is
        # untrusted: each conversion stays inside a guarded block.
        try:
            meta = head["model"]
            count = int(head["payload_float64"])
            work_unit = str(meta["work_unit"])
            time_unit = str(meta["time_unit"])
            entries = meta["metrics"]
            if not isinstance(entries, list):
                raise TypeError("metrics is not a list")
        except _MALFORMED:
            raise _reject(path, "malformed packed-model metadata") from None
        if count * 8 != len(payload):
            raise _reject(
                path,
                f"payload size mismatch: head declares {count} float64s, "
                f"file holds {len(payload) // 8}",
            )

        rooflines: "dict[str, MetricRoofline]" = {}
        for entry in entries:
            try:
                metric = str(entry["metric"])
                offset = int(entry["offset"])
                points = int(entry["points"])
                apex_x, apex_y = entry["apex"]
                apex = Breakpoint(float(apex_x), float(apex_y))
                sample_count = int(entry.get("sample_count", 0))
                infinite_sample_count = int(
                    entry.get("infinite_sample_count", 0)
                )
                direction = str(entry.get("direction", "mixed"))
            except _MALFORMED:
                raise _reject(path, "malformed packed-metric entry") from None
            if points < 1:
                raise _reject(path, f"metric {metric!r} has no breakpoints")
            if offset < 0 or offset + 2 * points > count:
                raise _reject(
                    path, f"metric {metric!r} offsets exceed the payload"
                )
            # Zero-copy views into the mapping: the arrays share the
            # mapped pages, nothing is materialized per breakpoint.
            bx = np.frombuffer(
                mapping, dtype="<f8", count=points,
                offset=payload_offset + 8 * offset,
            )
            by = np.frombuffer(
                mapping, dtype="<f8", count=points,
                offset=payload_offset + 8 * (offset + points),
            )
            # NaN passes the sort check below and the payload checksum;
            # packed evaluation needs sorted, finite breakpoints.
            if not (np.isfinite(bx).all() and np.isfinite(by).all()):
                raise _reject(
                    path, f"metric {metric!r} has non-finite breakpoints"
                )
            if points > 1 and bool((np.diff(bx) < 0).any()):
                raise _reject(
                    path, f"metric {metric!r} breakpoints are not sorted"
                )
            rooflines[metric] = MetricRoofline(
                metric=metric,
                function=MappedPiecewiseLinear(bx, by),
                apex=apex,
                sample_count=sample_count,
                infinite_sample_count=infinite_sample_count,
                direction=direction,
            )
    except BaseException:
        _release(mapping)
        raise
    return (
        SpireModel(rooflines, work_unit=work_unit, time_unit=time_unit),
        mapping,
    )


def _release(mapping: mmap.mmap) -> None:
    """Close a mapping, tolerating live exported views.

    NumPy arrays still referencing the buffer make ``close()`` raise
    ``BufferError``; in that case the mapping simply stays alive until
    the arrays are collected — dropping the reference is enough.
    """
    try:
        mapping.close()
    except BufferError:
        pass


class _Resident:
    __slots__ = ("model", "mapping")

    def __init__(self, model: SpireModel, mapping: mmap.mmap):
        self.model = model
        self.mapping = mapping


class ModelRegistry:
    """Per-model LRU over the packed artifact store.

    Cold loads are *single-flight*: when two callers race on the same
    unmapped model, one pays the sha256 verify + mmap and the other
    waits on it (counted as ``single_flight_waits`` and, when a
    :class:`~repro.serve.stats.ServeStats` is attached, as
    ``lock_contention``) instead of duplicating the work.
    """

    def __init__(self, store_dir: "str | Path", capacity: int = 4, stats=None):
        if capacity < 1:
            raise DataError("registry capacity must be at least 1")
        self.store_dir = Path(store_dir)
        self.capacity = capacity
        self.stats = stats
        self._resident: "OrderedDict[str, _Resident]" = OrderedDict()
        self._lock = threading.Lock()
        self._load_locks: "dict[str, threading.Lock]" = {}
        self.hits = 0
        self.misses = 0
        self.loads = 0
        self.evictions = 0
        self.verify_failures = 0
        self.single_flight_waits = 0

    def path_for(self, name: str) -> Path:
        if not name or "/" in name or "\\" in name or name.startswith("."):
            raise DataError(f"invalid model name {name!r}")
        return self.store_dir / f"{name}{PACKED_MODEL_SUFFIX}"

    def install(self, name: str, model: SpireModel) -> Path:
        """Pack ``model`` into the store; a resident copy is invalidated."""
        path = pack_model(model, self.path_for(name))
        with self._lock:
            stale = self._resident.pop(name, None)
        if stale is not None:
            _release(stale.mapping)
        return path

    def names(self) -> "list[str]":
        """Models available: resident plus packed on disk, sorted."""
        with self._lock:
            found = set(self._resident)
        if self.store_dir.is_dir():
            for entry in self.store_dir.glob(f"*{PACKED_MODEL_SUFFIX}"):
                found.add(entry.stem)
        return sorted(found)

    def has(self, name: str) -> bool:
        with self._lock:
            if name in self._resident:
                return True
        return self.path_for(name).is_file()

    def _evict_over_capacity_locked(self) -> "list[_Resident]":
        evicted: "list[_Resident]" = []
        while len(self._resident) > self.capacity:
            _, resident = self._resident.popitem(last=False)
            evicted.append(resident)
            self.evictions += 1
        return evicted

    def get(self, name: str) -> SpireModel:
        """The resident model, mapping it in (and evicting) as needed."""
        with self._lock:
            resident = self._resident.get(name)
            if resident is not None:
                self._resident.move_to_end(name)
                self.hits += 1
                return resident.model
            self.misses += 1
            load_lock = self._load_locks.setdefault(name, threading.Lock())
        contended = not load_lock.acquire(blocking=False)
        if contended:
            with self._lock:
                self.single_flight_waits += 1
            if self.stats is not None:
                self.stats.note_lock_contention()
            load_lock.acquire()
        try:
            # The winner may have mapped the model while we waited.
            with self._lock:
                resident = self._resident.get(name)
                if resident is not None:
                    self._resident.move_to_end(name)
                    self.hits += 1
                    return resident.model
            path = self.path_for(name)
            if not path.is_file():
                raise DataError(
                    f"no packed model named {name!r} in {self.store_dir}"
                )
            try:
                model, mapping = map_model(path)
            except DataError:
                with self._lock:
                    self.verify_failures += 1
                raise
            with self._lock:
                self.loads += 1
                self._resident[name] = _Resident(model, mapping)
                evict = self._evict_over_capacity_locked()
            for resident in evict:
                _release(resident.mapping)
            return model
        finally:
            load_lock.release()

    def evict(self, name: str) -> bool:
        with self._lock:
            resident = self._resident.pop(name, None)
            if resident is None:
                return False
            self.evictions += 1
        _release(resident.mapping)
        return True

    def close(self) -> None:
        with self._lock:
            residents = list(self._resident.values())
            self._resident.clear()
        for resident in residents:
            _release(resident.mapping)

    def snapshot(self) -> dict:
        """Counters for ``serve_state`` (see :mod:`repro.serve.stats`)."""
        with self._lock:
            return {
                "occupancy": len(self._resident),
                "capacity": self.capacity,
                "resident": list(self._resident),
                "hits": self.hits,
                "misses": self.misses,
                "loads": self.loads,
                "evictions": self.evictions,
                "verify_failures": self.verify_failures,
                "single_flight_waits": self.single_flight_waits,
            }
