"""Columnar micro-op traces — the simulation substrate's data plane.

:class:`~repro.trace.uops.MicroOp` objects are convenient but expensive:
a full-scale trace run materializes hundreds of thousands of frozen
dataclasses just so the pipeline can read four small integers out of
each.  :class:`TraceArray` stores the same dynamic stream column-wise —
one NumPy array per field, with variable-length source tuples packed
into an offsets/values pair — mirroring the
:class:`~repro.core.columns.SampleArray` pattern on the model side.

The kernel generators in :mod:`repro.trace.kernels` emit these arrays
directly (no per-uop allocation) and
:meth:`TracePipeline.execute_array <repro.trace.pipeline.TracePipeline.execute_array>`
consumes them through vectorized predictor/cache kernels.  Conversion to
and from ``MicroOp`` lists is lossless; the object path
(:func:`~repro.trace.sampling.collect_trace_samples` under
``SPIRE_SCALAR_FALLBACK=1``) remains the reference oracle.

Representation
--------------
``kind``
    ``int8`` codes indexing :data:`repro.trace.uops.KINDS`.
``pc`` / ``address``
    ``int64``; ``address`` is ``-1`` for non-memory uops.
``dest`` / ``latency``
    ``int32``; ``dest`` is ``-1`` when the uop writes no register,
    ``latency`` is the functional-unit execution latency (loads carry 0
    — their latency comes from the cache hierarchy).
``src_offsets`` / ``src_values``
    CSR-style packing of the per-uop source-register tuples:
    uop ``i``'s sources are ``src_values[src_offsets[i]:src_offsets[i+1]]``.
``taken``
    branch outcomes (``False`` for non-branches).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.trace.uops import EXEC_LATENCY, KINDS, MicroOp

__all__ = [
    "KIND_CODES",
    "LATENCY_BY_CODE",
    "TraceArray",
]

# Interned kind table: code = position in the canonical KINDS tuple.
KIND_CODES: dict[str, int] = {name: code for code, name in enumerate(KINDS)}
LATENCY_BY_CODE = np.array([EXEC_LATENCY[name] for name in KINDS], dtype=np.int32)

_LOAD = KIND_CODES["load"]
_STORE = KIND_CODES["store"]
_BRANCH = KIND_CODES["branch"]


class TraceArray:
    """Structure-of-arrays storage for a dynamic micro-op stream."""

    __slots__ = (
        "kind",
        "pc",
        "address",
        "dest",
        "latency",
        "taken",
        "src_offsets",
        "src_values",
    )

    def __init__(
        self,
        kind,
        pc,
        address,
        dest,
        taken,
        src_offsets,
        src_values,
        latency=None,
    ):
        self.kind = np.asarray(kind, dtype=np.int8)
        self.pc = np.asarray(pc, dtype=np.int64)
        self.address = np.asarray(address, dtype=np.int64)
        self.dest = np.asarray(dest, dtype=np.int32)
        self.taken = np.asarray(taken, dtype=np.bool_)
        self.src_offsets = np.asarray(src_offsets, dtype=np.int32)
        self.src_values = np.asarray(src_values, dtype=np.int32)
        n = len(self.kind)
        for name, column in (
            ("pc", self.pc),
            ("address", self.address),
            ("dest", self.dest),
            ("taken", self.taken),
        ):
            if len(column) != n:
                raise ConfigError(
                    f"trace column length mismatch: {n} kinds, "
                    f"{len(column)} {name} values"
                )
        if len(self.src_offsets) != n + 1:
            raise ConfigError(
                f"src_offsets must have {n + 1} entries, "
                f"got {len(self.src_offsets)}"
            )
        if n:
            lo = int(self.kind.min())
            hi = int(self.kind.max())
            if lo < 0 or hi >= len(KINDS):
                raise ConfigError(
                    f"kind code out of range: [{lo}, {hi}] vs {len(KINDS)} kinds"
                )
        if latency is None:
            self.latency = LATENCY_BY_CODE[self.kind]
        else:
            self.latency = np.asarray(latency, dtype=np.int32)
            if len(self.latency) != n:
                raise ConfigError(
                    f"trace column length mismatch: {n} kinds, "
                    f"{len(self.latency)} latency values"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "TraceArray":
        return cls(
            np.empty(0, dtype=np.int8),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.bool_),
            np.zeros(1, dtype=np.int32),
            np.empty(0, dtype=np.int32),
        )

    @classmethod
    def from_microops(cls, ops: Iterable[MicroOp]) -> "TraceArray":
        """Pack constructed :class:`MicroOp` objects into columns.

        Lossless under the columnar register convention: register ids and
        addresses must be non-negative (``-1`` is the "absent" sentinel).
        Every stock kernel and :class:`~repro.trace.program.TraceProgram`
        satisfies this.  The packed columns are checked by
        :meth:`validate`.
        """
        ops = ops if isinstance(ops, list) else list(ops)
        n = len(ops)
        kind = np.empty(n, dtype=np.int8)
        pc = np.empty(n, dtype=np.int64)
        address = np.empty(n, dtype=np.int64)
        dest = np.empty(n, dtype=np.int32)
        taken = np.empty(n, dtype=np.bool_)
        offsets = np.empty(n + 1, dtype=np.int32)
        offsets[0] = 0
        values: list[int] = []
        for row, op in enumerate(ops):
            kind[row] = KIND_CODES[op.kind]
            pc[row] = op.pc
            address[row] = -1 if op.address is None else op.address
            if op.dest is not None and op.dest < 0:
                raise ConfigError(
                    f"columnar traces need non-negative register ids, "
                    f"got dest {op.dest}"
                )
            dest[row] = -1 if op.dest is None else op.dest
            taken[row] = op.taken
            values.extend(op.sources)
            offsets[row + 1] = len(values)
        return cls(
            kind, pc, address, dest, taken, offsets,
            np.array(values, dtype=np.int32),
        ).validate()

    @classmethod
    def concat(cls, arrays: Sequence["TraceArray"]) -> "TraceArray":
        """Concatenate trace fragments row-wise."""
        arrays = [a for a in arrays if len(a)]
        if not arrays:
            return cls.empty()
        if len(arrays) == 1:
            return arrays[0]
        offsets = [np.zeros(1, dtype=np.int32)]
        base = 0
        for array in arrays:
            offsets.append(array.src_offsets[1:] + base)
            base += int(array.src_offsets[-1])
        return cls(
            np.concatenate([a.kind for a in arrays]),
            np.concatenate([a.pc for a in arrays]),
            np.concatenate([a.address for a in arrays]),
            np.concatenate([a.dest for a in arrays]),
            np.concatenate([a.taken for a in arrays]),
            np.concatenate(offsets),
            np.concatenate([a.src_values for a in arrays]),
            latency=np.concatenate([a.latency for a in arrays]),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kind)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:
        return f"TraceArray({len(self)} uops)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceArray):
            return NotImplemented
        return (
            np.array_equal(self.kind, other.kind)
            and np.array_equal(self.pc, other.pc)
            and np.array_equal(self.address, other.address)
            and np.array_equal(self.dest, other.dest)
            and np.array_equal(self.taken, other.taken)
            and np.array_equal(self.src_offsets, other.src_offsets)
            and np.array_equal(self.src_values, other.src_values)
        )

    def slice(self, start: int, stop: int) -> "TraceArray":
        """Rows ``[start, stop)`` as a new array (columns are views).

        The packed source columns are rebased so the slice stands alone.
        """
        n = len(self)
        if not 0 <= start <= stop <= n:
            raise ConfigError(f"invalid trace slice [{start}, {stop}) of {n}")
        offsets = self.src_offsets[start : stop + 1]
        base = int(offsets[0])
        return TraceArray(
            self.kind[start:stop],
            self.pc[start:stop],
            self.address[start:stop],
            self.dest[start:stop],
            self.taken[start:stop],
            offsets - base,
            self.src_values[base : int(offsets[-1])],
            latency=self.latency[start:stop],
        )

    def max_register(self) -> int:
        """Highest register id referenced (``-1`` if none)."""
        highest = -1
        if len(self.dest):
            highest = max(highest, int(self.dest.max()))
        if len(self.src_values):
            highest = max(highest, int(self.src_values.max()))
        return highest

    def validate(self) -> "TraceArray":
        """Enforce the :class:`MicroOp` invariants column-wise."""
        if len(self.pc) and int(self.pc.min()) < 0:
            raise ConfigError(
                f"micro-op pcs must be non-negative, got {int(self.pc.min())}"
            )
        memory = (self.kind == _LOAD) | (self.kind == _STORE)
        unaddressed = memory & (self.address < 0)
        if bool(unaddressed.any()):
            row = int(np.argmax(unaddressed))
            raise ConfigError(
                f"{KINDS[int(self.kind[row])]} micro-op needs a non-negative "
                f"address, got {int(self.address[row])}"
            )
        if bool(((self.kind == _BRANCH) & (self.dest >= 0)).any()):
            raise ConfigError("branches do not write registers")
        if len(self.src_values) and int(self.src_values.min()) < 0:
            raise ConfigError("columnar traces need non-negative register ids")
        return self

    # ------------------------------------------------------------------
    # Bridge to the scalar oracle
    # ------------------------------------------------------------------

    def to_microops(self) -> list[MicroOp]:
        """Materialize the rows as validated :class:`MicroOp` objects."""
        kinds = self.kind.tolist()
        pcs = self.pc.tolist()
        addresses = self.address.tolist()
        dests = self.dest.tolist()
        takens = self.taken.tolist()
        offsets = self.src_offsets.tolist()
        values = self.src_values.tolist()
        ops: list[MicroOp] = []
        append = ops.append
        for row in range(len(kinds)):
            dest = dests[row]
            address = addresses[row]
            append(
                MicroOp(
                    KINDS[kinds[row]],
                    dest=None if dest < 0 else dest,
                    sources=tuple(values[offsets[row] : offsets[row + 1]]),
                    address=None if address < 0 else address,
                    pc=pcs[row],
                    taken=takens[row],
                )
            )
        return ops
