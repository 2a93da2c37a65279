"""Synthetic micro-op trace kernels.

Each kernel generates the dynamic micro-op stream of a small program with
one dominant behaviour, parameterized by an ``intensity`` knob in [0, 1]
that scales how hard the behaviour is exercised.  Together they play the
role the workload suite plays for the statistical substrate: spreading
SPIRE's training samples across each trace metric's intensity axis.

Kernels
-------
``stream``        sequential loads over a large array (bandwidth friendly)
``pointer_chase`` dependent loads over a shuffled ring (latency bound)
``branchy``       data-dependent branches with tunable predictability
``compute``       independent FP chains (high ILP)
``divider``       long dependent integer-divide chains
``mixed``         a round-robin blend of the above
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

import numpy as np

from repro.bulkrng import random_draws
from repro.errors import ConfigError
from repro.trace.trace_array import KIND_CODES, TraceArray
from repro.trace.uops import MicroOp

_LINE = 64

_ALU = KIND_CODES["alu"]
_FP = KIND_CODES["fp"]
_DIV = KIND_CODES["div"]
_LOAD = KIND_CODES["load"]
_BRANCH = KIND_CODES["branch"]


def stream(
    n: int, intensity: float, rng: random.Random
) -> Iterator[MicroOp]:
    """Sequential loads mixed with ALU work; intensity = load density."""
    load_share = 0.1 + 0.5 * intensity
    address = 0
    footprint = 64 * 1024 * 1024
    reg = 1
    for i in range(n):
        if rng.random() < load_share:
            address = (address + _LINE // 2) % footprint
            yield MicroOp(
                "load", dest=reg % 30 + 1, address=address, pc=(i % 128) * 4
            )
        else:
            yield MicroOp(
                "alu", dest=reg % 30 + 1, sources=(max(1, (reg - 1) % 30 + 1),),
                pc=(i % 128) * 4,
            )
        reg += 1


def pointer_chase(
    n: int, intensity: float, rng: random.Random
) -> Iterator[MicroOp]:
    """Dependent loads over a shuffled ring; intensity = footprint size."""
    # Footprint from L1-resident (2 KiB) at intensity 0 toward multi-MiB
    # at intensity 1.  Small-to-mid intensities revisit the ring several
    # times (hits at the level that holds it); high intensities exceed the
    # trace's revisit budget, so accesses become cold DRAM misses — the
    # same latency-bound endpoint a real huge chase reaches.
    footprint = int(2 * 1024 * (2.0 ** (11.0 * intensity)))
    n_nodes = max(4, footprint // _LINE)
    node = rng.randrange(n_nodes)
    stride = 977  # co-prime walk approximates a shuffled ring cheaply
    for i in range(n):
        if i % 4 == 0:
            node = (node + stride) % n_nodes
            # dest register 1 feeds the next load: a dependent chain.
            yield MicroOp("load", dest=1, sources=(1,), address=node * _LINE,
                          pc=(i % 128) * 4)
        else:
            yield MicroOp("alu", dest=2 + i % 8, sources=(1,), pc=(i % 128) * 4)


def branchy(
    n: int, intensity: float, rng: random.Random
) -> Iterator[MicroOp]:
    """Frequent branches; intensity = unpredictability (0 = perfect loop)."""
    for i in range(n):
        if i % 3 == 0:
            if rng.random() < intensity:
                taken = rng.random() < 0.5  # data-dependent: untrainable
            else:
                taken = (i // 3) % 8 != 7  # loop-shaped: trains quickly
            yield MicroOp("branch", sources=(1,), taken=taken, pc=(i % 64) * 4)
        else:
            yield MicroOp("alu", dest=1 + i % 16, sources=(1 + (i + 1) % 16,),
                          pc=(i % 64) * 4)


def compute(
    n: int, intensity: float, rng: random.Random
) -> Iterator[MicroOp]:
    """FP arithmetic; intensity = dependence (0 = wide ILP, 1 = one chain)."""
    chains = max(1, int(16 * (1.0 - intensity)) + 1)
    for i in range(n):
        chain = i % chains
        yield MicroOp("fp", dest=1 + chain, sources=(1 + chain,), pc=(i % 128) * 4)


def divider(
    n: int, intensity: float, rng: random.Random
) -> Iterator[MicroOp]:
    """Integer work salted with divides; intensity = divide density."""
    divide_share = 0.002 + 0.08 * intensity
    for i in range(n):
        if rng.random() < divide_share:
            yield MicroOp("div", dest=1, sources=(1,), pc=(i % 128) * 4)
        else:
            yield MicroOp("alu", dest=2 + i % 12, sources=(2 + (i + 1) % 12,),
                          pc=(i % 128) * 4)


def codebloat(
    n: int, intensity: float, rng: random.Random
) -> Iterator[MicroOp]:
    """ALU work spread over a large code footprint; intensity = footprint.

    PCs walk a region from L1I-resident (8 KiB) to far beyond it, so high
    intensities thrash the instruction cache — the trace substrate's
    front-end-bound kernel.
    """
    footprint = int(8 * 1024 * (2.0 ** (7.0 * intensity)))
    pc = 0
    for i in range(n):
        pc = (pc + 68) % footprint  # stride past a line per instruction
        yield MicroOp("alu", dest=1 + i % 16, sources=(1 + (i + 1) % 16,), pc=pc)


def mixed(
    n: int, intensity: float, rng: random.Random
) -> Iterator[MicroOp]:
    """A blend cycling through the other kernels in slices."""
    generators: list[Callable] = [
        stream, pointer_chase, branchy, compute, divider, codebloat,
    ]
    slice_length = max(1, n // (len(generators) * 2))
    produced = 0
    index = 0
    while produced < n:
        kernel = generators[index % len(generators)]
        count = min(slice_length, n - produced)
        yield from kernel(count, intensity, rng)
        produced += count
        index += 1


KERNELS: dict[str, Callable] = {
    "codebloat": codebloat,
    "stream": stream,
    "pointer_chase": pointer_chase,
    "branchy": branchy,
    "compute": compute,
    "divider": divider,
    "mixed": mixed,
}


def kernel_by_name(name: str) -> Callable:
    try:
        return KERNELS[name]
    except KeyError:
        raise ConfigError(
            f"unknown trace kernel {name!r}; options: {sorted(KERNELS)}"
        ) from None


def make_kernel_trace(
    name: str, n: int, intensity: float, seed: int = 0
) -> list[MicroOp]:
    """Materialize ``n`` micro-ops of the named kernel."""
    if not 0.0 <= intensity <= 1.0:
        raise ConfigError(f"kernel intensity must be in [0, 1], got {intensity}")
    if n < 1:
        raise ConfigError("trace needs at least one micro-op")
    rng = random.Random(seed)
    return list(kernel_by_name(name)(n, intensity, rng))


# ----------------------------------------------------------------------
# Columnar builders
#
# Each builder emits the exact trace its generator twin yields — same
# micro-ops, same consumption of the shared ``random.Random`` stream —
# but as TraceArray columns built with closed-form NumPy expressions, so
# a full-scale trace costs a handful of array ops instead of tens of
# thousands of dataclass allocations.  Parity is pinned by tests.
# ----------------------------------------------------------------------


def _one_source_offsets(n: int) -> np.ndarray:
    return np.arange(n + 1, dtype=np.int32)


def stream_array(n: int, intensity: float, rng: random.Random) -> TraceArray:
    load_share = 0.1 + 0.5 * intensity
    footprint = 64 * 1024 * 1024
    is_load = random_draws(rng, n) < load_share
    index = np.arange(n, dtype=np.int64)
    address = np.full(n, -1, dtype=np.int64)
    # The generator advances its cursor by half a line before each load,
    # so the j-th load (1-based) touches byte 32*j.
    load_ordinal = np.cumsum(is_load)
    address[is_load] = ((_LINE // 2) * load_ordinal[is_load]) % footprint
    has_source = ~is_load
    src_offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(has_source)]
    )
    return TraceArray(
        np.where(is_load, _LOAD, _ALU).astype(np.int8),
        (index % 128) * 4,
        address,
        ((index + 1) % 30 + 1).astype(np.int32),
        np.zeros(n, dtype=np.bool_),
        src_offsets,
        (index[has_source] % 30 + 1).astype(np.int32),
    )


def pointer_chase_array(
    n: int, intensity: float, rng: random.Random
) -> TraceArray:
    footprint = int(2 * 1024 * (2.0 ** (11.0 * intensity)))
    n_nodes = max(4, footprint // _LINE)
    start_node = rng.randrange(n_nodes)
    index = np.arange(n, dtype=np.int64)
    is_load = index % 4 == 0
    hop = np.cumsum(is_load)  # the j-th load has taken j strides
    address = np.full(n, -1, dtype=np.int64)
    address[is_load] = ((start_node + 977 * hop[is_load]) % n_nodes) * _LINE
    return TraceArray(
        np.where(is_load, _LOAD, _ALU).astype(np.int8),
        (index % 128) * 4,
        address,
        np.where(is_load, 1, 2 + index % 8).astype(np.int32),
        np.zeros(n, dtype=np.bool_),
        _one_source_offsets(n),
        np.ones(n, dtype=np.int32),
    )


def branchy_array(n: int, intensity: float, rng: random.Random) -> TraceArray:
    index = np.arange(n, dtype=np.int64)
    is_branch = index % 3 == 0
    branch_rows = np.flatnonzero(is_branch)
    outcomes = np.empty(len(branch_rows), dtype=np.bool_)
    # The draw count per branch depends on the first draw, so the rng
    # stream cannot be batched; this loop is the only per-uop Python the
    # builder keeps (one iteration per branch, not per uop).
    uniform = rng.random
    for position, row in enumerate(branch_rows.tolist()):
        if uniform() < intensity:
            outcomes[position] = uniform() < 0.5
        else:
            outcomes[position] = (row // 3) % 8 != 7
    taken = np.zeros(n, dtype=np.bool_)
    taken[is_branch] = outcomes
    return TraceArray(
        np.where(is_branch, _BRANCH, _ALU).astype(np.int8),
        (index % 64) * 4,
        np.full(n, -1, dtype=np.int64),
        np.where(is_branch, -1, 1 + index % 16).astype(np.int32),
        taken,
        _one_source_offsets(n),
        np.where(is_branch, 1, 1 + (index + 1) % 16).astype(np.int32),
    )


def compute_array(n: int, intensity: float, rng: random.Random) -> TraceArray:
    chains = max(1, int(16 * (1.0 - intensity)) + 1)
    index = np.arange(n, dtype=np.int64)
    register = (1 + index % chains).astype(np.int32)
    return TraceArray(
        np.full(n, _FP, dtype=np.int8),
        (index % 128) * 4,
        np.full(n, -1, dtype=np.int64),
        register,
        np.zeros(n, dtype=np.bool_),
        _one_source_offsets(n),
        register.copy(),
    )


def divider_array(n: int, intensity: float, rng: random.Random) -> TraceArray:
    divide_share = 0.002 + 0.08 * intensity
    is_div = random_draws(rng, n) < divide_share
    index = np.arange(n, dtype=np.int64)
    return TraceArray(
        np.where(is_div, _DIV, _ALU).astype(np.int8),
        (index % 128) * 4,
        np.full(n, -1, dtype=np.int64),
        np.where(is_div, 1, 2 + index % 12).astype(np.int32),
        np.zeros(n, dtype=np.bool_),
        _one_source_offsets(n),
        np.where(is_div, 1, 2 + (index + 1) % 12).astype(np.int32),
    )


def codebloat_array(n: int, intensity: float, rng: random.Random) -> TraceArray:
    footprint = int(8 * 1024 * (2.0 ** (7.0 * intensity)))
    index = np.arange(n, dtype=np.int64)
    return TraceArray(
        np.full(n, _ALU, dtype=np.int8),
        (68 * (index + 1)) % footprint,
        np.full(n, -1, dtype=np.int64),
        (1 + index % 16).astype(np.int32),
        np.zeros(n, dtype=np.bool_),
        _one_source_offsets(n),
        (1 + (index + 1) % 16).astype(np.int32),
    )


def mixed_array(n: int, intensity: float, rng: random.Random) -> TraceArray:
    builders: list[Callable] = [
        stream_array,
        pointer_chase_array,
        branchy_array,
        compute_array,
        divider_array,
        codebloat_array,
    ]
    slice_length = max(1, n // (len(builders) * 2))
    parts: list[TraceArray] = []
    produced = 0
    index = 0
    while produced < n:
        builder = builders[index % len(builders)]
        count = min(slice_length, n - produced)
        parts.append(builder(count, intensity, rng))
        produced += count
        index += 1
    return TraceArray.concat(parts)


ARRAY_BUILDERS: dict[str, Callable] = {
    "codebloat": codebloat_array,
    "stream": stream_array,
    "pointer_chase": pointer_chase_array,
    "branchy": branchy_array,
    "compute": compute_array,
    "divider": divider_array,
    "mixed": mixed_array,
}


def array_builder_by_name(name: str) -> Callable:
    try:
        return ARRAY_BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown trace kernel {name!r}; options: {sorted(ARRAY_BUILDERS)}"
        ) from None


def make_kernel_trace_array(
    name: str, n: int, intensity: float, seed: int = 0
) -> TraceArray:
    """Columnar :func:`make_kernel_trace`: the same trace, as a TraceArray."""
    if not 0.0 <= intensity <= 1.0:
        raise ConfigError(f"kernel intensity must be in [0, 1], got {intensity}")
    if n < 1:
        raise ConfigError("trace needs at least one micro-op")
    builder = array_builder_by_name(name)
    return builder(n, intensity, random.Random(seed))
