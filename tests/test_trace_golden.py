"""Golden digests of the trace substrate's output.

The parity tests compare the block loop against the per-uop ``execute``
oracle, so a change that moves both the same way would pass them.
These digests pin the absolute output instead: counters, headline
numbers and every emitted sample, for each stock kernel and for one
multi-source :class:`TraceProgram`, on the default path and on the
oracle path alike.  A kernel's oracle is ``collect_trace_samples`` under
``SPIRE_SCALAR_FALLBACK=1`` (per-uop generators and ``execute``); the
program's is ``execute`` run window by window.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.guard import reset_guards
from repro.trace import KERNELS, TraceArray, TracePipeline, TraceProgram
from repro.trace.sampling import collect_trace_samples

KERNEL_DIGESTS = {
    "codebloat": (
        "997c16fe37cde918b93afdbd6ebd1da5"
        "430b778b4cf601d74aec5253f3978abf"
    ),
    "stream": (
        "685add991f021fc3ede86242172def4b"
        "7c2f32e6e32c97ecec516834965186f4"
    ),
    "pointer_chase": (
        "be9ef6dabf9b8113b6b4eaf70aca2a79"
        "f953b1feea313e87ea84842b77790e4d"
    ),
    "branchy": (
        "b4a410daed11ec769fa90894976715ae"
        "9614954c0ead9760eb07ef8974597d60"
    ),
    "compute": (
        "c79b54ffc73f533ae122ec49ce3f1639"
        "42b0a22319df8b152bded8873906a503"
    ),
    "divider": (
        "955fcdaeef4195eb26b3c33c247d6334"
        "4582a16687841ed972a8096541ea1695"
    ),
    "mixed": (
        "b69093dc7e7129c05c3e752557a86c4a"
        "468d006f0989c99880b7cbea0d3a8c33"
    ),
}

# The same output at every block size: whole-segment blocks and blocks
# that cut windows, so the digest also pins cross-block state.
PROGRAM_DIGEST = (
    "85d62d42e129fa28e9331b25304218c7"
    "c144cc1de477e029a136a838ed0ef598"
)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def kernel_digest(kernel: str) -> str:
    run = collect_trace_samples(kernel, n_uops=8_000, window_uops=1_000, seed=3)
    return _digest(
        [
            run.final_counters,
            run.instructions,
            run.cycles,
            run.samples.to_records(),
        ]
    )


def multi_source_trace() -> TraceArray:
    """Loads, a dependent chase, 3-source ALU rows, periodic divides."""
    program = (
        TraceProgram(seed=11, footprint=1 << 22)
        .load("x", stride=64)
        .load("y", stride=4160, stream="far", dependent_on="x")
        .op("alu", dest="acc", sources=("acc", "x", "y"))
        .op("mul", dest="m", sources=("acc", "m"))
        .op("fp", dest="f", sources=("m", "y", "f"))
        .every(8, lambda p: p.op("div", dest="acc", sources=("acc", "m")))
        .store("acc")
        .branch(pattern="random", taken_probability=0.3)
    )
    return TraceArray.from_microops(program.emit(6_000))


def program_digest(block_size: int, path: str) -> str:
    pipeline = TracePipeline()
    if path == "scalar_fallback":
        # The oracle: execute, window by window (block_size plays no part).
        ops = multi_source_trace().to_microops()
        snapshots = []
        for start in range(0, len(ops), 500):
            pipeline.execute(ops[start : start + 500])
            snapshots.append(pipeline.snapshot())
    else:
        snapshots = pipeline.execute_array_windowed(
            multi_source_trace(), 500, block_size=block_size
        )
    return _digest(
        [
            [s.as_dict() for s in snapshots],
            pipeline.counters.as_dict(),
            pipeline.counters.instructions,
            pipeline.counters.cycles,
        ]
    )


@pytest.fixture(params=["default", "scalar_fallback"])
def path(request, monkeypatch):
    if request.param == "scalar_fallback":
        monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    else:
        monkeypatch.delenv("SPIRE_SCALAR_FALLBACK", raising=False)
    reset_guards()
    yield request.param
    reset_guards()


def test_kernel_list_is_pinned():
    assert sorted(KERNEL_DIGESTS) == sorted(KERNELS)


@pytest.mark.parametrize("kernel", sorted(KERNEL_DIGESTS))
def test_kernel_output_matches_golden(kernel, path):
    assert kernel_digest(kernel) == KERNEL_DIGESTS[kernel]


@pytest.mark.parametrize("block_size", [16384, 777])
def test_multi_source_program_matches_golden(block_size, path):
    assert program_digest(block_size, path) == PROGRAM_DIGEST
