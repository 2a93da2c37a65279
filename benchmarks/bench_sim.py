"""Simulation-substrate bench: scalar per-uop loop vs columnar kernels.

The vectorized trace substrate (``repro.trace.trace_array`` plus the
array kernels behind ``TracePipeline.execute_array``) claims faster cold
trace simulation without changing a single counter.  This bench measures
both claims:

- the scalar reference path (``SPIRE_SCALAR_FALLBACK=1``) and the
  vectorized default run ``collect_trace_samples`` cold (fresh pipeline,
  fresh trace) over every kernel, small scale and full paper scale;
- both paths must agree **bit-exactly**: identical final counters and
  identical sample records for every kernel.

Results land in ``BENCH_sim.json``.  Speedups are recorded, not asserted
— wall-clock gates flake across hosts (see ``bench_pipeline``); the CI
sim-bench job runs the small scale purely for the equivalence check.

Environment knobs:

- ``SPIRE_BENCH_SIM_FULL=0`` — skip the full-scale measurement (CI).
"""

from __future__ import annotations

import json
import os
import time

from conftest import write_artifact

from repro.concurrency import share_count
from repro.trace import phases
from repro.trace.kernels import KERNELS
from repro.trace.sampling import DEFAULT_INTENSITIES, collect_trace_samples

from bench_hotpath import scalar_fallback


def _run_kernels(n_uops: int, window_uops: int):
    """Cold ``collect_trace_samples`` over every kernel; returns results.

    Phase self-time (vectorized pre-pass, per-window event counts and
    column set-up, recurrence loop, and ``TracePipeline.execute`` on
    the scalar path) is accumulated across kernels so
    ``BENCH_sim.json`` records exactly where pipeline time goes.
    """
    results = {}
    phases.enable(True)
    phases.reset()
    started = time.perf_counter()
    for kernel in KERNELS:
        results[kernel] = collect_trace_samples(
            kernel, n_uops=n_uops, window_uops=window_uops, seed=3
        )
    elapsed = time.perf_counter() - started
    phase_totals = phases.totals()
    phases.enable(False)
    return results, elapsed, phase_totals


def _phase_summary(phase_totals: dict) -> dict:
    """Block time split into its phases, plus time in ``execute``."""
    block = {
        name: phase_totals.get(name, 0.0)
        for name in ("prepass", "counters", "recurrence")
    }
    return {
        **{f"{name}_s": round(value, 4) for name, value in block.items()},
        "block_s": round(sum(block.values()), 4),
        "execute_s": round(phase_totals.get("execute", 0.0), 4),
    }


def _assert_trace_equivalent(scalar_runs, vector_runs) -> None:
    """Bit-exact: final counters and every sample record must match."""
    assert scalar_runs.keys() == vector_runs.keys()
    for kernel in scalar_runs:
        scalar_run = scalar_runs[kernel]
        vector_run = vector_runs[kernel]
        assert scalar_run.final_counters == vector_run.final_counters, kernel
        assert scalar_run.instructions == vector_run.instructions, kernel
        assert scalar_run.cycles == vector_run.cycles, kernel
        scalar_records = scalar_run.samples.to_records()
        vector_records = vector_run.samples.to_records()
        assert scalar_records == vector_records, kernel


def _measure(n_uops: int, window_uops: int) -> dict:
    runs = {}
    timings = {}
    phase_split = {}
    for label, enabled in (("scalar", True), ("vectorized", False)):
        with scalar_fallback(enabled):
            kernel_runs, trace_s, phase_totals = _run_kernels(
                n_uops, window_uops
            )
        runs[label] = kernel_runs
        timings[label] = {"trace_s": round(trace_s, 4)}
        phase_split[label] = _phase_summary(phase_totals)
    _assert_trace_equivalent(runs["scalar"], runs["vectorized"])

    # speedup_trace is wall clock: the vectorized label forks each
    # collection's intensity rounds across `processes` CPUs
    # (repro.concurrency.fork_join), so it includes the fork-join, while
    # the scalar label runs in one process.  Both sides of
    # speedup_pipeline still time the same work, the pipeline over every
    # uop, summed over processes (forked rounds merge their phase
    # seconds back): the scalar label spends it in the per-MicroOp
    # TracePipeline.execute, the vectorized label in blocks (pre-pass,
    # event counts, recurrence loop).  Trace generation and sampling
    # are outside both.
    scalar_execute = phase_split["scalar"]["execute_s"]
    vector_blocks = phase_split["vectorized"]["block_s"]
    return {
        "kernels": len(KERNELS),
        "n_uops": n_uops,
        "window_uops": window_uops,
        "processes": share_count(len(DEFAULT_INTENSITIES)),
        **timings,
        "phases": phase_split,
        "speedup_trace": round(
            timings["scalar"]["trace_s"] / timings["vectorized"]["trace_s"], 2
        ),
        "speedup_pipeline": round(scalar_execute / vector_blocks, 2)
        if vector_blocks
        else None,
    }


def test_sim_scalar_vs_vectorized(out_dir):
    # Small scale: always runs (this is what the CI sim-bench job
    # executes for the equivalence gate).
    small = _measure(n_uops=8_000, window_uops=1_000)

    payload = {"cpu_count": os.cpu_count(), "small": small}

    # Full paper scale: the default collect_trace_samples geometry
    # (60k uops x 5 intensities, 4k-uop windows) on every kernel.
    if os.environ.get("SPIRE_BENCH_SIM_FULL", "1") != "0":
        payload["full"] = _measure(n_uops=60_000, window_uops=4_000)

    text = json.dumps(payload, indent=2)
    print()
    print(text)
    write_artifact("BENCH_sim.json", text)
