"""Pipeline throughput bench: the fused engine against per-workload runs.

The paper's evaluation simulates the 23 training and 4 testing workloads
independently (§IV).  The runner executes them in one process, fused
into one mega-batch, and this bench measures:

- **fused vs per-workload** simulation of the full task list, with a
  bit-identical-output check against the scalar per-workload oracle;
- the whole experiment with its fused chunks **forked** across the CPUs
  (:func:`repro.concurrency.fork_join`) and **in-process**
  (``available_cpus`` patched to 1), which must be bit-identical;
- the whole experiment at ``jobs=1`` and ``jobs="auto"``, which must be
  bit-identical.  Both take the same path: ``jobs`` sizes no pool.

Results land in ``BENCH_pipeline.json`` to seed the repo's performance
trajectory.  Fused == per-workload, the fused sim-phase speedup
(``>= 2``), forked == in-process and auto == serial are asserted.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from conftest import write_artifact

import repro.concurrency as concurrency
from repro.pipeline import ExperimentConfig, run_experiment, run_workload
from repro.runtime.fused import _task_chunks, runs_equal, simulate_tasks_fused
from repro.runtime.plan import ExecutionPlan
from repro.uarch import skylake_gold_6126


def _analysis_signature(result) -> dict:
    """Everything Table II / Figure 7 consume, for exact-equality checks."""
    signature = {}
    for name in sorted(result.testing_runs):
        report = result.analyze(name)
        run = result.testing_runs[name]
        signature[name] = {
            "measured_ipc": run.measured_ipc,
            "tma_category": run.table1_category,
            "estimated_throughput": report.estimated_throughput,
            "ranking": [(e.metric, e.estimate) for e in report.ranking],
        }
    return signature


def test_fused_vs_per_workload(out_dir):
    """The sim phase: one fused mega-batch vs 27 per-workload runs."""
    config = ExperimentConfig()  # full paper scale
    machine = skylake_gold_6126()
    plan = ExecutionPlan.for_experiment(config, machine)

    started = time.perf_counter()
    fused_runs = simulate_tasks_fused(list(plan.tasks), machine, config)
    fused_s = time.perf_counter() - started

    started = time.perf_counter()
    per_workload = [
        run_workload(task.workload, machine, task.n_windows, config)
        for task in plan.tasks
    ]
    per_workload_s = time.perf_counter() - started

    # The acceptance gate: fused is bit-identical to the per-workload
    # path for every task, and at least 2x faster on the sim phase.
    for task, fused_run, oracle in zip(plan.tasks, fused_runs, per_workload):
        assert runs_equal(fused_run, oracle), task.name
    sim_speedup = per_workload_s / fused_s
    assert sim_speedup >= 2.0

    test_fused_vs_per_workload.payload = {
        "tasks": len(plan.tasks),
        "sim_fused_s": round(fused_s, 4),
        "sim_per_workload_s": round(per_workload_s, 4),
        "sim_fused_speedup": round(sim_speedup, 3),
    }


def test_forked_chunks_equal_in_process(out_dir, monkeypatch):
    """The whole experiment, its fused chunks forked and in-process."""
    config = ExperimentConfig()  # full paper scale: five chunks
    cpus = concurrency.available_cpus()
    chunks = len(_task_chunks(
        ExecutionPlan.for_experiment(config, skylake_gold_6126()).tasks
    ))
    shares = concurrency.share_count(chunks)
    times: dict[str, list[float]] = {"in_process": [], "forked": []}
    results = {}
    for _ in range(3):  # alternating sides
        for side, count in (("in_process", 1), ("forked", cpus)):
            monkeypatch.setattr(
                concurrency, "available_cpus", lambda count=count: count
            )
            started = time.perf_counter()
            results[side] = run_experiment(config)
            times[side].append(time.perf_counter() - started)

    in_process, forked = results["in_process"], results["forked"]
    for runs in ("training_runs", "testing_runs"):
        for name, run in getattr(in_process, runs).items():
            assert runs_equal(getattr(forked, runs)[name], run), name
    assert forked.model.to_dict() == in_process.model.to_dict()
    assert _analysis_signature(forked) == _analysis_signature(in_process)

    test_forked_chunks_equal_in_process.payload = {
        "chunks": chunks,
        "shares": shares,
        "experiment_in_process_s": round(
            statistics.median(times["in_process"]), 4
        ),
        "experiment_forked_s": round(statistics.median(times["forked"]), 4),
    }


def test_pipeline_auto_equals_serial(out_dir):
    config = ExperimentConfig()  # full paper scale

    started = time.perf_counter()
    serial = run_experiment(config, jobs=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    auto = run_experiment(config, jobs="auto")
    auto_s = time.perf_counter() - started

    # Determinism: the auto run must be bit-identical to serial.
    assert _analysis_signature(serial) == _analysis_signature(auto)

    payload = {
        "config": {
            "train_windows": config.train_windows,
            "test_windows": config.test_windows,
            "workloads": len(serial.training_runs) + len(serial.testing_runs),
        },
        "cpu_count": os.cpu_count(),
        "serial_s": round(serial_s, 4),
        "auto_s": round(auto_s, 4),
    }
    payload.update(getattr(test_fused_vs_per_workload, "payload", {}))
    payload.update(getattr(test_forked_chunks_equal_in_process, "payload", {}))
    text = json.dumps(payload, indent=2)
    print()
    print(text)
    write_artifact("BENCH_pipeline.json", text)
