"""Command-line interface: ``spire <subcommand>``.

Subcommands mirror the paper's workflow:

- ``simulate``  — run a suite workload on the simulated CPU and dump the
  multiplexed counter samples to CSV;
- ``train``     — fit a SPIRE ensemble from sample CSVs;
- ``analyze``   — rank bottleneck metrics for a workload's samples;
- ``tma``       — run the Top-Down baseline on a suite workload;
- ``parse-perf``— convert real ``perf stat -x,`` output into sample CSV;
- ``plot``      — render a trained metric roofline (SVG or terminal);
- ``workloads`` — list the evaluation suite;
- ``report``    — run the paper's full evaluation (optionally archived);
- ``faultsim``  — fault-injection smoke: prove the runtime survives
  crashes, hangs, corrupt samples, corrupted cache entries and kernel
  divergences (see ``docs/robustness.md``);
- ``doctor``    — scan an experiment cache directory, quarantine
  corrupted entries and report the quarantine;
- ``coverage``  — §III-A training-data diversity check;
- ``derived``   — standard counter ratios (IPC, MPKI, DSB coverage, ...);
- ``whatif``    — projected speedups from improving top metrics;
- ``trace``     — run a kernel on the trace-driven second substrate;
- ``stream``    — feed a live counter log through windowed ingestion,
  drift detection and refute-and-refine repair (see
  ``docs/streaming.md``);
- ``serve``     — run the micro-batched asyncio HTTP inference server
  (see ``docs/serving.md``);
- ``bench-summary`` — merge benchmark artifacts and ratio-gate them
  against a committed baseline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import SpireModel
from repro.counters import parse_perf_stat
from repro.counters.events import default_catalog
from repro.errors import SpireError
from repro.io import (
    load_model,
    load_samples_csv,
    save_model,
    save_samples_csv,
)
from repro.pipeline import ExperimentConfig, quick_workload_run
from repro.viz import ascii_roofline, render_roofline_svg
from repro.workloads import all_workloads


def _jobs_arg(raw: str) -> "int | str":
    """``--jobs`` parser: an integer count or the ``auto`` policy."""
    if raw.strip().lower() == "auto":
        return "auto"
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {raw!r}"
        ) from None


def _cmd_workloads(_: argparse.Namespace) -> int:
    print(f"{'name':<26} {'role':<9} {'expected bottleneck':<17} configuration")
    for workload in all_workloads():
        print(
            f"{workload.name:<26} {workload.role:<9} "
            f"{workload.expected_bottleneck:<17} {workload.configuration}"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = ExperimentConfig(seed=args.seed, multiplex=not args.no_multiplex)
    run = quick_workload_run(args.workload, n_windows=args.windows, config=config)
    save_samples_csv(run.collection.samples, args.out)
    print(
        f"{args.workload}: {len(run.collection.samples)} samples over "
        f"{run.collection.periods} periods -> {args.out}"
    )
    print(f"measured IPC {run.measured_ipc:.3f}; TMA says {run.table1_category}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.sample import SampleSet

    pooled = SampleSet()
    for path in args.data:
        pooled.extend(load_samples_csv(path))
    model = SpireModel.train(pooled, jobs=args.jobs)
    save_model(model, args.model, include_training=args.full_model)
    print(
        f"trained {len(model)} rooflines from {len(pooled)} samples -> {args.model}"
    )
    from repro.core import coverage_report

    warnings = coverage_report(
        pooled, min_samples=args.min_samples, min_decades=args.min_decades
    ).warnings()
    if warnings:
        print(f"\n{len(warnings)} training-coverage warning(s) (paper §III-A):")
        for warning in warnings[:12]:
            print(f"  - {warning}")
        if len(warnings) > 12:
            print(f"  ... and {len(warnings) - 12} more (see `spire coverage`)")
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.core import coverage_report

    samples = load_samples_csv(args.data)
    report = coverage_report(
        samples, min_samples=args.min_samples, min_decades=args.min_decades
    )
    print(report.render(args.top))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    samples = load_samples_csv(args.data)
    report = model.analyze(
        samples,
        workload=Path(args.data).stem,
        top_k=args.top,
        metric_areas=default_catalog().areas(),
    )
    print(report.render())
    pool = report.bottleneck_pool(args.slack)
    print(f"\nbottleneck pool (within {100 * args.slack:.0f}% of the minimum):")
    for entry in pool:
        print(f"  {entry.estimate:8.3f}  {entry.metric}")
    return 0


def _cmd_tma(args: argparse.Namespace) -> int:
    from repro.counters import render_derived
    from repro.tma import drilldown

    run = quick_workload_run(args.workload, n_windows=args.windows)
    result = run.tma
    print(f"{args.workload}: IPC {result.ipc:.3f}")
    print(result.render())
    print(f"\nmain bottleneck: {result.main_bottleneck()}")
    print("\ndrilldown:")
    print(drilldown(result).render())
    print("\nderived metrics:")
    print(render_derived(run.collection.full_counts))
    return 0


def _cmd_derived(args: argparse.Namespace) -> int:
    from repro.counters import render_derived
    from repro.pipeline import quick_workload_run

    run = quick_workload_run(args.workload, n_windows=args.windows)
    print(f"{args.workload}: derived metrics over {args.windows} windows")
    print(render_derived(run.collection.full_counts))
    return 0


def _cmd_parse_perf(args: argparse.Namespace) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    samples = parse_perf_stat(
        text, work_event=args.work_event, time_event=args.time_event
    )
    save_samples_csv(samples, args.out)
    print(
        f"parsed {len(samples)} samples over {len(samples.metrics())} metrics "
        f"-> {args.out}"
    )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    roofline = model.roofline(args.metric)
    if args.out:
        # Serialized models carry no training samples; the SVG then shows
        # only the fitted function.
        path = render_roofline_svg(roofline, args.out)
        print(f"wrote {path}")
    else:
        if roofline.training_points:
            print(ascii_roofline(roofline))
        else:
            print(f"{args.metric}: breakpoints")
            for bp in roofline.function.breakpoints:
                print(f"  I={bp.x:12.4g}  P={bp.y:8.4g}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os
    import time

    from repro.pipeline import run_experiment_with_report

    config = ExperimentConfig(
        train_windows=args.train_windows,
        test_windows=args.test_windows,
        seed=args.seed,
    )
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get("SPIRE_CACHE_DIR") or None
    if args.resume and cache_dir is None:
        print("warning: --resume has no effect without a cache directory")
    print(
        f"running the full evaluation: 23 training + 4 testing workloads "
        f"({config.train_windows}/{config.test_windows} windows, "
        f"jobs={args.jobs}"
        + (f", cache={cache_dir}" if cache_dir else ", cache off")
        + (", resume" if args.resume else "")
        + ") ..."
    )
    started = time.perf_counter()
    result, run_report = run_experiment_with_report(
        config,
        jobs=args.jobs,
        cache=cache_dir,
        resume=args.resume,
        failure_policy=args.failure_policy,
        task_timeout=args.task_timeout,
        retries=args.retries,
    )
    print(f"experiment ready in {time.perf_counter() - started:.2f}s")
    if run_report.checkpoint_hits:
        print(
            f"resumed {len(run_report.checkpoint_hits)} workload(s) "
            f"from checkpoints"
        )
    if not run_report.ok or run_report.faulted_tasks():
        print(run_report.render())
    elif run_report.health is not None and not run_report.health.ok:
        # Degradations that did not fail any task still deserve a line.
        print(run_report.health.render())
    print(f"trained {len(result.model)} rooflines\n")
    matches = 0
    for name, run in result.testing_runs.items():
        report = result.analyze(name, top_k=args.top)
        top1_area = report.area_of(report.top(1)[0].metric)
        tma = run.table1_category
        match = tma in (top1_area, report.dominant_area(args.top))
        matches += match
        print(
            f"{name:<24} IPC {report.measured_throughput:5.2f}  "
            f"TMA {tma:<16} SPIRE #1 {top1_area:<16} "
            f"{'agree' if match else 'differ'}"
        )
        for entry in report.top(args.top):
            print(f"    {entry.estimate:7.3f}  {report.area_of(entry.metric):<16} "
                  f"{entry.metric}")
    print(f"\nagreement: {matches}/{len(result.testing_runs)} test workloads")
    if args.archive:
        from repro.io.experiment import archive_pipeline_result

        directory = archive_pipeline_result(args.archive, result)
        print(f"archived model + samples to {directory}")
    return 0


def _faultsim_fused_crash(args: argparse.Namespace) -> int:
    """Fused-path crash scenario: checkpoint/resume at segment granularity.

    Phase 1 runs the experiment serially (the fused mega-batch path) with
    a persistent crash injected into one workload.  The victim is excluded
    from fusion, so every other workload simulates as one fused batch and
    checkpoints segment by segment before the victim fails terminally.
    Phase 2 resumes from those checkpoints: only the victim re-simulates,
    and the final result must be bit-identical to a fault-free serial run.
    """
    import tempfile
    import warnings

    from repro.errors import DegradedDataWarning
    from repro.pipeline import run_experiment, run_experiment_with_report
    from repro.runtime.faults import FaultPlan, FaultSpec
    from repro.workloads import all_workloads

    config = ExperimentConfig(
        train_windows=args.train_windows,
        test_windows=args.test_windows,
        seed=args.seed,
    )
    names = [w.name for w in all_workloads()]
    victim = names[args.fault_seed % len(names)]
    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="spire-faultsim-")
    plan = FaultPlan(
        specs=(FaultSpec(workload=victim, kind="crash", times=10_000),)
    )
    print(
        f"fused-path crash scenario: persistent crash on {victim!r}, "
        f"cache={cache_dir}"
    )

    print("phase 1: fused serial run; the victim crashes terminally ...")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedDataWarning)
        _, report = run_experiment_with_report(
            config,
            jobs=1,
            cache=cache_dir,
            failure_policy="skip",
            retries=0,
            faults=plan,
        )
    fused_segments = [name for name in report.completed if name != victim]
    print(
        f"phase 1: {len(fused_segments)} fused segment(s) checkpointed, "
        f"{len(report.failures)} terminal failure(s)"
    )
    if victim not in report.failures:
        print(f"FAIL: the injected crash on {victim!r} did not fail the task")
        return 1
    if len(fused_segments) != len(names) - 1:
        print(
            f"FAIL: expected {len(names) - 1} fused segments to complete, "
            f"got {len(fused_segments)}"
        )
        return 1

    print("phase 2: resuming from segment checkpoints, no faults ...")
    result, resumed = run_experiment_with_report(
        config, jobs=1, cache=cache_dir, resume=True
    )
    if sorted(resumed.checkpoint_hits) != sorted(fused_segments):
        print(
            f"FAIL: resume restored {len(resumed.checkpoint_hits)} "
            f"checkpoint(s), expected the {len(fused_segments)} fused segments"
        )
        return 1
    resimulated = [name for name in resumed.completed
                   if name not in resumed.checkpoint_hits]
    if resimulated != [victim]:
        print(f"FAIL: expected only {victim!r} to re-simulate, got {resimulated}")
        return 1

    print("verifying against a fault-free serial baseline ...")
    baseline = run_experiment(config, jobs=1)
    divergent = []
    for name, run in (result.training_runs | result.testing_runs).items():
        ref = baseline.training_runs.get(name) or baseline.testing_runs.get(name)
        same = (
            ref is not None
            and run.measured_ipc == ref.measured_ipc
            and run.collection.samples.to_records()
            == ref.collection.samples.to_records()
        )
        if not same:
            divergent.append(name)
    if divergent:
        print(
            f"FAIL: {len(divergent)} workload(s) diverged from the fault-free "
            f"baseline: {', '.join(sorted(divergent))}"
        )
        return 1
    print(
        f"PASS: crash survived; {len(fused_segments)} segments restored from "
        f"checkpoints, 1 re-simulated, all bit-identical to the baseline"
    )
    return 0


def _faultsim_drift(args: argparse.Namespace) -> int:
    """Streaming drift scenario: refute one metric, repair it surgically.

    A model is trained from a simulated workload's samples, then the same
    samples are replayed through the stream ingestor.  The fault-free
    replay must stay clean (the rooflines bound their own training data
    by construction).  A ``drift-inject`` fault then shifts one metric's
    samples off its fitted bound mid-stream: the drift monitor must flag
    and refit exactly that metric — every other roofline bit-identical to
    the fault-free run — and a ``stale-window`` fault must seal an empty
    window and quarantine the late, out-of-order arrivals.
    """
    import warnings
    from collections import Counter

    from repro.errors import DegradedDataWarning
    from repro.guard.dispatch import registry, reset_guards
    from repro.runtime.faults import DRIFT_INJECT, STALE_WINDOW, FaultPlan, FaultSpec
    from repro.stream import replay_stream, windows_from_records
    from repro.workloads import all_workloads

    reset_guards()
    names = [w.name for w in all_workloads()]
    workload = names[args.fault_seed % len(names)]
    config = ExperimentConfig(seed=args.seed)
    run = quick_workload_run(
        workload, n_windows=args.train_windows, config=config
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedDataWarning)
        model = SpireModel.train(run.collection.samples)
    records = run.collection.samples.to_records()
    # Multiplexing leaves each metric only a couple of samples, far too
    # sparse for a window to ever *refute* a bound (min_violations).  Tile
    # the log so every window carries several copies of every metric; the
    # rooflines still bound the duplicates, so the baseline stays clean.
    tiled = [dict(record) for _ in range(8) for record in records]
    windows = windows_from_records(tiled, 2 * len(records))
    counts = Counter(record["metric"] for record in records)
    dense = sorted(model.metrics, key=lambda m: (-counts[m], m))
    victim = dense[args.fault_seed % max(len(dense) // 4, 1)]
    print(
        f"drift scenario: workload {workload!r}, {len(tiled)} samples in "
        f"{len(windows)} window(s), victim metric {victim!r}"
    )

    print("phase 1: fault-free replay; the model must hold ...")
    baseline = replay_stream(windows, model=model)
    refuted = baseline.report.refuted_metrics
    if refuted or baseline.report.stale:
        print(f"FAIL: fault-free replay drifted: {refuted or 'stale'}")
        return 1
    print(f"phase 1: {baseline.windows} window(s) replayed, model held")

    print(f"phase 2: drift-inject on {victim!r} from window 2 ...")
    plan = FaultPlan(
        specs=(
            FaultSpec(workload=victim, kind=DRIFT_INJECT, factor=4.0, window=2),
        )
    )
    faulted = replay_stream(windows, model=model, faults=plan)
    print(faulted.report.render())
    actions = {e.action for e in faulted.events if e.metric == victim}
    if "refit" not in actions:
        print(f"FAIL: the drift monitor never refit {victim!r} (saw {actions})")
        return 1
    if victim not in faulted.ingestor.stream_metrics:
        print(f"FAIL: {victim!r} was not taken over by the stream after refit")
        return 1
    bystanders = [m for m in model.metrics if m != victim]
    divergent = [
        m
        for m in bystanders
        if faulted.model.roofline(m).to_dict(include_training=True)
        != baseline.model.roofline(m).to_dict(include_training=True)
    ]
    if divergent:
        print(
            f"FAIL: {len(divergent)} bystander metric(s) diverged: "
            + ", ".join(sorted(divergent))
        )
        return 1
    touched = {e.metric for e in faulted.events} - {victim}
    if touched:
        print(f"FAIL: drift events touched bystander metrics: {sorted(touched)}")
        return 1

    print("phase 3: stale-window fault; late arrivals must quarantine ...")
    stalled_at = max(len(windows) - 2, 0)
    plan = FaultPlan(
        specs=(FaultSpec(workload="*", kind=STALE_WINDOW, window=stalled_at),)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedDataWarning)
        stalled = replay_stream(windows, model=model, faults=plan)
    stalls = [e for e in stalled.events if e.action == "stalled"]
    late = sum(
        1
        for q in stalled.quality.quarantined
        if q.reason == "out-of-order timestamp"
    )
    if not stalls:
        print("FAIL: the stalled window produced no 'stalled' drift event")
        return 1
    if not late:
        print("FAIL: the late window's records were not quarantined")
        return 1

    health = registry().health_report()
    print()
    print(health.render())
    if victim not in health.drifted_metrics:
        print(f"FAIL: {victim!r} is missing from the health report's drift")
        return 1
    print(
        f"PASS: {victim!r} refuted and refit from recent windows, "
        f"{len(bystanders)} bystander(s) bit-identical; stalled window "
        f"sealed empty and {late} late record(s) quarantined"
    )
    return 0


def _cmd_faultsim(args: argparse.Namespace) -> int:
    """Fault-injection smoke: inject failures, prove the runtime survives.

    Exit code 0 means the experiment completed under injection AND the run
    report accounts for every injected runner-level fault.
    """
    import warnings

    from repro.errors import DegradedDataWarning
    from repro.pipeline import run_experiment, run_experiment_with_report
    from repro.runtime.faults import RUNNER_KINDS, FaultPlan
    from repro.workloads import all_workloads

    if args.fused_crash:
        return _faultsim_fused_crash(args)
    if args.drift:
        return _faultsim_drift(args)
    if args.serve:
        return _faultsim_serve(args)

    config = ExperimentConfig(
        train_windows=args.train_windows,
        test_windows=args.test_windows,
        seed=args.seed,
    )
    names = [w.name for w in all_workloads()]
    if args.corrupt_cache_entries and not args.cache_dir:
        print("error: --corrupt-cache-entries requires --cache-dir")
        return 2
    plan = FaultPlan.random(
        names,
        seed=args.fault_seed,
        crashes=args.crashes,
        hangs=args.hangs,
        corrupt_samples=args.corrupt_samples,
        drop_metrics=args.drop_metrics,
        checkpoint_failures=args.checkpoint_failures,
        times=10_000 if args.persistent else 1,
        hang_seconds=args.hang_seconds,
        diverge_kernels=args.diverge_kernels,
        corrupt_cache_entries=args.corrupt_cache_entries,
    )
    print(f"fault plan ({len(plan)} fault(s), seed {args.fault_seed}):")
    for spec in plan.specs:
        print(f"  {spec.kind:<26} -> {spec.workload} (times={spec.times})")
    print(
        f"running {len(names)} workloads with jobs={args.jobs}, "
        f"task_timeout={args.task_timeout}s, retries={args.retries}, "
        f"failure_policy={args.failure_policy!r} ..."
    )

    baseline = None
    if args.verify_baseline or plan.cache_corruptions():
        # A fault-free serial pass first: it is the bit-identical baseline
        # for --verify-baseline and, when corruption is planned, it warms
        # the cache entry that corrupt-cache-entry then truncates.  The
        # cache is only warmed in that case — an intact warm entry would
        # short-circuit the faulted run before any fault could fire.
        print("running the fault-free serial baseline first ...")
        warm_cache = args.cache_dir if plan.cache_corruptions() else None
        baseline = run_experiment(config, jobs=1, cache=warm_cache or None)

    with warnings.catch_warnings():
        warnings.simplefilter("always", DegradedDataWarning)
        result, report = run_experiment_with_report(
            config,
            jobs=args.jobs,
            cache=args.cache_dir or None,
            failure_policy=args.failure_policy,
            task_timeout=args.task_timeout,
            retries=args.retries,
            faults=plan,
        )

    print()
    print(report.render())

    # Verification: every runner-level fault must have left a trace —
    # either retried attempts or a recorded terminal failure.
    missing = []
    for spec in plan.specs:
        if spec.kind not in RUNNER_KINDS:
            continue
        attempts = report.task_attempts(spec.workload)
        misbehaved = any(a.outcome != "ok" for a in attempts)
        if not (misbehaved or spec.workload in report.failures):
            missing.append(f"{spec.kind} on {spec.workload}")

    # Guard-level faults must show up in the health report: a divergence
    # trips its kernel, a corrupted entry lands in the quarantine.
    health = report.health
    for spec in plan.diverge_kernels():
        tripped = health is not None and spec.workload in health.tripped_kernels
        if not tripped:
            missing.append(f"{spec.kind} on {spec.workload}")
    if plan.cache_corruptions():
        if health is None or not health.artifacts_quarantined:
            missing.append("corrupt-cache-entry left nothing in quarantine")

    divergent = []
    if baseline is not None:
        # Survivors must be bit-identical to the fault-free serial run.
        for name, run in (result.training_runs | result.testing_runs).items():
            ref = baseline.training_runs.get(name) or baseline.testing_runs.get(
                name
            )
            if ref is None:
                continue
            same = (
                run.measured_ipc == ref.measured_ipc
                and run.collection.samples.to_records()
                == ref.collection.samples.to_records()
            )
            if not same:
                divergent.append(name)

    quarantined = sum(
        len(run.collection.quality.quarantined)
        for run in (result.training_runs | result.testing_runs).values()
        if run.collection.quality is not None
    )
    survivors = len(result.training_runs) + len(result.testing_runs)
    print(
        f"\nsurvived: {survivors}/{len(names)} workloads, "
        f"{quarantined} quarantined sample(s), "
        f"{len(report.failures)} skipped"
    )
    if baseline is not None:
        print(
            "baseline comparison: "
            + (
                f"{len(divergent)} divergent workload(s): "
                + ", ".join(sorted(divergent))
                if divergent
                else "all surviving workloads bit-identical"
            )
        )
    if missing or divergent:
        if missing:
            print(f"FAIL: injected faults left no trace: {'; '.join(missing)}")
        if divergent:
            print("FAIL: surviving workloads diverged from the baseline")
        return 1
    print("PASS: experiment completed; every injected fault is accounted for")
    return 0


def _faultsim_serve(args: argparse.Namespace) -> int:
    """Serve-layer chaos: crash/hang workers, corrupt rollovers, storm quotas.

    Spawns a supervised worker fleet against a throwaway model store, then
    realizes every serve-kind fault in the plan as a live scenario while
    client load is in flight.  Exit code 0 means every scenario held its
    invariants: survivors stayed bit-identical, corrupt artifacts were
    quarantined and never served, quota rejections were clean 429s, and
    crashed/wedged workers came back within the restart budget.
    """
    import json as _json
    import shutil
    import tempfile

    from repro.runtime.faults import FaultPlan
    from repro.serve.chaos import run_serve_chaos

    plan = FaultPlan.random(
        [],
        seed=args.fault_seed,
        worker_crashes=args.worker_crashes,
        worker_hangs=args.worker_hangs,
        rollover_corruptions=args.rollover_corruptions,
        quota_storms=args.quota_storms,
        serve_slots=args.serve_workers,
        serve_models=("alpha", "beta"),
        hang_seconds=args.hang_seconds,
    )
    serve_specs = plan.serve_faults()
    print(f"serve fault plan ({len(serve_specs)} fault(s), seed {args.fault_seed}):")
    for spec in serve_specs:
        print(f"  {spec.kind:<26} -> {spec.workload}")
    if not serve_specs:
        print("error: no serve faults requested (all counts are zero)")
        return 2

    store = args.serve_store_dir or tempfile.mkdtemp(prefix="spire-serve-chaos-")
    cleanup = not args.serve_store_dir
    print(
        f"running {args.serve_workers} worker(s), "
        f"{args.serve_requests} request(s) per scenario, store {store} ..."
    )
    try:
        report = run_serve_chaos(
            store,
            plan,
            workers=args.serve_workers,
            requests=args.serve_requests,
            seed=args.fault_seed,
        )
    finally:
        if cleanup:
            shutil.rmtree(store, ignore_errors=True)

    print()
    for scenario in report["scenarios"]:
        tag = "PASS" if scenario["ok"] else "FAIL"
        detail = ", ".join(
            f"{key}={value}" for key, value in sorted(scenario["metrics"].items())
        )
        print(f"  [{tag}] {scenario['name']}: {detail}")
        for failure in scenario["failures"]:
            print(f"      - {failure}")

    if args.report:
        Path(args.report).write_text(_json.dumps(report, indent=1) + "\n")
        print(f"\nreport written to {args.report}")

    if report["ok"]:
        print("PASS: fleet survived every serve-layer fault scenario")
        return 0
    print("FAIL: at least one serve chaos scenario broke an invariant")
    return 1


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Scan an experiment cache directory for integrity failures.

    Every cache entry and checkpoint is checksum-verified; failures are
    quarantined (moved into ``.quarantine/``, never deleted).  ``--prune``
    empties the quarantine afterwards.  With ``--serve-url`` the doctor
    instead probes a running ``spire serve`` process and renders its
    long-lived state: registry occupancy and evictions, micro-batch fill,
    backpressure and guard counters.  Exit code 0 means healthy.
    """
    import os

    from repro.guard.doctor import (
        doctor_cache_dir,
        probe_server,
        render_server_health,
        server_health_problems,
    )

    if args.serve_url:
        payload = probe_server(args.serve_url)
        print(render_server_health(payload))
        problems = server_health_problems(payload)
        for problem in problems:
            print(f"  PROBLEM: {problem}")
        return 0 if not problems else 1

    directory = (
        args.cache_dir
        or os.environ.get("SPIRE_CACHE_DIR")
        or str(Path.home() / ".cache" / "spire" / "experiments")
    )
    report = doctor_cache_dir(directory, prune=args.prune)
    print(report.render())
    return 0 if report.ok else 1


def _parse_quota_args(args: argparse.Namespace):
    """``--quota``/``--default-quota`` flags -> (policies dict, default)."""
    from repro.serve.quotas import QuotaPolicy

    quotas = {}
    for spec in args.quota:
        name, sep, policy = spec.partition("=")
        if not sep or not name or not policy:
            raise SpireError(
                f"--quota expects MODEL=RATE[:BURST], got {spec!r}"
            )
        quotas[name] = QuotaPolicy.parse(policy)
    default = (
        QuotaPolicy.parse(args.default_quota) if args.default_quota else None
    )
    return (quotas or None), default


def _serve_install(args: argparse.Namespace) -> int:
    """``spire serve install``: hot-roll models into a *running* server.

    Each ``--model name=path`` is packed client-side (``.json`` models)
    or read as-is (``.spm`` artifacts) and POSTed to
    ``/v1/models/install`` as ``application/octet-stream``.  The server
    stages, checksum-verifies and canary-checks the artifact before
    atomically swapping it in; a rejected install (corrupt artifact,
    failed canary) exits 1 and leaves the old model serving.
    """
    import json as _json
    import os
    import tempfile
    from urllib.error import HTTPError, URLError
    from urllib.parse import quote
    from urllib.request import Request, urlopen

    from repro.serve.registry import pack_model

    if not args.model:
        raise SpireError(
            "serve install needs at least one --model name=path "
            "(.json trained model or packed .spm artifact)"
        )
    base = (args.url or f"http://{args.host}:{args.port}").rstrip("/")
    if not base.startswith(("http://", "https://")):
        base = "http://" + base

    for spec in args.model:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise SpireError(f"--model expects name=path, got {spec!r}")
        if path.endswith(".spm"):
            blob = Path(path).read_bytes()
        else:
            # Pack through a temp file so the wire artifact is the exact
            # packed format the server verifies (header + aligned payload).
            model = load_model(path)
            fd, tmp = tempfile.mkstemp(suffix=".spm")
            os.close(fd)
            try:
                pack_model(model, tmp)
                blob = Path(tmp).read_bytes()
            finally:
                os.unlink(tmp)
        request = Request(
            f"{base}/v1/models/install?model={quote(name)}",
            data=blob,
            headers={"Content-Type": "application/octet-stream"},
            method="POST",
        )
        try:
            with urlopen(request, timeout=30) as response:  # noqa: S310
                payload = _json.loads(response.read().decode("utf-8"))
        except HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            try:
                detail = _json.loads(detail).get("error", detail)
            except ValueError:
                pass
            print(f"install of {name!r} rejected ({exc.code}): {detail}")
            return 1
        except (URLError, OSError, TimeoutError) as exc:
            raise SpireError(f"cannot reach server at {base}: {exc}") from None
        event = payload.get("event", {})
        print(
            f"installed {name!r} ({len(blob)} bytes) in "
            f"{event.get('duration_ms', 0.0):.1f} ms — "
            f"checksum {str(event.get('checksum', ''))[:12]}"
        )
    return 0


def _serve_supervised(args: argparse.Namespace, config) -> int:
    """Run a supervised multi-worker fleet until SIGTERM/SIGINT.

    The parent never serves traffic: it claims the port, forks workers
    that share it, restarts crashed or wedged workers with exponential
    backoff, and on the first SIGTERM/SIGINT drains every worker
    gracefully (in-flight requests finish, queued ones get 503s).
    """
    import signal
    import threading
    import time

    from repro.serve.supervisor import ServeSupervisor, SupervisorConfig

    supervisor = ServeSupervisor(
        config,
        SupervisorConfig(
            workers=args.workers,
            drain_timeout=args.drain_timeout,
        ),
    )
    supervisor.start()
    supervisor.wait_ready()
    print(
        f"supervising {args.workers} worker(s) on "
        f"http://{config.host}:{supervisor.port} "
        f"(reuse_port={supervisor.reuse_port})",
        flush=True,
    )

    stop = threading.Event()

    def _request_stop(signum: int, _frame) -> None:
        print(
            f"signal {signal.Signals(signum).name}: draining fleet ...",
            flush=True,
        )
        stop.set()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    deadline = (
        time.monotonic() + args.max_runtime if args.max_runtime > 0 else None
    )
    try:
        while not stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                break
            supervisor.step(timeout=0.25)
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        supervisor.stop(drain=True)
        snap = supervisor.snapshot()
        print(
            f"fleet stopped: {snap['restart_total']} restart(s), "
            f"stale slots {snap['stale_slots']}, "
            f"{snap['totals'].get('requests', 0)} request(s) served"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the micro-batched asyncio inference server.

    Models named with ``--model name=path.json`` are packed into the
    artifact store before the server starts; anything already packed
    under ``--store-dir`` is served as well.  The server answers
    ``POST /v1/estimate`` and ``/v1/analyze`` (JSON or raw ``perf stat``
    CSV bodies), ``POST /v1/models/install`` (hot rollover),
    ``GET /v1/models`` and ``GET /health``.  With ``--workers N`` a
    supervisor forks N worker processes sharing the port and restarts
    the ones that crash or wedge.  ``spire serve install`` instead
    pushes models into an already-running server.
    """
    import asyncio
    import signal

    from repro.serve import ServeConfig, SpireServer

    if args.action == "install":
        return _serve_install(args)

    quotas, default_quota = _parse_quota_args(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        store_dir=args.store_dir,
        capacity=args.capacity,
        micro_batch=not args.no_batch,
        max_batch=args.max_batch,
        window=args.window_ms / 1000.0,
        queue_limit=args.queue_limit,
        load_shed=args.load_shed,
        quotas=quotas,
        default_quota=default_quota,
        drain_timeout=args.drain_timeout,
        debug_faults=args.debug_faults,
    )

    if args.workers > 0:
        # Pack --model entries into the shared store up front: every
        # worker maps models from the store, not from this process.
        if args.model:
            from repro.serve.registry import ModelRegistry

            staging = ModelRegistry(config.store_dir)
            try:
                for spec in args.model:
                    name, sep, path = spec.partition("=")
                    if not sep or not name or not path:
                        raise SpireError(
                            f"--model expects name=path.json, got {spec!r}"
                        )
                    staging.install(name, load_model(path))
                    print(f"packed model {name!r} from {path} into store")
            finally:
                staging.close()
        return _serve_supervised(args, config)

    server = SpireServer(config)
    for spec in args.model:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise SpireError(
                f"--model expects name=path.json, got {spec!r}"
            )
        server.registry.install(name, load_model(path))
        print(f"installed model {name!r} from {path}")

    async def _run() -> None:
        await server.start()
        mode = "off" if args.no_batch else (
            f"on (max {config.max_batch}, window "
            f"{config.window * 1000:g} ms)"
        )
        print(
            f"serving {len(server.registry.names())} model(s) on "
            f"http://{config.host}:{server.port} — micro-batch {mode}",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
        try:
            if args.max_runtime > 0:
                try:
                    await asyncio.wait_for(stop.wait(), args.max_runtime)
                except asyncio.TimeoutError:
                    pass
            else:
                await stop.wait()
        finally:
            # Graceful drain: pending micro-batch lanes flush (queued
            # requests answered 503), in-flight handlers finish.
            await server.stop(drain=True)

    asyncio.run(_run())
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.core import render_sweep, sensitivity_sweep

    model = load_model(args.model)
    samples = load_samples_csv(args.data)
    factors = tuple(float(f) for f in args.factors.split(","))
    sweep = sensitivity_sweep(model, samples, factors=factors, top_k=args.top)
    print(render_sweep(sweep))
    best = max(sweep, key=lambda r: r.projected_bound)
    print(
        f"\nbiggest projected win: {best.metric} x{best.factor:g} -> "
        f"{best.projected_speedup:.2f}x (then {best.limiting_metric_after} binds)"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace import TRACE_EVENT_AREAS, collect_trace_samples

    run = collect_trace_samples(
        args.kernel,
        n_uops=args.uops,
        window_uops=args.window,
        intensities=tuple(float(i) for i in args.intensities.split(",")),
        seed=args.seed,
    )
    print(
        f"{args.kernel}: {run.instructions} uops in {run.cycles} cycles "
        f"(IPC {run.ipc:.3f}); {len(run.samples)} samples"
    )
    if args.out:
        save_samples_csv(run.samples, args.out)
        print(f"wrote {args.out}")
    if args.model:
        model = load_model(args.model)
        report = model.analyze(
            run.samples,
            workload=args.kernel,
            top_k=args.top,
            metric_areas=dict(TRACE_EVENT_AREAS),
        )
        print()
        print(report.render())
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Feed a counter log through the streaming ingestor and report drift.

    With ``--model`` the stream defends a trained model: refuted metrics
    are quarantined and refit from recent windows.  Without one it builds
    a model from scratch, drift-checking once past warmup.  Exit code 0
    means the stream ended healthy; 1 means the model went stale and a
    batch retrain is warranted.
    """
    import warnings

    from repro.errors import DegradedDataWarning
    from repro.guard.dispatch import registry
    from repro.stream import StreamIngestor, StreamOptions

    model = load_model(args.model) if args.model else None
    options = StreamOptions(window_samples=args.window)
    ingestor = StreamIngestor(model=model, options=options)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedDataWarning)
        if args.format == "perf":
            text = Path(args.data).read_text(encoding="utf-8")
            for start in range(0, len(text), 4096):
                ingestor.push_perf(text[start:start + 4096])
            ingestor.flush()
        else:
            ingestor.push_records(load_samples_csv(args.data).to_records())
        if ingestor.pending_samples:
            ingestor.seal_window()

    report = ingestor.report()
    print(report.render())
    served = sorted(ingestor.reference_metrics) + sorted(
        ingestor.stream_metrics
    )
    if served:
        owners = [
            f"{metric}*" if metric in ingestor.stream_metrics else metric
            for metric in served
        ]
        print(
            f"serving {len(served)} metric(s) "
            "(* = refit or learned from the stream): " + ", ".join(owners)
        )
    else:
        print("serving no metrics yet (stream still warming up)")
    health = registry().health_report()
    if health.drift_events or not health.ok:
        print()
        print(health.render())
    return 1 if report.stale else 0


def _cmd_bench_summary(args: argparse.Namespace) -> int:
    """Merge bench artifacts into ``BENCH_summary.json``; optionally gate.

    Aggregates the tracked metrics (speedups, guard overhead) from
    every ``BENCH_*.json`` under ``--out-dir``.  With ``--check`` the
    fresh summary is ratio-gated against a committed baseline (a
    summary file, one ``BENCH_*.json`` artifact, or a directory of
    artifacts): exit code 1 means a speedup collapsed below
    ``--min-ratio`` of its recorded value.
    """
    from repro import benchtrack

    out_dir = Path(args.out_dir)
    summary = benchtrack.summarize(out_dir)
    target = benchtrack.write_summary(out_dir)
    artifacts = summary["artifacts"]
    print(f"wrote {target} ({len(artifacts)} artifacts)")
    for name in sorted(artifacts):
        metrics = artifacts[name]
        if not metrics:
            continue
        shown = ", ".join(
            f"{path}={value:g}" for path, value in sorted(metrics.items())
        )
        print(f"  {name}: {shown}")

    if not args.check:
        return 0
    baseline = benchtrack.load_baseline(args.check)
    failures = benchtrack.check_against_baseline(
        summary, baseline, min_ratio=args.min_ratio
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"baseline check passed against {args.check}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spire",
        description="SPIRE: infer hardware bottlenecks from performance counters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workloads", help="list the evaluation suite")
    p.set_defaults(func=_cmd_workloads)

    p = sub.add_parser("simulate", help="collect counter samples for a workload")
    p.add_argument("workload")
    p.add_argument("--out", default="samples.csv")
    p.add_argument("--windows", type=int, default=600)
    p.add_argument("--seed", type=int, default=2025)
    p.add_argument("--no-multiplex", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train an ensemble from sample CSVs")
    p.add_argument("data", nargs="+")
    p.add_argument("--model", default="spire-model.json")
    p.add_argument("--min-samples", type=int, default=50)
    p.add_argument("--min-decades", type=float, default=1.0)
    p.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help="worker processes for per-metric fitting (0 = one per "
        "available CPU; 'auto' = fit in-process unless SPIRE_JOBS names "
        "a count)",
    )
    p.add_argument(
        "--full-model",
        action="store_true",
        help="persist training points so `spire plot` can show samples",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative hotspots",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "coverage", help="assess a sample set's training coverage (§III-A)"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--min-samples", type=int, default=50)
    p.add_argument("--min-decades", type=float, default=1.0)
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("analyze", help="rank bottleneck metrics for a workload")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--slack", type=float, default=0.15)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("tma", help="Top-Down baseline for a suite workload")
    p.add_argument("workload")
    p.add_argument("--windows", type=int, default=300)
    p.set_defaults(func=_cmd_tma)

    p = sub.add_parser(
        "report", help="run the paper's full evaluation and print agreement"
    )
    p.add_argument("--train-windows", type=int, default=600)
    p.add_argument("--test-windows", type=int, default=300)
    p.add_argument("--seed", type=int, default=2025)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--archive", default="", help="directory to archive the run")
    p.add_argument(
        "--jobs",
        type=_jobs_arg,
        default="auto",
        help="worker processes for the simulations (0 = one per available "
        "CPU; 'auto', the default, always runs the fused engine in-process, "
        "about 5x faster than a 2-worker pool at paper scale, unless "
        "SPIRE_JOBS names a count)",
    )
    p.add_argument(
        "--cache-dir",
        default="",
        help="experiment cache directory (default: $SPIRE_CACHE_DIR if set)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk experiment cache entirely",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="restore per-workload checkpoints from an interrupted run",
    )
    p.add_argument(
        "--failure-policy",
        choices=["raise", "skip", "serial_fallback"],
        default="raise",
        help="what to do when a workload fails terminally (default: raise)",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-workload deadline in seconds (parallel runs only)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts per workload after the first (default: 2)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative hotspots",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "faultsim",
        help="inject crashes/hangs/corruption and prove the runtime survives",
    )
    p.add_argument("--train-windows", type=int, default=48)
    p.add_argument("--test-windows", type=int, default=24)
    p.add_argument("--seed", type=int, default=2025)
    p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for victim selection (same seed = same fault plan)",
    )
    p.add_argument("--jobs", type=_jobs_arg, default=2)
    p.add_argument("--crashes", type=int, default=1)
    p.add_argument("--hangs", type=int, default=1)
    p.add_argument("--corrupt-samples", type=int, default=1)
    p.add_argument("--drop-metrics", type=int, default=0)
    p.add_argument("--checkpoint-failures", type=int, default=0)
    p.add_argument(
        "--diverge-kernels",
        type=int,
        default=0,
        help="inject oracle divergences into this many guarded kernels",
    )
    p.add_argument(
        "--corrupt-cache-entries",
        type=int,
        default=0,
        help="truncate the cached experiment entry (requires --cache-dir)",
    )
    p.add_argument(
        "--verify-baseline",
        action="store_true",
        help="run a fault-free serial baseline and require surviving "
        "workloads to be bit-identical to it",
    )
    p.add_argument("--hang-seconds", type=float, default=3.0)
    p.add_argument("--task-timeout", type=float, default=1.0)
    p.add_argument("--retries", type=int, default=2)
    p.add_argument(
        "--failure-policy",
        choices=["raise", "skip", "serial_fallback"],
        default="skip",
    )
    p.add_argument(
        "--persistent",
        action="store_true",
        help="make faults fire on every attempt (retries cannot absorb them)",
    )
    p.add_argument(
        "--fused-crash",
        action="store_true",
        help="run the fused-path crash scenario: a persistent crash on one "
        "workload, then checkpoint/resume at fused-segment granularity",
    )
    p.add_argument(
        "--drift",
        action="store_true",
        help="run the streaming drift scenario: drift-inject one metric "
        "mid-stream, prove refute-and-refine repairs only that metric",
    )
    p.add_argument(
        "--cache-dir",
        default="",
        help="cache dir for checkpoint faults (default: no cache)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative hotspots",
    )
    p.add_argument(
        "--serve",
        action="store_true",
        help="run serve-layer chaos: crash/hang supervised workers, corrupt "
        "a hot rollover, storm the admission quotas",
    )
    p.add_argument(
        "--serve-workers",
        type=int,
        default=4,
        help="worker processes in the chaos fleet (default 4)",
    )
    p.add_argument(
        "--serve-requests",
        type=int,
        default=48,
        help="client requests per chaos scenario (default 48)",
    )
    p.add_argument(
        "--worker-crashes",
        type=int,
        default=1,
        help="SIGKILL this many workers mid-load (--serve)",
    )
    p.add_argument(
        "--worker-hangs",
        type=int,
        default=1,
        help="wedge this many workers' event loops mid-load (--serve)",
    )
    p.add_argument(
        "--rollover-corruptions",
        type=int,
        default=1,
        help="push this many corrupt artifacts through hot rollover (--serve)",
    )
    p.add_argument(
        "--quota-storms",
        type=int,
        default=1,
        help="run this many admission-quota storm scenarios (--serve)",
    )
    p.add_argument(
        "--serve-store-dir",
        default="",
        help="model store for --serve chaos (default: throwaway temp dir)",
    )
    p.add_argument(
        "--report",
        default="",
        metavar="PATH",
        help="write the --serve chaos scenario report JSON here",
    )
    p.set_defaults(func=_cmd_faultsim)

    p = sub.add_parser(
        "doctor",
        help="verify a cache directory's integrity and quarantine bad entries",
    )
    p.add_argument(
        "--cache-dir",
        default="",
        help="cache directory to scan (default: $SPIRE_CACHE_DIR or "
        "~/.cache/spire/experiments)",
    )
    p.add_argument(
        "--prune",
        action="store_true",
        help="delete quarantined files after the scan",
    )
    p.add_argument(
        "--serve-url",
        default="",
        metavar="URL",
        help="probe a running `spire serve` process instead of a cache dir",
    )
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser(
        "serve",
        help="run the micro-batched HTTP inference server",
    )
    p.add_argument(
        "action",
        nargs="?",
        choices=["run", "install"],
        default="run",
        help="run the server (default) or hot-install models into a "
        "running one via POST /v1/models/install",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8583)
    p.add_argument(
        "--url",
        default="",
        help="server base URL for `serve install` "
        "(default: http://HOST:PORT)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fork this many supervised worker processes sharing the port "
        "(0 = single process, default)",
    )
    p.add_argument(
        "--store-dir",
        default="models",
        help="packed-model artifact store (default: ./models)",
    )
    p.add_argument(
        "--model",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="pack a trained model JSON into the store before starting "
        "(repeatable)",
    )
    p.add_argument(
        "--capacity",
        type=int,
        default=4,
        help="models kept mapped in memory at once (LRU, default 4)",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="most requests fused into one evaluation (default 64)",
    )
    p.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        help="micro-batch coalescing deadline in ms (default 2)",
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="per-model pending-request bound before backpressure",
    )
    p.add_argument(
        "--load-shed",
        choices=["reject", "oldest"],
        default="reject",
        help="full-queue policy: reject newest (429) or shed oldest (503)",
    )
    p.add_argument(
        "--no-batch",
        action="store_true",
        help="disable micro-batching; evaluate each request alone",
    )
    p.add_argument(
        "--max-runtime",
        type=float,
        default=0.0,
        help="stop after this many seconds (0 = run forever; smoke tests)",
    )
    p.add_argument(
        "--quota",
        action="append",
        default=[],
        metavar="MODEL=RATE[:BURST]",
        help="per-model admission quota in requests/s with optional burst "
        "(repeatable; per worker in --workers mode)",
    )
    p.add_argument(
        "--default-quota",
        default="",
        metavar="RATE[:BURST]",
        help="admission quota applied to models without an explicit --quota",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds to wait for in-flight requests on graceful shutdown",
    )
    p.add_argument(
        "--debug-faults",
        action="store_true",
        help="expose /debug/crash and /debug/hang routes (chaos testing)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "derived", help="standard counter ratios (IPC, MPKI, ...) for a workload"
    )
    p.add_argument("workload")
    p.add_argument("--windows", type=int, default=200)
    p.set_defaults(func=_cmd_derived)

    p = sub.add_parser("parse-perf", help="convert perf stat -x, output to CSV")
    p.add_argument("input")
    p.add_argument("--out", default="perf-samples.csv")
    p.add_argument("--work-event", default="instructions")
    p.add_argument("--time-event", default="cycles")
    p.set_defaults(func=_cmd_parse_perf)

    p = sub.add_parser(
        "whatif", help="project speedups from improving top metrics"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--factors", default="2,4")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=_cmd_whatif)

    p = sub.add_parser(
        "trace", help="run a trace-pipeline kernel and collect samples"
    )
    p.add_argument("kernel")
    p.add_argument("--uops", type=int, default=30_000)
    p.add_argument("--window", type=int, default=2_500)
    p.add_argument("--intensities", default="0.1,0.3,0.5,0.7,0.9")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.add_argument("--model", default="", help="analyze with a trained model")
    p.add_argument("--top", type=int, default=8)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "stream",
        help="stream a counter log through drift detection and repair",
    )
    p.add_argument("--data", required=True, help="sample CSV or perf stat log")
    p.add_argument(
        "--model",
        default="",
        help="trained model to defend (default: learn from the stream)",
    )
    p.add_argument(
        "--window",
        type=int,
        default=256,
        help="samples per drift-check window (default 256)",
    )
    p.add_argument(
        "--format",
        choices=["csv", "perf"],
        default="csv",
        help="input format: spire sample CSV or raw 'perf stat -x,' output",
    )
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser(
        "bench-summary",
        help="merge BENCH_*.json artifacts and gate against a baseline",
    )
    p.add_argument(
        "--out-dir",
        default="benchmarks/out",
        help="directory holding BENCH_*.json artifacts",
    )
    p.add_argument(
        "--check",
        default="",
        metavar="BASELINE",
        help="baseline summary to ratio-gate against (CI mode)",
    )
    p.add_argument(
        "--min-ratio",
        type=float,
        default=0.5,
        help="speedups must hold this fraction of baseline (default 0.5)",
    )
    p.set_defaults(func=_cmd_bench_summary)

    p = sub.add_parser("plot", help="plot a trained metric roofline")
    p.add_argument("--model", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--out", default="", help="SVG path; omit for a terminal plot")
    p.set_defaults(func=_cmd_plot)

    return parser


# Which repro modules belong to which profiling phase: producing counter
# samples (simulation) vs learning rooflines from them (fitting).
_SIMULATION_PHASE_PATTERN = r"repro[/\\](uarch|trace|counters|workloads|runtime)"
_FIT_PHASE_PATTERN = r"repro[/\\](core|geometry)"


def _phase_tottime(stats, pattern: str) -> float:
    """Total self-time across all profiled functions in matching files."""
    import re

    matcher = re.compile(pattern)
    return sum(
        timings[2]
        for (filename, _, _), timings in stats.stats.items()
        if matcher.search(filename)
    )


def _run_profiled(args: argparse.Namespace) -> int:
    """Run a subcommand under cProfile; print top-20 cumulative to stderr.

    The overall top-20 is followed by two labeled top-20 sections that
    attribute time to the simulation phase (trace/uarch substrates,
    counter collection, workload generation, the experiment runtime) and
    the fit phase (roofline fitting and geometry) separately, plus a
    one-line self-time summary for each.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(args.func, args)
    finally:
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)
        sim_seconds = _phase_tottime(stats, _SIMULATION_PHASE_PATTERN)
        fit_seconds = _phase_tottime(stats, _FIT_PHASE_PATTERN)
        print(
            "=== phase summary (self time): "
            f"simulation {sim_seconds:.3f}s, fit {fit_seconds:.3f}s ===",
            file=sys.stderr,
        )
        print("=== simulation phase (uarch/trace/counters/workloads/runtime) ===",
              file=sys.stderr)
        stats.print_stats(_SIMULATION_PHASE_PATTERN, 20)
        print("=== fit phase (core/geometry) ===", file=sys.stderr)
        stats.print_stats(_FIT_PHASE_PATTERN, 20)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "profile", False):
            return _run_profiled(args)
        return args.func(args)
    except (SpireError, OSError) as exc:
        # Bad config, unreadable cache dir, missing input file: one line,
        # exit code 2 — never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
