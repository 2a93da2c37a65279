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
- ``faultsim``  — fault-injection smoke: prove the pipeline survives
  corrupt samples, dropped metrics and kernel divergences (see
  ``docs/robustness.md``);
- ``doctor``    — probe a running ``spire serve`` process and report its
  health;
- ``coverage``  — §III-A training-data diversity check;
- ``derived``   — standard counter ratios (IPC, MPKI, DSB coverage, ...);
- ``whatif``    — projected speedups from improving top metrics;
- ``trace``     — run a kernel on the trace-driven second substrate;
- ``stream``    — feed a live counter log through windowed ingestion,
  drift detection and refute-and-refine repair (see
  ``docs/streaming.md``);
- ``serve``     — run the micro-batched asyncio HTTP inference server
  (see ``docs/serving.md``).
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
from repro.io.dataset import read_text
from repro.pipeline import ExperimentConfig, quick_workload_run
from repro.viz import ascii_roofline, render_roofline_svg
from repro.workloads import all_workloads


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
    model = SpireModel.train(pooled)
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
    text = read_text(args.input)
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
    import time

    from repro.pipeline import run_experiment_with_report

    config = ExperimentConfig(
        train_windows=args.train_windows,
        test_windows=args.test_windows,
        seed=args.seed,
    )
    print(
        f"running the full evaluation: 23 training + 4 testing workloads "
        f"({config.train_windows}/{config.test_windows} windows) ..."
    )
    started = time.perf_counter()
    result, run_report = run_experiment_with_report(
        config, failure_policy=args.failure_policy
    )
    print(f"experiment ready in {time.perf_counter() - started:.2f}s")
    if not run_report.ok:
        print(run_report.render())
    print(f"trained {len(result.model)} rooflines\n")
    matches = 0
    for name, run in result.testing_runs.items():
        report = result.analyze(name, top_k=args.top)
        tma = run.table1_category
        match = report.agrees_with(tma, args.top)
        matches += match
        print(
            f"{name:<24} IPC {report.measured_throughput:5.2f}  "
            f"TMA {tma:<16} SPIRE #1 {report.top_area:<16} "
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
    from repro.runtime.faults import DRIFT_INJECT, STALE_WINDOW, FaultPlan, FaultSpec
    from repro.stream import replay_stream, windows_from_records
    from repro.workloads import all_workloads

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
    if victim not in faulted.report.refuted_metrics:
        print(f"FAIL: {victim!r} is missing from the stream's refuted metrics")
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

    print(
        f"PASS: {victim!r} refuted and refit from recent windows, "
        f"{len(bystanders)} bystander(s) bit-identical; stalled window "
        f"sealed empty and {late} late record(s) quarantined"
    )
    return 0


def _cmd_faultsim(args: argparse.Namespace) -> int:
    """Fault-injection smoke: inject failures, prove the pipeline survives.

    Exit code 0 means the experiment completed under injection AND every
    injected fault left its trace: a quarantined sample or a dropped
    metric.
    """
    import warnings

    from repro.errors import DegradedDataWarning
    from repro.pipeline import run_experiment, run_experiment_with_report
    from repro.runtime.faults import CORRUPT_SAMPLE, FaultPlan
    from repro.workloads import all_workloads

    if args.drift:
        return _faultsim_drift(args)

    config = ExperimentConfig(
        train_windows=args.train_windows,
        test_windows=args.test_windows,
        seed=args.seed,
    )
    names = [w.name for w in all_workloads()]
    plan = FaultPlan.random(
        names,
        seed=args.fault_seed,
        corrupt_samples=args.corrupt_samples,
        drop_metrics=args.drop_metrics,
    )
    print(f"fault plan ({len(plan)} fault(s), seed {args.fault_seed}):")
    for spec in plan.specs:
        print(f"  {spec.kind:<26} -> {spec.workload}")
    print(
        f"running {len(names)} workloads with "
        f"failure_policy={args.failure_policy!r} ..."
    )

    baseline = None
    if args.verify_baseline:
        print("running the fault-free baseline first ...")
        baseline = run_experiment(config)

    with warnings.catch_warnings():
        warnings.simplefilter("always", DegradedDataWarning)
        result, report = run_experiment_with_report(
            config, failure_policy=args.failure_policy, faults=plan
        )

    print()
    print(report.render())

    # Verification: every injected fault must have left a trace.  A
    # collector fault degrades its victim's quality report (unless the
    # victim itself was skipped).
    runs = result.training_runs | result.testing_runs
    missing = []
    for spec in plan.specs:
        run = runs.get(spec.workload)
        if run is None:
            continue
        quality = run.collection.quality
        if spec.kind == CORRUPT_SAMPLE:
            traced = quality is not None and quality.quarantined
        else:
            traced = quality is not None and quality.dropped_metrics
        if not traced:
            missing.append(f"{spec.kind} on {spec.workload}")
    divergent = []
    if baseline is not None:
        # Survivors no fault targeted must be bit-identical to the
        # fault-free run.
        victims = set(plan.injected_workloads())
        for name, run in runs.items():
            ref = baseline.training_runs.get(name) or baseline.testing_runs.get(
                name
            )
            if ref is None or name in victims:
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
        for run in runs.values()
        if run.collection.quality is not None
    )
    survivors = len(runs)
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


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Probe a running ``spire serve`` process and render its health.

    Renders the long-lived state: micro-batch fill, backpressure, drain
    and guard counters.  Exit code 0 means healthy.
    """
    from repro.guard.doctor import (
        probe_server,
        render_server_health,
        server_health_problems,
    )

    payload = probe_server(args.serve_url)
    print(render_server_health(payload))
    problems = server_health_problems(payload)
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    return 0 if not problems else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the micro-batched asyncio inference server.

    Models named with ``--model name=path.json`` are loaded before the
    server starts, as is every ``<name>.json`` under ``--store-dir``;
    all are served from memory.  The server answers ``POST
    /v1/estimate`` and ``/v1/analyze`` (JSON or raw ``perf stat`` CSV
    bodies), ``GET /v1/models`` and ``GET /health``.
    """
    import asyncio
    import signal

    from repro.serve import ServeConfig, SpireServer

    config = ServeConfig(
        host=args.host,
        port=args.port,
        store_dir=args.store_dir,
        micro_batch=not args.no_batch,
        drain_timeout=args.drain_timeout,
    )

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
        mode = "off" if args.no_batch else "on"
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
            # Graceful drain: pending micro-batch requests are evaluated
            # and answered, in-flight handlers finish.
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
    from repro.stream import StreamIngestor, StreamOptions

    model = load_model(args.model) if args.model else None
    options = StreamOptions(window_samples=args.window)
    ingestor = StreamIngestor(model=model, options=options)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedDataWarning)
        if args.format == "perf":
            text = read_text(args.data)
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
    return 1 if report.stale else 0


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
        "--failure-policy",
        choices=["raise", "skip"],
        default="raise",
        help="what to do when a workload fails (default: raise)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative hotspots",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "faultsim",
        help="inject corruption and prove the pipeline survives",
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
    p.add_argument("--corrupt-samples", type=int, default=1)
    p.add_argument("--drop-metrics", type=int, default=0)
    p.add_argument(
        "--verify-baseline",
        action="store_true",
        help="run a fault-free baseline and require every surviving "
        "workload no fault targeted to be bit-identical to it",
    )
    p.add_argument(
        "--failure-policy",
        choices=["raise", "skip"],
        default="skip",
    )
    p.add_argument(
        "--drift",
        action="store_true",
        help="run the streaming drift scenario: drift-inject one metric "
        "mid-stream, prove refute-and-refine repairs only that metric",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-20 cumulative hotspots",
    )
    p.set_defaults(func=_cmd_faultsim)

    p = sub.add_parser(
        "doctor",
        help="probe a running `spire serve` process and report its health",
    )
    p.add_argument(
        "--serve-url",
        required=True,
        metavar="URL",
        help="the server root (http://host:port) or its /health endpoint",
    )
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser(
        "serve",
        help="run the micro-batched HTTP inference server",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8583)
    p.add_argument(
        "--store-dir",
        default=None,
        help="directory whose saved models (<name>.json) are served too",
    )
    p.add_argument(
        "--model",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="serve a trained model JSON under NAME (repeatable)",
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
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds to wait for in-flight requests on graceful shutdown",
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
        # Bad config, unreadable directory, missing input file: one line,
        # exit code 2 — never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
