"""Program host: one fresh process that sets up a workload and runs it.

``run.py`` starts this script; it is not meant to be run by hand::

    python3 perfbench/host.py --workload W --inputs DIR --out FILE \
        --mode setup|run|reference|serve [--seconds S] [--trace]

``setup`` times the set-up alone and exits; ``run`` then runs the
workload's operations in a closed loop for ``--seconds``; ``reference``
runs one pass for the output check (the caller sets
``SPIRE_SCALAR_FALLBACK=1``); ``serve`` starts a ``SpireServer`` and
serves until SIGTERM.  Inputs are read before the set-up clock starts,
so set-up time covers importing the program and everything after it.
Results go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import inputs as bench_inputs  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

#: Seconds between host-speed calibrations during a closed loop.
CALIBRATE_EVERY_S = 1.0

#: Seconds between speed probes inside the server's event loop, and
#: between the ops of a probed closed loop.
PROBE_EVERY_S = 0.025

#: Longest wait for the program's worker processes to exit before the
#: peak resident set is read.
REAP_TIMEOUT_S = 10.0


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Offline:
    """``run_experiment`` at paper scale, then ``analyze`` of the testing
    workloads.  The reference runs the serial path (``jobs=1``)."""

    # Programs call the library through its modules and classes at op
    # time, so that boundaries wrapped for a traced phase are the ones run.

    def __init__(self, data: dict, reference: bool):
        import repro.pipeline as pipeline

        self.pipeline = pipeline
        self.config = pipeline.ExperimentConfig(seed=data["seed"])
        self.jobs = 1 if reference else "auto"
        self.last = None

    def op(self):
        result = self.pipeline.run_experiment(self.config, jobs=self.jobs)
        reports = {name: result.analyze(name) for name in result.testing_runs}
        return result, reports

    def settle(self, out):
        self.last = out
        result, reports = out
        return digest({
            name: [
                [[entry.metric, entry.estimate] for entry in report.top(10)],
                result.testing_runs[name].table1_category,
                result.testing_runs[name].tma.main_bottleneck(),
            ]
            for name, report in reports.items()
        }), 1

    def quality(self) -> dict:
        from repro.core.ensemble import mean_absolute_bound_violation
        from repro.core.sample import SampleSet

        if self.last is None:
            return {}
        result, reports = self.last
        held_out = SampleSet()
        matches = 0
        for name, run in result.testing_runs.items():
            held_out.extend(run.collection.samples)
            report = reports[name]
            top1 = report.area_of(report.top(1)[0].metric)
            matches += run.table1_category in (top1, report.dominant_area(10))
        return {
            "bound_violation_ipc": mean_absolute_bound_violation(
                result.model, held_out),
            "tma_agreement": matches / len(result.testing_runs),
        }

    def counts(self) -> dict:
        return {}

    def stamp(self) -> dict:
        from repro.concurrency import resolve_jobs

        if self.last is None:
            return {}
        result = self.last[0]
        tasks = len(result.training_runs) + len(result.testing_runs)
        return {"runtime.jobs": resolve_jobs(self.jobs, tasks=tasks)}


class Trace:
    """Trace-driven sampling of every kernel, training, and analysis of a
    held-out probe (the ``examples/trace_substrate.py`` flow)."""

    def __init__(self, data: dict, reference: bool):
        import repro.trace as trace
        from repro.core import SpireModel
        from repro.core.sample import SampleSet
        from repro.trace.kernels import KERNELS

        self.trace = trace
        self.model_class = SpireModel
        self.sample_set = SampleSet
        self.kernels = list(KERNELS)
        self.seeds = data["kernel_seeds"]
        self.probe_seed = data["probe_seed"]
        self.last = None

    def op(self):
        collect = self.trace.collect_trace_samples
        runs = [collect(kernel, seed=seed)
                for kernel, seed in zip(self.kernels, self.seeds)]
        pooled = self.sample_set()
        for run in runs:
            pooled.extend(run.samples)
        model = self.model_class.train(pooled)
        probe = collect("pointer_chase", n_uops=16_000, window_uops=2_000,
                        intensities=(0.85,), seed=self.probe_seed)
        report = model.analyze(probe.samples, workload="probe", top_k=6,
                               metric_areas=self.trace.TRACE_EVENT_AREAS)
        return runs, model, probe, report

    def settle(self, out):
        self.last = out
        runs, _, _, report = out
        return digest({
            "kernels": [
                [kernel, run.final_counters, run.instructions, run.cycles,
                 digest(run.samples.to_records())]
                for kernel, run in zip(self.kernels, runs)
            ],
            "probe": [[e.metric, e.estimate] for e in report.top(6)],
        }), 1

    def quality(self) -> dict:
        from repro.core.ensemble import mean_absolute_bound_violation

        if self.last is None:
            return {}
        _, model, probe, _ = self.last
        return {"bound_violation_ipc": mean_absolute_bound_violation(
            model, probe.samples)}

    def counts(self) -> dict:
        from repro.trace.wavefront import stats

        now = stats()
        return {"trace.uops": float(now.get("uops", 0)),
                "trace.uops_wavefront": float(now.get("uops_wavefront", 0))}

    def stamp(self) -> dict:
        return {}


class Stream:
    """One ``push_perf`` chunk per op.  Each of the input's streams goes
    to a fresh ingestor holding the reference model and ends with a
    flush; a pass feeds the streams one after another and ends with an
    output check over all of them."""

    def __init__(self, data: dict, reference: bool):
        from repro.core import SpireModel
        from repro.stream import StreamIngestor

        self.model = SpireModel.train(
            bench_inputs.load_columns(data["train_path"]))
        self.make = lambda: StreamIngestor(model=self.model)
        self.ingestor = self.make()
        self.streams = [stream["chunks"] for stream in data["streams"]]
        self.stream = 0
        self.cursor = 0
        self.outputs: list[dict] = []

    def op(self):
        self.ingestor.push_perf(self.streams[self.stream][self.cursor])
        self.cursor += 1

    def settle(self, out):
        if self.cursor < len(self.streams[self.stream]):
            return None, 0
        self.ingestor.flush()
        events = [[e.metric, e.window, e.action, e.violations, e.samples,
                   e.worst_excess] for e in self.ingestor.events]
        self.outputs.append({"events": events,
                             "model": self.ingestor.model().to_dict()})
        self.ingestor = self.make()
        self.cursor = 0
        self.stream += 1
        if self.stream < len(self.streams):
            return None, 0
        result = digest(self.outputs)
        self.outputs = []
        self.stream = 0
        return result, sum(len(chunks) for chunks in self.streams)

    def reference_pass(self):
        while True:
            self.op()
            result, _ = self.settle(None)
            if result is not None:
                return result

    def quality(self) -> dict:
        return {}

    def counts(self) -> dict:
        events = self.ingestor.events
        return {"stream.windows": float(self.ingestor.window_count),
                "stream.drift_events": float(len(events)),
                "stream.refits": float(sum(e.action == "refit"
                                           for e in events))}

    def stamp(self) -> dict:
        return {}


PROGRAMS = {"offline": Offline, "trace": Trace, "stream": Stream}


def load_inputs(workload: str, directory: Path) -> dict:
    data = json.loads((directory / "inputs.json").read_text())
    if workload in ("serve", "stream"):
        data["train_path"] = str(directory / "train.npz")
    return data


def environment() -> dict:
    """Facts that make two results comparable, or not."""
    stamp = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scalar_fallback": os.environ.get("SPIRE_SCALAR_FALLBACK", ""),
    }
    from repro.concurrency import available_cpus
    from repro.guard.dispatch import GuardConfig

    config = GuardConfig.from_env()
    stamp["available_cpus"] = available_cpus()
    stamp["guard.check_rate"] = config.check_rate
    stamp["guard.rate_overrides"] = dict(sorted(config.rate_overrides.items()))
    return stamp


def health() -> dict:
    from repro.guard.dispatch import health_report

    report = health_report()
    return {"checks": report.checks_run,
            "divergences": len(report.divergences)}


def peak_rss_mb() -> float:
    """Peak resident set of the process hosting the program or of any
    process it started (``offline`` runs its simulation in pool workers).

    Pools are shut down without waiting, so their workers are reaped
    first: ``RUSAGE_CHILDREN`` only covers children that were waited for.
    """
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def closed_loop(program, seconds: float, tracer=None,
                probe: bool = False) -> dict:
    """Run ops back to back for ``seconds``; time each, check outputs
    between ops (outside the timed region).  With a tracer, each op is a
    root span and the program's work counters are tallied per op.

    ``marks`` holds ``[ops done before it, median kernel seconds]`` for
    each calibration, so that each op can be scaled by the host speed
    around it (:func:`stats.op_speeds`).  With ``probe``, a
    :func:`stats.parse_probe` is timed every ``PROBE_EVERY_S`` instead, and
    ``probes`` holds ``[ops done before it, seconds]`` for each
    (:func:`stats.probe_op_speeds`)."""
    latencies: list[float] = []
    checks: list[list] = []
    errors: list[str] = []
    calibration: list[float] = []
    marks: list[list[float]] = []
    probes: list[list[float]] = []

    def calibrate() -> None:
        if probe:
            return
        samples = stats.calibrate(2)
        calibration.extend(samples)
        marks.append([len(latencies), statistics.median(samples)])

    next_calibration = 0.0
    deadline = time.monotonic() + seconds
    unchecked = 0  # ops since the last output check; a run ends checked
    while time.monotonic() < deadline or not latencies or unchecked:
        if time.monotonic() >= next_calibration:
            if probe:
                probes.append([len(latencies), stats.parse_probe()])
            calibrate()
            next_calibration = time.monotonic() + (
                PROBE_EVERY_S if probe else CALIBRATE_EVERY_S)
        before = program.counts() if tracer is not None else {}
        started = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.op():
                    out = program.op()
            else:
                out = program.op()
        except Exception as exc:  # an op that raises is a failed op
            # The program's state is unknown now: end the phase, and count
            # the ops since the last check as unchecked.
            errors.append(f"{type(exc).__name__}: {exc}")
            latencies.append((time.perf_counter() - started) * 1e3)
            break
        latencies.append((time.perf_counter() - started) * 1e3)
        if tracer is not None:
            for name, value in program.counts().items():
                tracer.count(name, value - before.get(name, 0.0))
        result, covered = program.settle(out)
        unchecked += 1
        if result is not None:
            checks.append([result, covered])
            unchecked = 0
    calibrate()
    return {"latencies_ms": latencies, "checks": checks, "errors": errors,
            "unchecked": unchecked, "calibration": calibration,
            "marks": marks, "probes": probes}


async def serve(data: dict, directory: Path, out: Path, t0: float,
                tracer, missing: list[str], calibration: list[float]) -> None:
    from repro.core import SpireModel
    from repro.serve import ServeConfig, SpireServer

    model = SpireModel.train(bench_inputs.load_columns(data["train_path"]))
    config = ServeConfig(port=0, store_dir=str(directory / f"models-{os.getpid()}"))
    server = SpireServer(config)
    server.registry.install(bench_inputs.MODEL, model)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    ready = directory / f"ready-{os.getpid()}.json"
    ready.with_suffix(".tmp").write_text(json.dumps({"t0": t0, "port": server.port}))
    ready.with_suffix(".tmp").replace(ready)
    probes: list[list[float]] = []

    async def sample_speed() -> None:
        while True:
            await asyncio.sleep(PROBE_EVERY_S)
            probes.append([time.monotonic(), stats.probe()])

    sampler = asyncio.create_task(sample_speed())
    await stop.wait()
    sampler.cancel()
    snapshot = server.registry.snapshot()
    await server.stop()
    stamp = environment()
    # Where the server listens and stores models differs on every run
    # without changing what is measured; the rest must match to compare.
    stamp["serve_config"] = {
        key: value for key, value in vars(config).items()
        if key not in ("host", "port", "store_dir", "sock")
        and (isinstance(value, (int, float, str, bool)) or value is None)
    }
    result = {
        "rss_mb": peak_rss_mb(),
        "health": health(),
        "registry": snapshot,
        "stamp": stamp,
        "missing_boundaries": missing,
        "probes": probes,
        "calibration": calibration,
    }
    if tracer is not None:
        tracer.dump(directory / f"spans-{os.getpid()}.json")
        result["spans_file"] = f"spans-{os.getpid()}.json"
    out.write_text(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*PROGRAMS, "serve"])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "run", "reference", "serve"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")

    data = load_inputs(args.workload, args.inputs)
    # A server has no idle moment between set-up and load, so its set-up
    # calibration is taken before the set-up clock starts.
    calibration = stats.calibrate(3) if args.mode == "serve" else []
    t0 = time.monotonic()
    if args.mode == "serve":
        tracer = None
        missing = []
        if args.trace:
            tracer = spans.Tracer()
            missing = spans.install(tracer)
        asyncio.run(serve(data, args.inputs, args.out, t0, tracer, missing,
                          calibration))
        return 0

    program = PROGRAMS[args.workload](data, reference=args.mode == "reference")
    setup_s = time.monotonic() - t0
    result: dict = {"setup_s": setup_s}
    probe = args.workload in stats.PROBED_WORKLOADS
    if args.mode == "setup":
        result["calibration"] = stats.calibrate(3)
    elif args.mode == "reference":
        if isinstance(program, Stream):
            result["digest"] = program.reference_pass()
        else:
            result["digest"] = program.settle(program.op())[0]
    elif args.mode == "run":
        seconds = args.seconds / 2 if args.trace else args.seconds
        result.update(closed_loop(program, seconds, probe=probe))
        if args.trace:
            tracer = spans.Tracer()
            result["missing_boundaries"] = spans.install(tracer)
            checks_before = health()["checks"]
            result["traced"] = closed_loop(program, seconds, tracer, probe)
            tracer.count("guard.checks", health()["checks"] - checks_before)
            tracer.dump(args.inputs / "spans.json")
            result["spans_file"] = "spans.json"
        result["quality"] = program.quality()
        result["health"] = health()
        result["stamp"] = {**environment(), **program.stamp()}
        result["rss_mb"] = peak_rss_mb()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
