"""SPIRE repository benchmark: four workloads behind one command.

    python3 perfbench/run.py --workload offline|trace|serve|stream \
        --seed N --seconds S --trace 0|1

Generates the workload's inputs from ``--seed``, computes the reference
answers, sets the program up several times in fresh processes, runs it
closed-loop for ``--seconds`` and checks every output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` splits the time between an
untraced and a traced phase and reports per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import client  # noqa: E402
import inputs as bench_inputs  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("offline", "trace", "serve", "stream")

#: Set-ups per run, each in a fresh process; ``setup_s`` is the median.
SETUPS = 5

#: Time a run may take beyond ``--seconds``: inputs, references, set-ups,
#: the op that straddles the end of the timed phase, and the checks.
MARGIN_S = 155.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {name: "ms" for name in spans.LAYER_METRICS.values()}
PER_LAYER.update({
    "serve.http.self_ms": "ms",
    "unattributed_ms": "ms",
    "op_wall_ms": "ms",
    "attribution_gap": "ratio",
    "trace.overhead_ratio": "ratio",
    "runtime.worker_ms": "ms",
    "runtime.jobs": "count",
    "uarch.windows": "count",
    "core.sanitize.quarantined": "count",
    "trace.span_coverage": "ratio",
    "trace.uops": "count",
    "serve.batching.fill": "count",
    "serve.registry.hit_ratio": "ratio",
    "serve.refused": "count",
    "stream.refits": "count",
    "stream.windows": "count",
    "stream.drift_events": "count",
    "guard.checks": "count",
    "guard.divergences": "count",
})

#: Counters tallied per op by the host (reported per op).
PER_OP_COUNTS = ("runtime.worker_ms", "uarch.windows",
                 "core.sanitize.quarantined", "trace.uops", "stream.refits",
                 "stream.windows", "stream.drift_events", "guard.checks")

#: Attribution must account for the op wall time within this share.
ATTRIBUTION_TOLERANCE = 0.05


class Hosts:
    """Program processes started by this run; all are stopped and reaped."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.procs: list[subprocess.Popen] = []
        self.count = 0

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def start(self, workload: str, mode: str, seconds: float = 0.0,
              trace: bool = False, env: "dict | None" = None):
        self.count += 1
        out = self.work / f"{mode}-{self.count}.json"
        log = open(self.work / f"{mode}-{self.count}.log", "wb")
        command = [sys.executable, str(HERE / "host.py"),
                   "--workload", workload, "--inputs", str(self.work),
                   "--out", str(out), "--mode", mode,
                   "--seconds", str(seconds)]
        if trace:
            command.append("--trace")
        proc = subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT,
            env={**os.environ, **(env or {})},
        )
        log.close()
        proc.out = out
        proc.log = self.work / f"{mode}-{self.count}.log"
        self.procs.append(proc)
        return proc

    def result(self, proc) -> dict:
        """Wait for ``proc`` and return its JSON result."""
        try:
            code = proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            self.kill(proc)
            raise RuntimeError(f"program host timed out: {proc.args}")
        if code != 0 or not proc.out.exists():
            tail = proc.log.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"program host failed ({code}):\n{tail}")
        return json.loads(proc.out.read_text())

    def run(self, workload: str, mode: str, **kwargs) -> dict:
        return self.result(self.start(workload, mode, **kwargs))

    def stop(self, proc) -> dict:
        """SIGTERM a server host and return its JSON result."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        return self.result(proc)

    def kill(self, proc) -> None:
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    def close(self) -> None:
        for proc in self.procs:
            self.kill(proc)


# ---------------------------------------------------------------------------
# Inputs and references
# ---------------------------------------------------------------------------

def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the program's inputs; return what the checks need."""
    data: dict = {}
    context: dict = {}
    if workload == "offline":
        data["seed"] = seed
    elif workload == "trace":
        rng = random.Random(f"trace:{seed}")
        data["kernel_seeds"] = [rng.randrange(2**31) for _ in range(16)]
        data["probe_seed"] = rng.randrange(2**31)
    else:
        result = bench_inputs.experiment(seed)
        bench_inputs.save_columns(work / "train.npz", result.training_samples)
        context["result"] = result
        if workload == "serve":
            context["pool"] = bench_inputs.serve_bodies(result, seed)
        else:
            data["streams"] = bench_inputs.stream_inputs(seed)
            context["pass_ops"] = sum(len(stream["chunks"])
                                      for stream in data["streams"])
    (work / "inputs.json").write_text(json.dumps(data))
    return context


def expected_answer(result, entry: dict) -> dict:
    """What the unbatched library calls return for one request body."""
    from repro.core.sample import Sample, SampleSet
    from repro.counters.events import default_catalog
    from repro.tma.drilldown import drilldown
    from repro.tma.topdown import TopDownAnalyzer
    from repro.uarch.config import skylake_gold_6126

    run = result.testing_runs[entry["workload"]]
    records = run.collection.samples.to_records()
    rows = records[entry["start"]:entry["start"] + entry["rows"]]
    samples = SampleSet([Sample(**row) for row in rows])
    estimate = result.model.estimate(samples)
    answer = {
        "throughput": estimate.throughput,
        "limiting_metric": estimate.limiting_metric,
        "per_metric": estimate.per_metric,
        "sample_counts": estimate.sample_counts,
        "skipped_metrics": estimate.skipped_metrics,
    }
    if entry["kind"] == "analyze":
        areas = default_catalog().areas()
        answer["ranking"] = [
            {"metric": e.metric, "estimate": e.estimate,
             "sample_count": e.sample_count, "area": areas.get(e.metric, "")}
            for e in estimate.ranked()
        ]
        answer["measured_throughput"] = samples.measured_throughput()
        tma = TopDownAnalyzer(skylake_gold_6126()).analyze(
            run.collection.full_counts)
        answer["tma"] = {"main_bottleneck": tma.main_bottleneck(),
                         "path": drilldown(tma).path}
    return json.loads(json.dumps(answer))


def answer_matches(body: bytes, expected: dict) -> bool:
    try:
        got = json.loads(body)
    except ValueError:
        return False
    for key, want in expected.items():
        if key == "tma":
            tma = got.get("tma") or {}
            have = {"main_bottleneck": tma.get("main_bottleneck"),
                    "path": (tma.get("drilldown") or {}).get("path")}
            if have != want:
                return False
        elif got.get(key) != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Workload drivers
# ---------------------------------------------------------------------------

def drive_host(hosts: Hosts, workload: str, seconds: float, trace: bool,
               outcomes: stats.Outcomes, pass_ops: "int | None" = None) -> dict:
    """offline / trace / stream: the program runs inside its host.

    With ``pass_ops`` (``stream``: the ops of one pass over the input,
    which the closed loop repeats), the latency percentiles are taken
    over the median time of each op across the passes
    (:func:`stats.position_medians`); ``ops_per_s`` counts every op."""
    reference = hosts.run(workload, "reference",
                          env={"SPIRE_SCALAR_FALLBACK": "1"})["digest"]
    setup_runs = [] if trace else [
        hosts.run(workload, "setup") for _ in range(SETUPS - 1)
    ]
    run = hosts.run(workload, "run", seconds=seconds, trace=trace)
    setups = [r["setup_s"] for r in setup_runs] + [run["setup_s"]]
    for phase in [run] + ([run["traced"]] if trace else []):
        ops = len(phase["latencies_ms"])
        bad = sum(n for got, n in phase["checks"] if got != reference)
        errors = len(phase["errors"])
        outcomes.fail("exception", errors)
        outcomes.fail("mismatch", bad)
        outcomes.fail("unchecked", phase["unchecked"])
        outcomes.ok(ops - errors - bad - phase["unchecked"])
    latencies = run["latencies_ms"]
    timed = run["traced"] if trace else run
    if workload in stats.PROBED_WORKLOADS:
        speeds = stats.probe_op_speeds(run["probes"], len(latencies))
        speed = stats.probe_speed([seconds for _, seconds in timed["probes"]],
                                  stats.REFERENCE_PARSE_PROBE_S)
    else:
        speeds = stats.op_speeds(run["marks"], len(latencies))
        speed = stats.host_speed(timed["calibration"])
    # Each op at the host speed measured around it.
    scaled = [ms / s for ms, s in zip(latencies, speeds)]
    setup_calibration = sum((r["calibration"] for r in setup_runs), [])
    ops_per_s = len(latencies) / (sum(latencies) / 1e3)
    scaled_ops_per_s = len(scaled) / (sum(scaled) / 1e3)
    if pass_ops and len(latencies) >= pass_ops:
        latencies = stats.position_medians(latencies, pass_ops)
        scaled = stats.position_medians(scaled, pass_ops)
    return {
        "setups": setups,
        "speed": speed,
        # A traced run sets up once and takes no set-up calibration.
        "setup_speed": (stats.host_speed(setup_calibration)
                        if setup_calibration else speed),
        "ops": len(run["latencies_ms"]),
        "latencies_ms": latencies,
        "ops_per_s": ops_per_s,
        "scaled_ms": scaled,
        "scaled_ops_per_s": scaled_ops_per_s,
        "rss_mb": run["rss_mb"],
        "health": run["health"],
        "stamp": run["stamp"],
        "quality": run["quality"],
        "errors": run["errors"][:3],
        "run": run,
    }


def start_server(hosts: Hosts, trace: bool):
    """Start a server host; return (proc, port, setup seconds)."""
    proc = hosts.start("serve", "serve", trace=trace)
    ready = hosts.work / f"ready-{proc.pid}.json"
    while not ready.exists():
        if proc.poll() is not None or time.monotonic() > hosts.deadline:
            hosts.result(proc)  # raises with the host's log
            raise RuntimeError("server host exited before it was ready")
        time.sleep(0.002)
    info = json.loads(ready.read_text())
    while not client.health_ok(info["port"]):
        if proc.poll() is not None or time.monotonic() > hosts.deadline:
            raise RuntimeError("server never answered /health")
        time.sleep(0.002)
    return proc, info["port"], time.monotonic() - info["t0"]


def phase_speed(server: dict, load: dict) -> float:
    """Host speed from the probes the server took during ``load``."""
    start, end = load["window"]
    return stats.probe_speed([seconds for at, seconds in server["probes"]
                              if start <= at <= end])


def timed_load(port: int, pool: list, seed: int, connections: int,
               seconds: float) -> dict:
    orders = [bench_inputs.request_order(len(pool), seed, c)
              for c in range(connections)]
    return client.run_load(port, pool, orders, seconds)


def score_load(load: dict, expected: list, outcomes: stats.Outcomes) -> None:
    outcomes.fail("connection", len(load["errors"]))
    for (index, status, body), count in load["answers"].items():
        matches = status == 200 and answer_matches(body, expected[index])
        outcomes.status(status, matches, count)


def drive_serve(hosts: Hosts, seed: int, seconds: float, trace: bool,
                context: dict, outcomes: stats.Outcomes) -> dict:
    pool = context["pool"]
    expected = [expected_answer(context["result"], entry) for entry in pool]
    connections = min(2, os.cpu_count() or 1)
    setups = []
    setup_calibration = []
    phases = []
    for index in range(1 if trace else SETUPS):
        proc, port, setup_s = start_server(hosts, trace=False)
        setups.append(setup_s)
        if index < SETUPS - 1 and not trace:
            setup_calibration += hosts.stop(proc)["calibration"]
    phases.append(timed_load(port, pool, seed, connections,
                             seconds / 2 if trace else seconds))
    server = hosts.stop(proc)
    setup_calibration += server["calibration"]
    speed = phase_speed(server, phases[0])
    traced_server = None
    if trace:
        proc, port, _ = start_server(hosts, trace=True)
        phases.append(timed_load(port, pool, seed, connections, seconds / 2))
        traced_server = hosts.stop(proc)
        speed = phase_speed(traced_server, phases[1])
    for load in phases:
        score_load(load, expected, outcomes)
    load = phases[0]
    ops_per_s = len(load["latencies_ms"]) / load["elapsed_s"]
    return {
        "setups": setups,
        "speed": speed,
        "setup_speed": stats.host_speed(setup_calibration),
        "ops": len(load["latencies_ms"]),
        "latencies_ms": load["latencies_ms"],
        "ops_per_s": ops_per_s,
        "scaled_ms": [ms / speed for ms in load["latencies_ms"]],
        "scaled_ops_per_s": ops_per_s * speed,
        "rss_mb": server["rss_mb"],
        "health": server["health"],
        "stamp": server["stamp"],
        "quality": {},
        "errors": load["errors"][:3],
        "phases": phases,
        "traced_server": traced_server,
        "connections": connections,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(measured: dict, scaled: bool) -> dict:
    """End-to-end values: raw, as measured on this host, or ``scaled`` to
    the reference host's speed (ops by the speed measured around them,
    set-ups by the speed measured in the set-up processes)."""
    if scaled:
        latencies = measured["scaled_ms"]
        ops_per_s = measured["scaled_ops_per_s"]
        setup_speed = measured["setup_speed"]
    else:
        latencies = measured["latencies_ms"]
        ops_per_s = measured["ops_per_s"]
        setup_speed = 1.0
    _, p_tail, _ = stats.tail(latencies)
    return {
        "setup_s": statistics.median(measured["setups"]) / setup_speed,
        "ops_per_s": ops_per_s,
        "op_p50_ms": statistics.median(latencies),
        "op_p99_ms": p_tail,
        "peak_rss_mb": measured["rss_mb"],
    }


def at_reference_speed(values: dict, units: dict, speed: float) -> dict:
    """Scale times down and rates up by how slow this host ran, as timed
    by the kernel between the ops of the phase the values come from."""
    scale = {"s": 1 / speed, "ms": 1 / speed, "op/s": speed}
    return {name: value * scale.get(units[name], 1.0)
            for name, value in values.items()}


def per_layer(workload: str, measured: dict, work: Path,
              outcomes: stats.Outcomes) -> "tuple[dict, list[str], list[str]]":
    """Per-op layer metrics from the traced phase; returns (metrics,
    problems that make the run incorrect, notes)."""
    metrics = {name: 0.0 for name in PER_LAYER}
    problems: list[str] = []
    notes: list[str] = []
    if workload == "serve":
        server = measured["traced_server"]
        untraced, traced = measured["phases"]
        span_file = work / server["spans_file"]
        client_ms = traced["latencies_ms"]
        ops = len(client_ms)
        wall_ms = sum(client_ms)
        traced_rate = ops / traced["elapsed_s"]
        untraced_rate = len(untraced["latencies_ms"]) / untraced["elapsed_s"]
        registry = server["registry"]
        lookups = registry.get("hits", 0) + registry.get("misses", 0)
        metrics["serve.registry.hit_ratio"] = (
            registry.get("hits", 0) / lookups if lookups else 0.0)
        metrics["serve.refused"] = float(outcomes.refused)
        metrics["guard.checks"] = server["health"]["checks"] / max(ops, 1)
        metrics["guard.divergences"] = float(server["health"]["divergences"])
        missing = server.get("missing_boundaries", [])
    else:
        run = measured["run"]
        span_file = work / run["spans_file"]
        traced_ms = run["traced"]["latencies_ms"]
        ops = len(traced_ms)
        wall_ms = None
        traced_rate = ops / (sum(traced_ms) / 1e3)
        untraced_rate = measured["ops_per_s"]
        metrics["guard.divergences"] = float(run["health"]["divergences"])
        missing = run.get("missing_boundaries", [])
    if missing:
        notes.append("boundaries missing from the program: "
                     + ", ".join(missing))

    span_list, links, counts = spans.load(span_file)
    if counts.get("hook_errors"):
        notes.append(f"{counts['hook_errors']:.0f} counter hook failure(s)")
    layers, unattributed, roots_wall, roots = spans.attribute(span_list, links)
    if workload != "serve":
        wall_ms = roots_wall / 1e6
    elif roots != ops:
        notes.append(f"server traced {roots} requests, client sent {ops}")
    for layer, name in spans.LAYER_METRICS.items():
        metrics[name] = layers.get(layer, 0) / 1e6 / ops
    metrics["unattributed_ms"] = unattributed / 1e6 / ops
    if workload == "serve":
        metrics["serve.http.self_ms"] = (wall_ms - roots_wall / 1e6) / ops
    metrics["op_wall_ms"] = wall_ms / ops
    accounted = sum(layers.values()) / 1e6 + unattributed / 1e6
    if workload == "serve":
        accounted += wall_ms - roots_wall / 1e6
    gap = abs(accounted - wall_ms) / wall_ms if wall_ms else 0.0
    metrics["attribution_gap"] = gap
    if gap > ATTRIBUTION_TOLERANCE or metrics["serve.http.self_ms"] < 0:
        problems.append(f"layers account for {accounted:.1f} of "
                        f"{wall_ms:.1f} ms")

    for name in PER_OP_COUNTS:
        if name in counts:
            metrics[name] = counts[name] / ops
    if "runtime.jobs" in counts:
        metrics["runtime.jobs"] = counts["runtime.jobs"]
    if counts.get("trace.uops"):
        metrics["trace.span_coverage"] = (
            counts.get("trace.uops_wavefront", 0.0) / counts["trace.uops"])
    if counts.get("serve.batching.calls"):
        metrics["serve.batching.fill"] = (
            counts["serve.batching.requests"] / counts["serve.batching.calls"])
    metrics["trace.overhead_ratio"] = traced_rate / untraced_rate
    return metrics, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    hosts = Hosts(work, started + args.seconds + MARGIN_S)
    outcomes = stats.Outcomes()
    trace = bool(args.trace)
    try:
        context = prepare(args.workload, args.seed, work)
        if args.workload == "serve":
            measured = drive_serve(hosts, args.seed, args.seconds, trace,
                                   context, outcomes)
        else:
            measured = drive_host(hosts, args.workload, args.seconds, trace,
                                  outcomes, context.get("pass_ops"))
        problems, notes = [], []
        speed, setup_speed = measured["speed"], measured["setup_speed"]
        if trace:
            raw, problems, notes = per_layer(args.workload, measured,
                                             work, outcomes)
            units = PER_LAYER
            values = at_reference_speed(raw, units, speed)
        else:
            raw, units = end_to_end(measured, scaled=False), END_TO_END
            values = end_to_end(measured, scaled=True)
    finally:
        hosts.close()
        if sys.exc_info()[0] is not None:
            shutil.rmtree(work, ignore_errors=True)

    divergences = measured["health"]["divergences"]
    if divergences:
        problems.append(f"{divergences} guard divergence(s)")
    stamp = {**measured["stamp"], "connections": measured.get("connections", 1)}
    tail_pct, _, beyond = stats.tail(measured["latencies_ms"])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": measured["ops"],
        # Latencies the percentiles were taken over: one per op, or for
        # ``stream`` one per op of a pass (its median over the passes).
        "percentile_ops": len(measured["latencies_ms"]),
        "tail_percentile": tail_pct,
        "beyond_tail": beyond,
        "fail_ratio": outcomes.ratio,
        "fail_reasons": outcomes.reasons,
        "errors": measured["errors"],
        "quality": measured["quality"],
        "host_speed": speed,
        "setup_host_speed": setup_speed,
        "problems": problems,
        "notes": notes,
        "elapsed_s": time.monotonic() - started,
    }
    record = {"summary": summary, "stamp": stamp,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()},
              "raw": raw}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload:<8} host ran {speed:.3f}x slower than the "
          "reference; values at reference speed (raw as measured)")
    for name, value in values.items():
        print(f"{args.workload:<8} {name:<28} {value:>14.4f} {units[name]:<6}"
              f" (raw {raw[name]:.4f})")
    print(f"{args.workload:<8} {'fail_ratio':<28} {outcomes.ratio:>14.4f} "
          f"failed/attempted ({outcomes.failed}/{outcomes.attempted})")
    for name, value in measured["quality"].items():
        unit = "IPC" if name == "bound_violation_ipc" else "share"
        print(f"{args.workload:<8} {name:<28} {value:>14.4f} {unit}")
    print("summary: " + json.dumps(summary, sort_keys=True))
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": outcomes.failed == 0 and not problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
