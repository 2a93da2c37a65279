"""Benchmarks for the extension features beyond the paper's evaluation.

These cover the follow-ups the paper itself proposes:

- §III-A: training on purpose-built **microbenchmarks** instead of (or in
  addition to) applications;
- §V: a **more robust positive/negative metric detector** ("trend" fitting
  mode) that removes the BP.1 right-region defect;
- §III-C: treating a *pool* of low-valued metrics as bottlenecks —
  quantified here with **bootstrap confidence intervals**;
- model-health utilities: cross-validated bound violations and ranking
  stability.
"""

import random

from conftest import write_artifact

from repro.core import (
    NEGATIVE_METRIC,
    RooflineFitOptions,
    SpireModel,
    TrainOptions,
    bootstrap_estimates,
    cross_validate,
    rank_stability,
)
from repro.core.ensemble import mean_absolute_bound_violation
from repro.core.sample import SampleSet
from repro.counters import CollectionConfig, SampleCollector
from repro.uarch import CoreModel
from repro.workloads import microbenchmark_suite

BP1 = "br_misp_retired.all_branches"


# ---------------------------------------------------------------------------
# Robust direction detection (trend mode)
# ---------------------------------------------------------------------------


def test_extension_direction_mode(benchmark, experiment):
    samples = experiment.training_samples
    options = TrainOptions(roofline=RooflineFitOptions(direction_mode="trend"))

    def train_trend():
        return SpireModel.train(samples, options=options)

    trend_model = benchmark.pedantic(train_trend, rounds=1, iterations=1)
    paper_model = experiment.model

    paper_bp1 = paper_model.roofline(BP1)
    trend_bp1 = trend_model.roofline(BP1)

    lines = [
        "EXTENSION — trend-based direction detection (fixes Fig. 7 BP.1 defect)",
        f"BP.1 direction detected: {trend_bp1.direction}",
        f"  paper-mode tail P at I=1e9:  {paper_bp1.estimate(1e9):.3f} "
        f"(apex {paper_bp1.apex.y:.3f})",
        f"  trend-mode tail P at I=1e9:  {trend_bp1.estimate(1e9):.3f} "
        f"(apex {trend_bp1.apex.y:.3f})",
    ]
    directions = {}
    for metric in trend_model.metrics:
        directions.setdefault(trend_model.roofline(metric).direction, []).append(
            metric
        )
    for direction, metrics in sorted(directions.items()):
        lines.append(f"  {direction}: {len(metrics)} metrics")
    text = "\n".join(lines)
    print()
    print(text)
    write_artifact("extension_direction.txt", text)

    # The defect: paper mode drops the bound past the apex on a clearly
    # negative metric; trend mode holds it at the apex.
    assert trend_bp1.direction == NEGATIVE_METRIC
    assert paper_bp1.estimate(1e9) < paper_bp1.apex.y
    assert trend_bp1.estimate(1e9) == trend_bp1.apex.y
    # EXPERIMENTS.md's extension row, at its rounding.
    assert round(paper_bp1.estimate(1e9), 2) == 3.61
    assert round(trend_bp1.estimate(1e9), 2) == 3.68
    counts = {direction: len(metrics) for direction, metrics in directions.items()}
    assert counts == {"negative": 33, "positive": 1, "mixed": 26}


# ---------------------------------------------------------------------------
# Microbenchmark training (§III-A's "ideally, microbenchmarks")
# ---------------------------------------------------------------------------


def test_extension_microbench_training(benchmark, experiment):
    machine = experiment.machine
    core = CoreModel(machine)
    collector = SampleCollector(machine, config=CollectionConfig())

    def collect_microbench_samples():
        pooled = SampleSet()
        for index, workload in enumerate(microbenchmark_suite(steps=12)):
            specs = workload.specs(360, 20_000)
            pooled.extend(
                collector.collect(core, specs, rng=random.Random(50 + index)).samples
            )
        return pooled

    micro_samples = benchmark.pedantic(
        collect_microbench_samples, rounds=1, iterations=1
    )
    micro_model = SpireModel.train(micro_samples)

    test_samples = SampleSet()
    for run in experiment.testing_runs.values():
        test_samples.extend(run.collection.samples)

    app_violation = mean_absolute_bound_violation(experiment.model, test_samples)
    micro_violation = mean_absolute_bound_violation(micro_model, test_samples)

    lines = [
        "EXTENSION — microbenchmark-trained vs application-trained SPIRE",
        f"  microbenchmark suite: {len(microbenchmark_suite())} sweeps, "
        f"{len(micro_samples)} samples, {len(micro_model)} rooflines",
        f"  held-out bound violation (apps trained on 23 apps): "
        f"{app_violation:.4f} IPC",
        f"  held-out bound violation (trained on microbenchmarks): "
        f"{micro_violation:.4f} IPC",
    ]
    limiting = {}
    for name, run in experiment.testing_runs.items():
        estimate = micro_model.estimate(run.collection.samples)
        limiting[name] = estimate.limiting_metric
        lines.append(
            f"  {name:<24} measured {run.measured_ipc:5.2f}  "
            f"ubench-model bound {estimate.throughput:5.2f}  "
            f"limited by {estimate.limiting_metric}"
        )
    text = "\n".join(lines)
    print()
    print(text)
    write_artifact("extension_microbench.txt", text)

    # The microbenchmark model must cover the same metrics and produce
    # usable (same order of magnitude) bounds on real workloads; at
    # EXPERIMENTS.md's rounding its held-out violation beats the
    # application model's, and L3 misses limit ONNX.
    assert set(micro_model.metrics) == set(experiment.model.metrics)
    assert round(micro_violation, 4) == 0.0011
    assert round(app_violation, 4) == 0.0024
    assert limiting["onnx"] == "longest_lat_cache.miss"


# ---------------------------------------------------------------------------
# Bootstrap bottleneck pool
# ---------------------------------------------------------------------------


def test_extension_bootstrap_pool(benchmark, experiment):
    samples = experiment.testing_runs["parboil-cutcp"].collection.samples
    model = experiment.model

    result = benchmark.pedantic(
        bootstrap_estimates,
        args=(model, samples),
        kwargs={"resamples": 100, "rng": random.Random(3)},
        rounds=1,
        iterations=1,
    )

    text = (
        "EXTENSION — bootstrap bottleneck pool (parboil-cutcp)\n"
        + result.render(12)
        + f"\npool size (CI-overlap rule): {len(result.pool())}"
    )
    print()
    print(text)
    write_artifact("extension_bootstrap.txt", text)

    pool = result.pool()
    assert pool[0].metric == result.ranked()[0].metric
    shares = sum(i.first_rank_share for i in result.intervals)
    assert abs(shares - 1.0) < 1e-9
    # The lock-load metric dominates the resamples for this workload.
    assert result.ranked()[0].metric == "mem_inst_retired.lock_loads"


# ---------------------------------------------------------------------------
# Model health: cross-validation + rank stability
# ---------------------------------------------------------------------------


def test_extension_model_health(benchmark, experiment):
    samples = experiment.training_samples
    restricted = samples.restricted_to(
        ["br_misp_retired.all_branches", "longest_lat_cache.miss",
         "idq.dsb_uops", "resource_stalls.any"]
    )

    report = benchmark.pedantic(
        cross_validate,
        args=(restricted,),
        kwargs={"k": 4, "rng": random.Random(9)},
        rounds=1,
        iterations=1,
    )

    stability = rank_stability(
        experiment.model,
        experiment.testing_runs["tnn"].collection.samples,
        top_k=10,
        resamples=30,
        rng=random.Random(4),
    )

    text = (
        "EXTENSION — model health\n"
        "4-fold cross-validated bound violations (4 metrics):\n"
        + report.render()
        + f"\n\ntop-10 rank stability on tnn under resampling: {stability:.2f}"
    )
    print()
    print(text)
    write_artifact("extension_health.txt", text)

    # Held-out violations must be rare and small for converged envelopes,
    # and the tnn ranking must be essentially stable.
    assert report.mean_violation_fraction < 0.2
    assert report.mean_violation < 0.05
    assert stability >= 0.83
