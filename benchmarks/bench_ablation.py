"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. Right-fit optimality — Dijkstra over the segment graph vs a greedy
   concave-up walk.
2. Time-weighted averaging (Eq. 1) vs an unweighted mean of per-sample
   estimates.
3. Ensemble aggregation — minimum vs mean of the per-metric averages.
4. Training-set size — how the learned bound tightens from 1 to 23
   training workloads.
5. Multiplexing window — sample-period length vs estimation stability.
"""

import random

from conftest import write_artifact

from repro.core import SpireModel, time_weighted_average
from repro.core.ensemble import mean_absolute_bound_violation
from repro.core.right_fit import fit_right_region
from repro.core.sample import SampleSet
from repro.counters import CollectionConfig, SampleCollector
from repro.geometry.pareto import pareto_front
from repro.pipeline import ExperimentConfig, run_workload
from repro.uarch import CoreModel
from repro.workloads import testing_suite as load_testing_suite
from repro.workloads import training_suite as load_training_suite


# ---------------------------------------------------------------------------
# 1. Right-fit: Dijkstra vs greedy
# ---------------------------------------------------------------------------


def greedy_right_fit_error(points, apex):
    """A greedy concave-up walk: always take the next admissible point."""
    front = pareto_front(list(points) + [apex])
    last = len(front) - 1
    apex_y = front[last][1]
    error = 0.0
    current = 0
    previous_slope = 0.0
    position = 1
    while position <= last:
        (ax, ay) = front[current]
        (bx, by) = front[position]
        slope = (by - ay) / (bx - ax)
        ok = slope <= previous_slope + 1e-12
        if ok:
            for k in range(current + 1, position):
                value = ay + (front[k][0] - ax) * slope
                if value < front[k][1] - 1e-9:
                    ok = False
                    break
        if ok:
            for k in range(current + 1, position):
                value = ay + (front[k][0] - ax) * slope
                error += max(0.0, value - front[k][1]) ** 2
            previous_slope = slope
            current = position
        position += 1
    error += sum((apex_y - front[k][1]) ** 2 for k in range(current + 1, last))
    return error


def test_ablation_right_fit_optimality(benchmark, experiment):
    roofline = experiment.model.roofline("idq.dsb_uops")
    apex = (roofline.apex.x, roofline.apex.y)
    points = [
        (x, y)
        for x, y in roofline.training_points
        if x >= apex[0] and x != float("inf")
    ]

    result = benchmark(fit_right_region, points, apex)
    greedy_error = greedy_right_fit_error(points, apex)

    text = (
        "ABLATION 1 — right-fit search strategy (DB.2 roofline)\n"
        f"  Dijkstra shortest-path error: {result.total_error:.4f}\n"
        f"  greedy concave walk error:    {greedy_error:.4f}\n"
        f"  improvement: {greedy_error - result.total_error:.4f}"
    )
    print()
    print(text)
    write_artifact("ablation1_right_fit.txt", text)
    assert result.total_error <= greedy_error + 1e-9


# ---------------------------------------------------------------------------
# 2. Eq. 1 time weighting vs unweighted mean
# ---------------------------------------------------------------------------


def test_ablation_time_weighting(benchmark, experiment):
    samples = experiment.testing_runs["parboil-cutcp"].collection.samples
    model = experiment.model

    def twa_rank():
        return model.estimate(samples).ranked()[0].metric

    benchmark(twa_rank)

    lines = ["ABLATION 2 — Eq. 1 time weighting vs unweighted mean"]
    max_delta = 0.0
    for metric in list(model.metrics)[:50]:
        group = samples.for_metric(metric)
        if not group:
            continue
        roofline = model.roofline(metric)
        estimates = [roofline.estimate(s.intensity) for s in group]
        weighted = time_weighted_average(estimates, [s.time for s in group])
        unweighted = sum(estimates) / len(estimates)
        delta = abs(weighted - unweighted)
        max_delta = max(max_delta, delta)
        if delta > 0.01:
            lines.append(
                f"  {metric:<48} TWA {weighted:6.3f}  mean {unweighted:6.3f}"
            )
    lines.append(f"  max |TWA - mean| across metrics: {max_delta:.4f}")
    text = "\n".join(lines)
    print()
    print(text)
    write_artifact("ablation2_time_weighting.txt", text)
    # Periods have heterogeneous lengths, so weighting must matter.
    assert max_delta > 1e-4


# ---------------------------------------------------------------------------
# 3. Ensemble aggregation: min vs mean
# ---------------------------------------------------------------------------


def test_ablation_ensemble_aggregation(benchmark, experiment):
    model = experiment.model

    def min_estimate(samples):
        return model.estimate(samples).throughput

    samples = experiment.testing_runs["onnx"].collection.samples
    benchmark(min_estimate, samples)

    from repro.core.aggregation import (
        kth_smallest_aggregator,
        mean_aggregator,
        min_aggregator,
        softmin_aggregator,
    )

    aggregators = {
        "min": min_aggregator,
        "softmin": softmin_aggregator(0.02),
        "2nd": kth_smallest_aggregator(2),
        "mean": mean_aggregator,
    }
    lines = [
        "ABLATION 3 — ensemble aggregation of the per-metric averages",
        f"{'workload':<24} {'measured':>9} "
        + " ".join(f"{name:>8}" for name in aggregators),
        "-" * 72,
    ]
    for name, run in experiment.testing_runs.items():
        estimate = model.estimate(run.collection.samples)
        values = {
            agg_name: estimate.aggregate(agg)
            for agg_name, agg in aggregators.items()
        }
        lines.append(
            f"{name:<24} {run.measured_ipc:>9.2f} "
            + " ".join(f"{values[agg_name]:>8.2f}" for agg_name in aggregators)
        )
        # The min is the model's bound; softmin tracks it closely; the mean
        # grossly over-estimates because most metrics are not the
        # bottleneck.
        assert values["min"] <= values["softmin"] <= values["mean"]
        assert values["min"] <= values["2nd"]
        assert values["mean"] > 1.2 * values["min"]
        assert values["softmin"] < 1.25 * values["min"]
    text = "\n".join(lines)
    print()
    print(text)
    write_artifact("ablation3_aggregation.txt", text)


# ---------------------------------------------------------------------------
# 4. Training-set size sweep
# ---------------------------------------------------------------------------


def test_ablation_training_set_size(benchmark, experiment):
    names = list(experiment.training_runs)
    test_samples = SampleSet()
    for run in experiment.testing_runs.values():
        test_samples.extend(run.collection.samples)

    def train_on(k):
        pooled = SampleSet()
        for name in names[:k]:
            pooled.extend(experiment.training_runs[name].collection.samples)
        return SpireModel.train(pooled)

    benchmark(train_on, 5)

    lines = [
        "ABLATION 4 — training-set size vs held-out bound violations",
        f"{'workloads':>9} {'metrics':>8} {'mean violation (IPC)':>22}",
        "-" * 44,
    ]
    violations = {}
    for k in (1, 3, 7, 12, 23):
        model = train_on(k)
        violation = mean_absolute_bound_violation(model, test_samples)
        violations[k] = violation
        lines.append(f"{k:>9} {len(model):>8} {violation:>22.4f}")
    text = "\n".join(lines)
    print()
    print(text)
    write_artifact("ablation4_training_size.txt", text)

    # More training workloads -> higher envelope -> fewer held-out
    # violations (the paper's claim that many varied samples substitute
    # for microbenchmarks).
    assert violations[23] <= violations[1]
    assert violations[23] <= violations[3]
    # The 23-application model's held-out violation, as EXPERIMENTS.md
    # reports it: a model or collection regression moves it.
    assert round(violations[23], 4) == 0.0024


# ---------------------------------------------------------------------------
# 5. Multiplexing window sweep
# ---------------------------------------------------------------------------


def test_ablation_multiplex_window(benchmark, experiment):
    machine = experiment.machine
    test_workload = load_testing_suite()[0]
    train_workloads = load_training_suite()[:6]

    def collect_all(windows_per_period):
        config = CollectionConfig(windows_per_period=windows_per_period)
        collector = SampleCollector(machine, config=config)
        core = CoreModel(machine)
        pooled = SampleSet()
        for index, workload in enumerate(train_workloads):
            specs = workload.specs(240, 20_000)
            rng = random.Random(1000 + index)
            pooled.extend(collector.collect(core, specs, rng=rng).samples)
        test = collector.collect(
            core, test_workload.specs(120, 20_000), rng=random.Random(77)
        )
        return pooled, test

    benchmark(collect_all, 24)

    lines = [
        "ABLATION 5 — multiplexing sample-period length",
        f"{'windows/period':>14} {'samples/metric':>15} {'estimate':>9} "
        f"{'measured':>9}",
        "-" * 52,
    ]
    estimates = {}
    for period in (6, 24, 96):
        pooled, test = collect_all(period)
        model = SpireModel.train(pooled)
        estimate = model.estimate(test.samples).throughput
        per_metric = len(pooled) / max(1, len(pooled.metrics()))
        estimates[period] = estimate
        lines.append(
            f"{period:>14} {per_metric:>15.0f} {estimate:>9.2f} "
            f"{test.measured_ipc:>9.2f}"
        )
    text = "\n".join(lines)
    print()
    print(text)
    write_artifact("ablation5_multiplex_window.txt", text)

    # Estimates must stay in a sane band across period lengths.
    values = list(estimates.values())
    assert max(values) < 3.0 * min(values)
