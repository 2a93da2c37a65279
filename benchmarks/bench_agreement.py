"""SPIRE-vs-TMA agreement (paper §V headline claim).

The paper validates SPIRE by checking that its low-estimate metrics point
at the same bottlenecks VTune's Top-Down analysis reports.  This bench
quantifies the agreement on the four test workloads: whether the dominant
area of SPIRE's top-10 pool (or its #1 metric) matches TMA's main
category, and what fraction of the top-10 falls in that category.  The
benchmark times a full analyze pass (ranking + report construction).
"""

from conftest import write_artifact

from repro.core.analysis import summarize_agreement
from repro.counters.events import default_catalog


def test_spire_tma_agreement(benchmark, experiment):
    samples = experiment.testing_runs["tnn"].collection.samples
    areas = default_catalog().areas()

    benchmark(
        experiment.model.analyze, samples, "tnn", 10, areas
    )

    reports = {
        name: experiment.analyze(name, top_k=10)
        for name in experiment.testing_runs
    }
    baseline = {
        name: run.table1_category
        for name, run in experiment.testing_runs.items()
    }
    rows = summarize_agreement(reports, baseline, top_k=10)

    lines = [
        "SPIRE vs TMA AGREEMENT on testing workloads (paper §V)",
        f"{'workload':<24} {'TMA':<16} {'SPIRE top-1':<16} "
        f"{'SPIRE dominant':<16} {'match':<6} top-10 frac",
        "-" * 92,
    ]
    matches = 0
    for row in rows:
        match = row["agrees"]
        matches += match
        lines.append(
            f"{row['workload']:<24} {row['baseline_category']:<16} "
            f"{row['spire_top_area']:<16} "
            f"{row['spire_dominant_area']:<16} {str(match):<6} "
            f"{row['top_k_area_fraction']:.2f}"
        )
    lines.append("-" * 92)
    lines.append(f"agreement: {matches}/{len(rows)} workloads")
    text = "\n".join(lines)
    print()
    print(text)
    write_artifact("agreement.txt", text)

    # Paper shape: SPIRE identifies "many of the same bottlenecks" — the
    # dominant/top-1 area matches TMA on at least 3 of 4 workloads, and
    # the expected area always appears inside the pool.
    assert matches >= 3
    for name, report in reports.items():
        pool_areas = {report.area_of(e.metric) for e in report.top(10)}
        assert baseline[name] in pool_areas, (name, pool_areas)
