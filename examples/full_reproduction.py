"""The paper's evaluation end to end, at reduced scale.

Trains a SPIRE ensemble on the 23 training-workload analogs running on the
simulated Xeon Gold 6126, then analyzes the 4 test workloads and compares
SPIRE's top-10 metrics (Table II) against the Top-Down baseline's
classification — the reproduction of §V.

Run:  python examples/full_reproduction.py
"""

from repro.counters.events import default_catalog
from repro.pipeline import ExperimentConfig, run_experiment


def main() -> None:
    config = ExperimentConfig(train_windows=600, test_windows=300)
    print("simulating 23 training + 4 testing workloads ...")
    result = run_experiment(config)
    print(f"trained ensemble: {result.model}\n")

    abbreviations = default_catalog().abbreviations()
    agreements = 0
    for name, run in result.testing_runs.items():
        report = result.analyze(name, top_k=10)
        tma_category = run.table1_category
        print("=" * 74)
        print(
            f"{run.workload.label}\n"
            f"  measured IPC {report.measured_throughput:.3f} | "
            f"TMA main bottleneck: {tma_category} "
            f"(retiring {run.tma.fraction('retiring'):.0%})"
        )
        print(f"  {'est. IPC':>9}  {'TMA area':<16} metric")
        for entry in report.top(10):
            abbr = abbreviations.get(entry.metric, "")
            print(
                f"  {entry.estimate:9.3f}  {report.area_of(entry.metric):<16} "
                f"{abbr:<5} {entry.metric}"
            )
        match = report.agrees_with(tma_category, 10)
        agreements += match
        print(f"  -> SPIRE #1 metric area: {report.top_area}  "
              f"({'agrees with' if match else 'differs from'} TMA)")
    print("=" * 74)
    print(f"SPIRE/TMA agreement on {agreements}/{len(result.testing_runs)} test workloads")


if __name__ == "__main__":
    main()
