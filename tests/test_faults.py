"""Fault-tolerance tests: the failure policy and injected faults.

These exercise the robustness layer end to end with the deterministic
fault-injection harness (:mod:`repro.runtime.faults`): a failing
workload must raise or be skipped as the failure policy says, injected
data corruption must be quarantined and reported, and every unaffected
workload must stay bit-identical to a fault-free run.
"""

from __future__ import annotations

import warnings

import pytest

import repro.pipeline as pipeline
from repro.core import SampleSanitizer, SpireModel, TrainOptions
from repro.core.columns import SampleArray
from repro.core.sample import Sample, SampleSet
from repro.errors import ConfigError, DegradedDataWarning, SpireError
from repro.pipeline import (
    ExperimentConfig,
    clear_caches,
    run_experiment,
    run_experiment_with_report,
)
from repro.runtime import ExecutionPlan, FaultPlan, FaultSpec, ParallelRunner
from repro.uarch import skylake_gold_6126

TINY = ExperimentConfig(train_windows=48, test_windows=24)
#: A collector fault keeps its victim out of the fused batch, so the
#: victim runs on the per-task path, where the failure policy applies.
VICTIM = "graph500"
ROUTE_PER_TASK = FaultPlan((FaultSpec(workload=VICTIM, kind="corrupt-sample"),))


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(scope="module")
def baseline():
    """A fault-free run to compare degraded runs against."""
    return run_experiment(TINY)


def _ipc_signature(result) -> dict:
    runs = {**result.training_runs, **result.testing_runs}
    return {name: run.measured_ipc for name, run in runs.items()}


@pytest.fixture
def failing_victim(monkeypatch):
    """Make ``run_workload`` raise for :data:`VICTIM`; record those calls."""
    calls = []
    real = pipeline.run_workload

    def run_workload(workload, *args, **kwargs):
        if workload.name == VICTIM:
            calls.append(workload.name)
            raise SpireError(f"simulated failure in {workload.name}")
        return real(workload, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_workload", run_workload)
    return calls


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(workload="tnn", kind="meteor-strike")

    def test_random_plan_is_deterministic(self):
        names = [f"w{i}" for i in range(27)]
        a = FaultPlan.random(names, seed=7, corrupt_samples=2, drop_metrics=1)
        b = FaultPlan.random(names, seed=7, corrupt_samples=2, drop_metrics=1)
        assert a == b
        c = FaultPlan.random(names, seed=8, corrupt_samples=2, drop_metrics=1)
        assert a != c

    def test_random_plan_draws_are_pinned(self):
        # One seeded plan over every collector and stream kind; each kind
        # draws from the rng after the ones before it, so a changed draw
        # anywhere shows up here.
        plan = FaultPlan.random(
            [f"w{i}" for i in range(27)],
            seed=11,
            corrupt_samples=2,
            drop_metrics=2,
            metrics=("m0", "m1", "m2", "m3"),
            drift_injects=2,
            stale_windows=1,
        )
        assert plan.specs == (
            FaultSpec(workload="w14", kind="corrupt-sample", sample_index=7),
            FaultSpec(workload="w17", kind="corrupt-sample", sample_index=7),
            FaultSpec(workload="w16", kind="drop-metric", metric="m1"),
            FaultSpec(workload="w18", kind="drop-metric", metric="m1"),
            FaultSpec(workload="m3", kind="drift-inject", factor=4.0, window=3),
            FaultSpec(workload="m1", kind="drift-inject", factor=0.25, window=2),
            FaultSpec(workload="*", kind="stale-window", window=2),
        )


class TestFailurePolicyValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            ParallelRunner(failure_policy="shrug")
        with pytest.raises(ConfigError):
            run_experiment(TINY, failure_policy="shrug")


class TestSerialResilience:
    def test_persistent_crash_raises_by_default(self, failing_victim):
        with pytest.raises(SpireError, match=VICTIM):
            run_experiment_with_report(TINY, faults=ROUTE_PER_TASK)
        # Executed once: a deterministic failure is never retried.
        assert failing_victim == [VICTIM]

    def test_skip_policy_trains_on_survivors(self, baseline, failing_victim):
        plan = ExecutionPlan.for_experiment(TINY, skylake_gold_6126())
        runner = ParallelRunner(failure_policy="skip", faults=ROUTE_PER_TASK)
        runs, report = runner.run_with_report(plan)
        slot = [task.name for task in plan.tasks].index(VICTIM)
        assert runs[slot] is None
        assert report.failures.keys() == {VICTIM}
        assert [a.task for a in report.attempts if a.outcome != "ok"] == [VICTIM]
        assert failing_victim == [VICTIM]

        with pytest.warns(DegradedDataWarning, match=VICTIM):
            result, report = run_experiment_with_report(
                TINY, failure_policy="skip", faults=ROUTE_PER_TASK
            )
        assert report.failures.keys() == {VICTIM}
        assert set(result.training_runs) == set(baseline.training_runs) - {VICTIM}
        base = _ipc_signature(baseline)
        for name, ipc in _ipc_signature(result).items():
            assert ipc == base[name]
        # The model is the one the surviving training workloads give.
        survivors = SampleSet.from_columns(
            SampleArray.concat(
                [run.collection.samples.columns()
                 for run in baseline.training_runs.values()
                 if run.workload.name != VICTIM]
            )
        )
        assert result.model.to_dict() == SpireModel.train(survivors).to_dict()


class TestCollectorDegradation:
    def test_corrupt_sample_quarantined_not_raised(self, baseline):
        plan = FaultPlan(
            (FaultSpec(workload="tnn", kind="corrupt-sample", sample_index=0),)
        )
        result, report = run_experiment_with_report(TINY, faults=plan)
        assert report.ok
        quality = result.testing_runs["tnn"].collection.quality
        assert len(quality.quarantined) == 1
        assert quality.quarantined[0].reason == "NaN metric_count"
        # One fewer sample than the clean run; everything else intact.
        clean = baseline.testing_runs["tnn"].collection
        assert len(result.testing_runs["tnn"].collection.samples) == \
            len(clean.samples) - 1

    def test_drop_metric_removes_samples_but_not_tma(self, baseline):
        plan = FaultPlan(
            (FaultSpec(workload="tnn", kind="drop-metric",
                       metric="idq.dsb_uops"),)
        )
        result, report = run_experiment_with_report(TINY, faults=plan)
        assert report.ok
        collection = result.testing_runs["tnn"].collection
        assert "idq.dsb_uops" not in collection.samples.metrics()
        assert "idq.dsb_uops" in collection.quality.dropped_metrics
        # The full (un-multiplexed) counter view feeding TMA is unaffected.
        assert collection.full_counts["idq.dsb_uops"] == \
            baseline.testing_runs["tnn"].collection.full_counts["idq.dsb_uops"]


class TestSampleSanitizer:
    def test_quarantines_invalid_records(self):
        clean, report = SampleSanitizer().sanitize(
            [
                {"metric": "m", "time": 10.0, "work": 20.0, "metric_count": 2.0},
                {"metric": "m", "time": float("nan"), "work": 1.0,
                 "metric_count": 1.0},
                {"metric": "m", "time": 5.0, "work": -1.0, "metric_count": 1.0},
                {"metric": "m", "time": 5.0, "work": 1.0,
                 "metric_count": float("inf")},
                {"metric": "", "time": 5.0, "work": 1.0, "metric_count": 1.0},
            ]
        )
        assert len(clean) == 1
        assert report.kept == 1
        assert report.total == 5
        reasons = sorted(q.reason for q in report.quarantined)
        assert reasons == [
            "NaN time", "empty metric name", "infinite metric_count",
            "negative work",
        ]

    def test_metric_floor_drops_partial_metrics(self):
        samples = SampleSet(
            [Sample("rich", time=1.0, work=float(i), metric_count=1.0)
             for i in range(1, 6)]
            + [Sample("poor", time=1.0, work=1.0, metric_count=1.0)]
        )
        clean, report = SampleSanitizer(min_samples_per_metric=3).sanitize(samples)
        assert clean.metrics() == ["rich"]
        assert "poor" in report.dropped_metrics
        assert not report.ok

    def test_clean_input_passes_through(self):
        samples = SampleSet(
            [Sample("m", time=1.0, work=float(i), metric_count=1.0)
             for i in range(1, 4)]
        )
        clean, report = SampleSanitizer().sanitize(samples)
        assert report.ok
        assert len(clean) == 3
        assert report.summary() == "all 3 samples clean"


class TestTrainDegradation:
    def test_train_warns_on_dropped_metrics(self):
        samples = SampleSet(
            [Sample("rich", time=1.0, work=float(i), metric_count=1.0)
             for i in range(1, 10)]
            + [Sample("poor", time=1.0, work=1.0, metric_count=1.0)]
        )
        with pytest.warns(DegradedDataWarning, match="poor"):
            model = SpireModel.train(
                samples, TrainOptions(min_samples_per_metric=3)
            )
        assert "rich" in model
        assert "poor" not in model

    def test_train_fills_quality_report(self):
        from repro.core import QualityReport

        samples = [
            {"metric": "m", "time": 1.0, "work": float(i), "metric_count": 1.0}
            for i in range(1, 6)
        ] + [{"metric": "m", "time": float("nan"), "work": 1.0,
              "metric_count": 1.0}]
        quality = QualityReport()
        with pytest.warns(DegradedDataWarning):
            model = SpireModel.train(samples, quality=quality)
        assert "m" in model
        assert len(quality.quarantined) == 1
        assert quality.quarantined[0].reason == "NaN time"

    def test_clean_training_emits_no_warning(self):
        samples = SampleSet(
            [Sample("m", time=1.0, work=float(i), metric_count=1.0)
             for i in range(1, 6)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedDataWarning)
            model = SpireModel.train(samples)
        assert "m" in model
