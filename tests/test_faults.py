"""Fault-tolerance tests: retries, injected hangs, resume, faults.

These exercise the robustness layer end to end with the deterministic
fault-injection harness (:mod:`repro.runtime.faults`): injected crashes,
hangs and data corruption must be absorbed, reported and — crucially —
leave every unaffected workload bit-identical to a fault-free run.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.core import SampleSanitizer, SpireModel, TrainOptions
from repro.core.sample import Sample, SampleSet
from repro.errors import ConfigError, DegradedDataWarning, SpireError
from repro.pipeline import (
    ExperimentConfig,
    clear_caches,
    run_experiment,
    run_experiment_with_report,
)
from repro.runtime import (
    ExperimentCache,
    FaultPlan,
    FaultSpec,
    RunnerOptions,
    experiment_cache_key,
)
from repro.uarch import skylake_gold_6126

TINY = ExperimentConfig(train_windows=48, test_windows=24)
#: Keep retry pauses out of the test clock.
FAST = dict(retries=2, runner_options=None)


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


def _options(**kw) -> RunnerOptions:
    kw.setdefault("backoff_base", 0.0)  # no sleeping in tests
    return RunnerOptions(**kw)


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(workload="tnn", kind="meteor-strike")

    def test_two_runner_faults_on_one_workload_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(
                (
                    FaultSpec(workload="tnn", kind="crash"),
                    FaultSpec(workload="tnn", kind="hang"),
                )
            )

    def test_random_plan_is_deterministic(self):
        names = [f"w{i}" for i in range(27)]
        a = FaultPlan.random(names, seed=7, crashes=1, hangs=1, corrupt_samples=2)
        b = FaultPlan.random(names, seed=7, crashes=1, hangs=1, corrupt_samples=2)
        assert a == b
        c = FaultPlan.random(names, seed=8, crashes=1, hangs=1, corrupt_samples=2)
        assert a != c

    def test_random_plan_rejects_oversubscription(self):
        with pytest.raises(ConfigError):
            FaultPlan.random(["a", "b"], crashes=2, hangs=1)


class TestRunnerOptionsValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            RunnerOptions(failure_policy="shrug")

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError):
            RunnerOptions(retries=-1)

    def test_backoff_is_deterministic(self):
        opts = RunnerOptions(backoff_base=0.1, backoff_jitter=0.5)
        assert opts.backoff("tnn", 2) == opts.backoff("tnn", 2)
        assert opts.backoff("tnn", 2) != opts.backoff("graph500", 2)


class TestSerialResilience:
    def test_transient_crash_retried_in_process(self, baseline):
        plan = FaultPlan((FaultSpec(workload="graph500", kind="crash", times=1),))
        result, report = run_experiment_with_report(
            TINY, faults=plan, runner_options=_options()
        )
        assert report.ok
        outcomes = [a.outcome for a in report.task_attempts("graph500")]
        assert outcomes == ["crash", "ok"]
        assert _ipc_signature(result) == _ipc_signature(baseline)

    def test_persistent_crash_raises_by_default(self):
        plan = FaultPlan((FaultSpec(workload="graph500", kind="crash", times=99),))
        with pytest.raises(SpireError, match="graph500"):
            run_experiment_with_report(
                TINY, faults=plan, runner_options=_options(retries=1)
            )

    def test_skip_policy_trains_on_survivors(self, baseline):
        plan = FaultPlan((FaultSpec(workload="graph500", kind="crash", times=99),))
        with pytest.warns(DegradedDataWarning, match="graph500"):
            result, report = run_experiment_with_report(
                TINY,
                faults=plan,
                runner_options=_options(retries=1, failure_policy="skip"),
            )
        assert report.failures.keys() == {"graph500"}
        assert report.skipped == ["graph500"]
        assert "graph500" not in result.training_runs
        base = _ipc_signature(baseline)
        for name, ipc in _ipc_signature(result).items():
            assert ipc == base[name]

    def test_in_process_hang_times_out_when_deadline_set(self, baseline):
        # Every injected hang times out at once; no deadline is configured.
        plan = FaultPlan((FaultSpec(workload="graph500", kind="hang", times=1),))
        result, report = run_experiment_with_report(
            TINY, faults=plan, runner_options=_options()
        )
        assert report.ok
        outcomes = [a.outcome for a in report.task_attempts("graph500")]
        assert outcomes == ["timeout", "ok"]
        assert _ipc_signature(result) == _ipc_signature(baseline)


class TestPoolResilience:
    """Whole-experiment fault scenarios, all absorbed in-process."""

    def test_hang_hits_task_timeout_then_retry_succeeds(self, baseline):
        plan = FaultPlan(
            (FaultSpec(workload="graph500", kind="hang", times=1,
                       hang_seconds=3.0),)
        )
        result, report = run_experiment_with_report(
            TINY, faults=plan, runner_options=_options()
        )
        assert report.ok
        attempts = report.task_attempts("graph500")
        assert [a.outcome for a in attempts] == ["timeout", "ok"]
        # The injected hang raises at once: it never sleeps hang_seconds.
        assert attempts[0].duration < 3.0
        assert _ipc_signature(result) == _ipc_signature(baseline)

    def test_acceptance_crash_hang_corrupt(self, baseline):
        """ISSUE 2 acceptance: 1 crash + 1 hang + 1 corrupt-sample out of 27,
        persistent, skip policy: the run completes, the report lists exactly
        the injected faults, and unaffected workloads are bit-identical to a
        fault-free serial run."""
        plan = FaultPlan(
            (
                FaultSpec(workload="graph500", kind="crash", times=99),
                FaultSpec(workload="qmcpack", kind="hang", times=99,
                          hang_seconds=2.0),
                FaultSpec(workload="tnn", kind="corrupt-sample", times=99,
                          sample_index=3),
            )
        )
        with pytest.warns(DegradedDataWarning):
            result, report = run_experiment_with_report(
                TINY,
                faults=plan,
                runner_options=_options(retries=1, failure_policy="skip"),
            )
        # Exactly the two runner-level faults fail terminally...
        assert sorted(report.failures) == ["graph500", "qmcpack"]
        # ...the corrupt-sample victim completes with quarantined data...
        tnn = result.testing_runs["tnn"]
        assert tnn.collection.quality is not None
        assert len(tnn.collection.quality.quarantined) == 1
        assert "NaN" in tnn.collection.quality.quarantined[0].reason
        # ...and every unaffected workload matches the fault-free run.
        base = _ipc_signature(baseline)
        for name, ipc in _ipc_signature(result).items():
            if name != "tnn":
                assert ipc == base[name], name
        faulted = set(report.faulted_tasks())
        assert faulted == {"graph500", "qmcpack"}


class TestCheckpointResume:
    def test_interrupted_run_resumes_from_checkpoints(self, baseline):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            plan = FaultPlan(
                (FaultSpec(workload="graph500", kind="crash", times=99),)
            )
            with pytest.raises(SpireError):
                run_experiment_with_report(
                    TINY, cache=tmp, faults=plan,
                    runner_options=_options(retries=0),
                )
            cache = ExperimentCache(tmp)
            key = experiment_cache_key(TINY, skylake_gold_6126())
            checkpointed = cache.checkpoint_names(key)
            assert checkpointed  # progress was persisted before the failure
            assert "graph500" not in checkpointed

            # The resumed run re-simulates ONLY the incomplete workloads.
            result, report = run_experiment_with_report(
                TINY, cache=tmp, resume=True, runner_options=_options()
            )
            assert report.ok
            assert sorted(report.checkpoint_hits) == sorted(checkpointed)
            executed = {a.task for a in report.attempts}
            assert executed == set(_ipc_signature(baseline)) - set(checkpointed)
            assert _ipc_signature(result) == _ipc_signature(baseline)
            # Success promotes the full entry and clears the checkpoints.
            assert cache.has(key)
            assert cache.checkpoint_names(key) == []

    def test_checkpoint_write_failure_degrades_gracefully(self, baseline):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            plan = FaultPlan(
                (FaultSpec(workload="tnn", kind="checkpoint-write-failure",
                           times=99),)
            )
            with pytest.warns(DegradedDataWarning, match="checkpoint"):
                result, report = run_experiment_with_report(
                    TINY, cache=tmp, faults=plan, runner_options=_options()
                )
            assert report.ok
            assert "tnn" in report.checkpoint_errors
            assert _ipc_signature(result) == _ipc_signature(baseline)

    def test_corrupted_checkpoint_is_resimulated(self, baseline):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            cache = ExperimentCache(tmp)
            key = experiment_cache_key(TINY, skylake_gold_6126())
            path = cache.checkpoint_dir(key) / "graph500.json"
            path.parent.mkdir(parents=True)
            path.write_text("{truncated", encoding="utf-8")
            result, report = run_experiment_with_report(
                TINY, cache=tmp, resume=True, runner_options=_options()
            )
            assert report.ok
            assert report.checkpoint_hits == []
            assert _ipc_signature(result) == _ipc_signature(baseline)


class TestCollectorDegradation:
    def test_corrupt_sample_quarantined_not_raised(self, baseline):
        plan = FaultPlan(
            (FaultSpec(workload="tnn", kind="corrupt-sample", times=99,
                       sample_index=0),)
        )
        result, report = run_experiment_with_report(
            TINY, faults=plan, runner_options=_options()
        )
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
            (FaultSpec(workload="tnn", kind="drop-metric", times=99,
                       metric="idq.dsb_uops"),)
        )
        result, report = run_experiment_with_report(
            TINY, faults=plan, runner_options=_options()
        )
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


class TestQualityReportRoundTrip:
    def test_quality_survives_the_experiment_cache(self):
        import tempfile

        plan = FaultPlan(
            (FaultSpec(workload="tnn", kind="corrupt-sample", times=99),)
        )
        with tempfile.TemporaryDirectory() as tmp:
            run_experiment(TINY, cache=tmp, faults=plan)
            clear_caches()
            reloaded = run_experiment(TINY, cache=tmp, faults=plan)
        quality = reloaded.testing_runs["tnn"].collection.quality
        assert quality is not None
        assert len(quality.quarantined) == 1
        assert math.isnan(quality.quarantined[0].metric_count)  # not persisted
