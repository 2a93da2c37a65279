"""Tests for the guarded-dispatch layer (repro.guard).

Covers the sampled oracle checks and per-kernel circuit breakers
(:mod:`repro.guard.dispatch`), the stage-boundary numeric guardrails
(:mod:`repro.guard.guardrails`), artifact integrity headers, atomic
writes and quarantine (:mod:`repro.guard.artifact`), the ``spire
doctor`` scanner (:mod:`repro.guard.doctor`), and the end-to-end
``diverge-kernel`` / ``corrupt-cache-entry`` faults through
``run_experiment_with_report``.
"""

from __future__ import annotations

import json
import math
import os
import warnings

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.errors import (
    ConfigError,
    DataError,
    DegradedDataWarning,
    GuardDivergenceError,
    GuardrailViolation,
)
from repro.guard.artifact import (
    attach_header,
    atomic_write_text,
    content_checksum,
    quarantine_dir,
    quarantine_file,
    verify_payload,
)
from repro.guard.dispatch import (
    GUARDED_KERNELS,
    GuardConfig,
    guarded_call,
    health_report,
    inject_divergence,
    kernel_guard,
    registry,
    reset_guards,
)
from repro.guard.doctor import doctor_cache_dir
from repro.guard.guardrails import (
    check_bound_violation,
    check_estimates,
    check_pareto_front,
    guardrail_hit,
)

GUARD_ENV_PREFIXES = ("SPIRE_GUARD", "SPIRE_GUARDRAIL", "SPIRE_SCALAR_FALLBACK")


@pytest.fixture(autouse=True)
def fresh_guards(monkeypatch):
    """Isolate every test: clean guard env and a fresh registry."""
    for name in list(os.environ):
        if name.startswith(GUARD_ENV_PREFIXES):
            monkeypatch.delenv(name, raising=False)
    reset_guards()
    yield
    reset_guards()


def checked_config(**kwargs) -> GuardConfig:
    kwargs.setdefault("check_rate", 1)
    return GuardConfig(**kwargs)


# ---------------------------------------------------------------------------
# dispatch: schedule, parity, breakers
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_rate_one_checks_every_call(self):
        reset_guards(checked_config())
        calls = {"fast": 0, "oracle": 0}

        def fast():
            calls["fast"] += 1
            return 2.0

        def oracle():
            calls["oracle"] += 1
            return 2.0

        for _ in range(5):
            assert guarded_call("pareto", fast, oracle) == 2.0
        assert calls == {"fast": 5, "oracle": 5}
        health = health_report()
        assert health.kernels["pareto"].checks == 5
        assert health.ok

    def test_rate_zero_never_checks(self):
        reset_guards(GuardConfig(check_rate=0))
        result = guarded_call(
            "pareto", fast=lambda: 1.0, oracle=lambda: pytest.fail("oracle ran")
        )
        assert result == 1.0
        assert health_report().checks_run == 0

    def test_schedule_is_deterministic(self):
        def schedule(runs: int = 64) -> list[int]:
            reset_guards(GuardConfig(check_rate=8, seed=7))
            guard = kernel_guard("train")
            return [i for i in range(runs) if guard.should_check()]

        first, second = schedule(), schedule()
        assert first == second
        assert len(first) == 8  # every 8th call out of 64
        # A different seed shifts the phase for at least one kernel.
        reset_guards(GuardConfig(check_rate=8, seed=8))
        shifted = [i for i in range(64) if kernel_guard("train").should_check()]
        assert len(shifted) == 8

    def test_real_divergence_serves_oracle_and_trips(self):
        reset_guards(checked_config())
        with pytest.warns(DegradedDataWarning, match="diverged"):
            result = guarded_call("pareto", fast=lambda: 1.0, oracle=lambda: 2.0)
        assert result == 2.0  # the oracle's answer is the trusted one
        health = health_report()
        assert health.tripped_kernels == ["pareto"]
        assert not health.divergences[0].injected
        # The breaker is tripped: only the oracle runs from now on.
        result = guarded_call(
            "pareto", fast=lambda: pytest.fail("fast ran"), oracle=lambda: 3.0
        )
        assert result == 3.0

    def test_trip_is_per_kernel(self):
        reset_guards(checked_config())
        with pytest.warns(DegradedDataWarning):
            guarded_call("pareto", fast=lambda: 1.0, oracle=lambda: 2.0)
        # Other kernels keep their fast path.
        assert guarded_call("train", fast=lambda: 10.0, oracle=lambda: 10.0) == 10.0
        health = health_report()
        assert health.tripped_kernels == ["pareto"]
        assert not health.kernels["train"].tripped

    def test_injected_divergence_serves_fast_result(self):
        reset_guards(checked_config())
        inject_divergence("train")
        with pytest.warns(DegradedDataWarning, match="injected"):
            result = guarded_call("train", fast=lambda: 1.0, oracle=lambda: 1.0)
        assert result == 1.0  # fast result survives: bit-identical output
        health = health_report()
        assert health.tripped_kernels == ["train"]
        assert health.divergences[0].injected

    def test_raise_policy(self):
        reset_guards(checked_config(policy="raise"))
        with pytest.raises(GuardDivergenceError, match="pareto"):
            guarded_call("pareto", fast=lambda: 1.0, oracle=lambda: 2.0)

    def test_comparison_crash_counts_as_divergence(self):
        reset_guards(checked_config())

        def bad_compare(a, b):
            raise RuntimeError("boom")

        with pytest.warns(DegradedDataWarning):
            result = guarded_call(
                "pareto", fast=lambda: 1.0, oracle=lambda: 1.0, compare=bad_compare
            )
        assert result == 1.0
        assert health_report().tripped_kernels == ["pareto"]

    def test_trip_determinism(self):
        """Same config and call sequence -> divergence at the same index."""

        def run() -> int:
            reset_guards(GuardConfig(check_rate=4, seed=3))
            for i in range(32):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegradedDataWarning)
                    guarded_call(
                        "estimate", fast=lambda i=i: i, oracle=lambda i=i: -i
                    )
            events = health_report().divergences
            assert events
            return events[0].call_index

        assert run() == run()

    def test_env_config(self, monkeypatch):
        monkeypatch.setenv("SPIRE_GUARD_RATE", "16")
        monkeypatch.setenv("SPIRE_GUARD_RATE_CACHE_ACCESS_BATCH", "2")
        monkeypatch.setenv("SPIRE_GUARD_POLICY", "raise")
        config = GuardConfig.from_env()
        assert config.check_rate == 16
        assert config.rate_for("cache.access_batch") == 2
        assert config.rate_for("train") == 16
        assert config.policy == "raise"

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            GuardConfig(check_rate=-1)
        with pytest.raises(ConfigError):
            GuardConfig(policy="explode")

    def test_all_guarded_kernels_named(self):
        assert len(GUARDED_KERNELS) == 14
        assert len(set(GUARDED_KERNELS)) == 14
        for kernel in (
            "fused_experiment",
            "trace.fused_run",
            "trace.block_recurrence",
            "stream.update",
            "serve.batch_estimate",
        ):
            assert kernel in GUARDED_KERNELS


# ---------------------------------------------------------------------------
# dispatch: always-checked parity on real kernels (hypothesis)
# ---------------------------------------------------------------------------


points = st.lists(
    st.tuples(
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


class TestAlwaysCheckedParity:
    @settings(max_examples=40, deadline=None)
    @given(points)
    def test_pareto_checked_equals_scalar(self, pts):
        from repro.geometry.pareto import pareto_front

        reset_guards(GuardConfig(check_rate=0))
        unchecked = pareto_front(pts)
        reset_guards(checked_config())
        checked = pareto_front(pts)
        assert checked == unchecked
        health = health_report()
        assert health.kernels["pareto"].checks >= 1
        assert health.ok, "fast and scalar pareto must agree on every cloud"

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**14), min_size=1,
                    max_size=64),
           st.lists(st.booleans(), min_size=64, max_size=64))
    def test_predictor_checked_equals_scalar(self, pcs, taken):
        import numpy as np

        from repro.trace.branch import GsharePredictor

        taken = taken[: len(pcs)]
        pcs_arr = np.asarray(pcs, dtype=np.int64)
        taken_arr = np.asarray(taken, dtype=bool)

        reset_guards(GuardConfig(check_rate=0))
        unchecked = GsharePredictor()
        fast = unchecked.update_batch(pcs_arr, taken_arr)

        reset_guards(checked_config())
        checked = GsharePredictor()
        guarded = checked.update_batch(pcs_arr, taken_arr)

        assert np.array_equal(fast, guarded)
        assert unchecked.predictions == checked.predictions
        assert unchecked.mispredictions == checked.mispredictions
        assert health_report().ok


# ---------------------------------------------------------------------------
# guardrails
# ---------------------------------------------------------------------------


class TestGuardrails:
    def test_record_policy_warns_and_logs(self):
        reset_guards(GuardConfig(guardrail_policy="record"))
        with pytest.warns(DegradedDataWarning, match="estimate"):
            check_estimates({"m": float("nan")})
        hits = health_report().guardrail_hits
        assert len(hits) == 1 and hits[0].stage == "estimate"

    def test_raise_policy(self):
        reset_guards(GuardConfig(guardrail_policy="raise"))
        with pytest.raises(GuardrailViolation, match="bound-violation"):
            check_bound_violation(-1.0)

    def test_off_policy(self):
        reset_guards(GuardConfig(guardrail_policy="off"))
        check_estimates({"m": float("inf")})
        check_bound_violation(math.nan)
        guardrail_hit("anything", "ignored")
        assert not health_report().guardrail_hits

    def test_monotone_front_passes(self):
        reset_guards(GuardConfig(guardrail_policy="record"))
        check_pareto_front([(3.0, 1.0), (2.0, 2.0), (1.0, 3.0)])
        assert not health_report().guardrail_hits

    def test_non_monotone_front_hits(self):
        reset_guards(GuardConfig(guardrail_policy="record"))
        with pytest.warns(DegradedDataWarning, match="non-monotone"):
            check_pareto_front([(1.0, 1.0), (2.0, 2.0)])
        assert health_report().guardrail_hits


# ---------------------------------------------------------------------------
# artifact integrity: headers, atomic writes, quarantine
# ---------------------------------------------------------------------------


class TestArtifacts:
    def test_header_round_trip(self):
        payload = attach_header({"value": [1, 2, 3]}, "spire-test/1")
        assert payload["header"]["format"] == "spire-test/1"
        assert payload["header"]["code_version"] == __version__
        assert verify_payload(payload, "spire-test/1") is None
        # Serialization order must not matter for the checksum.
        reparsed = json.loads(json.dumps(payload, sort_keys=True))
        assert verify_payload(reparsed, "spire-test/1") is None

    def test_tampered_content_detected(self):
        payload = attach_header({"value": 1}, "spire-test/1")
        payload["value"] = 2
        reason = verify_payload(payload, "spire-test/1")
        assert reason is not None and "checksum" in reason

    def test_schema_skew_detected(self):
        payload = attach_header({"value": 1}, "spire-test/1")
        reason = verify_payload(payload, "spire-test/2")
        assert reason is not None and "schema mismatch" in reason

    def test_missing_header_policy(self):
        assert verify_payload({"value": 1}, "spire-test/1") is not None
        assert (
            verify_payload({"value": 1}, "spire-test/1", require_header=False)
            is None
        )

    def test_checksum_ignores_header(self):
        body = {"value": 7}
        assert content_checksum(attach_header(dict(body), "s/1")) == (
            content_checksum(body)
        )

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"
        # No stray temp files left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_quarantine_round_trip(self, tmp_path):
        victim = tmp_path / "bad.json"
        victim.write_text("{broken")
        destination = quarantine_file(victim, "test reason")
        assert destination is not None
        assert not victim.exists()
        assert destination.parent == quarantine_dir(tmp_path)
        assert destination.read_text() == "{broken"  # moved, never deleted
        recorded = health_report().artifacts_quarantined
        assert any(entry.startswith(str(destination)) for entry in recorded)

    def test_quarantine_collision_suffixes(self, tmp_path):
        names = set()
        for _ in range(3):
            victim = tmp_path / "bad.json"
            victim.write_text("x")
            destination = quarantine_file(victim, "dup")
            names.add(destination.name)
        assert len(names) == 3


# ---------------------------------------------------------------------------
# io/dataset integrity
# ---------------------------------------------------------------------------


class TestDatasetIntegrity:
    def make_samples(self):
        from repro.core.sample import Sample, SampleSet

        samples = SampleSet()
        samples.add(Sample("m", time=1.0, work=10.0, metric_count=5.0))
        samples.add(Sample("m", time=2.0, work=12.0, metric_count=0.0))
        return samples

    def test_csv_trailer_tamper_detected(self, tmp_path):
        from repro.io.dataset import load_samples_csv, save_samples_csv

        path = save_samples_csv(self.make_samples(), tmp_path / "s.csv")
        lines = path.read_text().splitlines()
        assert lines[-1].startswith("# spire-artifact:")
        lines[1] = lines[1].replace("1.0", "9.0", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="checksum mismatch"):
            load_samples_csv(path)
        assert not path.exists()  # quarantined, not deleted
        assert list(quarantine_dir(tmp_path).iterdir())

    def test_csv_without_trailer_still_loads(self, tmp_path):
        from repro.io.dataset import load_samples_csv, save_samples_csv

        path = save_samples_csv(self.make_samples(), tmp_path / "s.csv")
        body = "\n".join(
            line
            for line in path.read_text().splitlines()
            if not line.startswith("#")
        )
        path.write_text(body + "\n")
        assert len(load_samples_csv(path)) == 2

    def test_model_truncation_detected(self, tmp_path):
        from repro.core.ensemble import SpireModel
        from repro.core.roofline import fit_metric_roofline
        from repro.core.sample import Sample
        from repro.io.dataset import load_model, save_model

        samples = [
            Sample("m", time=1.0, work=float(w), metric_count=1.0)
            for w in (1, 2, 4, 8)
        ]
        model = SpireModel({"m": fit_metric_roofline(samples)})
        path = save_model(model, tmp_path / "model.json")
        payload = json.loads(path.read_text())
        payload["rooflines"] = {}
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="checksum mismatch"):
            load_model(path)
        assert not path.exists()

    def test_model_shape_validated(self, tmp_path):
        from repro.io.dataset import load_model

        path = tmp_path / "m.json"
        path.write_text(json.dumps({"not": "a model"}))
        with pytest.raises(DataError, match="rooflines"):
            load_model(path)
        path2 = tmp_path / "m2.json"
        path2.write_text(json.dumps({"rooflines": [1, 2]}))
        with pytest.raises(DataError, match="must be an object"):
            load_model(path2)


# ---------------------------------------------------------------------------
# doctor
# ---------------------------------------------------------------------------


class TestDoctor:
    def seed_cache(self, tmp_path):
        from repro.core.sample import Sample, SampleSet  # noqa: F401 - import check
        from repro.pipeline import ExperimentConfig, run_experiment

        config = ExperimentConfig(train_windows=24, test_windows=12)
        run_experiment(config, cache=tmp_path)
        return config

    def test_clean_dir_is_ok(self, tmp_path):
        self.seed_cache(tmp_path)
        report = doctor_cache_dir(tmp_path)
        assert report.ok
        assert report.entries_ok == 1
        assert "1/1 ok" in report.render()

    def test_truncated_entry_quarantined(self, tmp_path):
        self.seed_cache(tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text(entry.read_text()[: 100])
        report = doctor_cache_dir(tmp_path)
        assert not report.ok
        assert report.entries_quarantined
        assert "invalid JSON" in report.entries_quarantined[0][1]
        assert not entry.exists()
        assert list(quarantine_dir(tmp_path).iterdir())

    def test_version_skew_quarantined(self, tmp_path):
        self.seed_cache(tmp_path)
        entry = next(tmp_path.glob("*.json"))
        payload = json.loads(entry.read_text())
        payload["header"]["format"] = "spire-expcache/99"
        payload["format"] = "spire-expcache/99"
        entry.write_text(json.dumps(payload))
        report = doctor_cache_dir(tmp_path)
        assert not report.ok
        assert "schema mismatch" in report.entries_quarantined[0][1]

    def test_checksum_corruption_quarantined(self, tmp_path):
        self.seed_cache(tmp_path)
        entry = next(tmp_path.glob("*.json"))
        payload = json.loads(entry.read_text())
        payload["fingerprint"] = {"tampered": True}
        entry.write_text(json.dumps(payload))
        report = doctor_cache_dir(tmp_path)
        assert not report.ok
        assert "checksum mismatch" in report.entries_quarantined[0][1]

    def test_prune_empties_quarantine(self, tmp_path):
        self.seed_cache(tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text("garbage")
        doctor_cache_dir(tmp_path)
        report = doctor_cache_dir(tmp_path, prune=True)
        assert len(report.pruned) == 1
        assert not quarantine_dir(tmp_path).exists() or not list(
            quarantine_dir(tmp_path).iterdir()
        )

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(DataError):
            doctor_cache_dir(tmp_path / "nope")


# ---------------------------------------------------------------------------
# end-to-end: guard faults through the experiment pipeline
# ---------------------------------------------------------------------------


class TestGuardFaultsEndToEnd:
    def test_diverge_and_corrupt_cache_entry(self, tmp_path):
        from repro.pipeline import ExperimentConfig, run_experiment_with_report
        from repro.runtime.faults import (
            CORRUPT_CACHE_ENTRY,
            DIVERGE_KERNEL,
            FaultPlan,
            FaultSpec,
        )

        config = ExperimentConfig(train_windows=24, test_windows=12)
        baseline, _ = run_experiment_with_report(config, cache=tmp_path)

        reset_guards()
        faults = FaultPlan(
            specs=(
                FaultSpec(workload="train", kind=DIVERGE_KERNEL),
                FaultSpec(workload="*", kind=CORRUPT_CACHE_ENTRY),
            )
        )
        with pytest.warns(DegradedDataWarning):
            result, report = run_experiment_with_report(
                config, cache=tmp_path, faults=faults
            )

        assert report.health is not None
        assert report.health.tripped_kernels == ["train"]
        assert all(e.injected for e in report.health.divergences)
        assert report.health.artifacts_quarantined  # the corrupted entry
        # The injected divergence must not change any numbers.
        for name, run in (result.training_runs | result.testing_runs).items():
            ref = baseline.training_runs.get(name) or baseline.testing_runs[name]
            assert run.measured_ipc == ref.measured_ipc
            assert (
                run.collection.samples.to_records()
                == ref.collection.samples.to_records()
            )
        assert result.model.to_dict() == baseline.model.to_dict()

    def test_random_plan_draws_guard_faults_deterministically(self):
        from repro.runtime.faults import FaultPlan

        names = [f"w{i}" for i in range(8)]
        plan_a = FaultPlan.random(
            names, seed=11, diverge_kernels=2, corrupt_cache_entries=1
        )
        plan_b = FaultPlan.random(
            names, seed=11, diverge_kernels=2, corrupt_cache_entries=1
        )
        assert plan_a == plan_b
        assert len(plan_a.diverge_kernels()) == 2
        assert len(plan_a.cache_corruptions()) == 1
        # Older fault kinds keep their victims when new kinds are added.
        old = FaultPlan.random(names, seed=11, crashes=2)
        new = FaultPlan.random(
            names, seed=11, crashes=2, diverge_kernels=1, corrupt_cache_entries=1
        )
        assert new.specs[: len(old.specs)] == old.specs
        # Guard faults never count as workload injections.
        assert plan_a.injected_workloads() == []
