"""Tests for the guarded-dispatch layer (repro.guard).

Covers the sampled oracle checks and per-kernel circuit breakers
(:mod:`repro.guard.dispatch`), driven through ``batch_estimate``, and
artifact integrity headers, atomic writes and quarantine
(:mod:`repro.guard.artifact`).
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro import __version__
from repro.core.columns import SampleArray
from repro.core.ensemble import SpireModel
from repro.core.roofline import fit_metric_roofline
from repro.core.sample import Sample
from repro.errors import (
    ConfigError,
    DataError,
    DegradedDataWarning,
    GuardDivergenceError,
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
    DEFAULT_CHECK_RATE,
    GUARDED_KERNELS,
    GuardConfig,
    health_report,
    inject_divergence,
    kernel_guard,
    reset_guards,
)
from repro.serve import batching
from repro.serve.batching import KERNEL, batch_estimate

GUARD_ENV_PREFIXES = ("SPIRE_GUARD", "SPIRE_SCALAR_FALLBACK")


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


@pytest.fixture(scope="module")
def model() -> SpireModel:
    samples = [
        Sample("m", time=1.0, work=work, metric_count=count)
        for work, count in ((2.0, 1.0), (4.0, 1.0), (8.0, 4.0), (6.0, 3.0))
    ]
    return SpireModel({"m": fit_metric_roofline(samples)})


def request() -> SampleArray:
    return SampleArray.from_lists(["m", "m"], [1.0, 2.0], [2.0, 3.0], [1.0, 1.5])


def served(results) -> list[dict]:
    return [result.per_metric for result in results]


def reference(model: SpireModel) -> list[dict]:
    return [model.estimate(request().to_sample_set()).per_metric]


@pytest.fixture
def wrong_fast(monkeypatch):
    """A fused kernel whose every estimate is off by a factor of two."""
    original = batching.fused_estimate

    def doubled(model, arrays):
        return [
            ({k: 2.0 * v for k, v in per_metric.items()}, counts, skipped)
            for per_metric, counts, skipped in original(model, arrays)
        ]

    monkeypatch.setattr(batching, "fused_estimate", doubled)


# ---------------------------------------------------------------------------
# dispatch: schedule, parity, breakers (on serve.batch_estimate)
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_rate_one_checks_every_call(self, model, monkeypatch):
        reset_guards(checked_config())
        calls = {"fast": 0, "oracle": 0}
        fast, oracle = batching.fused_estimate, SpireModel._estimate_scalar

        def counted_fast(*args):
            calls["fast"] += 1
            return fast(*args)

        def counted_oracle(*args):
            calls["oracle"] += 1
            return oracle(*args)

        monkeypatch.setattr(batching, "fused_estimate", counted_fast)
        monkeypatch.setattr(SpireModel, "_estimate_scalar", counted_oracle)
        for _ in range(5):
            assert served(batch_estimate(model, [request()])) == reference(model)
        assert calls == {"fast": 5, "oracle": 5}
        health = health_report()
        assert health.kernels[KERNEL].checks == 5
        assert health.ok

    def test_rate_zero_never_checks(self, model, monkeypatch):
        reset_guards(GuardConfig(check_rate=0))
        monkeypatch.setattr(
            SpireModel, "_estimate_scalar", lambda *a: pytest.fail("oracle ran")
        )
        assert served(batch_estimate(model, [request()])) == reference(model)
        assert health_report().checks_run == 0

    def test_schedule_is_deterministic(self):
        def schedule(runs: int = 64) -> list[int]:
            reset_guards(GuardConfig(check_rate=8, seed=7))
            guard = kernel_guard(KERNEL)
            return [i for i in range(runs) if guard.should_check()]

        first, second = schedule(), schedule()
        assert first == second
        assert len(first) == 8  # every 8th call out of 64
        # A different seed shifts the phase for at least one kernel.
        reset_guards(GuardConfig(check_rate=8, seed=8))
        shifted = [i for i in range(64) if kernel_guard(KERNEL).should_check()]
        assert len(shifted) == 8

    def test_real_divergence_serves_oracle_and_trips(
        self, model, wrong_fast, monkeypatch
    ):
        reset_guards(checked_config())
        with pytest.warns(DegradedDataWarning, match="diverged"):
            results = batch_estimate(model, [request()])
        assert served(results) == reference(model)  # the oracle's answer
        health = health_report()
        assert health.tripped_kernels == [KERNEL]
        assert not health.divergences[0].injected
        # The breaker is tripped: only the per-request path runs from now on.
        monkeypatch.setattr(
            batching, "fused_estimate", lambda *a: pytest.fail("fast ran")
        )
        assert served(batch_estimate(model, [request()])) == reference(model)

    def test_injected_divergence_serves_fast_result(self, model, monkeypatch):
        reset_guards(checked_config())
        want = reference(model)
        # The oracle disagrees but the comparison passes: only the
        # injection makes this check diverge, and the fast result survives.
        oracle = SpireModel._estimate_scalar

        def shifted(*args):
            per_metric, counts, skipped = oracle(*args)
            return {k: v + 1.0 for k, v in per_metric.items()}, counts, skipped

        monkeypatch.setattr(SpireModel, "_estimate_scalar", shifted)
        monkeypatch.setattr(batching, "approx_equal", lambda a, b: True)
        inject_divergence(KERNEL)
        with pytest.warns(DegradedDataWarning, match="injected"):
            results = batch_estimate(model, [request()])
        assert served(results) == want
        health = health_report()
        assert health.tripped_kernels == [KERNEL]
        assert health.divergences[0].injected

    def test_raise_policy(self, model, wrong_fast):
        reset_guards(checked_config(policy="raise"))
        with pytest.raises(GuardDivergenceError, match=KERNEL):
            batch_estimate(model, [request()])

    def test_comparison_crash_counts_as_divergence(self, model, monkeypatch):
        reset_guards(checked_config())

        def bad_compare(a, b):
            raise RuntimeError("boom")

        monkeypatch.setattr(batching, "approx_equal", bad_compare)
        with pytest.warns(DegradedDataWarning):
            results = batch_estimate(model, [request()])
        assert served(results) == reference(model)
        assert health_report().tripped_kernels == [KERNEL]

    def test_trip_determinism(self, model, wrong_fast):
        """Same config and call sequence -> divergence at the same index."""

        def run() -> int:
            reset_guards(GuardConfig(check_rate=4, seed=3))
            for _ in range(32):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegradedDataWarning)
                    batch_estimate(model, [request()])
            events = health_report().divergences
            assert events
            return events[0].call_index

        assert run() == run()

    def test_env_config(self, monkeypatch):
        assert GuardConfig.from_env().check_rate == DEFAULT_CHECK_RATE == 64
        monkeypatch.setenv("SPIRE_GUARD_RATE", "16")
        monkeypatch.setenv("SPIRE_GUARD_POLICY", "raise")
        # Per-kernel rates and injection are not read from the environment.
        monkeypatch.setenv("SPIRE_GUARD_RATE_SERVE_BATCH_ESTIMATE", "2")
        monkeypatch.setenv("SPIRE_GUARD_INJECT", KERNEL)
        config = GuardConfig.from_env()
        assert config.check_rate == 16
        assert config.rate_overrides == {}
        assert config.rate_for(KERNEL) == 16
        assert config.policy == "raise"
        assert not reset_guards().injection_pending(KERNEL)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            GuardConfig(check_rate=-1)
        with pytest.raises(ConfigError):
            GuardConfig(policy="explode")
        with pytest.raises(ConfigError):
            GuardConfig(rate_overrides={KERNEL: -1})

    def test_all_guarded_kernels_named(self):
        assert GUARDED_KERNELS == ("serve.batch_estimate",)


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
        destination = quarantine_file(victim)
        assert destination is not None
        assert not victim.exists()
        assert destination.parent == quarantine_dir(tmp_path)
        assert destination.read_text() == "{broken"  # moved, never deleted

    def test_quarantine_collision_suffixes(self, tmp_path):
        names = set()
        for _ in range(3):
            victim = tmp_path / "bad.json"
            victim.write_text("x")
            destination = quarantine_file(victim)
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

    def test_quarantined_model_leaves_health_ok(self, model, tmp_path):
        """The loader's DataError names the quarantine; the serve guard's
        health report, read by /health, keeps no copy of it."""
        from repro.io.dataset import load_model, save_model

        path = save_model(model, tmp_path / "model.json")
        payload = json.loads(path.read_text())
        payload["rooflines"]["m"]["sample_count"] += 1
        path.write_text(json.dumps(payload))
        destination = quarantine_dir(tmp_path) / "model.json"
        with pytest.raises(DataError) as caught:
            load_model(path)
        assert f"quarantined to {destination}" in str(caught.value)
        assert destination.exists()
        assert health_report().ok, health_report().render()

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
