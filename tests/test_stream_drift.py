"""Acceptance tests for the refute-and-refine drift ladder.

The scenario the tentpole promises: a trained model watches a live
stream; when one metric's samples refute its roofline, exactly that
metric is quarantined and refit from recent windows while every other
metric's roofline stays *bit-identical* — and repeated refutation walks
the ladder down to a stale verdict that demands a batch retrain.

The streams here replay the model's own training samples, so the
fault-free baseline is clean by construction (every roofline is an upper
bound of its training data).
"""

import math
import os
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ensemble
from repro.core.ensemble import SpireModel, TrainOptions
from repro.core.roofline import MetricRoofline
from repro.core.sample import Sample, SampleSet
from repro.errors import ConfigError, FitError
from repro.fastpath import force_scalar
from repro.geometry.piecewise import (
    Breakpoint,
    PackedPiecewise,
    PiecewiseLinear,
)
from repro.guard.dispatch import health_report, reset_guards
from repro.runtime.faults import (
    DRIFT_INJECT,
    STALE_WINDOW,
    FaultPlan,
    FaultSpec,
)
from repro.stream import (
    DriftMonitor,
    DriftPolicy,
    StreamIngestor,
    StreamOptions,
    replay_stream,
    windows_from_records,
)

METRICS = ("llc.miss", "br.misp", "tlb.walk")


def _make_records(rng, per_window=12, windows=6):
    """A deterministic multi-metric log with roofline-shaped throughput."""
    records = []
    for _ in range(windows * per_window):
        metric = rng.choice(METRICS)
        x = rng.uniform(0.5, 64.0)
        peak = 4.0 + 2.0 * METRICS.index(metric)
        y = min(x, peak) * rng.uniform(0.5, 1.0)
        time = rng.uniform(1.0, 4.0)
        work = y * time
        records.append(
            {
                "metric": metric,
                "time": time,
                "work": work,
                "metric_count": work / x,
            }
        )
    return records


@pytest.fixture(autouse=True)
def _fresh_guards():
    reset_guards()
    yield
    reset_guards()


@pytest.fixture
def trained():
    rng = random.Random(4242)
    records = _make_records(rng)
    samples = SampleSet(
        [
            Sample(
                r["metric"],
                time=r["time"],
                work=r["work"],
                metric_count=r["metric_count"],
            )
            for r in records
        ]
    )
    model = SpireModel.train(samples)
    windows = windows_from_records(records, 12)
    return model, windows


class TestCleanBaseline:
    def test_training_replay_never_drifts(self, trained):
        model, windows = trained
        result = replay_stream(windows, model=model)
        assert result.report.ok
        assert result.events == []
        assert not result.report.stale
        # Everything still reference-owned and served verbatim.
        for metric in model.metrics:
            assert result.model.roofline(metric).to_dict(
                include_training=True
            ) == model.roofline(metric).to_dict(include_training=True)


class TestDriftInjection:
    VICTIM = "llc.miss"

    def _fault(self, window=2, factor=4.0):
        return FaultPlan(
            specs=(
                FaultSpec(
                    workload=self.VICTIM,
                    kind=DRIFT_INJECT,
                    factor=factor,
                    window=window,
                ),
            )
        )

    def test_victim_is_refuted_and_refit(self, trained):
        model, windows = trained
        result = replay_stream(windows, model=model, faults=self._fault())
        actions = {e.action for e in result.events if e.metric == self.VICTIM}
        assert "refit" in actions
        assert self.VICTIM in result.ingestor.stream_metrics
        assert self.VICTIM not in result.ingestor.reference_metrics
        assert result.report.refit_counts.get(self.VICTIM, 0) >= 1

    def test_bystanders_stay_bit_identical(self, trained):
        model, windows = trained
        baseline = replay_stream(windows, model=model)
        faulted = replay_stream(windows, model=model, faults=self._fault())
        for metric in METRICS:
            if metric == self.VICTIM:
                continue
            assert faulted.model.roofline(metric).to_dict(
                include_training=True
            ) == baseline.model.roofline(metric).to_dict(
                include_training=True
            )
        assert {e.metric for e in faulted.events} == {self.VICTIM}

    def test_refit_model_covers_drifted_samples(self, trained):
        """After repair the served bound covers the shifted regime."""
        model, windows = trained
        result = replay_stream(windows, model=model, faults=self._fault())
        roofline = result.model.roofline(self.VICTIM)
        last = windows[-1]
        for record in last:
            if record["metric"] != self.VICTIM:
                continue
            x = 4.0 * record["work"] / (4.0 * record["metric_count"])
            y = 4.0 * record["work"] / record["time"]
            bound = roofline.estimate(x)
            assert bound >= y - 1e-6 * max(1.0, y)

    def test_drift_surfaces_on_health_report(self, trained):
        """Drift lives on the stream's report and never reaches the guard
        ledger, so the process's health report stays healthy."""
        model, windows = trained
        result = replay_stream(windows, model=model, faults=self._fault())
        assert self.VICTIM in result.report.refuted_metrics
        health = health_report()
        assert health.ok, health.render()
        assert "drift_events" not in health.to_dict()

    def test_repeated_refutation_goes_stale(self, trained):
        model, windows = trained
        policy = DriftPolicy(max_refits=1)
        # Re-drift the victim with a *growing* factor each window so every
        # refit's bound is refuted again by the next window.
        plan = FaultPlan(
            specs=tuple(
                FaultSpec(
                    workload=self.VICTIM,
                    kind=DRIFT_INJECT,
                    factor=8.0,
                    window=w,
                )
                for w in range(2, len(windows))
            )
        )
        result = replay_stream(
            windows,
            model=model,
            options=StreamOptions(policy=policy),
            faults=plan,
        )
        assert result.report.stale
        assert "max_refits" in result.report.stale_reason
        actions = [e.action for e in result.events if e.metric == self.VICTIM]
        assert "stale" in actions
        assert "STALE" in result.report.render()

    def test_quarantined_when_too_few_recent_samples(self, trained):
        model, windows = trained
        options = StreamOptions(
            policy=DriftPolicy(refit_history=1),
            train=TrainOptions(min_samples_per_metric=64),
        )
        result = replay_stream(
            windows, model=model, options=options, faults=self._fault()
        )
        quarantines = [
            e for e in result.events if e.action == "quarantined"
        ]
        assert quarantines and quarantines[0].metric == self.VICTIM
        assert self.VICTIM in result.report.quarantined_metrics
        # Withheld from serving: the victim is in no served ensemble.
        assert self.VICTIM not in result.model.metrics


class TestServingModelReuse:
    """A sealed window that changes no roofline keeps the served model
    and its packed table; a refit or a quarantine serves a new one."""

    VICTIM = "llc.miss"

    @classmethod
    def _seal_windows(cls, ingestor, windows, drift_from=None):
        """Seal each window; yield the model served before it and the
        window's drift actions."""
        for index, window in enumerate(windows):
            rows = [dict(record, timestamp=float(index)) for record in window]
            if drift_from is not None and index >= drift_from:
                for row in rows:
                    if row["metric"] == cls.VICTIM:
                        row["work"] *= 4.0
                        row["metric_count"] *= 4.0
            before = ingestor.model()
            ingestor.push_records(rows)
            events = ingestor.seal_window()
            yield before, {event.action for event in events}

    @staticmethod
    def _fresh_model(ingestor, model):
        """A new SpireModel of what the ingestor should serve: the
        reference rooflines, then each stream fit not withheld."""
        rooflines = {m: model.roofline(m) for m in ingestor.reference_metrics}
        withheld = ingestor.report().quarantined_metrics
        for metric in ingestor.stream_metrics:
            roofline = ingestor._online.roofline(metric)
            if roofline is not None and metric not in withheld:
                rooflines[metric] = roofline
        return SpireModel(
            rooflines, work_unit=model.work_unit, time_unit=model.time_unit
        )

    def test_unchanged_window_keeps_model_and_packed_table(self, trained):
        model, windows = trained
        ingestor = StreamIngestor(
            model=model, options=StreamOptions(window_samples=1_000)
        )
        served = ingestor.model()
        packed = served.packed_rooflines()
        with mock.patch.object(
            ensemble, "PackedPiecewise", wraps=ensemble.PackedPiecewise
        ) as built:
            for _, actions in self._seal_windows(ingestor, windows):
                assert not actions
                assert ingestor.model() is served
        assert built.call_count == 0
        assert served.packed_rooflines() is packed

    @pytest.mark.parametrize("repair", ["refit", "quarantined"])
    def test_repair_serves_a_fresh_model(self, trained, repair):
        model, windows = trained
        if repair == "refit":
            options = StreamOptions(window_samples=1_000)
        else:
            options = StreamOptions(
                window_samples=1_000,
                policy=DriftPolicy(refit_history=1),
                train=TrainOptions(min_samples_per_metric=64),
            )
        ingestor = StreamIngestor(model=model, options=options)
        repaired = 0
        for before, actions in self._seal_windows(
            ingestor, windows, drift_from=2
        ):
            served = ingestor.model()
            assert served.to_dict(include_training=True) == (
                self._fresh_model(ingestor, model).to_dict(include_training=True)
            )
            if repair in actions:
                repaired += 1
                assert served is not before
                assert (self.VICTIM in served) == (repair == "refit")
            elif repair == "quarantined" and not actions:
                # Withheld, the victim changes nothing that is served.
                assert served is before
        assert repaired


class TestOneEvaluationPerSeal:
    """A seal bounds each covered row once, against the model the window
    opened with.  The phase estimate reuses those bounds and evaluates
    again only the rows of metrics whose served roofline the seal
    changed (refit, re-seeded or newly served); a withheld metric's rows
    are skipped."""

    VICTIM = "llc.miss"
    SCENARIOS = {
        "refit": dict(reference=True, options=StreamOptions(
            window_samples=1_000)),
        "quarantined": dict(reference=True, options=StreamOptions(
            window_samples=1_000,
            policy=DriftPolicy(refit_history=1),
            train=TrainOptions(min_samples_per_metric=64),
        )),
        "warmup": dict(reference=False, options=StreamOptions(
            window_samples=1_000)),
    }

    @classmethod
    def _drifting(cls, windows):
        """Each window's timestamped rows, the victim off its bound from
        window 2 on."""
        for index, window in enumerate(windows):
            rows = [dict(record, timestamp=float(index)) for record in window]
            for row in rows:
                if index >= 2 and row["metric"] == cls.VICTIM:
                    row["work"] *= 4.0
                    row["metric_count"] *= 4.0
            yield index, rows

    @staticmethod
    def _served(ingestor):
        try:
            model = ingestor.model()
        except FitError:
            return None, {}
        return model, {m: model.roofline(m) for m in model.metrics}

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_seal_evaluates_covered_rows_once_and_changed_rows_again(
        self, trained, scenario, monkeypatch
    ):
        monkeypatch.delenv("SPIRE_SCALAR_FALLBACK", raising=False)
        model, windows = trained
        spec = self.SCENARIOS[scenario]
        options = spec["options"]
        ingestor = StreamIngestor(
            model=model if spec["reference"] else None, options=options
        )
        calls = []
        evaluate = PackedPiecewise.evaluate

        def spy(table, k, xs):
            calls.append((table, np.array(k)))
            return evaluate(table, k, xs)

        seen = Counter()  # seals that reached each case
        for index, rows in self._drifting(windows):
            opened, opened_rooflines = self._served(ingestor)
            ingestor.push_records(rows)
            calls.clear()
            with mock.patch.object(PackedPiecewise, "evaluate", spy):
                ingestor.seal_window()
            served, served_rooflines = self._served(ingestor)

            counts = Counter(row["metric"] for row in rows)
            checked = opened is not None and (
                spec["reference"] or index >= options.warmup_windows
            )
            covered = Counter(
                {m: n for m, n in counts.items() if m in opened_rooflines}
            ) if checked else Counter()
            # Served rows without a bound from the check, or whose
            # roofline the seal replaced.
            fresh = Counter({
                m: n for m, n in counts.items()
                if m in served_rooflines and (
                    m not in covered
                    or opened_rooflines[m] is not served_rooflines[m]
                )
            })
            expected = [(opened, covered)] if checked else []
            if fresh:
                expected.append((served, fresh))
            # Each call as (whose table, rows per metric).
            owners = {
                m.packed_rooflines()[1]: (m, {
                    k: name for name, k in m.packed_rooflines()[0].items()
                })
                for m in (opened, served) if m is not None
            }
            assert [
                (owners[table][0], Counter(owners[table][1][k] for k in ks))
                for table, ks in calls
            ] == expected
            seen["reused"] += bool(fresh) and bool(covered - fresh)
            seen["withheld"] += any(m not in served_rooflines for m in covered)
            seen["fresh"] += bool(fresh)
        # Each scenario reaches the case it is named for.
        assert seen[{"refit": "reused", "quarantined": "withheld",
                     "warmup": "fresh"}[scenario]]

    def test_scalar_fallback_runs_no_packed_evaluation(
        self, trained, monkeypatch
    ):
        monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
        model, windows = trained
        ingestor = StreamIngestor(
            model=model, options=StreamOptions(window_samples=1_000)
        )
        with mock.patch.object(
            PackedPiecewise, "evaluate", side_effect=AssertionError
        ) as evaluate:
            for _, rows in self._drifting(windows):
                ingestor.push_records(rows)
                ingestor.seal_window()
        assert evaluate.call_count == 0
        assert "refit" in {event.action for event in ingestor.events}
        assert len(ingestor.report().phases.phases) == len(windows)


class TestNoModelStream:
    def test_learns_from_scratch_with_warmup(self, trained):
        _, windows = trained
        result = replay_stream(windows, options=StreamOptions())
        assert result.model is not None
        assert set(result.model.metrics) == set(METRICS)
        for metric in METRICS:
            assert metric in result.ingestor.stream_metrics

    def test_stale_window_stalls_and_quarantines_late_data(self, trained):
        from repro.errors import DegradedDataWarning

        model, windows = trained
        plan = FaultPlan(
            specs=(FaultSpec(workload="*", kind=STALE_WINDOW, window=2),)
        )
        with pytest.warns(DegradedDataWarning, match="out-of-order"):
            result = replay_stream(windows, model=model, faults=plan)
        stalls = [e for e in result.events if e.action == "stalled"]
        assert [e.window for e in stalls] == [2]
        reasons = [q.reason for q in result.quality.quarantined]
        assert "out-of-order timestamp" in reasons


#: Power-of-two coordinates, so a window row can sit exactly on them.
_SHAPES = {
    # A step: two breakpoints share x = 4, which evaluates to the lower.
    "steps": [(0.5, 0.25), (4.0, 2.0), (4.0, 1.5), (16.0, 1.5)],
    "flat": [(0.0, 3.0)],
    "ramp": [(1.0, 0.5), (2.0, 1.0), (8.0, 2.0)],
    "one.row": [(2.0, 0.75), (32.0, 4.0)],
}


def _packed_model() -> SpireModel:
    return SpireModel(
        {
            metric: MetricRoofline(
                metric=metric,
                function=PiecewiseLinear(points),
                apex=Breakpoint(*max(points, key=lambda p: p[1])),
                sample_count=len(points),
            )
            for metric, points in _SHAPES.items()
        }
    )


#: (metric, intensity choice, throughput factor, time) of one window row.
_WINDOW_ROWS = st.tuples(
    st.sampled_from(sorted(_SHAPES) + ["absent"]),
    st.one_of(
        st.integers(0, 3),                     # the metric's k-th breakpoint x
        st.just(math.inf),                     # the metric never fired
        st.floats(0.01, 64.0, allow_nan=False),
    ),
    st.one_of(
        st.sampled_from([1.0, 1.0 + 5e-7, 1.0 + 2e-6, 0.5, 1.06]),
        st.floats(0.0, 3.0, allow_nan=False),
    ),
    st.sampled_from([0.5, 1.0, 4.0]),
)


def _window_sample(model, metric, choice, factor, time) -> Sample:
    """A sample at the chosen intensity, ``factor`` times its bound."""
    points = _SHAPES.get(metric, [(2.0, 1.0)])
    if isinstance(choice, int):
        # x = 0 would need an infinite count; take x = 1 there instead.
        x = points[choice % len(points)][0] or 1.0
    else:
        x = choice
    bound = (
        model.roofline(metric).estimate(x) if metric in model else 1.0
    )
    work = bound * factor * time  # exact: time is a power of two
    count = 0.0 if math.isinf(x) else work / x
    return Sample(metric, time=time, work=work, metric_count=count)


def _packed_assess(monitor, model, window):
    """``assess`` on the packed path, whatever the ambient setting."""
    with mock.patch.dict(os.environ, {"SPIRE_SCALAR_FALLBACK": "0"}):
        return monitor.assess(model, window)


class TestDriftMonitorUnit:
    def _model(self):
        samples = SampleSet(
            [
                Sample("m", time=1.0, work=min(x, 8.0), metric_count=min(x, 8.0) / x)
                for x in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
            ]
        )
        return SpireModel.train(samples)

    @staticmethod
    def _window(xs, ys, metric="m"):
        """Samples at intensity ``x`` and throughput ``y`` exactly."""
        return SampleSet(
            Sample(metric, time=1.0, work=y, metric_count=y / x)
            for x, y in zip(xs, ys)
        )

    def test_clean_absorbed_refuted_ladder(self):
        monitor = DriftMonitor(DriftPolicy(min_violations=3))
        model = self._model()
        xs = [1.0, 2.0, 4.0, 16.0]
        clean = monitor.assess(model, self._window(xs, [0.5, 1.0, 2.0, 4.0]))
        assert clean["m"].verdict == "clean"
        absorbed = monitor.assess(
            model, self._window(xs, [5.0, 1.0, 2.0, 4.0])
        )["m"]
        assert absorbed.verdict == "absorbed"
        assert absorbed.violations == 1
        refuted = monitor.assess(
            model, self._window(xs, [5.0, 9.0, 9.0, 9.0])
        )["m"]
        assert refuted.verdict == "refuted"
        assert refuted.worst_excess > 0

    def test_empty_window_is_clean(self):
        monitor = DriftMonitor()
        model = self._model()
        assert monitor.assess(model, SampleSet()) == {}
        # Nor is there anything to check in rows the model has no bound for.
        assert monitor.assess(model, self._window([2.0], [9.0], "x")) == {}

    def test_verdicts_match_scalar_oracle(self):
        """The packed pass gives each metric the verdict of its own rows."""
        monitor = DriftMonitor(DriftPolicy(min_violations=1))
        model = _packed_model()
        window = SampleSet(
            Sample(metric, time=1.0, work=y, metric_count=y / x)
            for metric, x, y in [
                ("steps", 4.0, 1.6), ("steps", 4.0, 2.0), ("flat", 8.0, 9.0),
                ("ramp", 2.0, 0.5), ("absent", 2.0, 7.0), ("steps", 0.5, 0.25),
            ]
        )
        packed = _packed_assess(monitor, model, window)
        with force_scalar():
            assert monitor.assess(model, window) == packed
        assert set(packed) == {"steps", "flat", "ramp"}
        # At the step's x the tighter of its two values (1.5) bounds.
        assert packed["steps"].violations == 2
        assert packed["flat"].verdict == "refuted"
        assert packed["ramp"].verdict == "clean"

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(_WINDOW_ROWS, max_size=40),
           tolerance=st.sampled_from([0.0, 1e-6, 0.05]),
           min_violations=st.integers(1, 4))
    def test_packed_verdicts_equal_scalar_on_random_windows(
        self, rows, tolerance, min_violations
    ):
        monitor = DriftMonitor(
            DriftPolicy(tolerance=tolerance, min_violations=min_violations)
        )
        model = _packed_model()
        window = SampleSet(_window_sample(model, *row) for row in rows)
        packed = _packed_assess(monitor, model, window)
        with force_scalar():
            scalar = monitor.assess(model, window)
        assert packed == scalar
        assert set(packed) == set(window.metrics()) - {"absent"}

    def test_note_refit_counts_to_stale(self):
        monitor = DriftMonitor(DriftPolicy(max_refits=2))
        assert monitor.note_refit("m") is False
        assert monitor.note_refit("m") is False
        assert monitor.note_refit("m") is True
        assert monitor.refit_counts == {"m": 3}

    def test_window_stale_fraction(self):
        monitor = DriftMonitor(DriftPolicy(stale_fraction=0.5))
        assert not monitor.window_stale(4, 2)
        assert monitor.window_stale(4, 3)
        assert not monitor.window_stale(0, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": -1.0},
            {"min_violations": 0},
            {"refute_fraction": 0.0},
            {"refute_fraction": 1.5},
            {"max_refits": 0},
            {"stale_fraction": 0.0},
            {"refit_history": 0},
        ],
    )
    def test_policy_validation(self, kwargs):
        with pytest.raises(ConfigError):
            DriftPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"window_samples": 0}, {"warmup_windows": 0}],
    )
    def test_stream_options_validation(self, kwargs):
        with pytest.raises(ConfigError):
            StreamOptions(**kwargs)
