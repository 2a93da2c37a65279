"""Integration: SPIRE applied unmodified to the trace substrate.

The architecture-independence claim, demonstrated end to end: samples
collected from the cycle-accounting trace pipeline (a machine with
entirely different internals from :mod:`repro.uarch`) train a SPIRE
ensemble that identifies each kernel's planted bottleneck.
"""

import pytest

from repro.core import SpireModel
from repro.core.sample import SampleSet
from repro.errors import ConfigError
from repro.fastpath import force_scalar
from repro.trace import TRACE_EVENT_AREAS, collect_trace_samples


@pytest.fixture(scope="module")
def trace_model():
    pooled = SampleSet()
    for seed, kernel in enumerate(
        ("stream", "pointer_chase", "branchy", "compute", "divider", "mixed")
    ):
        run = collect_trace_samples(
            kernel, n_uops=24_000, window_uops=2_000, seed=seed
        )
        pooled.extend(run.samples)
    return SpireModel.train(pooled), pooled


class TestCollection:
    def test_samples_cover_all_metrics(self, trace_model):
        _, pooled = trace_model
        assert set(pooled.metrics()) == set(TRACE_EVENT_AREAS)

    def test_validation(self):
        with pytest.raises(ConfigError):
            collect_trace_samples("stream", n_uops=10, window_uops=100)
        # Intensities outside [0, 1] (NaN too) are refused on both paths
        # before any round runs.
        for kernel, intensities in (
            ("stream", (1.7, -3.0)),
            ("codebloat", (float("nan"),)),
            ("pointer_chase", (0.5, float("nan"))),
        ):
            with pytest.raises(ConfigError, match="intensity"):
                collect_trace_samples(kernel, 8_000, 4_000, intensities)
            with force_scalar(), pytest.raises(ConfigError, match="intensity"):
                collect_trace_samples(kernel, 8_000, 4_000, intensities)

    def test_run_reports_ipc(self):
        run = collect_trace_samples(
            "compute", n_uops=8_000, window_uops=2_000, intensities=(0.0,)
        )
        assert 0 < run.ipc <= 4.0
        assert run.final_counters["trace.instructions"] == 8_000


class TestTrainedModel:
    def test_one_roofline_per_metric(self, trace_model):
        model, pooled = trace_model
        assert set(model.metrics) == set(pooled.metrics())

    def test_upper_bound_everywhere(self, trace_model):
        model, pooled = trace_model
        for metric in model.metrics:
            assert model.roofline(metric).is_upper_bound_of_training_data()

    @pytest.mark.parametrize(
        "kernel,intensity,expected_area,expected_metrics",
        [
            ("pointer_chase", 0.9, "Memory",
             ("trace.memory_wait_cycles", "trace.l3_misses", "trace.l1_misses")),
            ("branchy", 1.0, "Bad Speculation",
             ("trace.branch_mispredicts", "trace.redirect_stall_cycles")),
            ("divider", 1.0, "Core",
             ("trace.divider_busy_cycles", "trace.divides")),
        ],
    )
    def test_bottleneck_identified(
        self, trace_model, kernel, intensity, expected_area, expected_metrics
    ):
        model, _ = trace_model
        run = collect_trace_samples(
            kernel,
            n_uops=16_000,
            window_uops=2_000,
            intensities=(intensity,),
            seed=99,
        )
        report = model.analyze(
            run.samples,
            workload=kernel,
            top_k=5,
            metric_areas=TRACE_EVENT_AREAS,
        )
        top_metrics = [e.metric for e in report.top(5)]
        assert any(m in top_metrics for m in expected_metrics), top_metrics
        areas = [report.area_of(m) for m in top_metrics]
        assert expected_area in areas

    def test_estimates_track_measured_ipc(self, trace_model):
        model, _ = trace_model
        for kernel, intensity in (("compute", 0.0), ("pointer_chase", 0.9)):
            run = collect_trace_samples(
                kernel, n_uops=16_000, window_uops=2_000,
                intensities=(intensity,), seed=7,
            )
            estimate = model.estimate(run.samples)
            # The bound lands within a factor of ~3 of measured IPC (same
            # order), distinguishing a 2-IPC kernel from a 0.02-IPC one.
            assert estimate.throughput < max(3.0 * run.ipc, run.ipc + 1.0)
            assert estimate.throughput > 0.2 * run.ipc


class TestFrontEndKernel:
    def test_codebloat_flagged_front_end(self, trace_model):
        model, pooled = trace_model
        # The shared model was trained without codebloat; train a fresh one
        # including it for this probe.
        fresh = SampleSet(list(pooled))
        run = collect_trace_samples(
            "codebloat", n_uops=24_000, window_uops=2_000, seed=41
        )
        fresh.extend(run.samples)
        model_with_fe = SpireModel.train(fresh)
        probe = collect_trace_samples(
            "codebloat", n_uops=12_000, window_uops=2_000,
            intensities=(1.0,), seed=55,
        )
        report = model_with_fe.analyze(
            probe.samples, workload="codebloat", top_k=5,
            metric_areas=TRACE_EVENT_AREAS,
        )
        top = [e.metric for e in report.top(5)]
        assert any("icache" in metric for metric in top), top
