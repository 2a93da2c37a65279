"""Unit tests for multiplexed sample collection."""

import math
import random

import pytest

from repro.counters.collector import (
    CollectionConfig,
    SampleCollector,
    chunk_events,
)
from repro.errors import ConfigError
from repro.uarch.core import CoreModel
from repro.uarch.spec import WindowSpec


class TestChunking:
    def test_even_split(self):
        assert chunk_events(list("abcd"), 2) == [["a", "b"], ["c", "d"]]

    def test_ragged_tail(self):
        assert chunk_events(list("abcde"), 2) == [["a", "b"], ["c", "d"], ["e"]]

    def test_invalid_size(self):
        with pytest.raises(ConfigError):
            chunk_events(["a"], 0)


class TestConfigValidation:
    def test_invalid_period(self):
        with pytest.raises(ConfigError):
            CollectionConfig(windows_per_period=0)

    def test_negative_overhead(self):
        with pytest.raises(ConfigError):
            CollectionConfig(switch_overhead_cycles=-1)

    def test_fixed_event_in_list_rejected(self, machine):
        collector = SampleCollector(
            machine, config=CollectionConfig(events=("inst_retired.any",))
        )
        with pytest.raises(ConfigError, match="fixed"):
            collector.collect(CoreModel(machine), [WindowSpec()])

    def test_bad_work_event_rejected(self, machine):
        with pytest.raises(ConfigError):
            SampleCollector(machine, work_event="not.an.event")


class TestMultiplexedCollection:
    @pytest.fixture
    def result(self, machine, core):
        config = CollectionConfig(
            windows_per_period=12,
            events=(
                "idq.dsb_uops",
                "br_misp_retired.all_branches",
                "longest_lat_cache.miss",
                "resource_stalls.any",
                "idq.ms_switches",
                "mem_inst_retired.lock_loads",
            ),
        )
        collector = SampleCollector(machine, config=config)
        specs = [WindowSpec(instructions=5_000)] * 48
        return collector.collect(core, specs, rng=random.Random(0))

    def test_every_event_sampled(self, result):
        assert sorted(result.samples.metrics()) == sorted(
            [
                "idq.dsb_uops",
                "br_misp_retired.all_branches",
                "longest_lat_cache.miss",
                "resource_stalls.any",
                "idq.ms_switches",
                "mem_inst_retired.lock_loads",
            ]
        )

    def test_period_count(self, result):
        assert result.periods == 4  # 48 windows / 12 per period

    def test_samples_have_positive_time(self, result):
        assert all(s.time > 0 for s in result.samples)

    def test_sample_time_below_total(self, result):
        # Each multiplexed sample saw only its own slices.
        for s in result.samples:
            assert s.time < result.total_cycles

    def test_full_counts_cover_catalog(self, result, machine):
        assert result.full_counts["inst_retired.any"] == pytest.approx(
            result.total_instructions
        )
        assert result.full_counts["cpu_clk_unhalted.thread"] == pytest.approx(
            result.total_cycles
        )

    def test_overhead_accounted(self, result):
        assert result.overhead_cycles > 0
        assert 0 < result.overhead_fraction < 0.5

    def test_measured_ipc_sane(self, result, machine):
        assert 0 < result.measured_ipc <= machine.pipeline_width


class TestUnmultiplexedCollection:
    def test_rectangular_samples(self, machine, core):
        config = CollectionConfig(
            windows_per_period=6,
            multiplex=False,
            events=("idq.dsb_uops", "longest_lat_cache.miss"),
        )
        collector = SampleCollector(machine, config=config)
        result = collector.collect(core, [WindowSpec(instructions=5_000)] * 18)
        grouped = result.samples.grouped()
        lengths = {len(v) for v in grouped.values()}
        assert lengths == {3}  # 18/6 periods for every metric

    def test_unmultiplexed_shares_time_and_work(self, machine, core):
        config = CollectionConfig(
            windows_per_period=6,
            multiplex=False,
            events=("idq.dsb_uops", "longest_lat_cache.miss"),
        )
        collector = SampleCollector(machine, config=config)
        result = collector.collect(core, [WindowSpec(instructions=5_000)] * 6)
        by_metric = result.samples.grouped()
        t1 = by_metric["idq.dsb_uops"][0].time
        t2 = by_metric["longest_lat_cache.miss"][0].time
        assert t1 == pytest.approx(t2)

    def test_no_overhead_when_unmultiplexed(self, machine, core):
        config = CollectionConfig(multiplex=False, events=("idq.dsb_uops",))
        collector = SampleCollector(machine, config=config)
        result = collector.collect(core, [WindowSpec()] * 4)
        assert result.overhead_cycles == 0.0


class TestDefaults:
    def test_defaults_cover_all_programmable_events(self, machine, core):
        collector = SampleCollector(
            machine, config=CollectionConfig(windows_per_period=60)
        )
        specs = [WindowSpec(instructions=2_000)] * 60
        result = collector.collect(core, specs, rng=random.Random(1))
        from repro.counters.events import default_catalog

        assert sorted(result.samples.metrics()) == sorted(
            default_catalog().programmable_names
        )

    def test_partial_final_period_flushed(self, machine, core):
        config = CollectionConfig(
            windows_per_period=10, events=("idq.dsb_uops",)
        )
        collector = SampleCollector(machine, config=config)
        result = collector.collect(core, [WindowSpec()] * 15)
        assert result.periods == 2

    def test_infinite_intensity_samples_supported(self, machine, core):
        # A workload that never misses to DRAM yields zero-count samples
        # for the L3 metric, i.e. infinite operational intensity.
        config = CollectionConfig(
            multiplex=False, events=("longest_lat_cache.miss",), windows_per_period=2
        )
        collector = SampleCollector(machine, config=config)
        spec = WindowSpec(l1_miss_per_load=0.0)
        result = collector.collect(core, [spec] * 2)
        sample = result.samples.for_metric("longest_lat_cache.miss")[0]
        assert math.isinf(sample.intensity)
