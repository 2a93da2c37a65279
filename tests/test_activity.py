"""Unit tests for the WindowActivity record."""

import pytest

from repro.uarch.activity import WindowActivity


class TestProperties:
    def test_ipc(self):
        a = WindowActivity(instructions=100.0, cycles=50.0)
        assert a.ipc == 2.0

    def test_ipc_zero_cycles(self):
        assert WindowActivity().ipc == 0.0

    def test_miss_aggregates(self):
        a = WindowActivity(l2_served=10.0, l3_served=5.0, dram_served=2.0)
        assert a.l1_misses == 17.0
        assert a.l2_misses == 7.0
        assert a.l3_misses == 2.0

    def test_backend_stall_cycles(self):
        a = WindowActivity(c_mem=3.0, c_core=4.0)
        assert a.backend_stall_cycles == 7.0


class TestConsistency:
    def test_consistent_record_passes(self):
        a = WindowActivity(
            cycles=10.0,
            c_base=4.0,
            c_fe=2.0,
            c_bad=1.0,
            c_mem=2.0,
            c_core=1.0,
            c_fe_latency=1.5,
            c_fe_bandwidth=0.5,
            c_mem_cache=1.0,
            c_mem_lock=1.0,
            c_core_div=0.5,
            c_core_ports=0.5,
            uops_issued=40.0,
            uops_retired=36.0,
        )
        a.check_consistency()

    def test_bad_cycle_sum_fails(self):
        a = WindowActivity(cycles=100.0, c_base=1.0)
        with pytest.raises(AssertionError, match="do not sum"):
            a.check_consistency()

    def test_retired_above_issued_fails(self):
        a = WindowActivity(
            cycles=1.0, c_base=1.0, uops_issued=10.0, uops_retired=20.0
        )
        with pytest.raises(AssertionError, match="retired"):
            a.check_consistency()
