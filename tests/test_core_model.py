"""Unit tests for the core model (window simulation)."""

import random

import pytest

from repro.uarch.core import CoreModel, jitter_spec
from repro.uarch.spec import WindowSpec


class TestDeterministicSimulation:
    def test_deterministic_without_rng(self, core, base_spec):
        a = core.simulate_window(base_spec)
        b = core.simulate_window(base_spec)
        assert a.cycles == b.cycles
        assert a.ipc == b.ipc

    def test_cycle_components_sum(self, core, base_spec):
        activity = core.simulate_window(base_spec)
        activity.check_consistency()

    def test_cycle_components_sum_with_noise(self, core, base_spec):
        activity = core.simulate_window(base_spec, random.Random(1))
        activity.check_consistency()

    def test_instructions_preserved(self, core, base_spec):
        activity = core.simulate_window(base_spec)
        assert activity.instructions == base_spec.instructions

    def test_ipc_positive_and_bounded(self, core, base_spec):
        activity = core.simulate_window(base_spec)
        assert 0 < activity.ipc <= core.machine.pipeline_width

    def test_uop_flow_ordering(self, core):
        spec = WindowSpec(frac_branches=0.2, branch_mispredict_rate=0.05)
        activity = core.simulate_window(spec)
        assert activity.uops_retired <= activity.uops_executed <= activity.uops_issued

    def test_simulate_run(self, core, base_spec):
        activities = core.simulate_run([base_spec] * 5)
        assert len(activities) == 5


class TestBottleneckMonotonicity:
    """Each injected cause must reduce IPC — the property SPIRE learns."""

    def _ipc(self, core, **kwargs):
        return core.simulate_window(WindowSpec(**kwargs)).ipc

    def test_mispredicts_hurt(self, core):
        good = self._ipc(core, branch_mispredict_rate=0.0)
        bad = self._ipc(core, branch_mispredict_rate=0.1)
        assert bad < good

    def test_cache_misses_hurt(self, core):
        good = self._ipc(core, l1_miss_per_load=0.0)
        bad = self._ipc(core, l1_miss_per_load=0.2)
        assert bad < good

    def test_low_dsb_coverage_hurts(self, core):
        good = self._ipc(core, dsb_coverage=1.0)
        bad = self._ipc(core, dsb_coverage=0.0)
        assert bad < good

    def test_low_ilp_hurts(self, core):
        good = self._ipc(core, ilp=6.0)
        bad = self._ipc(core, ilp=1.0)
        assert bad < good

    def test_divides_hurt(self, core):
        good = self._ipc(core, frac_divides=0.0)
        bad = self._ipc(core, frac_divides=0.02)
        assert bad < good

    def test_lock_loads_hurt(self, core):
        good = self._ipc(core, lock_load_fraction=0.0)
        bad = self._ipc(core, lock_load_fraction=0.02)
        assert bad < good

    def test_fe_bubbles_hurt(self, core):
        good = self._ipc(core, fe_bubble_rate=0.0)
        bad = self._ipc(core, fe_bubble_rate=0.05)
        assert bad < good

    def test_mlp_helps(self, core):
        slow = self._ipc(core, l1_miss_per_load=0.1, mlp=1.0)
        fast = self._ipc(core, l1_miss_per_load=0.1, mlp=8.0)
        assert fast > slow

    def test_microcode_hurts(self, core):
        good = self._ipc(core, microcode_fraction=0.0)
        bad = self._ipc(core, microcode_fraction=0.3)
        assert bad < good


class TestJitter:
    def test_jitter_preserves_validity(self, base_spec):
        rng = random.Random(0)
        for _ in range(50):
            jittered = jitter_spec(base_spec, rng, 0.5)
            assert 0.0 <= jittered.branch_mispredict_rate <= 1.0
            assert 0.0 <= jittered.dsb_coverage <= 1.0
            assert jittered.mlp >= 1.0
            assert jittered.ilp >= 0.5

    def test_zero_scale_is_identity(self, base_spec):
        assert jitter_spec(base_spec, random.Random(0), 0.0) == base_spec

    def test_rng_spreads_ipc(self, core, base_spec):
        rng = random.Random(7)
        ipcs = {round(core.simulate_window(base_spec, rng).ipc, 6) for _ in range(20)}
        assert len(ipcs) > 10

    def test_seeded_runs_reproducible(self, core, base_spec):
        a = [core.simulate_window(base_spec, random.Random(3)).cycles for _ in range(3)]
        b = [core.simulate_window(base_spec, random.Random(3)).cycles for _ in range(3)]
        assert a == b


class TestActivityDetails:
    def test_port_histogram_partition(self, core, base_spec):
        activity = core.simulate_window(base_spec)
        total = (
            activity.exec_cycles_1_port
            + activity.exec_cycles_2_ports
            + activity.exec_cycles_3_plus_ports
        )
        assert total == pytest.approx(activity.exec_active_cycles)

    def test_exec_active_within_cycles(self, core, base_spec):
        activity = core.simulate_window(base_spec)
        assert 0 < activity.exec_active_cycles <= activity.cycles

    def test_wasted_uops_capped(self, core):
        spec = WindowSpec(frac_branches=0.3, branch_mispredict_rate=1.0)
        activity = core.simulate_window(spec)
        assert activity.wasted_uops <= 0.6 * activity.uops
