"""The core model: turns workload specs into windows of activity.

The model is interval-style and additive: a window's cycles are the ideal
retirement time plus the exposed cost of each mechanism (front-end supply,
misspeculation, memory stalls, core stalls).  Additivity keeps the PMU's
cycle-attribution counters internally consistent — exactly the property
Top-Down analysis relies on — while each component remains monotone in the
workload rate that drives it, which is the property SPIRE's per-metric
rooflines learn.

Stochastic behaviour: when a ``random.Random`` is supplied, the workload's
statistical rates are jittered log-normally per window.  This is what
spreads training samples across each metric's operational-intensity axis,
standing in for the phase variation of real programs.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from typing import Iterable

from repro.uarch.activity import WindowActivity
from repro.uarch.backend import BackendModel, port_activity_histogram
from repro.uarch.config import MachineConfig
from repro.uarch.frontend import FrontendModel
from repro.uarch.memory import MemoryModel
from repro.uarch.spec import WindowSpec


def _lognormal(rng: random.Random, scale: float) -> float:
    return math.exp(rng.gauss(0.0, scale))


def _clamp(value: float, low: float, high: float) -> float:
    return min(high, max(low, value))


def jitter_spec(spec: WindowSpec, rng: random.Random, scale: float) -> WindowSpec:
    """Log-normally perturb a window spec's statistical rates."""
    if scale <= 0:
        return spec
    return replace(
        spec,
        branch_mispredict_rate=_clamp(
            spec.branch_mispredict_rate * _lognormal(rng, scale), 0.0, 1.0
        ),
        l1_miss_per_load=_clamp(spec.l1_miss_per_load * _lognormal(rng, scale), 0.0, 1.0),
        l2_miss_fraction=_clamp(spec.l2_miss_fraction * _lognormal(rng, scale), 0.0, 1.0),
        l3_miss_fraction=_clamp(spec.l3_miss_fraction * _lognormal(rng, scale), 0.0, 1.0),
        dsb_coverage=_clamp(spec.dsb_coverage * _lognormal(rng, scale * 0.4), 0.0, 1.0),
        microcode_fraction=_clamp(
            spec.microcode_fraction * _lognormal(rng, scale), 0.0, 1.0
        ),
        fe_bubble_rate=max(0.0, spec.fe_bubble_rate * _lognormal(rng, scale)),
        lock_load_fraction=_clamp(
            spec.lock_load_fraction * _lognormal(rng, scale), 0.0, 1.0
        ),
        dtlb_miss_per_access=_clamp(
            spec.dtlb_miss_per_access * _lognormal(rng, scale), 0.0, 1.0
        ),
        ilp=_clamp(spec.ilp * _lognormal(rng, scale * 0.5), 0.5, 16.0),
        mlp=_clamp(spec.mlp * _lognormal(rng, scale * 0.5), 1.0, 64.0),
    )


class CoreModel:
    """A single simulated out-of-order core.

    Parameters
    ----------
    machine:
        The microarchitecture to model.
    jitter:
        Log-normal sigma applied to workload rates per window when an RNG
        is provided to :meth:`simulate_window`.
    measurement_noise:
        Log-normal sigma applied to the final cycle count, modelling the
        residual measurement error of real counter sampling.
    """

    def __init__(
        self,
        machine: MachineConfig,
        jitter: float = 0.25,
        measurement_noise: float = 0.01,
    ):
        self.machine = machine
        self.jitter = jitter
        self.measurement_noise = measurement_noise
        self.frontend = FrontendModel(machine)
        self.backend = BackendModel(machine)
        self.memory = MemoryModel(machine)

    def simulate_window(
        self, spec: WindowSpec, rng: random.Random | None = None
    ) -> WindowActivity:
        """Execute one window of the workload and report its activity."""
        if rng is not None:
            spec = jitter_spec(spec, rng, self.jitter)

        machine = self.machine
        n = float(spec.instructions)
        uops = n * spec.uops_per_instruction

        branches = n * spec.frac_branches
        mispredicts = branches * spec.branch_mispredict_rate
        wasted = min(uops * 0.6, mispredicts * machine.wasted_uops_per_mispredict)
        uops_issued = uops + wasted
        uops_executed = uops + 0.7 * wasted
        uops_retired = uops
        recovery = mispredicts * machine.branch_mispredict_penalty

        width = machine.pipeline_width
        c_base = uops_retired / width
        c_bad = recovery + wasted / width

        fe = self.frontend.evaluate(spec, uops_issued, n)
        mem = self.memory.evaluate(spec, n)
        be = self.backend.evaluate(spec, uops_executed, n, c_base)

        c_fe = fe.total_cycles
        c_mem = mem.total_stall_cycles
        c_core = be.total_stall_cycles
        # Residual measurement noise scales the whole cycle breakdown so the
        # attribution stays internally consistent.
        noise = 1.0
        if rng is not None and self.measurement_noise > 0:
            noise = _lognormal(rng, self.measurement_noise)
        c_base *= noise
        c_fe *= noise
        c_bad *= noise
        c_mem *= noise
        c_core *= noise
        recovery *= noise
        cycles = c_base + c_fe + c_bad + c_mem + c_core

        activity = WindowActivity(
            instructions=n,
            cycles=cycles,
            c_base=c_base,
            c_fe=c_fe,
            c_bad=c_bad,
            c_mem=c_mem,
            c_core=c_core,
            c_fe_latency=fe.latency_cycles * noise,
            c_fe_bandwidth=fe.bandwidth_cycles * noise,
            c_mem_cache=mem.cache_stall_cycles * noise,
            c_mem_lock=mem.lock_stall_cycles * noise,
            c_mem_tlb=mem.tlb_stall_cycles * noise,
            c_core_div=be.divider_stall_cycles * noise,
            c_core_ports=be.port_stall_cycles * noise,
            c_core_vw=be.vw_stall_cycles * noise,
            uops=uops,
            wasted_uops=wasted,
            uops_issued=uops_issued,
            uops_retired=uops_retired,
            uops_executed=uops_executed,
            dsb_uops=fe.dsb_uops,
            mite_uops=fe.mite_uops,
            ms_uops=fe.ms_uops,
            dsb_active_cycles=fe.dsb_active_cycles,
            mite_active_cycles=fe.mite_active_cycles,
            ms_active_cycles=fe.ms_active_cycles,
            ms_switches=fe.ms_switches,
            dsb_switch_events=fe.dsb_switch_events,
            fe_bubble_events=fe.fe_bubble_events,
            branches=branches,
            mispredicted_branches=mispredicts,
            recovery_cycles=recovery,
            loads=mem.loads,
            stores=mem.stores,
            lock_loads=mem.lock_loads,
            l1_hits=mem.l1_hits,
            l2_served=mem.l2_served,
            l3_served=mem.l3_served,
            dram_served=mem.dram_served,
            miss_latency_cycles=mem.miss_latency_cycles,
            dtlb_walks=mem.dtlb_walks,
            dtlb_walk_cycles=mem.dtlb_walk_cycles,
            prefetches_issued=mem.prefetches_issued,
            divides=be.divides,
            divider_active_cycles=be.divider_active_cycles,
            port_uops=dict(be.port_uops),
            vector_uops_128=be.vector_uops_128,
            vector_uops_256=be.vector_uops_256,
            vector_uops_512=be.vector_uops_512,
            vw_mismatch_events=be.vw_mismatch_events,
        )

        # Execution-activity histogram: cycles in which at least one port
        # executed a uop, split by busy-port count.
        exec_active = _clamp(
            c_base + be.port_stall_cycles + 0.3 * c_mem, 1.0, max(1.0, cycles)
        )
        activity.exec_active_cycles = exec_active
        c1, c2, c3 = port_activity_histogram(
            uops_executed, exec_active, len(machine.ports)
        )
        activity.exec_cycles_1_port = c1
        activity.exec_cycles_2_ports = c2
        activity.exec_cycles_3_plus_ports = c3
        return activity

    def simulate_run(
        self, specs: Iterable[WindowSpec], rng: random.Random | None = None
    ) -> list[WindowActivity]:
        """Simulate a sequence of windows, one :meth:`simulate_window` each."""
        return [self.simulate_window(spec, rng) for spec in specs]
