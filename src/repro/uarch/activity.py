"""Raw microarchitectural activity of one simulated execution window.

:class:`WindowActivity` is the interface between the core model and the
PMU: the core fills in raw quantities (cycle components, micro-op counts,
cache misses, ...) and each PMU event (:mod:`repro.counters.events`) is a
formula over one of these records.  Keeping the raw activity separate from
the event definitions means a different PMU (different event set) can be
attached to the same core without touching the core model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class WindowActivity:
    """Everything the core did during one window, in raw counts/cycles.

    Cycle components (``c_*``) partition the window's total cycles the way
    an interval model attributes them:

    - ``c_base``  — ideal retirement, ``uops / pipeline_width``
    - ``c_fe``    — cycles lost because the front end under-delivered
    - ``c_bad``   — misspeculation recovery plus wasted-issue time
    - ``c_mem``   — exposed memory stalls (cache misses, locked loads)
    - ``c_core``  — non-memory back-end stalls (ports, ILP, divider, SIMD
      width transitions)
    """

    instructions: float = 0.0
    cycles: float = 0.0

    # Cycle attribution.
    c_base: float = 0.0
    c_fe: float = 0.0
    c_bad: float = 0.0
    c_mem: float = 0.0
    c_core: float = 0.0
    # Sub-components (already included in the aggregates above).
    c_fe_latency: float = 0.0
    c_fe_bandwidth: float = 0.0
    c_mem_cache: float = 0.0
    c_mem_lock: float = 0.0
    c_mem_tlb: float = 0.0
    c_core_div: float = 0.0
    c_core_ports: float = 0.0
    c_core_vw: float = 0.0

    # Micro-op flow.
    uops: float = 0.0
    wasted_uops: float = 0.0
    uops_issued: float = 0.0
    uops_retired: float = 0.0
    uops_executed: float = 0.0

    # Front-end supply.
    dsb_uops: float = 0.0
    mite_uops: float = 0.0
    ms_uops: float = 0.0
    dsb_active_cycles: float = 0.0
    mite_active_cycles: float = 0.0
    ms_active_cycles: float = 0.0
    ms_switches: float = 0.0
    dsb_switch_events: float = 0.0
    fe_bubble_events: float = 0.0

    # Speculation.
    branches: float = 0.0
    mispredicted_branches: float = 0.0
    recovery_cycles: float = 0.0

    # Memory.
    loads: float = 0.0
    stores: float = 0.0
    lock_loads: float = 0.0
    l1_hits: float = 0.0
    l2_served: float = 0.0
    l3_served: float = 0.0
    dram_served: float = 0.0
    miss_latency_cycles: float = 0.0  # sum of per-miss latencies (pre-MLP)
    dtlb_walks: float = 0.0
    dtlb_walk_cycles: float = 0.0
    prefetches_issued: float = 0.0

    # Execution.
    divides: float = 0.0
    divider_active_cycles: float = 0.0
    exec_active_cycles: float = 0.0
    exec_cycles_1_port: float = 0.0
    exec_cycles_2_ports: float = 0.0
    exec_cycles_3_plus_ports: float = 0.0
    port_uops: dict[str, float] = field(default_factory=dict)

    # SIMD.
    vector_uops_128: float = 0.0
    vector_uops_256: float = 0.0
    vector_uops_512: float = 0.0
    vw_mismatch_events: float = 0.0

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle for this window."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_misses(self) -> float:
        return self.l2_served + self.l3_served + self.dram_served

    @property
    def l2_misses(self) -> float:
        return self.l3_served + self.dram_served

    @property
    def l3_misses(self) -> float:
        return self.dram_served

    @property
    def backend_stall_cycles(self) -> float:
        return self.c_mem + self.c_core

    def check_consistency(self, tolerance: float = 1e-6) -> None:
        """Assert internal bookkeeping invariants; raises AssertionError."""
        total = self.c_base + self.c_fe + self.c_bad + self.c_mem + self.c_core
        assert abs(total - self.cycles) <= tolerance * max(1.0, self.cycles), (
            f"cycle components {total} do not sum to total {self.cycles}"
        )
        assert self.uops_retired <= self.uops_issued + tolerance, (
            "retired more uops than issued"
        )
        assert abs(self.c_fe_latency + self.c_fe_bandwidth - self.c_fe) <= tolerance * max(
            1.0, self.c_fe
        ), "front-end sub-components do not sum"
        mem_parts = self.c_mem_cache + self.c_mem_lock + self.c_mem_tlb
        assert abs(mem_parts - self.c_mem) <= tolerance * max(
            1.0, self.c_mem
        ), "memory sub-components do not sum"
        core_parts = self.c_core_div + self.c_core_ports + self.c_core_vw
        assert abs(core_parts - self.c_core) <= tolerance * max(1.0, self.c_core), (
            "core sub-components do not sum"
        )
