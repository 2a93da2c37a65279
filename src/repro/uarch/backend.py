"""Back-end execution model: ports, ILP limits, divider, SIMD transitions.

Micro-ops are routed to the machine's execution ports by class; the
busiest port sets a bandwidth floor on execution time, and the workload's
available instruction-level parallelism sets another.  The non-pipelined
divider and AVX 256/512-bit width transitions add serialization charged as
core-bound stall cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.uarch.config import MachineConfig
from repro.uarch.spec import WindowSpec

# Fraction of divider occupancy that cannot be hidden by other work, and
# the rate at which mixed-width SIMD streams incur transition events.
_DIVIDER_EXPOSURE = 0.6
_VW_EVENT_RATE = 0.05


@dataclass(frozen=True, slots=True)
class BackendResult:
    """Per-window back-end activity."""

    divides: float
    divider_active_cycles: float
    port_uops: dict[str, float] = field(default_factory=dict)
    port_limit_cycles: float = 0.0
    ilp_limit_cycles: float = 0.0
    port_stall_cycles: float = 0.0
    divider_stall_cycles: float = 0.0
    vw_mismatch_events: float = 0.0
    vw_stall_cycles: float = 0.0
    vector_uops_128: float = 0.0
    vector_uops_256: float = 0.0
    vector_uops_512: float = 0.0

    @property
    def total_stall_cycles(self) -> float:
        return self.port_stall_cycles + self.divider_stall_cycles + self.vw_stall_cycles


class BackendModel:
    """Evaluates execution-resource pressure for one window."""

    def __init__(self, machine: MachineConfig):
        self.machine = machine

    def evaluate(
        self,
        spec: WindowSpec,
        uops_executed: float,
        instructions: float,
        base_cycles: float,
    ) -> BackendResult:
        """Compute port pressure and core-bound stalls.

        ``base_cycles`` is the ideal retirement time (``uops / width``);
        execution limits only cost extra cycles beyond it.
        """
        machine = self.machine
        scale = uops_executed / max(1.0, instructions * spec.uops_per_instruction)
        n = instructions * scale  # executed instruction equivalents

        loads = n * spec.frac_loads
        stores = n * spec.frac_stores
        branches = n * spec.frac_branches
        divides = n * spec.frac_divides
        v128 = n * spec.frac_vector_128
        v256 = n * spec.frac_vector_256
        v512 = n * spec.frac_vector_512
        covered = loads + stores * 2 + branches + divides + v128 + v256 + v512
        alu = max(0.0, uops_executed - covered)

        class_uops = {
            "load": loads,
            "store_data": stores,
            "store_addr": stores,
            "branch": branches,
            "div": divides,
            "fp": v128 + v256 + v512,
            "alu": alu,
        }
        port_uops: dict[str, float] = {p.name: 0.0 for p in machine.ports}
        for uop_class, count in class_uops.items():
            if count <= 0:
                continue
            targets = machine.ports_for(uop_class)
            share = count / len(targets)
            for port in targets:
                port_uops[port.name] += share

        port_limit = max(port_uops.values()) if port_uops else 0.0
        exec_width = min(len(machine.ports), machine.pipeline_width * 2)
        ilp_limit = uops_executed / min(spec.ilp, float(exec_width))
        exec_floor = max(port_limit, ilp_limit)
        port_stalls = max(0.0, exec_floor - base_cycles)

        divider_active = divides * machine.divider_latency
        divider_stalls = divider_active * _DIVIDER_EXPOSURE

        wide_uops = v256 + v512
        mixing = spec.vector_width_mix if (v256 > 0 and v512 > 0) else 0.0
        vw_events = wide_uops * mixing * _VW_EVENT_RATE
        vw_stalls = vw_events * machine.vector_width_transition_penalty

        return BackendResult(
            divides=divides,
            divider_active_cycles=divider_active,
            port_uops=port_uops,
            port_limit_cycles=port_limit,
            ilp_limit_cycles=ilp_limit,
            port_stall_cycles=port_stalls,
            divider_stall_cycles=divider_stalls,
            vw_mismatch_events=vw_events,
            vw_stall_cycles=vw_stalls,
            vector_uops_128=v128,
            vector_uops_256=v256,
            vector_uops_512=v512,
        )


def port_activity_histogram(
    uops_executed: float, active_cycles: float, port_count: int
) -> tuple[float, float, float]:
    """Split active cycles into 1 / 2 / 3+ busy-port buckets.

    Uses a Poisson approximation of per-cycle port occupancy conditioned on
    at least one port being busy.  Feeds the ``exe_activity.*_ports_util``
    events; low-ILP workloads show a heavy 1-port bucket, which is the
    signature SPIRE's ``C1.3`` metric picks up for the Parboil analog.
    """
    if active_cycles <= 0 or uops_executed <= 0:
        return (0.0, 0.0, 0.0)
    mean_busy = min(float(port_count), uops_executed / active_cycles)
    # Probabilities of exactly k busy ports under Poisson(mean_busy),
    # conditioned on k >= 1.
    p0 = math.exp(-mean_busy)
    if p0 >= 1.0:
        return (0.0, 0.0, 0.0)
    p1 = mean_busy * p0
    p2 = mean_busy**2 / 2.0 * p0
    norm = 1.0 - p0
    c1 = active_cycles * p1 / norm
    c2 = active_cycles * p2 / norm
    c3 = max(0.0, active_cycles - c1 - c2)
    return (c1, c2, c3)


def port_activity_histogram_columns(
    uops_executed: np.ndarray, active_cycles: np.ndarray, port_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`port_activity_histogram` of every row of two columns, bit for bit.

    The same expressions in the same order; ``min``/``max`` keep Python's
    comparison semantics, and ``math.exp`` and ``** 2`` stay on libm
    through ``map``: over the 30,000 windows of a paper-scale experiment,
    ``np.exp`` differs from ``math.exp`` on 1,309 inputs and ``x * x``
    from libm ``pow(x, 2)`` on 29.  The scalar function stays the oracle.
    """
    buckets = np.zeros((3, len(uops_executed)))
    live = np.flatnonzero(~((active_cycles <= 0) | (uops_executed <= 0)))
    ratio = uops_executed[live] / active_cycles[live]
    mean_busy = np.where(ratio < port_count, ratio, float(port_count))
    p0 = np.fromiter(map(math.exp, (-mean_busy).tolist()), np.float64, len(live))
    busy = ~(p0 >= 1.0)
    live, mean_busy, p0 = live[busy], mean_busy[busy], p0[busy]
    active = active_cycles[live]
    square = np.fromiter(map(pow, mean_busy.tolist(), repeat(2)), np.float64, len(live))
    norm = 1.0 - p0
    c1 = active * (mean_busy * p0) / norm
    c2 = active * (square / 2.0 * p0) / norm
    rest = active - c1 - c2
    buckets[:, live] = c1, c2, np.where(rest > 0.0, rest, 0.0)
    return buckets[0], buckets[1], buckets[2]
