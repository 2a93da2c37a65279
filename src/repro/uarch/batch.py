"""Batched evaluation of :meth:`CoreModel.simulate_run` window specs.

The analytic core model is a pile of elementwise arithmetic per window:
jitter the spec's rates, evaluate the frontend/memory/backend formulas,
scale by measurement noise.  None of it couples windows together (the rng
stream is the only sequential part), so a whole run's specs can be laid
out as float64 columns and every formula applied once per *run* instead
of once per *window*.

Bit-exactness with the scalar path is load-bearing, as everywhere else in
the vectorized data plane:

- random draws are consumed in exactly the scalar order — per window,
  the eleven jitter factors in ``jitter_spec``'s argument order, then the
  one measurement-noise factor — in a bulk pre-pass that replays
  ``random.gauss`` bit for bit and leaves the rng where the scalar loop
  would, since elementwise ``math.exp(rng.gauss(...))`` is the only
  rng-dependent work;
- every formula is the same elementwise float64 expression the scalar
  models evaluate, in the same order (elementwise IEEE ops are identical
  between NumPy and Python floats);
- per-port accumulation, the ``max`` over ports, and the activity
  histogram keep the scalar iteration order.

The scalar :meth:`simulate_window` remains the dispatching reference
oracle behind ``SPIRE_SCALAR_FALLBACK=1``.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np

from repro.bulkrng import random_draws
from repro.uarch.activity import WindowActivity
from repro.uarch.backend import _DIVIDER_EXPOSURE, _VW_EVENT_RATE, port_activity_histogram
from repro.uarch.frontend import _UOPS_PER_MITE_BURST, _UOPS_PER_MS_FLOW
from repro.uarch.spec import WindowSpec

_TWOPI = 2.0 * math.pi

# Jittered fields in jitter_spec's draw order: (name, sigma multiplier,
# clamp low, clamp high); high=None means max(low, value) only.
_JITTER_FIELDS = (
    ("branch_mispredict_rate", 1.0, 0.0, 1.0),
    ("l1_miss_per_load", 1.0, 0.0, 1.0),
    ("l2_miss_fraction", 1.0, 0.0, 1.0),
    ("l3_miss_fraction", 1.0, 0.0, 1.0),
    ("dsb_coverage", 0.4, 0.0, 1.0),
    ("microcode_fraction", 1.0, 0.0, 1.0),
    ("fe_bubble_rate", 1.0, 0.0, None),
    ("lock_load_fraction", 1.0, 0.0, 1.0),
    ("dtlb_miss_per_access", 1.0, 0.0, 1.0),
    ("ilp", 0.5, 0.5, 16.0),
    ("mlp", 0.5, 1.0, 64.0),
)

_SPEC_COLUMNS = (
    "uops_per_instruction",
    "frac_loads",
    "frac_stores",
    "frac_branches",
    "frac_vector_128",
    "frac_vector_256",
    "frac_vector_512",
    "frac_divides",
    "dsb_coverage",
    "microcode_fraction",
    "fe_bubble_rate",
    "fe_bubble_cycles",
    "branch_mispredict_rate",
    "l1_miss_per_load",
    "l2_miss_fraction",
    "l3_miss_fraction",
    "lock_load_fraction",
    "dtlb_miss_per_access",
    "prefetcher_coverage",
    "mlp",
    "ilp",
    "vector_width_mix",
)


def spec_columns(
    specs: Sequence[WindowSpec],
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Lay a run's specs out as float64 columns plus the instruction column."""
    columns = {
        name: np.array([getattr(spec, name) for spec in specs], dtype=np.float64)
        for name in _SPEC_COLUMNS
    }
    instructions = np.array(
        [float(spec.instructions) for spec in specs], dtype=np.float64
    )
    return columns, instructions


def _standard_normals(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` unit normals of ``rng.gauss``, drawn in bulk.

    Bit-exact replay of CPython's ``random.gauss`` by construction:

    - the uniforms are :func:`~repro.bulkrng.random_draws`, the exact
      ``random()`` values, two per Box–Muller pair;
    - each Box–Muller pair is formed with array ``*``, ``-`` and
      ``np.sqrt`` (correctly rounded, like their scalar counterparts),
      while ``log``, ``cos`` and ``sin`` stay on libm via ``math`` —
      NumPy's transcendentals may differ in the last ulp;
    - a ``gauss_next`` cached on entry is the first normal, and the
      second half of a split pair is left cached, exactly where ``count``
      scalar calls leave it.
    """
    lead = [] if rng.gauss_next is None else [rng.gauss_next]
    pairs = (count - len(lead) + 1) // 2
    uniform = random_draws(rng, 2 * pairs).reshape(pairs, 2)
    angle = (uniform[:, 0] * _TWOPI).tolist()
    log_term = np.fromiter(
        map(math.log, (1.0 - uniform[:, 1]).tolist()), np.float64, pairs
    )
    radius = np.sqrt(-2.0 * log_term)
    normals = np.empty((pairs, 2))
    normals[:, 0] = np.fromiter(map(math.cos, angle), np.float64, pairs) * radius
    normals[:, 1] = np.fromiter(map(math.sin, angle), np.float64, pairs) * radius
    normals = np.concatenate([np.asarray(lead, dtype=np.float64), normals.ravel()])
    rng.gauss_next = float(normals[count]) if len(normals) > count else None
    return normals[:count]


def draw_run_randomness(
    core, n_windows: int, rng: random.Random | None
) -> tuple[dict[str, np.ndarray] | None, np.ndarray | None]:
    """The run's jitter and noise factors, in the exact per-window draw order.

    Returns ``(jitter_factors, noise)``; either is None when the
    corresponding knob is off.  This consumes the rng stream exactly as
    the scalar :meth:`CoreModel.simulate_window` loop would — per window,
    the eleven jitter factors in ``_JITTER_FIELDS`` order, then the one
    measurement-noise factor — drawing the unit normals in bulk
    (:func:`_standard_normals`) and keeping ``math.exp(0.0 + z * sigma)``
    on libm.
    """
    jitter_on = rng is not None and core.jitter > 0
    noise_on = rng is not None and core.measurement_noise > 0
    if not jitter_on and not noise_on:
        return None, None
    sigmas = (
        [core.jitter * multiplier for _, multiplier, _, _ in _JITTER_FIELDS]
        if jitter_on
        else []
    )
    if noise_on:
        sigmas.append(core.measurement_noise)
    count = n_windows * len(sigmas)
    exponents = 0.0 + _standard_normals(rng, count).reshape(
        n_windows, len(sigmas)
    ) * np.array(sigmas)
    draws = np.fromiter(
        map(math.exp, exponents.ravel().tolist()), np.float64, count
    ).reshape(n_windows, len(sigmas)).T.copy()
    factors = (
        {name: draws[index] for index, (name, _, _, _) in enumerate(_JITTER_FIELDS)}
        if jitter_on
        else None
    )
    noise = draws[-1] if noise_on else None
    return factors, noise


def apply_jitter(
    columns: dict[str, np.ndarray], factors: dict[str, np.ndarray] | None
) -> None:
    """Scale the jittered rate columns in place, with the scalar clamps."""
    if factors is None:
        return
    for name, _, low, high in _JITTER_FIELDS:
        jittered = columns[name] * factors[name]
        if high is None:
            columns[name] = np.maximum(low, jittered)
        else:
            columns[name] = np.minimum(high, np.maximum(low, jittered))


def simulate_run_batch(
    core, specs: Sequence[WindowSpec], rng: random.Random | None
) -> list[WindowActivity]:
    """Column-evaluate a run of windows; bit-exact vs the scalar loop."""
    machine = core.machine
    columns, instructions = spec_columns(specs)
    factors, noise = draw_run_randomness(core, len(specs), rng)
    apply_jitter(columns, factors)
    out, port_columns = evaluate_run_columns(machine, columns, instructions, noise)
    return materialize_activities(machine, out, port_columns)


def evaluate_run_columns(
    machine,
    columns: dict[str, np.ndarray],
    instructions: np.ndarray,
    noise: np.ndarray | None,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Apply the core/frontend/memory/backend formulas over spec columns.

    Every expression is elementwise, so evaluating the concatenation of
    several runs' columns in one call is bit-identical to evaluating each
    run separately — the property the fused experiment engine
    (:mod:`repro.runtime.fused`) relies on.  Returns the activity columns
    (every scalar :class:`WindowActivity` field except the port-activity
    histogram) and the per-port uop columns.
    """
    n_windows = len(instructions)

    # ------------------------------------------------------------------
    # Core flow (CoreModel.simulate_window)
    # ------------------------------------------------------------------
    uops = instructions * columns["uops_per_instruction"]
    branches = instructions * columns["frac_branches"]
    mispredicts = branches * columns["branch_mispredict_rate"]
    wasted = np.minimum(
        uops * 0.6, mispredicts * machine.wasted_uops_per_mispredict
    )
    uops_issued = uops + wasted
    uops_executed = uops + 0.7 * wasted
    uops_retired = uops
    recovery = mispredicts * machine.branch_mispredict_penalty
    width = machine.pipeline_width
    c_base = uops_retired / width
    c_bad = recovery + wasted / width

    # ------------------------------------------------------------------
    # Front end (FrontendModel.evaluate)
    # ------------------------------------------------------------------
    ms_uops = uops_issued * columns["microcode_fraction"]
    non_ms = uops_issued - ms_uops
    dsb_uops = non_ms * columns["dsb_coverage"]
    mite_uops = non_ms - dsb_uops
    dsb_active = dsb_uops / machine.dsb_width
    mite_active = mite_uops / machine.mite_width
    ms_active = ms_uops / machine.ms_width
    ms_switches = ms_uops / _UOPS_PER_MS_FLOW
    dsb_switch_events = mite_uops / _UOPS_PER_MITE_BURST
    switch_cycles = (
        ms_switches * machine.ms_switch_penalty
        + dsb_switch_events * machine.dsb_miss_penalty
    )
    fe_bubble_events = instructions * columns["fe_bubble_rate"]
    fe_latency = fe_bubble_events * columns["fe_bubble_cycles"]
    supply_cycles = dsb_active + mite_active + ms_active + switch_cycles
    demand_cycles = uops_issued / machine.pipeline_width
    fe_bandwidth = np.maximum(0.0, supply_cycles - demand_cycles)
    c_fe = fe_latency + fe_bandwidth

    # ------------------------------------------------------------------
    # Memory (MemoryModel.evaluate)
    # ------------------------------------------------------------------
    loads = instructions * columns["frac_loads"]
    stores = instructions * columns["frac_stores"]
    l1_misses = loads * columns["l1_miss_per_load"]
    l2_misses = l1_misses * columns["l2_miss_fraction"]
    l3_misses = l2_misses * columns["l3_miss_fraction"]
    l2_served = l1_misses - l2_misses
    l3_served = l2_misses - l3_misses
    dram_served = l3_misses
    l1_hits = loads - l1_misses
    miss_latency = (
        l2_served * machine.l2_latency
        + l3_served * machine.l3_latency
        + dram_served * machine.dram_latency
    )
    effective_mlp = np.minimum(
        columns["mlp"], float(machine.max_outstanding_misses)
    )
    cache_stalls = miss_latency / effective_mlp
    prefetches = l1_misses * columns["prefetcher_coverage"] * 1.5
    cache_stalls = cache_stalls * (1.0 - columns["prefetcher_coverage"])
    accesses = loads + stores
    dtlb_walks = accesses * columns["dtlb_miss_per_access"]
    dtlb_walk_cycles = dtlb_walks * machine.tlb_walk_latency
    tlb_stalls = dtlb_walk_cycles * 0.7
    lock_loads = loads * columns["lock_load_fraction"]
    lock_stalls = lock_loads * machine.lock_load_penalty
    c_mem = cache_stalls + lock_stalls + tlb_stalls

    # ------------------------------------------------------------------
    # Back end (BackendModel.evaluate)
    # ------------------------------------------------------------------
    scale = uops_executed / np.maximum(
        1.0, instructions * columns["uops_per_instruction"]
    )
    executed_instructions = instructions * scale
    be_loads = executed_instructions * columns["frac_loads"]
    be_stores = executed_instructions * columns["frac_stores"]
    be_branches = executed_instructions * columns["frac_branches"]
    divides = executed_instructions * columns["frac_divides"]
    v128 = executed_instructions * columns["frac_vector_128"]
    v256 = executed_instructions * columns["frac_vector_256"]
    v512 = executed_instructions * columns["frac_vector_512"]
    covered = be_loads + be_stores * 2 + be_branches + divides + v128 + v256 + v512
    alu = np.maximum(0.0, uops_executed - covered)

    # Per-port accumulation in the scalar class/port iteration order.  The
    # scalar loop skips count <= 0 windows; adding a 0.0 share instead is
    # bitwise identical because accumulators and shares are never negative.
    class_uops = (
        ("load", be_loads),
        ("store_data", be_stores),
        ("store_addr", be_stores),
        ("branch", be_branches),
        ("div", divides),
        ("fp", v128 + v256 + v512),
        ("alu", alu),
    )
    port_columns: dict[str, np.ndarray] = {
        port.name: np.zeros(n_windows) for port in machine.ports
    }
    for uop_class, count in class_uops:
        targets = machine.ports_for(uop_class)
        share = count / len(targets)
        for port in targets:
            port_columns[port.name] = port_columns[port.name] + share

    port_limit = np.zeros(n_windows)
    for column in port_columns.values():
        port_limit = np.maximum(port_limit, column)
    exec_width = min(len(machine.ports), machine.pipeline_width * 2)
    ilp_limit = uops_executed / np.minimum(columns["ilp"], float(exec_width))
    exec_floor = np.maximum(port_limit, ilp_limit)
    port_stalls = np.maximum(0.0, exec_floor - c_base)
    divider_active = divides * machine.divider_latency
    divider_stalls = divider_active * _DIVIDER_EXPOSURE
    wide_uops = v256 + v512
    mixing = np.where(
        (v256 > 0) & (v512 > 0), columns["vector_width_mix"], 0.0
    )
    vw_events = wide_uops * mixing * _VW_EVENT_RATE
    vw_stalls = vw_events * machine.vector_width_transition_penalty
    c_core = port_stalls + divider_stalls + vw_stalls

    # ------------------------------------------------------------------
    # Noise scaling and totals
    # ------------------------------------------------------------------
    if noise is None:
        noise = np.ones(n_windows)
    c_base_n = c_base * noise
    c_fe_n = c_fe * noise
    c_bad_n = c_bad * noise
    c_mem_n = c_mem * noise
    c_core_n = c_core * noise
    recovery_n = recovery * noise
    cycles = c_base_n + c_fe_n + c_bad_n + c_mem_n + c_core_n

    # exec_active = clamp(value, 1.0, max(1.0, cycles)); port_stalls here
    # is the raw (un-noised) component, exactly as in the scalar path.
    exec_active = np.minimum(
        np.maximum(1.0, cycles),
        np.maximum(1.0, c_base_n + port_stalls + 0.3 * c_mem_n),
    )

    # Materialize per-window activities from the columns.  .tolist() hands
    # back exact Python floats, so the records carry the same scalar types
    # the reference path produces.
    out = {
        "instructions": instructions,
        "cycles": cycles,
        "c_base": c_base_n,
        "c_fe": c_fe_n,
        "c_bad": c_bad_n,
        "c_mem": c_mem_n,
        "c_core": c_core_n,
        "c_fe_latency": fe_latency * noise,
        "c_fe_bandwidth": fe_bandwidth * noise,
        "c_mem_cache": cache_stalls * noise,
        "c_mem_lock": lock_stalls * noise,
        "c_mem_tlb": tlb_stalls * noise,
        "c_core_div": divider_stalls * noise,
        "c_core_ports": port_stalls * noise,
        "c_core_vw": vw_stalls * noise,
        "uops": uops,
        "wasted_uops": wasted,
        "uops_issued": uops_issued,
        "uops_retired": uops_retired,
        "uops_executed": uops_executed,
        "dsb_uops": dsb_uops,
        "mite_uops": mite_uops,
        "ms_uops": ms_uops,
        "dsb_active_cycles": dsb_active,
        "mite_active_cycles": mite_active,
        "ms_active_cycles": ms_active,
        "ms_switches": ms_switches,
        "dsb_switch_events": dsb_switch_events,
        "fe_bubble_events": fe_bubble_events,
        "branches": branches,
        "mispredicted_branches": mispredicts,
        "recovery_cycles": recovery_n,
        "loads": loads,
        "stores": stores,
        "lock_loads": lock_loads,
        "l1_hits": l1_hits,
        "l2_served": l2_served,
        "l3_served": l3_served,
        "dram_served": dram_served,
        "miss_latency_cycles": miss_latency,
        "dtlb_walks": dtlb_walks,
        "dtlb_walk_cycles": dtlb_walk_cycles,
        "prefetches_issued": prefetches,
        "divides": divides,
        "divider_active_cycles": divider_active,
        "vector_uops_128": v128,
        "vector_uops_256": v256,
        "vector_uops_512": v512,
        "vw_mismatch_events": vw_events,
        "exec_active_cycles": exec_active,
    }
    return out, port_columns


def materialize_activities(
    machine,
    out: dict[str, np.ndarray],
    port_columns: dict[str, np.ndarray],
) -> list[WindowActivity]:
    """Turn activity columns into per-window :class:`WindowActivity` records."""
    lists = {name: column.tolist() for name, column in out.items()}
    port_lists = {
        name: column.tolist() for name, column in port_columns.items()
    }
    uops_executed_list = lists["uops_executed"]
    exec_active_list = lists["exec_active_cycles"]
    port_count = len(machine.ports)
    n_windows = len(uops_executed_list)

    activities: list[WindowActivity] = []
    for window in range(n_windows):
        activity = WindowActivity(
            **{name: values[window] for name, values in lists.items()},
            port_uops={
                name: values[window] for name, values in port_lists.items()
            },
        )
        c1, c2, c3 = port_activity_histogram(
            uops_executed_list[window], exec_active_list[window], port_count
        )
        activity.exec_cycles_1_port = c1
        activity.exec_cycles_2_ports = c2
        activity.exec_cycles_3_plus_ports = c3
        activities.append(activity)
    return activities


def workload_spec_columns(
    workload, n_windows: int, window_instructions: int
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Vectorized :meth:`repro.workloads.base.Workload.specs`.

    Builds the same columns :func:`spec_columns` would extract from the
    materialized spec list, without constructing a ``WindowSpec`` per
    window.  Bit-exactness notes:

    - progress is the same ``index / max(1, n - 1)`` float;
    - phase selection replays ``phase_at``'s first-phase-with-
      ``threshold <= running`` scan as a ``searchsorted(..., 'left')``
      over the sequential cumulative weights (``np.cumsum`` accumulates
      left-to-right exactly like the scalar loop);
    - the sinusoidal pressure factor keeps a scalar ``math.sin`` loop —
      NumPy's transcendental may differ from libm in the last ulp;
    - ``scaled_pressure``'s ``min(1, max(0, v * f))`` clamps map to
      ``np.minimum``/``np.maximum`` on the same products.
    """
    from repro.errors import ConfigError

    if n_windows < 1:
        raise ConfigError("a run needs at least one window")
    if window_instructions <= 0:
        raise ConfigError("a window must contain at least one instruction")

    denominator = max(1, n_windows - 1)
    progress = np.arange(n_windows, dtype=np.float64) / denominator

    weights = [phase.weight for phase in workload.phases]
    cumulative = np.cumsum(np.array(weights, dtype=np.float64))
    total = cumulative[-1]
    thresholds = progress * total
    phase_index = np.searchsorted(cumulative, thresholds, side="left")
    phase_index = np.minimum(phase_index, len(weights) - 1)

    columns = {
        name: np.array(
            [getattr(phase.spec, name) for phase in workload.phases],
            dtype=np.float64,
        )[phase_index]
        for name in _SPEC_COLUMNS
    }

    # Pressure modulation: scalar sin per window, exactly `pressure_at`.
    amplitude = workload.pressure_amplitude
    periods = workload.pressure_periods
    two_pi_periods = 2.0 * math.pi * periods
    progress_list = progress.tolist()
    factor = np.array(
        [1.0 + amplitude * math.sin(two_pi_periods * p) for p in progress_list],
        dtype=np.float64,
    )

    # scaled_pressure's clamped rate scaling.
    for name in ("branch_mispredict_rate", "l1_miss_per_load", "microcode_fraction"):
        columns[name] = np.minimum(1.0, np.maximum(0.0, columns[name] * factor))
    columns["fe_bubble_rate"] = np.maximum(0.0, columns["fe_bubble_rate"] * factor)

    instructions = np.full(n_windows, float(window_instructions))
    return columns, instructions
