"""A cycle-accounting out-of-order pipeline over micro-op traces.

The model executes a dynamic micro-op stream through:

- in-order **fetch/dispatch** at ``width`` uops per cycle, with redirect
  bubbles after every branch the gshare predictor gets wrong;
- a bounded **reorder buffer**: a uop cannot dispatch until the entry of
  the uop ``rob_size`` positions earlier has retired;
- **register dependences** with implicit renaming (only true RAW
  dependences stall; the scheduler is otherwise fully out of order);
- per-kind **functional-unit throughput** limits plus a non-pipelined
  divider;
- a real **cache hierarchy** for loads (:mod:`repro.trace.cache`);
- in-order **retirement** at ``width`` uops per cycle.

Everything it counts — mispredicts, per-level misses, ROB stalls, operand
waits, redirect bubbles, divider occupancy — feeds SPIRE samples through
:mod:`repro.trace.sampling`.  The point is not Skylake fidelity but that
these counters arise from *simulated events* (table lookups, LRU state,
dependence chains), i.e. a substrate with entirely different internals
from :mod:`repro.uarch`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Iterable

import numpy as np

from time import perf_counter

from repro.errors import ConfigError
from repro.trace import phases, wavefront
from repro.trace.branch import GsharePredictor
from repro.trace.cache import CacheHierarchy
from repro.trace.uops import KINDS, MicroOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.trace_array import TraceArray

_DIV_CODE = KINDS.index("div")
_LOAD_CODE = KINDS.index("load")
_BRANCH_CODE = KINDS.index("branch")

# Row flags of the block loop, one bit per hazard a row may carry.
_MISS = 1        # icache miss: the front end stalls for the refill
_MISPREDICT = 2  # mispredicted branch: fetch restarts after it resolves
_MULTI = 4       # two or more sources: operands read through the CSR
_DIVIDE = 8      # the non-pipelined divider instead of an FU booking

# A per-kind FU booking dict above this many cycles is pruned of the
# cycles no probe can reach any more at the end of an ``execute`` call
# or block.
_FU_PRUNE_AT = 1 << 12


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Geometry of the trace pipeline."""

    width: int = 4
    rob_size: int = 128
    redirect_penalty: int = 12
    icache_size: int = 32 * 1024
    icache_miss_penalty: int = 8
    # Per-kind issue throughput (uops per cycle).
    throughput: dict = field(
        default_factory=lambda: {
            "alu": 4,
            "mul": 1,
            "fp": 2,
            "load": 2,
            "store": 1,
            "branch": 1,
            "div": 1,
        }
    )
    divider_occupancy: int = 20  # non-pipelined cycles per divide
    predictor_table_bits: int = 12
    predictor_history_bits: int = 8

    def __post_init__(self) -> None:
        if self.width < 1 or self.rob_size < self.width:
            raise ConfigError("need width >= 1 and rob_size >= width")
        if self.redirect_penalty < 0:
            raise ConfigError("redirect penalty cannot be negative")
        for kind, rate in self.throughput.items():
            if rate < 1:
                raise ConfigError(f"throughput for {kind!r} must be >= 1")


@dataclass
class PipelineCounters:
    """Raw totals the pipeline accumulates (the substrate's PMU)."""

    instructions: int = 0
    cycles: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    loads: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    l3_misses: int = 0
    divides: int = 0
    divider_busy_cycles: int = 0
    redirect_stall_cycles: int = 0
    rob_stall_cycles: int = 0
    icache_misses: int = 0
    icache_stall_cycles: int = 0
    operand_wait_cycles: int = 0
    fu_contention_cycles: int = 0
    memory_wait_cycles: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            key: float(getattr(self, name))
            for key, name in zip(_COUNTER_KEYS, _COUNTER_FIELDS)
        }

    def delta_from(self, earlier: "PipelineCounters") -> dict[str, float]:
        # Field-wise, without materializing two intermediate dicts — this
        # runs once per sampling window on the hot path.
        return {
            key: float(getattr(self, name) - getattr(earlier, name))
            for key, name in zip(_COUNTER_KEYS, _COUNTER_FIELDS)
        }

    def copy(self) -> "PipelineCounters":
        return PipelineCounters(**vars(self))

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


_COUNTER_FIELDS = tuple(spec.name for spec in fields(PipelineCounters))
_COUNTER_KEYS = tuple("trace." + name for name in _COUNTER_FIELDS)


class TracePipeline:
    """Executes micro-op traces, keeping state across calls."""

    def __init__(
        self,
        config: PipelineConfig | None = None,
        hierarchy: CacheHierarchy | None = None,
    ):
        self.config = config or PipelineConfig()
        self.caches = hierarchy or CacheHierarchy()
        self.predictor = GsharePredictor(
            self.config.predictor_table_bits, self.config.predictor_history_bits
        )
        from repro.trace.cache import SetAssociativeCache

        self.icache = SetAssociativeCache(
            "icache", self.config.icache_size, line=64, ways=8
        )
        self.counters = PipelineCounters()
        # Scheduling state, all in absolute cycle numbers.
        self._register_ready: dict[int, int] = {}
        self._fetch_ready = 0          # next cycle fetch can deliver
        self._fetched_this_cycle = 0
        # Per-kind FU bookings, cycle -> units taken.  Every probe starts
        # at or after the current fetch cycle, which never decreases, so
        # cycles below it are dead and are pruned now and then.
        self._fu_books: dict[str, dict[int, int]] = {}
        self._divider_free = 0
        # Retire cycles of the last `rob_size` uops, oldest first: the
        # ROB's occupants.  The retire window is its last `width` entries.
        self._retired: deque[int] = deque(maxlen=self.config.rob_size)
        self._last_retire = 0

    # ------------------------------------------------------------------

    def _fetch_cycle(self) -> int:
        """Cycle at which the next uop leaves fetch (width per cycle)."""
        if self._fetched_this_cycle >= self.config.width:
            self._fetch_ready += 1
            self._fetched_this_cycle = 0
        cycle = self._fetch_ready
        self._fetched_this_cycle += 1
        return cycle

    def _fu_start(self, kind: str, earliest: int) -> int:
        """First cycle at or after ``earliest`` with a free unit slot."""
        if kind == "div":
            start = max(earliest, self._divider_free)
            self._divider_free = start + self.config.divider_occupancy
            self.counters.divider_busy_cycles += self.config.divider_occupancy
            return start
        limit = self.config.throughput[kind]
        book = self._fu_books.setdefault(kind, {})
        cycle = earliest
        taken = book.get(cycle, 0)
        while taken >= limit:
            cycle += 1
            taken = book.get(cycle, 0)
        book[cycle] = taken + 1
        return cycle

    def _prune_fu_books(self) -> None:
        """Drop the bookings of cycles below the fetch clock."""
        floor = self._fetch_ready
        for kind, book in self._fu_books.items():
            if len(book) > _FU_PRUNE_AT:
                self._fu_books[kind] = {
                    cycle: taken for cycle, taken in book.items() if cycle >= floor
                }

    def _rob_admit(self, fetch_cycle: int) -> int:
        """Dispatch cycle respecting ROB capacity; counts ROB stalls.

        A full ROB back-pressures the front end: fetch cannot run ahead of
        dispatch, so the fetch clock advances with the stall (keeping
        ``rob_stall_cycles`` a genuine cycle count, not a per-uop sum).
        """
        if len(self._retired) < self.config.rob_size:
            return fetch_cycle
        # The oldest occupant; _retire's append evicts it.
        free_at = self._retired[0]
        dispatch = max(fetch_cycle, free_at)
        if dispatch > fetch_cycle:
            self.counters.rob_stall_cycles += dispatch - fetch_cycle
            self._fetch_ready = dispatch
            self._fetched_this_cycle = 1
        return dispatch

    def _retire(self, finish: int) -> int:
        """In-order retirement at ``width`` per cycle."""
        retire = max(finish + 1, self._last_retire)
        width = self.config.width
        if len(self._retired) >= width:
            retire = max(retire, self._retired[-width] + 1)
        self._retired.append(retire)
        self._last_retire = retire
        return retire

    # ------------------------------------------------------------------

    def execute(self, trace: Iterable[MicroOp]) -> PipelineCounters:
        """Run a trace fragment; state persists for subsequent calls."""
        cfg = self.config
        counters = self.counters
        timing = phases.enabled()
        tick = perf_counter() if timing else 0.0
        for uop in trace:
            # Instruction fetch goes through the instruction cache; a miss
            # stalls the front end for the refill penalty.
            if not self.icache.access(uop.pc):
                counters.icache_misses += 1
                counters.icache_stall_cycles += cfg.icache_miss_penalty
                self._fetch_ready += cfg.icache_miss_penalty
                self._fetched_this_cycle = 0
            fetch = self._fetch_cycle()
            dispatch = self._rob_admit(fetch)

            ready = dispatch
            for source in uop.sources:
                ready = max(ready, self._register_ready.get(source, 0))
            counters.operand_wait_cycles += ready - dispatch

            start = self._fu_start(uop.kind, ready)
            counters.fu_contention_cycles += start - ready

            latency = uop.latency
            if uop.kind == "load":
                result = self.caches.access(uop.address)
                latency = result.latency
                counters.loads += 1
                if result.level != "l1":
                    counters.l1_misses += 1
                if result.level in ("l3", "dram"):
                    counters.l2_misses += 1
                if result.level == "dram":
                    counters.l3_misses += 1
                counters.memory_wait_cycles += latency
            elif uop.kind == "div":
                counters.divides += 1
                latency = cfg.divider_occupancy

            finish = start + latency
            if uop.dest is not None:
                self._register_ready[uop.dest] = finish

            if uop.kind == "branch":
                counters.branches += 1
                correct = self.predictor.update(uop.pc, uop.taken)
                if not correct:
                    counters.branch_mispredicts += 1
                    # Fetch restarts after the branch resolves.
                    redirect = finish + cfg.redirect_penalty
                    if redirect > self._fetch_ready:
                        counters.redirect_stall_cycles += (
                            redirect - self._fetch_ready
                        )
                        self._fetch_ready = redirect
                        self._fetched_this_cycle = 0

            retire = self._retire(finish)
            counters.instructions += 1
            counters.cycles = max(counters.cycles, retire)
        self._prune_fu_books()
        if timing:
            phases.add("execute", perf_counter() - tick)
        return counters

    def execute_array(self, trace: "TraceArray", block_size: int = 16384) -> PipelineCounters:
        """Run a columnar trace fragment; bit-exact vs :meth:`execute`.

        The trace is processed in blocks: per block, the order-determined
        components — icache lookups, branch prediction, and the data-cache
        hierarchy, all of which the scalar loop touches in trace order
        regardless of pipeline timing — are resolved by the vectorized
        batch kernels, then one exact loop over pre-extracted columns
        runs the fetch/ROB/dependence/FU/retire recurrence (see
        :meth:`_run_block`).

        State persists across calls and is shared with :meth:`execute`,
        so scalar and columnar windows can be mixed freely.
        """
        n = len(trace)
        for start in range(0, n, block_size):
            stop = min(start + block_size, n)
            block = trace if (start == 0 and stop == n) else trace.slice(start, stop)
            self._run_block(block, [], [])
        return self.counters

    def execute_array_windowed(
        self, trace: "TraceArray", window_uops: int, block_size: int = 16384
    ) -> list[PipelineCounters]:
        """One fused pass over ``trace`` with per-window counter snapshots.

        Returns one :class:`PipelineCounters` copy per ``window_uops``
        boundary (the final, possibly short, window included) —
        bit-identical to slicing the trace per window, calling
        :meth:`execute_array` on each slice and snapshotting between
        calls.  The fused pass amortizes the vectorized pre-passes over
        whole ``block_size`` blocks and enters the sequential recurrence
        once per block instead of once per window; the block loop walks
        the block one window slice at a time and snapshots between them.
        """
        if window_uops < 1:
            raise ConfigError("need window_uops >= 1")
        n = len(trace)
        boundaries = list(range(window_uops, n, window_uops)) + ([n] if n else [])
        return self._execute_windowed_fast(trace, boundaries, block_size)

    def _execute_windowed_fast(
        self, trace: "TraceArray", boundaries: list[int], block_size: int
    ) -> list[PipelineCounters]:
        snapshots: list[PipelineCounters] = []
        n = len(trace)
        for start in range(0, n, block_size):
            stop = min(start + block_size, n)
            relative = [b - start for b in boundaries if start < b <= stop]
            block = trace if (start == 0 and stop == n) else trace.slice(start, stop)
            self._run_block(block, relative, snapshots)
        return snapshots

    def _run_block(
        self,
        block: "TraceArray",
        boundaries: "list[int]",
        snapshots: "list[PipelineCounters]",
    ) -> None:
        """The block loop: one exact pass over the rows, window by window.

        The recurrence runs on plain lists: one retire history serves the
        ROB and the retire window, the register file has a zero slot and
        a sink slot, and a flag column marks each row's hazards — an
        icache miss, several sources, a divide, a mispredicted branch.
        Each window slice ends with its counters settled, and with a
        snapshot when it ends at one of ``boundaries``.
        """
        cfg = self.config
        counters = self.counters
        n = len(block)
        kind = block.kind
        wavefront.record_block(n)
        timing = phases.enabled()
        tick = perf_counter() if timing else 0.0

        # Vectorized pre-pass.  The icache, the predictor and the data
        # caches consume the trace in program order whatever the timing,
        # so each runs as one batch over the block.
        missed = ~self.icache.access_batch(block.pc)
        branch_mask = kind == _BRANCH_CODE
        mispredicted = np.zeros(n, dtype=np.bool_)
        if branch_mask.any():
            correct = self.predictor.update_batch(
                block.pc[branch_mask], block.taken[branch_mask]
            )
            mispredicted[branch_mask] = ~np.asarray(correct, dtype=np.bool_)
        load_mask = kind == _LOAD_CODE
        div_mask = kind == _DIV_CODE
        # Latency per row: the hierarchy's for loads, the divider's
        # occupancy for divides.  The block's column may be a view into
        # the trace, so scatter into a copy.
        latency = block.latency.astype(np.int64)
        level = np.zeros(n, dtype=np.int8)
        if load_mask.any():
            levels, load_latencies = self.caches.access_batch(
                block.address[load_mask]
            )
            level[load_mask] = levels
            latency[load_mask] = load_latencies
        latency[div_mask] = cfg.divider_occupancy
        if timing:
            phases.add("prepass", perf_counter() - tick)
            tick = perf_counter()

        # The loop walks the block in window slices, which end at each
        # boundary and at the block end.  Event counts per slice: the
        # recurrence does not touch them, so one segmented sum over the
        # rows settles every slice at once.
        stops = list(boundaries)
        if not stops or stops[-1] < n:
            stops.append(n)
        starts = [0, *stops[:-1]]
        last_boundary = boundaries[-1] if boundaries else 0
        window_events = np.vstack(
            [
                np.add.reduceat(
                    np.stack(
                        [
                            missed,
                            branch_mask,
                            mispredicted,
                            load_mask,
                            level >= 1,
                            level >= 2,
                            level == 3,
                            div_mask,
                        ]
                    ),
                    starts,
                    axis=1,
                    dtype=np.int64,
                ),
                np.add.reduceat(np.where(load_mask, latency, 0), starts),
            ]
        ).T.tolist()

        # Register file as a list, with a zero slot that rows without a
        # source read and a sink slot that rows without a destination
        # write.  A multi-source row's source column holds its row index
        # into the CSR instead.
        n_registers = max(block.max_register(), *self._register_ready, -1) + 1
        zero_slot = n_registers
        registers = [0] * (n_registers + 2)
        for register, cycle in self._register_ready.items():
            registers[register] = cycle
        offsets = block.src_offsets
        source_counts = np.diff(offsets)
        source = np.full(n, zero_slot, dtype=np.int64)
        single = source_counts == 1
        source[single] = block.src_values[offsets[:-1][single]]
        multi = source_counts >= 2
        if multi.any():
            source[multi] = np.flatnonzero(multi)
            csr_offsets = offsets.tolist()
            csr_values = block.src_values.tolist()
        dest = np.where(block.dest >= 0, block.dest, n_registers + 1)
        flags = (
            missed * _MISS
            + mispredicted * _MISPREDICT
            + multi * _MULTI
            + div_mask * _DIVIDE
        )

        # FU bookings and unit counts per kind code.
        books: list = [None] * len(KINDS)
        limits = [0] * len(KINDS)
        present = np.flatnonzero(np.bincount(kind, minlength=len(KINDS)))
        for code in present.tolist():
            if code != _DIV_CODE:
                name = KINDS[code]
                limits[code] = cfg.throughput[name]
                books[code] = self._fu_books.setdefault(name, {})

        width = cfg.width
        rob_size = cfg.rob_size
        redirect_penalty = cfg.redirect_penalty
        icache_penalty = cfg.icache_miss_penalty
        occupancy = cfg.divider_occupancy
        fetch_ready = self._fetch_ready
        fetched = self._fetched_this_cycle
        divider_free = self._divider_free
        last_retire = self._last_retire
        # Retire cycles in program order, padded with -1 to a full ROB:
        # [evict] is the occupant a new row evicts, [follow] the retire-
        # window entry it retires after.  A padding entry never stalls.
        history = [-1] * (rob_size - len(self._retired)) + list(self._retired)
        push = history.append
        evict = -rob_size
        follow = -width
        operand_wait = fu_contention = rob_stall = redirect_stall = 0
        if timing:
            phases.add("counters", perf_counter() - tick)
            tick = perf_counter()

        start = 0
        for stop, window in zip(stops, window_events):
            for code, src, dst, lat, flag in zip(
                kind[start:stop].tolist(),
                source[start:stop].tolist(),
                dest[start:stop].tolist(),
                latency[start:stop].tolist(),
                flags[start:stop].tolist(),
            ):
                if flag & _MISS:
                    fetch_ready += icache_penalty
                    fetched = 1
                elif fetched < width:
                    fetched += 1
                else:
                    fetch_ready += 1
                    fetched = 1
                free_at = history[evict]
                if free_at > fetch_ready:
                    rob_stall += free_at - fetch_ready
                    fetch_ready = free_at
                    fetched = 1
                # Dispatch is the fetch clock from here on.
                ready = fetch_ready
                if flag & _MULTI:
                    for j in range(csr_offsets[src], csr_offsets[src + 1]):
                        t = registers[csr_values[j]]
                        if t > ready:
                            ready = t
                else:
                    t = registers[src]
                    if t > ready:
                        ready = t
                operand_wait += ready - fetch_ready
                if flag & _DIVIDE:
                    begin = divider_free if divider_free > ready else ready
                    divider_free = begin + occupancy
                else:
                    book = books[code]
                    limit = limits[code]
                    begin = ready
                    taken = book.get(begin, 0)
                    while taken >= limit:
                        begin += 1
                        taken = book.get(begin, 0)
                    book[begin] = taken + 1
                fu_contention += begin - ready
                finish = begin + lat
                registers[dst] = finish
                if flag & _MISPREDICT:
                    redirect = finish + redirect_penalty
                    if redirect > fetch_ready:
                        redirect_stall += redirect - fetch_ready
                        fetch_ready = redirect
                        fetched = 0
                retire = finish + 1
                if retire < last_retire:
                    retire = last_retire
                oldest = history[follow]
                if oldest >= retire:
                    retire = oldest + 1
                push(retire)
                last_retire = retire

            # Window end: settle the counters exactly as per-window
            # execute calls would have, and snapshot at a boundary.
            (misses, branches, mispredicts, loads, l1, l2, l3, divides,
             memory_wait) = window
            counters.instructions += stop - start
            counters.icache_misses += misses
            counters.icache_stall_cycles += misses * icache_penalty
            counters.branches += branches
            counters.branch_mispredicts += mispredicts
            counters.loads += loads
            counters.l1_misses += l1
            counters.l2_misses += l2
            counters.l3_misses += l3
            counters.memory_wait_cycles += memory_wait
            counters.divides += divides
            counters.divider_busy_cycles += divides * occupancy
            counters.operand_wait_cycles += operand_wait
            counters.fu_contention_cycles += fu_contention
            counters.rob_stall_cycles += rob_stall
            counters.redirect_stall_cycles += redirect_stall
            operand_wait = fu_contention = rob_stall = redirect_stall = 0
            if last_retire > counters.cycles:
                counters.cycles = last_retire
            if stop <= last_boundary:
                snapshots.append(counters.copy())
            start = stop

        self._fetch_ready = fetch_ready
        self._fetched_this_cycle = fetched
        self._divider_free = divider_free
        self._last_retire = last_retire
        self._retired.extend(history[-min(n, rob_size):])
        self._register_ready = {
            register: cycle
            for register, cycle in enumerate(registers[:n_registers])
            if cycle
        }
        self._prune_fu_books()
        if timing:
            phases.add("recurrence", perf_counter() - tick)

    def snapshot(self) -> PipelineCounters:
        """A copy of the running totals."""
        return self.counters.copy()
