"""Set-associative caches with LRU replacement, composed into a hierarchy.

Unlike the statistical memory model in :mod:`repro.uarch.memory`, these
caches see actual byte addresses: sequential streams hit after the first
line touch, large random footprints conflict-miss, and pointer chases miss
at whatever level their working set exceeds.  The hierarchy reports which
level served each access plus its load-to-use latency.

Both the per-access scalar path and the column-batch path
(:meth:`SetAssociativeCache.access_batch`,
:meth:`CacheHierarchy.access_batch`) operate on the same LRU state: the
batch path works on a dense ``[n_sets, ways]`` tag matrix that is lazily
synchronized with the scalar ``OrderedDict`` sets in either direction, so
mixing the two paths stays bit-exact.  A scalar set exists only once it
is touched: a cache the batch path alone drives builds none.

The scalar :meth:`SetAssociativeCache.access` is the oracle.  The batch
path does not replay accesses one by one: it decides each from its LRU
reuse window (the stack-distance rule of Mattson et al., 1970), with a
handful of whole-column NumPy passes per call, and writes each touched
set's new LRU stack once.  Addresses must be non-negative: ``-1`` pads
the empty ways of the tag matrix.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Hierarchy level names in batch level-code order (0..3).
LEVELS = ("l1", "l2", "l3", "dram")


class SetAssociativeCache:
    """One cache level: ``size`` bytes, ``line`` -byte lines, LRU sets."""

    def __init__(self, name: str, size: int, line: int = 64, ways: int = 8):
        if size <= 0 or line <= 0 or ways <= 0:
            raise ConfigError("cache geometry must be positive")
        if size % (line * ways) != 0:
            raise ConfigError(
                f"{name}: size {size} not divisible by line*ways {line * ways}"
            )
        self.name = name
        self.size = size
        self.line = line
        self.ways = ways
        self.n_sets = size // (line * ways)
        # The batch path's per-set sort: NumPy's stable sort is a radix
        # sort on 16-bit keys.
        self._set_key = np.uint16 if self.n_sets <= 1 << 16 else np.int64
        # Set index -> its LRU → MRU tags, created on first touch; a
        # missing set is empty.
        self._sets: dict[int, OrderedDict[int, None]] = {}
        # Dense mirror of ``_sets`` used by the batch path: one int64 row
        # per set, tags left-to-right in LRU→MRU order with -1 padding on
        # the LRU side.  Lazily built and lazily flushed back so windowed
        # batch runs never rebuild the OrderedDicts between windows.
        self._dense: np.ndarray | None = None
        self._dense_dirty = False
        self.hits = 0
        self.misses = 0

    def _locate(self, address: int) -> tuple[OrderedDict, int]:
        line_address = address // self.line
        index = line_address % self.n_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        return cache_set, line_address

    def _dense_state(self) -> np.ndarray:
        dense = self._dense
        if dense is None:
            dense = np.full((self.n_sets, self.ways), -1, dtype=np.int64)
            for row, cache_set in self._sets.items():
                if cache_set:
                    tags = list(cache_set)  # LRU → MRU
                    dense[row, self.ways - len(tags) :] = tags
            self._dense = dense
        return dense

    def _sync_from_dense(self) -> None:
        dense = self._dense
        if dense is None or not self._dense_dirty:
            return
        filled = np.flatnonzero((dense >= 0).any(axis=1))
        self._sets = {
            row: OrderedDict.fromkeys(tag for tag in tags if tag >= 0)
            for row, tags in zip(filled.tolist(), dense[filled].tolist())
        }
        self._dense_dirty = False

    def access(self, address: int) -> bool:
        """Access ``address``; returns True on hit.  Misses fill the line."""
        if address < 0:
            raise ConfigError(
                f"{self.name}: cache addresses must be non-negative, got {address}"
            )
        self._sync_from_dense()
        self._dense = None  # scalar mutation invalidates the mirror
        cache_set, tag = self._locate(address)
        if tag in cache_set:
            cache_set.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        cache_set[tag] = None
        if len(cache_set) > self.ways:
            cache_set.popitem(last=False)  # evict LRU
        return False

    def access_batch(self, addresses) -> np.ndarray:
        """Vectorized :meth:`access` over an address column.

        Returns per-access hit flags; state and hit/miss counters end up
        exactly as a scalar replay would leave them.  Each access of a
        run of consecutive same-line accesses after the first re-touches
        the MRU way, so only runs are decided.  Runs are sorted per set
        (stably, so program order holds within a set) behind that set's
        LRU stack, whose live tags stand in as its earliest uses.  By the
        LRU stack-distance rule (Mattson et al., 1970) a run hits iff its
        line was used before in that history and fewer than ``ways``
        distinct lines of the set were used since; the set's new stack
        is its last ``ways`` distinct lines, ordered by last use.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        n = len(addresses)
        if n == 0:
            return np.zeros(0, dtype=np.bool_)
        lines = addresses // self.line
        heads = _changes(lines)
        tags = lines[heads]
        if tags.min() < 0:
            raise ConfigError(
                f"{self.name}: cache addresses must be non-negative, "
                f"got {int(addresses.min())}"
            )
        ways = self.ways
        set_ids = tags % self.n_sets
        order = np.argsort(set_ids.astype(self._set_key), kind="stable")
        sorted_tag = tags[order]
        run_starts = _changes(sorted_tag)  # one line is in one set
        n_runs = len(run_starts)
        run_tag = sorted_tag[run_starts]
        run_set = set_ids[order[run_starts]]
        first_run = _changes(run_set)
        touched = run_set[first_run]
        runs_per_set = np.diff(first_run, append=n_runs)

        # One history per touched set: its live stack (LRU → MRU), then
        # its runs.  The -1 pads of a stack row sit on its LRU side.
        dense = self._dense_state()
        stacks = dense[touched]
        live = stacks >= 0
        depth = np.count_nonzero(live, axis=1)
        stacked = np.cumsum(depth)
        n_stacked = int(stacked[-1])
        size = n_runs + n_stacked
        history = np.empty(size, dtype=np.int64)
        run_pos = np.arange(n_runs) + np.repeat(stacked, runs_per_set)
        history[run_pos] = run_tag
        history[np.arange(n_stacked) + np.repeat(first_run, depth)] = stacks[live]

        # Link each use to the line's previous and next use.  A line
        # belongs to one set, so links never leave a set's history.
        by_line = np.argsort(history, kind="stable")
        ordered = history[by_line]
        repeat = ordered[1:] == ordered[:-1]
        earlier = by_line[:-1][repeat]
        later = by_line[1:][repeat]
        prev = np.full(size, -1, dtype=np.int64)
        prev[later] = earlier
        nxt = np.full(size, size, dtype=np.int64)
        nxt[earlier] = later
        # The lines at q .. reach[q] - 1 are distinct; reach[q] repeats one.
        reach = np.minimum.accumulate(nxt[::-1])[::-1]

        since = prev[run_pos]
        run_hit = since >= 0
        # A window of fewer than ``ways`` entries since the line's last
        # use holds fewer than ``ways`` lines: a hit.  Longer ones scan.
        far = np.flatnonzero(run_hit & (run_pos - since > ways))
        if len(far):
            run_hit[far] = _window_hits(
                prev, reach, since[far] + 1, run_pos[far], ways
            )

        # Each set's new stack: its history's last ``ways`` distinct lines.
        last = np.flatnonzero(nxt == size)
        ends = np.searchsorted(last, first_run + runs_per_set + stacked)
        owner = np.repeat(np.arange(len(touched)), np.diff(ends, prepend=0))
        age = ends[owner] - np.arange(len(last)) - 1  # 0 is the MRU line
        kept = age < ways
        rows = np.full((len(touched), ways), -1, dtype=np.int64)
        rows[owner[kept], ways - 1 - age[kept]] = history[last[kept]]
        dense[touched] = rows
        self._dense_dirty = True

        hit_sorted = np.ones(len(tags), dtype=np.bool_)
        hit_sorted[run_starts] = run_hit
        result = np.ones(n, dtype=np.bool_)
        result[heads[order]] = hit_sorted
        batch_misses = n_runs - int(np.count_nonzero(run_hit))
        self.misses += batch_misses
        self.hits += n - batch_misses
        return result

    def contains(self, address: int) -> bool:
        self._sync_from_dense()
        cache_set, tag = self._locate(address)
        return tag in cache_set

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


def _changes(values: np.ndarray) -> np.ndarray:
    """Indices of the entries that differ from the one before (0 too)."""
    change = np.empty(len(values), dtype=np.bool_)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return np.flatnonzero(change)


def _window_hits(prev, reach, start, stop, ways) -> np.ndarray:
    """Hit flags of the runs at ``stop`` whose line was last used at
    ``start - 1``, for windows ``[start, stop)`` at least ``ways`` long.

    A run hits iff fewer than ``ways`` positions of its window hold the
    first use of a line since then (``prev < start``).  The first
    ``reach[start] - start`` positions do; the scan steps past the
    repeat at ``reach[start]`` one position per round, over the windows
    still open, and stops each at ``ways`` first uses (a miss) or at its
    end (a hit).  Rounds are bounded by the longest window: one set's
    runs plus its stack.
    """
    seen = reach[start] - start
    hit = seen < ways
    open_ = np.arange(len(start))
    cursor = start + seen + 1
    while True:
        going = (seen < ways) & (cursor < stop)
        open_, start, stop, seen, cursor = (
            column[going] for column in (open_, start, stop, seen, cursor)
        )
        if not len(open_):
            return hit
        seen = seen + (prev[cursor] < start)
        cursor = cursor + 1
        hit[open_[seen == ways]] = False


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one hierarchy access."""

    level: str      # "l1" | "l2" | "l3" | "dram"
    latency: int    # load-to-use cycles


class CacheHierarchy:
    """Three inclusive levels backed by DRAM.

    Latencies default to the same Skylake-class numbers the statistical
    machine uses, so IPCs from the two substrates are comparable.
    """

    def __init__(
        self,
        l1_size: int = 32 * 1024,
        l2_size: int = 1024 * 1024,
        l3_size: int = 8 * 1024 * 1024,
        line: int = 64,
        l1_latency: int = 4,
        l2_latency: int = 14,
        l3_latency: int = 50,
        dram_latency: int = 210,
    ):
        self.l1 = SetAssociativeCache("l1", l1_size, line, ways=8)
        self.l2 = SetAssociativeCache("l2", l2_size, line, ways=16)
        self.l3 = SetAssociativeCache("l3", l3_size, line, ways=16)
        self.latencies = {
            "l1": l1_latency,
            "l2": l2_latency,
            "l3": l3_latency,
            "dram": dram_latency,
        }
        self.dram_accesses = 0

    def access(self, address: int) -> AccessResult:
        """Look up an address, filling lines on the way down."""
        if self.l1.access(address):
            return AccessResult("l1", self.latencies["l1"])
        if self.l2.access(address):
            return AccessResult("l2", self.latencies["l2"])
        if self.l3.access(address):
            return AccessResult("l3", self.latencies["l3"])
        self.dram_accesses += 1
        return AccessResult("dram", self.latencies["dram"])

    def access_batch(self, addresses) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`access` over an address column.

        Returns ``(level_codes, latencies)`` where the codes index
        :data:`LEVELS`.  Each level sees exactly the subsequence of
        addresses that missed the level above, in program order — the
        same stream the scalar path feeds it.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        n = len(addresses)
        levels = np.zeros(n, dtype=np.int8)
        if n:
            l1_miss = np.flatnonzero(~self.l1.access_batch(addresses))
            if len(l1_miss):
                levels[l1_miss] = 1
                l2_miss = l1_miss[~self.l2.access_batch(addresses[l1_miss])]
                if len(l2_miss):
                    levels[l2_miss] = 2
                    l3_miss = l2_miss[~self.l3.access_batch(addresses[l2_miss])]
                    levels[l3_miss] = 3
                    self.dram_accesses += len(l3_miss)
        latency_table = np.array(
            [self.latencies[name] for name in LEVELS], dtype=np.int64
        )
        return levels, latency_table[levels]

    def reset_stats(self) -> None:
        for level in (self.l1, self.l2, self.l3):
            level.reset_stats()
        self.dram_accesses = 0
