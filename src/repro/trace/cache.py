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
        exactly as a scalar replay would leave them.  Accesses are
        bucketed per set (stable sort keeps program order within a set)
        and consecutive same-tag accesses collapse into runs — only a
        run's first access can miss, the rest re-touch the MRU way.  Runs
        are then replayed round-by-round, one run per set per round, on
        the dense tag matrix.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        n = len(addresses)
        if n == 0:
            return np.zeros(0, dtype=np.bool_)
        lines = addresses // self.line
        set_ids = lines % self.n_sets
        dense = self._dense_state()

        order = np.argsort(set_ids, kind="stable")
        sorted_set = set_ids[order]
        sorted_tag = lines[order]
        new_set = np.empty(n, dtype=np.bool_)
        new_set[0] = True
        new_set[1:] = sorted_set[1:] != sorted_set[:-1]
        new_run = new_set.copy()
        new_run[1:] |= sorted_tag[1:] != sorted_tag[:-1]
        run_starts = np.flatnonzero(new_run)
        n_runs = len(run_starts)
        run_set = sorted_set[run_starts]
        run_tag = sorted_tag[run_starts]

        group_first_run = np.flatnonzero(new_set[run_starts])
        n_groups = len(group_first_run)
        runs_per_group = np.empty(n_groups, dtype=np.int64)
        runs_per_group[:-1] = group_first_run[1:] - group_first_run[:-1]
        runs_per_group[-1] = n_runs - group_first_run[-1]

        run_hit = np.empty(n_runs, dtype=np.bool_)
        ways = self.ways
        columns = np.arange(ways - 1)
        for round_number in range(int(runs_per_group.max())):
            active = runs_per_group > round_number
            run_pos = group_first_run[active] + round_number
            row_ids = run_set[run_pos]
            tags = run_tag[run_pos]
            rows = dense[row_ids]
            match = rows == tags[:, None]
            hit = match.any(axis=1)
            run_hit[run_pos] = hit
            # Drop the hit way (or the LRU-side slot 0 on a miss — the
            # eviction/fill case) and append the tag at the MRU end.
            drop = np.where(hit, match.argmax(axis=1), 0)
            keep = columns[None, :] + (columns[None, :] >= drop[:, None])
            rows[:, : ways - 1] = np.take_along_axis(rows, keep, axis=1)
            rows[:, ways - 1] = tags
            dense[row_ids] = rows
        self._dense_dirty = True

        hit_sorted = np.ones(n, dtype=np.bool_)
        hit_sorted[run_starts] = run_hit
        result = np.empty(n, dtype=np.bool_)
        result[order] = hit_sorted
        batch_misses = int(n_runs - run_hit.sum())
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
