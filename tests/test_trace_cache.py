"""Unit tests for the set-associative cache hierarchy."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.trace.cache import LEVELS, CacheHierarchy, SetAssociativeCache


class TestSetAssociativeCache:
    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache("bad", size=0)
        with pytest.raises(ConfigError):
            SetAssociativeCache("bad", size=1000, line=64, ways=8)

    def test_cold_miss_then_hit(self):
        cache = SetAssociativeCache("l1", 1024, line=64, ways=2)
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.access(32) is True  # same line
        assert cache.hits == 2 and cache.misses == 1

    def test_line_granularity(self):
        cache = SetAssociativeCache("l1", 1024, line=64, ways=2)
        cache.access(0)
        assert cache.access(63) is True
        assert cache.access(64) is False

    def test_lru_eviction(self):
        # 2-way set: third distinct line in the same set evicts the LRU.
        cache = SetAssociativeCache("l1", 2 * 64, line=64, ways=2)  # 1 set
        cache.access(0)
        cache.access(64)
        cache.access(0)          # 0 becomes MRU
        cache.access(128)        # evicts 64
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_working_set_within_capacity_hits(self):
        cache = SetAssociativeCache("l1", 32 * 1024, line=64, ways=8)
        addresses = [i * 64 for i in range(256)]  # 16 KiB
        for address in addresses:
            cache.access(address)
        cache.reset_stats()
        for _ in range(4):
            for address in addresses:
                cache.access(address)
        assert cache.miss_rate == 0.0

    def test_working_set_beyond_capacity_misses(self):
        cache = SetAssociativeCache("l1", 32 * 1024, line=64, ways=8)
        addresses = [i * 64 for i in range(1024)]  # 64 KiB, cyclic = thrash
        for _ in range(3):
            for address in addresses:
                cache.access(address)
        assert cache.miss_rate > 0.9

    def test_negative_addresses_are_refused(self):
        # -1 pads the batch path's empty ways: line -1 must never be cached.
        cache = SetAssociativeCache("l1", 4096, line=64, ways=4)
        with pytest.raises(ConfigError, match="non-negative"):
            cache.access_batch(np.array([-64, -64]))
        with pytest.raises(ConfigError, match="non-negative"):
            cache.access(-64)
        with pytest.raises(ConfigError, match="non-negative"):
            CacheHierarchy().access_batch(np.array([0, -8]))
        assert cache.hits == cache.misses == 0

    def test_random_accesses_partial_hits(self):
        cache = SetAssociativeCache("l1", 32 * 1024, line=64, ways=8)
        rng = random.Random(0)
        addresses = [rng.randrange(48 * 1024) // 64 * 64 for _ in range(5000)]
        for address in addresses:
            cache.access(address)
        assert 0.0 < cache.miss_rate < 0.9


class TestCacheHierarchy:
    def test_levels_fill_downward(self):
        hierarchy = CacheHierarchy()
        first = hierarchy.access(0)
        assert first.level == "dram"
        second = hierarchy.access(0)
        assert second.level == "l1"

    def test_l2_serves_after_l1_eviction(self):
        hierarchy = CacheHierarchy(l1_size=1024, l2_size=64 * 1024)
        # Touch a 32 KiB set cyclically: thrashes the 1 KiB L1, lives in L2.
        addresses = [i * 64 for i in range(512)]
        for address in addresses:
            hierarchy.access(address)
        result = hierarchy.access(addresses[0])
        assert result.level == "l2"

    def test_latencies_increase_with_depth(self):
        hierarchy = CacheHierarchy()
        lat = hierarchy.latencies
        assert lat["l1"] < lat["l2"] < lat["l3"] < lat["dram"]

    def test_dram_counted(self):
        hierarchy = CacheHierarchy()
        hierarchy.access(0)
        hierarchy.access(1 << 30)
        assert hierarchy.dram_accesses == 2

    def test_reset_stats(self):
        hierarchy = CacheHierarchy()
        hierarchy.access(0)
        hierarchy.reset_stats()
        assert hierarchy.l1.misses == 0
        assert hierarchy.dram_accesses == 0


# ----------------------------------------------------------------------
# The batch path against the scalar oracle
# ----------------------------------------------------------------------


def _line_batch(rng: random.Random, n_sets: int, ways: int, n: int) -> list[int]:
    """Line numbers that mix the patterns LRU windows must decide."""
    lines: list[int] = []
    while len(lines) < n:
        kind = rng.randrange(4)
        if kind == 0:  # a few hot lines
            hot = [rng.randrange(4 * n_sets * ways) for _ in range(3)]
            lines += [rng.choice(hot) for _ in range(rng.randrange(1, 40))]
        elif kind == 1:  # a cyclic footprint just under, at or over capacity
            footprint = max(1, n_sets * ways + rng.choice((-1, 0, 1)))
            base = rng.randrange(1 << 12)
            count = rng.randrange(1, 3 * footprint + 2)
            lines += [base + k % footprint for k in range(count)]
        elif kind == 2:  # a line returning after a long run over < ways others
            home = rng.randrange(n_sets)
            line, *others = (
                home + n_sets * rng.randrange(1 << 10) for _ in range(ways)
            )
            run = rng.randrange(3 * ways) if others else 0
            lines += [line] + [rng.choice(others) for _ in range(run)] + [line]
        else:  # uniform traffic
            span = 8 * n_sets * ways
            lines += [rng.randrange(span) for _ in range(rng.randrange(1, 30))]
    return lines[:n]


@st.composite
def cache_sessions(draw):
    ways = draw(st.integers(min_value=1, max_value=16))
    n_sets = draw(st.sampled_from((1, 2, 3, 8, 64)))
    line = draw(st.sampled_from((1, 64)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=1 << 20)))
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        lines = _line_batch(rng, n_sets, ways, rng.randrange(0, 300))
        addresses = [tag * line + rng.randrange(line) for tag in lines]
        steps.append((rng.random() < 0.3, addresses))  # (scalar?, addresses)
    return ways, n_sets, line, steps


@settings(max_examples=80, deadline=None)
@given(cache_sessions())
def test_access_batch_matches_scalar_access(session):
    ways, n_sets, line, steps = session
    oracle = SetAssociativeCache("oracle", n_sets * ways * line, line, ways)
    cache = SetAssociativeCache("batch", n_sets * ways * line, line, ways)
    for scalar, addresses in steps:
        expected = [oracle.access(address) for address in addresses]
        if scalar:
            got = [cache.access(address) for address in addresses]
        else:
            got = cache.access_batch(np.array(addresses, dtype=np.int64)).tolist()
        assert got == expected
        assert (cache.hits, cache.misses) == (oracle.hits, oracle.misses)
    # Equal LRU stacks, order included, so later accesses agree too.
    assert np.array_equal(cache._dense_state(), oracle._dense_state())


@settings(max_examples=40, deadline=None)
@given(cache_sessions())
def test_hierarchy_access_batch_matches_scalar_access(session):
    _, _, _, steps = session
    sizes = dict(l1_size=1024, l2_size=4096, l3_size=16 * 1024)
    oracle = CacheHierarchy(**sizes)
    hierarchy = CacheHierarchy(**sizes)
    for scalar, addresses in steps:
        expected = [oracle.access(address) for address in addresses]
        if scalar:
            results = [hierarchy.access(address) for address in addresses]
            assert results == expected
            continue
        levels, latencies = hierarchy.access_batch(addresses)
        assert [LEVELS[code] for code in levels.tolist()] == [
            result.level for result in expected
        ]
        assert latencies.tolist() == [result.latency for result in expected]
    assert hierarchy.dram_accesses == oracle.dram_accesses
    for name in ("l1", "l2", "l3"):
        level, reference = getattr(hierarchy, name), getattr(oracle, name)
        assert (level.hits, level.misses) == (reference.hits, reference.misses)
        assert np.array_equal(level._dense_state(), reference._dense_state())
