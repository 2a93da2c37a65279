"""Tests for the execution runtime: in-process runner + experiment cache."""

from __future__ import annotations

import json
import multiprocessing.process

import pytest

from repro import concurrency
from repro.concurrency import resolve_jobs
from repro.core import SpireModel
from repro.errors import ConfigError
from repro.pipeline import (
    ExperimentConfig,
    cached_experiment,
    clear_caches,
    run_experiment,
)
from repro.runtime import (
    ExecutionPlan,
    ExperimentCache,
    ParallelRunner,
    experiment_cache_key,
)
from repro.uarch import skylake_gold_6126
from repro.uarch.config import MachineConfig, little_inorder_core

TINY = ExperimentConfig(train_windows=48, test_windows=24)


def _signature(result) -> dict:
    """Measured IPCs, TMA categories and full analyses for every workload."""
    runs = {**result.training_runs, **result.testing_runs}
    out = {
        name: (run.measured_ipc, run.table1_category) for name, run in runs.items()
    }
    for name in result.testing_runs:
        report = result.analyze(name)
        out[f"analysis:{name}"] = (
            report.measured_throughput,
            report.estimated_throughput,
            tuple((e.metric, e.estimate) for e in report.ranking),
        )
    return out


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_caches()
    yield
    clear_caches()


class TestParallelDeterminism:
    def test_runner_preserves_plan_order(self):
        plan = ExecutionPlan.for_experiment(TINY, skylake_gold_6126())
        runner = ParallelRunner()
        runs = runner.run(plan)
        assert [r.workload.name for r in runs] == [t.name for t in plan.tasks]
        assert runner.jobs == 1

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs("auto") == 1
        for jobs in (2, 0, None, -1, "4"):
            with pytest.raises(ConfigError, match="jobs"):
                resolve_jobs(jobs)

    @pytest.mark.parametrize("jobs", (2, 0, None, -1))
    def test_run_experiment_rejects_other_job_counts(self, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            run_experiment(TINY, jobs=jobs)


class TestAutoJobs:
    """``jobs="auto"`` stays in-process on every host."""

    @pytest.mark.parametrize("cpus", (1, 2, 64))
    @pytest.mark.parametrize("tasks", (None, 4, 27))
    def test_auto_is_one_on_any_host(self, monkeypatch, cpus, tasks):
        monkeypatch.setattr(concurrency, "available_cpus", lambda: cpus)
        assert resolve_jobs("auto", tasks=tasks) == 1

    def test_auto_experiment_runs_in_process(self, monkeypatch):
        serial = run_experiment(TINY, jobs=1)
        monkeypatch.setattr(concurrency, "available_cpus", lambda: 2)
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", _no_process
        )
        auto = run_experiment(TINY, jobs="auto")
        assert _signature(auto) == _signature(serial)

    def test_auto_training_never_builds_a_pool(self, monkeypatch):
        pooled = run_experiment(TINY).training_samples
        expected = SpireModel.train(pooled)
        monkeypatch.setattr(concurrency, "available_cpus", lambda: 64)
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", _no_process
        )
        model = SpireModel.train(pooled)
        assert model.metrics == expected.metrics
        for metric in model.metrics:
            a, b = model.roofline(metric), expected.roofline(metric)
            assert a.function.to_dict() == b.function.to_dict()


def _no_process(*args, **kwargs):
    raise AssertionError("experiments and training must not start a process")


class TestExperimentCache:
    def test_round_trip_is_equal(self, tmp_path):
        fresh = run_experiment(TINY, cache=tmp_path)
        loaded = run_experiment(TINY, cache=tmp_path)
        assert fresh is not loaded
        assert _signature(fresh) == _signature(loaded)
        assert fresh.machine == loaded.machine
        assert fresh.model.metrics == loaded.model.metrics
        for metric in fresh.model.metrics:
            a = fresh.model.roofline(metric)
            b = loaded.model.roofline(metric)
            assert a.function.to_dict() == b.function.to_dict()
            assert a.training_points == b.training_points
        assert len(fresh.training_samples) == len(loaded.training_samples)

    def test_corrupted_entry_resimulates(self, tmp_path):
        fresh = run_experiment(TINY, cache=tmp_path)
        cache = ExperimentCache(tmp_path)
        key = experiment_cache_key(TINY, skylake_gold_6126())
        assert cache.has(key)
        cache.entry_path(key).write_text("{not json", encoding="utf-8")
        recovered = run_experiment(TINY, cache=tmp_path)
        assert _signature(recovered) == _signature(fresh)
        # The re-simulated result was stored back as a valid entry.
        assert cache.load(key) is not None

    def test_wrong_format_entry_is_a_miss(self, tmp_path):
        cache = ExperimentCache(tmp_path)
        key = experiment_cache_key(TINY, skylake_gold_6126())
        cache.directory.mkdir(parents=True, exist_ok=True)
        cache.entry_path(key).write_text(
            json.dumps({"format": "something-else/9"}), encoding="utf-8"
        )
        assert cache.load(key) is None
        assert not cache.has(key)  # discarded

    def test_key_covers_all_inputs(self):
        machine = skylake_gold_6126()
        base = experiment_cache_key(TINY, machine)
        assert experiment_cache_key(TINY, machine) == base
        assert experiment_cache_key(
            ExperimentConfig(train_windows=48, test_windows=24, seed=7), machine
        ) != base
        assert experiment_cache_key(TINY, little_inorder_core()) != base
        from repro.core import TrainOptions

        assert experiment_cache_key(
            TINY, machine, TrainOptions(min_samples_per_metric=3)
        ) != base

    def test_clear(self, tmp_path):
        run_experiment(TINY, cache=tmp_path)
        cache = ExperimentCache(tmp_path)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestCachedExperiment:
    def test_memo_identity(self):
        a = cached_experiment(TINY)
        assert cached_experiment(TINY) is a

    def test_memo_distinguishes_machine(self):
        # The old lru_cache keyed only on ExperimentConfig and silently
        # returned the default-machine result for any machine.
        a = cached_experiment(TINY)
        b = cached_experiment(TINY, machine=little_inorder_core())
        assert a is not b
        assert b.machine.name == "little-inorder"

    def test_clear_caches_drops_memo(self):
        a = cached_experiment(TINY)
        clear_caches()
        assert cached_experiment(TINY) is not a

    def test_disk_backed_memo_shares_across_processes(self, tmp_path):
        cached_experiment(TINY, cache_dir=tmp_path)
        # a "new process": empty memo, same disk cache
        clear_caches()
        reloaded = cached_experiment(TINY, cache_dir=tmp_path)
        assert _signature(reloaded) == _signature(cached_experiment(TINY))


def _rival_store(cache_dir: str, done: "object") -> None:
    """Child-process worker: miss the cache, simulate, store the entry."""
    import repro.pipeline as pipeline

    pipeline.clear_caches()  # forked memo would defeat the point
    pipeline.run_experiment(TINY, cache=cache_dir)
    done.put("stored")


class TestConcurrentCacheWrites:
    def test_two_processes_race_on_one_key(self, tmp_path):
        # Both processes miss, both simulate, both store the same key via
        # the atomic tempfile+rename path: one rename wins, neither fails,
        # and the surviving entry is complete and loadable.
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        done = ctx.Queue()
        workers = [
            ctx.Process(target=_rival_store, args=(str(tmp_path), done))
            for _ in range(2)
        ]
        for p in workers:
            p.start()
        for p in workers:
            p.join(timeout=120)
        assert all(p.exitcode == 0 for p in workers)
        assert done.get(timeout=5) == "stored"
        assert done.get(timeout=5) == "stored"

        cache = ExperimentCache(tmp_path)
        assert len(cache) == 1
        key = experiment_cache_key(TINY, skylake_gold_6126())
        loaded = cache.load(key)
        assert loaded is not None
        assert _signature(loaded) == _signature(run_experiment(TINY))
        # No leaked temp files from the losing writer.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_threaded_store_hammer_never_corrupts(self, tmp_path):
        # Many rename races on one key: a reader must never observe a
        # truncated or partially written entry.
        from concurrent.futures import ThreadPoolExecutor

        result = run_experiment(TINY)
        cache = ExperimentCache(tmp_path)
        key = experiment_cache_key(TINY, skylake_gold_6126())

        def store_once(_):
            cache.store(key, result)
            payload = json.loads(cache.entry_path(key).read_text())
            return payload["format"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            formats = list(pool.map(store_once, range(16)))
        assert set(formats) == {"spire-expcache/1"}
        assert cache.load(key) is not None


class TestCacheLRUPruning:
    def _aged_entries(self, cache, result, count):
        """Store ``count`` entries with strictly increasing mtimes."""
        import os
        import time

        base = time.time() - 1000
        for i in range(count):
            path = cache.store(f"key{i:02d}", result)
            os.utime(path, (base + i, base + i))

    def test_store_evicts_oldest_beyond_bound(self, tmp_path):
        result = run_experiment(TINY)
        cache = ExperimentCache(tmp_path, max_entries=2)
        self._aged_entries(cache, result, 2)
        cache.store("key99", result)
        assert cache.keys() == ["key01", "key99"]  # key00 was oldest

    def test_load_refreshes_recency(self, tmp_path):
        import os
        import time

        result = run_experiment(TINY)
        cache = ExperimentCache(tmp_path, max_entries=2)
        self._aged_entries(cache, result, 2)
        # A hit on the older entry makes it most-recently-used...
        assert cache.load("key00") is not None
        os.utime(cache.entry_path("key00"), None)  # explicit "now"
        stale = time.time() - 500
        os.utime(cache.entry_path("key01"), (stale, stale))
        cache.store("key99", result)
        # ...so the *other* entry is the eviction victim.
        assert cache.keys() == ["key00", "key99"]

    def test_eviction_takes_checkpoints_along(self, tmp_path):
        result = run_experiment(TINY)
        run = next(iter(result.training_runs.values()))
        cache = ExperimentCache(tmp_path, max_entries=1)
        self._aged_entries(cache, result, 1)
        cache.store_checkpoint("key00", "graph500", run)
        cache.store("key99", result)
        assert cache.keys() == ["key99"]
        assert cache.checkpoint_names("key00") == []

    def test_unlimited_by_default(self, tmp_path):
        result = run_experiment(TINY)
        cache = ExperimentCache(tmp_path)
        assert cache.max_entries is None
        self._aged_entries(cache, result, 3)
        assert len(cache) == 3

    def test_env_override(self, tmp_path, monkeypatch):
        from repro.runtime import CACHE_MAX_ENTRIES_ENV

        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "1")
        assert ExperimentCache(tmp_path).max_entries == 1
        # Explicit argument beats the environment.
        assert ExperimentCache(tmp_path, max_entries=5).max_entries == 5
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "0")
        assert ExperimentCache(tmp_path).max_entries is None
        monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "a-lot")
        assert ExperimentCache(tmp_path).max_entries is None


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        result = run_experiment(TINY)
        cache = ExperimentCache(tmp_path)
        key = experiment_cache_key(TINY, skylake_gold_6126())
        name, run = next(iter(result.training_runs.items()))
        cache.store_checkpoint(key, name, run)
        assert cache.checkpoint_names(key) == [name]
        restored = cache.load_checkpoints(key)[name]
        assert restored.workload == run.workload
        assert restored.measured_ipc == run.measured_ipc
        assert restored.collection.samples.to_records() == \
            run.collection.samples.to_records()
        assert restored.tma.fractions == run.tma.fractions

    def test_discard(self, tmp_path):
        result = run_experiment(TINY)
        cache = ExperimentCache(tmp_path)
        name, run = next(iter(result.training_runs.items()))
        cache.store_checkpoint("k", name, run)
        assert cache.discard_checkpoints("k") == 1
        assert cache.checkpoint_names("k") == []
        assert not cache.checkpoint_dir("k").exists()


class TestMachineConfigSerialization:
    @pytest.mark.parametrize("factory", [skylake_gold_6126, little_inorder_core])
    def test_round_trip(self, factory):
        machine = factory()
        assert MachineConfig.from_dict(machine.to_dict()) == machine

    def test_dict_is_json_stable(self):
        machine = skylake_gold_6126()
        a = json.dumps(machine.to_dict(), sort_keys=True)
        b = json.dumps(MachineConfig.from_dict(machine.to_dict()).to_dict(),
                       sort_keys=True)
        assert a == b
