"""The trace rounds' fork-join: bit identity, failures, no stray children.

Each test forces its path by patching ``available_cpus`` where
:func:`repro.concurrency.share_count` looks it up, so both the forked and
the in-process path run on any host, and spies on :func:`os.fork` to see
which one ran.  The ``forks`` fixture checks after each test that every
child it saw forked has been reaped.
"""

from __future__ import annotations

import errno
import os
import signal
import sys
import threading
import time
import warnings

import pytest

import repro.concurrency as concurrency
from repro.concurrency import fork_join, share_count
from repro.errors import ConfigError, SpireError
from repro.trace import phases, wavefront
from repro.trace import sampling
from repro.trace.sampling import collect_trace_samples


@pytest.fixture
def forks(monkeypatch):
    """The pids forked during the test; each must be reaped at its end."""
    pids: list[int] = []
    real_fork = os.fork

    def spy() -> int:
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(concurrency, "available_cpus", lambda: count)


def _collect(kernel: str = "mixed"):
    """One collection with the phase timers on; returns the run and the
    block/uop counts and phase names it recorded."""
    wavefront.reset_stats()
    phases.enable(True)
    phases.reset()
    try:
        run = collect_trace_samples(
            kernel, n_uops=6_000, window_uops=1_000, seed=4
        )
        return run, wavefront.stats(), sorted(phases.totals())
    finally:
        phases.enable(False)
        phases.reset()


@pytest.mark.parametrize("kernel", ("mixed", "codebloat"))
def test_forked_run_is_bit_identical_to_in_process(monkeypatch, forks, kernel):
    _cpus(monkeypatch, 1)
    serial, serial_stats, serial_phases = _collect(kernel)
    assert forks == []
    _cpus(monkeypatch, 2)
    forked, forked_stats, forked_phases = _collect(kernel)
    assert len(forks) == 1
    assert forked.samples.to_records() == serial.samples.to_records()
    assert forked.final_counters == serial.final_counters
    assert forked.instructions == serial.instructions
    assert forked.cycles == serial.cycles
    # The child's block loop counts and phase timers reach this process.
    assert forked_stats == serial_stats
    assert forked_stats["uops"] == 5 * 6_000
    assert forked_phases == serial_phases
    assert serial_phases == ["counters", "prepass", "recurrence"]


def test_rounds_are_dealt_round_robin_and_returned_in_order(
    monkeypatch, forks
):
    _cpus(monkeypatch, 3)
    ran_in = fork_join(lambda index: (index, os.getpid()), 5)
    assert [index for index, _ in ran_in] == [0, 1, 2, 3, 4]
    pids = [pid for _, pid in ran_in]
    assert pids[0] == pids[3] == os.getpid()
    assert pids[1] == pids[4] == forks[0]
    assert pids[2] == forks[1]


def _fail_every_second_call(monkeypatch, name: str, error: OSError) -> None:
    """Make every second call of ``os.<name>`` raise ``error``."""
    real = getattr(os, name)
    calls = []

    def alternate(*args):
        calls.append(name)
        if len(calls) % 2 == 0:
            raise error
        return real(*args)

    monkeypatch.setattr(os, name, alternate)


@pytest.mark.parametrize("name, error", (
    ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
    ("pipe", OSError(errno.EMFILE, "Too many open files")),
))
def test_fork_failure_leaves_the_unforked_share_to_the_caller(
    monkeypatch, forks, name, error
):
    _cpus(monkeypatch, 1)
    serial, serial_stats, serial_phases = _collect()
    assert forks == []
    _cpus(monkeypatch, 3)
    _fail_every_second_call(monkeypatch, name, error)
    forked, forked_stats, forked_phases = _collect()
    assert len(forks) == 1  # share 1 forked; share 2 ran in this process
    assert forked.samples.to_records() == serial.samples.to_records()
    assert forked.final_counters == serial.final_counters
    assert (forked.instructions, forked.cycles) == (
        serial.instructions, serial.cycles
    )
    assert forked_stats == serial_stats
    assert forked_phases == serial_phases

    pids = [pid for _, pid in fork_join(
        lambda index: (index, os.getpid()), 5
    )]
    assert len(forks) == 2
    assert pids == [os.getpid(), forks[1], os.getpid(), os.getpid(), forks[1]]


def _fork_warnings(collect) -> list[str]:
    """The "This process ... is multi-threaded" warnings ``collect()``
    draws from :func:`os.fork` (CPython 3.12 on).  They are recorded, not
    raised: CPython clears the warning even where a filter makes it an
    error, so ``-W error`` cannot catch it."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        collect()
    return [
        str(warning.message) for warning in seen
        if str(warning.message).startswith("This process")
    ]


def test_forked_rounds_draw_no_fork_warning(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    warned = _fork_warnings(lambda: collect_trace_samples(
        "stream", n_uops=2_000, window_uops=500
    ))
    assert len(forks) == 1
    assert warned == []


@pytest.mark.skipif(
    sys.version_info < (3, 12), reason="os.fork warns from CPython 3.12 on"
)
def test_fork_warning_check_sees_a_multi_threaded_fork(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        warned = _fork_warnings(lambda: fork_join(lambda index: index, 2))
    finally:
        release.set()
        thread.join(timeout=30)
    assert len(forks) == 1
    assert warned


def test_child_round_error_keeps_its_type_and_message(monkeypatch, forks):
    real_lookup = sampling.array_builder_by_name

    def failing_lookup(kernel):
        make_trace = real_lookup(kernel)

        def make_or_fail(n, intensity, rng):
            if intensity == 0.3:  # round 1, share 1: a forked child
                raise ConfigError(f"no trace at intensity {intensity}")
            return make_trace(n, intensity, rng)

        return make_or_fail

    monkeypatch.setattr(sampling, "array_builder_by_name", failing_lookup)
    errors = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises(ConfigError) as caught:
            collect_trace_samples("stream", n_uops=2_000, window_uops=500)
        errors.append((type(caught.value), str(caught.value)))
    assert len(forks) == 1
    assert errors[0] == errors[1] == (ConfigError, "no trace at intensity 0.3")


def test_lowest_numbered_child_failure_wins(monkeypatch, forks):
    _cpus(monkeypatch, 3)

    def run(index):
        if index in (2, 4):
            raise ValueError(f"round {index}")
        return index

    with pytest.raises(ValueError, match="^round 2$"):
        fork_join(run, 5)
    assert len(forks) == 2


@pytest.mark.parametrize("error", (RuntimeError, KeyboardInterrupt))
def test_own_share_failure_kills_and_reaps_the_children(
    monkeypatch, forks, error
):
    _cpus(monkeypatch, 2)

    def run(index):
        if index == 0:  # share 0 always runs in the calling process
            raise error("own share")
        time.sleep(60)  # a child that would outlive the call if left alone
        return index

    started = time.monotonic()
    with pytest.raises(error, match="own share"):
        fork_join(run, 2)
    assert time.monotonic() - started < 30
    assert len(forks) == 1


def test_child_that_dies_without_results_is_a_spire_error(monkeypatch, forks):
    _cpus(monkeypatch, 2)

    def run(index):
        if index == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return index

    with pytest.raises(SpireError, match="killed by signal 9"):
        fork_join(run, 2)
    assert len(forks) == 1


def test_live_thread_means_no_fork(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert share_count(5) == 1
        run = collect_trace_samples("stream", n_uops=2_000, window_uops=500)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert forks == []
    assert share_count(5) == 2
    assert run.samples.to_records() == (
        collect_trace_samples(
            "stream", n_uops=2_000, window_uops=500
        ).samples.to_records()
    )
    assert len(forks) == 1


def test_scalar_fallback_stays_in_process(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    monkeypatch.setenv("SPIRE_SCALAR_FALLBACK", "1")
    collect_trace_samples("stream", n_uops=2_000, window_uops=500)
    assert forks == []


def test_share_count_is_one_per_cpu_and_at_most_one_per_round(monkeypatch):
    _cpus(monkeypatch, 2)
    assert [share_count(rounds) for rounds in (0, 1, 2, 5)] == [1, 1, 2, 2]
    _cpus(monkeypatch, 8)
    assert share_count(5) == 5
    _cpus(monkeypatch, 1)
    assert share_count(5) == 1
