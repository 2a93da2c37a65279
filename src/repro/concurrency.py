"""Process-level parallelism: the job-count knob and one fork-join.

No process pool runs experiments or training.  It lost to the fused
in-process engine at the paper's evaluation: on a 2-vCPU Xeon VM a
paper-scale ``run_experiment`` took 0.41–0.72 s in-process against
2.27–2.84 s with a 2-worker pool of per-workload tasks, and
``SpireModel.train`` on its 69,000 samples took 75–102 ms against
90–133 ms, with identical models.  So ``jobs`` accepts only ``1`` and
``"auto"``, both meaning no pool; any other value raises
:class:`~repro.errors.ConfigError`.  Training runs in the calling
process.

Two loops fork instead, through :func:`fork_join`, because their rounds
share no state and forking a process that already holds them costs
little: the intensity rounds of one
:func:`~repro.trace.sampling.collect_trace_samples` call (each a
pure-Python recurrence of tens of milliseconds that returns a few
hundred sample rows) and the fused chunks of one
:func:`~repro.runtime.fused.simulate_tasks_fused` call (a paper-scale
experiment's five chunks; a child sends back its tasks' collections and
Top-Down results, 1.2 MB pickled).  Forked children send their rounds
back through pipes, and the results are bit-identical to the in-process
loop.  On a 2-vCPU host the seven trace kernels' default collection took
1,088–1,091 ms in one process and 683–685 ms forked, and a paper-scale
``simulate_tasks_fused`` 148 ms against 108 ms (medians of 15
alternating runs); where the host runs its two vCPUs at about half
speed each, the forked path gains nothing and can lose
(``docs/performance.md``).  Nothing selects either but what the process
can observe (:func:`share_count`).

This module imports only the standard library and :mod:`repro.errors`,
so any layer can use it without import cycles.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
from typing import BinaryIO, Callable, NoReturn, Sequence, TypeVar

from repro.errors import ConfigError, SpireError

T = TypeVar("T")

#: A process-wide counter as a ``(read, merge)`` pair: ``read()`` returns
#: its counts by name, and ``merge(gains)`` adds counts gained elsewhere.
Tally = tuple[Callable[[], dict], Callable[[dict], None]]


def available_cpus() -> int:
    """CPUs actually available to this process.

    Prefers :func:`os.process_cpu_count` (Python 3.13+), falling back to
    the scheduler affinity mask and then ``os.cpu_count()`` — a container
    pinned to one core must not be treated as a multi-core host.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        return counter() or 1
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_jobs(jobs: "int | str", tasks: int | None = None) -> int:
    """Validate a job-count knob; the answer is always ``1``.

    ``1`` and ``"auto"`` are accepted; anything else raises
    :class:`ConfigError`.  ``tasks`` (the pending-task count some callers
    pass) does not change the answer.
    """
    if jobs == 1 or jobs == "auto":
        return 1
    raise ConfigError(
        f"jobs must be 1 or 'auto' (experiments run no process pool), "
        f"got {jobs!r}"
    )


def share_count(rounds: int) -> int:
    """How many processes :func:`fork_join` runs ``rounds`` rounds on.

    One per available CPU, at most one per round, and only where forking
    without exec is safe: on Linux (macOS's Accelerate does not survive
    it, and Windows has no fork) and while no other Python thread runs,
    since a child would inherit whatever lock that thread held.
    """
    if sys.platform != "linux" or threading.active_count() != 1:
        return 1
    return max(1, min(available_cpus(), rounds))


def fork_join(
    run: Callable[[int], T], rounds: int, tallies: Sequence[Tally] = ()
) -> list[T]:
    """``[run(i) for i in range(rounds)]``, shared across the CPUs.

    Round ``i`` goes to share ``i % k``, ``k = share_count(rounds)``.
    Shares ``1 .. k-1`` each run in a forked child, which pickles its
    results into a pipe (floats travel as binary doubles, so they cross
    exactly); share 0 runs in the calling process once the others are
    forked.  With ``k == 1`` the rounds run in-process.  Where the
    system has no process or file descriptor to spare (``fork``'s
    ``EAGAIN`` or ``ENOMEM``, ``pipe``'s ``EMFILE``), forking stops and
    the calling process also runs the shares left without a child.  Each
    ``(read, merge)`` pair of ``tallies`` names a process-wide counter:
    a child sends what ``read()`` gained over its rounds, and the caller
    passes it to ``merge``, so the counter counts every round wherever
    it ran.

    A round that raises in a child has its exception re-raised here,
    with its own type and message; of several, the lowest-numbered, as
    the in-process loop would raise.  A child that ends without sending
    its results (killed, out of memory) counts as a
    :class:`~repro.errors.SpireError` at its first round.  A round that
    raises in the calling process (round 0 always runs there) propagates
    at once, as an interrupt does: every child is killed and reaped
    first, so no child outlives the call.
    """
    shares = share_count(rounds)
    results: list = [None] * rounds
    children: dict = {}  # pid -> (its share, the read end of its pipe)
    unforked = shares  # the first share that got no child
    try:
        for share in range(1, shares):
            child = _fork_share(run, range(share, rounds, shares), tallies)
            if child is None:
                unforked = share
                break
            children[child[0]] = (share, child[1])
        for index in range(rounds):
            if index % shares == 0 or index % shares >= unforked:
                results[index] = run(index)
        failures = []
        for pid, (share, pipe) in list(children.items()):
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status != 0:  # it exits 0 only once it has sent everything
                failures.append((share, SpireError(
                    f"forked share {share} (pid {pid}) "
                    f"{_describe_exit(status)} before it sent its rounds"
                )))
                continue
            done, failure, gains = pickle.loads(payload)
            for (_, merge), gained in zip(tallies, gains):
                merge(gained)
            for index, result in zip(range(share, rounds, shares), done):
                results[index] = result
            if failure is not None:
                failures.append(failure)
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return results
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped just before an interrupt arrived


def _fork_share(
    run: Callable[[int], T], indices: range, tallies: Sequence[Tally]
) -> tuple[int, BinaryIO] | None:
    """Fork a child that runs ``indices``: its pid and the read end of
    its pipe, or ``None`` where ``pipe`` or ``fork`` fails for want of a
    descriptor or a process."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except BaseException as exc:
        os.close(read_end)
        os.close(write_end)
        if isinstance(exc, OSError):
            return None
        raise
    if pid == 0:
        _run_share(run, indices, tallies, read_end, write_end)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _run_share(
    run: Callable[[int], T],
    indices: range,
    tallies: Sequence[Tally],
    read_end: int,
    write_end: int,
) -> NoReturn:
    """A forked child's life: run its rounds, send them, exit.

    It always leaves through :func:`os._exit`, never by returning or
    raising into the parent's frames, so no stdio buffer or ``atexit``
    hook inherited from the parent runs a second time.
    """
    code = 1
    try:
        # Without this copy of the read end, a write fails instead of
        # blocking once the parent has closed its own.
        os.close(read_end)
        before = [read() for read, _ in tallies]
        done = []
        failure = None
        for index in indices:
            try:
                done.append(run(index))
            except Exception as exc:  # sent to the parent, which raises it
                failure = (index, exc)
                break
        gains = [
            {name: n - start.get(name, 0) for name, n in read().items()}
            for (read, _), start in zip(tallies, before)
        ]
        with open(write_end, "wb") as pipe:
            pipe.write(
                pickle.dumps((done, failure, gains), pickle.HIGHEST_PROTOCOL)
            )
        code = 0
    finally:
        os._exit(code)


def _describe_exit(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"was killed by signal {-code} ({signal.strsignal(-code)})"
    return f"exited with status {code}"
