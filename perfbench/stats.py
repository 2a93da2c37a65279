"""Latency statistics, host-speed calibration and failure accounting.

Nothing here imports the program under test.
"""

from __future__ import annotations

import json
import math
import statistics
import time

#: Candidate tail percentiles, highest first.  None above p99: the
#: metric is named for it, and ``stream``'s 13,600 per-chunk medians
#: would otherwise qualify for p99.9.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is only reported when at least this many samples
#: lie strictly beyond it; fewer make the value a single outlier.
MIN_BEYOND = 10

#: Below this many samples no percentile has ``MIN_BEYOND`` beyond it.
MIN_SAMPLES = 2 * MIN_BEYOND


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: list[float]) -> tuple[str, float, int]:
    """The tail latency reported as ``op_p99_ms``.

    Returns ``(rule, value, samples_beyond)``.  From ``MIN_SAMPLES`` on,
    the highest of ``TAIL_PERCENTILES`` (nearest rank) with at least
    ``MIN_BEYOND`` samples beyond it, so p99 from 1,000 samples on.  With
    fewer samples (runs of a few long ops) always the second largest,
    whatever the count, so that a faster program that fits one more op
    into a run is still measured at the same rank; with one sample, that
    sample.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) < MIN_SAMPLES:
        value = ordered[-2] if len(ordered) > 1 else ordered[-1]
        return "second largest", value, sum(1 for v in ordered if v > value)
    for pct in TAIL_PERCENTILES:
        value = nearest_rank(ordered, pct)
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= MIN_BEYOND:
            return f"p{pct:g}", value, beyond
    return "max", ordered[-1], 0


#: What the calibration kernel takes on the reference host (an idle
#: 2-vCPU x86-64 VM, Python 3.11, NumPy 2.4).  Timings are reported as if
#: measured on that host: raw time x this / the run's median kernel time.
REFERENCE_CALIBRATION_S = 0.023

#: Workloads whose closed loop times a :func:`parse_probe` between ops
#: every few tens of milliseconds instead of the kernel once a second:
#: their ops are short, so the probes can follow the host's speed
#: closely.  In 4-minute tests on the reference host, the log of the time
#: of 1,500-op stretches of ``stream`` over the mean of the probes taken
#: among them had a standard deviation of 0.043-0.048 with
#: :func:`parse_probe`, 0.064-0.072 with :func:`probe` and 0.10-0.16
#: over the kernel timed between stretches; and stream work slowed as
#: much as :func:`parse_probe` when the host slowed (slope 0.99-1.03 in
#: log terms), but 1.33-1.38 times as much as :func:`probe`.
PROBED_WORKLOADS = ("stream",)

#: Probes averaged for each op's speed: about one second of them.
PROBE_WINDOW = 40


def calibrate(reps: int) -> list[float]:
    """Time a fixed kernel ``reps`` times: an interpreter loop, a NumPy
    sort and a JSON round trip, the three kinds of work the workloads do.

    Shared hosts drift in speed by up to 2x over minutes; timing this
    kernel between ops and scaling by it cancels that drift while a
    change to the program still moves every reported time.
    """
    import numpy as np

    # Small inputs, repeated, and no numpy.random (its extension modules
    # alone add megabytes) keep the kernel out of the host's peak RSS.
    values = np.arange(20_000, dtype=np.float64)
    values *= 2_654_435_761.0
    np.fmod(values, 1_000_003.0, out=values)
    document = {str(i): [i, i / 7] for i in range(500)}
    seconds = []
    for _ in range(reps):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        for _ in range(10):
            np.sort(values)
        for _ in range(6):
            json.loads(json.dumps(document))
        seconds.append(time.perf_counter() - started)
    return seconds


_PROBE_VALUES = None


def probe() -> float:
    """Time a ~0.5 ms slice of the calibration kernel once; return seconds.

    Small enough to run every few tens of milliseconds inside a busy
    server's event loop, so that it samples the speed of whichever CPU
    the server is on, in proportion to the time the server spends there.
    """
    global _PROBE_VALUES
    import numpy as np

    if _PROBE_VALUES is None:
        _PROBE_VALUES = np.arange(4_000, dtype=np.float64)
        _PROBE_VALUES *= 2_654_435_761.0
        np.fmod(_PROBE_VALUES, 1_000_003.0, out=_PROBE_VALUES)
    document = {str(i): [i, i / 7] for i in range(50)}
    started = time.perf_counter()
    total = 0
    for i in range(4_000):
        total += i * i
    np.sort(_PROBE_VALUES)
    json.loads(json.dumps(document))
    return time.perf_counter() - started


#: What :func:`probe` takes on the reference host: the calibration kernel
#: took 54.8 times as long as the probe when both were timed in one process.
REFERENCE_PROBE_S = 0.00042

_PARSE_TEXT = "\n".join(f"{i}.000000,{i * 3.5!r},,cycles,1000000,100.00,,"
                        for i in range(300))


def parse_probe() -> float:
    """Time a ~0.3 ms kernel of the kind of work ``stream`` ops do once;
    return seconds: split a fixed ``perf stat -x,`` text into lines and
    fields, parse the numbers into a dict per line, and sort the values
    in a NumPy array."""
    import numpy as np

    started = time.perf_counter()
    rows = []
    for line in _PARSE_TEXT.split("\n"):
        fields = line.split(",")
        rows.append({"time": float(fields[0]), "value": float(fields[1]),
                     "event": fields[3]})
    np.array([row["value"] for row in rows]).argsort()
    return time.perf_counter() - started


#: What :func:`parse_probe` takes on the reference host: 0.59 times as
#: long as :func:`probe` when both were timed alternately in one process.
REFERENCE_PARSE_PROBE_S = 0.00025


def host_speed(samples: list[float]) -> float:
    """How much slower than the reference host the run was (>1 slower)."""
    return statistics.median(samples) / REFERENCE_CALIBRATION_S


def op_speeds(marks: list[list[float]], count: int) -> list[float]:
    """:func:`host_speed` during each of ``count`` ops in a closed loop.

    ``marks`` holds ``[ops done before it, median kernel seconds]`` for
    each calibration, in order, the first before op 0 and the last after
    the final op.  An op gets the mean of the calibrations just before
    and just after it.  The host's speed wanders within a run, and a tail
    percentile draws its ops from the slow stretches; one speed for the
    whole run would leave them slow.
    """
    speeds = []
    k = 0
    for op in range(count):
        while marks[k + 1][0] <= op:
            k += 1
        seconds = (marks[k][1] + marks[k + 1][1]) / 2
        speeds.append(seconds / REFERENCE_CALIBRATION_S)
    return speeds


def probe_op_speeds(probes: list[list[float]], count: int,
                    window: int = PROBE_WINDOW) -> list[float]:
    """:func:`probe_speed` during each of ``count`` ops in a closed loop.

    ``probes`` holds ``[ops done before it, seconds]`` for each
    :func:`parse_probe`, in order.  An op gets the mean of the ``window``
    probes nearest to it in op order.
    """
    if not probes:
        raise ValueError("no probes")
    window = min(window, len(probes))
    sums = [0.0]
    for _, seconds in probes:
        sums.append(sums[-1] + seconds)
    speeds = []
    j = 0  # probes taken before op ``op``
    for op in range(count):
        while j < len(probes) and probes[j][0] <= op:
            j += 1
        lo = min(max(0, j - window // 2), len(probes) - window)
        mean = (sums[lo + window] - sums[lo]) / window
        speeds.append(mean / REFERENCE_PARSE_PROBE_S)
    return speeds


def position_medians(values: list[float], period: int) -> list[float]:
    """The median of each position of a sequence that repeats every
    ``period`` values: ``[median(values[i::period]) for i < period]``.

    A closed loop over a fixed sequence of ops (``stream``) times every op
    once per pass.  Interference on a shared host slows a few ops of one
    pass at random, and a tail percentile of single timings swings with
    it; the median of each op over the passes keeps the op's own cost.
    """
    if period < 1 or len(values) < period:
        raise ValueError(f"{len(values)} values hold no full period of {period}")
    return [statistics.median(values[i::period]) for i in range(period)]


def probe_speed(samples: list[float],
                reference: float = REFERENCE_PROBE_S) -> float:
    """:func:`host_speed` from probe times (of :func:`probe`, or with
    ``REFERENCE_PARSE_PROBE_S`` of :func:`parse_probe`).  The mean, not
    the median: a CPU whose hyperthread sibling is busy runs about 1.4x
    slower, so probe times are bimodal, and the time-weighted slowdown is
    their mean."""
    return statistics.fmean(samples) / reference


#: HTTP statuses that mean the server refused the work (backpressure).
REFUSED = (429, 503)


class Outcomes:
    """Counts attempted and failed operations, and why they failed.

    Every refused request (429/503), error status, exception and output
    mismatch is a failure; ``refused`` additionally tracks the
    backpressure share so it can be reported as its own counter.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.reasons: dict[str, int] = {}

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        if not count:
            return
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def status(self, code: int, matches: bool, count: int = 1) -> None:
        """Record ``count`` identical HTTP responses by status and by
        whether the body was correct."""
        if code in REFUSED:
            self.refused += count
            self.fail(f"http {code}", count)
        elif code != 200:
            self.fail(f"http {code}", count)
        elif not matches:
            self.fail("mismatch", count)
        else:
            self.ok(count)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
