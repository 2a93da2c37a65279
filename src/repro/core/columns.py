"""Structure-of-arrays sample storage — the vectorized data plane.

:class:`~repro.core.sample.Sample` objects are convenient but expensive:
a full-scale experiment materializes hundreds of thousands of frozen
dataclasses just to read three floats out of each.  :class:`SampleArray`
stores the same information column-wise — one NumPy array per field plus
an interned metric-name table — so sampling, sanitizing, fitting and
estimation can run as array kernels instead of per-object Python.

Conversion to and from :class:`~repro.core.sample.SampleSet` is lossless:
the arrays hold exactly the float values the objects would, and metric
grouping preserves first-seen order.  The scalar object path remains the
reference oracle; setting ``SPIRE_SCALAR_FALLBACK=1`` in the environment
forces every dispatch point back onto it (see ``docs/performance.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import DataError
from repro.fastpath import scalar_fallback_enabled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.sample import Sample, SampleSet

__all__ = ["SampleArray", "as_sample_array", "scalar_fallback_enabled"]


class SampleArray:
    """Columnar storage for a set of samples.

    Parameters
    ----------
    metric_ids:
        Integer array mapping each row to an entry of ``metric_names``.
    metric_names:
        Interned metric-name table, in first-assignment order.
    time, work, metric_count:
        Float64 columns, one entry per row.

    The constructor does **not** validate values — a ``SampleArray`` may
    deliberately hold dirty measurements on their way into
    :meth:`~repro.core.sanitize.SampleSanitizer.sanitize_array`.  Call
    :meth:`validate` to enforce the strict :class:`Sample` invariants.
    """

    __slots__ = (
        "metric_ids",
        "metric_names",
        "time",
        "work",
        "metric_count",
        "_groups",
        "_intensity",
        "_throughput",
    )

    def __init__(
        self,
        metric_ids,
        metric_names: Sequence[str],
        time,
        work,
        metric_count,
    ):
        self.metric_ids = np.ascontiguousarray(metric_ids, dtype=np.int64)
        self.metric_names = tuple(metric_names)
        self.time = np.ascontiguousarray(time, dtype=np.float64)
        self.work = np.ascontiguousarray(work, dtype=np.float64)
        self.metric_count = np.ascontiguousarray(metric_count, dtype=np.float64)
        n = len(self.metric_ids)
        for name, column in (
            ("time", self.time),
            ("work", self.work),
            ("metric_count", self.metric_count),
        ):
            if len(column) != n:
                raise DataError(
                    f"column length mismatch: {n} metric ids, "
                    f"{len(column)} {name} values"
                )
        if n and self.metric_names:
            lo = int(self.metric_ids.min())
            hi = int(self.metric_ids.max())
            if lo < 0 or hi >= len(self.metric_names):
                raise DataError(
                    f"metric id out of range: [{lo}, {hi}] vs "
                    f"{len(self.metric_names)} names"
                )
        elif n:
            raise DataError("rows present but the metric-name table is empty")
        self._groups = None
        self._intensity = None
        self._throughput = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "SampleArray":
        return cls(
            np.empty(0, dtype=np.int64), (), np.empty(0), np.empty(0), np.empty(0)
        )

    @classmethod
    def from_lists(
        cls,
        metrics: Sequence[str],
        time: Sequence[float],
        work: Sequence[float],
        metric_count: Sequence[float],
    ) -> "SampleArray":
        """Build from parallel Python lists (the collector's emit path)."""
        table: dict[str, int] = {}
        ids = np.fromiter(
            [table.setdefault(name, len(table)) for name in metrics],
            np.int64,
            len(metrics),
        )
        return cls(ids, tuple(table), time, work, metric_count)

    @classmethod
    def from_samples(cls, samples: Iterable["Sample"]) -> "SampleArray":
        """Build from constructed :class:`Sample` objects (always valid)."""
        metrics: list[str] = []
        time: list[float] = []
        work: list[float] = []
        count: list[float] = []
        for sample in samples:
            metrics.append(sample.metric)
            time.append(sample.time)
            work.append(sample.work)
            count.append(sample.metric_count)
        return cls.from_lists(metrics, time, work, count)

    @classmethod
    def from_records(
        cls, records: Iterable[Mapping], validate: bool = True
    ) -> "SampleArray":
        """Build from mapping records; ``validate=False`` admits dirty rows.

        Missing fields raise :class:`~repro.errors.DataError` exactly like
        :meth:`Sample.from_dict <repro.core.sample.Sample.from_dict>`; with
        ``validate=False`` non-numeric values become NaN (the sanitizer's
        contract) instead of raising.
        """
        rows = records if isinstance(records, list) else list(records)
        n = len(rows)
        try:
            metrics = [str(row["metric"]) for row in rows]
            # fromiter converts straight into float64 storage in C — no
            # intermediate Python floats for the three numeric columns.
            time = np.fromiter((row["time"] for row in rows), np.float64, n)
            work = np.fromiter((row["work"] for row in rows), np.float64, n)
            count = np.fromiter(
                (row["metric_count"] for row in rows), np.float64, n
            )
        except KeyError as missing:
            raise DataError(f"sample record is missing field {missing}") from None
        except (TypeError, ValueError):
            time, work, count = cls._convert_rows(rows, validate)
        array = cls.from_lists(metrics, time, work, count)
        if validate:
            array.validate()
        return array

    @staticmethod
    def _convert_rows(
        rows: Sequence[Mapping], validate: bool
    ) -> tuple[list[float], list[float], list[float]]:
        """Row-wise conversion fallback for values numpy cannot coerce."""
        nan = float("nan")
        time: list[float] = []
        work: list[float] = []
        count: list[float] = []
        for row in rows:
            try:
                raw_t, raw_w, raw_m = (
                    row["time"],
                    row["work"],
                    row["metric_count"],
                )
            except KeyError as missing:
                raise DataError(
                    f"sample record is missing field {missing}"
                ) from None
            try:
                t, w, m = float(raw_t), float(raw_w), float(raw_m)
            except (TypeError, ValueError):
                if validate:
                    raise
                t = w = m = nan
            time.append(t)
            work.append(w)
            count.append(m)
        return time, work, count

    @classmethod
    def concat(cls, arrays: Sequence["SampleArray"]) -> "SampleArray":
        """Concatenate row-wise, merging metric-name tables first-seen."""
        arrays = [a for a in arrays if len(a)]
        if not arrays:
            return cls.empty()
        if len(arrays) == 1:
            return arrays[0]
        table: dict[str, int] = {}
        remapped = []
        for array in arrays:
            mapping = np.empty(max(len(array.metric_names), 1), dtype=np.int64)
            for index, name in enumerate(array.metric_names):
                ident = table.get(name)
                if ident is None:
                    ident = table.setdefault(name, len(table))
                mapping[index] = ident
            remapped.append(mapping[array.metric_ids])
        return cls(
            np.concatenate(remapped),
            tuple(table),
            np.concatenate([a.time for a in arrays]),
            np.concatenate([a.work for a in arrays]),
            np.concatenate([a.metric_count for a in arrays]),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.metric_ids)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __repr__(self) -> str:
        return f"SampleArray({len(self)} samples, {len(self.metrics())} metrics)"

    def row(self, index: int) -> tuple[str, float, float, float]:
        """One row as ``(metric, time, work, metric_count)``."""
        return (
            self.metric_names[int(self.metric_ids[index])],
            float(self.time[index]),
            float(self.work[index]),
            float(self.metric_count[index]),
        )

    @property
    def throughput(self) -> np.ndarray:
        """Per-row ``P = W / T`` (cached)."""
        if self._throughput is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                self._throughput = self.work / self.time
        return self._throughput

    @property
    def intensity(self) -> np.ndarray:
        """Per-row ``I_x = W / M_x`` with ``inf`` where ``M_x = 0`` (cached)."""
        if self._intensity is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = self.work / self.metric_count
            self._intensity = np.where(
                self.metric_count == 0.0, np.inf, ratio
            )
        return self._intensity

    @property
    def finite_intensity_mask(self) -> np.ndarray:
        """True where the metric fired (``M_x > 0``)."""
        return self.metric_count > 0.0

    def metrics(self) -> list[str]:
        """Metric names present, in first-seen row order."""
        if not len(self):
            return []
        unique_ids, first_rows = np.unique(self.metric_ids, return_index=True)
        order = np.argsort(first_rows, kind="stable")
        return [self.metric_names[int(i)] for i in unique_ids[order]]

    def group_indices(self) -> dict[str, np.ndarray]:
        """Row indices per metric, keyed in first-seen order (cached).

        Within each group the indices are ascending, so group traversal
        preserves the original sample order — exactly the grouping
        :meth:`SampleSet.grouped <repro.core.sample.SampleSet.grouped>`
        produces.
        """
        if self._groups is None:
            groups: dict[str, np.ndarray] = {}
            if len(self):
                # One stable argsort: each id's rows are a run of
                # ``order``, ascending, and the run's first entry is the
                # id's first row, so sorting the runs by it orders the
                # groups first-seen.
                order = np.argsort(self.metric_ids, kind="stable")
                sorted_ids = self.metric_ids[order]
                # Ids are never negative, so row 0 starts a run too.
                starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
                edges = [*starts.tolist(), len(order)]
                ids = sorted_ids[starts].tolist()
                names = self.metric_names
                for run in np.argsort(order[starts]).tolist():
                    groups[names[ids[run]]] = order[edges[run]:edges[run + 1]]
            self._groups = groups
        return self._groups

    def for_metric(self, metric: str) -> "SampleArray":
        """Rows of one metric as a new array (empty if absent)."""
        rows = self.group_indices().get(metric)
        if rows is None:
            return SampleArray.empty()
        return self.select(rows)

    def select(self, rows) -> "SampleArray":
        """A new array containing the given rows (mask or index array)."""
        rows = np.asarray(rows)
        return SampleArray(
            self.metric_ids[rows],
            self.metric_names,
            self.time[rows],
            self.work[rows],
            self.metric_count[rows],
        )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def total_time(self, metric: str | None = None) -> float:
        if metric is None:
            time = self.time
        else:
            rows = self.group_indices().get(metric)
            if rows is None:
                return 0.0
            time = self.time[rows]
        # Sequential accumulation (cumsum, not pairwise np.sum) keeps the
        # result bit-identical to the scalar object path.
        return float(np.cumsum(time)[-1]) if len(time) else 0.0

    def measured_throughput(self, metric: str | None = None) -> float:
        if metric is None:
            time, work = self.time, self.work
        else:
            rows = self.group_indices().get(metric)
            if rows is None:
                time = work = np.empty(0)
            else:
                time, work = self.time[rows], self.work[rows]
        total_time = float(np.cumsum(time)[-1]) if len(time) else 0.0
        if total_time == 0:
            raise DataError("cannot compute measured throughput of an empty sample set")
        return float(np.cumsum(work)[-1]) / total_time

    # ------------------------------------------------------------------
    # Validation and conversion
    # ------------------------------------------------------------------

    def validate(self) -> "SampleArray":
        """Enforce the strict :class:`Sample` invariants, vectorized.

        Raises :class:`~repro.errors.DataError` with the scalar
        constructor's exact message for the first offending row; returns
        ``self`` when everything is clean.
        """
        bad = (
            ~np.isfinite(self.time)
            | ~np.isfinite(self.work)
            | ~np.isfinite(self.metric_count)
            | (self.time <= 0)
            | (self.work < 0)
            | (self.metric_count < 0)
        )
        empty_names = [not name for name in self.metric_names]
        if any(empty_names):
            bad = bad | np.asarray(empty_names, dtype=bool)[self.metric_ids]
        if bad.any():
            from repro.core.sample import Sample

            metric, t, w, m = self.row(int(np.argmax(bad)))
            # Reconstructing the offending row through the strict
            # constructor raises the reference error message.
            Sample(metric=metric, time=t, work=w, metric_count=m)
            raise DataError("sample array failed validation")  # pragma: no cover
        return self

    def to_sample_set(self) -> "SampleSet":
        """Lossless conversion to a (lazily materialized) sample set."""
        from repro.core.sample import SampleSet

        return SampleSet.from_columns(self)

    def iter_samples(self) -> Iterable["Sample"]:
        """Yield rows as :class:`Sample` objects (materializes per row)."""
        from repro.core.sample import Sample

        names = self.metric_names
        ids = self.metric_ids.tolist()
        times = self.time.tolist()
        works = self.work.tolist()
        counts = self.metric_count.tolist()
        for ident, t, w, m in zip(ids, times, works, counts):
            yield Sample(metric=names[ident], time=t, work=w, metric_count=m)

    def to_records(self) -> list[dict]:
        names = self.metric_names
        return [
            {"metric": names[ident], "time": t, "work": w, "metric_count": m}
            for ident, t, w, m in zip(
                self.metric_ids.tolist(),
                self.time.tolist(),
                self.work.tolist(),
                self.metric_count.tolist(),
            )
        ]


def as_sample_array(samples) -> SampleArray:
    """Coerce any accepted sample source into a :class:`SampleArray`."""
    from repro.core.sample import SampleSet

    if isinstance(samples, SampleArray):
        return samples
    if isinstance(samples, SampleSet):
        return samples.columns()
    return SampleArray.from_samples(samples)


def time_weighted_mean(values: np.ndarray, times: np.ndarray) -> float:
    """Eq. (1) as an array reduction: ``Σ T⁽ⁱ⁾ P⁽ⁱ⁾ / Σ T⁽ⁱ⁾``.

    Summation runs left to right (``np.cumsum`` accumulates sequentially,
    unlike ``np.sum``'s pairwise reduction), so the result is bit-identical
    to the scalar :func:`~repro.core.sample.time_weighted_average`.
    """
    values = np.asarray(values, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if len(values) != len(times):
        raise DataError(
            f"value/time length mismatch: {len(values)} values, {len(times)} times"
        )
    if not len(values):
        raise DataError("cannot average an empty sequence")
    total_time = float(np.cumsum(times)[-1])
    if total_time <= 0:
        raise DataError("total sample time must be positive")
    return float(np.cumsum(values * times)[-1]) / total_time


def infinite_intensity_mask(metric_count: np.ndarray) -> np.ndarray:
    """True where the metric never fired (``M_x = 0`` → ``I_x = inf``)."""
    return np.asarray(metric_count) == 0.0
