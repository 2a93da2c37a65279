"""Drift detection and the refute-and-refine degradation ladder.

A fitted roofline is a falsifiable claim: *no sample of this metric
exceeds this bound*.  A live stream can refute it — the workload changed,
the machine changed, the original training window under-sampled a phase.
This module decides, per sealed window and per metric, how far down the
repair ladder to go:

1. **absorb** — a handful of violations within the policy thresholds;
   the incremental update folds them in and the bound rises to cover
   them.  Business as usual for a live stream.
2. **refit** — enough samples violate the bound that the roofline is
   *refuted*.  The metric is quarantined and refit from recent windows
   only (the contradicted history is discarded as unrepresentative).
3. **stale** — a metric keeps getting refuted past ``max_refits``, or
   most checked metrics are refuted in one window.  Incremental repair
   has lost; the stream marks the model stale and a batch retrain is the
   only honest way forward.

The per-metric decisions are :class:`DriftEvent` values, recorded on
the stream's own :class:`DriftReport` and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ensemble import SpireModel
from repro.core.phases import PhaseProfile
from repro.core.sample import SampleSet
from repro.core.sanitize import QualityReport
from repro.errors import ConfigError
from repro.fastpath import scalar_fallback_enabled

__all__ = [
    "DriftAssessment",
    "DriftEvent",
    "DriftMonitor",
    "DriftPolicy",
    "DriftReport",
]

#: Assessment verdicts, in escalation order.
CLEAN = "clean"
ABSORBED = "absorbed"
REFUTED = "refuted"


@dataclass(frozen=True, slots=True)
class DriftPolicy:
    """Knobs of the drift ladder (see :mod:`docs/streaming`)."""

    tolerance: float = 1e-6        # relative slack above the bound
    min_violations: int = 3        # fewer violators than this always absorb
    refute_fraction: float = 0.25  # violating fraction that refutes a metric
    max_refits: int = 3            # targeted refits before a metric is stale
    stale_fraction: float = 0.5    # refuted-metric fraction that stales a window
    refit_history: int = 4         # recent windows a targeted refit trains on

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise ConfigError("drift tolerance cannot be negative")
        if self.min_violations < 1:
            raise ConfigError("min_violations must be at least 1")
        if not 0.0 < self.refute_fraction <= 1.0:
            raise ConfigError("refute_fraction must be in (0, 1]")
        if self.max_refits < 1:
            raise ConfigError("max_refits must be at least 1")
        if not 0.0 < self.stale_fraction <= 1.0:
            raise ConfigError("stale_fraction must be in (0, 1]")
        if self.refit_history < 1:
            raise ConfigError("refit_history must be at least 1")


@dataclass(frozen=True, slots=True)
class DriftEvent:
    """One drift-ladder decision for a metric roofline.

    ``action`` is the degradation rung taken: ``"absorbed"`` (violations
    within tolerance, folded into the incremental update), ``"refit"``
    (the metric was refuted, quarantined and refit from recent windows),
    ``"quarantined"`` (refuted but too little recent data to refit — the
    metric is excluded from the serving model), ``"stalled"`` (a window
    sealed with no usable samples), or ``"stale"`` (the drift monitor gave
    up on incremental repair; a batch retrain is required).
    """

    metric: str
    window: int          # 0-based sealed-window index at which it fired
    action: str
    violations: int = 0
    samples: int = 0
    worst_excess: float = 0.0  # largest throughput overshoot past the bound
    detail: str = ""


@dataclass(frozen=True, slots=True)
class DriftAssessment:
    """One metric's window verdict against its serving roofline."""

    verdict: str          # CLEAN | ABSORBED | REFUTED
    violations: int
    samples: int
    worst_excess: float   # largest throughput overshoot past the bound


class DriftMonitor:
    """Stateful referee of the drift ladder.

    One monitor serves one stream: it scores each window's samples
    against the serving rooflines (:meth:`assess`), counts targeted
    refits per metric (:meth:`note_refit`) and decides when a metric or
    a whole window has escalated to stale.
    """

    def __init__(self, policy: DriftPolicy | None = None) -> None:
        self.policy = policy or DriftPolicy()
        self._refits: dict[str, int] = {}
        # Clean verdicts by sample count: most verdicts are clean, and a
        # frozen verdict can be shared.
        self._clean: dict[int, DriftAssessment] = {}

    @property
    def refit_counts(self) -> dict[str, int]:
        return dict(self._refits)

    def assess(
        self,
        model: SpireModel,
        window: SampleSet,
        bounds: np.ndarray | None = None,
    ) -> dict[str, DriftAssessment]:
        """Score one sealed window against the serving model.

        Returns one verdict per window metric the model covers.  Every
        row is bounded in one :meth:`PackedPiecewise.evaluate
        <repro.geometry.piecewise.PackedPiecewise.evaluate>` over the
        model's packed table; per-metric counts and worst excesses are
        order-free reductions, so each verdict is what that metric's
        rows alone would give.  ``bounds``, one float per window row,
        receives each covered row's bound, for the window's phase
        estimate to reuse; other rows are left as they are.
        ``SPIRE_SCALAR_FALLBACK`` bounds each sample with
        :meth:`MetricRoofline.estimate` instead and writes no
        ``bounds``.
        """
        if scalar_fallback_enabled():
            return self._assess_scalar(model, window)
        array = window.columns()
        names = array.metric_names
        index, table = model.packed_rooflines()
        function = np.asarray(
            [index.get(name, -1) for name in names], dtype=np.int64
        )
        covered = function[array.metric_ids] >= 0
        ids = array.metric_ids[covered]
        bound = table.evaluate(function[ids], array.intensity[covered])
        if bounds is not None:
            bounds[covered] = bound
        slack = self.policy.tolerance * np.maximum(1.0, np.abs(bound))
        excess = array.throughput[covered] - bound
        violating = excess > slack
        samples = np.bincount(ids, minlength=len(names))
        violations = np.bincount(ids[violating], minlength=len(names))
        worst = np.zeros(len(names), dtype=np.float64)
        np.maximum.at(worst, ids[violating], excess[violating])
        tallies = zip(samples.tolist(), violations.tolist(), worst.tolist())
        return {
            names[ident]: self._verdict(*tally)
            for ident, tally in enumerate(tallies)
            if tally[0]
        }

    def _assess_scalar(
        self, model: SpireModel, window: SampleSet
    ) -> dict[str, DriftAssessment]:
        """The retained scalar reference behind :meth:`assess`."""
        tallies: dict[str, list] = {}
        for sample in window:
            if sample.metric not in model:
                continue
            bound = model.roofline(sample.metric).estimate(sample.intensity)
            excess = sample.throughput - bound
            tally = tallies.setdefault(sample.metric, [0, 0, 0.0])
            tally[0] += 1
            if excess > self.policy.tolerance * max(1.0, abs(bound)):
                tally[1] += 1
                tally[2] = max(tally[2], excess)
        return {
            metric: self._verdict(*tally) for metric, tally in tallies.items()
        }

    def _verdict(
        self, samples: int, violations: int, worst: float
    ) -> DriftAssessment:
        if not violations:
            clean = self._clean.get(samples)
            if clean is None:
                clean = self._clean[samples] = DriftAssessment(
                    CLEAN, 0, samples, 0.0
                )
            return clean
        refuted = (
            violations >= self.policy.min_violations
            and violations >= self.policy.refute_fraction * samples
        )
        return DriftAssessment(
            REFUTED if refuted else ABSORBED, violations, samples, worst
        )

    def note_refit(self, metric: str) -> bool:
        """Record one targeted refit; True when the metric is now stale."""
        count = self._refits.get(metric, 0) + 1
        self._refits[metric] = count
        return count > self.policy.max_refits

    def window_stale(self, checked: int, refuted: int) -> bool:
        """Whether one window refuted enough metrics to stale the model."""
        if not checked or not refuted:
            return False
        return refuted > self.policy.stale_fraction * checked


@dataclass
class DriftReport:
    """What the drift ladder did over the life of a stream."""

    windows: int = 0
    events: list[DriftEvent] = field(default_factory=list)
    refit_counts: dict[str, int] = field(default_factory=dict)
    quarantined_metrics: list[str] = field(default_factory=list)
    stale: bool = False
    stale_reason: str = ""
    quality: QualityReport = field(default_factory=QualityReport)
    phases: PhaseProfile | None = None

    @property
    def refuted_metrics(self) -> list[str]:
        return sorted(
            {e.metric for e in self.events if e.action != "absorbed"}
        )

    @property
    def ok(self) -> bool:
        """True when the stream never went past absorption."""
        return not (self.stale or self.refuted_metrics)

    def to_dict(self) -> dict:
        return {
            "windows": self.windows,
            "stale": self.stale,
            "stale_reason": self.stale_reason,
            "refit_counts": dict(sorted(self.refit_counts.items())),
            "quarantined_metrics": list(self.quarantined_metrics),
            "refuted_metrics": self.refuted_metrics,
            "events": [
                {
                    "metric": e.metric,
                    "window": e.window,
                    "action": e.action,
                    "violations": e.violations,
                    "samples": e.samples,
                    "worst_excess": e.worst_excess,
                    "detail": e.detail,
                }
                for e in self.events
            ],
            "quality": self.quality.summary(),
        }

    def render(self) -> str:
        state = "STALE" if self.stale else ("drifted" if not self.ok else "ok")
        lines = [
            f"stream: {self.windows} window(s), {len(self.events)} drift "
            f"event(s), model {state}"
        ]
        if self.stale_reason:
            lines.append(f"  stale: {self.stale_reason}")
        for event in self.events:
            stats = (
                f"{event.violations}/{event.samples} violation(s)"
                if event.samples
                else "no samples"
            )
            detail = f" ({event.detail})" if event.detail else ""
            excess = (
                f", worst excess {event.worst_excess:.3g}"
                if event.worst_excess
                else ""
            )
            lines.append(
                f"  window {event.window} [{event.metric}]: {event.action}, "
                f"{stats}{excess}{detail}"
            )
        if self.refit_counts:
            refit_bits = ", ".join(
                f"{metric}: {count}"
                for metric, count in sorted(self.refit_counts.items())
            )
            lines.append(f"  targeted refits — {refit_bits}")
        if self.quarantined_metrics:
            lines.append(
                "  quarantined: " + ", ".join(self.quarantined_metrics)
            )
        if not self.quality.ok:
            lines.append("  data quality: " + self.quality.summary())
        if self.phases is not None and self.phases.phases:
            changes = self.phases.transitions()
            for index, previous, current in changes:
                lines.append(
                    f"  phase shift at window {index}: "
                    f"{previous} -> {current}"
                )
            if not changes:
                lines.append(
                    "  phases: stable "
                    f"(limited by {self.phases.phases[-1].limiting_metric})"
                )
        return "\n".join(lines)

