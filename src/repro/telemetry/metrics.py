"""Metric primitives: counters, gauges, and sketch-backed histograms.

The registry is the fleet's metric namespace.  A :class:`FleetServer`
owns one registry; each :class:`~repro.serve.pool.DeviceWorker` records
into device-scoped instruments and, for the fleet-wide views, into
shared instruments handed down by the coordinator — exactly the shape
the old ``_fleet_*`` sink lists had, but constant-memory.  A series
recorded per device only (batch sizes, queue depths) gets its fleet
view by merging the devices' sketches.

:class:`Histogram` wraps a :class:`~repro.telemetry.sketch.QuantileSketch`
and deliberately keeps a list-like surface (``len``, truthiness,
equality against a plain sequence) because it replaces what used to be
``List[int]`` fields on :class:`~repro.serve.report.FleetReport` —
``report.batch_sizes == [2] * 3`` still reads (and passes) the same
way: equal iff a sketch fed exactly that multiset of values would be
state-identical.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Union

from .sketch import QuantileSketch

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = int(value)

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def merge(self, other: "Counter") -> "Counter":
        self.value += other.value
        return self

    def __int__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Counter):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """Last-observed value of a fluctuating quantity."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def set(self, value: float) -> None:
        self.value = float(value)

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class Histogram:
    """Streaming distribution summary backed by a quantile sketch.

    O(1) memory in the number of observations, mergeable across devices,
    and exact for ``count`` / ``sum`` / ``mean`` / ``min`` / ``max`` —
    only interior percentiles carry the sketch's relative-error bound.
    """

    __slots__ = ("sketch",)

    def __init__(self, alpha: float = 0.005, sketch: Optional[QuantileSketch] = None):
        self.sketch = sketch if sketch is not None else QuantileSketch(alpha=alpha)

    @classmethod
    def of(cls, values: Iterable[float], alpha: float = 0.005) -> "Histogram":
        hist = cls(alpha=alpha)
        for value in values:
            hist.record(value)
        return hist

    # ------------------------------------------------------------------
    def record(self, value: float) -> None:
        self.sketch.add(value)

    def merge(self, other: "Histogram") -> "Histogram":
        self.sketch.merge(other.sketch)
        return self

    def percentile(self, q: float) -> float:
        return self.sketch.percentile(q)

    @property
    def count(self) -> int:
        return self.sketch.count

    @property
    def sum(self) -> float:
        return self.sketch.sum

    @property
    def mean(self) -> float:
        return self.sketch.mean

    @property
    def min(self) -> float:
        return self.sketch.min if self.sketch.min is not None else 0.0

    @property
    def max(self) -> float:
        return self.sketch.max if self.sketch.max is not None else 0.0

    # ------------------------------------------------------------------
    # list-compatible surface (this type replaced List[int] report fields)
    def __len__(self) -> int:
        return self.sketch.count

    def __bool__(self) -> bool:
        return self.sketch.count > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Histogram):
            return self.sketch == other.sketch
        if isinstance(other, (list, tuple)):
            return self.sketch == QuantileSketch.of(
                other, alpha=self.sketch.alpha, max_buckets=self.sketch.max_buckets
            )
        return NotImplemented

    def __repr__(self) -> str:
        if not self:
            return "Histogram(empty)"
        return (
            f"Histogram(count={self.count}, mean={self.mean:.3f}, "
            f"p50={self.percentile(50):.3f}, max={self.max:.3f})"
        )

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }


MetricValue = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metric namespace with get-or-create instrument accessors.

    Accessors are idempotent — asking twice for ``histogram("latency_ms")``
    returns the same instrument — so producers in different layers can
    share one series without threading object references around.
    ``merge`` folds another registry in name-wise (device registries roll
    up into the fleet registry), creating missing instruments as needed.
    """

    def __init__(self):
        self._metrics: "Dict[str, MetricValue]" = {}

    def _get(self, name: str, kind: type, factory) -> MetricValue:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str, alpha: float = 0.005) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(alpha=alpha))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> Sequence[str]:
        return sorted(self._metrics)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        for name, metric in other._metrics.items():
            if isinstance(metric, Counter):
                self.counter(name).merge(metric)
            elif isinstance(metric, Histogram):
                self.histogram(name).merge(metric)
            else:
                self.gauge(name).set(metric.value)
        return self

    def snapshot(self) -> Dict[str, object]:
        """Flat, JSON-friendly view of every instrument."""
        out: Dict[str, object] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out[name] = metric.value
            elif isinstance(metric, Gauge):
                out[name] = metric.value
            else:
                out[name] = metric.summary()
        return out
