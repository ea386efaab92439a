"""Wall-clock timing helpers for the real-time pipeline and benchmarks."""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..telemetry.sketch import QuantileSketch


class Timer:
    """Context-manager stopwatch accumulating named intervals.

    The raw per-interval records are kept (exact totals, last-interval
    reads); percentiles come from a streaming
    :class:`~repro.telemetry.sketch.QuantileSketch` per name, so timers
    from different workers merge without sorting concatenated lists.  A
    sketch is brought up to date with its records when it is read, not
    on every interval: recording one is a list append.

    >>> t = Timer()
    >>> with t.measure("inference"):
    ...     _ = sum(range(1000))
    >>> t.total("inference") >= 0.0
    True
    """

    def __init__(self):
        self.records: Dict[str, List[float]] = {}
        self._sketches: Dict[str, QuantileSketch] = {}

    def measure(self, name: str) -> "_Interval":
        return _Interval(self, name)

    def add(self, name: str, seconds: float) -> None:
        series = self.records.get(name)
        if series is None:
            series = self.records[name] = []
        series.append(seconds)

    def _sketch(self, name: str) -> Optional[QuantileSketch]:
        """``name``'s sketch with every record so far in it, in the order
        they were taken; ``None`` for a name never measured."""
        series = self.records.get(name)
        if series is None:
            return None
        sketch = self._sketches.get(name)
        if sketch is None:
            sketch = self._sketches[name] = QuantileSketch()
        if sketch.count < len(series):
            sketch.extend(series[sketch.count:])
        return sketch

    def total(self, name: str) -> float:
        return sum(self.records.get(name, []))

    def mean(self, name: str) -> float:
        values = self.records.get(name, [])
        return sum(values) / len(values) if values else 0.0

    def count(self, name: str) -> int:
        return len(self.records.get(name, []))

    def percentile(self, name: str, q: float) -> float:
        """Percentile ``q`` in [0, 100] of an interval series (seconds);
        0.0 when the name was never measured."""
        sketch = self._sketch(name)
        if sketch is None:
            if not 0.0 <= q <= 100.0:
                raise ValueError(f"percentile must be in [0, 100], got {q}")
            return 0.0
        return sketch.percentile(q)

    def merge(self, other: "Timer") -> "Timer":
        """Fold another timer's intervals into this one, in place."""
        for name, values in other.records.items():
            theirs = other._sketch(name)
            mine = self._sketch(name)
            if mine is None:
                self.records[name] = []
                self._sketches[name] = QuantileSketch.of(
                    [], alpha=theirs.alpha
                ).merge(theirs)
            else:
                mine.merge(theirs)
            self.records[name].extend(values)
        return self

    def reset(self) -> None:
        self.records.clear()
        self._sketches.clear()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name {total, mean, count} summary."""
        return {
            name: {
                "total": self.total(name),
                "mean": self.mean(name),
                "count": float(self.count(name)),
            }
            for name in self.records
        }


class _Interval:
    def __init__(self, timer: Timer, name: str):
        self.timer = timer
        self.name = name
        self._start: Optional[float] = None

    def __enter__(self) -> "_Interval":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.timer.add(self.name, time.perf_counter() - self._start)
