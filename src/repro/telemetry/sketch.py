"""Streaming quantile sketches and the shared exact-percentile helper.

The fleet direction in ROADMAP (100s-1000s of streams) dies on per-frame
Python lists: a million-frame run must not hold a million floats per
metric just to answer ``p95``.  :class:`QuantileSketch` is a
DDSketch-style log-bucketed sketch — O(1) memory in the stream length,
a guaranteed *relative* accuracy bound ``alpha`` on every reported
quantile, and mergeable across devices by plain bucket-count addition
(merge is associative and commutative, so device-local sketches roll up
into a fleet sketch in any order).

Values are keyed by ``ceil(log_gamma(|v|))`` with
``gamma = (1 + alpha) / (1 - alpha)``; a bucket's representative value
``2 * gamma^k / (gamma + 1)`` is within ``alpha`` relative error of
anything mapped into it.  Deadline slack can be negative, so the sketch
keeps separate positive and negative bucket stores plus an exact zero
count.  Count, sum, min and max are tracked exactly, so means and the
q=0 / q=100 endpoints have no sketch error at all.

:func:`exact_percentile` is the one shared exact implementation behind
every list-backed percentile left in the codebase (per-stream reports
keep their exact per-frame records; only the unbounded fleet/device
aggregations moved to sketches).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["QuantileSketch", "exact_percentile"]


def exact_percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` in [0, 100] of a series; 0.0 when empty.

    Empty windows are a normal state, not an error — a stream that never
    received an adaptation grant, a fleet with no fused steps — so every
    percentile family routes through here (or through
    :meth:`QuantileSketch.percentile`, which mirrors the convention) and
    reports 0.0 instead of raising.  Accepts any sequence, including
    numpy arrays (``not array`` is ambiguous, hence the explicit length
    check).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(values) == 0:
        return 0.0
    return float(np.percentile(values, q))


class QuantileSketch:
    """Mergeable streaming quantile sketch with relative-error bound.

    >>> s = QuantileSketch()
    >>> for v in range(1, 101):
    ...     s.add(float(v))
    >>> abs(s.percentile(50) - 50.5) / 50.5 < s.alpha
    True
    """

    # Bucket keys with |v| below this map to the exact-zero bucket; the
    # serving stack measures milliseconds, so anything under a femtosecond
    # is noise.
    _MIN_INDEXABLE = 1e-12

    def __init__(self, alpha: float = 0.005, max_buckets: int = 2048):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if max_buckets < 2:
            raise ValueError("max_buckets must be >= 2")
        self.alpha = float(alpha)
        self.max_buckets = int(max_buckets)
        gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(gamma)
        self._gamma = gamma
        # sparse bucket stores: key -> count
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zero = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # ------------------------------------------------------------------
    @classmethod
    def of(
        cls, values: Iterable[float], alpha: float = 0.005, max_buckets: int = 2048
    ) -> "QuantileSketch":
        sketch = cls(alpha=alpha, max_buckets=max_buckets)
        sketch.extend(values)
        return sketch

    def _key(self, magnitude: float) -> int:
        return int(math.ceil(math.log(magnitude) / self._log_gamma))

    def _value(self, key: int) -> float:
        """Representative value of bucket ``key`` (midpoint, rel-error <= alpha)."""
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def add(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot add NaN to a quantile sketch")
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        magnitude = abs(value)
        if magnitude < self._MIN_INDEXABLE:
            self._zero += 1
            return
        store = self._pos if value > 0 else self._neg
        key = self._key(magnitude)
        store[key] = store.get(key, 0) + 1
        if len(store) > self.max_buckets:
            self._collapse(store)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def _collapse(self, store: Dict[int, int]) -> None:
        """Fold the smallest-magnitude bucket into its neighbour.

        Standard DDSketch overflow policy: accuracy degrades only at the
        extreme low-magnitude tail, the keys nobody gates on.
        """
        keys = sorted(store)
        lowest, second = keys[0], keys[1]
        store[second] += store.pop(lowest)

    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch in place (bucket-count addition)."""
        if not isinstance(other, QuantileSketch):
            raise TypeError(f"cannot merge {type(other).__name__} into a sketch")
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with different alpha "
                f"({self.alpha} vs {other.alpha})"
            )
        for key, n in other._pos.items():
            self._pos[key] = self._pos.get(key, 0) + n
        for key, n in other._neg.items():
            self._neg[key] = self._neg.get(key, 0) + n
        while len(self._pos) > self.max_buckets:
            self._collapse(self._pos)
        while len(self._neg) > self.max_buckets:
            self._collapse(self._neg)
        self._zero += other._zero
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """Quantile ``q`` in [0, 100]; 0.0 when empty (same contract as
        :func:`exact_percentile`)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        assert self.min is not None and self.max is not None
        if q == 0.0:
            return self.min
        if q == 100.0:
            return self.max
        # rank in [0, count-1]; walk buckets from most negative upward
        rank = q / 100.0 * (self.count - 1)
        seen = 0
        for key in sorted(self._neg, reverse=True):
            seen += self._neg[key]
            if seen > rank:
                return self._clamp(-self._value(key))
        if self._zero:
            seen += self._zero
            if seen > rank:
                return self._clamp(0.0)
        for key in sorted(self._pos):
            seen += self._pos[key]
            if seen > rank:
                return self._clamp(self._value(key))
        return self.max

    def _clamp(self, value: float) -> float:
        assert self.min is not None and self.max is not None
        return min(max(value, self.min), self.max)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def num_buckets(self) -> int:
        """Occupied buckets — the sketch's actual memory footprint."""
        return len(self._pos) + len(self._neg) + (1 if self._zero else 0)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __eq__(self, other: object) -> bool:
        """Full-state equality: two sketches fed the same multiset of
        values (in any order) compare equal — the property the serving
        parity tests lean on."""
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (
            abs(self.alpha - other.alpha) < 1e-12
            and self.count == other.count
            and self._zero == other._zero
            and self.min == other.min
            and self.max == other.max
            and abs(self.sum - other.sum) <= 1e-9 * max(1.0, abs(self.sum))
            and self._pos == other._pos
            and self._neg == other._neg
        )

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(count={self.count}, alpha={self.alpha}, "
            f"buckets={self.num_buckets})"
        )

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """JSON-serializable snapshot (bucket keys stringified)."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "zero": self._zero,
            "pos": {str(k): v for k, v in self._pos.items()},
            "neg": {str(k): v for k, v in self._neg.items()},
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "QuantileSketch":
        sketch = cls(alpha=float(state["alpha"]))
        sketch.count = int(state["count"])
        sketch.sum = float(state["sum"])
        sketch.min = None if state["min"] is None else float(state["min"])
        sketch.max = None if state["max"] is None else float(state["max"])
        sketch._zero = int(state["zero"])
        sketch._pos = {int(k): int(v) for k, v in dict(state["pos"]).items()}
        sketch._neg = {int(k): int(v) for k, v in dict(state["neg"]).items()}
        return sketch
