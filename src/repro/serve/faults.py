"""Deterministic fault injection for the device pool.

Real fleets run on preemptible capacity: devices die mid-run, stall on
thermal events, degrade under co-tenancy, and new capacity joins a
serving fleet that is already live.  This module describes those events
as *data* — a :class:`FaultSchedule` of timestamped :class:`FaultEvent`
records — which the coordinator drains through its event loop in global
time order, exactly like arrivals.  Because the schedule is plain data
(parsed from a spec string or generated from a seed), a faulted run is
replayable bitwise: the same schedule against the same fleet reproduces
the same crashes, the same recoveries and the same served outputs.

Event kinds
-----------
``crash``
    Device ``device`` dies at ``time_ms``.  Batches already committed on
    the simulated clock complete (the discrete-event simulation commits
    a batch atomically at launch), but the device never launches again;
    the coordinator's missed-completion watchdog detects the death at
    ``max(time_ms, device_free_ms)`` — the instant the device fails to
    pick up its next launch — and recovers its sessions from their
    checkpoints (see :mod:`repro.serve.checkpoint`).
``stall``
    Device ``device`` is unavailable for ``duration_ms`` starting at
    ``time_ms`` (thermal throttle, GC pause): its clock is pushed to at
    least ``time_ms + duration_ms`` and its queue builds in the
    meantime.
``slow``
    Device ``device``'s service times are multiplied by ``factor`` from
    ``time_ms`` on (sustained degradation).  Admission, placement and
    migration read every price from the device's pricing, so they see
    the new cost.
``join``
    A new device with power-mode ``profile`` joins the pool at
    ``time_ms``, its slack prior seeded from the roofline model so the
    migration planner can rebalance onto it immediately.

Spec strings (the ``--faults`` CLI flag) are comma-separated events::

    crash@400:0            device 0 dies at t=400ms
    stall@600:1:50         device 1 stalls for 50ms at t=600ms
    slow@600:1:1.5         device 1 slows by 1.5x from t=600ms
    join@800:orin-30w      an orin-30w device joins at t=800ms
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from ..utils.rng import make_rng

FAULT_KINDS = ("crash", "stall", "slow", "join")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` at ``time_ms`` on ``device``.

    ``device`` is the pool index (crash/stall/slow; unused for join),
    ``duration_ms`` the stall length, ``factor`` the slow-down
    multiplier, ``profile`` the joining device's power-mode name.
    """

    kind: str
    time_ms: float
    device: Optional[int] = None
    duration_ms: float = 0.0
    factor: float = 1.0
    profile: Optional[str] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.time_ms < 0:
            raise ValueError(f"time_ms must be >= 0, got {self.time_ms}")
        if self.kind in ("crash", "stall", "slow"):
            if self.device is None or self.device < 0:
                raise ValueError(
                    f"{self.kind} fault needs a non-negative device index"
                )
        if self.kind == "stall" and self.duration_ms <= 0:
            raise ValueError(
                f"stall needs duration_ms > 0, got {self.duration_ms}"
            )
        if self.kind == "slow" and self.factor <= 0:
            raise ValueError(f"slow needs factor > 0, got {self.factor}")
        if self.kind == "join" and not self.profile:
            raise ValueError("join needs a device profile name")

    def as_row(self) -> dict:
        """Report/trace-friendly dict of the event."""
        row = {"kind": self.kind, "time_ms": self.time_ms}
        if self.device is not None:
            row["device"] = self.device
        if self.kind == "stall":
            row["duration_ms"] = self.duration_ms
        if self.kind == "slow":
            row["factor"] = self.factor
        if self.profile is not None:
            row["profile"] = self.profile
        return row


class FaultSchedule:
    """A time-ordered, replayable sequence of :class:`FaultEvent`.

    Plain data: iterating yields events in (time, insertion) order, so
    the coordinator can drain the schedule like a second arrival stream.
    Equality and ``spec()`` round-trips make schedules easy to archive
    next to the benchmark rows they shaped.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()):
        order = sorted(
            range(len(events)), key=lambda i: (events[i].time_ms, i)
        )
        self.events: List[FaultEvent] = [events[i] for i in order]

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultSchedule) and self.events == other.events

    @property
    def crash_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "crash")

    def spec(self) -> str:
        """The schedule re-rendered as a ``--faults`` spec string."""
        parts = []
        for e in self.events:
            if e.kind == "crash":
                parts.append(f"crash@{e.time_ms:g}:{e.device}")
            elif e.kind == "stall":
                parts.append(f"stall@{e.time_ms:g}:{e.device}:{e.duration_ms:g}")
            elif e.kind == "slow":
                parts.append(f"slow@{e.time_ms:g}:{e.device}:{e.factor:g}")
            else:
                parts.append(f"join@{e.time_ms:g}:{e.profile}")
        return ",".join(parts)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Parse a comma-separated fault spec (see module docstring)."""
        events: List[FaultEvent] = []
        for raw in spec.split(","):
            part = raw.strip()
            if not part:
                continue
            try:
                head, _, rest = part.partition("@")
                kind = head.strip()
                fields = rest.split(":")
                time_ms = float(fields[0])
                if kind == "crash":
                    events.append(
                        FaultEvent("crash", time_ms, device=int(fields[1]))
                    )
                elif kind == "stall":
                    events.append(
                        FaultEvent(
                            "stall",
                            time_ms,
                            device=int(fields[1]),
                            duration_ms=float(fields[2]),
                        )
                    )
                elif kind == "slow":
                    events.append(
                        FaultEvent(
                            "slow",
                            time_ms,
                            device=int(fields[1]),
                            factor=float(fields[2]),
                        )
                    )
                elif kind == "join":
                    events.append(
                        FaultEvent("join", time_ms, profile=fields[1])
                    )
                else:
                    raise ValueError(f"unknown fault kind {kind!r}")
            except (IndexError, ValueError) as exc:
                raise ValueError(
                    f"bad fault spec {part!r} (expected e.g. 'crash@400:0', "
                    f"'stall@600:1:50', 'slow@600:1:1.5', "
                    f"'join@800:orin-30w'): {exc}"
                ) from None
        return cls(events)

    @classmethod
    def random(
        cls,
        seed: int,
        horizon_ms: float,
        devices: int,
        crashes: int = 1,
        joins: int = 0,
        join_profile: str = "orin-30w",
        margin: float = 0.2,
    ) -> "FaultSchedule":
        """A seeded schedule of ``crashes`` crashes and ``joins`` joins.

        Event times are drawn uniformly from the middle
        ``(margin, 1 - margin)`` band of ``horizon_ms`` (faults at the
        very start or end of a run exercise nothing), crash devices
        uniformly from the pool.  The same ``seed`` always yields the
        same schedule — the replayability contract is seeded data, not
        seeded execution.
        """
        if devices < 1:
            raise ValueError(f"devices must be >= 1, got {devices}")
        if not 0.0 <= margin < 0.5:
            raise ValueError(f"margin must be in [0, 0.5), got {margin}")
        rng = make_rng(seed)
        lo, hi = margin * horizon_ms, (1.0 - margin) * horizon_ms
        events: List[FaultEvent] = []
        for _ in range(crashes):
            events.append(
                FaultEvent(
                    "crash",
                    float(rng.uniform(lo, hi)),
                    device=int(rng.integers(0, devices)),
                )
            )
        for _ in range(joins):
            events.append(
                FaultEvent(
                    "join", float(rng.uniform(lo, hi)), profile=join_profile
                )
            )
        return cls(events)
