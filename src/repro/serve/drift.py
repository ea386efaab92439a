"""Drift-aware adaptation resets for fleet sessions.

LD-BN-ADAPT tracks *gradual* shift for free (every granted step replaces
BN statistics), but an *abrupt* domain change leaves a stream serving
with statistics adapted to a world that no longer exists — until the
admission/stride schedule happens to grant its next step.  This module
closes that gap:

* each session feeds a per-frame scalar statistic to a one-sided
  CUSUM (:class:`repro.metrics.DriftDetector`).  The default statistic
  is the frame's *signature distance* — Euclidean distance between the
  frame's per-channel moments and the moments of the regime currently
  adapted to (the very statistics LD-BN-ADAPT corrects, so a jump in
  them is exactly "BN stats are now wrong").  Mean prediction entropy
  is available as an alternative (``statistic="entropy"``) but is far
  noisier on small heads;
* an alarm triggers an immediate *adaptation reset*: the session's BN
  params/buffers are re-initialized from the source snapshot — or
  warm-started from a small bank of previously adapted states keyed by
  domain signature (:func:`repro.adapt.kmeans.frame_signature`), so a
  *recurring* shift (tunnel exits, fog lifting) restores the matching
  regime instantly instead of re-learning it;
* the adapter forgets its momentum and its pending-frame buffer
  (momentum from the dead regime must not steer the new one),
  the adaptation phase is re-aligned so the very next frame is due —
  recovery does not wait out the stride stagger — and a short
  every-frame adaptation burst re-estimates the new regime's BN
  statistics over several frames instead of trusting one;
* the hosting device bills an *unconditional durable checkpoint*, so a crash racing the reset
  can never roll the stream back to pre-reset state.

Everything here is per-session: resets write the session's
:class:`~repro.serve.streams.BNStateSnapshot` and its private adapter
state, never the shared model.  With no alarm firing, the detector is
pure observation — fleet outputs are bitwise identical to a run without
it (gated in ``tests/test_drift_serve.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..adapt.kmeans import frame_signature, nearest_signature, signature_distance
from ..metrics.entropy_stats import DriftConfig, DriftDetector

__all__ = [
    "DriftResetConfig",
    "SessionDriftState",
    "frame_signature",
]


@dataclass(frozen=True)
class DriftResetConfig:
    """Fleet-level policy for drift detection and adaptation resets.

    ``reset_mode``:

    * ``"source"`` — always re-initialize from the source snapshot;
    * ``"cluster"`` — bank the outgoing regime's adapted state keyed by
      its domain signature and warm-start from the nearest banked state
      when one lies within ``match_distance`` (else fall back to
      source).

    ``bank_size`` caps banked states per session (FIFO eviction; a new
    entry within ``match_distance`` of an existing one replaces it
    in place).

    ``statistic`` selects the scalar fed to the CUSUM:

    * ``"signature"`` — distance between the frame's per-channel
      moments and the current regime's (sharp, model-independent);
    * ``"entropy"`` — the frame's mean prediction entropy (the paper's
      adaptation objective, but noisy on small heads).
    """

    # min_std floors the z-score denominator at the signature statistic's
    # natural in-regime scale: a lucky low-variance warmup must not turn
    # ordinary per-frame rendering noise into alarms
    detector: DriftConfig = field(
        default_factory=lambda: DriftConfig(min_std=0.02)
    )
    statistic: str = "signature"
    reset_mode: str = "cluster"
    bank_size: int = 4
    match_distance: float = 0.25
    # frames after a reset during which the session adapts on *every*
    # frame: single-frame BN statistics are high-variance, and a burst
    # keeps one unlucky estimate from serving a whole stride
    burst: int = 4

    def __post_init__(self) -> None:
        if self.burst < 0:
            raise ValueError("burst must be >= 0")
        if self.statistic not in ("signature", "entropy"):
            raise ValueError(
                f"statistic must be 'signature' or 'entropy', "
                f"got {self.statistic!r}"
            )
        if self.reset_mode not in ("source", "cluster"):
            raise ValueError(
                f"reset_mode must be 'source' or 'cluster', "
                f"got {self.reset_mode!r}"
            )
        if self.bank_size < 0:
            raise ValueError("bank_size must be >= 0")
        if self.match_distance <= 0:
            raise ValueError("match_distance must be > 0")


BNState = Tuple[np.ndarray, np.ndarray]  # copies of a BN block + counts


class SessionDriftState:
    """Per-session drift detector + warm-start bank + reset mechanics.

    Constructed at stream registration, when the session's snapshot
    still holds the pristine source state — that capture *is* the reset
    target for ``reset_mode="source"``.
    """

    def __init__(self, config: DriftResetConfig, session):
        self.config = config
        self.detector = DriftDetector(config.detector)
        self.source = tuple(a.copy() for a in session.bn_state.read())
        # (signature, captured BN state) per previously-adapted regime
        self.bank: List[Tuple[np.ndarray, BNState]] = []
        self.events = 0  # alarms fired
        self.resets = 0  # resets applied
        self.cluster_restores = 0  # resets served from the bank
        # signature of the regime currently adapted to, frozen at the
        # end of each detector warmup (i.e. before any shift it flags)
        self.regime_sig: Optional[np.ndarray] = None
        self._sig_sum: Optional[np.ndarray] = None
        self._sig_count = 0

    def observe(self, entropy: float, image: np.ndarray) -> bool:
        """Feed one served frame; returns True when drift is detected.

        The caller (the device worker) applies :meth:`reset` *after*
        the batch finishes so detection never perturbs in-flight fused
        adaptation groups.
        """
        sig = frame_signature(image)
        if self.config.statistic == "entropy":
            stat = float(entropy)
        elif self.regime_sig is not None:
            stat = signature_distance(sig, self.regime_sig)
        elif self._sig_count:
            stat = signature_distance(sig, self._sig_sum / self._sig_count)
        else:
            stat = 0.0
        fired = self.detector.update(stat)
        if fired:
            self.events += 1
            return True
        if self.regime_sig is None:
            self._sig_sum = sig if self._sig_sum is None else self._sig_sum + sig
            self._sig_count += 1
            if self.detector.warmed:
                self.regime_sig = self._sig_sum / self._sig_count
        return False

    def _remember(self, signature: np.ndarray, state: BNState) -> None:
        if self.config.bank_size == 0:
            return
        index, dist = nearest_signature(
            signature, [sig for sig, _ in self.bank]
        )
        if index >= 0 and dist <= self.config.match_distance:
            self.bank[index] = (signature, state)  # refresh the regime
            return
        if len(self.bank) >= self.config.bank_size:
            self.bank.pop(0)
        self.bank.append((signature, state))

    def reset(self, session, image: np.ndarray) -> str:
        """Apply the adaptation reset; returns ``"cluster"`` or
        ``"source"`` depending on where the restored state came from."""
        restored = "source"
        if self.config.reset_mode == "cluster":
            # look the incoming frame up against the bank as it existed
            # *before* this reset — the outgoing regime (banked below)
            # must not warm-start the very shift that evicted it
            sig_now = frame_signature(image)
            index, dist = nearest_signature(
                sig_now, [sig for sig, _ in self.bank]
            )
            hit = (
                self.bank[index][1]
                if index >= 0 and dist <= self.config.match_distance
                else None
            )
            if self.regime_sig is not None:
                # bank the outgoing regime before overwriting it
                self._remember(self.regime_sig, tuple(
                    a.copy() for a in session.bn_state.read()))
            if hit is not None:
                session.bn_state.write(*hit)
                restored = "cluster"
                self.cluster_restores += 1
        if restored == "source":
            session.bn_state.write(*self.source)
        # momentum/buffered frames from the dead regime must not steer
        # the new one
        session.adapter.forget_momentum()
        session.adapter.clear_pending()
        # re-align the stagger so the next frame is due for adaptation,
        # and open a short every-frame burst: recovery must not wait out
        # the stride, nor ride one frame's noisy statistics estimate
        session.adapt_phase = session.frames_seen % session.adapt_stride
        session.adapt_burst_until = session.frames_seen + self.config.burst
        # fresh signature warmup for the incoming regime (the detector
        # already recalibrated itself when the alarm fired)
        self.regime_sig = None
        self._sig_sum = None
        self._sig_count = 0
        self.resets += 1
        return restored

    # ------------------------------------------------------------------
    # checkpoint round-trip (arrays + meta merged into the session's
    # checkpoint by serve.checkpoint)
    # ------------------------------------------------------------------
    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The live arrays, uncopied — the checkpoint packer copies once."""
        arrays: Dict[str, np.ndarray] = {
            "drift.detector": self.detector.state_vector()
        }
        if self._sig_sum is not None:
            arrays["drift.sig_sum"] = self._sig_sum
        if self.regime_sig is not None:
            arrays["drift.regime_sig"] = self.regime_sig
        for b, (sig, (state, counts)) in enumerate(self.bank):
            arrays[f"drift.bank.{b}.sig"] = sig
            arrays[f"drift.bank.{b}.state"] = state
            arrays[f"drift.bank.{b}.counts"] = counts
        return arrays

    def state_meta(self) -> Dict[str, int]:
        return {
            "events": self.events,
            "resets": self.resets,
            "cluster_restores": self.cluster_restores,
            "sig_count": self._sig_count,
            "bank": len(self.bank),
        }

    def load_state(
        self, arrays: Dict[str, np.ndarray], meta: Dict[str, int]
    ) -> None:
        self.detector.load_state_vector(arrays["drift.detector"])
        self.events = int(meta["events"])
        self.resets = int(meta["resets"])
        self.cluster_restores = int(meta["cluster_restores"])
        self._sig_count = int(meta["sig_count"])
        self._sig_sum = (
            np.array(arrays["drift.sig_sum"])
            if "drift.sig_sum" in arrays
            else None
        )
        self.regime_sig = (
            np.array(arrays["drift.regime_sig"])
            if "drift.regime_sig" in arrays
            else None
        )
        self.bank = []
        for b in range(int(meta["bank"])):
            sig, state, counts = (
                np.array(arrays[f"drift.bank.{b}.{key}"])
                for key in ("sig", "state", "counts")
            )
            self.bank.append((sig, (state, counts)))
