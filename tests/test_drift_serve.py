"""Drift-aware adaptation resets in the fleet serving path.

The acceptance claims under test:

* **inertness** — a fleet run with drift detection enabled but no drift
  (the stationary control scenario) is *bitwise identical* to a run
  without the detector: observation feeds on the forward pass the batch
  already paid for and never perturbs serving;
* an abrupt scenario shift raises an alarm and triggers an adaptation
  reset (BN re-init, momentum forgotten, stagger re-aligned, burst
  opened), and a *recurring* regime is warm-started from the cluster
  bank rather than from source;
* the per-session drift state (detector vector, regime signature,
  warm-start bank, counters) round-trips bitwise through the session
  checkpoint store;
* **reset/crash race regression** — a drift reset bills an
  unconditional durable checkpoint, so a crash racing the reset can
  never restore pre-reset BN state (or the pre-reset adaptation
  schedule) from a stale archive.
"""

import numpy as np
import pytest

from repro.adapt import LDBNAdaptConfig, NoAdapt
from repro.data import ScenarioStream, get_scenario
from repro.experiments.bench_serve import per_stream_outputs
from repro.hw import ORIN_POWER_MODES
from repro.metrics import DriftConfig
from repro.models import get_config
from repro.serve import (
    CheckpointConfig,
    DriftResetConfig,
    FleetConfig,
    FleetServer,
    SessionDriftState,
    capture_session_state,
)

DEVICE = ORIN_POWER_MODES["orin-60w"]
SPEC = get_config("paper-r18").to_spec()
RENDER = get_config("tiny-r18", num_lanes=2)
STRIDE = 12


def _scenario_frames(name, ticks, stream_id="s0", seed=77):
    return (
        ScenarioStream(
            get_scenario(name), RENDER, seed=seed,
            stream_id=stream_id, horizon=ticks,
        )
        .take(ticks)
        .samples
    )


def _serve(model, pristine, name, ticks, drift, streams=1, adapter=None,
           **cfg):
    model.load_state_dict(pristine)
    server = FleetServer(
        model,
        FleetConfig(
            latency_model="orin", adapt_stride=STRIDE, drift=drift, **cfg
        ),
        device=DEVICE,
        spec=SPEC,
    )
    for i in range(streams):
        frames = _scenario_frames(name, ticks, stream_id=f"s{i}")
        server.add_stream(f"s{i}", iter(frames), **(
            {"adapter": adapter(model)} if adapter
            else {"adapter_config": LDBNAdaptConfig(lr=1e-3)}))
    return server.run(ticks), server


class TestDriftResetConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriftResetConfig(statistic="vibes")
        with pytest.raises(ValueError):
            DriftResetConfig(reset_mode="hope")
        with pytest.raises(ValueError):
            DriftResetConfig(bank_size=-1)
        with pytest.raises(ValueError):
            DriftResetConfig(match_distance=0.0)
        with pytest.raises(ValueError):
            DriftResetConfig(burst=-1)


class TestInertness:
    def test_enabled_detector_without_drift_is_bitwise_inert(
        self, trained_tiny_model
    ):
        pristine = trained_tiny_model.state_dict()
        without, _ = _serve(
            trained_tiny_model, pristine, "steady_highway", 16, drift=None
        )
        with_drift, _ = _serve(
            trained_tiny_model, pristine, "steady_highway", 16,
            drift=DriftResetConfig(),
        )
        assert with_drift.total_drift_events == 0
        assert with_drift.total_drift_resets == 0
        assert per_stream_outputs(with_drift) == per_stream_outputs(without)


class TestDriftResets:
    def test_abrupt_shift_fires_and_resets(self, trained_tiny_model):
        pristine = trained_tiny_model.state_dict()
        report, server = _serve(
            trained_tiny_model, pristine, "night_cut", 24,
            drift=DriftResetConfig(),
        )
        assert report.total_drift_events >= 1
        assert report.total_drift_resets == report.total_drift_events
        session = server.registry.get("s0")
        assert session.drift.events == report.drift_events["s0"] >= 1
        # the reset realigned the stagger and opened an adaptation burst
        assert session.adapt_burst_until > 18

    def test_a_no_adapt_stream_resets(self, trained_tiny_model):
        """A drift reset forgets the momentum of an adapter that has no
        optimizer as a no-op: the fleet serves on, the session's block
        back at its source state."""
        pristine = trained_tiny_model.state_dict()
        report, server = _serve(
            trained_tiny_model, pristine, "night_cut", 24,
            drift=DriftResetConfig(), adapter=NoAdapt,
        )
        assert report.total_drift_resets >= 1
        session = server.registry.get("s0")
        for got, want in zip(session.bn_state.read(), session.drift.source):
            assert got.tobytes() == want.tobytes()

    def test_recurring_regime_warm_starts_from_bank(self, trained_tiny_model):
        pristine = trained_tiny_model.state_dict()
        report, server = _serve(
            trained_tiny_model, pristine, "fog_bank", 44,
            drift=DriftResetConfig(),
        )
        # entering the fog resets from source; leaving it must restore
        # the banked highway regime instead of re-learning it
        assert report.total_drift_resets >= 2
        assert report.total_drift_cluster_restores >= 1
        assert server.registry.get("s0").drift.bank

    def test_burst_overrides_the_stride(self, trained_tiny_model):
        pristine = trained_tiny_model.state_dict()
        _, server = _serve(
            trained_tiny_model, pristine, "steady_highway", 8, drift=None
        )
        session = server.registry.get("s0")
        session.adapt_phase = (session.frames_seen + 1) % STRIDE  # not due
        assert not session.due_for_adaptation()
        session.adapt_burst_until = session.frames_seen + 3
        for offset in range(3):
            assert session.due_for_adaptation(offset)
        # one frame past the burst the stride rule is back in charge
        assert not session.due_for_adaptation(3)


class TestDriftCheckpointing:
    def test_drift_state_round_trips_bitwise(self, trained_tiny_model):
        pristine = trained_tiny_model.state_dict()
        _, server = _serve(
            trained_tiny_model, pristine, "fog_bank", 44,
            drift=DriftResetConfig(),
            checkpoint=CheckpointConfig(interval_frames=2),
        )
        session = server.registry.get("s0")
        assert session.drift.resets >= 1 and session.drift.bank
        store = server.checkpoints
        store.checkpoint(session, {"debt": 0, "deferrals": 0}, now_ms=1.0)
        reference, ref_meta = capture_session_state(session)

        # vandalize everything the drift checkpoint protects
        drift = session.drift
        drift.detector.load_state_vector(np.zeros(7))
        drift.events = drift.resets = drift.cluster_restores = 0
        drift.bank = []
        drift.regime_sig = None
        drift._sig_sum = None
        drift._sig_count = 0
        session.bn_state.state[2:] += 1.0  # gamma/beta

        assert store.restore(session) is not None
        restored, meta = capture_session_state(session)
        assert set(restored) == set(reference)
        for key in reference:
            np.testing.assert_array_equal(restored[key], reference[key])
        assert meta["drift"] == ref_meta["drift"]

    def test_reset_bills_durable_checkpoint_before_any_crash(
        self, trained_tiny_model
    ):
        """Regression: a drift reset racing a device crash must never
        restore pre-reset BN state from a stale checkpoint.

        With the interval far beyond the horizon, the only checkpoints
        are the registration baseline (frame 0) and whatever the reset
        itself bills — so restoring *must* land on post-reset state.
        """
        pristine = trained_tiny_model.state_dict()
        for mode in ("sync", "async"):
            report, server = _serve(
                trained_tiny_model, pristine, "night_cut", 24,
                drift=DriftResetConfig(),
                checkpoint=CheckpointConfig(interval_frames=64, mode=mode),
            )
            assert report.total_drift_resets >= 1
            store = server.checkpoints
            meta = store.metadata("s0")
            # durable (not staged) and captured at the reset, after the
            # shift frame — never the stale frame-0 baseline
            assert store.has_checkpoint("s0")
            assert meta["frames_seen"] > 18
            assert meta["drift"]["resets"] >= 1
            assert meta["adapt_burst_until"] > 18

            # a post-reset crash restores the post-reset schedule
            session = server.registry.get("s0")
            session.adapt_phase = 0
            session.adapt_burst_until = 0
            store.restore(session, counters=True)
            assert session.adapt_burst_until == meta["adapt_burst_until"]
            assert session.drift.resets >= 1


class TestSessionDriftState:
    def test_entropy_statistic_is_selectable(self, trained_tiny_model):
        pristine = trained_tiny_model.state_dict()
        config = DriftResetConfig(
            statistic="entropy", detector=DriftConfig(threshold=1e9)
        )
        report, server = _serve(
            trained_tiny_model, pristine, "night_cut", 20, drift=config
        )
        session = server.registry.get("s0")
        assert isinstance(session.drift, SessionDriftState)
        assert session.drift.detector.observed == session.frames_seen
        assert report.total_drift_events == 0  # unreachable threshold

    def test_source_mode_never_banks(self, trained_tiny_model):
        pristine = trained_tiny_model.state_dict()
        report, server = _serve(
            trained_tiny_model, pristine, "fog_bank", 44,
            drift=DriftResetConfig(reset_mode="source"),
        )
        assert report.total_drift_resets >= 2
        assert report.total_drift_cluster_restores == 0
        assert server.registry.get("s0").drift.bank == []
