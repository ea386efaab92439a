"""Property-based tests (hypothesis) for the CUSUM drift detector.

The guarantees the drift-reset serving path leans on:

* **bounded false-alarm rate** — on a stationary stream (any location /
  scale) the detector essentially never fires: at most a stray alarm
  over hundreds of frames, never a stream of them;
* **bounded detection delay** — after an abrupt mean shift of at least
  3 baseline sigmas, an alarm fires within a fixed window (the CUSUM
  accumulates ``z - slack`` per frame, so the window is a small
  multiple of ``threshold / shift``);
* **bitwise state round-trip** — serializing mid-stream and resuming a
  fresh detector from the state vector replays the identical alarm
  sequence and lands on the identical state, including through the
  flat container the session checkpoint store writes;
* the detector never fires during warmup, and ``recalibrate`` resets
  the decision statistic without losing lifetime counters.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.metrics import DriftConfig, DriftDetector
from repro.serve import pack_checkpoint, unpack_checkpoint

SETTINGS = dict(max_examples=40, deadline=None)

locs = st.floats(-5.0, 5.0, allow_nan=False)
scales = st.floats(0.01, 3.0, allow_nan=False)
seeds = st.integers(0, 2**32 - 1)


class TestStationaryStreams:
    @given(seed=seeds, loc=locs, scale=scales)
    @settings(**SETTINGS)
    def test_false_alarm_rate_is_bounded(self, seed, loc, scale):
        rng = np.random.default_rng(seed)
        detector = DriftDetector(DriftConfig())
        alarms = sum(
            detector.update(v) for v in rng.normal(loc, scale, 300)
        )
        assert alarms <= 2

    @given(seed=seeds, loc=locs, scale=scales)
    @settings(**SETTINGS)
    def test_never_fires_during_warmup(self, seed, loc, scale):
        rng = np.random.default_rng(seed)
        config = DriftConfig()
        detector = DriftDetector(config)
        # even a wild warmup sequence cannot fire: there is no baseline
        # to deviate from yet
        for v in rng.normal(loc, 100.0 * scale, config.warmup):
            assert not detector.update(v)
        assert detector.warmed


class TestShiftDetection:
    @given(
        seed=seeds,
        loc=st.floats(-2.0, 2.0, allow_nan=False),
        scale=st.floats(0.05, 1.0, allow_nan=False),
        shift_sigmas=st.floats(3.0, 10.0, allow_nan=False),
        settle=st.integers(10, 80),
    )
    @settings(**SETTINGS)
    def test_mean_shift_detected_within_bounded_window(
        self, seed, loc, scale, shift_sigmas, settle
    ):
        rng = np.random.default_rng(seed)
        detector = DriftDetector(DriftConfig())
        for v in rng.normal(loc, scale, settle):
            detector.update(v)
        before = detector.drifts
        shifted = rng.normal(loc + shift_sigmas * scale, scale, 16)
        delay = next(
            (i + 1 for i, v in enumerate(shifted) if detector.update(v)),
            None,
        )
        # empirically the worst delay at 3 sigma is ~8 frames; 16 is the
        # contract the serving loop's recovery metric assumes
        assert delay is not None and delay <= 16
        assert detector.drifts == before + 1

    @given(seed=seeds)
    @settings(**SETTINGS)
    def test_recalibrate_preserves_lifetime_counters(self, seed):
        rng = np.random.default_rng(seed)
        detector = DriftDetector(DriftConfig())
        for v in rng.normal(0.0, 1.0, 40):
            detector.update(v)
        observed, drifts = detector.observed, detector.drifts
        detector.recalibrate()
        assert (detector.observed, detector.drifts) == (observed, drifts)
        assert detector.g == 0.0 and not detector.warmed


samples = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=60,
)


class TestStateRoundTrip:
    @given(prefix=samples, suffix=samples)
    @settings(**SETTINGS)
    def test_resumed_detector_replays_bitwise(self, prefix, suffix):
        original = DriftDetector(DriftConfig())
        for v in prefix:
            original.update(v)

        resumed = DriftDetector(DriftConfig())
        resumed.load_state_vector(original.state_vector())

        for v in suffix:
            assert original.update(v) == resumed.update(v)
        np.testing.assert_array_equal(
            original.state_vector(), resumed.state_vector()
        )

    @given(prefix=samples)
    @settings(**SETTINGS)
    def test_state_survives_checkpoint_container(self, prefix):
        original = DriftDetector(DriftConfig())
        for v in prefix:
            original.update(v)
        state = original.state_vector()

        arrays, meta = unpack_checkpoint(
            pack_checkpoint({"drift.detector": state}, {"schema": 1})
        )
        assert meta["schema"] == 1

        resumed = DriftDetector(DriftConfig())
        resumed.load_state_vector(arrays["drift.detector"])
        np.testing.assert_array_equal(resumed.state_vector(), state)
        assert arrays["drift.detector"].dtype == np.float64
