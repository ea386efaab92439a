"""Hardware model tests: device profiles, roofline, deadlines, energy."""

import numpy as np
import pytest

from repro.hw import (
    DEADLINE_18FPS_MS,
    DEADLINE_30FPS_MS,
    ORIN_POWER_MODES,
    POWER_MODE_ORDER,
    DeviceProfile,
    design_space,
    forward_latency,
    frame_energy,
    backward_latency,
    get_power_mode,
    ld_bn_adapt_latency,
    amortized_frame_latency,
    max_fps,
    meets_deadline,
    parallel_speedup,
    select_operating_point,
    sota_epoch_latency,
    update_latency,
)
from repro.models import get_config

R18_SPEC = get_config("paper-r18").to_spec("ufld-r18")
R34_SPEC = get_config("paper-r34").to_spec("ufld-r34")
ORIN60 = ORIN_POWER_MODES["orin-60w"]


class TestDeviceProfiles:
    def test_all_modes_present(self):
        assert set(POWER_MODE_ORDER) == set(ORIN_POWER_MODES)

    def test_power_ordering(self):
        powers = [ORIN_POWER_MODES[m].power_w for m in POWER_MODE_ORDER]
        assert powers == sorted(powers)

    def test_clock_scaling_reduces_flops(self):
        assert (
            ORIN_POWER_MODES["orin-15w"].peak_flops
            < ORIN_POWER_MODES["orin-60w"].peak_flops
        )

    def test_get_power_mode_case_insensitive(self):
        assert get_power_mode("ORIN-60W").name == "orin-60w"

    def test_unknown_mode(self):
        with pytest.raises(KeyError):
            get_power_mode("orin-100w")

    def test_scaled_derivation(self):
        derived = ORIN60.scaled(0.5, 0.5, "half", 30.0)
        assert derived.peak_flops == pytest.approx(0.5 * ORIN60.peak_flops)
        assert derived.mem_bandwidth == pytest.approx(0.5 * ORIN60.mem_bandwidth)
        assert derived.power_w == 30.0


class TestDevicePoolHelpers:
    def test_build_device_pool_from_string(self):
        from repro.hw import build_device_pool

        pool = build_device_pool("orin-60w:2,orin-30w")
        assert [d.name for d in pool] == ["orin-60w", "orin-60w", "orin-30w"]
        assert build_device_pool(["orin-15w"])[0].name == "orin-15w"

    def test_build_device_pool_rejects_bad_entries(self):
        from repro.hw import build_device_pool

        with pytest.raises(ValueError):
            build_device_pool("")
        with pytest.raises(ValueError):
            build_device_pool("orin-60w:0")
        with pytest.raises(ValueError):
            build_device_pool("orin-60w:x")
        with pytest.raises(KeyError):
            build_device_pool("orin-7w")

    def test_stream_utilization(self):
        from repro.hw import stream_utilization

        assert stream_utilization(16.65, 33.3) == pytest.approx(0.5)
        assert stream_utilization(0.0, 33.3) == 0.0
        with pytest.raises(ValueError):
            stream_utilization(1.0, 0.0)
        with pytest.raises(ValueError):
            stream_utilization(-1.0, 33.3)


class TestRoofline:
    def test_forward_positive(self):
        assert forward_latency(R18_SPEC, ORIN60) > 0

    def test_backward_costs_more_than_forward(self):
        assert backward_latency(R18_SPEC, ORIN60) > forward_latency(R18_SPEC, ORIN60)

    def test_latency_monotone_in_power_mode(self):
        times = [
            ld_bn_adapt_latency(R18_SPEC, ORIN_POWER_MODES[m], 1).total_ms
            for m in POWER_MODE_ORDER
        ]
        assert times == sorted(times, reverse=True)  # more power = faster

    def test_latency_monotone_in_model_size(self):
        for mode in POWER_MODE_ORDER:
            dev = ORIN_POWER_MODES[mode]
            assert (
                ld_bn_adapt_latency(R34_SPEC, dev, 1).total_ms
                > ld_bn_adapt_latency(R18_SPEC, dev, 1).total_ms
            )

    def test_batch_scaling_increases_step_latency(self):
        t1 = ld_bn_adapt_latency(R18_SPEC, ORIN60, 1).adaptation_ms
        t4 = ld_bn_adapt_latency(R18_SPEC, ORIN60, 4).adaptation_ms
        assert t4 > t1

    def test_amortized_latency_decreases_with_batch(self):
        a1 = amortized_frame_latency(R18_SPEC, ORIN60, 1)
        a4 = amortized_frame_latency(R18_SPEC, ORIN60, 4)
        assert a4 < a1  # adaptation cost shared over more frames

    def test_breakdown_consistency(self):
        b = ld_bn_adapt_latency(R18_SPEC, ORIN60, 1)
        assert b.total_ms == pytest.approx(b.inference_ms + b.adaptation_ms)
        assert b.adaptation_ms == pytest.approx(
            b.adapt_forward_ms + b.adapt_backward_ms + b.update_ms
        )
        d = b.as_dict()
        assert d["total_ms"] == pytest.approx(b.total_ms)

    def test_update_latency_tiny(self):
        t = update_latency(R18_SPEC, ORIN60, R18_SPEC.bn_params)
        assert t * 1e3 < 0.5  # well under half a millisecond

    def test_adaptation_dominated_by_backward(self):
        b = ld_bn_adapt_latency(R18_SPEC, ORIN60, 1)
        assert b.adapt_backward_ms > b.adapt_forward_ms


class TestThreadPricing:
    """Amdahl re-pricing of compute-bound roofline terms.

    ``threads=1`` must be an exact no-op (every archived single-thread
    number is reproduced bitwise), and only compute terms speed up —
    the BN parameter update is DRAM-bound and keeps its price.
    """

    def test_cpu_cores_follow_nvpmodel_gates(self):
        assert ORIN_POWER_MODES["orin-60w"].cpu_cores == 12
        assert ORIN_POWER_MODES["orin-50w"].cpu_cores == 12
        assert ORIN_POWER_MODES["orin-30w"].cpu_cores == 8
        assert ORIN_POWER_MODES["orin-15w"].cpu_cores == 4

    def test_scaled_inherits_and_overrides_cores(self):
        derived = ORIN60.scaled(0.5, 0.5, "half", 30.0)
        assert derived.cpu_cores == ORIN60.cpu_cores
        assert derived.thread_efficiency == ORIN60.thread_efficiency
        assert ORIN60.scaled(0.5, 0.5, "half", 30.0, cpu_cores=6).cpu_cores == 6

    def test_single_thread_speedup_is_exactly_one(self):
        assert parallel_speedup(ORIN60, 1) == 1.0

    def test_speedup_monotone_in_threads(self):
        speeds = [parallel_speedup(ORIN60, t) for t in (1, 2, 4, 8, 12)]
        assert speeds == sorted(speeds)
        assert speeds[-1] > speeds[0]

    def test_speedup_clamps_at_device_cores(self):
        assert parallel_speedup(ORIN60, 12) == parallel_speedup(ORIN60, 99)
        dev15 = ORIN_POWER_MODES["orin-15w"]  # only 4 cores online
        assert parallel_speedup(dev15, 8) == parallel_speedup(dev15, 4)

    def test_speedup_bounded_by_amdahl_ceiling(self):
        # serial fraction 1 - p bounds the speedup at 1 / (1 - p)
        ceiling = 1.0 / (1.0 - ORIN60.thread_efficiency)
        assert 1.0 < parallel_speedup(ORIN60, ORIN60.cpu_cores) < ceiling

    def test_invalid_threads_raises(self):
        with pytest.raises(ValueError):
            parallel_speedup(ORIN60, 0)

    def test_threads_one_is_bitwise_noop_on_latencies(self):
        assert forward_latency(R18_SPEC, ORIN60, threads=1) == forward_latency(
            R18_SPEC, ORIN60
        )
        b0 = ld_bn_adapt_latency(R18_SPEC, ORIN60, 1)
        b1 = ld_bn_adapt_latency(R18_SPEC, ORIN60, 1, threads=1)
        assert b1.total_ms == b0.total_ms

    def test_threads_speed_up_compute_terms(self):
        assert (
            forward_latency(R18_SPEC, ORIN60, threads=2)
            < forward_latency(R18_SPEC, ORIN60)
        )
        assert (
            backward_latency(R34_SPEC, ORIN60, batch_size=4, threads=2)
            < backward_latency(R34_SPEC, ORIN60, batch_size=4)
        )

    def test_update_latency_is_bandwidth_bound(self):
        # the tiny gamma/beta SGD update streams parameters from DRAM;
        # more threads do not change its roofline price
        assert update_latency(
            R18_SPEC, ORIN60, R18_SPEC.bn_params, threads=8
        ) == update_latency(R18_SPEC, ORIN60, R18_SPEC.bn_params)

    def test_adapt_breakdown_speeds_up_but_stays_consistent(self):
        b1 = ld_bn_adapt_latency(R18_SPEC, ORIN60, 1)
        b2 = ld_bn_adapt_latency(R18_SPEC, ORIN60, 1, threads=2)
        assert b2.total_ms < b1.total_ms
        assert b2.update_ms == pytest.approx(b1.update_ms)
        assert b2.total_ms == pytest.approx(b2.inference_ms + b2.adaptation_ms)

    def test_more_threads_never_slower(self):
        times = [
            ld_bn_adapt_latency(R34_SPEC, ORIN60, 1, threads=t).total_ms
            for t in (1, 2, 4, 8)
        ]
        assert times == sorted(times, reverse=True)


class TestFig3Pattern:
    """The headline hardware result: the paper's feasibility pattern."""

    def test_r18_60w_meets_30fps(self):
        assert ld_bn_adapt_latency(R18_SPEC, ORIN60, 1).total_ms <= DEADLINE_30FPS_MS

    def test_only_r18_60w_meets_30fps(self):
        for spec, name in ((R18_SPEC, "r18"), (R34_SPEC, "r34")):
            for mode in POWER_MODE_ORDER:
                total = ld_bn_adapt_latency(spec, ORIN_POWER_MODES[mode], 1).total_ms
                expected = name == "r18" and mode == "orin-60w"
                assert (total <= DEADLINE_30FPS_MS) == expected, (name, mode, total)

    def test_exactly_three_configs_meet_18fps(self):
        feasible = []
        for spec, name in ((R18_SPEC, "r18"), (R34_SPEC, "r34")):
            for mode in POWER_MODE_ORDER:
                total = ld_bn_adapt_latency(spec, ORIN_POWER_MODES[mode], 1).total_ms
                if total <= DEADLINE_18FPS_MS:
                    feasible.append((name, mode))
        assert sorted(feasible) == [
            ("r18", "orin-50w"),
            ("r18", "orin-60w"),
            ("r34", "orin-60w"),
        ]


class TestSOTACost:
    def test_epoch_exceeds_one_hour_at_carlane_scale(self):
        cost = sota_epoch_latency(R18_SPEC, ORIN60, num_source=84_000, num_target=4_400)
        assert cost["total_hours"] > 1.0  # Sec. II: "> 1 hour" per epoch

    def test_components_sum(self):
        cost = sota_epoch_latency(R18_SPEC, ORIN60, 1000, 100)
        parts = (
            cost["embedding_s"]
            + cost["pseudo_label_s"]
            + cost["training_s"]
            + cost["kmeans_s"]
        )
        assert cost["total_s"] == pytest.approx(parts)

    def test_orders_of_magnitude_vs_ldbn_step(self):
        cost = sota_epoch_latency(R18_SPEC, ORIN60, 84_000, 4_400)
        step_s = ld_bn_adapt_latency(R18_SPEC, ORIN60, 1).total_ms / 1e3
        assert cost["total_s"] / step_s > 1e4


class TestDeadlines:
    def test_constants(self):
        assert DEADLINE_30FPS_MS == pytest.approx(33.333, rel=1e-3)
        assert DEADLINE_18FPS_MS == pytest.approx(55.556, rel=1e-3)

    def test_meets_deadline(self):
        assert meets_deadline(30.0, DEADLINE_30FPS_MS)
        assert not meets_deadline(34.0, DEADLINE_30FPS_MS)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            meets_deadline(-1.0, 10.0)
        with pytest.raises(ValueError):
            meets_deadline(1.0, 0.0)

    def test_max_fps(self):
        assert max_fps(33.333) == pytest.approx(30.0, rel=1e-3)
        with pytest.raises(ValueError):
            max_fps(0.0)


class TestEnergy:
    def test_frame_energy_math(self):
        est = frame_energy(R18_SPEC, ORIN60)
        assert est.energy_mj == pytest.approx(est.power_w * est.latency_ms)
        assert "energy_mj" in est.as_dict()

    def test_design_space_size(self):
        points = design_space(
            {"r18": R18_SPEC, "r34": R34_SPEC},
            [ORIN_POWER_MODES[m] for m in POWER_MODE_ORDER],
        )
        assert len(points) == 8
        assert all(p.latency_ms > 0 for p in points)

    def test_select_feasible_energy_optimal(self):
        points = design_space(
            {"r18": R18_SPEC, "r34": R34_SPEC},
            [ORIN_POWER_MODES[m] for m in POWER_MODE_ORDER],
        )
        best = select_operating_point(points, DEADLINE_30FPS_MS)
        assert best is not None
        assert best.model_name == "r18" and best.device.name == "orin-60w"

    def test_power_budget_constrains(self):
        """Sec. IV: 'if there is a strict power constraint of 50 W then
        R-18 should be used' (at the relaxed 18 FPS deadline)."""
        points = design_space(
            {"r18": R18_SPEC, "r34": R34_SPEC},
            [ORIN_POWER_MODES[m] for m in POWER_MODE_ORDER],
        )
        best = select_operating_point(
            points, DEADLINE_18FPS_MS, power_budget_w=50.0
        )
        assert best is not None and best.model_name == "r18"
        assert best.device.power_w <= 50.0

    def test_infeasible_returns_none(self):
        points = design_space({"r34": R34_SPEC}, [ORIN_POWER_MODES["orin-15w"]])
        assert select_operating_point(points, DEADLINE_30FPS_MS) is None

    def test_prefer_latency(self):
        points = design_space(
            {"r18": R18_SPEC},
            [ORIN_POWER_MODES[m] for m in POWER_MODE_ORDER],
        )
        best = select_operating_point(points, 1e9, prefer="latency")
        assert best.device.name == "orin-60w"

    def test_invalid_preference(self):
        with pytest.raises(ValueError):
            select_operating_point([], 10.0, prefer="magic")
