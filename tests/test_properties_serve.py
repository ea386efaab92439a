"""Property-based tests (hypothesis) for the fleet scheduler stack.

Seeded random fleets probe the invariants the serving loop leans on:

* :func:`plan_adaptation_groups` never mixes fuse keys and partitions
  its input exactly (nothing lost, nothing duplicated);
* :class:`DeadlineAwareScheduler` never exceeds capacity, never loses or
  double-serves a frame, serves each stream's frames in order, and only
  launches a deadline-infeasible batch when even a singleton of the most
  urgent frame would already miss (the throughput-mode escape);
* :class:`SlackAdmission` never grants adaptation work whose modeled
  cost exceeds the batch's deadline budget, always grants free buffering
  frames, sheds non-starving streams when hot, and bounds every stream's
  skip streak at ``max_debt`` while the budget allows catch-ups —
  per-device controllers keep the guarantee pool-wide, and migration's
  ``export_stream``/``import_stream`` moves debt exactly;
* the **device pool**: a sharded drain with rule-respecting migrations
  (a stream with a batch in flight is pinned; queued frames re-home
  with the mover, whose launches are floored at the handoff instant)
  serves every frame exactly once, never exceeds any device's capacity,
  preserves per-stream order, and never serves one session on two
  devices in overlapping windows; :class:`MigrationPlanner` decisions
  always name a sustained-hot observed source, a cooler-by-the-gap
  target, and a movable session, and respect the cooldowns;
* :class:`ArrivalProcess` realizations are monotone, deterministic per
  seed, and degenerate to the exact tick grid at zero jitter;
* **checkpoints and crash recovery**: a session restored from a capture
  is bitwise the capture regardless of how far the live state ran on,
  the checkpoint's admission view conserves debt without touching the
  live controller, and a mid-run device crash never serves a frame
  twice nor reorders any stream's frames.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import (
    ArrivalModel,
    ArrivalProcess,
    DeadlineAwareScheduler,
    FrameRequest,
    MigrationConfig,
    MigrationPlanner,
    SlackAdmission,
    StepCandidate,
    place_stream,
    plan_adaptation_groups,
)
from repro.serve.admission import AdmissionConfig

SETTINGS = dict(max_examples=40, deadline=None)


# ----------------------------------------------------------------------
# plan_adaptation_groups
# ----------------------------------------------------------------------

keyed_items = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d"])),
        st.integers(0, 10_000),
    ),
    max_size=20,
)


class TestGroupPlanningProperties:
    @given(candidates=keyed_items)
    @settings(**SETTINGS)
    def test_partition_is_exact_and_never_mixes_keys(self, candidates):
        items = [object() for _ in candidates]
        keyed = [(key, item) for (key, _), item in zip(candidates, items)]
        groups, serial = plan_adaptation_groups(keyed)

        key_of = {id(item): key for key, item in keyed}
        # no group mixes keys or is empty, one group per key, and exactly
        # the serial-only (None-key) items stay out of every group
        for group in groups:
            keys = {key_of[id(item)] for item in group}
            assert group and len(keys) == 1 and None not in keys
        assert len(groups) == len({key for key, _ in keyed} - {None})
        assert all(key_of[id(item)] is None for item in serial)

        # exact partition: every item appears exactly once overall
        out = [id(item) for group in groups for item in group]
        out += [id(item) for item in serial]
        assert sorted(out) == sorted(id(item) for item in items)

        # order preserved within each group and within the serial list
        position = {id(item): i for i, item in enumerate(items)}
        for group in groups:
            ordered = [position[id(item)] for item in group]
            assert ordered == sorted(ordered)
        ordered = [position[id(item)] for item in serial]
        assert ordered == sorted(ordered)


# ----------------------------------------------------------------------
# DeadlineAwareScheduler
# ----------------------------------------------------------------------

@st.composite
def random_fleet(draw):
    """A random request set plus a monotone batch-latency model."""
    num_streams = draw(st.integers(1, 5))
    frames_per_stream = draw(st.integers(1, 6))
    period = draw(st.floats(5.0, 50.0))
    deadline = draw(st.floats(5.0, 80.0))
    base = draw(st.floats(0.0, 40.0))
    slope = draw(st.floats(0.0, 15.0))
    jitters = draw(
        st.lists(
            st.floats(0.0, 30.0),
            min_size=num_streams * frames_per_stream,
            max_size=num_streams * frames_per_stream,
        )
    )
    requests = []
    k = 0
    for s in range(num_streams):
        last = 0.0
        for i in range(frames_per_stream):
            arrival = max(i * period + jitters[k], last)
            last = arrival
            k += 1
            requests.append(
                FrameRequest(
                    stream_id=f"s{s}",
                    frame_index=i,
                    arrival_ms=arrival,
                    deadline_ms=arrival + deadline,
                )
            )
    return requests, (lambda b: base + slope * b)


class TestSchedulerProperties:
    @given(
        fleet=random_fleet(),
        max_batch=st.integers(1, 8),
        aging=st.floats(0.0, 2.0),
    )
    @settings(**SETTINGS)
    def test_drain_serves_every_frame_exactly_once_in_order(
        self, fleet, max_batch, aging
    ):
        requests, latency_fn = fleet
        sched = DeadlineAwareScheduler(
            latency_fn=latency_fn, max_batch_size=max_batch, aging_rate=aging
        )
        # event-driven ingest: requests become visible at their arrival
        by_arrival = sorted(requests, key=lambda r: r.arrival_ms)
        served = []
        device_free = 0.0
        i = 0
        while i < len(by_arrival) or sched.pending_count:
            if sched.pending_count:
                now = max(device_free, sched.earliest_pending_arrival_ms)
            else:
                now = max(device_free, by_arrival[i].arrival_ms)
            while i < len(by_arrival) and by_arrival[i].arrival_ms <= now:
                sched.submit(by_arrival[i])
                i += 1
            plan = sched.next_batch(now)

            # capacity is never exceeded and the plan prices its own size
            assert 1 <= plan.batch_size <= max_batch
            assert plan.planned_latency_ms == pytest.approx(
                latency_fn(plan.batch_size)
            )
            # deadline feasibility, or the explicit throughput-mode escape:
            # even a singleton of the most urgent frame would have missed
            min_deadline = min(r.deadline_ms for r in plan.requests)
            if now + plan.planned_latency_ms > min_deadline:
                assert now + latency_fn(1) > plan.requests[0].deadline_ms
            served.extend(plan.requests)
            device_free = now + plan.planned_latency_ms

        # no frame dropped, none served twice
        assert sorted(id(r) for r in served) == sorted(id(r) for r in requests)
        # per-stream frame order is preserved across batches
        for stream_id in {r.stream_id for r in requests}:
            indices = [r.frame_index for r in served if r.stream_id == stream_id]
            assert indices == sorted(indices)


# ----------------------------------------------------------------------
# SlackAdmission
# ----------------------------------------------------------------------

@st.composite
def admission_batch(draw):
    """Random step candidates with a consistent (key -> batch size) map."""
    keys = ["k1", "k2", None]
    sizes = {"k1": draw(st.integers(1, 4)), "k2": draw(st.integers(1, 4))}
    candidates = []
    for i in range(draw(st.integers(1, 8))):
        key = draw(st.sampled_from(keys))
        would_step = draw(st.booleans())
        batch = sizes.get(key, 1)
        candidates.append(
            StepCandidate(
                stream_id=f"s{draw(st.integers(0, 5))}",
                would_step=would_step,
                fuse_key=key if would_step else None,
                frames_per_step=batch,
                serial_cost_ms=draw(st.floats(0.0, 30.0)),
            )
        )
    return candidates


def _granted_cost(candidates, decisions, cost_fn, allow_fused=True):
    """Total modeled cost of the granted steps, fused where the server
    would fuse (same key, first occurrence per stream).

    Mirrors ``SlackAdmission.admit``'s billing exactly: the *first*
    stepping occurrence of a stream is the fusable one regardless of
    whether it was granted — a granted repeat after a denied first
    occurrence pays the serial price, never the fused marginal.
    """
    first = {}
    for candidate in candidates:
        if candidate.would_step and candidate.fuse_key is not None:
            first.setdefault(candidate.stream_id, id(candidate))
    fused_counts = {}
    serial = 0.0
    for candidate, granted in zip(candidates, decisions):
        if not granted or not candidate.would_step:
            continue
        fusable = (
            allow_fused
            and candidate.fuse_key is not None
            and first.get(candidate.stream_id) == id(candidate)
        )
        if fusable:
            key = (candidate.fuse_key, candidate.frames_per_step)
            fused_counts[key] = fused_counts.get(key, 0) + 1
        else:
            serial += candidate.serial_cost_ms
    fused = sum(
        cost_fn(count * batch) for (_, batch), count in fused_counts.items()
    )
    return fused + serial


class TestAdmissionProperties:
    @given(
        batch=admission_batch(),
        budget=st.floats(-10.0, 120.0),
        depth=st.integers(0, 12),
        base=st.floats(0.0, 25.0),
        slope=st.floats(0.0, 10.0),
        slack=st.one_of(st.none(), st.floats(-50.0, 50.0)),
    )
    @settings(**SETTINGS)
    def test_granted_cost_never_exceeds_budget(
        self, batch, budget, depth, base, slope, slack
    ):
        """Admission never grants steps the roofline model can't afford."""
        cost_fn = lambda n: base + slope * n  # noqa: E731
        config = AdmissionConfig(headroom_ms=0.0)
        controller = SlackAdmission(config, cost_fn)
        if slack is not None:
            controller.observe_slack(slack)
        decisions = controller.admit(batch, budget, depth)

        total = _granted_cost(batch, decisions, cost_fn)
        assert total <= budget + 1e-9 or total == 0.0
        # buffering frames are free and always granted
        for candidate, granted in zip(batch, decisions):
            if not candidate.would_step:
                assert granted

    @given(batch=admission_batch(), depth=st.integers(0, 12))
    @settings(**SETTINGS)
    def test_hot_queue_sheds_all_fresh_steps(self, batch, depth):
        """With zero debt everywhere, a hot queue grants no step at all."""
        controller = SlackAdmission(
            AdmissionConfig(slack_low_ms=float("inf"), slack_high_ms=float("inf")),
            lambda n: 1.0,
        )
        controller.observe_slack(0.0)  # below the infinite hot threshold
        decisions = controller.admit(batch, budget_ms=1e9, queue_depth=depth)
        for candidate, granted in zip(batch, decisions):
            assert granted == (not candidate.would_step)

    @given(
        max_debt=st.integers(1, 6),
        rounds=st.integers(8, 30),
        num_streams=st.integers(1, 4),
    )
    @settings(**SETTINGS)
    def test_debt_bounds_skip_streaks_under_sustained_heat(
        self, max_debt, rounds, num_streams
    ):
        """Forced catch-ups cap consecutive skips at max_debt when the
        budget stays feasible, even while the queue never cools down."""
        controller = SlackAdmission(
            AdmissionConfig(
                slack_low_ms=float("inf"),
                slack_high_ms=float("inf"),
                max_debt=max_debt,
                headroom_ms=0.0,
            ),
            lambda n: 1.0,
        )
        controller.observe_slack(0.0)  # permanently hot
        streaks = {f"s{i}": 0 for i in range(num_streams)}
        for _ in range(rounds):
            batch = [
                StepCandidate(stream_id=sid, would_step=True, serial_cost_ms=1.0)
                for sid in streaks
            ]
            decisions = controller.admit(batch, budget_ms=1e9, queue_depth=0)
            for candidate, granted in zip(batch, decisions):
                if granted:
                    streaks[candidate.stream_id] = 0
                else:
                    streaks[candidate.stream_id] += 1
                assert streaks[candidate.stream_id] <= max_debt

    @given(batch=admission_batch())
    @settings(**SETTINGS)
    def test_unmodeled_cost_means_unlimited_budget(self, batch):
        """Without a latency model (wallclock serving) nothing is shed."""
        controller = SlackAdmission(AdmissionConfig(), step_cost_ms=None)
        decisions = controller.admit(
            batch, budget_ms=float("-inf"), queue_depth=0
        )
        assert all(decisions)


# ----------------------------------------------------------------------
# Device pool: sharded drain + migration
# ----------------------------------------------------------------------

@st.composite
def pool_fleet(draw):
    """A random request set over a random heterogeneous device pool."""
    num_devices = draw(st.integers(1, 3))
    num_streams = draw(st.integers(1, 4))
    frames_per_stream = draw(st.integers(1, 5))
    period = draw(st.floats(5.0, 50.0))
    deadline = draw(st.floats(5.0, 80.0))
    # per-device latency models: heterogeneous bases/slopes
    bases = draw(
        st.lists(
            st.floats(0.0, 40.0), min_size=num_devices, max_size=num_devices
        )
    )
    slopes = draw(
        st.lists(
            st.floats(0.0, 15.0), min_size=num_devices, max_size=num_devices
        )
    )
    jitters = draw(
        st.lists(
            st.floats(0.0, 30.0),
            min_size=num_streams * frames_per_stream,
            max_size=num_streams * frames_per_stream,
        )
    )
    policy = draw(st.sampled_from(["least_loaded", "round_robin"]))
    mig_seed = draw(st.integers(0, 2**32 - 1))
    requests = []
    k = 0
    for s in range(num_streams):
        last = 0.0
        for i in range(frames_per_stream):
            arrival = max(i * period + jitters[k], last)
            last = arrival
            k += 1
            requests.append(
                FrameRequest(
                    stream_id=f"s{s}",
                    frame_index=i,
                    arrival_ms=arrival,
                    deadline_ms=arrival + deadline,
                )
            )
    latency_fns = [
        (lambda b, base=base, slope=slope: base + slope * b)
        for base, slope in zip(bases, slopes)
    ]
    return requests, latency_fns, policy, mig_seed


class TestPoolProperties:
    @given(fleet=pool_fleet(), max_batch=st.integers(1, 6))
    @settings(**SETTINGS)
    def test_sharded_drain_with_migration_partitions_and_never_overlaps(
        self, fleet, max_batch
    ):
        """The pool invariants under arbitrary rule-respecting migration:
        every frame served exactly once by exactly one device, no device
        over its capacity or mispriced, per-stream order preserved, and
        no session served by two devices in overlapping windows."""
        requests, latency_fns, policy, mig_seed = fleet
        num_devices = len(latency_fns)
        scheds = [
            DeadlineAwareScheduler(latency_fn=fn, max_batch_size=max_batch)
            for fn in latency_fns
        ]
        # placement mirrors the server: policy over per-device costs
        stream_ids = sorted({r.stream_id for r in requests})
        placement = {}
        loads = [0.0] * num_devices
        for index, sid in enumerate(stream_ids):
            costs = [fn(1) / 100.0 for fn in latency_fns]
            device = place_stream(policy, index, costs, loads)
            placement[sid] = device
            loads[device] += costs[device]
        mig_rng = np.random.default_rng(mig_seed)

        by_arrival = sorted(
            requests, key=lambda r: (r.arrival_ms, r.stream_id, r.frame_index)
        )
        device_free = [0.0] * num_devices
        busy_until = defaultdict(float)
        intervals = defaultdict(list)  # sid -> [(start, end, device)]
        served = []
        i = 0
        while i < len(by_arrival) or any(s.pending_count for s in scheds):
            ready = [
                (max(device_free[d], scheds[d].earliest_pending_arrival_ms), d)
                for d in range(num_devices)
                if scheds[d].pending_count
            ]
            launch_ms, device = min(ready) if ready else (None, None)
            if i < len(by_arrival) and (
                launch_ms is None or by_arrival[i].arrival_ms <= launch_ms
            ):
                request = by_arrival[i]
                scheds[placement[request.stream_id]].submit(request)
                i += 1
                continue
            plan = scheds[device].next_batch(launch_ms)

            # per-device capacity and pricing
            assert 1 <= plan.batch_size <= max_batch
            assert plan.planned_latency_ms == pytest.approx(
                latency_fns[device](plan.batch_size)
            )
            end_ms = launch_ms + plan.planned_latency_ms
            for request in plan.requests:
                intervals[request.stream_id].append((launch_ms, end_ms, device))
                busy_until[request.stream_id] = max(
                    busy_until[request.stream_id], end_ms
                )
            served.extend(plan.requests)
            device_free[device] = end_ms

            # rule-respecting random migration at the (monotone) launch
            # clock — exactly the server's movability gate: a stream
            # with a batch still in flight is pinned; queued frames
            # re-home with the mover and the target's clock is floored
            # at the handoff instant
            if num_devices > 1 and mig_rng.random() < 0.5:
                movable = [
                    sid
                    for sid in stream_ids
                    if busy_until[sid] <= launch_ms
                ]
                if movable:
                    sid = movable[int(mig_rng.integers(len(movable)))]
                    old = placement[sid]
                    new = int(mig_rng.integers(num_devices))
                    placement[sid] = new
                    if new != old:
                        for request in scheds[old].extract_stream(sid):
                            scheds[new].submit(request)
                        device_free[new] = max(device_free[new], launch_ms)

        # exact partition pool-wide: nothing lost, nothing double-served
        assert sorted(id(r) for r in served) == sorted(id(r) for r in requests)
        # per-stream frame order is preserved across batches AND devices
        for sid in stream_ids:
            indices = [r.frame_index for r in served if r.stream_id == sid]
            assert indices == sorted(indices)
        # a session is never served by two devices in overlapping windows
        for sid, spans in intervals.items():
            spans = sorted(spans)
            for (s0, e0, d0), (s1, e1, d1) in zip(spans, spans[1:]):
                if d0 != d1:
                    assert s1 >= e0 - 1e-9, (sid, (s0, e0, d0), (s1, e1, d1))

    @given(
        policy=st.sampled_from(["least_loaded", "round_robin"]),
        index=st.integers(0, 20),
        costs=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
        extra=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
        pinned=st.one_of(st.none(), st.integers(0, 5)),
    )
    @settings(**SETTINGS)
    def test_place_stream_in_range_and_deterministic(
        self, policy, index, costs, extra, pinned
    ):
        loads = extra[: len(costs)] + [0.0] * max(0, len(costs) - len(extra))
        if pinned is not None and pinned >= len(costs):
            with pytest.raises(ValueError):
                place_stream(policy, index, costs, loads, pinned=pinned)
            return
        device = place_stream(policy, index, costs, loads, pinned=pinned)
        assert 0 <= device < len(costs)
        assert device == place_stream(policy, index, costs, loads, pinned=pinned)
        if pinned is not None:
            assert device == pinned
        elif policy == "least_loaded":
            projected = [l + c for l, c in zip(loads, costs)]
            assert projected[device] == min(projected)


class TestMigrationPlannerProperties:
    @st.composite
    def scenario(draw):
        num_devices = draw(st.integers(2, 4))
        ewmas = draw(
            st.lists(
                st.one_of(st.none(), st.floats(-60.0, 30.0)),
                min_size=num_devices,
                max_size=num_devices,
            )
        )
        observations = draw(
            st.lists(
                st.integers(0, 40), min_size=num_devices, max_size=num_devices
            )
        )
        num_streams = draw(st.integers(0, 6))
        homes = draw(
            st.lists(
                st.integers(0, num_devices - 1),
                min_size=num_streams,
                max_size=num_streams,
            )
        )
        device_sessions = [[] for _ in range(num_devices)]
        for k, home in enumerate(homes):
            device_sessions[home].append(f"s{k}")
        movable = {
            f"s{k}" for k in range(num_streams) if draw(st.booleans())
        }
        costs = {
            f"s{k}": draw(st.floats(0.0, 3.0)) for k in range(num_streams)
        }
        config = MigrationConfig(
            hot_slack_ms=draw(st.floats(-5.0, 10.0)),
            slack_gap_ms=draw(st.floats(0.0, 20.0)),
            cooldown_ms=draw(st.floats(1.0, 1000.0)),
            min_observations=draw(st.integers(1, 10)),
        )
        now = draw(st.floats(0.0, 5000.0))
        return config, now, ewmas, observations, device_sessions, movable, costs

    @given(scenario=scenario())
    @settings(**SETTINGS)
    def test_decisions_respect_heat_gap_movability_and_cooldowns(
        self, scenario
    ):
        config, now, ewmas, observations, device_sessions, movable, costs = (
            scenario
        )
        planner = MigrationPlanner(config)
        decision = planner.plan(
            now, ewmas, observations, device_sessions, movable, costs
        )
        if decision is None:
            return
        source, target = decision.source, decision.target
        assert source != target
        # the source is observed, sustained, and genuinely hot
        assert ewmas[source] is not None
        assert observations[source] >= config.min_observations
        assert ewmas[source] < config.hot_slack_ms
        # the moved stream lives on the source and is movable
        assert decision.stream_id in device_sessions[source]
        assert decision.stream_id in movable
        # the target is cooler by more than the gap (empty-unobserved
        # devices count as maximally cool)
        if ewmas[target] is None:
            assert not device_sessions[target]
        else:
            assert ewmas[target] - ewmas[source] > config.slack_gap_ms
        # cooldowns: immediately after committing, nothing moves; once
        # the fleet cooldown passes, the just-moved stream still waits
        # out its own (longer) per-session refractory
        planner.commit(decision, now)
        assert (
            planner.plan(
                now + config.cooldown_ms / 2.0,
                ewmas,
                observations,
                device_sessions,
                movable,
                costs,
            )
            is None
        )
        later = now + config.cooldown_ms
        follow_up = planner.plan(
            later, ewmas, observations, device_sessions, movable, costs
        )
        if follow_up is not None and follow_up.stream_id == decision.stream_id:
            # allowed only once its per-session refractory also elapsed
            assert later - now >= config.effective_session_cooldown_ms


class TestMigrationStatePreservation:
    @given(
        steps=st.integers(0, 2),
        lr=st.floats(1e-4, 1e-2),
        seed=st.integers(0, 2**16),
        debt=st.integers(0, 8),
    )
    @settings(max_examples=6, deadline=None)
    def test_migration_preserves_snapshot_and_optimizer_bitwise(
        self, steps, lr, seed, debt
    ):
        """Satellite acceptance: after any adaptation history, migrating
        a session moves its BN snapshot, running buffers, optimizer
        slots, step count and admission debt bitwise — only the modeled
        adaptation price changes (re-quoted per device)."""
        from repro.adapt import LDBNAdaptConfig
        from repro.hw import ORIN_POWER_MODES, ld_bn_adapt_latency
        from repro.models import build_model, get_config
        from repro.serve import AdmissionConfig, FleetConfig, FleetServer

        model = build_model(
            "tiny-r18", num_lanes=2, rng=np.random.default_rng(seed)
        )
        pool = [ORIN_POWER_MODES["orin-60w"], ORIN_POWER_MODES["orin-15w"]]
        spec = get_config("paper-r18").to_spec()
        server = FleetServer(
            model,
            FleetConfig(
                latency_model="orin", devices=2, admission=AdmissionConfig()
            ),
            spec=spec,
            device_pool=pool,
        )
        session = server.add_stream(
            "s0", iter(()), adapter_config=LDBNAdaptConfig(lr=lr), device=0
        )
        rng = np.random.default_rng(seed)
        h, w = model.config.input_hw
        session.swap_in()
        for _ in range(steps):
            session.adapter.observe_frame(
                rng.normal(0.5, 0.3, size=(3, h, w)).astype(np.float32)
            )
        session.swap_out()
        server.workers[0].admission._debt["s0"] = debt

        state, counts = (a.copy() for a in session.bn_state.read())
        optimizer = session.adapter.optimizer
        opt_state = {
            key: {k: np.array(v) for k, v in slot.items()}
            for key, slot in optimizer.state.items()
        }
        steps_taken = session.adapter.steps_taken

        server._migrate("s0", 0, 1)

        assert server.workers[1].sessions["s0"] is session
        np.testing.assert_array_equal(state, session.bn_state.state)
        np.testing.assert_array_equal(counts, session.bn_state.counts)
        assert session.adapter.optimizer is optimizer
        assert set(opt_state) == set(optimizer.state)
        for key, slot in opt_state.items():
            for k, v in slot.items():
                np.testing.assert_array_equal(v, optimizer.state[key][k])
        assert session.adapter.steps_taken == steps_taken
        assert server.workers[1].admission.debt("s0") == debt
        assert server.workers[0].admission.debt("s0") == 0
        worker = server.workers[server.device_of("s0")]
        assert worker.pricing.adapt_ms(session.adapter.batch_size) == (
            pytest.approx(ld_bn_adapt_latency(spec, pool[1], 1).adaptation_ms)
        )


class TestAdmissionPoolProperties:
    @given(
        debt=st.integers(0, 30),
        deferrals=st.integers(0, 10),
        key=st.one_of(st.none(), st.sampled_from(["a", "b"])),
    )
    @settings(**SETTINGS)
    def test_export_import_moves_admission_state_exactly(
        self, debt, deferrals, key
    ):
        """Migration's state hand-off: debt neither lost nor duplicated."""
        source, target = SlackAdmission(), SlackAdmission()
        source.import_stream(
            "s0", {"static_key": key, "debt": debt, "deferrals": deferrals}
        )
        state = source.export_stream("s0")
        assert state == {
            "static_key": key, "debt": debt, "deferrals": deferrals
        }
        # exporting removed every trace from the source controller
        assert source.debt("s0") == 0
        assert "s0" not in source._static_keys
        target.import_stream("s0", state)
        assert target.debt("s0") == debt
        assert target._static_keys["s0"] == key
        assert target._deferrals["s0"] == deferrals

    @given(
        batches=st.lists(admission_batch(), min_size=2, max_size=3),
        budgets=st.lists(st.floats(-10.0, 120.0), min_size=3, max_size=3),
        base=st.floats(0.0, 25.0),
        slope=st.floats(0.0, 10.0),
    )
    @settings(**SETTINGS)
    def test_per_device_budgets_never_exceeded_pool_wide(
        self, batches, budgets, base, slope
    ):
        """Each device's controller spends only its own batch budget, so
        the pool-wide grant cost is bounded by the sum of budgets."""
        cost_fn = lambda n: base + slope * n  # noqa: E731
        total_granted = 0.0
        total_budget = 0.0
        for batch, budget in zip(batches, budgets):
            controller = SlackAdmission(
                AdmissionConfig(headroom_ms=0.0), cost_fn
            )
            decisions = controller.admit(batch, budget, queue_depth=0)
            granted = _granted_cost(batch, decisions, cost_fn)
            assert granted <= budget + 1e-9 or granted == 0.0
            total_granted += granted
            total_budget += max(budget, 0.0)
        assert total_granted <= total_budget + 1e-9


# ----------------------------------------------------------------------
# ArrivalProcess
# ----------------------------------------------------------------------

class TestArrivalProperties:
    @given(
        period=st.floats(1.0, 60.0),
        phase=st.floats(0.0, 40.0),
        jitter=st.floats(0.0, 50.0),
        drop=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 40),
    )
    @settings(**SETTINGS)
    def test_monotone_and_deterministic(
        self, period, phase, jitter, drop, seed, count
    ):
        model = ArrivalModel(
            period_ms=period, phase_ms=phase, jitter_ms=jitter,
            drop_rate=drop, seed=seed,
        )
        process, twin = ArrivalProcess(model), ArrivalProcess(model)
        events = [process.next_event() for _ in range(count)]
        replay = [twin.next_event() for _ in range(count)]
        assert events == replay  # same seed, same realization
        times = [t for _, t, _ in events]
        assert all(b >= a for a, b in zip(times, times[1:]))
        # a frame never arrives before its nominal camera slot
        for index, arrival, _ in events:
            assert arrival >= phase + index * period - 1e-9

    @given(
        period=st.floats(1.0, 60.0),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 30),
    )
    @settings(**SETTINGS)
    def test_zero_jitter_is_the_exact_tick_grid(self, period, seed, count):
        process = ArrivalProcess(ArrivalModel(period_ms=period, seed=seed))
        for i in range(count):
            index, arrival, dropped = process.next_event()
            assert (index, dropped) == (i, False)
            assert arrival == pytest.approx(i * period)


# ----------------------------------------------------------------------
# Checkpoint / crash recovery
# ----------------------------------------------------------------------

class TestCheckpointProperties:
    def _adapted_session(self, seed, lr, steps, checkpoint=None, faults=None):
        from repro.adapt import LDBNAdaptConfig
        from repro.hw import ORIN_POWER_MODES
        from repro.models import build_model, get_config
        from repro.serve import FleetConfig, FleetServer

        model = build_model(
            "tiny-r18", num_lanes=2, rng=np.random.default_rng(seed)
        )
        server = FleetServer(
            model,
            FleetConfig(
                latency_model="orin", devices=2,
                checkpoint=checkpoint, faults=faults,
            ),
            device=ORIN_POWER_MODES["orin-60w"],
            spec=get_config("paper-r18").to_spec(),
        )
        session = server.add_stream(
            "s0", iter(()), adapter_config=LDBNAdaptConfig(lr=lr), device=0
        )
        rng = np.random.default_rng(seed + 1)
        h, w = model.config.input_hw
        session.swap_in()
        for _ in range(steps):
            session.adapter.observe_frame(
                rng.normal(0.5, 0.3, size=(3, h, w)).astype(np.float32)
            )
        session.swap_out()
        return server, session, rng

    @given(
        steps=st.integers(0, 2),
        extra=st.integers(1, 2),
        lr=st.floats(1e-4, 1e-2),
        seed=st.integers(0, 2**16),
        debt=st.integers(0, 8),
        deferrals=st.integers(0, 3),
    )
    @settings(max_examples=6, deadline=None)
    def test_capture_restore_roundtrip_bitwise(
        self, steps, extra, lr, seed, debt, deferrals
    ):
        """Satellite acceptance: after any adaptation history, a restored
        session is bitwise the capture — BN snapshot, running buffers,
        optimizer slots, pending frames, step index and admission debt —
        no matter how far the live state ran on afterwards."""
        from repro.serve import capture_session_state, restore_session_state

        server, session, rng = self._adapted_session(seed, lr, steps)
        admission = {"debt": debt, "deferrals": deferrals}
        reference, meta = capture_session_state(session, admission)

        h, w = server.model.config.input_hw
        session.swap_in()
        for _ in range(extra):  # the live session keeps adapting
            session.adapter.observe_frame(
                rng.normal(0.5, 0.3, size=(3, h, w)).astype(np.float32)
            )
        session.swap_out()

        restored_admission = restore_session_state(session, reference, meta)
        assert restored_admission == admission
        roundtrip, meta2 = capture_session_state(session, restored_admission)
        assert set(roundtrip) == set(reference)
        for key in reference:
            np.testing.assert_array_equal(roundtrip[key], reference[key])
        assert meta2["adapter_step"] == meta["adapter_step"]
        assert meta2["adapt_pending"] == meta["adapt_pending"]
        assert meta2["admission"] == meta["admission"]

    @given(
        debt=st.integers(0, 30),
        deferrals=st.integers(0, 10),
        key=st.one_of(st.none(), st.sampled_from(["a", "b"])),
    )
    @settings(**SETTINGS)
    def test_checkpoint_view_conserves_admission_debt(
        self, debt, deferrals, key
    ):
        """peek_stream (what checkpoints capture) reads the same state
        export_stream moves, without destroying the live controller."""
        source = SlackAdmission()
        source.import_stream(
            "s0", {"static_key": key, "debt": debt, "deferrals": deferrals}
        )
        view = source.peek_stream("s0")
        assert view == {
            "static_key": key, "debt": debt, "deferrals": deferrals
        }
        # non-destructive: the live stream still carries its claim
        assert source.debt("s0") == debt
        assert source.peek_stream("s0") == view
        # a restore-side import conserves the checkpointed debt exactly
        target = SlackAdmission()
        target.import_stream("s0", dict(view))
        assert target.debt("s0") == debt
        assert target.export_stream("s0") == view

    @given(
        crash_tick=st.integers(2, 6),
        streams=st.integers(2, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=4, deadline=None)
    def test_no_frame_served_twice_across_crash(
        self, tiny_benchmark, crash_tick, streams, seed
    ):
        """Crashing a device and re-placing its sessions never serves a
        frame twice and preserves every stream's frame order."""
        from repro.adapt import LDBNAdaptConfig
        from repro.hw import ORIN_POWER_MODES
        from repro.models import build_model, get_config
        from repro.serve import (
            CheckpointConfig,
            FaultEvent,
            FaultSchedule,
            FleetConfig,
            FleetServer,
        )

        ticks = 8
        period = 1000.0 / 30.0
        model = build_model(
            "tiny-r18", num_lanes=2, rng=np.random.default_rng(seed)
        )
        server = FleetServer(
            model,
            FleetConfig(
                latency_model="orin",
                devices=2,
                checkpoint=CheckpointConfig(interval_frames=2),
                faults=FaultSchedule(
                    [FaultEvent("crash", crash_tick * period, device=0)]
                ),
            ),
            device=ORIN_POWER_MODES["orin-60w"],
            spec=get_config("paper-r18").to_spec(),
        )
        for i in range(streams):
            frames = (
                tiny_benchmark.target_stream(
                    rng=np.random.default_rng(seed + 50 + i)
                )
                .take(ticks)
                .samples
            )
            server.add_stream(
                f"s{i}", iter(frames), adapter_config=LDBNAdaptConfig(lr=1e-3)
            )
        report = server.run(ticks)
        assert report.crashes == 1
        assert report.recoveries >= 1
        for stream_report in report.stream_reports.values():
            indices = [f.index for f in stream_report.frames]
            assert len(indices) == len(set(indices))  # never served twice
            assert indices == sorted(indices)  # order preserved
        for event in report.recovery_events:
            assert 0 <= event["frames_lost"] < 2  # the checkpoint interval
