"""Workloads of the frame-budget benchmark, driven from outside.

Every workload runs the repo's public entry points
(:meth:`RealTimePipeline.run`, :meth:`FleetServer.run`) over frame
sources the benchmark owns.  A *run* is a sequence of **segments**; each
segment builds a fresh model and pipeline/server, serves a fixed number
of ticks, and is timed from the stamps its sources take on every pull:

* vehicle workloads — sample *i* is the gap between pull *i* and pull
  *i + 1* (the last one closes when ``run()`` returns);
* fleet workloads — one sample per camera period: the gap between two
  pulls of the reference stream ``s0`` divided by the frames pulled
  fleet-wide in that gap.

The first ``warmup`` ticks of every segment are set-up, not samples.  Tick
counts per segment are fixed, so the seeded counts (steps, accuracy,
checkpoints, resets ...) must repeat exactly from segment to segment;
only the *number* of segments follows the clock (``--seconds``).  A run's
first segment starts from an empty ``$REPRO_CGEN_CACHE`` and defines
``setup_s``; later ``cgen`` segments load the ``.so`` files it compiled.

**Reference-host time.**  The sizing host is a 2-vCPU slice of a shared
machine whose speed swings by up to 2x for minutes at a time, far more
than any bound a benchmark could usefully carry.  So the reference
stream's source also runs a fixed :class:`Yardstick` kernel about every
100 ms, *between* two frames (time inside the source is never part of a
sample); one reading is the time it took over the time it takes on the
reference host.  Every tick's time is divided by the *host speed* around
it, the median of the readings within :data:`YARD_WINDOW_S` of the tick.
What the benchmark reports is therefore the time the work would have
taken on the reference host; the wall-clock values and the factor are
printed beside it.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.adapt import LDBNAdapt, LDBNAdaptConfig
from repro.data import ScenarioStream, get_scenario
from repro.data.benchmarks import make_benchmark
from repro.engine import compile_model
from repro.engine.backends.cgen import PARITY_ATOL, PARITY_RTOL, find_cc
from repro.experiments.config import RUN_SCALES
from repro.experiments.fig2_accuracy import train_source_model
from repro.hw.deadline import DEADLINE_30FPS_MS
from repro.hw.device import get_power_mode
from repro.hw.roofline import ld_bn_adapt_latency
from repro.models.registry import build_model, get_config
from repro.nn.serialization import load_checkpoint, save_checkpoint
from repro.pipeline.realtime import PipelineConfig, RealTimePipeline
from repro.serve import (
    AdmissionConfig,
    CheckpointConfig,
    DriftResetConfig,
    FaultSchedule,
    FleetConfig,
    FleetServer,
    MigrationConfig,
)

import spans as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: everything the benchmark writes lives here (ignored by git): trained
#: fixture models, per-run temp dirs, suite results
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")

#: BLAS threads == cgen kernel-pool width (set by run.prepare_process)
THREADS = int(os.environ["OPENBLAS_NUM_THREADS"])
#: frames rendered per stream, cycled by the sources
POOL_FRAMES = 128
#: frames compared against the eager oracle before anything is timed
ORACLE_FRAMES = 8
#: compiled-vs-eager BN state after one step: the repo's own numpy bar
#: (bench_adapt) and its float band for C-rendered forwards
STATE_ATOL = {"numpy": 1e-9, "cgen": 1e-6}
#: the reference stream's source runs the yardstick when this much time
#: has passed since the last reading (~2 % of the run)
YARD_PERIOD_S = 0.1
#: a tick's host speed is the median of the readings taken within this
#: many seconds of it: ~20 readings, and short against the seconds-long
#: swings of the host
YARD_WINDOW_S = 1.0

#: the abbreviated ``small`` scale the source model of the two
#: compute-bound workloads is trained at (fixture time, once per checkout)
SMALL_FIXTURE_SCALE = dataclasses.replace(
    RUN_SCALES["small"], source_frames=96, train_epochs=3
)
FIXTURE_SCALES = {"tiny-r18": RUN_SCALES["tiny"], "small-r18": SMALL_FIXTURE_SCALE}


@dataclass(frozen=True)
class Workload:
    """One row of the workload table (see README.md for the reasons)."""

    name: str
    kind: str  # "vehicle" | "fleet"
    preset: str
    backend: str
    scenarios: Tuple[str, ...]  # one frame pool per stream
    adapt_batch: int  # LDBNAdapt batch size
    ticks: int  # frames (vehicle) / camera periods (fleet) per segment
    warmup: int  # leading ticks of a segment excluded from the samples
    infer_batch: int  # batch shape the oracle check replays

    @property
    def threads(self) -> Optional[int]:
        return THREADS if self.backend != "numpy" else None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("vehicle_b1", "vehicle", "small-r18", "cgen",
                 ("night_cut",), 1, ticks=180, warmup=20, infer_batch=1),
        Workload("vehicle_b4", "vehicle", "tiny-r18", "numpy",
                 ("fog_glare",), 4, ticks=1300, warmup=20, infer_batch=1),
        Workload("fleet_lockstep", "fleet", "small-r18", "cgen",
                 ("night_cut",) * 4, 1, ticks=70, warmup=5, infer_batch=4),
        Workload("fleet_churn", "fleet", "tiny-r18", "numpy",
                 ("night_cut", "tunnel_strobe", "fog_glare",
                  "steady_highway", "night_cut", "tunnel_strobe"),
                 1, ticks=190, warmup=5, infer_batch=1),
    )
}


def fleet_setup(spec: Workload, seed: int, ticks: int, ckpt_dir: str):
    """``(FleetConfig, device pool)`` of a fleet workload."""
    if spec.name == "fleet_lockstep":
        # 4 hardware-synced 10 FPS cameras on one device: every period is
        # one batch-4 forward plus one fused adaptation group of 2
        config = FleetConfig(
            latency_model="orin",
            frame_period_ms=100.0,
            deadline_ms=100.0,
            adapt_stride=2,
            backend=spec.backend,
            threads=spec.threads,
            arrival_seed=seed,
        )
        return config, [get_power_mode("orin-60w")]
    # fleet_churn: the control plane with writes beside reads
    horizon_ms = ticks * DEADLINE_30FPS_MS
    config = FleetConfig(
        latency_model="orin",
        jitter_ms=8.0,
        drop_rate=0.01,
        phase_spread_ms=2.0,
        admission=AdmissionConfig(),
        migration=MigrationConfig(),
        checkpoint=CheckpointConfig(interval_frames=8, mode="sync", dir=ckpt_dir),
        drift=DriftResetConfig(),
        faults=FaultSchedule.parse(
            f"crash@{0.4 * horizon_ms:.0f}:0,join@{0.6 * horizon_ms:.0f}:orin-30w"
        ),
        backend=spec.backend,
        arrival_seed=seed,
    )
    return config, [get_power_mode("orin-60w")] * 3


# ----------------------------------------------------------------------
# fixtures: trained source models (once per checkout) and frame pools
# ----------------------------------------------------------------------
def fixture_path(preset: str) -> str:
    scale = FIXTURE_SCALES[preset]
    return os.path.join(
        BUILD_DIR, "fixtures",
        f"{preset}-f{scale.source_frames}-e{scale.train_epochs}.npz",
    )


def build_fixtures() -> None:
    """Train and save every missing source model (run in a child process,
    so training never counts toward a workload's ``peak_rss_mb``)."""
    for preset, scale in FIXTURE_SCALES.items():
        path = fixture_path(preset)
        if os.path.exists(path):
            continue
        benchmark = make_benchmark(
            "molane", get_config(preset), source_frames=scale.source_frames,
            target_train_frames=2, target_test_frames=2, seed=scale.seed,
        )
        save_checkpoint(path, train_source_model(benchmark, "r18", scale))


def ensure_fixtures() -> float:
    """Seconds spent building fixtures (0.0 when the checkout has them)."""
    if all(os.path.exists(fixture_path(p)) for p in FIXTURE_SCALES):
        return 0.0
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--build-fixtures"],
        check=True, stdout=sys.stderr,
    )
    return time.perf_counter() - start


def load_state(preset: str) -> Dict[str, np.ndarray]:
    state, _ = load_checkpoint(fixture_path(preset))
    return state


def fresh_model(spec: Workload, state: Dict[str, np.ndarray]):
    model = build_model(spec.preset, num_lanes=2)  # MoLane label space
    model.load_state_dict(state)
    model.eval()
    return model


def render_pools(spec: Workload, seed: int) -> List[list]:
    config = get_config(spec.preset, num_lanes=2)
    return [
        ScenarioStream(
            get_scenario(name), config, seed=seed, stream_id=f"s{i}",
            horizon=POOL_FRAMES,
        ).take(POOL_FRAMES).samples
        for i, name in enumerate(spec.scenarios)
    ]


class Yardstick:
    """A fixed kernel whose run time tells how fast the host is right now.

    One pass does a little of each thing the program spends its time on,
    so that the neighbours' load slows it by about the same factor as the
    workloads (elasticity of a workload's frame time to the yardstick's
    0.9-1.2 on the sizing host, run-level correlation 0.9-1.0): bursts of
    small-array numpy calls whose cost is all interpreter and dispatch,
    threaded BLAS GEMMs, and a memory-streaming elementwise chain with
    fresh allocations.  The inputs are constants: ``--seed`` never reaches
    them, and no code is shared with ``src/``.
    """

    #: what one pass takes on the reference host: a round number in the
    #: middle of the sizing host's range (1.5 ms in fair weather, 2.5 ms
    #: and more in foul)
    REF_S = 2.0e-3

    def __init__(self):
        rng = np.random.default_rng(20230711)
        self.small = [rng.standard_normal((16, 64)).astype(np.float32) for _ in range(4)]
        self.gemm_a = rng.standard_normal((64, 576)).astype(np.float32)
        self.gemm_b = rng.standard_normal((576, 400)).astype(np.float32)
        self.stream = rng.standard_normal(200_000).astype(np.float32)

    def __call__(self) -> float:
        """Run one pass; the seconds it took over the reference host's,
        i.e. the host speed this one reading saw."""
        start = time.perf_counter()
        a, b, c, d = self.small
        for _ in range(72):
            t = a * b
            t += c
            np.maximum(t, 0, out=t)
            (t - t.mean(axis=0)) * d
        for _ in range(3):
            self.gemm_a @ self.gemm_b
        y = self.stream * 1.01
        y += self.stream
        np.maximum(y, 0, out=y)
        y.sum()
        return (time.perf_counter() - start) / self.REF_S


YARDSTICK = Yardstick()


class StampedSource:
    """Benchmark-owned frame source: cycles a pre-rendered pool and
    stamps ``perf_counter()`` when a pull enters and when it leaves.

    Whatever the program did for pull *i* lies between ``stamps[i]`` (the
    frame is handed over) and ``entered[i + 1]`` (it asks for the next
    one); time inside the source — the yardstick of the reference stream
    above all — is in no sample.  Each frame leaves with ``timestamp``
    set to its pull index, so the records a run reports can be matched to
    the frames that were offered.
    """

    def __init__(self, pool: Sequence, warmup: int,
                 yardstick: Optional[Yardstick] = None, tracer=None):
        self.pool = pool
        self.warmup = warmup
        self.yardstick = yardstick
        self.tracer = tracer
        self.entered: List[float] = []
        self.stamps: List[float] = []
        self.yard: List[Tuple[int, float]] = []  # (pull index, host speed)
        self.next_yard = 0.0
        self.cpu_at_window = 0.0
        self.yard_s = 0.0  # yardstick wall and CPU time inside the
        self.yard_cpu_s = 0.0  # timed window

    def __iter__(self):
        return self

    def __next__(self):
        now = time.perf_counter()
        index = len(self.stamps)
        self.entered.append(now)
        if self.tracer is not None:
            self.tracer.end_tick(now)
        if index == self.warmup:
            self.cpu_at_window = time.process_time()
        if self.yardstick is not None and now >= self.next_yard:
            cpu = time.process_time()
            self.yard.append((index, self.yardstick()))
            self.next_yard = time.perf_counter() + YARD_PERIOD_S
            if index >= self.warmup:
                self.yard_cpu_s += time.process_time() - cpu
                self.yard_s += self.next_yard - YARD_PERIOD_S - now
        now = time.perf_counter()
        self.stamps.append(now)
        if self.tracer is not None:
            self.tracer.mark(now, index)
        return dataclasses.replace(
            self.pool[index % len(self.pool)], timestamp=float(index)
        )

    def gaps(self, end: float) -> np.ndarray:
        """Seconds the program held each pull; the last closes at ``end``."""
        return np.asarray(self.entered[1:] + [end]) - np.asarray(self.stamps)

    def setup_s(self, start: float) -> float:
        """Seconds from ``start`` to the pull that opens the timed window,
        less what the warm-up pulls spent inside the source."""
        inside = np.asarray(self.stamps[:self.warmup]) - np.asarray(self.entered[:self.warmup])
        return self.entered[self.warmup] - start - float(inside.sum())

    def readings(self) -> List[float]:
        """Yardstick readings of the timed window (of the whole segment,
        if the window was too short for one)."""
        window = [speed for i, speed in self.yard if i >= self.warmup]
        return window or [speed for _, speed in self.yard]

    def speeds(self) -> np.ndarray:
        """Host speed around each tick of the timed window: the median of
        the yardstick readings taken within ``YARD_WINDOW_S`` of the
        tick's start (of the three nearest, if fewer were)."""
        at = np.asarray([self.stamps[i] for i, _ in self.yard])
        read = np.asarray([speed for _, speed in self.yard])
        out = []
        for tick in self.stamps[self.warmup:]:
            lo, hi = np.searchsorted(at, (tick - YARD_WINDOW_S, tick + YARD_WINDOW_S))
            near = read[lo:hi] if hi - lo >= 3 else read[np.argsort(np.abs(at - tick))[:3]]
            out.append(np.median(near))
        return np.asarray(out)


# ----------------------------------------------------------------------
# one segment
# ----------------------------------------------------------------------
@dataclass
class Segment:
    """One segment as the wall clock saw it, and the host speeds that
    turn its times into reference-host time."""

    warmup: int  # first tick of the timed window
    gaps_s: np.ndarray  # wall time the program held each tick of the window
    tick_frames: np.ndarray  # frames pulled fleet-wide in each (vehicle: 1)
    speeds: np.ndarray  # host speed around each tick
    readings: List[float]  # the window's yardstick readings (host speeds)
    yard_s: float  # wall time they took
    setup_s: float
    window_frames: float  # frames served inside the window
    window_cpu_s: float
    offered: int
    unaccounted: int  # offered - served - arrival-dropped - crash-dropped
    crash_dropped: int
    counts: Dict[str, float]  # seeded: must repeat from segment to segment
    extras: Dict[str, float]  # report facts only the per-layer metrics use
    problems: List[str]
    cold: bool = True  # started from an empty .so cache (numpy: always)
    # filled by run_segment for a traced segment
    traced: bool = False
    spans: List[list] = field(default_factory=list)
    plans: List[object] = field(default_factory=list)  # compiled while traced

    @property
    def host_speed(self) -> float:
        """The window's median yardstick reading: what set-up, CPU time
        and spans are divided by."""
        return float(np.median(self.readings))

    @property
    def window_s(self) -> float:
        """Wall time of the timed window."""
        return float(self.gaps_s.sum())

    def samples_ms(self, reference_host: bool = True) -> np.ndarray:
        """Time per frame served, one sample per tick."""
        gaps = self.gaps_s / self.speeds if reference_host else self.gaps_s
        return 1e3 * gaps / np.maximum(self.tick_frames, 1)


def _mean_file_kb(directory: str) -> float:
    """Mean size of the checkpoint archives a segment left behind."""
    if not os.path.isdir(directory):
        return 0.0
    sizes = [entry.stat().st_size for entry in os.scandir(directory)]
    return sum(sizes) / len(sizes) / 1024.0 if sizes else 0.0


def _ordered(records, label: str, problems: List[str]) -> None:
    """Served frames of one stream: pull indices strictly increasing."""
    stamps = [r.timestamp for r in records]
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        problems.append(f"{label}: served frames out of order or served twice")


def _vehicle_segment(spec, state, pools, seed, ticks, warmup, tmp, tracer):
    model = fresh_model(spec, state)
    source = StampedSource(pools[0], warmup, YARDSTICK, tracer)
    start = time.perf_counter()
    adapter = LDBNAdapt(
        model,
        LDBNAdaptConfig(
            batch_size=spec.adapt_batch, backend=spec.backend,
            threads=spec.threads,
        ),
    )
    pipeline = RealTimePipeline(
        model, adapter,
        PipelineConfig(
            latency_model="wallclock", backend=spec.backend,
            threads=spec.threads,
        ),
    )
    report = pipeline.run(source, ticks)
    end = time.perf_counter()
    cpu_end = time.process_time()
    if tracer:
        tracer.end_tick(end)

    problems: List[str] = []
    offered = len(source.stamps)
    if offered <= warmup:
        raise RuntimeError(f"only {offered} frames pulled, warm-up is {warmup}")
    _ordered(report.frames, spec.name, problems)
    gaps = source.gaps(end)[warmup:]
    # the paper's Fig. 3 row: inference every frame plus the step on step
    # frames, priced at paper size on the modelled Orin, vs 33.3 ms
    priced = ld_bn_adapt_latency(
        get_config("paper-r18").to_spec(), get_power_mode("orin-60w"),
        spec.adapt_batch,
    )
    misses = sum(
        priced.inference_ms + (priced.adaptation_ms if f.adapted else 0.0)
        > DEADLINE_30FPS_MS
        for f in report.frames
    )
    return Segment(
        warmup=warmup,
        gaps_s=gaps,
        tick_frames=np.ones(len(gaps)),
        speeds=source.speeds(),
        readings=source.readings(),
        yard_s=source.yard_s,
        setup_s=source.setup_s(start),
        window_frames=float(report.num_frames - warmup),
        window_cpu_s=cpu_end - source.cpu_at_window - source.yard_cpu_s,
        offered=offered,
        unaccounted=offered - report.num_frames,
        crash_dropped=0,
        counts={
            "frames_served": report.num_frames,
            "adapt_steps": report.adaptation_steps,
            "sim_deadline_misses": int(misses),
            "accuracy": report.mean_accuracy,
        },
        extras={},
        problems=problems,
    )


def _fleet_segment(spec, state, pools, seed, ticks, warmup, tmp, tracer):
    model = fresh_model(spec, state)
    # the reference stream s0 opens the ticks and carries the yardstick
    sources = [StampedSource(pools[0], warmup, YARDSTICK, tracer)] + [
        StampedSource(pool, warmup) for pool in pools[1:]
    ]
    start = time.perf_counter()
    config, device_pool = fleet_setup(spec, seed, ticks, os.path.join(tmp, "ckpt"))
    server = FleetServer(
        model, config, spec=get_config("paper-r18").to_spec(),
        device_pool=device_pool,
    )
    for i, source in enumerate(sources):
        server.add_stream(f"s{i}", source)
    report = server.run(ticks)
    end = time.perf_counter()
    cpu_end = time.process_time()
    if tracer:
        tracer.end_tick(end)

    problems: List[str] = []
    reference = sources[0].stamps
    if len(reference) <= warmup:
        raise RuntimeError(
            f"reference stream pulled {len(reference)} frames, "
            f"warm-up is {warmup}"
        )
    gaps = sources[0].gaps(end)[warmup:]
    offered = served = unaccounted = crash_dropped = 0
    for i, source in enumerate(sources):
        sid = f"s{i}"
        records = report.stream_reports[sid].frames
        _ordered(records, f"{spec.name}/{sid}", problems)
        died = report.crash_dropped_frames.get(sid, 0)
        offered += len(source.stamps)
        served += len(records)
        crash_dropped += died
        unaccounted += (
            len(source.stamps) - len(records)
            - report.dropped_frames.get(sid, 0) - died
        )
    pulls = np.sort(np.concatenate([np.asarray(s.stamps) for s in sources]))
    per_gap = np.diff(np.searchsorted(pulls, reference[warmup:] + [end]))
    summary = report.summary()
    return Segment(
        warmup=warmup,
        gaps_s=gaps,
        tick_frames=per_gap,
        speeds=sources[0].speeds(),
        readings=sources[0].readings(),
        yard_s=sources[0].yard_s,
        setup_s=sources[0].setup_s(start),
        # frames pulled in the window, less the arrival model's share
        window_frames=float(per_gap.sum()) * served / max(offered, 1),
        window_cpu_s=cpu_end - sources[0].cpu_at_window - sources[0].yard_cpu_s,
        offered=offered,
        unaccounted=unaccounted,
        crash_dropped=crash_dropped,
        counts={
            "frames_served": report.total_frames,
            "adapt_steps": report.adaptation_steps,
            "sim_deadline_misses": report.deadline_misses,
            "accuracy": report.mean_accuracy,
            "arrival_dropped": report.total_dropped_frames,
            "crash_dropped": crash_dropped,
            "checkpoint_writes": report.checkpoint_writes,
            "drift_resets": report.total_drift_resets,
            "migrations": report.total_migrations,
            "crashes": int(summary["crashes"]),
            "recoveries": int(summary["recoveries"]),
            "device_joins": int(summary["device_joins"]),
            "frames_lost": report.total_frames_lost,
        },
        extras={
            "batch_mean": report.mean_batch_size,
            "grant_share": report.admission_grant_rate,
            "ckpt_kb": _mean_file_kb(os.path.join(tmp, "ckpt")),
        },
        problems=problems,
    )


def run_segment(spec: Workload, state, pools, seed: int, ticks: int,
                warmup: int, tmp: str, cache_dir: str, traced: bool) -> Segment:
    """Serve one segment; ``cache_dir`` is its ``$REPRO_CGEN_CACHE``."""
    os.environ["REPRO_CGEN_CACHE"] = cache_dir
    serve = _vehicle_segment if spec.kind == "vehicle" else _fleet_segment
    gc.collect()
    if not traced:
        return serve(spec, state, pools, seed, ticks, warmup, tmp, None)
    tracer = tracing.Tracer(
        "pipeline.frame" if spec.kind == "vehicle" else "serve.coordinator"
    )
    with tracing.installed(tracer):
        segment = serve(spec, state, pools, seed, ticks, warmup, tmp, tracer)
    segment.traced, segment.spans, segment.plans = True, tracer.spans, tracer.plans
    if tracer.nesting_errors or tracing.nesting_violations(tracer.spans):
        segment.problems.append(f"{spec.name}: spans do not nest")
    return segment


# ----------------------------------------------------------------------
# correctness: the workload's backend against the eager oracle
# ----------------------------------------------------------------------
def oracle_checks(spec: Workload, state, pool: Sequence, cache_dir: str) -> List[str]:
    """Compiled logits and post-step BN state vs eager, on real frames.

    ``numpy`` is the bitwise oracle, so its logits must match exactly;
    ``cgen`` is held to the renderer's own parity band.
    """
    os.environ["REPRO_CGEN_CACHE"] = cache_dir
    problems: List[str] = []
    bitwise = spec.backend == "numpy"
    images = np.stack([s.image for s in pool[:ORACLE_FRAMES]]).astype(np.float32)

    model = fresh_model(spec, state)
    engine = compile_model(model, backend=spec.backend, threads=spec.threads)
    for lo in range(0, ORACLE_FRAMES, spec.infer_batch):
        batch = images[lo:lo + spec.infer_batch]
        got = engine(batch).numpy().copy()
        with nn.inference_mode(False), nn.no_grad():
            want = model(nn.Tensor(batch, _copy=False)).numpy()
        same = np.array_equal(got, want) if bitwise else np.allclose(
            got, want, rtol=PARITY_RTOL["float32"], atol=PARITY_ATOL["float32"]
        )
        if not same:
            problems.append(
                f"{spec.name}: {spec.backend} logits of frames {lo}.."
                f"{lo + len(batch) - 1} differ from eager by "
                f"{float(np.abs(got - want).max()):.3g}"
            )

    states = {}
    for compiled in (True, False):
        model = fresh_model(spec, state)
        adapter = LDBNAdapt(
            model,
            LDBNAdaptConfig(
                batch_size=spec.adapt_batch, backend=spec.backend,
                threads=spec.threads,
            ),
        )
        with nn.adaptation_mode(compiled):
            adapter.adapt(images[:spec.adapt_batch])
        states[compiled] = model.state_dict()
    worst = max(
        float(np.abs(
            np.asarray(states[True][key], dtype=np.float64)
            - np.asarray(states[False][key], dtype=np.float64)
        ).max())
        for key in states[True]
    )
    if worst > STATE_ATOL["numpy" if bitwise else "cgen"]:
        problems.append(
            f"{spec.name}: BN state after one {spec.backend} step differs "
            f"from the eager step by {worst:.3g}"
        )
    return problems


# ----------------------------------------------------------------------
# one run = fixtures + oracle check + segments
# ----------------------------------------------------------------------
@dataclass
class Run:
    spec: Workload
    seed: int
    segments: List[Segment]
    problems: List[str]
    fixture_s: float
    render_ms_per_frame: float
    loadavg_start: float
    gc_collections: int
    degraded: bool  # a cgen workload that ran without a C compiler

    @property
    def untraced(self) -> List[Segment]:
        return [s for s in self.segments if not s.traced]

    @property
    def traced(self) -> List[Segment]:
        return [s for s in self.segments if s.traced]


def _gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> Run:
    """Run one workload: untraced segments until ``seconds`` of timed
    window have been measured (at least two), or — with ``trace`` — one
    traced segment on the empty ``.so`` cache, one traced on the now warm
    cache, and one untraced for the tracing overhead.
    """
    spec = WORKLOADS[name]
    loadavg = os.getloadavg()[0]
    fixture_s = ensure_fixtures()
    state = load_state(spec.preset)
    ticks = max(int(round(spec.ticks * scale)), 8)
    warmup = min(spec.warmup, ticks // 3)

    start = time.perf_counter()
    pools = render_pools(spec, seed)
    render_ms = 1e3 * (time.perf_counter() - start) / (POOL_FRAMES * len(pools))

    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(BUILD_DIR, "tmp"))
    gc_before = _gc_collections()
    segments: List[Segment] = []
    problems: List[str] = []
    traced_plan = (True, True, False)
    cache_dir = os.path.join(tmp, "cgen")
    try:
        while True:
            index = len(segments)
            if trace:
                if index == len(traced_plan):
                    break
                traced = traced_plan[index]
            else:
                if index >= 2 and sum(s.window_s for s in segments) >= seconds:
                    break
                traced = False
            seg_tmp = os.path.join(tmp, f"seg-{index}")
            os.makedirs(seg_tmp)
            try:
                segments.append(
                    run_segment(spec, state, pools, seed, ticks, warmup,
                                seg_tmp, cache_dir, traced)
                )
                # only a run's first cgen segment compiles C; the later
                # ones load its .so cache and lengthen the timed window
                segments[-1].cold = index == 0 or spec.backend == "numpy"
            except Exception:  # the run must still report what failed
                traceback.print_exc()
                problems.append(f"{name}: segment {index} raised")
                break
            problems.extend(segments[-1].problems)
        if segments:
            problems.extend(oracle_checks(spec, state, pools[0], cache_dir))
            first = segments[0].counts
            for k, segment in enumerate(segments[1:], start=1):
                if segment.counts != first:
                    problems.append(
                        f"{name}: seeded counts of segment {k} differ from "
                        f"segment 0: {segment.counts} vs {first}"
                    )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return Run(
        spec=spec, seed=seed, segments=segments, problems=problems,
        fixture_s=fixture_s, render_ms_per_frame=render_ms,
        loadavg_start=loadavg,
        gc_collections=_gc_collections() - gc_before,
        degraded=spec.backend != "numpy" and find_cc() is None,
    )


def clocks(segments: Sequence[Segment], reference_host: bool = True) -> Dict[str, float]:
    """Frame clocks of ``segments``, samples pooled: in reference-host
    time (every tick divided by the host speed around it) or, with
    ``reference_host=False``, as the wall clock read them."""
    samples = np.concatenate([s.samples_ms(reference_host) for s in segments])
    window_s = sum(
        float((s.gaps_s / s.speeds).sum()) if reference_host else s.window_s
        for s in segments
    )
    return {
        "frame_ms_p50": float(np.percentile(samples, 50)),
        "frame_ms_p95": float(np.percentile(samples, 95)),
        "frames_per_s": sum(s.window_frames for s in segments) / window_s,
        "samples": float(len(samples)),
    }


def end_to_end(run: Run) -> Dict[str, float]:
    """The end-to-end metrics: clocks in reference-host time, always from
    the untraced segments (``setup_s`` from every cold one)."""
    counts = run.untraced[0].counts
    offered = sum(s.offered for s in run.segments)
    lost = sum(s.unaccounted + s.crash_dropped for s in run.segments)
    return {
        **clocks(run.untraced),
        "setup_s": float(np.median(
            [s.setup_s / s.host_speed for s in run.segments if s.cold])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "online_accuracy": float(counts["accuracy"]),
        "adapt_steps_per_frame": counts["adapt_steps"] / counts["frames_served"],
        "sim_deadline_miss_share": counts["sim_deadline_misses"]
        / counts["frames_served"],
        "failed_share": 1.0 if run.problems else lost / max(offered, 1),
    }
