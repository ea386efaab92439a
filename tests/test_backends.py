"""The plan-backend layer: registry, C renderer parity, and fallback.

The contract under test ("parity is structural"): whatever subset of a
plan's stages the ``cgen`` backend renders to C, replaying the plan
yields the numpy lowering's answer — bitwise under ``cgen-strict``,
inside the float band under ``cgen`` — and when no C compiler exists the
whole plan silently (well, with one RuntimeWarning) degrades to the
numpy closures.  A hypothesis sweep drives random layer stacks and
dtypes through both parity modes against the numpy oracle; directed
tests cover the live-BN rebind after adaptation, per-sample fleet
overrides, the on-disk ``.so`` cache (which must satisfy loads *before*
looking for a compiler), profile labeling, and the config-level backend
validation in the serving and pipeline layers.
"""

import ctypes
import gc
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import nn
from repro.adapt.bn_adapt import LDBNAdapt, LDBNAdaptConfig
from repro.engine import CompiledAdaptStep, compile_model
from repro.engine.backends import (
    PARITY_ATOL,
    PARITY_RTOL,
    CGenBackend,
    CGenConfig,
    NumpyBackend,
    available_backends,
    find_cc,
    get_backend,
    resolve_backend,
    resolve_threads,
    tile_bounds,
)
from repro.engine.backends import cgen
from repro.engine.backends.core import lower_conv
from repro.engine.backends.threading import ENV_THREADS, MAX_THREADS
from repro.nn import functional as F
from repro.pipeline.realtime import PipelineConfig
from repro.serve.server import FleetConfig

HAVE_CC = find_cc() is not None
needs_cc = pytest.mark.skipif(HAVE_CC is False, reason="no C compiler")


def _band(dtype):
    name = np.dtype(dtype).name
    return dict(
        rtol=PARITY_RTOL.get(name, 1e-9), atol=PARITY_ATOL.get(name, 1e-12)
    )


def _fresh_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CGEN_CACHE", str(tmp_path / "cgen-cache"))


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_registered_names(self):
        names = available_backends()
        for name in ("numpy", "cgen", "cgen-strict"):
            assert name in names

    def test_get_backend_unknown_lists_choices(self):
        with pytest.raises(ValueError, match="numpy"):
            get_backend("fortran")

    def test_get_backend_is_singleton(self):
        assert get_backend("cgen") is get_backend("cgen")

    def test_resolve_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert isinstance(resolve_backend(None), NumpyBackend)

    def test_resolve_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cgen")
        assert isinstance(resolve_backend(None), CGenBackend)

    def test_resolve_passes_instances_through(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend

    def test_strict_registration_sets_parity(self):
        assert get_backend("cgen-strict").parity == "strict"
        assert get_backend("cgen").parity == "band"


# ---------------------------------------------------------------------------
# property sweep: random stacks, both parity modes, vs the numpy oracle

_LAYERS = st.sampled_from(["conv", "conv_bn_relu", "maxpool", "relu"])


def _build_stack(draw, in_ch, rng):
    layers, ch = [], in_ch
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(_LAYERS)
        if kind == "conv":
            out = draw(st.sampled_from([3, 4, 8]))
            k = draw(st.sampled_from([1, 3]))
            layers.append(
                nn.Conv2d(ch, out, k, padding=k // 2, bias=draw(st.booleans()),
                          rng=rng)
            )
            ch = out
        elif kind == "conv_bn_relu":
            out = draw(st.sampled_from([4, 8]))
            layers += [
                nn.Conv2d(ch, out, 3, padding=1, bias=False, rng=rng),
                nn.BatchNorm2d(out),
                nn.ReLU(),
            ]
            ch = out
        elif kind == "maxpool":
            layers.append(nn.MaxPool2d(2))
        else:
            layers.append(nn.ReLU())
    return nn.Sequential(*layers)


@needs_cc
class TestParitySweep:
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_band_and_strict_vs_numpy_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        in_ch = data.draw(st.sampled_from([1, 3]))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        model = _build_stack(data.draw, in_ch, rng)
        model.eval()
        x = rng.standard_normal((2, in_ch, 8, 12)).astype(dtype)

        oracle = compile_model(model)(x).numpy()
        band = compile_model(model, backend="cgen")(x).numpy()
        strict = compile_model(model, backend="cgen-strict")(x).numpy()

        np.testing.assert_allclose(band, oracle, **_band(oracle.dtype))
        assert np.array_equal(strict, oracle), (
            "cgen-strict must be bitwise-identical to the numpy lowering"
        )

    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_linear_head(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        fin = data.draw(st.sampled_from([7, 32]))
        model = nn.Sequential(
            nn.Linear(fin, 5, bias=data.draw(st.booleans()), rng=rng),
            nn.ReLU(),
        )
        model.eval()
        x = rng.standard_normal((3, fin))
        oracle = compile_model(model)(x).numpy()
        band = compile_model(model, backend="cgen")(x).numpy()
        strict = compile_model(model, backend="cgen-strict")(x).numpy()
        np.testing.assert_allclose(band, oracle, **_band(oracle.dtype))
        assert np.array_equal(strict, oracle)


# ---------------------------------------------------------------------------
# directed parity: live BN state, per-sample overrides, adaptation


def _bn_model(rng):
    model = nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.Conv2d(8, 4, 1, rng=rng),
    )
    model.eval()
    return model


@needs_cc
class TestLiveBNBinding:
    def test_parity_survives_bn_adaptation(self, rng):
        """No retrace/recompile: the SAME cgen plan must track BN
        rewrites because the fold vectors are runtime pointer-table
        arguments, not baked constants."""
        model = _bn_model(rng)
        eng_np = compile_model(model)
        eng_c = compile_model(model, backend="cgen")
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        eng_c(x)  # compile once, before adaptation
        plan = eng_c.plan_for(x.shape, x.dtype)
        assert plan.backend_info["rendered"] > 0

        adapter = LDBNAdapt(model, LDBNAdaptConfig(batch_size=1))
        for _ in range(2):
            adapter.adapt(rng.standard_normal((1, 3, 8, 12)).astype(np.float32))
        model.eval()

        np.testing.assert_allclose(
            eng_c(x).numpy(), eng_np(x).numpy(), **_band(np.float32)
        )
        # still the same compiled plan — no recompile happened
        assert eng_c.plan_for(x.shape, x.dtype) is plan

    def test_per_sample_override_parity(self, rng):
        model = _bn_model(rng)
        eng_np = compile_model(model)
        eng_c = compile_model(model, backend="cgen")
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        eng_c(x)

        bn = next(m for m in model.modules() if isinstance(m, nn.BatchNorm2d))
        scale = rng.uniform(0.5, 2.0, size=(2, 8))
        shift = rng.uniform(-1.0, 1.0, size=(2, 8))
        try:
            bn.per_sample_stats = (scale, shift)
            np.testing.assert_allclose(
                eng_c(x).numpy(), eng_np(x).numpy(), **_band(np.float32)
            )
        finally:
            bn.per_sample_stats = None
        # and the plan recovers the shared-stats path afterwards
        np.testing.assert_allclose(
            eng_c(x).numpy(), eng_np(x).numpy(), **_band(np.float32)
        )

    def test_adaptation_step_through_cgen_backend(self, rng):
        """CompiledAdaptStep with C-rendered forwards lands on the same
        post-step state as the numpy-compiled step, to the float band."""
        states = {}
        for backend in ("numpy", "cgen"):
            model = _bn_model(np.random.default_rng(7))
            adapter = LDBNAdapt(
                model, LDBNAdaptConfig(batch_size=1, backend=backend)
            )
            frames = np.random.default_rng(8)
            for _ in range(2):
                adapter.adapt(
                    frames.standard_normal((1, 3, 8, 12)).astype(np.float32)
                )
            states[backend] = model.state_dict()
        for key in states["numpy"]:
            np.testing.assert_allclose(
                np.asarray(states["cgen"][key], dtype=np.float64),
                np.asarray(states["numpy"][key], dtype=np.float64),
                rtol=1e-6, atol=1e-7,
            )


# ---------------------------------------------------------------------------
# fallback + cache


class TestFallback:
    def test_no_compiler_falls_back_to_numpy(self, rng, monkeypatch, tmp_path):
        _fresh_cache(monkeypatch, tmp_path)
        monkeypatch.setenv("REPRO_CC", "/nonexistent-compiler")
        model = _bn_model(rng)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        oracle = compile_model(model)(x).numpy()

        eng_c = compile_model(model, backend=CGenBackend())
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            out = eng_c(x).numpy()
        info = eng_c.plan_for(x.shape, x.dtype).backend_info
        assert info["rendered"] == 0
        assert info["fallback_reason"]
        assert np.array_equal(out, oracle), (
            "the fallback runs the numpy closures, so it is bitwise"
        )

    def test_find_cc_env_override_has_no_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent-compiler")
        assert find_cc() is None

    @needs_cc
    def test_so_cache_satisfies_loads_before_compiler_lookup(
        self, rng, monkeypatch, tmp_path
    ):
        """Compile once, then load the cached .so on a host with no
        compiler: fleets ship the cache, not a toolchain."""
        _fresh_cache(monkeypatch, tmp_path)
        model = _bn_model(rng)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        first = compile_model(model, backend=CGenBackend())
        first(x)
        info = first.plan_for(x.shape, x.dtype).backend_info
        assert info["rendered"] > 0 and info["cache_hit"] is False

        monkeypatch.setenv("REPRO_CC", "/nonexistent-compiler")
        second = compile_model(model, backend=CGenBackend())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any fallback warning fails
            out = second(x).numpy()
        info = second.plan_for(x.shape, x.dtype).backend_info
        assert info["rendered"] > 0 and info["cache_hit"] is True
        np.testing.assert_allclose(
            out, compile_model(model)(x).numpy(), **_band(np.float32)
        )


# ---------------------------------------------------------------------------
# observability + config plumbing


@needs_cc
class TestProfileAndInfo:
    def test_profile_tags_backend_and_rendered_stages(self, rng):
        model = _bn_model(rng)
        engine = compile_model(model, profile=True, backend="cgen")
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        engine(x)
        plan = engine.plan_for(x.shape, x.dtype)
        summary = plan.profile.summary()
        assert summary["backend"] == "cgen"
        assert any(label.startswith("cgen:") for label in summary["op_ms"])

    def test_backend_info_shape(self, rng):
        model = _bn_model(rng)
        engine = compile_model(model, backend="cgen")
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        engine(x)
        info = engine.plan_for(x.shape, x.dtype).backend_info
        assert info["backend"] == "cgen" and info["parity"] == "band"
        assert info["offered"] >= info["rendered"] > 0
        assert info["so"] and info["fallback_reason"] is None

    def test_numpy_plan_info(self, rng):
        model = _bn_model(rng)
        engine = compile_model(model)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        engine(x)
        assert engine.plan_for(x.shape, x.dtype).backend_info == {
            "backend": "numpy"
        }


class TestConfigValidation:
    def test_fleet_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="plan backend"):
            FleetConfig(backend="fortran")

    def test_fleet_config_accepts_registered_backends(self):
        assert FleetConfig(backend="cgen").backend == "cgen"

    def test_pipeline_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="plan backend"):
            PipelineConfig(backend="fortran")

    def test_pipeline_config_accepts_registered_backends(self):
        assert PipelineConfig(backend="cgen-strict").backend == "cgen-strict"

    def test_thread_counts_validated_when_set(self):
        with pytest.raises(ValueError, match="threads"):
            FleetConfig(threads=0)
        with pytest.raises(ValueError, match="threads"):
            PipelineConfig(threads=0)
        with pytest.raises(ValueError, match="threads"):
            LDBNAdaptConfig(threads=0)
        assert FleetConfig(threads=2).threads == 2
        assert PipelineConfig().threads is None  # default: single-thread


# ---------------------------------------------------------------------------
# worker-pool plumbing: resolution chain, tile ownership, config


class TestThreadingUnits:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "4")
        assert resolve_threads(2) == 2

    def test_env_beats_device_and_host(self, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "3")
        assert resolve_threads(None, device_cores=8) == 3

    def test_device_cores_beat_host_count(self, monkeypatch):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        assert resolve_threads(None, device_cores=6) == 6

    def test_host_fallback_is_positive(self, monkeypatch):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        assert resolve_threads() >= 1

    def test_clamped_to_sane_range(self, monkeypatch):
        monkeypatch.delenv(ENV_THREADS, raising=False)
        assert resolve_threads(10_000) == MAX_THREADS
        assert resolve_threads(0) == 1
        assert resolve_threads(-3) == 1

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "many")
        with pytest.raises(ValueError, match=ENV_THREADS):
            resolve_threads()

    @given(
        total=st.integers(0, 200),
        nt=st.integers(1, 16),
    )
    @settings(max_examples=50, deadline=None)
    def test_tile_bounds_partition_exactly(self, total, nt):
        """Tiles are contiguous, non-overlapping, and exhaustive — the
        property the deterministic-reduction rule rests on."""
        cursor = 0
        for tid in range(nt):
            lo, hi = tile_bounds(total, tid, nt)
            assert lo == cursor and lo <= hi
            cursor = hi
        assert cursor == total

    def test_more_threads_than_rows_leaves_empty_tiles(self):
        spans = [tile_bounds(2, t, 8) for t in range(8)]
        assert sum(hi - lo for lo, hi in spans) == 2
        assert sum(1 for lo, hi in spans if hi > lo) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError, match="parity"):
            CGenConfig(parity="fast")
        with pytest.raises(ValueError, match="threads"):
            CGenConfig(threads=0)
        assert CGenConfig().threads is None

    def test_backend_exposes_its_config(self):
        backend = CGenBackend(parity="strict", threads=3)
        assert backend.config == CGenConfig(parity="strict", threads=3)
        assert backend.threads == 3 and backend.name == "cgen-strict"


# ---------------------------------------------------------------------------
# threaded parity: random stacks and thread counts vs the numpy oracle


@needs_cc
class TestThreadedParity:
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_band_and_strict_at_random_widths(self, data):
        """Odd spatial shapes (P not divisible by the tile count,
        single-row outputs) across pool widths 2..6: band stays in the
        float band, strict stays bitwise."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        nt = data.draw(st.integers(2, 6))
        in_ch = data.draw(st.sampled_from([1, 3]))
        h = data.draw(st.sampled_from([1, 5, 9]))
        w = data.draw(st.sampled_from([3, 7, 13]))
        model = _build_stack(data.draw, in_ch, rng)
        model.eval()
        x = rng.standard_normal((2, in_ch, h, w)).astype(np.float32)

        try:
            oracle = compile_model(model)(x).numpy()
        except ValueError:
            # stacked max-pools collapsed the tiny spatial extent to 0
            assume(False)
        band = compile_model(
            model, backend=CGenBackend(threads=nt)
        )(x).numpy()
        strict = compile_model(
            model, backend=CGenBackend(parity="strict", threads=nt)
        )(x).numpy()

        np.testing.assert_allclose(band, oracle, **_band(oracle.dtype))
        assert np.array_equal(strict, oracle), (
            f"cgen-strict must stay bitwise at {nt} threads"
        )

    def test_strict_is_invariant_across_thread_counts(self, rng):
        """Fixed tile ownership, no shared accumulators: the strict
        kernels return the same bits at every pool width."""
        model = _bn_model(rng)
        x = rng.standard_normal((2, 3, 9, 13)).astype(np.float32)
        outs = [
            compile_model(
                model, backend=CGenBackend(parity="strict", threads=nt)
            )(x).numpy()
            for nt in (1, 2, 5)
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_threaded_run_is_deterministic(self, rng):
        model = _bn_model(rng)
        engine = compile_model(model, backend=CGenBackend(threads=3))
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        first = engine(x).numpy().copy()
        for _ in range(3):
            assert np.array_equal(engine(x).numpy(), first)

    def test_backend_info_reports_pool(self, rng):
        model = _bn_model(rng)
        engine = compile_model(model, backend=CGenBackend(threads=2))
        x = rng.standard_normal((2, 3, 16, 40)).astype(np.float32)
        engine(x)
        info = engine.plan_for(x.shape, x.dtype).backend_info
        assert info["threads"] == 2 and info["pool_width"] == 2
        assert info["mt_stages"] >= 0  # small stages may all run inline


# ---------------------------------------------------------------------------
# pool lifecycle: shared refcount, teardown on plan drop


def _pool_refs(so_path):
    probe = ctypes.CDLL(so_path)  # same dlopen handle: globals shared
    fn = probe.repro_pool_refs
    fn.restype = ctypes.c_longlong
    return int(fn())


@needs_cc
class TestPoolLifecycle:
    def test_shared_so_shares_one_pool(self, rng, monkeypatch, tmp_path):
        """Two plans loading the same cached .so take references on ONE
        pool; the workers are joined when the last plan dies."""
        _fresh_cache(monkeypatch, tmp_path)
        model = _bn_model(rng)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)

        eng_a = compile_model(model, backend=CGenBackend(threads=2))
        eng_a(x)
        info_a = eng_a.plan_for(x.shape, x.dtype).backend_info
        assert info_a["rendered"] > 0
        so = info_a["so"]
        assert _pool_refs(so) == 1

        eng_b = compile_model(model, backend=CGenBackend(threads=2))
        eng_b(x)
        info_b = eng_b.plan_for(x.shape, x.dtype).backend_info
        assert info_b["so"] == so and info_b["cache_hit"] is True
        assert _pool_refs(so) == 2

        del eng_b
        gc.collect()
        assert _pool_refs(so) == 1

        out = eng_a(x).numpy()  # survivor still runs after sibling died
        assert np.all(np.isfinite(out))
        del eng_a
        gc.collect()
        assert _pool_refs(so) == 0

    def test_single_thread_plan_holds_reference_without_workers(
        self, rng, monkeypatch, tmp_path
    ):
        _fresh_cache(monkeypatch, tmp_path)
        model = _bn_model(rng)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        engine = compile_model(model, backend=CGenBackend(threads=1))
        engine(x)
        info = engine.plan_for(x.shape, x.dtype).backend_info
        assert info["pool_width"] == 1
        assert _pool_refs(info["so"]) == 1
        so = info["so"]
        del engine
        gc.collect()
        assert _pool_refs(so) == 0


# ---------------------------------------------------------------------------
# cache: thread-variant keying + corrupted-artifact recovery


@needs_cc
class TestThreadVariantCache:
    def test_thread_counts_key_distinct_artifacts(
        self, rng, monkeypatch, tmp_path
    ):
        """POOL_NT is baked into the TU, so each width must compile to
        its own .so — a 1-thread plan can never load a 4-thread pool."""
        _fresh_cache(monkeypatch, tmp_path)
        model = _bn_model(rng)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        paths = {}
        for nt in (1, 2):
            engine = compile_model(model, backend=CGenBackend(threads=nt))
            engine(x)
            info = engine.plan_for(x.shape, x.dtype).backend_info
            assert info["rendered"] > 0
            paths[nt] = info["so"]
        assert paths[1] != paths[2]

    def test_same_width_hits_cache(self, rng, monkeypatch, tmp_path):
        _fresh_cache(monkeypatch, tmp_path)
        model = _bn_model(rng)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        first = compile_model(model, backend=CGenBackend(threads=2))
        first(x)
        assert first.plan_for(x.shape, x.dtype).backend_info[
            "cache_hit"
        ] is False
        second = compile_model(model, backend=CGenBackend(threads=2))
        second(x)
        info = second.plan_for(x.shape, x.dtype).backend_info
        assert info["cache_hit"] is True
        assert info["so"] == first.plan_for(x.shape, x.dtype).backend_info["so"]

    # compiles the reference model below in a *child* process so the
    # artifact lands in the cache without ever being dlopen'd here —
    # once a path is loaded, glibc hands the cached handle back to every
    # later dlopen of it, which would mask the corruption entirely
    _WARM_CACHE = """
import numpy as np
from repro import nn
from repro.engine import compile_model
from repro.engine.backends import CGenBackend

rng = np.random.default_rng(0)
model = nn.Sequential(
    nn.Conv2d(3, 8, 3, padding=1, bias=False, rng=rng),
    nn.BatchNorm2d(8),
    nn.ReLU(),
    nn.Conv2d(8, 4, 1, rng=rng),
)
model.eval()
x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
engine = compile_model(model, backend=CGenBackend(threads=2))
engine(x)
info = engine.plan_for(x.shape, x.dtype).backend_info
assert info["rendered"] > 0 and info["cache_hit"] is False, info
print(info["so"])
"""

    def test_corrupted_so_is_recompiled(self, monkeypatch, tmp_path):
        """A truncated/garbage cache entry must not take the plan down:
        the loader deletes it, recompiles once, and flags the recovery."""
        _fresh_cache(monkeypatch, tmp_path)
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.dirname(os.path.dirname(repro.__file__)),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", self._WARM_CACHE],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        so = proc.stdout.strip()
        assert os.path.exists(so)

        # os.replace gives the garbage a NEW inode, exactly what a torn
        # write or disk fault leaves behind
        garbage = tmp_path / "garbage.so"
        garbage.write_bytes(b"\x7fELF not really a shared object")
        os.replace(garbage, so)

        # same architecture => same source hash => same cache key
        seed = np.random.default_rng(0)
        model = _bn_model(seed)
        x = seed.standard_normal((1, 3, 8, 12)).astype(np.float32)
        oracle = compile_model(model)(x).numpy()
        engine = compile_model(model, backend=CGenBackend(threads=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # recovery must not warn
            out = engine(x).numpy()
        info = engine.plan_for(x.shape, x.dtype).backend_info
        assert info["cache_recovered"] is True
        assert info["cache_hit"] is False and info["rendered"] > 0
        np.testing.assert_allclose(out, oracle, **_band(np.float32))


# ---------------------------------------------------------------------------
# one library per host: every shape, every process, the same artifact


def _count_compiles(monkeypatch):
    """Count compiler processes: ``subprocess.run`` is built on ``Popen``,
    so this sees the parts' compiles and the link alike."""
    spawned = []
    popen_init = subprocess.Popen.__init__

    def spy(self, args, *a, **k):
        spawned.append(args)
        return popen_init(self, args, *a, **k)

    monkeypatch.setattr(subprocess.Popen, "__init__", spy)
    return spawned


def _child_env():
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.dirname(os.path.dirname(repro.__file__)),
            env.get("PYTHONPATH", ""),
        ) if p
    )
    return env


def _scratch_stride(info):
    reserve = ctypes.CDLL(info["so"]).repro_scratch_reserve
    reserve.argtypes = [ctypes.c_longlong]
    reserve.restype = ctypes.c_longlong
    return int(reserve(0))


@needs_cc
class TestOneLibraryPerHost:
    def test_a_cached_library_serves_new_shapes_without_a_compiler(
        self, rng, monkeypatch, tmp_path
    ):
        """Batch-1 inference compiles the library; with the compiler then
        hidden, a new batch size and an adaptation plan still render every
        stage, spawn nothing and warn about nothing."""
        _fresh_cache(monkeypatch, tmp_path)
        model = _bn_model(rng)
        engine = compile_model(model, backend=CGenBackend(threads=2))
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        engine(x)
        first = engine.plan_for(x.shape, x.dtype).backend_info
        assert first["cache_hit"] is False and first["rendered"] > 0

        monkeypatch.setenv("REPRO_CC", "/nonexistent-compiler")
        monkeypatch.setenv("PATH", "")
        assert find_cc() is None
        spawned = _count_compiles(monkeypatch)
        x2 = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = engine(x2).numpy()
            adapt = CompiledAdaptStep(
                _train_stack(11), backend=CGenBackend(threads=2)
            ).plan_for(x2)
        for info in (engine.plan_for(x2.shape, x2.dtype).backend_info,
                     adapt.backend_info):
            assert info["rendered"] == info["stages"], info
            assert info["so"] == first["so"] and info["cache_hit"] is True
        assert spawned == []
        np.testing.assert_allclose(
            out, compile_model(model)(x2).numpy(), **_band(np.float32)
        )

    def test_a_truncated_library_is_rebuilt_once_for_every_plan(
        self, monkeypatch, tmp_path
    ):
        """The recovery of ``test_corrupted_so_is_recompiled``, counted:
        one rebuild, flagged on the plan that found the damage, and the
        next plan in the process loads what it left."""
        _fresh_cache(monkeypatch, tmp_path)
        proc = subprocess.run(
            [sys.executable, "-c", TestThreadVariantCache._WARM_CACHE],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        so = proc.stdout.strip()
        with open(so, "r+b") as fh:
            fh.truncate(os.path.getsize(so) // 2)

        spawned = _count_compiles(monkeypatch)
        seed = np.random.default_rng(0)
        model = _bn_model(seed)
        engine = compile_model(model, backend=CGenBackend(threads=2))
        infos = []
        for batch in (1, 2):
            x = seed.standard_normal((batch, 3, 8, 12)).astype(np.float32)
            engine(x)
            infos.append(engine.plan_for(x.shape, x.dtype).backend_info)
            assert infos[-1]["rendered"] == infos[-1]["stages"]
        links = [args for args in spawned if "-c" not in args]
        assert len(links) == 1, spawned
        assert [i["cache_recovered"] for i in infos] == [True, False]
        assert [i["cache_hit"] for i in infos] == [False, True]
        assert infos[0]["so"] == infos[1]["so"] == so

    def test_no_compiler_and_no_cache_warns_once_per_plan(
        self, rng, monkeypatch, tmp_path
    ):
        _fresh_cache(monkeypatch, tmp_path)
        monkeypatch.setenv("REPRO_CC", "/nonexistent-compiler")
        model = _bn_model(rng)
        engine = compile_model(model, backend=CGenBackend())
        for batch in (1, 2):
            x = rng.standard_normal((batch, 3, 8, 12)).astype(np.float32)
            with pytest.warns(RuntimeWarning, match="falling back") as caught:
                out = engine(x).numpy()
            assert len(caught) == 1
            info = engine.plan_for(x.shape, x.dtype).backend_info
            assert info["rendered"] == 0 and info["fallback_reason"]
            assert np.array_equal(out, compile_model(model)(x).numpy())
            engine(x)  # the plan is built: replaying it warns no more

    def test_the_larger_scratch_reserve_wins(self, rng, monkeypatch, tmp_path):
        """Scratch belongs to the library, grow-only: a plan with a bigger
        conv raises it under a plan already loaded, whose bytes do not
        change; a smaller plan after it lowers nothing."""
        _fresh_cache(monkeypatch, tmp_path)

        def plan_and_output(channels, hw):
            conv = nn.Conv2d(channels, 8, 3, padding=1, bias=False,
                             rng=np.random.default_rng(channels))
            model = nn.Sequential(conv)
            model.eval()
            x = np.random.default_rng(hw[0]).standard_normal(
                (1, channels) + hw
            ).astype(np.float32)
            engine = compile_model(model, backend=CGenBackend(threads=2))
            out = engine(x).numpy().copy()
            return engine, x, out, engine.plan_for(x.shape, x.dtype).backend_info

        small, x, out, info = plan_and_output(2, (6, 10))
        before = _scratch_stride(info)
        _, _, _, big = plan_and_output(16, (16, 40))
        assert big["so"] == info["so"]
        after = _scratch_stride(info)
        assert after > before > 0
        assert small(x).numpy().tobytes() == out.tobytes()
        plan_and_output(2, (6, 10))
        assert _scratch_stride(info) == after

    _COLD_START = """
import json, sys
import numpy as np
from repro import nn
from repro.engine import CompiledAdaptStep, compile_model
from repro.engine.backends import CGenBackend

rng = np.random.default_rng(0)
model = nn.Sequential(
    nn.Conv2d(3, 8, 3, padding=1, bias=False, rng=rng),
    nn.BatchNorm2d(8),
    nn.ReLU(),
    nn.Conv2d(8, 4, 1, rng=rng),
)
model.eval()
x = rng.standard_normal((int(sys.argv[1]), 3, 8, 12)).astype(np.float32)
engine = compile_model(model, backend=CGenBackend(threads=2))
engine(x)
infos = [engine.plan_for(x.shape, x.dtype).backend_info,
         CompiledAdaptStep(model, backend=CGenBackend(threads=2))
         .plan_for(x).backend_info]
print(json.dumps([
    {k: i[k] for k in ("rendered", "stages", "fallback_reason", "so",
                       "program")}
    for i in infos
]))
"""

    def _cold_children(self, batches):
        import json

        children = [
            subprocess.Popen(
                [sys.executable, "-c", self._COLD_START, str(batch)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=_child_env(),
            )
            for batch in batches
        ]
        reports = []
        for child in children:
            stdout, stderr = child.communicate(timeout=300)
            assert child.returncode == 0, stderr
            reports.append(json.loads(stdout.strip().splitlines()[-1]))
        return reports

    def test_two_processes_cold_start_on_one_empty_cache(
        self, monkeypatch, tmp_path
    ):
        """Every process on a host races for the same file: both children
        end all-C on the one library, and nothing half-written or
        temporary is left beside it."""
        _fresh_cache(monkeypatch, tmp_path)
        reports = self._cold_children((1, 1))
        for report in reports:
            for info in report:
                assert info["rendered"] == info["stages"], info
                assert info["fallback_reason"] is None
        cache = tmp_path / "cgen-cache"
        (so,) = [p for p in os.listdir(cache) if p.endswith(".so")]
        assert {info["so"] for r in reports for info in r} == {str(cache / so)}
        assert sorted(os.listdir(cache)) == sorted([so, so[:-3] + ".c"])

    def test_program_digest_agrees_across_processes(
        self, monkeypatch, tmp_path
    ):
        """``program`` is library key + rows + args — slot indices, no
        address — so two processes building the same plan agree on it and
        a different shape does not."""
        _fresh_cache(monkeypatch, tmp_path)
        same_a, same_b, other = self._cold_children((1, 1, 2))
        programs = [[info["program"] for info in r] for r in (same_a, same_b)]
        assert programs[0] == programs[1] and None not in programs[0]
        assert len(set(programs[0])) == 2  # inference != adaptation
        assert [info["program"] for info in other] != programs[0]


# ---------------------------------------------------------------------------
# fused im2col: the gather workspace disappears for rendered convs


@needs_cc
class TestFusedIm2colWorkspace:
    def test_rendered_convs_free_their_gather_workspace(self, rng):
        model = _bn_model(rng)
        x = rng.standard_normal((2, 3, 16, 40)).astype(np.float32)

        eng_np = compile_model(model)
        eng_np(x)
        np_ws = eng_np.plan_for(x.shape, x.dtype).stats.workspace_bytes
        assert np_ws > 0  # the numpy lowering materializes im2col

        eng_c = compile_model(model, backend=CGenBackend(threads=2))
        eng_c(x)
        plan = eng_c.plan_for(x.shape, x.dtype)
        freed = plan.backend_info["workspace_freed"]
        assert freed > 0
        assert plan.stats.workspace_bytes == max(0, np_ws - freed)

    def test_conv_stages_bind_no_index_table(self, rng):
        """The im2col is rendered from the conv's scalar geometry: a
        conv-only plan keeps no integer array bigger than its stage ids
        (an index gather would need one entry per column element)."""
        model = _bn_model(rng)
        x = rng.standard_normal((2, 3, 16, 40)).astype(np.float32)
        engine = compile_model(model, backend=CGenBackend(threads=2))
        engine(x)
        plan = engine.plan_for(x.shape, x.dtype)
        info = plan.backend_info
        assert info["rendered"] == info["stages"]
        tables = [
            held for held in plan._cgen_keep
            if isinstance(held, np.ndarray) and held.dtype.kind == "i"
        ]
        assert all(t.size <= info["stages"] for t in tables), [
            t.shape for t in tables
        ]

    def test_fallback_frees_nothing(self, rng, monkeypatch, tmp_path):
        _fresh_cache(monkeypatch, tmp_path)
        monkeypatch.setenv("REPRO_CC", "/nonexistent-compiler")
        model = _bn_model(rng)
        x = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        engine = compile_model(model, backend=CGenBackend())
        with pytest.warns(RuntimeWarning):
            engine(x)
        info = engine.plan_for(x.shape, x.dtype).backend_info
        assert info["workspace_freed"] == 0


# ---------------------------------------------------------------------------
# the conv GEMM micro-kernel and its structured im2col


def _tile_everything(monkeypatch):
    """Tile every stage, however small, so few-pixel test convs still
    exercise the pool's unit ownership."""
    monkeypatch.setattr(cgen, "_MT_MIN_US", 0.0)


@needs_cc
class TestConvMicroKernel:
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_edge_tiles_epilogues_and_pool_widths(self, data):
        """Filter counts off the MR grid, pixel counts off (and below)
        the NR grid, both compute dtypes, float32 inputs widened into
        float64 GEMMs, every epilogue: inside the band of the numpy
        closure, and bit-for-bit the same at pool widths 1, 2 and 3 —
        no output element may take a remainder path the others don't."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        f = data.draw(st.sampled_from([1, 3, 5, 6, 9, 13]))
        c = data.draw(st.integers(1, 5))
        k = data.draw(st.sampled_from([1, 3]))
        h = data.draw(st.integers(1, 9))
        w = data.draw(st.sampled_from([1, 3, 7, 11, 25, 50]))
        n = data.draw(st.integers(1, 3))
        x_dtype, w_dtype = data.draw(st.sampled_from([
            (np.float32, np.float32), (np.float64, np.float64),
            (np.float32, np.float64),
        ]))
        bias = data.draw(st.booleans())
        epilogue = data.draw(st.sampled_from(["none", "relu", "bn", "bn_relu"]))
        assume(f % cgen._MR or (h * w) % 12)

        conv = nn.Conv2d(c, f, k, padding=k // 2, bias=bias, rng=rng)
        conv.weight.data = conv.weight.data.astype(w_dtype)
        if bias:
            conv.bias.data = conv.bias.data.astype(w_dtype)
        layers = [conv]
        if epilogue.startswith("bn"):
            bn = nn.BatchNorm2d(f)
            bn.running_mean[...] = rng.standard_normal(f)
            bn.running_var[...] = rng.uniform(0.5, 2.0, f)
            layers.append(bn)
        if epilogue.endswith("relu"):
            layers.append(nn.ReLU())
        model = nn.Sequential(*layers)
        model.eval()
        x = rng.standard_normal((n, c, h, w)).astype(x_dtype)

        oracle = compile_model(model)(x).numpy()
        with pytest.MonkeyPatch.context() as patch:
            _tile_everything(patch)
            outs = []
            for nt in (1, 2, 3):
                engine = compile_model(model, backend=CGenBackend(threads=nt))
                outs.append(engine(x).numpy().copy())
                info = engine.plan_for(x.shape, x.dtype).backend_info
                assert info["rendered"] == 1, info
        np.testing.assert_allclose(outs[0], oracle, **_band(oracle.dtype))
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()

    def test_serving_shape_is_tiled_and_width_invariant(self, rng):
        """A conv big enough to repay a dispatch on its own merits (no
        threshold override) is tiled, and stays bitwise width-invariant."""
        model = nn.Sequential(
            nn.Conv2d(16, 32, 3, padding=1, bias=False, rng=rng)
        )
        model.eval()
        x = rng.standard_normal((4, 16, 16, 40)).astype(np.float32)
        outs = []
        for nt in (1, 2, 3):
            engine = compile_model(model, backend=CGenBackend(threads=nt))
            outs.append(engine(x).numpy().copy())
            info = engine.plan_for(x.shape, x.dtype).backend_info
            assert info["mt_stages"] == (1 if nt > 1 else 0)
        assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()
        np.testing.assert_allclose(
            outs[0], compile_model(model)(x).numpy(), **_band(np.float64)
        )

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_structured_im2col_equals_the_index_gather(self, data):
        """An identity weight matrix makes the conv's output its column
        matrix (``1*x`` and ``+0`` are exact), so the rendered im2col is
        compared ``tobytes`` with the numpy plan's ``geo.flat`` gather:
        kernels 1-7 (non-square included), strides 1-3, padding 0-3,
        tiled across the pool so tile seams land mid-row."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        kh, kw = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        stride = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        padding = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
        c = data.draw(st.integers(1, 3))
        h = data.draw(st.integers(max(1, kh - 2 * padding[0]), 12))
        w = data.draw(st.integers(max(1, kw - 2 * padding[1]), 30))
        x_dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        nt = data.draw(st.integers(1, 3))
        n, kt = 2, c * kh * kw

        conv = nn.Conv2d(c, kt, (kh, kw), stride=stride, padding=padding,
                         bias=False, rng=rng)
        conv.weight.data = np.eye(kt).reshape(kt, c, kh, kw)
        model = nn.Sequential(conv)
        model.eval()
        x = rng.standard_normal((n, c, h, w)).astype(x_dtype)

        geo = lower_conv(x.shape, conv.weight.shape, stride, padding,
                         np.float64, x_dtype)
        if geo.identity_cols:
            want = x.reshape(n, c, -1)
        elif geo.padded is not None:
            geo.core[...] = x
            want = np.take(geo.padded.reshape(n, -1), geo.flat, axis=1)
        else:
            want = np.take(x.reshape(n, -1), geo.flat, axis=1)
        want = want.astype(np.float64).reshape(n, kt, geo.out_h, geo.out_w)

        with pytest.MonkeyPatch.context() as patch:
            _tile_everything(patch)
            engine = compile_model(model, backend=CGenBackend(threads=nt))
            got = engine(x).numpy()
            assert engine.plan_for(x.shape, x.dtype).backend_info["rendered"] == 1
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# implicit GEMM: garbage lanes, phase planes, scratch reuse


@needs_cc
class TestImplicitGemmLanes:
    """The kernel walks output positions flat at the padded pitch, so
    every NR-wide panel also computes the ``pw - ow`` cells past each
    row's end (and past the last row) and drops them.  A NaN is the
    tracer: one poisoned input pixel must reach exactly the outputs
    whose window covers it — a garbage lane that leaks, a tap read from
    the wrong phase plane or a scratch row left over from the previous
    sample all move the footprint."""

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_nan_footprint_forward(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        kh, kw = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        stride = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        padding = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
        n, c, f = 2, data.draw(st.integers(1, 4)), data.draw(st.integers(1, 9))
        h = data.draw(st.integers(max(1, kh - 2 * padding[0]), 10))
        w = data.draw(st.integers(max(1, kw - 2 * padding[1]), 27))
        x_dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        nt = data.draw(st.integers(1, 3))

        conv = nn.Conv2d(c, f, (kh, kw), stride=stride, padding=padding,
                         bias=False, rng=rng)
        model = nn.Sequential(conv)
        model.eval()
        x = rng.standard_normal((n, c, h, w)).astype(x_dtype)
        # sample 0 only: sample 1 is padded into the same scratch next
        x[0, rng.integers(c), rng.integers(h), rng.integers(w)] = np.nan

        want = compile_model(model)(x).numpy()
        with pytest.MonkeyPatch.context() as patch:
            _tile_everything(patch)
            engine = compile_model(model, backend=CGenBackend(threads=nt))
            got = engine(x).numpy()
            assert engine.plan_for(x.shape, x.dtype).backend_info["rendered"] == 1
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert not np.isnan(got[1]).any()
        np.testing.assert_allclose(got, want, **_band(np.float32))

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_nan_footprint_dgrad(self, data):
        """The same through the input gradient, a fresh and an
        accumulating sink: after one full step the two ``dY`` buffers get
        a NaN pixel each and the two ``bwd:conv`` stages are rerun alone
        (profiled plans replay stage by stage), numpy closure against
        rendered phases."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        kernel = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
        stride = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        padding = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
        n, c, f = 2, data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        h = data.draw(st.integers(max(1, kernel[0] - 2 * padding[0]), 9))
        w = data.draw(st.integers(max(1, kernel[1] - 2 * padding[1]), 25))
        nt = data.draw(st.integers(1, 3))
        x = rng.standard_normal((n, c, h, w))

        def dx_after_poisoned_rerun(backend, threads=None):
            model = _TwoBranch(c, f, kernel, stride, padding, np.float64,
                               np.random.default_rng(7))
            model.train()
            plan = CompiledAdaptStep(
                model, profile=True, backend=backend, threads=threads
            ).plan_for(x)
            plan.run(x)
            # gradient buffers in creation order: ..., dY of conv_a, dY of
            # conv_b, dX (see `_dx`)
            *_, dy_a, dy_b, dx = plan._grads.values()
            spot = np.random.default_rng(3)
            for dy in (dy_a, dy_b):
                dy[(0,) + tuple(spot.integers(d) for d in dy.shape[1:])] = np.nan
            steps = [s for s in plan.sections[1]
                     if s.label.endswith("bwd:conv")]
            assert len(steps) == 2
            for step in steps:
                step()
            return dx.copy(), plan.backend_info

        want, _ = dx_after_poisoned_rerun("numpy")
        with pytest.MonkeyPatch.context() as patch:
            _tile_everything(patch)
            got, info = dx_after_poisoned_rerun("cgen", nt)
        assert "bwd:conv" not in info["numpy_stages"], info
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert not np.isnan(got[1]).any()
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-10)

    def test_one_conv_data_path_in_the_library(self, monkeypatch, tmp_path):
        """All three conv directions of a small-r18 step — forward, and
        every phase of every input gradient — are rows over the kernels
        the library defines once per dtype pair; no im2col pass, no chunk
        loop, no offset table and no per-stage function exist beside
        them."""
        import re

        _fresh_cache(monkeypatch, tmp_path)  # the .c sits beside a fresh .so
        model, _, x = _model_and_frames("small-r18", 1, 3)
        plan = CompiledAdaptStep(model, backend="cgen").plan_for(x)
        with open(plan.backend_info["so"][:-len(".so")] + ".c") as fh:
            source = fh.read()
        assert "im2col" not in source and "CONV_PC" not in source
        for helper in ("gemm_double", "pad_float_double", "pad_double_double",
                       "conv_float_double", "conv_double_double", "conv_taps"):
            assert source.count(f"static void {helper}(") == 1, helper
        # definition + the one call in its adapter, whatever the plan
        assert source.count("conv_float_double(") == 2
        assert source.count("conv_double_double(") == 2
        assert not re.search(r"static void s\d+\(", source)
        # the stem; 20 forward + 20 input gradients
        kernels = [int(k) for k in plan._cgen_keep[3]["kernel"]]
        assert kernels.count(cgen.KERNEL_ID["conv_float_double"]) == 1
        assert kernels.count(cgen.KERNEL_ID["conv_double_double"]) == 40

    @pytest.mark.parametrize("w", [5, 10, 11, 23, 25])
    def test_rows_straddling_panel_seams_are_width_invariant(
        self, w, monkeypatch
    ):
        """Widths whose padded pitch is coprime to (or just off) the
        panel width put every seam — garbage run split across panels,
        a panel starting inside one, a row ending flush with one — in a
        handful of rows: pads 0-3, bit for bit at pool widths 1, 2, 3."""
        _tile_everything(monkeypatch)
        rng = np.random.default_rng(w)
        for pad in range(4):
            conv = nn.Conv2d(3, 5, 3, padding=pad, bias=False, rng=rng)
            model = nn.Sequential(conv)
            model.eval()
            x = rng.standard_normal((2, 3, 6, w)).astype(np.float32)
            outs = [
                compile_model(model, backend=CGenBackend(threads=nt))(x)
                .numpy().copy()
                for nt in (1, 2, 3)
            ]
            assert outs[0].tobytes() == outs[1].tobytes() == outs[2].tobytes()
            np.testing.assert_allclose(
                outs[0], compile_model(model)(x).numpy(), **_band(np.float64)
            )


# ---------------------------------------------------------------------------
# max-pool walked from its geometry: first maximum, NaNs propagate


def _profiled_plan_and_specs(model, x, backend, threads=None, groups=1):
    """A profiled adaptation plan (it replays stage by stage, so one
    stage can be rerun alone) and, by kind, the offer specs of its stages
    in emission order — the buffers each stage reads and writes."""
    from repro.engine.adapt_plan import AdaptationPlan

    specs = {}
    offer = AdaptationPlan._offer

    def spy(self, kind, spec, fallback):
        specs.setdefault(kind, []).append(spec)
        return offer(self, kind, spec, fallback)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AdaptationPlan, "_offer", spy)
        plan = CompiledAdaptStep(
            model, profile=True, backend=backend, threads=threads
        ).plan_for(x, groups=groups)
    return plan, specs


def _stages(plan, section, label):
    return [s for s in plan.sections[section] if s.label.endswith(label)]


def _pool_stage_alone(model, x_traced, x, backend, threads=None):
    """The pool's output and saved argmax after its stage reran alone on
    ``x`` (later stages recycle the pool's arena blocks), from a plan
    traced on ``x_traced``."""
    plan, specs = _profiled_plan_and_specs(model, x_traced, backend, threads)
    plan.run(x)
    (stage,) = _stages(plan, 0, "fwd:maxpool")
    stage()
    (spec,) = specs["maxpool"]
    return spec["out2"].copy(), spec["arg"].copy(), plan.backend_info


@needs_cc
class TestMaxPoolFromGeometry:
    """``np.max`` propagates a NaN and ``np.argmax`` saves the first
    NaN's window offset; a compare that drops NaNs (``xv > m``) would
    hide a poisoned pixel from everything downstream of the pool."""

    @pytest.mark.parametrize("at, block, poisoned", [(2, 4, 9), (3, 1, 4)])
    def test_nan_reaches_every_window_that_covers_it(self, at, block, poisoned):
        x = np.random.default_rng(0).standard_normal((1, 1, 8, 8)).astype(
            np.float32
        )
        x[0, 0, at:at + block, at:at + block] = np.nan
        model = nn.Sequential(nn.MaxPool2d(3, 2, 1))
        model.eval()
        want = compile_model(model)(x).numpy()
        assert np.isnan(want).sum() == poisoned
        for backend in ("cgen", "cgen-strict"):
            engine = compile_model(model, backend=backend)
            got = engine(x).numpy()
            assert engine.plan_for(x.shape).backend_info["rendered"] == 1
            assert np.array_equal(got, want, equal_nan=True), backend
            assert not np.isinf(got).any()

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning"
    )
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_values_and_argmax_footprint(self, data):
        """Kernels 1-4 (non-square too), strides 1-3, padding up to past
        the kernel, both dtypes, pool widths 1-3; few distinct values so
        windows tie, infinities of both signs, and NaN pixels: forward
        values and the saved argmax equal the numpy plan's, band and
        strict."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        kernel = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
        stride = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        padding = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
        n, c = 2, data.draw(st.integers(1, 3))
        h = data.draw(st.integers(max(1, kernel[0] - 2 * padding[0]), 9))
        w = data.draw(st.integers(max(1, kernel[1] - 2 * padding[1]), 21))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        nt = data.draw(st.integers(1, 3))

        model = nn.Sequential(
            nn.MaxPool2d(kernel, stride, padding),
            nn.Conv2d(c, 2, 1, rng=rng), nn.BatchNorm2d(2),
        )
        for param in model.parameters():
            param.data = param.data.astype(dtype)
        model.train()
        clean = rng.integers(-2, 3, (n, c, h, w)).astype(dtype)
        x = clean.copy()
        for value in (np.nan, np.nan, np.inf, -np.inf):
            x[tuple(rng.integers(d) for d in x.shape)] = value

        want, want_arg, _ = _pool_stage_alone(model, clean, x, "numpy")
        with pytest.MonkeyPatch.context() as patch:
            _tile_everything(patch)
            for backend in ("cgen", "cgen-strict"):
                got, got_arg, info = _pool_stage_alone(
                    model, clean, x, backend, nt
                )
                assert "fwd:maxpool" not in info["numpy_stages"], info
                assert np.array_equal(got, want, equal_nan=True), backend
                assert np.array_equal(got_arg, want_arg), backend

    def test_no_index_table_is_bound(self, rng):
        """The only integer array a pool-only plan keeps is its stage id
        (the parent bound a ``(kh * kw, P)`` window-index table)."""
        model = nn.Sequential(nn.MaxPool2d(3, 2, 1))
        model.eval()
        x = rng.standard_normal((2, 3, 16, 40)).astype(np.float32)
        engine = compile_model(model, backend="cgen")
        engine(x)
        plan = engine.plan_for(x.shape, x.dtype)
        assert plan.backend_info["rendered"] == 1
        assert [
            held.size for held in plan._cgen_keep
            if isinstance(held, np.ndarray) and held.dtype.kind == "i"
        ] == [1]


# ---------------------------------------------------------------------------
# rendered LD-BN-ADAPT backward


def _train_stack(seed):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(8),
        nn.ReLU(),
        nn.Conv2d(8, 4, 1, rng=rng),
        nn.BatchNorm2d(4),
    )
    model.train()
    return model


@needs_cc
class TestRenderedBackward:
    def test_strict_backward_is_bitwise(self, rng):
        """The rendered gamma/beta backward under cgen-strict returns
        the numpy plan's loss bit for bit."""
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        losses = {}
        for backend in ("numpy", "cgen-strict"):
            step = CompiledAdaptStep(_train_stack(11), backend=backend)
            plan = step.plan_for(x)
            losses[backend] = np.asarray(plan.run(x)).copy()
            if backend == "cgen-strict":
                info = plan.backend_info
                assert info["rendered"] > 0, "backward must render"
        assert losses["numpy"].tobytes() == losses["cgen-strict"].tobytes()

    def test_strict_backward_invariant_across_widths(self, rng):
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        losses = []
        for nt in (1, 2, 4):
            step = CompiledAdaptStep(
                _train_stack(13), backend=CGenBackend(parity="strict"),
                threads=nt,
            )
            losses.append(np.asarray(step.plan_for(x).run(x)).copy())
        assert losses[0].tobytes() == losses[1].tobytes()
        assert losses[0].tobytes() == losses[2].tobytes()

    def test_band_backward_threaded_stays_in_band(self, rng):
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        oracle = np.asarray(
            CompiledAdaptStep(_train_stack(17)).plan_for(x).run(x)
        ).copy()
        step = CompiledAdaptStep(
            _train_stack(17), backend="cgen", threads=2
        )
        plan = step.plan_for(x)
        loss = np.asarray(plan.run(x))
        assert plan.backend_info["rendered"] > 0
        np.testing.assert_allclose(loss, oracle, rtol=1e-5, atol=1e-7)

    def test_grouped_backward_parity(self, rng):
        """Fleet-fused G-group plans must match per-group too."""
        x = rng.standard_normal((4, 3, 8, 12)).astype(np.float32)
        oracle = np.asarray(
            CompiledAdaptStep(_train_stack(19)).plan_for(x, groups=2).run(x)
        ).copy()
        loss = np.asarray(
            CompiledAdaptStep(_train_stack(19), backend="cgen", threads=2)
            .plan_for(x, groups=2)
            .run(x)
        )
        assert oracle.shape == (2,) == loss.shape
        np.testing.assert_allclose(loss, oracle, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# strict parity offers only order-preserving stages


_ORDER_DEPENDENT_LABELS = ("conv", "linear", "bn", "exp")


def _model_and_frames(preset, batch, seed):
    from repro.models import build_model

    rng = np.random.default_rng(seed)
    model = build_model(preset, rng=rng)
    model.eval()
    h, w = model.config.input_hw
    return model, rng, rng.standard_normal((batch, 3, h, w)).astype(np.float32)


@needs_cc
class TestStrictDeclinesOrderDependentStages:
    def test_bitwise_across_adapted_bn_states(self):
        """A plan traced on pristine BN state must stay bitwise after
        LD-BN-ADAPT rewrote it: a GEMM stage that matched BLAS on the
        probe input by coincidence differs on the next state."""
        model, rng, x = _model_and_frames("tiny-r34", 2, 12345)
        engines = {
            name: compile_model(model, backend=name)
            for name in ("numpy", "cgen-strict")
        }
        for engine in engines.values():
            engine.warm(x)
        adapter = LDBNAdapt(model, LDBNAdaptConfig(batch_size=2))
        with nn.adaptation_mode(False):  # eager steps: no plan involved
            for _ in range(3):
                adapter.adapt(rng.standard_normal(x.shape).astype(np.float32))
        model.eval()
        got = {name: engine(x).numpy().copy() for name, engine in engines.items()}
        assert np.array_equal(got["numpy"], got["cgen-strict"])

    @pytest.mark.parametrize("preset", ["tiny-r18", "tiny-r34", "small-r18"])
    @pytest.mark.parametrize("batch", [1, 2, 4])
    @pytest.mark.parametrize("seed", [3, 7])
    def test_no_gemm_or_reduction_stage_is_rendered(self, preset, batch, seed):
        """Nothing whose bytes depend on summation order (or libm) may
        replay as C in a strict plan — survival of the probe is luck."""
        model, _, x = _model_and_frames(preset, batch, seed)
        infer = compile_model(model, profile=True, backend="cgen-strict")
        infer(x)
        adapt = CompiledAdaptStep(
            model, profile=True, backend="cgen-strict"
        ).plan_for(x)
        adapt.run(x)
        for plan in (infer.plan_for(x.shape), adapt):
            rendered = [
                label for label in plan.profile_summary()["op_calls"]
                if label.startswith("cgen:")
            ]
            assert rendered, "order-preserving stages must still render"
            assert not [
                label for label in rendered
                if any(kind in label for kind in _ORDER_DEPENDENT_LABELS)
            ]
            info = plan.backend_info
            assert info["offered"] == (
                info["rendered"] + info["demoted"] + info["declined"]
            )


# ---------------------------------------------------------------------------
# rendered train-mode BN forward + max-pool backward


def _pool_stack(seed, dtype):
    """conv-BN-ReLU-maxpool-conv-BN in one dtype: the 3x3/stride-2/pad-1
    pool has overlapping windows and a padded border, and sits between
    two train-mode BNs so its backward is on the gradient path."""
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(3, 6, 3, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(6),
        nn.ReLU(),
        nn.MaxPool2d(3, stride=2, padding=1),
        nn.Conv2d(6, 4, 1, rng=rng),
        nn.BatchNorm2d(4),
    )
    for module in model.modules():
        if isinstance(module, nn.BatchNorm2d):
            # a non-identity affine, so a wrong gamma/beta binding shows
            module.weight.data[...] = rng.uniform(0.5, 1.5, module.num_features)
            module.bias.data[...] = rng.uniform(-0.5, 0.5, module.num_features)
    for param in model.parameters():
        param.data = param.data.astype(dtype)
    model.train()
    return model


def _run_pool_stack(backend, dtype, groups, threads=None):
    """One replay of the stack's adaptation plan -> (plan, outputs)."""
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2 * groups, 3, 9, 13)).astype(dtype)
    plan = CompiledAdaptStep(
        _pool_stack(29, dtype), backend=backend, threads=threads
    ).plan_for(x, groups=groups)
    for tap in plan.bn_taps:
        if tap.gamma_slot is not None:  # per-group fleet slots
            tap.gamma_slot[...] = rng.uniform(0.5, 1.5, tap.gamma_slot.shape)
            tap.beta_slot[...] = rng.uniform(-0.5, 0.5, tap.beta_slot.shape)
    outputs = [np.array(plan.run(x))]
    for tap in plan.bn_taps:
        outputs += [
            tap.batch_mean.copy(), tap.batch_var.copy(),
            tap.grad_gamma.copy(), tap.grad_beta.copy(),
        ]
    return plan, outputs


_NEW_STAGES = ("fwd:bn", "bwd:maxpool")


@needs_cc
class TestRenderedTrainBNAndPoolBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_band_parity_vs_numpy_closures(self, dtype, groups, threads):
        """Every bn_train / maxpool_bwd stage survives the per-stage band
        probe against its own numpy closure (none demoted, none left on
        numpy), and the replay lands beside the numpy plan — per-group
        statistics and gamma/beta slots included."""
        _, want = _run_pool_stack("numpy", dtype, groups)
        plan, got = _run_pool_stack("cgen", dtype, groups, threads)
        info = plan.backend_info
        assert info["demoted"] == 0 and info["declined"] == 0
        assert not set(_NEW_STAGES) & set(info["numpy_stages"])
        tol = (
            dict(rtol=2e-3, atol=2e-5) if dtype == np.float32
            else dict(rtol=1e-7, atol=1e-10)
        )
        for a, b in zip(got, want):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, **tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_strict_is_bitwise_or_demoted(self, dtype, groups, threads):
        """Under cgen-strict an offered stage either reproduces its
        closure's bytes or is counted in ``demoted`` and replays as that
        closure — so the plan equals the numpy plan bit for bit."""
        _, want = _run_pool_stack("numpy", dtype, groups)
        plan, got = _run_pool_stack(
            CGenBackend(parity="strict"), dtype, groups, threads
        )
        info = plan.backend_info
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert info["offered"] == (
            info["rendered"] + info["demoted"] + info["declined"]
        )
        assert info["stages"] == (
            info["rendered"] + sum(info["numpy_stages"].values())
        )
        # serial f64 statistics cannot promise the oracle's pairwise
        # bits, so train-BN is declined (or demoted); the pool backward
        # repeats the col2im summation order and must survive
        assert info["numpy_stages"].get("fwd:bn", 0) <= (
            info["demoted"] + info["declined"]
        )
        assert "bwd:maxpool" not in info["numpy_stages"]

    @pytest.mark.parametrize("backend", ["cgen", "cgen-strict"])
    def test_rendered_pool_backward_needs_no_column_scratch(self, backend):
        """The closure's ``gcols`` block — only the probe runs it once the
        stage is rendered — is what the numpy plan requests from the
        arena beyond the C plan, to the byte (the stack's one conv input
        gradient is a fresh 1x1, which needs none in either)."""
        numpy_plan, _ = _run_pool_stack("numpy", np.float64, 1)
        plan, _ = _run_pool_stack(backend, np.float64, 1)
        assert "bwd:maxpool" not in plan.backend_info["numpy_stages"]
        n, c, pooled = 2, 6, 5 * 7  # the 9x13 map under a 3x3/2/1 pool
        gcols = n * c * 9 * pooled * 8
        assert (
            numpy_plan.stats.requested_bytes - plan.stats.requested_bytes
            == gcols
        )

    def test_small_r18_step_is_two_rendered_segments(self):
        """With train-BN, every conv dgrad and the entropy tail rendered,
        nothing splits the step: one ``repro_run`` call replays the
        forward and one the backward, and no stage is left on numpy."""
        from repro.models.registry import build_model, get_config

        model = build_model("small-r18", num_lanes=2)
        model.eval()
        h, w = get_config("small-r18", num_lanes=2).input_hw
        x = np.random.default_rng(5).standard_normal((1, 3, h, w)).astype(
            np.float32
        )
        plan = CompiledAdaptStep(model, backend="cgen").plan_for(x)
        info = plan.backend_info
        assert info["offered"] == info["rendered"] == info["stages"]
        assert info["numpy_stages"] == {}
        assert [len(steps) for steps in plan.sections] == [1, 1]
        assert all(
            step.__name__ == "seg" for steps in plan.sections for step in steps
        )


# ---------------------------------------------------------------------------
# BN reductions on vector-lane accumulators


_PLANE_WIDTHS = (2560, 160, 40, 33, 32, 31, 10, 9, 8, 7, 1)


def _plane_chain(dtype):
    """BN at every plane size of ``_PLANE_WIDTHS``, one plan: (1, k)
    convs at stride (1, s) step a 2560-wide row down the list, so a
    replay crosses every remainder path of the lane loop — planes under
    one vector, exact multiples of one and of four, each with and
    without a scalar tail, at 4 and at 8 lanes."""
    rng = np.random.default_rng(31)
    steps = ((16, 16), (4, 4), (8, 1), (2, 1), (2, 1), (4, 3), (2, 1),
             (2, 1), (2, 1), (7, 1))
    layers = [nn.BatchNorm2d(3)]
    for k, s in steps:
        layers += [nn.Conv2d(3, 3, (1, k), stride=(1, s), rng=rng),
                   nn.BatchNorm2d(3)]
    model = nn.Sequential(*layers)
    for module in model.modules():
        if isinstance(module, nn.BatchNorm2d):
            module.weight.data[...] = rng.uniform(0.5, 1.5, 3)
            module.bias.data[...] = rng.uniform(-0.5, 0.5, 3)
    for param in model.parameters():
        param.data = param.data.astype(dtype)
    model.train()
    return model


def _run_plane_chain(backend, dtype, groups, threads=None):
    rng = np.random.default_rng(37)
    # four samples a group: at plane size 1 they are all a BN averages
    x = rng.standard_normal((4 * groups, 3, 1, _PLANE_WIDTHS[0])).astype(dtype)
    plan = CompiledAdaptStep(
        _plane_chain(dtype), backend=backend, threads=threads
    ).plan_for(x, groups=groups)
    for tap in plan.bn_taps:
        if tap.gamma_slot is not None:
            tap.gamma_slot[...] = rng.uniform(0.5, 1.5, tap.gamma_slot.shape)
            tap.beta_slot[...] = rng.uniform(-0.5, 0.5, tap.beta_slot.shape)
    outputs = [np.array(plan.run(x))]
    for tap in plan.bn_taps:
        outputs += [tap.batch_mean.copy(), tap.batch_var.copy(),
                    tap.grad_gamma.copy(), tap.grad_beta.copy()]
    return plan, outputs + [_dx(plan).copy()]


@needs_cc
class TestBNReductionsOnLanes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 2])
    def test_every_remainder_path_at_every_pool_width(
        self, dtype, groups, monkeypatch
    ):
        """All 11 ``bn_train`` and 11 ``bn_bwd`` stages survive the probe
        (the first has no input gradient), the step lands beside the
        numpy plan, and statistics, gamma/beta gradients and every
        gradient buffer are the same bytes at pool widths 1, 2 and 3."""
        _tile_everything(monkeypatch)
        _, want = _run_plane_chain("numpy", dtype, groups)
        runs = [_run_plane_chain("cgen", dtype, groups, nt) for nt in (1, 2, 3)]
        tol = (
            dict(rtol=2e-3, atol=2e-5) if dtype == np.float32
            else dict(rtol=1e-7, atol=1e-10)
        )
        for plan, got in runs:
            info = plan.backend_info
            assert [tap.batch_mean.shape for tap in plan.bn_taps] == (
                [(groups, 3)] * len(_PLANE_WIDTHS)
            )
            assert info["demoted"] == 0 and info["numpy_stages"] == {}, info
            assert len(got) == len(want)
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, **tol)
        as_bytes = [
            [a.tobytes() for a in got + list(plan._grads.values())]
            for plan, got in runs
        ]
        assert as_bytes[0] == as_bytes[1] == as_bytes[2]

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning"
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 2])
    def test_a_non_finite_element_is_never_lost(self, dtype, groups):
        """A NaN or an infinity anywhere in a plane — a lane of any of
        the four accumulators, the second sample's plane, the scalar
        remainder — reaches ``batch_mean`` / ``batch_var`` and the
        gamma/beta gradients exactly where numpy's sums put it."""
        hw, c = 77, 3  # two rounds of 4 x 8 lanes, one vector, five tail
        spots = (0, 9, 18, 27, 36, 64, 70, 72, 76)
        rng = np.random.default_rng(41)
        clean = rng.standard_normal((2 * groups, c, 1, hw)).astype(dtype)

        def build(backend):
            model = nn.Sequential(
                nn.BatchNorm2d(c), nn.ReLU(), nn.BatchNorm2d(c)
            )
            for param in model.parameters():
                param.data = param.data.astype(dtype)
            model.train()
            return _profiled_plan_and_specs(
                model, clean, backend, 2, groups
            )

        def poisoned(backend):
            plan, specs = build(backend)
            first = specs["bn_train"][0]
            # the last BN's backward is emitted first; it has an input
            # gradient to write
            bwd, grads = _stages(plan, 1, "bwd:bn")[0], specs["bn_bwd"][0]
            out = []
            for at, value in zip(
                spots, (np.nan, np.inf, -np.inf) * len(spots)
            ):
                x = clean.copy()
                x[-1, at % c, 0, at] = value
                plan.run(x)
                out += [first["batch_mean"].copy(), first["batch_var"].copy()]
                plan.run(clean)
                grads["g"].reshape(-1, c, hw)[-1, at % c, at] = value
                bwd()
                out += [grads["grad_gamma"].copy(), grads["grad_beta"].copy(),
                        grads["dst"].copy()]
            return out, plan.backend_info

        want, _ = poisoned("numpy")
        got, info = poisoned("cgen")
        assert info["numpy_stages"] == {}, info
        tol = (
            dict(rtol=2e-3, atol=2e-5) if dtype == np.float32
            else dict(rtol=1e-7, atol=1e-10)
        )
        for a, b in zip(got, want):
            assert not np.isfinite(b).all()
            assert np.array_equal(np.isnan(a), np.isnan(b))
            assert np.array_equal(np.isposinf(a), np.isposinf(b))
            assert np.array_equal(np.isneginf(a), np.isneginf(b))
            finite = np.isfinite(b)
            np.testing.assert_allclose(a[finite], b[finite], **tol)


# ---------------------------------------------------------------------------
# the update tail: running statistics + the SGD step as the last stage


def _adapter_state(adapter):
    """Everything a step writes: gamma/beta, running statistics and
    ``num_batches_tracked`` (the state dict), the momentum buffers."""
    state = dict(adapter.model.state_dict())
    for j, param in enumerate(adapter.optimizer.params):
        slots = adapter.optimizer.state.get(id(param), {})
        for name in ("momentum", "m", "v"):
            if name in slots:
                state[f"opt.{j}.{name}"] = slots[name]
    return {key: np.array(value) for key, value in state.items()}


def _assert_states_close(got, want):
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(
            got[key], want[key], rtol=0, atol=1e-9, err_msg=key
        )


class _KernelCalls:
    """Counts the update tail's Python kernel (``sgd_update`` as
    ``adapt_plan`` calls it) under ``calls[side]``, ``side`` being
    whichever backend's twin the test is stepping."""

    def __init__(self, monkeypatch):
        from repro.engine import adapt_plan

        self.calls = {"numpy": 0, "cgen": 0}
        self.side = None
        kernel = adapt_plan.sgd_update

        def counted(*args, **kwargs):
            self.calls[self.side] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(adapt_plan, "sgd_update", counted)


class _TailRun(_KernelCalls):
    """A cgen and a numpy :class:`LDBNAdapt` over twin models, fed the
    same frames, with the Python update kernel counted per side."""

    def __init__(self, monkeypatch, **config):
        super().__init__(monkeypatch)
        self.adapters = {}
        for backend in self.calls:
            model = _pool_stack(29, np.float64)
            model.eval()
            self.adapters[backend] = LDBNAdapt(
                model, LDBNAdaptConfig(backend=backend, lr=1e-2, **config)
            )
        self.rng = np.random.default_rng(43)

    def __iter__(self):
        return iter(self.adapters.items())

    def step(self, count=1):
        for _ in range(count):
            x = self.rng.standard_normal((1, 3, 9, 13)).astype(np.float32)
            for self.side, adapter in self:
                adapter.adapt(x)

    def assert_in_step(self):
        _assert_states_close(*(
            _adapter_state(self.adapters[side]) for side in ("cgen", "numpy")
        ))


@needs_cc
class TestRenderedUpdateTail:
    @pytest.mark.parametrize("stats_mode", ["replace", "ema"])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_cgen_adapter_tracks_the_numpy_adapter(
        self, stats_mode, momentum, monkeypatch
    ):
        """After 1, 2 and 5 steps gamma/beta, momentum buffers, running
        statistics and ``num_batches_tracked`` sit within 1e-9 of the
        numpy adapter's.  The Python kernel steps the cgen side only
        while the optimizer has no momentum buffers: the first step."""
        run = _TailRun(monkeypatch, stats_mode=stats_mode, momentum=momentum)
        taken = 0
        for upto in (1, 2, 5):
            run.step(upto - taken)
            taken = upto
            run.assert_in_step()
        state = _adapter_state(run.adapters["cgen"])
        assert state["1.num_batches_tracked"] == 5
        assert run.calls["numpy"] == 5 * 4
        assert run.calls["cgen"] == (4 if momentum else 0)
        info = run.adapters["cgen"]._compiled.plan_for(
            np.zeros((1, 3, 9, 13), dtype=np.float32)
        ).backend_info
        assert info["numpy_stages"] == {} and info["demoted"] == 0

    def test_an_unarmed_replay_updates_nothing(self):
        x = np.random.default_rng(0).standard_normal((1, 3, 9, 13)).astype(
            np.float32
        )
        for backend in ("numpy", "cgen"):
            model = _pool_stack(29, np.float64)
            model.eval()
            before = {k: np.array(v) for k, v in model.state_dict().items()}
            plan = CompiledAdaptStep(model, backend=backend).plan_for(x)
            plan.run(x)
            with pytest.raises(ValueError, match="2 update destinations"):
                plan.run(x, update=(None, None))
            for key, value in model.state_dict().items():
                assert value.tobytes() == before[key].tobytes(), (backend, key)

    def test_reset_then_a_step_rebinds_fresh_buffers(self, monkeypatch):
        run = _TailRun(monkeypatch)
        run.step(3)
        stale = {
            side: [
                adapter.optimizer.state[id(p)]["momentum"]
                for p in adapter.optimizer.params
            ]
            for side, adapter in run
        }
        kept = [buf.copy() for buf in stale["cgen"]]
        for _, adapter in run:
            adapter.reset()
            assert adapter.optimizer.state == {}
        run.step(3)
        run.assert_in_step()
        assert run.calls["cgen"] == 2 * 4  # one first step before, one after
        for buf, copy in zip(stale["cgen"], kept):
            assert buf.tobytes() == copy.tobytes()  # nothing wrote the old ones

    def test_a_rebound_param_is_seen(self, monkeypatch):
        run = _TailRun(monkeypatch)
        run.step(2)
        old = {}
        for side, adapter in run:
            for param in adapter.optimizer.params[:2]:
                old[side, id(param)] = param.data
                param.data = param.data.astype(np.float64)  # same values, new array
                assert param.data is not old[side, id(param)]
        kept = {key: data.copy() for key, data in old.items()}
        run.step(2)
        run.assert_in_step()
        assert run.calls["cgen"] == 4  # still only the first step
        for key, data in old.items():
            assert data.tobytes() == kept[key].tobytes()
        # and a dtype the C tail does not step goes back to the closure
        for _, adapter in run:
            param = adapter.optimizer.params[0]
            param.data = param.data.astype(np.float32)
        run.step(1)
        assert run.calls["cgen"] == 4 + 4
        run.assert_in_step()

    @pytest.mark.parametrize("tweak", ["weight_decay", "nesterov"])
    def test_what_the_c_does_not_step_keeps_the_python_loop(
        self, tweak, monkeypatch
    ):
        run = _TailRun(monkeypatch)
        for _, adapter in run:
            setattr(adapter.optimizer, tweak, 1e-3 if tweak == "weight_decay" else True)
        run.step(3)
        run.assert_in_step()
        assert run.calls["cgen"] == run.calls["numpy"] == 3 * 4

    def test_adam_still_steps_in_python(self, monkeypatch):
        run = _TailRun(monkeypatch, optimizer="adam")
        run.step(3)
        run.assert_in_step()
        assert run.calls == {"numpy": 0, "cgen": 0}
        for _, adapter in run:
            assert {
                slots["step"] for slots in adapter.optimizer.state.values()
            } == {3}

    def test_strict_keeps_the_closure(self):
        x = np.random.default_rng(0).standard_normal((1, 3, 9, 13)).astype(
            np.float32
        )
        model = _pool_stack(29, np.float64)
        model.eval()
        plan = CompiledAdaptStep(model, backend="cgen-strict").plan_for(x)
        assert plan.backend_info["numpy_stages"]["bwd:update"] == 1

    def test_fused_groups_and_checkpoints(self, monkeypatch):
        """The fleet path: sessions as destinations, two groups of two
        alternating over one shared plan, per-stream lr / momentum /
        stats mode.  Snapshots and momentum buffers track a numpy
        batcher's; a checkpoint taken after a tail step restores
        ``tobytes``-equal, and the step after it (restored buffers are
        new arrays) still lands beside numpy's."""
        from repro.serve import capture_session_state, restore_session_state
        from repro.serve.adapt_batch import FleetAdaptationBatcher
        from repro.serve.streams import StreamRegistry

        counter = _KernelCalls(monkeypatch)
        configs = [
            dict(lr=1e-2), dict(lr=3e-3, momentum=0.5),
            dict(lr=1e-2, stats_mode="ema"), dict(lr=2e-2, momentum=0.0),
        ]
        sides = {}
        for backend in ("numpy", "cgen"):
            model = _pool_stack(29, np.float64)
            model.eval()
            registry = StreamRegistry(model)
            sessions = [
                registry.register(
                    f"s{i}", iter(()), LDBNAdapt(model, LDBNAdaptConfig(**cfg)),
                    deadline_ms=33.3,
                )
                for i, cfg in enumerate(configs)
            ]
            sides[backend] = (
                FleetAdaptationBatcher(model, backend=backend), sessions
            )
        rng = np.random.default_rng(47)

        def fused_round():
            for pair in ((0, 1), (2, 3)):
                frames = [
                    rng.standard_normal((3, 9, 13)).astype(np.float32)
                    for _ in pair
                ]
                for counter.side, (batcher, sessions) in sides.items():
                    batcher.stage([sessions[i] for i in pair], frames).execute()

        def states(backend):
            out = {}
            for session in sides[backend][1]:
                arrays, _ = capture_session_state(session)
                out.update({
                    f"{session.stream_id}.{key}": np.array(value)
                    for key, value in arrays.items()
                })
            return out

        for _ in range(3):
            fused_round()
        _assert_states_close(states("cgen"), states("numpy"))
        assert any(".opt." in key for key in states("cgen"))

        taken = {
            backend: [capture_session_state(s) for s in sessions]
            for backend, (_, sessions) in sides.items()
        }
        before = states("cgen")
        fused_round()
        for backend, (_, sessions) in sides.items():
            for session, (arrays, meta) in zip(sessions, taken[backend]):
                restore_session_state(session, arrays, meta)
        after = states("cgen")
        assert after.keys() == before.keys()
        for key in before:
            assert after[key].tobytes() == before[key].tobytes(), key
        fused_round()
        _assert_states_close(states("cgen"), states("numpy"))
        # the Python kernel stepped the cgen side in the first round only
        # (no momentum buffers yet): 4 streams x 2 BN layers x gamma, beta
        assert counter.calls == {"numpy": 5 * 16, "cgen": 16}


# ---------------------------------------------------------------------------
# rendered conv input gradients (gather form) and the entropy tail


def _step_outputs(plan, x):
    """One replay -> [losses, per-tap gamma/beta gradients]."""
    outputs = [np.array(plan.run(x))]
    for tap in plan.bn_taps:
        outputs += [tap.grad_gamma.copy(), tap.grad_beta.copy()]
    return outputs


class _TwoBranch(nn.Module):
    """BN -> (conv_a + conv_b) -> BN: the first BN's output feeds both
    convs, so the backward lands one *fresh* conv input gradient (conv_b,
    visited first) and one *accumulating* (conv_a) in the same buffer."""

    def __init__(self, c, f, kernel, stride, padding, dtype, rng):
        super().__init__()
        self.bn_in = nn.BatchNorm2d(c)
        self.conv_a = nn.Conv2d(c, f, kernel, stride=stride, padding=padding,
                                bias=False, rng=rng)
        self.conv_b = nn.Conv2d(c, f, kernel, stride=stride, padding=padding,
                                bias=False, rng=rng)
        self.bn_out = nn.BatchNorm2d(f)
        for param in self.parameters():
            param.data = param.data.astype(dtype)

    def forward(self, x):
        y = self.bn_in(x)
        return self.bn_out(self.conv_a(y) + self.conv_b(y))


def _dx(plan):
    """The first BN's output gradient: the last gradient buffer the
    backward creates, still intact after the step (nothing runs after
    the first BN's backward, which only reads it)."""
    return list(plan._grads.values())[-1]


@needs_cc
class TestRenderedConvDgrad:
    @pytest.mark.parametrize("preset", ["tiny-r18", "small-r18"])
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("env_threads", [None, "2"])
    def test_weights_overwritten_in_place_are_seen(
        self, preset, groups, env_threads, monkeypatch
    ):
        """``load_state_dict`` writes ``param.data[...]`` in place — same
        array object, so no binder rebinds anything.  The dgrad reads the
        weights the forward reads: after the overwrite a compiled cgen
        plan must step like a numpy plan compiled *afterwards*.  A packed
        or flipped weight copy made at compile time would fail here."""
        from repro.models import build_model

        if env_threads is None:
            monkeypatch.delenv(ENV_THREADS, raising=False)
        else:
            monkeypatch.setenv(ENV_THREADS, env_threads)
        model = build_model(preset, rng=np.random.default_rng(1))
        model.eval()
        h, w = model.config.input_hw
        x = np.random.default_rng(2).standard_normal(
            (groups, 3, h, w)
        ).astype(np.float32)
        plan = CompiledAdaptStep(model, backend="cgen").plan_for(
            x, groups=groups
        )
        assert "bwd:conv" not in plan.backend_info["numpy_stages"]
        before = _step_outputs(plan, x)

        convs = [m for m in model.modules() if isinstance(m, nn.Conv2d)]
        held = [conv.weight.data for conv in convs]
        other = build_model(preset, rng=np.random.default_rng(99))
        model.load_state_dict(other.state_dict())
        assert all(c.weight.data is d for c, d in zip(convs, held))

        got = _step_outputs(plan, x)
        want = _step_outputs(
            CompiledAdaptStep(model, backend="numpy").plan_for(
                x, groups=groups
            ),
            x,
        )
        assert not np.allclose(before[0], want[0]), "overwrite changed nothing"
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_phases_taps_and_sinks_vs_the_numpy_closure(self, data):
        """Kernels 1-5 (non-square too), strides 1-3 — beyond the kernel
        included, and with trailing rows/cols no window reaches — padding
        0-2, both dtypes, a fresh and an accumulating sink per example:
        every rendered dgrad survives the probe against ``_conv_dgrad`` +
        ``_col2im_accumulate``, the step lands beside the numpy plan,
        cells no window reaches hold exactly 0, and every gradient
        buffer is bit-for-bit the same at pool widths 1, 2 and 3."""
        from repro.nn import functional as F

        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        kernel = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
        stride = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
        padding = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
        n = data.draw(st.integers(1, 3))
        c, f = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        h = data.draw(st.integers(max(1, kernel[0] - 2 * padding[0]), 9))
        w = data.draw(st.integers(max(1, kernel[1] - 2 * padding[1]), 14))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        x = rng.standard_normal((n, c, h, w)).astype(dtype)

        def plan_for(backend, threads=None):
            model = _TwoBranch(c, f, kernel, stride, padding, dtype,
                               np.random.default_rng(7))
            model.train()
            return CompiledAdaptStep(
                model, backend=backend, threads=threads
            ).plan_for(x)

        oracle = plan_for("numpy")
        want = _step_outputs(oracle, x)
        with pytest.MonkeyPatch.context() as patch:
            _tile_everything(patch)
            plans = [plan_for("cgen", nt) for nt in (1, 2, 3)]
            got = [_step_outputs(plan, x) for plan in plans]
        for plan in plans:
            info = plan.backend_info
            assert info["demoted"] == 0, info
            assert "bwd:conv" not in info["numpy_stages"], info
        tol = (
            dict(rtol=2e-3, atol=2e-5) if dtype == np.float32
            else dict(rtol=1e-7, atol=1e-10)
        )
        for a, b in zip(got[0], want):
            np.testing.assert_allclose(a, b, **tol)
        np.testing.assert_allclose(_dx(plans[0]), _dx(oracle), **tol)
        # cells of dX under no window: a column block of ones scatters
        # a count >= 1 into every cell some window covers
        geo = lower_conv(x.shape, (f, c) + kernel, stride, padding,
                         dtype, dtype)
        reached = F._col2im(
            np.ones((n, geo.k_total, geo.p_total)), x.shape, kernel, stride,
            padding,
        )
        assert not _dx(plans[0])[reached == 0].any()
        grads = [[g.tobytes() for g in p._grads.values()] for p in plans]
        assert grads[0] == grads[1] == grads[2]

    def test_strict_keeps_every_dgrad_on_the_closure(self):
        """Summation order differs from BLAS-then-col2im, so strict
        declines the kind up front and replays the numpy plan's bytes."""
        model, _, x = _model_and_frames("small-r18", 1, 3)
        want = _step_outputs(CompiledAdaptStep(model).plan_for(x), x)
        plan = CompiledAdaptStep(model, backend="cgen-strict").plan_for(x)
        got = _step_outputs(plan, x)
        band = CompiledAdaptStep(model, backend="cgen").plan_for(x)
        assert plan.backend_info["numpy_stages"]["bwd:conv"] == 20
        assert "bwd:conv" not in band.backend_info["numpy_stages"]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_rendered_dgrad_needs_no_column_or_image_scratch(self):
        """The closure's ``gcols`` (and, accumulating, ``gpad``) blocks
        are what the numpy plan requests from the arena beyond the cgen
        plan, to the byte; strict, declining the kind, requests them."""
        n, c, f, h, w = 2, 4, 6, 7, 9
        x = np.random.default_rng(0).standard_normal((n, c, h, w))

        def requested(backend):
            model = _TwoBranch(c, f, (3, 3), (1, 1), (1, 1), np.float64,
                               np.random.default_rng(7))
            model.train()
            plan = CompiledAdaptStep(model, backend=backend).plan_for(x)
            return plan.stats.requested_bytes, plan.stats.arena_bytes

        gcols = n * (c * 9) * (h * w) * 8
        gpad = n * c * h * w * 8
        numpy_req, numpy_arena = requested("numpy")
        cgen_req, cgen_arena = requested("cgen")
        assert numpy_req - cgen_req == 2 * gcols + gpad
        assert cgen_arena < numpy_arena
        assert requested("cgen-strict") == (numpy_req, numpy_arena)

    def test_one_offer_kind_for_every_geometry(self, monkeypatch):
        """``conv_bwd`` (the identity-only 1x1 path) is gone: every conv
        input gradient of small-r18 — 3x3, strided 3x3, strided 1x1
        downsample, the head's plain 1x1 — is offered as ``conv_dgrad``."""
        assert not hasattr(cgen.CRenderer, "_try_conv_bwd")
        kinds = []
        offer_stage = cgen.CRenderer.offer_stage

        def spy(self, kind, spec, fallback):
            kinds.append(kind)
            return offer_stage(self, kind, spec, fallback)

        monkeypatch.setattr(cgen.CRenderer, "offer_stage", spy)
        model, _, x = _model_and_frames("small-r18", 1, 3)
        CompiledAdaptStep(model, backend="cgen").plan_for(x)
        assert kinds.count("conv_dgrad") == 20
        assert "conv_bwd" not in kinds


# ---------------------------------------------------------------------------
# small grids: the reduction (forward) or the weight columns (input
# gradient) on the lanes


class _StageUnit:
    """Stages offered straight to one renderer, run from its table through
    the library's test entry: each as every thread of a pool of any width
    up to ``WIDTH`` in turn (``tid`` / ``nt`` are a kernel's arguments;
    ownership is fixed and disjoint, so one thread after another writes
    what they would side by side) — 45 geometries cost no compile beyond
    the library's own."""

    WIDTH = 3

    def __init__(self):
        self.renderer = cgen.CRenderer(CGenBackend(), threads=self.WIDTH)

    def offer(self, kind, **spec):
        offer = self.renderer.offer_stage(kind, spec, None)
        assert offer is not None, (kind, spec)
        return offer.sid

    def build(self):
        from test_conv_sanitizer import bound_table

        self.tab = bound_table(self.renderer)
        self.rows, self.args = self.renderer._tables()
        lib, err = self.renderer._load({})  # reserves the stages' scratch
        assert lib is not None, err
        self.stage_as = lib.repro_stage_as
        self.stage_as.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_longlong] * 2
        self.stage_as.restype = None

    def run(self, sid, nt=1):
        self.stage_as(self.tab.ctypes.data, self.rows.ctypes.data,
                      self.args.ctypes.data, sid, nt)


class _SmallGridCase:
    """One geometry of ``small_grid_cases``: the forward conv and both
    sinks of its input gradient on the whole batch and on every sample
    alone, with the numpy closures' arithmetic as the reference."""

    def __init__(self, unit, index, kernel, stride, padding, h, w, n, c, f):
        rng = np.random.default_rng(100 + index)
        xd, cd = [(np.float32, np.float64), (np.float64, np.float64),
                  (np.float32, np.float32)][index % 3]
        self.n, self.cd = n, cd
        self.conv = dict(stride=stride, padding=padding)
        self.kernel = kernel
        self.weight = nn.Tensor(rng.standard_normal((f, c) + kernel).astype(cd))
        self.bias = (
            nn.Tensor(rng.standard_normal(f).astype(cd)) if index % 2 else None
        )
        self.relu = index % 4 == 1
        self.x = rng.standard_normal((n, c, h, w)).astype(xd)
        self.g = None
        self.base = rng.standard_normal((n, c, h, w)).astype(cd)
        self.fwd, self.bwd = [], {False: [], True: []}
        # the batch first, then each sample alone
        for rows in [slice(0, n)] + [slice(i, i + 1) for i in range(n)]:
            x = np.ascontiguousarray(self.x[rows])
            geo = lower_conv(x.shape, self.weight.shape, stride, padding, cd, xd)
            if self.g is None:
                self.g = rng.standard_normal(
                    (n, f, geo.out_h, geo.out_w)
                ).astype(cd)
            out3 = np.empty((x.shape[0], f, geo.p_total), dtype=cd)
            self.fwd.append((unit.offer(
                "conv", geo=geo, weight=self.weight, bias=self.bias, out3=out3,
                x_src=("fixed", x), relu=self.relu, bn_module=None,
            ), x, out3, rows))
            g = np.ascontiguousarray(self.g[rows])
            for accumulate in (False, True):
                dst = np.empty(x.shape, dtype=cd)
                self.bwd[accumulate].append((unit.offer(
                    "conv_dgrad", geo=geo, dtype=cd, weight=self.weight, g=g,
                    dst=dst, accumulate=accumulate,
                ), g, dst, rows))

    def forward_closure(self, x):
        out = F.conv2d(
            nn.Tensor(x.astype(self.cd)), self.weight, self.bias, **self.conv
        ).numpy()
        return np.maximum(out, 0) if self.relu else out

    def dgrad_closure(self, g, accumulate, rows):
        n, f = g.shape[:2]
        cols = F._conv_dgrad(
            self.weight.data.reshape(f, -1), g.reshape(n, f, -1)
        )
        image = F._col2im(
            cols, self.base[rows].shape, self.kernel, self.conv["stride"],
            self.conv["padding"],
        )
        return self.base[rows] + image if accumulate else image

    def run_dgrad(self, unit, accumulate, which=0, nt=1):
        sid, _, dst, rows = self.bwd[accumulate][which]
        dst[...] = self.base[rows] if accumulate else np.nan
        unit.run(sid, nt)
        return dst


@pytest.fixture(scope="module")
def small_grids():
    from test_conv_sanitizer import small_grid_cases

    unit = _StageUnit()
    cases = [
        _SmallGridCase(unit, index, *case)
        for index, case in enumerate(small_grid_cases())
    ]
    unit.build()
    return unit, cases


@needs_cc
class TestSmallGridKernels:
    """Grids of at most half a panel leave the pixels-on-lanes kernel
    mostly padding, so ``conv_small`` sends them to ``convk_*`` / ``convt_*``.
    The geometries are the sanitizer harness's: 1x1, 1x3, 2x5 and the
    grids on either side of the rule at both vector widths, ``kt`` / ``9C``
    off every vector length, strides 1-2, padding 0-2, batches 1-4."""

    def test_band_parity_and_pool_width_invariance(self, small_grids):
        unit, cases = small_grids
        for case in cases:
            sid, x, out3, _ = case.fwd[0]
            unit.run(sid, 1)
            np.testing.assert_allclose(
                out3.reshape(case.forward_closure(x).shape),
                case.forward_closure(x), **_band(case.cd),
            )
            first = out3.tobytes()
            for nt in (2, 3):
                out3[...] = np.nan
                unit.run(sid, nt)
                assert out3.tobytes() == first, (case.conv, nt)
            for accumulate in (False, True):
                got = case.run_dgrad(unit, accumulate).copy()
                np.testing.assert_allclose(
                    got,
                    case.dgrad_closure(case.g, accumulate, slice(0, case.n)),
                    **_band(case.cd),
                )
                for nt in (2, 3):
                    again = case.run_dgrad(unit, accumulate, nt=nt)
                    assert again.tobytes() == got.tobytes(), (case.conv, nt)

    def test_a_sample_alone_is_the_sample_in_a_batch(self, small_grids):
        """The samples of a batch are just more positions of one GEMM:
        wherever a sample sits, each of its outputs is the same chain."""
        unit, cases = small_grids
        for case in cases:
            (sid, _, batch, _), *alone = case.fwd
            unit.run(sid)
            for sid_i, _, out3, rows in alone:
                unit.run(sid_i)
                assert out3.tobytes() == batch[rows].tobytes(), case.conv
            for accumulate in (False, True):
                whole = case.run_dgrad(unit, accumulate).copy()
                for i in range(case.n):
                    part = case.run_dgrad(unit, accumulate, which=1 + i)
                    assert part.tobytes() == whole[i:i + 1].tobytes(), case.conv

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_footprints_are_the_closures(self, small_grids, poison):
        """One poisoned input pixel / ``dY`` element reaches exactly the
        cells it reaches in the numpy closure, and nothing of the next
        sample.  The scatter form skips taps that fall outside the image
        where the gather form multiplied padding zeros — the same cells
        for finite weights, which is what both closures assume too."""
        unit, cases = small_grids
        spot = np.random.default_rng(9)
        for case in cases:
            sid, x, out3, _ = case.fwd[0]
            at = (0,) + tuple(spot.integers(d) for d in x.shape[1:])
            kept, x[at] = x[at], poison
            with np.errstate(invalid="ignore"):
                want = case.forward_closure(x)
            unit.run(sid)
            x[at] = kept
            got = out3.reshape(want.shape)
            assert np.array_equal(np.isfinite(got), np.isfinite(want)), case.conv
            np.testing.assert_allclose(got, want, **_band(np.float32))
            assert np.isfinite(got[1:]).all()

            g = case.bwd[False][0][1]
            at = (0,) + tuple(spot.integers(d) for d in g.shape[1:])
            kept, g[at] = g[at], poison
            for accumulate in (False, True):
                with np.errstate(invalid="ignore"):
                    want = case.dgrad_closure(g, accumulate, slice(0, case.n))
                got = case.run_dgrad(unit, accumulate)
                assert np.array_equal(np.isfinite(got), np.isfinite(want))
                np.testing.assert_allclose(got, want, **_band(np.float32))
                assert np.isfinite(got[1:]).all()
            g[at] = kept

    def test_per_sample_affine_follows_its_sample(self, rng):
        """Fleet overrides on a 2x5 grid: a batch's positions share one
        tile, each still folded with its own sample's (scale, shift)."""
        model = nn.Sequential(
            nn.Conv2d(4, 6, 3, padding=1, bias=False, rng=rng),
            nn.BatchNorm2d(6), nn.ReLU(),
        )
        model.eval()
        x = rng.standard_normal((3, 4, 2, 5)).astype(np.float32)
        bn = model[1]
        bn.per_sample_stats = (
            rng.uniform(0.5, 2.0, size=(3, 6)), rng.uniform(-1, 1, size=(3, 6))
        )
        want = compile_model(model)(x).numpy().copy()
        for nt in (1, 2, 3):
            got = compile_model(model, backend=CGenBackend(threads=nt))(x).numpy()
            np.testing.assert_allclose(got, want, **_band(np.float32))

    @pytest.mark.parametrize("preset", ["small-r18", "tiny-r18"])
    def test_every_stage_survives_the_probe(self, preset):
        """Layers 3 and 4 of tiny-r18 are 2x5 and 1x3, layer 4 of
        small-r18 is 2x5: both plans of both presets stay all-C."""
        model, _, x = _model_and_frames(preset, 1, 3)
        engine = compile_model(model, backend="cgen")
        engine(x)
        for plan in (
            engine.plan_for(x.shape, x.dtype),
            CompiledAdaptStep(model, backend="cgen").plan_for(x),
        ):
            info = plan.backend_info
            assert info["demoted"] == 0 and info["numpy_stages"] == {}, info

    @pytest.mark.parametrize("groups", [1, 2])
    def test_small_r18_steps_beside_the_numpy_adapter(self, groups):
        """Logits and everything a step writes, after 1 and 5 LD-BN-ADAPT
        steps on the same frames: within 1e-9 of the numpy adapter's,
        batch 1 and fused groups of 2 (one plan, per-group taps)."""
        from repro.serve.adapt_batch import FleetAdaptationBatcher
        from repro.serve.streams import StreamRegistry

        sides = {}
        for backend in ("numpy", "cgen"):
            model, _, _ = _model_and_frames("small-r18", 1, 5)
            registry = StreamRegistry(model)
            sessions = [
                registry.register(
                    f"s{i}", iter(()),
                    LDBNAdapt(model, LDBNAdaptConfig(lr=1e-3, backend=backend)),
                    deadline_ms=33.3,
                )
                for i in range(groups)
            ]
            sides[backend] = (
                model, sessions, FleetAdaptationBatcher(model, backend=backend)
            )
        frames = np.random.default_rng(6)
        h, w = sides["numpy"][0].config.input_hw
        probe = frames.standard_normal((1, 3, h, w)).astype(np.float32)
        taken = 0
        for upto in (1, 5):
            for _ in range(upto - taken):
                batch = [
                    frames.standard_normal((3, h, w)).astype(np.float32)
                    for _ in range(groups)
                ]
                for model, sessions, batcher in sides.values():
                    if groups == 1:
                        sessions[0].adapter.adapt(batch[0][None])
                    else:
                        batcher.stage(sessions, batch).execute()
            taken = upto
            states, logits = {}, {}
            for backend, (model, sessions, _) in sides.items():
                states[backend] = [
                    _adapter_state(s.adapter) for s in sessions
                ]
                model.eval()
                logits[backend] = compile_model(model, backend=backend)(
                    probe
                ).numpy().copy()
            for got, want in zip(states["cgen"], states["numpy"]):
                _assert_states_close(got, want)
            np.testing.assert_allclose(
                logits["cgen"], logits["numpy"], rtol=0, atol=1e-9
            )


# ---------------------------------------------------------------------------
# the stem memo: one stem conv per served-and-adapted frame


def _stem_pair(threads):
    """A served model's two engines over one backend instance (so one
    memo), the step compiled first: storage exists from the first served
    frame on."""
    from repro.models import build_model

    backend = CGenBackend(threads=threads)
    model = build_model("tiny-r18", rng=np.random.default_rng(1))
    model.eval()
    engine = compile_model(model, backend=backend)
    step = CompiledAdaptStep(model, backend=backend)
    memo = backend.stem_memo(model.backbone.conv1.weight)
    return model, engine, step, memo


def _stem_frames(batch, seed=2):
    from repro.models import get_config

    h, w = get_config("tiny-r18").input_hw
    return np.random.default_rng(seed).standard_normal(
        (batch, 3, h, w)
    ).astype(np.float32)


def _frame_bytes(threads, x_served, x_stepped, groups, between=None):
    """Serve ``x_served``, run ``between(model, memo)``, step on
    ``x_stepped`` -> (the step plan's memo counts, every byte the frame
    left: losses, the taps, the state an armed single-stream step wrote,
    the next served logits)."""
    model, engine, step, memo = _stem_pair(threads)
    plan = step.plan_for(x_stepped, groups=groups)
    engine(x_served)
    if between is not None:
        between(model, memo)
    adapter = LDBNAdapt(
        model, LDBNAdaptConfig(lr=1e-2, batch_size=len(x_stepped)),
        compiled=step,
    )
    if groups == 1:
        adapter.adapt(x_stepped)  # first step: the closure's tail
        engine(x_served)
        if between is not None:
            between(model, memo)
        left = [np.float64(adapter.adapt(x_stepped).loss)]
        left += _adapter_state(adapter).values()
    else:
        left = [np.array(plan.run(x_stepped))]
    for tap in plan.bn_taps:
        left += [tap.batch_mean, tap.batch_var, tap.grad_gamma, tap.grad_beta]
    left.append(engine(x_served).numpy())
    counts = dict(plan.backend_info["stem_memo"])
    return counts, [np.array(a).tobytes() for a in left]


def _empty(model, memo):
    memo.header["n"] = 0


@needs_cc
class TestStemMemo:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_hit_leaves_the_bytes_of_a_miss(self, threads, monkeypatch):
        """Batch 1 serving a batch-1 step: the hit copies the stored
        rows, and every buffer the frame leaves is what running the conv
        leaves."""
        _tile_everything(monkeypatch)
        x = _stem_frames(1)
        hit, got = _frame_bytes(threads, x, x.copy(), 1)
        miss, want = _frame_bytes(threads, x, x.copy(), 1, between=_empty)
        assert hit["hits"] == 2 and miss["empty"] == 2
        assert sum(hit.values()) == 2
        assert got == want

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_group_of_two_draws_from_a_batch_of_four(
        self, threads, monkeypatch
    ):
        """A fused group of 2 finds its samples at other positions of a
        batch-4 launch: one copy per sample, same bytes."""
        _tile_everything(monkeypatch)
        x4 = _stem_frames(4)
        x2 = x4[[3, 1]]
        hit, got = _frame_bytes(threads, x4, x2, 2)
        miss, want = _frame_bytes(threads, x4, x2, 2, between=_empty)
        assert hit["hits"] == 1 and miss["empty"] == 1
        assert got == want

    def test_what_misses_and_why(self):
        """Content decides: another frame, a frame changed in place after
        it was served, weights overwritten in place between the two
        replays and a step nobody served before each run the conv, and
        say which; a NaN frame is bytes like any other."""
        model, engine, step, memo = _stem_pair(1)
        x, y = _stem_frames(1), _stem_frames(1, seed=3)
        plan = step.plan_for(x)
        counts = plan.backend_info["stem_memo"]
        fresh = CompiledAdaptStep(model, backend="numpy").plan_for(x)

        def stepped(frame, reason):
            before = dict(counts)
            got = _step_outputs(plan, frame)
            after = dict(counts)
            assert after.pop(reason) == before.pop(reason) + 1
            assert after == before
            want = _step_outputs(fresh, frame)
            if not np.isnan(frame).any():
                for a, b in zip(got, want):
                    np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9)
            return got

        stepped(x, "empty")  # nothing served yet
        engine(x)
        served = stepped(x, "hits")
        stepped(y, "frame")
        engine(x)
        x[0, 1, 5, 7] += 1.0
        stepped(x, "frame")
        engine(x)
        conv = model.backbone.conv1
        held = conv.weight.data
        conv.weight.data[...] = held * 0.5
        assert conv.weight.data is held
        halved = stepped(x, "weights")
        assert not np.allclose(halved[1], served[1])
        engine(x)
        stepped(x, "hits")
        x[0, 0, 0, 0] = np.nan
        engine(x)
        nan_hit = stepped(x, "hits")
        memo.header["n"] = 0
        nan_ran = stepped(x, "empty")
        assert [a.tobytes() for a in nan_hit] == [a.tobytes() for a in nan_ran]

    def test_another_input_size_is_a_shape_miss(self):
        backend = CGenBackend(threads=1)
        rng = np.random.default_rng(5)
        model = _bn_model(rng)
        engine = compile_model(model, backend=backend)
        step = CompiledAdaptStep(model, backend=backend)
        small = rng.standard_normal((1, 3, 8, 12)).astype(np.float32)
        wide = rng.standard_normal((1, 3, 8, 20)).astype(np.float32)
        plan = step.plan_for(small)
        engine(small)
        engine(wide)  # the memo is re-dimensioned for the latest geometry
        plan.run(small)
        assert plan.backend_info["stem_memo"]["shape"] == 1
        engine(small)  # the storage is the wide plan's: nothing stored
        plan.run(small)
        assert plan.backend_info["stem_memo"]["shape"] == 2

    def test_a_model_that_is_only_served_stores_nothing(self, rng):
        backend = CGenBackend(threads=1)
        model = _bn_model(rng)
        engine = compile_model(model, backend=backend)
        x = rng.standard_normal((2, 3, 8, 12)).astype(np.float32)
        engine(x)
        memo = backend.stem_memo(model[0].weight)
        assert memo.nbytes == 0 and memo.header["cap"][0] == 0
        assert engine.plan_for(x.shape, x.dtype).backend_info[
            "stem_memo"] is None
        # nor does a step over a group of two: it adapts on frames earlier
        # launches served, and the memo holds the last one's
        step = CompiledAdaptStep(model, backend=backend)
        assert step.plan_for(x).backend_info["stem_memo"] is None
        engine(x)
        assert memo.nbytes == 0
        step.plan_for(x[:1])
        # two samples' input, the weights, two samples' f64 rows
        assert memo.nbytes == 2 * x[0].nbytes + model[0].weight.data.nbytes \
            + 2 * 8 * 8 * 12 * 8
        assert memo.header["cap"][0] == 2

    def test_one_looking_up_row_a_plan(self, rng):
        """A second conv over the plan input of an adaptation plan gets
        no memo (the renderer keeps one set of counters): it just runs."""
        renderer = cgen.CRenderer(CGenBackend(threads=1), group_size=1)
        geo = lower_conv((1, 3, 16, 24), (4, 3, 3, 3), (1, 1), (1, 1),
                         np.float64, np.float32)
        for _ in range(2):
            offer = renderer.offer_stage("conv", dict(
                geo=geo, x_src=("input", None), bias=None, bn_module=None,
                weight=nn.Parameter(rng.standard_normal((4, 3, 3, 3))),
                out3=np.empty((1, 4, geo.p_total)), relu=False,
            ), lambda: None)
            assert offer is not None
        assert len(renderer._memos) == 1

    def test_a_numpy_reader_finds_the_copied_rows(self, monkeypatch):
        """A hit copies into the plan's own buffer, which a stage left a
        Python closure reads like any other."""
        real = cgen.CRenderer._try_bn_train
        monkeypatch.setattr(
            cgen.CRenderer, "_try_bn_train", lambda self, spec, fb: None
        )
        x = _stem_frames(1)
        hit, got = _frame_bytes(1, x, x.copy(), 1)
        monkeypatch.setattr(cgen.CRenderer, "_try_bn_train", real)
        assert hit["hits"] == 2
        _, want = _frame_bytes(1, x, x.copy(), 1, between=_empty)
        # numpy's pairwise BN statistics vs the lanes': the band, not
        # bytes (every array the frame leaves is int64 or float64)
        for a, b in zip(got, want):
            np.testing.assert_allclose(
                np.frombuffer(a), np.frombuffer(b), rtol=1e-5, atol=1e-7
            )


# ---------------------------------------------------------------------------
# bind on change: one identity sweep a replay, binders only behind it


def _count_binders(monkeypatch):
    """Count every binder closure call of plans compiled from here on."""
    calls = [0]
    register = cgen._Offer.bind_on

    def counting(self, bind, owner, *paths):
        def counted(*values):
            calls[0] += 1
            return bind(*values)

        register(self, counted, owner, *paths)

    monkeypatch.setattr(cgen._Offer, "bind_on", counting)
    return calls


class _ServedTwins:
    """A cgen and a numpy (engine, adapter, session) over twin models,
    fed the same frames: serve, then one armed step, both plan kinds a
    frame; the cgen side's binder closures are counted."""

    def __init__(self, monkeypatch):
        from repro.serve.streams import StreamRegistry

        self.binders = _count_binders(monkeypatch)
        self.sides = {}
        for backend in ("cgen", "numpy"):
            model = _pool_stack(29, np.float64)
            model.eval()
            adapter = LDBNAdapt(
                model, LDBNAdaptConfig(backend=backend, lr=1e-2)
            )
            session = StreamRegistry(model).register(
                "s0", iter(()), adapter, deadline_ms=33.3
            )
            self.sides[backend] = (
                model, compile_model(model, backend=backend), adapter, session
            )
        self.rng = np.random.default_rng(61)

    def each(self, change):
        for model, _, adapter, session in self.sides.values():
            change(model, adapter, session)

    def frame(self):
        """One served-and-adapted frame on both sides, held to the numpy
        side; returns how many binder closures the cgen side called."""
        x = self.rng.standard_normal((1, 3, 9, 13)).astype(np.float32)
        before = self.binders[0]
        logits = {}
        for backend, (_, engine, adapter, _) in self.sides.items():
            logits[backend] = engine(x).numpy().copy()
            adapter.adapt(x)
        np.testing.assert_allclose(
            logits["cgen"], logits["numpy"], rtol=1e-9, atol=1e-12
        )
        _assert_states_close(*(
            _adapter_state(self.sides[side][2]) for side in ("cgen", "numpy")
        ))
        return self.binders[0] - before


@needs_cc
class TestBindOnChange:
    def test_steady_frames_call_no_binder(self, monkeypatch):
        twins = _ServedTwins(monkeypatch)
        assert twins.frame() > 0  # the first replays bind everything
        assert [twins.frame() for _ in range(4)] == [0] * 4

    @pytest.mark.parametrize("what", ["conv", "gamma", "beta"])
    def test_a_rebound_array_is_seen_by_the_next_replay(
        self, what, monkeypatch
    ):
        twins = _ServedTwins(monkeypatch)
        for _ in range(2):
            twins.frame()

        def rebind(model, adapter, session):
            param = {"conv": model[0].weight, "gamma": model[1].weight,
                     "beta": model[5].bias}[what]
            held = param.data
            param.data = held * 0.75
            assert param.data is not held

        twins.each(rebind)
        assert twins.frame() > 0  # ... and held to numpy inside
        assert twins.frame() == 0

    def test_in_place_writes_need_no_binder(self, monkeypatch):
        """``+=``, ``load_state_dict`` and a session's ``swap_in`` write
        through the arrays already bound."""
        twins = _ServedTwins(monkeypatch)
        for _ in range(2):
            twins.frame()
        other = _pool_stack(31, np.float64).state_dict()

        def shift(model, adapter, session):
            model[1].weight.data += 0.125
            model[1].running_mean += 0.25

        def swap(model, adapter, session):
            session.swap_in()  # the state the session registered with

        for change in (
            shift, lambda model, *_: model.load_state_dict(other), swap,
        ):
            twins.each(change)
            assert twins.frame() == 0

    def test_reset_and_a_checkpoint_restore_are_seen(self, monkeypatch):
        """Both replace the momentum buffers (and write the model in
        place): the tail's rows are refilled by the next armed replay,
        without one binder closure."""
        from repro.serve import capture_session_state, restore_session_state

        twins = _ServedTwins(monkeypatch)
        for _ in range(3):
            twins.frame()
        twins.each(lambda model, adapter, session: adapter.reset())
        assert [twins.frame() for _ in range(3)] == [0] * 3

        taken = {}

        def capture(model, adapter, session):
            session.swap_out()
            taken[id(session)] = capture_session_state(session)

        def restore(model, adapter, session):
            buffers = [
                slots["momentum"] for slots in adapter.optimizer.state.values()
            ]
            restore_session_state(session, *taken[id(session)])
            session.swap_in()
            assert all(
                slots["momentum"] is not old for slots, old in
                zip(adapter.optimizer.state.values(), buffers)
            )

        twins.each(capture)
        for _ in range(2):
            twins.frame()
        twins.each(restore)
        assert [twins.frame() for _ in range(2)] == [0] * 2

    def test_fleet_launches_keep_the_fold_bound(self, monkeypatch):
        """Per-stream launches of one batch shape hand every BN layer the
        same fold pair: a launch with no BN change since the last calls
        no binder, and one after a session adapted serves that session's
        new fold — bitwise what a freshly bound plan serves, inside the
        band of the eager per-sample forward."""
        from repro.serve.streams import StreamRegistry, per_stream_inference

        calls = _count_binders(monkeypatch)
        model = _pool_stack(29, np.float64)
        model.eval()
        registry = StreamRegistry(model)
        a, b = (
            registry.register(
                sid, iter(()), LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2)),
                deadline_ms=33.3,
            )
            for sid in "ab"
        )
        engine = compile_model(model, backend="cgen")
        rng = np.random.default_rng(67)
        x = rng.standard_normal((2, 3, 9, 13)).astype(np.float32)

        def launch(plan_engine=engine):
            before = calls[0]
            with per_stream_inference([a, b]):
                served = plan_engine(x).numpy().copy()
                with nn.no_grad():
                    eager = model(nn.Tensor(x)).numpy()
            return served, eager, calls[0] - before

        first, _, bound = launch()
        assert bound > 0  # the first replay binds everything
        again, _, bound = launch()
        assert bound == 0 and again.tobytes() == first.tobytes()

        a.swap_in()
        a.adapter.adapt(rng.standard_normal((1, 3, 9, 13)).astype(np.float32))
        a.swap_out()
        adapted, eager, bound = launch()
        assert bound == 0
        assert not np.array_equal(adapted[0], first[0])
        assert adapted[1].tobytes() == first[1].tobytes()
        np.testing.assert_allclose(adapted, eager, **_band(np.float64))
        fresh, _, _ = launch(compile_model(model, backend="cgen"))
        assert fresh.tobytes() == adapted.tobytes()

    def test_a_training_mode_bn_still_raises_every_replay(self, monkeypatch):
        twins = _ServedTwins(monkeypatch)
        twins.frame()
        model, engine, *_ = twins.sides["cgen"]
        x = np.zeros((1, 3, 9, 13), dtype=np.float32)
        object.__setattr__(model[1], "training", True)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="training mode"):
                engine.plan_for(x.shape, x.dtype).run(x)
        object.__setattr__(model[1], "training", False)
        twins.frame()

    def test_a_steady_vehicle_frame_calls_no_binder(self, monkeypatch):
        """The paper's loop — small-r18, infer + one step per frame, two
        pool threads: after the first frame nothing is rebound, so no
        binder closure runs, and every step takes the stem from the memo."""
        from repro.data import ScenarioStream, get_scenario
        from repro.models import build_model, get_config
        from repro.pipeline.realtime import RealTimePipeline

        calls = _count_binders(monkeypatch)
        model = build_model("small-r18", num_lanes=2,
                            rng=np.random.default_rng(3))
        model.eval()
        adapter = LDBNAdapt(
            model, LDBNAdaptConfig(backend="cgen", threads=2)
        )
        pipeline = RealTimePipeline(model, adapter, PipelineConfig(
            latency_model="wallclock", backend="cgen", threads=2,
        ))
        frames = ScenarioStream(
            get_scenario("night_cut"), get_config("small-r18", num_lanes=2),
            seed=11, horizon=8,
        ).take(8).samples
        pipeline.run(iter(frames[:2]), 2)
        bound = calls[0]
        assert bound > 0
        report = pipeline.run(iter(frames[2:]), 6)
        assert report.adaptation_steps == 6 and calls[0] == bound
        x = frames[0].image[None]
        counts = adapter._compiled.plan_for(x).backend_info["stem_memo"]
        assert counts["hits"] == 8 and sum(counts.values()) == 8
