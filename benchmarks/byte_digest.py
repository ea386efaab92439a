"""Byte digest of what the engine computes, through the public API only.

    python benchmarks/byte_digest.py

Prints one sha256 per case, then three combined ones: over the numpy
cases' arrays alone, over every case's arrays, and over the arrays with
the ``cgen`` program digests (the last line); writes no file.  A change
that must leave every byte the engine produces as it was (a faster
kernel, a refactor) prints the same last line as its parent commit: run
this file in both checkouts (it imports the ``repro`` of the checkout it
sits in) and compare.  A change that moves only how a rendered plan
binds its slots moves the last line but not the arrays-only one; a
change that may move only ``cgen`` rounding moves neither the per-case
numpy lines nor ``combined (numpy arrays)``.

Cases:

* ``infer numpy tiny b<N>`` — tiny-r18 numpy inference at batch 1-8:
  logits and the stem rows (:attr:`ExecutionPlan.stem_rows`);
* ``adapt <backend> <preset> b<N> g<G> <images|stem>`` — three
  LD-BN-ADAPT steps, the third with one NaN pixel (the step's finite rail
  refuses it), from the images or from the stem rows an inference plan
  of the same backend wrote: per step the losses, ``plan.finite`` and the
  BN taps, then the post-step state dict and momentum buffers (``g2``: two
  streams' sessions fused by :class:`FleetAdaptationBatcher`, whose
  ingest rail drops the NaN frame instead);
* small-r18 under ``cgen`` at one pool thread: inference at batch 1 and
  4, adaptation at b1 g1 and b2 g2, each with the rendered program's
  digest (``backend_info["program"]``).  Skipped, with a notice, without
  a C compiler.
"""

from __future__ import annotations

import hashlib
import os
import sys
import warnings

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from repro.adapt import LDBNAdapt, LDBNAdaptConfig  # noqa: E402
from repro.engine import CompiledAdaptStep, compile_model  # noqa: E402
from repro.engine.backends import CGenBackend, find_cc, get_backend  # noqa: E402
from repro.models import build_model, get_config  # noqa: E402
from repro.serve.adapt_batch import FleetAdaptationBatcher  # noqa: E402
from repro.serve.streams import StreamRegistry  # noqa: E402

STEPS = 3  # the last one with a NaN pixel


def _model(preset):
    model = build_model(preset, num_lanes=2, rng=np.random.default_rng(1))
    model.eval()
    return model


def _frames(preset, n, seed):
    h, w = get_config(preset).input_hw
    return np.random.default_rng(seed).standard_normal(
        (n, 3, h, w)).astype(np.float32)


def _momentum(adapter):
    return [
        adapter.optimizer.state.get(id(p), {}).get("momentum")
        for p in adapter.optimizer.params
    ]


def _taps(plan):
    return [plan.finite] + [
        a for tap in plan.bn_taps
        for a in (tap.batch_mean, tap.batch_var, tap.grad_gamma,
                  tap.grad_beta)
    ]


def _poison(x, step):
    x = x.copy()
    if step == STEPS - 1:
        x[0, 1, 3, 5] = np.nan
    return x


def infer_case(preset, backend, n):
    model = _model(preset)
    engine = compile_model(model, backend=backend)
    x = _frames(preset, n, seed=n)
    out = [engine(x).numpy(), engine.plan_for(x.shape, x.dtype).stem_rows]
    return out, engine.plan_for(x.shape, x.dtype).backend_info.get("program")


def adapt_case(preset, backend, n, from_stem):
    """``STEPS`` single-stream steps of batch ``n`` on one plan."""
    model = _model(preset)
    engine = compile_model(model, backend=backend)
    step = CompiledAdaptStep(model, backend=backend)
    adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2, batch_size=n),
                        compiled=step)
    out = []
    for k in range(STEPS):
        x = _poison(_frames(preset, n, seed=10 + k), k)
        engine(x)
        src = engine.plan_for(x.shape, x.dtype).stem_rows if from_stem else x
        plan = step.plan_for(x, from_stem=from_stem)
        # the model's own block, as LDBNAdapt's own step runs it
        out += [plan.run(src, update=(adapter,))] + _taps(plan)
    out += list(model.state_dict().values()) + _momentum(adapter)
    return out, plan.backend_info.get("program")


def fused_case(preset, backend, from_stem):
    """``STEPS`` fused steps of two single-frame streams (b2 g2)."""
    model = _model(preset)
    engine = compile_model(model, backend=backend)
    step = CompiledAdaptStep(model, backend=backend)
    registry = StreamRegistry(model)
    sessions = [
        registry.register(
            f"s{i}", iter(()),
            LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2), compiled=step),
            deadline_ms=33.3,
        )
        for i in range(2)
    ]
    batcher = FleetAdaptationBatcher(model, compiled=step)
    out, program = [], None
    for k in range(STEPS):
        x = _poison(_frames(preset, 2, seed=20 + k), k)
        engine(x)
        rows = engine.plan_for(x.shape, x.dtype).stem_rows
        staged = batcher.stage(sessions, list(x),
                               list(rows) if from_stem else None)
        if staged is None or staged.num_streams < 2:
            # the NaN frame left one stream: no fused step is taken
            out.append(np.array([k]))
            continue
        results = staged.execute()
        out.append(np.array([
            (results[id(s)].loss, results[id(s)].refused) for s in sessions
        ]))
        plan = step.plan_for(x, groups=2, from_stem=from_stem)
        out += _taps(plan)
        program = plan.backend_info.get("program")
    for s in sessions:
        out += [s.bn_state.state, s.bn_state.counts] + _momentum(s.adapter)
    return out, program


def digest(arrays, program=None) -> str:
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    if program is not None:
        h.update(str(program).encode())
    return h.hexdigest()


def cases():
    numpy = get_backend("numpy")
    for n in range(1, 9):
        yield f"infer numpy tiny b{n}", lambda n=n: infer_case(
            "tiny-r18", numpy, n)
    for from_stem in (False, True):
        src = "stem" if from_stem else "images"
        for n in (1, 4):
            yield f"adapt numpy tiny b{n} g1 {src}", lambda n=n, f=from_stem: \
                adapt_case("tiny-r18", numpy, n, f)
        yield f"adapt numpy tiny b2 g2 {src}", lambda f=from_stem: \
            fused_case("tiny-r18", numpy, f)
    if find_cc() is None:
        print("no C compiler: the cgen cases are skipped", file=sys.stderr)
        return
    cgen = CGenBackend(threads=1)
    for n in (1, 4):
        yield f"infer cgen small b{n}", lambda n=n: infer_case(
            "small-r18", cgen, n)
    for from_stem in (False, True):
        src = "stem" if from_stem else "images"
        yield f"adapt cgen small b1 g1 {src}", lambda f=from_stem: \
            adapt_case("small-r18", cgen, 1, f)
        yield f"adapt cgen small b2 g2 {src}", lambda f=from_stem: \
            fused_case("small-r18", cgen, f)


def main() -> None:
    combined, arrays_only, numpy_only = (
        hashlib.sha256(), hashlib.sha256(), hashlib.sha256())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the NaN steps
        for name, run in cases():
            arrays, program = run()
            line = digest(arrays, program)
            combined.update(line.encode())
            arrays_line = digest(arrays).encode()
            arrays_only.update(arrays_line)
            if " numpy " in name:
                numpy_only.update(arrays_line)
            print(f"{name:34s} {line}")
    print(f"{'combined (numpy arrays)':34s} {numpy_only.hexdigest()}")
    print(f"{'combined (arrays only)':34s} {arrays_only.hexdigest()}")
    print(f"{'combined':34s} {combined.hexdigest()}")


if __name__ == "__main__":
    main()
