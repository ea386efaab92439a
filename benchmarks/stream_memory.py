"""Compile high-water and per-stream memory, as one line.

    PYTHONPATH=src python benchmarks/stream_memory.py

Prints what tracemalloc saw (numpy's buffers included, the C kernel
library's own scratch not):

* ``infer_b4``: the peak while tracing and compiling the ``small-r18``
  batch-4 inference plan, above what was allocated before;
* ``adapt_g2``: the same for its group-2 adaptation plan (two frames, one
  per stream, from the images: a fused step of two fleet streams);
* ``add_stream``: the bytes one more ``FleetServer.add_stream`` retains,
  beside the model's BN state bytes (gamma, beta, running statistics);
* ``stepped``: the bytes one more stream retains once it has taken one
  compiled adaptation step, after earlier streams built the pool's plan
  for that step and stepped on it — a stream's steady-state cost,
  whether it allocates at ``add_stream`` or on its first step (the
  earlier step is traced too, so what the plan holds of the last step's
  input is replaced, not counted).

The plans compile on ``cgen`` when a C compiler is found, else on numpy.
Nothing is gated or written; ``ci.sh`` lane 3 prints the line beside the
byte digest.
"""

from __future__ import annotations

import os
import sys
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine import CompiledAdaptStep, compile_model  # noqa: E402
from repro.engine.backends import find_cc  # noqa: E402
from repro.models import build_model  # noqa: E402
from repro.nn.modules import _BatchNormBase  # noqa: E402
from repro.serve import FleetConfig, FleetServer  # noqa: E402
from repro.serve.adapt_batch import FleetAdaptationBatcher  # noqa: E402


def _high_water(build) -> int:
    """tracemalloc's peak while ``build()`` runs, over what was allocated
    before it (the result is dropped)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _retained(call, warm=lambda: None) -> int:
    """The bytes still allocated after ``call()`` that were not before
    it, tracing from ``warm()`` on."""
    tracemalloc.start()
    try:
        warm()
        before = tracemalloc.take_snapshot()
        call()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return sum(d.size_diff for d in after.compare_to(before, "filename"))


def main() -> None:
    backend = "cgen" if find_cc() else "numpy"
    model = build_model("small-r18", rng=np.random.default_rng(0))
    model.eval()
    x = np.zeros((4, 3) + tuple(model.config.input_hw), dtype=np.float32)
    infer = _high_water(
        lambda: compile_model(model, backend=backend).warm(x))
    adapt = _high_water(
        lambda: CompiledAdaptStep(model, backend=backend).plan_for(
            x[:2], groups=2))
    server = FleetServer(model, FleetConfig(latency_model="wallclock",
                                            backend=backend))
    first = server.add_stream("s0", iter(()))
    stream = _retained(lambda: server.add_stream("s1", iter(())))
    batcher = FleetAdaptationBatcher(
        model, compiled=first.adapter.step_engine())
    frame = np.random.default_rng(0).random(x.shape[1:], dtype=np.float32)

    def step(session):
        assert not batcher.stage([session], [frame]).execute()[
            id(session)].refused

    step(first)  # builds the plan every later stream's step replays
    stepped = _retained(lambda: step(server.add_stream("s3", iter(()))),
                        warm=lambda: step(server.add_stream("s2", iter(()))))
    bn = sum(
        a.nbytes for m in model.modules() if isinstance(m, _BatchNormBase)
        for a in (m.weight.data, m.bias.data, m.running_mean, m.running_var,
                  m.num_batches_tracked)
    )
    print(f"memory ({backend}, traced): compile high-water small-r18 "
          f"infer_b4 {infer / 2**20:.1f} MB, adapt_g2 {adapt / 2**20:.1f} MB; "
          f"add_stream retains {stream / 1e3:.1f} kB, stepped "
          f"{stepped / 1e3:.1f} kB (BN state {bn / 1e3:.1f} kB)")


if __name__ == "__main__":
    main()
