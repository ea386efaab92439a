"""The no-reuse oracles for the plans' shared buffers.

Liveness decides which values share arena bytes: a key released before
its last reader ran lets a later stage overwrite bytes still to be read.
A plan compiled while ``_Arena.release`` is a no-op gives every key bytes
of its own, so each replay output must come out the same bytes with and
without reuse.

Every column matrix is a claim on the one column workspace, shared by
every stage of every plan: a stage reading columns another stage wrote
would read whatever was gathered there last.  The private twin gives
every claim a buffer of its own, as each layer had before the columns
were shared.
"""

import numpy as np

from repro.adapt import LDBNAdapt, LDBNAdaptConfig
from repro.engine import CompiledAdaptStep, compile_model
from repro.engine.backends.core import _Arena, _Claim, _Columns
from repro.models import build_model, get_config
from repro.serve.streams import StreamRegistry

#: (batch, groups, from_stem); groups None is the inference plan
CASES = [(1, None, False), (4, None, False)] + [
    (batch, groups, from_stem)
    for batch, groups in ((1, 1), (4, 1), (4, 2))
    for from_stem in (False, True)
]


def case_id(case):
    batch, groups, from_stem = case
    if groups is None:
        return f"infer-b{batch}"
    return f"adapt-b{batch}g{groups}-{'stem' if from_stem else 'image'}"


def replay_bytes(preset, backend, threads, batch, groups, from_stem):
    """``(bytes, arena blocks)`` of three replays of one plan on a fresh
    model: an inference plan's logits and stem rows, or an adaptation
    plan's losses, finite flags and taps with the update tail armed, then
    the BN state and momentum buffers it left."""
    model = build_model(preset, num_lanes=2, rng=np.random.default_rng(1))
    model.eval()
    h, w = get_config(preset).input_hw
    frames = [
        np.random.default_rng(seed).standard_normal(
            (batch, 3, h, w)
        ).astype(np.float32)
        for seed in range(3)
    ]
    engine = compile_model(model, backend=backend, threads=threads)
    out = []
    if groups is None:
        for x in frames:
            out.append(engine(x).numpy().tobytes())
            plan = engine.plan_for(x.shape, x.dtype)
            out.append(plan.stem_rows.tobytes())
        return out, plan.stats.arena_blocks
    step = CompiledAdaptStep(model, backend=backend, threads=threads)
    adapters = [LDBNAdapt(model, LDBNAdaptConfig(lr=1e-2), compiled=step)
                for _ in range(groups)]
    targets = adapters
    if groups > 1:
        registry = StreamRegistry(model)
        targets = [registry.register(f"s{k}", iter(()), adapter,
                                     deadline_ms=33.3)
                   for k, adapter in enumerate(adapters)]
    plan = step.plan_for(frames[0], groups=groups, from_stem=from_stem)
    for x in frames:
        if from_stem:
            engine(x)
            x = engine.plan_for(x.shape, x.dtype).stem_rows
        out += [plan.run(x, update=targets).tobytes(), plan.finite.tobytes()]
        out += [a.tobytes() for tap in plan.bn_taps for a in (
            tap.batch_mean, tap.batch_var, tap.grad_gamma, tap.grad_beta)]
    out += [np.asarray(v).tobytes() for v in model.state_dict().values()]
    for target in targets:  # the blocks the steps wrote
        out += [target.bn_state.state.tobytes(),
                target.bn_state.counts.tobytes()]
    for adapter in adapters:
        out += [adapter.optimizer.state[id(p)]["momentum"].tobytes()
                for p in adapter.optimizer.params]
    return out, plan.stats.arena_blocks


def assert_reuse_is_invisible(monkeypatch, preset, backend, threads, case):
    """The plan of ``case`` replays the same bytes as its no-reuse twin,
    which really did keep every key's bytes (more arena blocks)."""
    reused, blocks = replay_bytes(preset, backend, threads, *case)
    monkeypatch.setattr(_Arena, "release", lambda self, block: None)
    fresh, fresh_blocks = replay_bytes(preset, backend, threads, *case)
    assert fresh_blocks > blocks
    assert len(fresh) == len(reused)
    for k, (a, b) in enumerate(zip(fresh, reused)):
        assert a == b, f"output {k} differs from the no-reuse twin"


def private_columns(monkeypatch):
    """From here on every column claim is a buffer of its own; returns
    the list of the claims made."""
    made = []

    def claim(self, shape, dtype, after=None):
        made.append(_Claim([np.empty(shape, dtype)]))
        return made[-1]

    monkeypatch.setattr(_Columns, "claim", claim)
    return made


def assert_columns_sharing_is_invisible(monkeypatch, preset, backend,
                                        threads, case):
    """The plan of ``case`` replays the same bytes as its twin whose
    every column claim has a private buffer."""
    shared, _ = replay_bytes(preset, backend, threads, *case)
    made = private_columns(monkeypatch)
    private, _ = replay_bytes(preset, backend, threads, *case)
    assert made  # the twin really claimed columns of its own
    assert len(private) == len(shared)
    for k, (a, b) in enumerate(zip(private, shared)):
        assert a == b, f"output {k} differs from the private-columns twin"
