"""One column order for BN state: every BN row sits where the block keeps it.

A model's BN state is one ``(4, C)`` block laid out by its
:class:`~repro.adapt.bn_state.BNLayout`, and every BN row a compiled step
or a launch reads or writes lies in that same column order — a layer's
rows are the ``spans[j]`` columns of a wider buffer, a row pitch apart —
so nothing builds or applies a permutation.  Under test:

* an adaptation plan's taps are views of its block-major rows at their
  module's span (numpy and ``cgen``, two groups), and the rendered BN
  stages take them as they are, at that pitch;
* a launch's ``(scale, shift)`` pairs are views of one ``(2, n, C)``
  stack of its blocks' folds, bitwise each block's fold;
* a destination of another model's layout is refused before any byte
  moves;
* a four-stream ``cgen`` launch binds its fold pairs where they lie, with
  no conversion copy, and serves what eager serves.
"""

import numpy as np
import pytest

from repro import nn
from repro.adapt import BNLayout, LDBNAdapt, LDBNAdaptConfig
from repro.adapt.bn_state import BNStateSnapshot
from repro.engine import CompiledAdaptStep, compile_model
from repro.engine.backends import cgen, find_cc
from repro.models import build_model
from repro.serve import StreamRegistry, per_stream_inference

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler")

BACKENDS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("cgen", id="cgen", marks=needs_cc),
]


def _model(seed=1):
    model = build_model("tiny-r18", num_lanes=2,
                        rng=np.random.default_rng(seed))
    model.eval()
    return model


def _frames(model, n, seed=0):
    h, w = model.config.input_hw
    rng = np.random.default_rng(seed)
    return rng.normal(0.6, 0.3, size=(n, 3, h, w)).astype(np.float32)


def _is_view(arr, want):
    """``arr`` is exactly the view ``want``: same first byte, shape and
    strides."""
    return (arr.__array_interface__["data"][0]
            == want.__array_interface__["data"][0]
            and arr.shape == want.shape and arr.strides == want.strides)


def _perturbed(layout, rng, count):
    """``count`` blocks of ``layout``, each holding its own state."""
    blocks = []
    for _ in range(count):
        block = BNStateSnapshot(layout)
        block.state[0] += rng.normal(0, 0.1, layout.channels)
        block.state[1] *= rng.uniform(0.5, 2.0, layout.channels)
        block.state[2:] += rng.normal(0, 0.1, (2, layout.channels))
        block.written()
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_tap_views_the_block_major_rows(backend):
    """Two groups: each tap array is its layer's span of the plan's
    ``(2, G, C)`` affine or ``(4, G, C)`` statistics-and-gradient rows,
    every layer of the layout tapped once; on ``cgen`` the BN stages are
    rendered over those views (only the update tail stays numpy)."""
    model = _model()
    layout = BNLayout(model)
    plan = CompiledAdaptStep(model, backend=backend).plan_for(
        _frames(model, 2), groups=2)
    spans = dict(zip(map(id, layout.modules), layout.spans))
    assert sorted(id(t.module) for t in plan.bn_taps) == sorted(spans)
    assert plan._affine.shape == (2, 2, layout.channels)
    assert plan._tap_rows.shape == (4, 2, layout.channels)
    for tap in plan.bn_taps:
        a, b = spans[id(tap.module)]
        rows = [*plan._affine[:, :, a:b], *plan._tap_rows[:, :, a:b]]
        arrays = [tap.gamma_slot, tap.beta_slot, tap.batch_mean,
                  tap.batch_var, tap.grad_gamma, tap.grad_beta]
        for array, want in zip(arrays, rows):
            assert _is_view(array, want), tap.module
            assert array.strides[0] == 8 * layout.channels
    if backend == "cgen":
        info = plan.backend_info
        assert info["numpy_stages"] == {"bwd:update": 1}, info
        assert info["demoted"] == 0


def test_a_launch_views_one_stack_of_its_folds(rng):
    """Four blocks: every pair is the span of one ``(2, 4, C)`` stack,
    row ``i`` bitwise block ``i``'s fold."""
    layout = BNLayout(_model())
    blocks = _perturbed(layout, rng, 4)
    pairs = layout.launch_pairs(blocks)
    stack = layout._folds[4].stack
    assert stack.shape == (2, 4, layout.channels)
    for (scale, shift), (a, b) in zip(pairs, layout.spans):
        assert _is_view(scale, stack[0, :, a:b])
        assert _is_view(shift, stack[1, :, a:b])
        for i, block in enumerate(blocks):
            fold = block.folded()
            assert scale[i].tobytes() == fold[0, a:b].tobytes()
            assert shift[i].tobytes() == fold[1, a:b].tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_destination_of_another_model_is_refused(backend):
    """Same preset, other module objects: the step raises before it arms
    its update tail or fills a slot, and the foreign block, its momentum
    and the plan's affine rows keep every byte."""
    model, other = _model(1), _model(2)
    x = _frames(model, 1)
    plan = CompiledAdaptStep(model, backend=backend).plan_for(x)
    foreign = LDBNAdapt(other, LDBNAdaptConfig(lr=1e-2, momentum=0.9))
    foreign.adapt(x)  # momentum buffers to watch
    block = foreign.bn_state
    momentum = foreign.slots["momentum"]

    def held():
        return [a.tobytes() for a in (block.state, block.counts, momentum,
                                      plan._affine)]

    before = held()
    with pytest.raises(ValueError, match="differ"):
        plan.run(x, update=[foreign])
    assert plan._update[0] is None
    plan.run(x)  # unarmed: writes nothing
    assert held() == before


@needs_cc
def test_a_cgen_launch_binds_its_folds_where_they_lie(monkeypatch, rng):
    """Four streams on one ``cgen`` inference plan: every fold pair is
    bound at its own address, with no conversion copy, and the launch
    serves the eager per-sample forward."""
    model = _model()
    registry = StreamRegistry(model)
    sessions = [
        registry.register(f"s{i}", iter(()), LDBNAdapt(model),
                          deadline_ms=33.3)
        for i in range(4)
    ]
    for session, block in zip(sessions, _perturbed(registry.layout, rng, 4)):
        session.bn_state.write(*block.read())
    batch = _frames(model, 4)
    engine = compile_model(model, backend="cgen")
    engine(batch)  # compiled outside the launch: the launch rebinds
    bound = []
    real = cgen._bindv

    def spy(tab, slots, srcs, keep):
        copied = real(tab, slots, srcs, keep)
        if len(srcs) == 2:  # a (scale, shift) pair
            bound.append((copied, [int(tab[s]) for s in slots],
                          [a.ctypes.data for a in srcs]))
        return copied

    monkeypatch.setattr(cgen, "_bindv", spy)
    with per_stream_inference(sessions):
        got = engine(batch).numpy().copy()
        with nn.no_grad():
            want = model(nn.Tensor(batch)).numpy()
    assert len(bound) == len(registry.layout.modules)
    for copied, addresses, own in bound:
        assert not copied and addresses == own
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)
