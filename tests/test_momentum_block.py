"""The momentum block: one ``(2, C)`` array per adapter, viewed per
parameter.

An :class:`LDBNAdapt` builds its SGD momentum as one ``(2, C)`` block at
construction, and the optimizer's per-parameter ``momentum`` buffers are
its row spans for good.  A compiled step updates the block with one
formula; an eager step updates the buffers in place; ``reset()``, a drift
reset and a checkpoint restore go through ``forget_momentum()``, which
refills the block with the blend's identity, and a restore then writes
the saved buffers into it; a migration moves nothing.  Held here, on a
fleet session and on a standalone adapter, through one sequence of all
of them:

* after every operation the BN state, ``num_batches_tracked`` and every
  momentum buffer equal an all-eager twin's — ``tobytes``-equal on
  numpy, inside the float band on ``cgen``;
* after every operation, on both sides, each momentum buffer is a view
  of its block.
"""

import numpy as np
import pytest

from repro import nn
from repro.adapt import BNLayout, BNStateSnapshot, LDBNAdapt, LDBNAdaptConfig
from repro.engine.backends import find_cc
from repro.models import build_model
from repro.nn.optim import sgd_update
from repro.serve import (
    DriftResetConfig,
    FleetAdaptationBatcher,
    FleetConfig,
    FleetServer,
    SessionDriftState,
    capture_session_state,
    restore_session_state,
)

needs_cc = pytest.mark.skipif(find_cc() is None, reason="no C compiler")

BACKENDS = [
    pytest.param("numpy", id="numpy"),
    pytest.param("cgen", id="cgen", marks=needs_cc),
]

#: compiled steps around every operation that writes momentum
SEQUENCE = (
    "step", "step", "eager", "step", "reset", "step", "checkpoint", "step",
    "drift", "step", "migrate", "step", "step",
)


def _model():
    model = build_model("tiny-r18", num_lanes=2, rng=np.random.default_rng(1))
    model.eval()
    return model


def _images(model, count):
    h, w = model.config.input_hw
    rng = np.random.default_rng(5)
    return rng.normal(0.5, 0.3, size=(count, 3, h, w)).astype(np.float32)


def _momenta(adapter):
    return [
        adapter.optimizer.state.get(id(p), {}).get("momentum")
        for p in adapter.optimizer.params
    ]


def _assert_same(got, want, backend):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is None:
            continue
        if backend == "numpy":
            assert a.tobytes() == b.tobytes()
        else:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


class _Fleet:
    """One stream on a two-device pool, a compiled step staged through
    the pool's batcher, an eager one swapped onto the model around the
    adapter's own step; ``compiled`` False makes every step eager."""

    def __init__(self, backend, compiled):
        self.model = _model()
        self.compiled = compiled
        self.server = FleetServer(self.model, FleetConfig(
            latency_model="wallclock", deadline_ms=1e9, devices=2,
            backend=backend,
        ))
        self.session = self.server.add_stream(
            "s0", iter(()), adapter_config=LDBNAdaptConfig(lr=1e-2),
            device=0,
        )
        self.drift = SessionDriftState(
            DriftResetConfig(reset_mode="source"), self.session)
        self.batcher = FleetAdaptationBatcher(
            self.model, compiled=self.session.adapter.step_engine())
        self.device = 0

    def step(self, image, compiled):
        session = self.session
        if compiled and self.compiled:
            staged = self.batcher.stage([session], [image])
            assert not staged.execute()[id(session)].refused
            return
        with nn.adaptation_mode(False):  # as the pool's lone route steps
            session.swap_in()
            assert not session.adapter.adapt(image[None]).refused
            session.swap_out()

    def apply(self, op, image):
        session = self.session
        if op in ("step", "eager"):
            self.step(image, op == "step")
        elif op == "reset":
            session.adapter.reset()
        elif op == "checkpoint":
            restore_session_state(session, *capture_session_state(session))
        elif op == "drift":
            self.drift.reset(session, image)
        else:  # migrate: the pool re-homes the session object
            workers = self.server.workers
            state = workers[self.device].detach(session)
            self.device = 1 - self.device
            workers[self.device].attach(session, state)

    def state(self):
        bn = self.session.bn_state
        return [bn.state, bn.counts] + _momenta(self.session.adapter)

    def block(self):
        return self.session.adapter.slots["momentum"]

    @property
    def adapter(self):
        return self.session.adapter


class _Standalone:
    """One :class:`LDBNAdapt` stepping the model it adapts; a checkpoint
    is what a restore does to its optimizer (forget, then write the saved
    buffers back in place), a drift reset what it does to it (forget),
    and a migration moves nothing."""

    def __init__(self, backend, compiled):
        self.model = _model()
        self.compiled = compiled
        self.adapter = LDBNAdapt(
            self.model, LDBNAdaptConfig(lr=1e-2, backend=backend))

    def apply(self, op, image):
        adapter = self.adapter
        if op in ("step", "eager"):
            with nn.adaptation_mode(op == "step" and self.compiled):
                assert not adapter.adapt(image[None]).refused
        elif op == "reset":
            adapter.reset()
        elif op == "checkpoint":
            saved = [buf.copy() for buf in _momenta(adapter)]
            adapter.forget_momentum()
            for buf, value in zip(_momenta(adapter), saved):
                buf[...] = value
        elif op == "drift":
            adapter.forget_momentum()

    def state(self):
        return [np.asarray(v) for v in self.model.state_dict().values()] + (
            _momenta(self.adapter))

    def block(self):
        return self.adapter.slots["momentum"]


@pytest.mark.parametrize("kind", [_Fleet, _Standalone],
                         ids=["fleet", "standalone"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_operation_keeps_the_eager_twins_bytes(kind, backend):
    served, twin = kind(backend, True), kind(backend, False)
    images = _images(served.model, len(SEQUENCE))
    for op, image in zip(SEQUENCE, images):
        served.apply(op, image)
        twin.apply(op, image)
        _assert_same(served.state(), twin.state(), backend)
        for side in (served, twin):
            block = side.block()
            for buf in _momenta(side.adapter):
                assert np.shares_memory(buf, block), op


@pytest.mark.parametrize("forgotten", [False, True],
                         ids=["fresh", "forgotten"])
@pytest.mark.parametrize("momentum", [0.9, -0.5])
def test_a_first_step_over_the_block_is_a_per_parameter_first_step(
        momentum, forgotten):
    """A first step over a fresh block, or over one whose momentum was
    forgotten after a step, leaves the bytes a per-parameter first step
    leaves (``buf = grad``), signed zeros included."""
    model = _model()
    block = BNStateSnapshot(BNLayout(model))
    adapter = LDBNAdapt(model, LDBNAdaptConfig(lr=0.1, momentum=momentum))
    optimizer = adapter.optimizer
    params = optimizer.params
    rng = np.random.default_rng(2)
    if forgotten:
        sgd_update(block.state[2:], rng.standard_normal(block.state[2:].shape),
                   adapter.slots, 0.1, momentum=momentum)
        adapter.forget_momentum()
    grads = rng.standard_normal(block.state[2:].shape)
    grads[:, ::3], grads[:, 1::3] = -0.0, 0.0
    want = [row[a:b].copy() for a, b in block.layout.spans
            for row in block.state[2:]]
    state = [{} for _ in params]
    per_param = [grads[row, a:b] for a, b in block.layout.spans
                 for row in (0, 1)]
    for data, grad, slots in zip(want, per_param, state):
        sgd_update(data, grad, slots, 0.1, momentum=momentum)
    sgd_update(block.state[2:], grads, adapter.slots, 0.1,
               momentum=momentum)
    rows = [row[a:b] for a, b in block.layout.spans for row in block.state[2:]]
    for param, data, saved, slots in zip(params, want, rows, state):
        assert saved.tobytes() == data.tobytes()
        assert (optimizer.state[id(param)]["momentum"].tobytes()
                == slots["momentum"].tobytes())


def test_two_standalone_adapters_keep_their_own_momentum():
    """Two standalone adapters on one model share its home block, not a
    momentum block: stepping in turn on numpy, the model and each
    adapter's momentum buffers stay the bytes of an all-eager twin's."""
    sides = []
    for compiled in (True, False):
        model = _model()
        adapters = [
            LDBNAdapt(model, LDBNAdaptConfig(lr=lr, backend="numpy"))
            for lr in (1e-2, 3e-2)
        ]
        sides.append((model, adapters, compiled))
    images = _images(sides[0][0], 6)
    for k, image in enumerate(images):
        for model, adapters, compiled in sides:
            with nn.adaptation_mode(compiled):
                assert not adapters[k % 2].adapt(image[None]).refused
        (served, mine, _), (twin, theirs, _) = sides
        _assert_same(list(served.state_dict().values()),
                     list(twin.state_dict().values()), "numpy")
        for a, b in zip(mine, theirs):
            _assert_same(_momenta(a), _momenta(b), "numpy")
    assert not np.shares_memory(mine[0].slots["momentum"],
                                mine[1].slots["momentum"])


def test_a_restore_without_momentum_keys_leaves_the_identity():
    """A capture with no ``opt.*`` keys (as a checkpoint of another
    adapter kind has none) restores the blend's identity into the block
    the optimizer's buffers still view."""
    fleet = _Fleet("numpy", True)
    image = _images(fleet.model, 1)[0]
    fleet.step(image, True)
    arrays, meta = capture_session_state(fleet.session)
    block = fleet.block()
    assert block.any()
    restore_session_state(fleet.session, {
        key: value for key, value in arrays.items()
        if not key.startswith("opt.")}, meta)
    assert (np.signbit(block) & (block == 0)).all()
    for buf in _momenta(fleet.adapter):
        assert np.shares_memory(buf, block)
