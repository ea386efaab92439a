"""Shared fixtures for the test suite.

Heavy artifacts (a trained tiny UFLD model and its benchmark data) are
built once per session and copied per test via state dicts, keeping the
full suite fast while letting every adaptation test start from a genuine
source-trained model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_benchmark
from repro.models import build_model, get_config
from repro.train import SourceTrainer, TrainConfig


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_config():
    return get_config("tiny-r18", num_lanes=2)


@pytest.fixture(scope="session")
def tiny_benchmark():
    """A small MoLane instance shared across the session (read-only)."""
    return make_benchmark(
        "molane",
        get_config("tiny-r18"),
        source_frames=150,
        target_train_frames=48,
        target_test_frames=96,
        seed=0,
    )


@pytest.fixture(scope="session")
def _trained_tiny_state(tiny_benchmark):
    """Train the session's source model once; expose its state dict.

    Training must reach high source accuracy for the domain gap to be
    visible (an underfit model hasn't latched onto source-specific
    appearance yet), hence 8 epochs here.
    """
    rng = np.random.default_rng(0)
    model = build_model("tiny-r18", num_lanes=2, rng=rng)
    trainer = SourceTrainer(
        model, TrainConfig(epochs=10, lr=0.02, batch_size=16)
    )
    trainer.fit(tiny_benchmark.source_train, rng)
    return model.state_dict()


@pytest.fixture
def trained_tiny_model(_trained_tiny_state):
    """A fresh copy of the source-trained tiny model (mutable per test)."""
    model = build_model("tiny-r18", num_lanes=2, rng=np.random.default_rng(1))
    model.load_state_dict(_trained_tiny_state)
    model.eval()
    return model


@pytest.fixture
def untrained_tiny_model():
    return build_model("tiny-r18", num_lanes=2, rng=np.random.default_rng(3))


@pytest.fixture
def groups_of_one(monkeypatch):
    """Call it to have every device worker stage each adaptation step as
    a group of its own from then on — the serial side of a fused-vs-serial
    comparison — through a fake of
    ``repro.serve.pool.plan_adaptation_groups``."""
    from repro.serve import pool

    def split(keyed):
        return (
            [[item] for key, item in keyed if key is not None],
            [item for key, item in keyed if key is None],
        )

    return lambda: monkeypatch.setattr(pool, "plan_adaptation_groups", split)
