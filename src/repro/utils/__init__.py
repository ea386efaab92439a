"""Shared utilities: seeded RNG management, logging."""

from .logging import Logger, get_verbosity, set_verbosity
from .rng import make_rng, rng_stream, split_rng

__all__ = [
    "Logger",
    "set_verbosity",
    "get_verbosity",
    "make_rng",
    "split_rng",
    "rng_stream",
]
