"""Plan backends: what executes the stages of the one plan lowering.

``numpy`` is the bit-exact closure oracle; ``cgen`` turns plans into
stage tables over one compiled C kernel library per host, with per-stage
numpy fallback.  The library's kernels are *threaded*: heavy stages tile
their output space over a persistent pthread pool living inside the
``.so`` (:mod:`repro.engine.backends.threading`), with fixed tile
ownership of output rows and unshared accumulators so outputs are
bitwise at any thread count.  Pool width resolves ``CGenBackend.threads``
→ ``$REPRO_CGEN_THREADS`` → host CPUs, and
``PlanBackend.compile`` takes a ``threads`` override.  See
:mod:`repro.engine.backends.base` for the interface and registry,
:mod:`repro.engine.backends.core` for the shared arena/liveness/im2col
lowering machinery.
"""

from .base import (
    PlanBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from .numpy_backend import NumpyBackend  # registered first: the default
from .cgen import PARITY_ATOL, PARITY_RTOL, CGenBackend, find_cc
from .threading import resolve_threads, tile_bounds

__all__ = [
    "PlanBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "NumpyBackend",
    "CGenBackend",
    "PARITY_RTOL",
    "PARITY_ATOL",
    "find_cc",
    "resolve_threads",
    "tile_bounds",
]
