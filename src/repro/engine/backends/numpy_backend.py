"""The numpy-closure backend: the engine's lowering with no renderer.

This is the bit-exactness oracle — every stage issues the same numpy
kernels on the same buffers in the same order as the eager autograd
path.  The cgen backend compiles through the *same* lowering and
differs only in the renderer it passes, which is what makes its
per-stage fallback structural: a declined stage simply keeps the closure
this backend would have produced.  ``threads`` is ignored: numpy's
kernels thread (or don't) per BLAS build, not per plan.
"""

from __future__ import annotations

from .base import PlanBackend, register_backend


class NumpyBackend(PlanBackend):
    name = "numpy"


register_backend("numpy", NumpyBackend)
