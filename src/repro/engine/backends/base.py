"""The ``plan -> backend`` interface: how traced graphs become plans.

Every backend shares the one lowering (:mod:`repro.engine.plan`: op
table, forward stage builders, fusion, arena liveness, the adaptation
backward).  A :class:`PlanBackend` contributes only the *stage renderer*
handed to that lowering, i.e. what executes each stage:

* ``numpy`` (:mod:`~repro.engine.backends.numpy_backend`) — no renderer:
  every stage stays the numpy closure the lowering built; bit-exact with
  the eager autograd path and therefore the correctness oracle.
* ``cgen`` (:mod:`~repro.engine.backends.cgen`) — the plan as a stage
  table over a C kernel library compiled once per host and driven
  through ``ctypes``; unrenderable stages (or a missing compiler with no
  cached library) fall back to the numpy closures.

Backends are looked up by name through a registry so callers thread a
plain string (``FleetConfig(backend="cgen")``, ``--backend cgen``)
without importing backend modules.  ``resolve_backend(None)`` honours
the ``REPRO_BACKEND`` environment variable, defaulting to ``numpy``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List

_ENV_BACKEND = "REPRO_BACKEND"


class PlanBackend:
    """Lowers traced graphs to executable plans."""

    name: str = "abstract"

    def _renderer(self, threads):
        """The stage renderer for one plan compilation; ``None``: numpy."""
        return None

    def compile(self, graph, groups: int = 1, profile: bool = False,
                threads=None, from_stem: bool = False):
        """Lower ``graph`` to the plan it records: a ``groups``-way
        ``AdaptationPlan`` for an entropy-step trace (it carries
        train-mode BN nodes; ``from_stem``: its input is the stem rows),
        else the inference ``ExecutionPlan``."""
        from ..adapt_plan import AdaptationPlan
        from ..plan import ExecutionPlan

        if any(node.train_bn for node in graph.nodes):
            return AdaptationPlan(
                graph, groups, profile, self._renderer(threads), from_stem
            )
        return ExecutionPlan(graph, profile, self._renderer(threads))


_REGISTRY: Dict[str, Callable[[], PlanBackend]] = {}
_INSTANCES: Dict[str, PlanBackend] = {}


def register_backend(name: str, factory: Callable[[], PlanBackend]) -> None:
    _REGISTRY[name] = factory


def available_backends() -> List[str]:
    """Registered backend names (registration order)."""
    return list(_REGISTRY)


def get_backend(name: str) -> PlanBackend:
    """Instantiate (once) and return the backend registered as ``name``."""
    backend = _INSTANCES.get(name)
    if backend is None:
        factory = _REGISTRY.get(name)
        if factory is None:
            raise ValueError(
                f"unknown plan backend {name!r}; "
                f"available: {', '.join(_REGISTRY)}"
            )
        backend = _INSTANCES[name] = factory()
    return backend


def resolve_backend(spec=None) -> PlanBackend:
    """Turn a backend spec into a :class:`PlanBackend` instance.

    ``None`` resolves the ``REPRO_BACKEND`` environment variable (default
    ``numpy``); a string goes through the registry; a backend instance
    passes through unchanged.
    """
    if spec is None:
        spec = os.environ.get(_ENV_BACKEND) or "numpy"
    if isinstance(spec, PlanBackend):
        return spec
    return get_backend(spec)
