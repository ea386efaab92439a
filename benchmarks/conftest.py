"""Shared helpers for the benchmark harness.

Every benchmark prints its result table (visible with ``pytest -s`` or in
the captured-output section) and writes a JSON artifact under
``benchmarks/results/`` for EXPERIMENTS.md bookkeeping — or under
``$REPRO_RESULTS_DIR`` when set, for a run that must leave the committed
archive alone (``ci.sh``'s per-kernel gates).

Run scale is controlled by the ``REPRO_SCALE`` environment variable
("tiny" default; "small" for the fuller reproduction — see
``repro.experiments.config.get_run_scale``).
"""

import os

RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR") or os.path.join(
    os.path.dirname(__file__), "results"
)


def results_path(name: str) -> str:
    return os.path.join(RESULTS_DIR, name)
