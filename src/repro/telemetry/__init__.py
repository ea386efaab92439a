"""Fleet observability: metric sketches, span tracing, profiling glue.

The paper's whole argument is a latency budget — adaptation must fit
inside a real-time frame deadline — so the serving stack has to be able
to answer two questions at fleet scale without perturbing the answer:

* **"how is the fleet doing?"** — :mod:`~repro.telemetry.metrics`:
  counters, gauges, and histograms backed by the DDSketch-style
  :class:`~repro.telemetry.sketch.QuantileSketch` (O(1) memory,
  bounded relative error, mergeable across devices).  These replaced
  the unbounded per-frame lists on ``FleetReport`` / ``DeviceWorker``,
  so million-frame runs aggregate in constant memory.
* **"where did this frame's 33 ms go?"** — :mod:`~repro.telemetry.trace`:
  a span tracer on the serving stack's *explicit* clocks (simulated
  device time or elapsed host time, never a wall-clock read in the hot
  path) emitting per-frame ``queue -> forward -> adapt`` chains plus
  admission / migration / ingest events, exportable as Chrome
  ``trace_event`` JSON and JSONL.

Telemetry is inert by design: the default tracer is
:data:`~repro.telemetry.trace.NULL_TRACER` (one attribute check in the
hot path), sketches only observe values the serving code already
computed, and serving results are bit-exact with tracing on vs off —
the parity tests in ``tests/test_telemetry.py`` enforce it.

:mod:`~repro.telemetry.dashboard` renders a run's telemetry as a text
dashboard (the ``python -m repro.experiments trace`` artifact); the
engine's opt-in per-op profiling hooks live with the plan lowering
(``StaticPlan`` in ``engine/plan.py``, shared by both plan kinds) and
report through plain dicts, so this package stays free of
serving/engine imports.
"""

from .dashboard import render_dashboard
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .sketch import QuantileSketch, exact_percentile
from .trace import NULL_TRACER, SpanTracer, load_chrome_trace, load_jsonl_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "QuantileSketch",
    "SpanTracer",
    "exact_percentile",
    "load_chrome_trace",
    "load_jsonl_trace",
    "render_dashboard",
]
