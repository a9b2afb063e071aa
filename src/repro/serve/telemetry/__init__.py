"""Serving telemetry: step tracing and exporters.

The observability layer over the serving engine, in two parts:

* :class:`~repro.serve.telemetry.tracer.StepTracer` — a low-overhead
  span/instant recorder instrumenting every phase of ``Engine.step``
  plus per-request lifecycle transitions;
* :mod:`~repro.serve.telemetry.export` — Chrome trace-event JSON
  (Perfetto-loadable), Prometheus text exposition, and structured
  per-step log lines, bundled per engine as :class:`EngineTelemetry`.
  The exposition renders straight from ``Engine.metrics()``, labelled
  ``engine=<label>``.

Engines never bleed counters into each other: each step runs inside
its own :func:`repro.llm.attention.stats_scope`, so every engine's
metrics hold only its own traffic.

Enable tracing with ``EngineConfig(telemetry=TelemetryConfig(
trace=True))`` and read everything through ``engine.telemetry`` (or
``LLM(...).telemetry``); see ``examples/telemetry_tour.py``.
"""

from repro.serve.telemetry.config import TelemetryConfig
from repro.serve.telemetry.export import (
    ENGINE_COUNTER_FIELDS,
    ENGINE_GAUGE_FIELDS,
    EngineTelemetry,
    chrome_trace,
    log_step_summary,
    prometheus_exposition,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.serve.telemetry.tracer import StepTracer, TraceEvent, request_track

__all__ = [
    "ENGINE_COUNTER_FIELDS",
    "ENGINE_GAUGE_FIELDS",
    "EngineTelemetry",
    "StepTracer",
    "TelemetryConfig",
    "TraceEvent",
    "chrome_trace",
    "log_step_summary",
    "prometheus_exposition",
    "request_track",
    "validate_chrome_trace",
    "write_chrome_trace",
]
