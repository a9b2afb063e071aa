"""Telemetry knobs of one engine instance (`EngineConfig.telemetry`)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError


@dataclass(frozen=True)
class TelemetryConfig:
    """What an engine records beyond its always-on counters.

    The per-engine stats and their Prometheus exposition exist
    regardless of this config; the knobs here govern the *optional*
    instruments:

    Args:
        trace: record phase spans and request lifecycle events into a
            :class:`~repro.serve.telemetry.StepTracer` for Chrome
            trace-event export.  Off by default: a disabled tracer is
            ``None`` everywhere, so the hot path pays one ``is None``
            check per instrumented region (CI gates the disabled-mode
            step-latency overhead at <= 2%).
        log_steps: emit one structured ``logging`` summary line per
            engine step (logger ``repro.serve.telemetry``, INFO level).
        log_every: emit the summary line every N-th step only
            (``log_steps`` must be on; 1 logs every step).
    """

    trace: bool = False
    log_steps: bool = False
    log_every: int = 1

    def __post_init__(self) -> None:
        if self.log_every < 1:
            raise ModelError(f"log_every must be >= 1, got {self.log_every}")
