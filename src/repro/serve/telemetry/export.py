"""Telemetry exporters: Chrome trace JSON, Prometheus text, step logs.

Three consumers, one recording substrate:

* :func:`chrome_trace` / :func:`write_chrome_trace` turn a
  :class:`~repro.serve.telemetry.tracer.StepTracer`'s event list into
  Chrome trace-event JSON (the ``traceEvents`` object form) loadable in
  Perfetto / ``chrome://tracing`` — one track per span name, one per
  request, named through ``thread_name`` metadata events.
  :func:`validate_chrome_trace` checks an emitted payload against the
  schema subset CI relies on (required keys, per-track monotonic
  ``ts``, matched B/E pairs).
* :func:`prometheus_exposition` renders an
  :class:`~repro.serve.metrics.EngineMetrics` snapshot in the
  Prometheus text exposition format (version 0.0.4); the tables
  :data:`ENGINE_COUNTER_FIELDS` / :data:`ENGINE_GAUGE_FIELDS` drive it,
  so the exposition reproduces the metrics object by construction.
* :func:`log_step_summary` emits one structured ``logging`` line per
  engine step on the ``repro.serve.telemetry`` logger.

:class:`EngineTelemetry` bundles one engine's optional tracer with
these exporters.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

from repro.errors import ModelError
from repro.serve.telemetry.config import TelemetryConfig
from repro.serve.telemetry.tracer import StepTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> here)
    from repro.serve.metrics import EngineMetrics, StepReport

#: Logger carrying the per-step summary lines (INFO level).
LOGGER = logging.getLogger("repro.serve.telemetry")

#: Cumulative :class:`EngineMetrics` fields exported as Prometheus
#: counters: ``(attribute, metric name, help)``.  Monotone over an
#: engine's life.
ENGINE_COUNTER_FIELDS: tuple[tuple[str, str, str], ...] = (
    ("steps", "repro_engine_steps_total", "Engine steps executed"),
    (
        "total_new_tokens",
        "repro_engine_new_tokens_total",
        "Continuation tokens emitted",
    ),
    (
        "total_seconds",
        "repro_engine_step_seconds_total",
        "Wall-clock seconds spent inside steps",
    ),
    (
        "prefill_tokens",
        "repro_engine_prefill_tokens_total",
        "Prompt positions computed",
    ),
    (
        "partial_prefills",
        "repro_engine_partial_prefills_total",
        "Chunk admissions that left a prompt in flight",
    ),
    (
        "preemptions",
        "repro_engine_preemptions_total",
        "Preemptions (swap-outs and prefill restarts)",
    ),
    (
        "evicted_blocks",
        "repro_engine_evicted_blocks_total",
        "Prefix-cache blocks reclaimed",
    ),
    (
        "prefix_hit_tokens",
        "repro_engine_prefix_hit_tokens_total",
        "Prompt positions served from shared blocks",
    ),
    (
        "prefix_saved_bytes",
        "repro_engine_prefix_saved_bytes_total",
        "Simulated DRAM bytes avoided by prefix hits",
    ),
    (
        "kv_copy_bytes",
        "repro_engine_kv_copy_bytes_total",
        "Host bytes memcpy'd re-materializing KV history",
    ),
    (
        "kv_dequant_bytes",
        "repro_engine_kv_dequant_bytes_total",
        "Host bytes materialised float16 -> float32 K / float32 V for attention reads",
    ),
    (
        "attention_dispatches",
        "repro_engine_attention_dispatches_total",
        "Attention pipeline launches",
    ),
    (
        "aborted",
        "repro_engine_aborted_requests_total",
        "Requests cancelled via abort()",
    ),
    (
        "failed",
        "repro_engine_failed_total",
        "Requests quarantined into FAILED (faults, deadlines, shedding)",
    ),
    (
        "fault_retries",
        "repro_engine_fault_retries_total",
        "Transient-fault recoveries (request backoffs and step rollbacks)",
    ),
    (
        "deadline_expired",
        "repro_engine_deadline_expired_total",
        "Requests failed by deadline_s expiry",
    ),
    (
        "shed",
        "repro_engine_shed_requests_total",
        "Admissions refused under KV-pool pressure",
    ),
    (
        "degraded",
        "repro_engine_degraded_requests_total",
        "Admissions downgraded to the pressure policy's KV format",
    ),
)

#: Point-in-time :class:`EngineMetrics` views exported as gauges.
ENGINE_GAUGE_FIELDS: tuple[tuple[str, str, str], ...] = (
    (
        "tokens_per_second",
        "repro_engine_tokens_per_second",
        "Aggregate decode throughput",
    ),
    (
        "mean_batch_size",
        "repro_engine_mean_batch_size",
        "Average requests per non-empty step",
    ),
    (
        "ttft_p50_seconds",
        "repro_engine_ttft_p50_seconds",
        "Median time-to-first-token across finished requests",
    ),
    (
        "ttft_p95_seconds",
        "repro_engine_ttft_p95_seconds",
        "Tail time-to-first-token across finished requests",
    ),
    (
        "itl_p50_seconds",
        "repro_engine_itl_p50_seconds",
        "Median inter-token gap across all token streams",
    ),
    (
        "itl_p95_seconds",
        "repro_engine_itl_p95_seconds",
        "Tail inter-token gap across all token streams",
    ),
)


# -- Chrome trace-event export -------------------------------------------------


def chrome_trace(
    tracer: StepTracer, process_name: str = "repro.serve.engine"
) -> dict:
    """Chrome trace-event JSON object for a tracer's recorded events.

    Tracks are materialized as threads of one process: each distinct
    ``TraceEvent.track`` gets a ``tid`` in order of first appearance,
    named via a ``thread_name`` metadata event so Perfetto shows
    ``step`` / ``decode.attention`` / ``request 3`` timelines instead
    of bare thread ids.
    """
    pid = 1
    tids: dict[str, int] = {}
    events: list[dict] = []
    for event in tracer.events:
        tid = tids.get(event.track)
        if tid is None:
            tid = len(tids) + 1
            tids[event.track] = tid
        entry: dict = {
            "name": event.name,
            "ph": event.phase,
            "ts": event.ts,
            "pid": pid,
            "tid": tid,
            "cat": "serve",
        }
        if event.phase == "i":
            entry["s"] = "t"  # instant scope: thread
        if event.args:
            entry["args"] = dict(event.args)
        events.append(entry)
    metadata: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for track, tid in tids.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path,
    tracer: StepTracer,
    process_name: str = "repro.serve.engine",
) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer, process_name)) + "\n")
    return path


def validate_chrome_trace(payload: dict) -> list[str]:
    """Schema problems in an emitted trace object (empty list = valid).

    Checks the subset of the Chrome trace-event format the CI artifact
    relies on: the ``traceEvents`` container, per-event required keys,
    non-negative per-track monotonically non-decreasing ``ts``, and
    strictly matched B/E pairs per track (LIFO, names agreeing) — an
    unbalanced or interleaved span would render as garbage in Perfetto.
    """
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    open_spans: dict[tuple[int, int], list[str]] = {}
    last_ts: dict[tuple[int, int], float] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        phase = event.get("ph")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                problems.append(f"event {index} lacks required key {key!r}")
        if phase == "M":
            continue
        if phase not in ("B", "E", "i"):
            problems.append(f"event {index} has unsupported phase {phase!r}")
            continue
        if "ts" not in event:
            problems.append(f"event {index} lacks required key 'ts'")
            continue
        ts = event["ts"]
        track = (event.get("pid", 0), event.get("tid", 0))
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {index} has non-monotonic ts {ts!r}")
            continue
        if ts < last_ts.get(track, 0.0):
            problems.append(
                f"event {index} ({event.get('name')}) goes backwards on "
                f"track {track}: ts {ts} < {last_ts[track]}"
            )
        last_ts[track] = ts
        if phase == "B":
            open_spans.setdefault(track, []).append(event.get("name", ""))
        elif phase == "E":
            stack = open_spans.get(track)
            if not stack:
                problems.append(
                    f"event {index} ends span {event.get('name')!r} with "
                    f"no open span on track {track}"
                )
            elif stack[-1] != event.get("name"):
                problems.append(
                    f"event {index} ends span {event.get('name')!r} but "
                    f"{stack[-1]!r} is open on track {track}"
                )
            else:
                stack.pop()
    for track, stack in open_spans.items():
        if stack:
            problems.append(
                f"track {track} has unclosed span(s): {', '.join(stack)}"
            )
    return problems


# -- Prometheus text exposition ------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _family(
    name: str, kind: str, help: str, series: Iterable[tuple[str, float]]
) -> list[str]:
    """HELP, TYPE and one sample line per ``(labels, value)`` series."""
    lines = [f"# HELP {name} {help}", f"# TYPE {name} {kind}"]
    lines.extend(f"{name}{{{labels}}} {float(value)!r}" for labels, value in series)
    return lines


def prometheus_exposition(metrics: "EngineMetrics", engine_label: str) -> str:
    """Text exposition (format 0.0.4) of one engine's metrics snapshot.

    Families render in a fixed order: the :data:`ENGINE_COUNTER_FIELDS`
    counters, the DRAM-byte and finished-request counters, the
    per-format KV byte counter (one series per format, in label
    order), then the :data:`ENGINE_GAUGE_FIELDS` gauges.  Every series
    carries ``engine="<engine_label>"``.
    """
    engine = f'engine="{_escape_label_value(engine_label)}"'
    lines: list[str] = []
    for attribute, name, help in ENGINE_COUNTER_FIELDS:
        lines += _family(name, "counter", help, [(engine, getattr(metrics, attribute))])
    lines += _family(
        "repro_engine_dram_bytes_total",
        "counter",
        "Simulated DRAM traffic",
        [(engine, metrics.traffic.total_bytes)],
    )
    lines += _family(
        "repro_engine_finished_requests_total",
        "counter",
        "Requests run to completion",
        [(engine, len(metrics.requests))],
    )
    lines += _family(
        "repro_engine_kv_format_bytes_total",
        "counter",
        "Simulated KV traffic attributed per KV format",
        [
            (f'{engine},format="{_escape_label_value(label)}"', nbytes)
            for label, nbytes in sorted(metrics.kv_format_bytes)
        ],
    )
    for attribute, name, help in ENGINE_GAUGE_FIELDS:
        lines += _family(name, "gauge", help, [(engine, getattr(metrics, attribute))])
    return "\n".join(lines) + "\n"


# -- per-step summary logging --------------------------------------------------


def log_step_summary(engine_label: str, report: "StepReport") -> None:
    """One structured INFO line summarizing an engine step."""
    LOGGER.info(
        "engine=%s step=%d prefills=%d decodes=%d new_tokens=%d "
        "batch_tokens=%d prefill_tokens=%d partial=%d preemptions=%d "
        "elapsed_ms=%.3f kv_copy_bytes=%d kv_dequant_bytes=%d "
        "attention_dispatches=%d",
        engine_label,
        report.step,
        report.prefills,
        report.decodes,
        report.new_tokens,
        report.batch_tokens,
        report.prefill_tokens,
        report.partial_prefills,
        report.preemptions,
        report.elapsed_seconds * 1e3,
        report.kv_copy_bytes,
        report.kv_dequant_bytes,
        report.attention_dispatches,
    )


# -- the per-engine bundle -----------------------------------------------------


class EngineTelemetry:
    """One engine's telemetry: optional tracer plus the exporters.

    Built by :class:`~repro.serve.engine.Engine` from its
    :class:`TelemetryConfig`; the engine passes its own ``metrics``
    callable so :meth:`prometheus` can render a fresh
    :class:`~repro.serve.metrics.EngineMetrics` snapshot (every series
    labelled ``engine=<label>``) without this module importing the
    engine.
    """

    def __init__(
        self,
        config: TelemetryConfig,
        engine_label: str,
        metrics_fn: "Callable[[], EngineMetrics]",
    ) -> None:
        self.config = config
        self.engine_label = engine_label
        self.tracer: StepTracer | None = StepTracer() if config.trace else None
        self._metrics_fn = metrics_fn
        self._process_name = f"repro.serve[{engine_label}]"

    def prometheus(self) -> str:
        """Text exposition of the engine's current metrics."""
        return prometheus_exposition(self._metrics_fn(), self.engine_label)

    def _enabled_tracer(self) -> StepTracer:
        if self.tracer is None:
            raise ModelError(
                "tracing is disabled; construct the engine with "
                "EngineConfig(telemetry=TelemetryConfig(trace=True))"
            )
        return self.tracer

    def chrome_trace(self) -> dict:
        """The engine's trace as a Chrome trace-event JSON object."""
        return chrome_trace(self._enabled_tracer(), self._process_name)

    def write_trace(self, path: str | Path) -> Path:
        """Serialize :meth:`chrome_trace` to ``path``; returns the path."""
        return write_chrome_trace(path, self._enabled_tracer(), self._process_name)
