"""Low-overhead span tracer for engine steps and request lifecycles.

A :class:`StepTracer` records flat begin/end/instant events with
``time.perf_counter`` timestamps (microseconds relative to the
tracer's epoch) — no nesting bookkeeping, no I/O, no formatting on the
hot path; one list append per event.  The Chrome trace-event exporter
(:mod:`repro.serve.telemetry.export`) turns the event list into a
Perfetto-loadable timeline afterwards, assigning one track per span
name (phase) and one per request.

Disabled tracing is represented by *absence*: the engine holds
``tracer = None``.  It opens every phase span through one helper
(``Engine._span``, a shared no-op context manager when untraced) and
records every lifecycle instant through another
(``Engine._lifecycle``), so the disabled cost is one method call per
region; the model layers read the tracer from the active
:func:`~repro.llm.attention.stats_scope` and skip their spans when it
is absent.

``begin``/``end`` accept an explicit pre-captured ``ts`` (a raw
``perf_counter`` reading mapped through :meth:`StepTracer.to_us`) so a
span can share the *exact* clock readings other accounting uses — the
engine's root ``step`` span reuses the readings behind
``StepReport.elapsed_seconds``, which is what lets the acceptance test
compare span durations to the report tightly instead of within slop.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

#: Track (Perfetto thread) prefix for per-request lifecycle events.
REQUEST_TRACK_PREFIX = "request "


def request_track(request_id: int) -> str:
    """Track name carrying one request's lifecycle events."""
    return f"{REQUEST_TRACK_PREFIX}{request_id}"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event.

    Attributes:
        name: span or instant name (``step``, ``decode.attention``, a
            lifecycle status, ...).
        phase: ``"B"`` (span begin), ``"E"`` (span end) or ``"i"``
            (instant) — the Chrome trace-event phases the exporter
            emits verbatim.
        ts: microseconds since the tracer's epoch.
        track: timeline the event renders on; defaults to ``name`` so
            every span name gets its own track.
        args: extra key/values shown in the trace UI (``None`` for
            none — cheaper than an empty dict per event).
    """

    name: str
    phase: str
    ts: float
    track: str
    args: dict | None = None


class StepTracer:
    """Append-only event recorder with a private perf_counter epoch."""

    __slots__ = ("events", "_epoch")

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._epoch = time.perf_counter()

    @property
    def epoch(self) -> float:
        """The raw ``perf_counter`` reading mapped to ``ts == 0``."""
        return self._epoch

    def to_us(self, perf_counter_seconds: float) -> float:
        """Map a raw ``time.perf_counter()`` reading onto the trace clock."""
        return (perf_counter_seconds - self._epoch) * 1e6

    def _now(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def begin(
        self,
        name: str,
        *,
        ts: float | None = None,
        track: str | None = None,
        **args: object,
    ) -> None:
        """Open a span (pair with :meth:`end` on the same track)."""
        self.events.append(
            TraceEvent(
                name,
                "B",
                self._now() if ts is None else ts,
                name if track is None else track,
                args or None,
            )
        )

    def end(
        self, name: str, *, ts: float | None = None, track: str | None = None
    ) -> None:
        """Close the most recent open span of ``name`` on its track."""
        self.events.append(
            TraceEvent(
                name,
                "E",
                self._now() if ts is None else ts,
                name if track is None else track,
                None,
            )
        )

    def instant(
        self, name: str, *, track: str | None = None, **args: object
    ) -> None:
        """Record a point event (no duration — lifecycle transitions)."""
        self.events.append(
            TraceEvent(
                name,
                "i",
                self._now(),
                name if track is None else track,
                args or None,
            )
        )

    @contextmanager
    def span(
        self, name: str, *, track: str | None = None, **args: object
    ) -> Iterator[None]:
        """``with tracer.span("decode.attention", size=...):`` region."""
        self.begin(name, track=track, **args)
        try:
            yield
        finally:
            self.end(name, track=track)

    def lifecycle(self, request_id: int, status: str, **args: object) -> None:
        """Record one request's lifecycle transition on its own track."""
        self.instant(status, track=request_track(request_id), **args)

    def clear(self) -> None:
        """Drop recorded events (the epoch is kept, timestamps stay
        comparable across clears)."""
        self.events.clear()
