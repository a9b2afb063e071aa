"""Outside-in tracing: benchmark-owned spans around public entry points.

The engine's own ``StepTracer`` spans leave roughly half of a decode
step unattributed (everything inside ``step.decode_batch`` except the
per-bucket attention).  Until those spans move into the program, the
traced pass installs timing wrappers *from here* around the public
functions each layer is entered through, records one span per call,
and merges them with the tracer's B/E events into a single tree by
interval containment — both use ``time.perf_counter`` and everything
runs on one thread, so a span's parent is simply the innermost span
that contains it.

A layer's **self time** is its spans' duration minus the part their
children cover; self times over all layers sum to the traced busy time
(the root spans: ``Engine.step``, ``LLM.submit``,
``RequestHandle.deltas``), so the shares sum to 1.

End-to-end numbers never come from a wrapped pass: :func:`installed`
restores every attribute it patched, and the tests assert identity.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.serve.engine as engine_module
from repro.llm.attention import BucketedAttention, MultiHeadAttention
from repro.llm.kv_quant import AndaKVCache
from repro.llm.layers import RMSNorm
from repro.llm.transformer import CausalLM, GatedFeedForward
from repro.serve import (
    LLM,
    PagedKVCache,
    RequestHandle,
    SequenceKV,
    StepTracer,
    TraceEvent,
)
from repro.serve import chrome_trace as repo_chrome_trace
from repro.serve.engine import Engine

#: (owner, attribute, span name).  Module-level functions are patched
#: as bound in ``repro.serve.engine`` — the name the engine calls.
TARGETS: tuple[tuple[object, str, str], ...] = (
    (Engine, "step", "Engine.step"),
    (engine_module, "plan_step", "plan_step"),
    (engine_module, "select_next_token", "select_next_token"),
    (engine_module, "decode_step_traffic", "hw.traffic"),
    (engine_module, "decode_request_kv_bytes", "hw.traffic"),
    (engine_module, "prefill_chunk_traffic", "hw.traffic"),
    (engine_module, "prefill_traffic", "hw.traffic"),
    (engine_module, "prefix_cache_savings", "hw.traffic"),
    (CausalLM, "forward_decode_batch", "CausalLM.forward_decode_batch"),
    (CausalLM, "forward_mixed_step", "CausalLM.forward_mixed_step"),
    (GatedFeedForward, "step", "GatedFeedForward.step"),
    (RMSNorm, "__call__", "RMSNorm.__call__"),
    (MultiHeadAttention, "step_batch", "MultiHeadAttention.step_batch"),
    (MultiHeadAttention, "step_mixed", "MultiHeadAttention.step_mixed"),
    (BucketedAttention, "run_bucket", "BucketedAttention.run_bucket"),
    (PagedKVCache, "view", "PagedKVCache.view"),
    (SequenceKV, "write", "SequenceKV.write"),
    (AndaKVCache, "compress", "AndaKVCache.compress"),
    (LLM, "submit", "LLM.submit"),
    (RequestHandle, "deltas", "RequestHandle.deltas"),
)

#: Span name -> the per-layer ``*_self_share`` metric it is charged to.
#: A span whose name is not listed inherits its parent's layer.
LAYER_OF: dict[str, str] = {
    "LLM.submit": "serve.llm.submit_self_share",
    "RequestHandle.deltas": "serve.llm.deliver_self_share",
    "Engine.step": "serve.engine.step_self_share",
    "step": "serve.engine.step_self_share",
    "step.schedule": "serve.engine.step_self_share",
    "step.preempt": "serve.engine.step_self_share",
    "step.prefill": "serve.engine.step_self_share",
    "step.sample": "serve.engine.step_self_share",
    "plan_step": "serve.scheduler.plan_self_share",
    "SequenceKV.write": "serve.kvpool.write_self_share",
    "PagedKVCache.view": "serve.kvpool.view_self_share",
    "CausalLM.forward_decode_batch": "llm.transformer.lane_self_share",
    "CausalLM.forward_mixed_step": "llm.transformer.lane_self_share",
    "step.decode_batch": "llm.transformer.lane_self_share",
    "step.prefill_chunks": "llm.transformer.lane_self_share",
    "GatedFeedForward.step": "llm.transformer.ffn_self_share",
    "RMSNorm.__call__": "llm.transformer.norm_self_share",
    "MultiHeadAttention.step_batch": "llm.attention.step_batch_self_share",
    "decode.codec": "llm.attention.step_batch_self_share",
    "MultiHeadAttention.step_mixed": "llm.attention.step_mixed_self_share",
    "BucketedAttention.run_bucket": "llm.attention.bucket_self_share",
    "decode.attention": "llm.attention.bucket_self_share",
    "AndaKVCache.compress": "core.anda.encode_self_share",
    "select_next_token": "llm.generation.sample_self_share",
    "hw.traffic": "hw.traffic.account_self_share",
}
DARK = "serve.engine.step_self_share"


@dataclass
class Span:
    """One timed interval; ``parent`` is an index into the same list."""

    name: str
    start: float
    end: float
    parent: int = -1
    args: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects wrapper spans in memory; nothing is written until the end."""

    def __init__(self) -> None:
        self.raw: list[list] = []

    def wrap(self, function: Callable, name: str) -> Callable:
        raw = self.raw
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            entry = [name, clock(), 0.0]
            raw.append(entry)
            try:
                return function(*args, **kwargs)
            finally:
                entry[2] = clock()

        return traced

    def spans(self) -> list[Span]:
        return [Span(name, start, end) for name, start, end in self.raw]


def _raw_attribute(owner: object, attribute: str) -> object:
    """The attribute as stored, so restoring it is an identity."""
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Patch every target with a timing wrapper; always restore."""
    originals = [_raw_attribute(owner, attr) for owner, attr, _ in TARGETS]
    try:
        for (owner, attr, name), original in zip(TARGETS, originals):
            setattr(owner, attr, recorder.wrap(original, name))
        yield
    finally:
        for (owner, attr, _), original in zip(TARGETS, originals):
            setattr(owner, attr, original)


#: A tracer instant: name, perf_counter time, track, args.
Instant = tuple[str, float, str, dict]


def tracer_spans(tracer: StepTracer) -> tuple[list[Span], list[Instant]]:
    """The tracer's B/E pairs as spans, and its instants, on our clock."""
    spans: list[Span] = []
    instants: list[Instant] = []
    open_spans: dict[str, list[Span]] = {}
    for event in tracer.events:
        at = tracer.epoch + event.ts / 1e6
        if event.phase == "B":
            span = Span(event.name, at, at, args=dict(event.args or {}))
            open_spans.setdefault(event.track, []).append(span)
            spans.append(span)
        elif event.phase == "E":
            open_spans[event.track].pop().end = at
        else:
            instants.append((event.name, at, event.track, dict(event.args or {})))
    return spans, instants


def build_tree(spans: list[Span]) -> tuple[list[Span], int]:
    """Order spans for a depth-first walk and set every ``parent``.

    Returns the ordered spans and how many had to be clamped because
    they outlived the span they started in (0 on a single thread with
    one clock; reported so that accounting errors cannot hide).
    """
    ordered = sorted(spans, key=lambda span: (span.start, -span.end))
    stack: list[int] = []
    clamped = 0
    for index, span in enumerate(ordered):
        while stack and ordered[stack[-1]].end <= span.start:
            stack.pop()
        if stack:
            outer = ordered[stack[-1]]
            if span.end > outer.end:
                span.end = outer.end
                clamped += 1
        span.parent = stack[-1] if stack else -1
        stack.append(index)
    return ordered, clamped


@dataclass
class Attribution:
    """Self-time accounting of one traced pass."""

    busy: float
    self_seconds: dict[str, float] = field(default_factory=dict)
    inclusive_seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    #: ``forward_mixed_step`` time minus the decode lane nested in it.
    chunk_lane_seconds: float = 0.0

    def share(self, layer_metric: str) -> float:
        return self.self_seconds.get(layer_metric, 0.0) / self.busy

    def share_sum(self) -> float:
        return sum(self.self_seconds.values()) / self.busy


def attribute(ordered: list[Span]) -> Attribution:
    """Charge every span's self time to a layer (see :data:`LAYER_OF`)."""
    children = [0.0] * len(ordered)
    layers: list[str] = []
    busy = 0.0
    for span in ordered:
        if span.parent >= 0:
            children[span.parent] += span.duration
            inherited = layers[span.parent]
        else:
            busy += span.duration
            inherited = DARK
        layers.append(LAYER_OF.get(span.name, inherited))
    result = Attribution(busy=busy)
    for span, covered, layer in zip(ordered, children, layers):
        result.self_seconds[layer] = (
            result.self_seconds.get(layer, 0.0) + span.duration - covered
        )
        result.inclusive_seconds[span.name] = (
            result.inclusive_seconds.get(span.name, 0.0) + span.duration
        )
        result.calls[span.name] = result.calls.get(span.name, 0) + 1
    # The decode lane nested in a mixed step belongs to the decode lane.
    nested = sum(
        span.duration
        for span in ordered
        if span.name == "CausalLM.forward_decode_batch"
        and span.parent >= 0
        and ordered[span.parent].name == "CausalLM.forward_mixed_step"
    )
    result.chunk_lane_seconds = (
        result.inclusive_seconds.get("CausalLM.forward_mixed_step", 0.0) - nested
    )
    return result


def chrome_trace(ordered: list[Span], instants: list[Instant]) -> dict:
    """The merged tree as Chrome trace-event JSON (Perfetto-loadable).

    Replays the tree into a fresh ``StepTracer`` and hands it to the
    repo's own exporter.  All spans share one track: a depth-first walk
    emits B/E pairs in LIFO order with non-decreasing timestamps, which
    is what ``repro.serve.validate_chrome_trace`` checks.  Lifecycle
    instants keep their per-request tracks.
    """
    origin = min(
        [span.start for span in ordered] + [at for _, at, _, _ in instants],
        default=0.0,
    )
    track = "merged spans"
    merged = StepTracer()
    open_ends: list[tuple[float, str]] = []

    def close_until(limit: float) -> None:
        while open_ends and open_ends[-1][0] <= limit:
            end, name = open_ends.pop()
            merged.end(name, ts=(end - origin) * 1e6, track=track)

    for span in ordered:
        close_until(span.start)
        begin_us = (span.start - origin) * 1e6
        merged.begin(span.name, ts=begin_us, track=track, **(span.args or {}))
        open_ends.append((span.end, span.name))
    close_until(float("inf"))
    for name, at, instant_track, args in sorted(instants, key=lambda item: item[1]):
        merged.events.append(
            TraceEvent(name, "i", (at - origin) * 1e6, instant_track, args or None)
        )
    return repo_chrome_trace(merged, process_name="benchmarks.ledger")
