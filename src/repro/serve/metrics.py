"""Aggregate serving metrics: throughput, latency, simulated traffic.

The engine accumulates one :class:`StepReport` per step; this module
rolls those plus the per-request records into an :class:`EngineMetrics`
summary — the object the serving benchmark serializes.  The reports
also carry the paged KV pool's counters: preemptions, prefix-cache
block evictions, prefix-hit tokens and the DRAM traffic those hits
avoided.

Latency is summarized as percentiles, the form a serving SLO is
written in: **TTFT** (time to first token — what chunked prefill
bounds for the long prompt itself) and **ITL** (inter-token latency —
what mixed steps bound for everyone else, by never letting a monolithic
prefill stall the decode batch).  TTFT percentiles are taken across
requests; ITL percentiles are taken across every consecutive
token-to-token gap of every request, so one long stall in one request
shows up in the tail instead of averaging away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.errors import ModelError
from repro.hw.traffic import StepTraffic
from repro.serve.request import RequestMetrics


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of ``values``.

    Thin wrapper over :func:`numpy.quantile` that returns 0.0 for an
    empty sequence, so metric objects are safe to render before any
    request finishes.
    """
    if not 0.0 <= q <= 1.0:
        raise ModelError(f"percentile q must lie in [0, 1], got {q}")
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values), q))


@dataclass(frozen=True)
class StepReport:
    """What one engine step did and what it cost.

    Attributes:
        step: the engine's step index.
        prefills / decodes: request counts per phase this step (a
            prefill here is one admitted chunk — a whole prompt when
            the budget covers it; a swap-in is a decode).
        new_tokens: tokens emitted (completed prefills produce their
            first token).
        batch_tokens: scheduler budget consumed (chunk grants + decodes).
        prefill_tokens: prompt positions actually computed this step.
        partial_prefills: chunks that did not complete their prompt
            (the request stays in the waiting queue, half-prefilled).
        elapsed_seconds: wall-clock duration of the step.
        traffic: simulated DRAM traffic of the step.
        preemptions: running or half-prefilled requests evicted for
            blocks this step.
        evicted_blocks: prefix-cache blocks reclaimed this step.
        prefix_hit_tokens: prompt positions served from shared blocks.
        prefix_saved_bytes: simulated DRAM bytes those hits avoided.
        kv_copy_bytes: host bytes memcpy'd re-materializing KV history
            this step (residency growth; O(history) per step on the
            reference storage, amortized O(new tokens) on the
            preallocated path).
        kv_dequant_bytes: host bytes materialised from stored float16
            into the decode-ready residency (float32 keys and values,
            8 bytes per pair) this step (only the appended tail is
            converted).
        attention_dispatches: attention launches this step — one per
            (layer, decode row) plus one per (layer, prefill chunk).
        kv_format_bytes: per-format split of the step's simulated KV
            traffic — ``((format_label, bytes), ...)`` sorted by label,
            where each request's KV reads+writes are attributed to its
            resolved :class:`~repro.llm.kv_quant.KVFormat`.  Empty when
            the step moved no KV bytes.
    """

    step: int
    prefills: int
    decodes: int
    new_tokens: int
    batch_tokens: int
    elapsed_seconds: float
    traffic: StepTraffic
    prefill_tokens: int = 0
    partial_prefills: int = 0
    preemptions: int = 0
    evicted_blocks: int = 0
    prefix_hit_tokens: int = 0
    prefix_saved_bytes: float = 0.0
    kv_copy_bytes: int = 0
    kv_dequant_bytes: int = 0
    attention_dispatches: int = 0
    kv_format_bytes: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class EngineMetrics:
    """Aggregate view over an engine's lifetime.

    Attributes:
        steps: engine steps executed.
        total_new_tokens: continuation tokens emitted overall.
        total_seconds: wall-clock time spent inside steps.
        tokens_per_second: aggregate decode throughput.
        mean_batch_size: average requests per non-empty step.
        traffic: summed simulated DRAM traffic.
        prefill_tokens: prompt positions computed across all steps.
        partial_prefills: chunk admissions that left a prompt in
            flight (0 when every prompt fits the token budget).
        preemptions: total preemptions (running requests swapped
            out, half-prefilled ones restarted).
        evicted_blocks: total prefix-cache blocks reclaimed.
        prefix_hit_tokens: total prompt positions shared, not computed.
        prefix_saved_bytes: total simulated DRAM bytes avoided by hits.
        kv_copy_bytes: total host bytes memcpy'd re-materializing KV
            history (the decode hot path's waste metric — amortized
            O(1) per token on the preallocated storage).
        kv_dequant_bytes: total host bytes materialised from stored
            float16 into the decode-ready residency (float32 keys and
            values, 8 bytes per pair; each stored position is converted
            once, not once per step).
        attention_dispatches: total attention launches — one per
            (layer, decode row) and per (layer, prefill chunk).
        attention_grouped_requests: always 0.  Decode rows no longer
            share a stacked launch; the field stays because the
            serving ledger reads it.
        attention_padded_reads: always 0.  No launch scores padding;
            the field stays because the serving ledger reads it.
        kv_format_bytes: lifetime per-format split of simulated KV
            traffic, merged across steps (sorted by format label).
        aborted: requests cancelled via ``abort()`` (they release their
            KV residency immediately and never produce a request
            record, so they appear here and nowhere in ``requests``).
        failed: requests the engine quarantined into the terminal
            FAILED status — permanent faults, exhausted retries,
            deadline expiries and shed admissions all land here (like
            aborts, they produce no request record).
        fault_retries: transient-fault recoveries — per-request
            backoff retries plus batch-level step rollbacks (each
            resumes bitwise: a swap-in, a re-prefill or a replayed
            step).
        deadline_expired: requests failed because their
            ``SamplingParams.deadline_s`` budget elapsed (a subset of
            ``failed``).
        shed: admissions refused under KV-pool pressure (a subset of
            ``failed``).
        degraded: admissions downgraded to the pressure policy's
            lower-bit KV format (these still finish normally).
        requests: per-request latency records (finished requests only).
    """

    steps: int
    total_new_tokens: int
    total_seconds: float
    tokens_per_second: float
    mean_batch_size: float
    traffic: StepTraffic
    prefill_tokens: int = 0
    partial_prefills: int = 0
    preemptions: int = 0
    evicted_blocks: int = 0
    prefix_hit_tokens: int = 0
    prefix_saved_bytes: float = 0.0
    kv_copy_bytes: int = 0
    kv_dequant_bytes: int = 0
    attention_dispatches: int = 0
    attention_grouped_requests: int = 0
    attention_padded_reads: int = 0
    kv_format_bytes: tuple[tuple[str, float], ...] = ()
    aborted: int = 0
    failed: int = 0
    fault_retries: int = 0
    deadline_expired: int = 0
    shed: int = 0
    degraded: int = 0
    requests: list[RequestMetrics] = field(default_factory=list)

    @property
    def mean_latency_seconds(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.latency_seconds for r in self.requests) / len(self.requests)

    @property
    def mean_ttft_seconds(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.ttft_seconds for r in self.requests) / len(self.requests)

    def _ttfts(self) -> list[float]:
        return [r.ttft_seconds for r in self.requests]

    def _itl_gaps(self) -> list[float]:
        return [gap for r in self.requests for gap in r.itl_seconds]

    @property
    def ttft_p50_seconds(self) -> float:
        """Median time-to-first-token across finished requests."""
        return percentile(self._ttfts(), 0.50)

    @property
    def ttft_p95_seconds(self) -> float:
        """Tail time-to-first-token across finished requests."""
        return percentile(self._ttfts(), 0.95)

    @property
    def itl_p50_seconds(self) -> float:
        """Median inter-token gap across every request's token stream."""
        return percentile(self._itl_gaps(), 0.50)

    @property
    def itl_p95_seconds(self) -> float:
        """Tail inter-token gap — the stall a monolithic prefill causes."""
        return percentile(self._itl_gaps(), 0.95)


def summarize(
    reports: list[StepReport],
    requests: list[RequestMetrics],
    aborted: int = 0,
    failed: int = 0,
    fault_retries: int = 0,
    deadline_expired: int = 0,
    shed: int = 0,
    degraded: int = 0,
) -> EngineMetrics:
    """Fold step reports and request records into one summary."""
    total_tokens = sum(report.new_tokens for report in reports)
    total_seconds = sum(report.elapsed_seconds for report in reports)
    active = [
        report.prefills + report.decodes
        for report in reports
        if report.prefills + report.decodes > 0
    ]
    traffic = StepTraffic()
    for report in reports:
        traffic = traffic + report.traffic
    format_bytes: dict[str, float] = {}
    for report in reports:
        for label, nbytes in report.kv_format_bytes:
            format_bytes[label] = format_bytes.get(label, 0.0) + nbytes
    return EngineMetrics(
        steps=len(reports),
        total_new_tokens=total_tokens,
        total_seconds=total_seconds,
        tokens_per_second=(total_tokens / total_seconds if total_seconds > 0 else 0.0),
        mean_batch_size=sum(active) / len(active) if active else 0.0,
        traffic=traffic,
        prefill_tokens=sum(report.prefill_tokens for report in reports),
        partial_prefills=sum(report.partial_prefills for report in reports),
        preemptions=sum(report.preemptions for report in reports),
        evicted_blocks=sum(report.evicted_blocks for report in reports),
        prefix_hit_tokens=sum(report.prefix_hit_tokens for report in reports),
        prefix_saved_bytes=sum(report.prefix_saved_bytes for report in reports),
        kv_copy_bytes=sum(report.kv_copy_bytes for report in reports),
        kv_dequant_bytes=sum(report.kv_dequant_bytes for report in reports),
        attention_dispatches=sum(report.attention_dispatches for report in reports),
        kv_format_bytes=tuple(sorted(format_bytes.items())),
        aborted=aborted,
        failed=failed,
        fault_retries=fault_retries,
        deadline_expired=deadline_expired,
        shed=shed,
        degraded=degraded,
        requests=list(requests),
    )
