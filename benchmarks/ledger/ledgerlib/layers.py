"""Per-layer metrics: counts from the engine's own reports, shares from
the merged span tree.

Counts (``schema.EXACT_PER_LAYER``) come from ``EngineMetrics`` /
``StepReport`` and from the wrapper call counters; they repeat exactly.
``*_share`` metrics are self time over traced busy time and carry the
traced pass's timing noise.
"""

from __future__ import annotations

import numpy as np

from ledgerlib.checks import prefix_hit_share
from ledgerlib.driver import PassRecord
from ledgerlib.spans import LAYER_OF, Attribution
from ledgerlib.workloads import MODEL_CONFIG, WorkloadSpec


def count_metrics(spec: WorkloadSpec, record: PassRecord) -> dict[str, float]:
    """Exact per-layer metrics of one (any) pass."""
    metrics = record.metrics
    assert metrics is not None
    finished = [
        ticks[0] - request.due_tick + 1
        for ticks, request, outcome in zip(
            record.token_ticks, spec.requests, record.outcomes
        )
        if outcome == "finished"
    ]
    # Key positions the decode lane read: token j >= 1 of a request
    # attends its prompt plus the j tokens emitted before it.
    decode_positions = sum(
        len(request.prompt) * (len(tokens) - 1) + len(tokens) * (len(tokens) - 1) // 2
        for request, tokens in zip(spec.requests, record.tokens)
        if tokens
    )
    emitted = max(metrics.total_new_tokens, 1)
    traffic = metrics.traffic
    return {
        "serve.engine.ticks": metrics.steps,
        "serve.engine.batch_mean": metrics.mean_batch_size,
        "serve.engine.preemptions": metrics.preemptions,
        "serve.engine.aborted": metrics.aborted,
        "serve.engine.failed": metrics.failed,
        "serve.scheduler.budget_fill": record.batch_tokens
        / (spec.max_batch_tokens * max(record.active_steps, 1)),
        "serve.scheduler.partial_prefills": metrics.partial_prefills,
        "serve.scheduler.ttft_ticks_p50": (
            float(np.median(finished)) if finished else 0.0
        ),
        "serve.kvpool.blocks_peak_share": record.peak_blocks / spec.kv_pool_blocks,
        "serve.kvpool.prefix_hit_share": prefix_hit_share(record),
        "serve.kvpool.evicted_blocks": metrics.evicted_blocks,
        "serve.kvpool.leaked_blocks": record.leaked_blocks,
        "serve.kvpool.kv_copy_bytes_per_tok": metrics.kv_copy_bytes / emitted,
        "llm.transformer.prefill_tokens": metrics.prefill_tokens,
        "llm.attention.dispatches_per_tick": metrics.attention_dispatches
        / max(metrics.steps, 1),
        "llm.attention.grouped_share": metrics.attention_grouped_requests
        / max(MODEL_CONFIG.n_layers * record.decode_rows, 1),
        "llm.attention.padded_read_share": metrics.attention_padded_reads
        / max(metrics.attention_padded_reads + decode_positions, 1),
        "llm.attention.kv_dequant_bytes_per_tok": metrics.kv_dequant_bytes / emitted,
        "hw.traffic.dram_bytes_per_tok": traffic.total_bytes / emitted,
        "hw.traffic.kv_read_share": traffic.kv_read_bytes
        / max(traffic.total_bytes, 1.0),
        "hw.traffic.prefix_saved_bytes": metrics.prefix_saved_bytes,
    }


def share_metrics(
    attribution: Attribution, traced: PassRecord
) -> dict[str, float]:
    """Span-derived per-layer metrics of the traced pass."""
    result = {name: attribution.share(name) for name in set(LAYER_OF.values())}
    busy = attribution.busy
    inclusive = attribution.inclusive_seconds
    result["llm.transformer.decode_lane_share"] = (
        inclusive.get("CausalLM.forward_decode_batch", 0.0) / busy
    )
    result["llm.transformer.chunk_lane_share"] = attribution.chunk_lane_seconds / busy
    result["serve.kvpool.view_calls"] = attribution.calls.get("PagedKVCache.view", 0)
    result["core.anda.encode_calls"] = attribution.calls.get("AndaKVCache.compress", 0)
    assert traced.tracer is not None and traced.metrics is not None
    result["serve.telemetry.events_per_tick"] = len(traced.tracer.events) / max(
        traced.metrics.steps, 1
    )
    return result
