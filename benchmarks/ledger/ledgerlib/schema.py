"""Names, units and predicted interactions of every ledger metric.

This module is the single place a metric or workload name is spelled;
``BENCHMARK.json`` is checked against it (:func:`check_manifest`) so the
manifest, the harness output and the README glossary cannot drift.
Later issues refer to these names verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

MAX_WORKLOADS = 8
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25


@dataclass(frozen=True)
class Metric:
    """One reported number: its unit, direction and one-line meaning."""

    name: str
    unit: str
    better: str
    meaning: str


@dataclass(frozen=True)
class Workload:
    """One named traffic mix and why it is in the set."""

    name: str
    why: str


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "decode_fp16",
        "decode lane does nearly all the work; codec, prefix cache and "
        "preemption do none: the bypass for KV-format, prefix and scheduler "
        "changes",
    ),
    Workload(
        "prefill_anda",
        "long unshared prompts: the chunk lane and bulk Anda encode dominate "
        "and prefix hits are zero, so it bypasses every prefix-sharing claim",
    ),
    Workload(
        "shared_prefix_anda",
        "one 512-token system prompt shared by all requests: paged gather, "
        "dequant views and bucketed attention dominate; prefill is negligible",
    ),
    Workload(
        "churn_mixed",
        "staggered arrivals, mixed KV formats, aborts and an undersized pool: "
        "allocation, eviction and preemption-recompute beside the same lanes",
    ),
)


def _metrics(*rows: tuple[str, str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(*row) for row in rows)


# One metric per row: name, unit, better, meaning.

#: End-to-end metrics the manifest bounds.  ``failed_share`` is reported
#: by the harness too, but through the result line's ``failed`` /
#: ``attempted`` pair: its expected value is 0, which a relative bound
#: cannot gate.
END_TO_END = _metrics(
    ("setup_s", "s", "lower",
     "a cold process's start to its first delivered token (interpreter, imports, "
     "model build, workload generation, engine constructor, pool first-touch); "
     "median of five fresh processes"),
    ("tok_per_cu", "tokens/cu", "higher",
     "prompt + generated tokens of finished requests over the summed robust "
     "timeline"),
    ("ttft_p50_cu", "cu", "lower",
     "median over requests, due tick to first token"),
    ("latency_p50_cu", "cu", "lower",
     "median over requests, due tick to last token"),
    ("itl_p50_cu", "cu", "lower",
     "median over all consecutive-token gaps"),
    ("itl_p99_cu", "cu", "lower",
     "99th percentile over all gaps: structural stalls (chunk rides, recompute), "
     "not scheduler jitter"),
    ("peak_rss_mb", "MiB", "lower",
     "serving child ru_maxrss after the last pass"),
)

(FAILED_SHARE,) = _metrics(
    ("failed_share", "ratio", "lower",
     "(failed + refused + oracle-mismatched + nondeterministic requests) / "
     "requests attempted, planned aborts excluded; expected 0"),
)

_SHARE = "self time over traced busy time"

#: Grouped by layer, in the order the README lists them.
PER_LAYER = _metrics(
    ("serve.llm.submit_self_share", "ratio", "lower",
     f"LLM.submit {_SHARE}"),
    ("serve.llm.deliver_self_share", "ratio", "lower",
     f"RequestHandle.deltas {_SHARE}"),
    ("serve.engine.ticks", "count", "lower",
     "engine steps in one pass"),
    ("serve.engine.batch_mean", "count", "higher",
     "mean requests per active step"),
    ("serve.engine.step_self_share", "ratio", "lower",
     "dark time: Engine.step minus every wrapped child"),
    ("serve.engine.build_ms", "ms", "lower",
     "Engine constructor wall time, median over passes"),
    ("serve.engine.first_tick_share", "ratio", "lower",
     "robust tick 0 (constructor + first step) over the robust pass"),
    ("serve.engine.preemptions", "count", "lower",
     "recompute-on-resume evictions"),
    ("serve.engine.aborted", "count", "lower",
     "client aborts that took effect"),
    ("serve.engine.failed", "count", "lower",
     "requests the engine failed"),
    ("serve.scheduler.plan_self_share", "ratio", "lower",
     f"plan_step {_SHARE}"),
    ("serve.scheduler.budget_fill", "ratio", "higher",
     "batch tokens over token budget, active steps"),
    ("serve.scheduler.partial_prefills", "count", "lower",
     "chunks that left a prompt in flight"),
    ("serve.scheduler.ttft_ticks_p50", "count", "lower",
     "median ticks from due tick to first token"),
    ("serve.scheduler.plan_probe_cu", "cu", "lower",
     "plan_step on a churn_mixed queue snapshot"),
    ("serve.kvpool.write_self_share", "ratio", "lower",
     f"SequenceKV.write {_SHARE}"),
    ("serve.kvpool.view_self_share", "ratio", "lower",
     f"PagedKVCache.view {_SHARE}"),
    ("serve.kvpool.view_calls", "count", "lower",
     "PagedKVCache.view calls per pass"),
    ("serve.kvpool.blocks_peak_share", "ratio", "lower",
     "peak referenced blocks over pool size"),
    ("serve.kvpool.prefix_hit_share", "ratio", "higher",
     "prompt positions mapped from the radix cache over positions needed"),
    ("serve.kvpool.evicted_blocks", "count", "lower",
     "prefix-cache blocks reclaimed"),
    ("serve.kvpool.leaked_blocks", "count", "lower",
     "blocks still held after drain"),
    ("serve.kvpool.kv_copy_bytes_per_tok", "B/token", "lower",
     "host bytes memcpy'd re-materialising history, per emitted token"),
    ("serve.kvpool.gather_probe_cu", "cu", "lower",
     "SequenceKV.write + PagedKVCache.view at 550 positions"),
    ("llm.transformer.decode_lane_share", "ratio", "lower",
     "forward_decode_batch inclusive time over traced busy time"),
    ("llm.transformer.chunk_lane_share", "ratio", "lower",
     "forward_mixed_step minus its decode lane, inclusive"),
    ("llm.transformer.ffn_self_share", "ratio", "lower",
     f"GatedFeedForward.step {_SHARE}"),
    ("llm.transformer.norm_self_share", "ratio", "lower",
     f"RMSNorm.__call__ {_SHARE}"),
    ("llm.transformer.lane_self_share", "ratio", "lower",
     "both lanes' own time: embedding, LM head, block loop, Tensor wrapping"),
    ("llm.transformer.prefill_tokens", "count", "lower",
     "prompt positions computed"),
    ("llm.transformer.decode_probe_cu", "cu", "lower",
     "forward_decode_batch at batch 16"),
    ("llm.transformer.chunk_probe_cu", "cu", "lower",
     "one 128-token forward_mixed_step chunk"),
    ("llm.attention.step_batch_self_share", "ratio", "lower",
     f"MultiHeadAttention.step_batch {_SHARE} (QKV, rotary, append loop)"),
    ("llm.attention.step_mixed_self_share", "ratio", "lower",
     f"MultiHeadAttention.step_mixed {_SHARE} (incl. per-segment attention)"),
    ("llm.attention.bucket_self_share", "ratio", "lower",
     f"BucketedAttention.run_bucket {_SHARE}"),
    ("llm.attention.dispatches_per_tick", "count", "lower",
     "attention launches per engine step"),
    ("llm.attention.grouped_share", "ratio", "higher",
     "decode rows served through a multi-request bucket"),
    ("llm.attention.padded_read_share", "ratio", "lower",
     "padded key positions over decode key positions read"),
    ("llm.attention.kv_dequant_bytes_per_tok", "B/token", "lower",
     "fp16 to fp32 bytes converted for attention reads, per emitted token"),
    ("llm.attention.bucket_probe_cu", "cu", "lower",
     "one run_bucket launch, batch 8 x 550"),
    ("core.anda.encode_self_share", "ratio", "lower",
     f"AndaKVCache.compress {_SHARE}"),
    ("core.anda.encode_calls", "count", "lower",
     "AndaKVCache.compress calls per pass"),
    ("core.anda.encode_probe_melem_per_cu", "Melem/cu", "higher",
     "AndaKVCache.compress on a 128x4x64 chunk"),
    ("llm.generation.sample_self_share", "ratio", "lower",
     f"select_next_token {_SHARE}"),
    ("llm.generation.sample_probe_cu", "cu", "lower",
     "select_next_token, top-k sampling"),
    ("hw.traffic.dram_bytes_per_tok", "B/token", "lower",
     "modelled DRAM bytes per emitted token"),
    ("hw.traffic.kv_read_share", "ratio", "lower",
     "modelled KV reads over all bytes"),
    ("hw.traffic.prefix_saved_bytes", "B", "higher",
     "modelled bytes prefix hits avoided"),
    ("hw.traffic.account_self_share", "ratio", "lower",
     f"hw.traffic accounting calls {_SHARE}"),
    ("serve.telemetry.trace_overhead_share", "ratio", "lower",
     "traced pass over untraced robust pass, minus one"),
    ("serve.telemetry.events_per_tick", "count", "lower",
     "StepTracer events per step"),
)

#: Per-layer metrics that are exact counts or model outputs: they repeat
#: bit-for-bit across passes, sets and processes at a fixed seed.
EXACT_PER_LAYER: tuple[str, ...] = (
    "serve.engine.ticks",
    "serve.engine.batch_mean",
    "serve.engine.preemptions",
    "serve.engine.aborted",
    "serve.engine.failed",
    "serve.scheduler.budget_fill",
    "serve.scheduler.partial_prefills",
    "serve.scheduler.ttft_ticks_p50",
    "serve.kvpool.view_calls",
    "serve.kvpool.blocks_peak_share",
    "serve.kvpool.prefix_hit_share",
    "serve.kvpool.evicted_blocks",
    "serve.kvpool.leaked_blocks",
    "serve.kvpool.kv_copy_bytes_per_tok",
    "llm.transformer.prefill_tokens",
    "llm.attention.dispatches_per_tick",
    "llm.attention.grouped_share",
    "llm.attention.padded_read_share",
    "llm.attention.kv_dequant_bytes_per_tok",
    "core.anda.encode_calls",
    "hw.traffic.dram_bytes_per_tok",
    "hw.traffic.kv_read_share",
    "hw.traffic.prefix_saved_bytes",
    "serve.telemetry.events_per_tick",
)

#: Written down before measuring: which end-to-end metric each layer
#: metric should move, and on which workload.  One row per layer.
Names = tuple[str, ...]
INTERACTIONS: tuple[tuple[str, Names, Names, Names], ...] = (
    (
        "serve.llm",
        ("serve.llm.submit_self_share", "serve.llm.deliver_self_share"),
        ("ttft_p50_cu",),
        ("churn_mixed",),
    ),
    (
        "serve.engine",
        (
            "serve.engine.step_self_share",
            "serve.engine.batch_mean",
            "serve.engine.first_tick_share",
            "serve.engine.build_ms",
        ),
        ("tok_per_cu", "itl_p50_cu", "setup_s", "ttft_p50_cu"),
        ("decode_fp16", "prefill_anda", "shared_prefix_anda", "churn_mixed"),
    ),
    (
        "serve.scheduler",
        (
            "serve.scheduler.plan_self_share",
            "serve.scheduler.budget_fill",
            "serve.scheduler.ttft_ticks_p50",
            "serve.scheduler.plan_probe_cu",
        ),
        ("ttft_p50_cu", "latency_p50_cu"),
        ("churn_mixed",),
    ),
    (
        "serve.kvpool",
        (
            "serve.kvpool.write_self_share",
            "serve.kvpool.view_self_share",
            "serve.kvpool.prefix_hit_share",
            "serve.kvpool.evicted_blocks",
            "serve.kvpool.blocks_peak_share",
            "serve.kvpool.gather_probe_cu",
        ),
        ("itl_p50_cu", "tok_per_cu", "ttft_p50_cu", "peak_rss_mb"),
        ("shared_prefix_anda", "churn_mixed"),
    ),
    (
        "llm.transformer",
        (
            "llm.transformer.decode_lane_share",
            "llm.transformer.ffn_self_share",
            "llm.transformer.norm_self_share",
            "llm.transformer.lane_self_share",
            "llm.transformer.decode_probe_cu",
        ),
        ("tok_per_cu", "itl_p50_cu"),
        ("decode_fp16",),
    ),
    (
        "llm.transformer (chunk lane)",
        ("llm.transformer.chunk_lane_share", "llm.transformer.chunk_probe_cu"),
        ("tok_per_cu", "ttft_p50_cu", "itl_p99_cu"),
        ("prefill_anda", "churn_mixed"),
    ),
    (
        "llm.attention",
        (
            "llm.attention.bucket_self_share",
            "llm.attention.dispatches_per_tick",
            "llm.attention.bucket_probe_cu",
            "llm.attention.step_batch_self_share",
        ),
        ("itl_p50_cu", "tok_per_cu"),
        ("shared_prefix_anda",),
    ),
    (
        "llm.attention (chunk lane)",
        ("llm.attention.step_mixed_self_share",),
        ("ttft_p50_cu",),
        ("prefill_anda",),
    ),
    (
        "core.anda",
        (
            "core.anda.encode_self_share",
            "core.anda.encode_calls",
            "core.anda.encode_probe_melem_per_cu",
        ),
        ("tok_per_cu",),
        ("prefill_anda",),
    ),
    (
        "llm.generation",
        ("llm.generation.sample_self_share", "llm.generation.sample_probe_cu"),
        ("itl_p50_cu",),
        ("decode_fp16",),
    ),
    (
        "hw.traffic",
        ("hw.traffic.account_self_share",),
        ("itl_p50_cu",),
        ("decode_fp16",),
    ),
)


def workload_names() -> tuple[str, ...]:
    return tuple(workload.name for workload in WORKLOADS)


def schema_problems() -> list[str]:
    """Violations of the benchmark contract's naming and size rules."""
    problems: list[str] = []
    names = [m.name for m in END_TO_END + PER_LAYER + (FAILED_SHARE,)]
    names += list(workload_names())
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for metric in END_TO_END + PER_LAYER + (FAILED_SHARE,):
        if not UNIT_RE.match(metric.unit):
            problems.append(f"{metric.name}: bad unit {metric.unit!r}")
        if metric.better not in ("lower", "higher"):
            problems.append(f"{metric.name}: bad direction {metric.better!r}")
    if not 2 <= len(WORKLOADS) <= MAX_WORKLOADS:
        problems.append(f"{len(WORKLOADS)} workloads")
    if not 1 <= len(END_TO_END) <= MAX_END_TO_END:
        problems.append(f"{len(END_TO_END)} end-to-end metrics")
    if not 1 <= len(PER_LAYER) <= MAX_PER_LAYER:
        problems.append(f"{len(PER_LAYER)} per-layer metrics")
    for workload in WORKLOADS:
        if len(workload.why) > 200 or "\n" in workload.why:
            problems.append(f"{workload.name}: why is not one short line")
    if "setup_s" not in {m.name for m in END_TO_END}:
        problems.append("setup_s is missing")
    layer_names = {m.name for m in PER_LAYER}
    e2e_names = {m.name for m in END_TO_END}
    for layer, metrics, targets, workloads in INTERACTIONS:
        for name in metrics:
            if name not in layer_names:
                problems.append(f"{layer}: unknown layer metric {name}")
        for name in targets:
            if name not in e2e_names:
                problems.append(f"{layer}: unknown end-to-end target {name}")
        for name in workloads:
            if name not in workload_names():
                problems.append(f"{layer}: unknown workload {name}")
    for name in EXACT_PER_LAYER:
        if name not in layer_names:
            problems.append(f"exact metric {name} is not a per-layer metric")
    return problems


def check_manifest(manifest: dict) -> list[str]:
    """Differences between ``BENCHMARK.json`` and this module."""
    problems: list[str] = []
    expected_keys = {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    if set(manifest) != expected_keys:
        problems.append(f"manifest keys {sorted(manifest)} != {sorted(expected_keys)}")
        return problems
    listed = [(w["name"], w["why"]) for w in manifest["workloads"]]
    if listed != [(w.name, w.why) for w in WORKLOADS]:
        problems.append("workloads differ from schema.WORKLOADS")
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed_metrics = [(m["name"], m["unit"], m["better"]) for m in manifest[key]]
        if listed_metrics != [(m.name, m.unit, m.better) for m in metrics]:
            problems.append(f"{key} differs from the schema")
    for entry in manifest["end_to_end"]:
        if set(entry) != {"name", "unit", "better", "bound"}:
            problems.append(f"{entry.get('name')}: end-to-end keys {sorted(entry)}")
        elif not 0 < entry["bound"] <= MAX_BOUND:
            problems.append(f"{entry['name']}: bound {entry['bound']} out of range")
    for entry in manifest["per_layer"]:
        if set(entry) != {"name", "unit", "better"}:
            problems.append(f"{entry.get('name')}: per-layer keys {sorted(entry)}")
    if not 1 <= manifest["run_seconds"] <= 60:
        problems.append(f"run_seconds {manifest['run_seconds']} out of range")
    return problems
