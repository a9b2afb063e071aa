"""Continuous-batching serving engine over the numpy LLM substrate.

Serving is where the paper's decode-side analysis becomes load-bearing:
decode is bandwidth-bound (:mod:`repro.hw.roofline`), so throughput
comes from amortizing the weight stream over many concurrent requests
and shrinking the per-request KV stream (the Anda KV format of
:mod:`repro.llm.kv_quant`).

The public front end is three abstractions:

* :class:`~repro.serve.llm.LLM` — the facade: ``generate(prompts,
  sampling_params)`` for batches, ``stream(...)`` for per-token
  delivery, ``submit(...)`` for incremental control;
* :class:`~repro.serve.params.SamplingParams` — the frozen per-request
  decoding recipe (temperature, top-k, top-p, stop tokens, length cap,
  seed), validated at construction and shared with the sequential
  :func:`repro.llm.generation.generate` path so both stay
  token-bitwise identical;
* :class:`~repro.serve.handle.RequestHandle` — one in-flight request:
  incremental token iteration fed by per-step
  :class:`~repro.serve.handle.TokenDelta` emissions, ``status()``,
  blocking ``result()``, and ``abort()`` (cancellation releases paged
  blocks and prefix-cache references through the preemption rollback
  path).

Beneath the facade, :class:`~repro.serve.engine.Engine` is the
internal-but-public layer: ``submit()`` / ``step()`` / ``drain()``
continuous batching over one lane: chunked prefill (mixed steps
bounding TTFT and inter-token latency) and scheduler policies (FCFS,
shortest-prompt-first, decode-first) under a ``max_batch_tokens``
budget (:mod:`repro.serve.scheduler`), the paged KV-cache memory
subsystem sized by ``kv_pool_blocks`` — refcounted block allocator
with copy-on-write, prefix-sharing radix cache, swap-out/swap-in
preemption (:mod:`repro.serve.kvpool`) — per-request exact-length
decode attention, and per-request latency plus aggregate throughput/traffic
metrics (:mod:`repro.serve.metrics`).

Failure semantics (:mod:`repro.serve.faults`) make the engine
fault-tolerant: deterministic seeded fault injection
(:class:`~repro.serve.faults.FaultPlan` /
:class:`~repro.serve.faults.FaultInjector`) drives per-request
quarantine (terminal ``FAILED`` status, residency released through the
shared rollback path), batch-level step rollback that leaves
surviving requests' KV bitwise-untouched, bounded-backoff retry of
transient faults (:class:`~repro.serve.faults.RetryPolicy`),
per-request deadlines (``SamplingParams.deadline_s``), and graceful
degradation under KV-pool pressure
(:class:`~repro.serve.faults.PressurePolicy`: load-shedding and
opt-in KV-format downgrades).

See ``src/repro/serve/README.md`` for a walkthrough and
``benchmarks/ledger/`` for the serving benchmark.
"""

from repro.llm.kv_quant import KVFormat
from repro.serve.engine import Engine, EngineConfig
from repro.serve.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    PermanentFault,
    PressurePolicy,
    RetryPolicy,
    TransientFault,
)
from repro.serve.handle import RequestHandle, StepOutputs, TokenDelta
from repro.serve.kvpool import (
    BlockAllocator,
    KVPool,
    OutOfBlocksError,
    PagedKVCache,
    Preemptor,
    PrefixCache,
    SequenceKV,
)
from repro.serve.llm import LLM
from repro.serve.metrics import EngineMetrics, StepReport, summarize
from repro.serve.params import SamplingParams
from repro.serve.request import (
    CompletedRequest,
    Request,
    RequestMetrics,
    RequestState,
    RequestStatus,
)
from repro.serve.scheduler import (
    POLICIES,
    DecodeFirstPolicy,
    FcfsPolicy,
    KVBlockPlanner,
    PrefillChunk,
    SchedulerPolicy,
    ShortestPromptFirstPolicy,
    StepPlan,
    get_policy,
    plan_step,
    validate_admission,
)
from repro.serve.telemetry import (
    CounterRegistry,
    EngineTelemetry,
    StepTracer,
    TelemetryConfig,
    TraceEvent,
    chrome_trace,
    prometheus_exposition,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "POLICIES",
    "BlockAllocator",
    "CompletedRequest",
    "CounterRegistry",
    "DecodeFirstPolicy",
    "Engine",
    "EngineConfig",
    "EngineMetrics",
    "EngineTelemetry",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FcfsPolicy",
    "InjectedFault",
    "KVBlockPlanner",
    "KVFormat",
    "KVPool",
    "LLM",
    "OutOfBlocksError",
    "PagedKVCache",
    "PermanentFault",
    "Preemptor",
    "PrefillChunk",
    "PrefixCache",
    "PressurePolicy",
    "Request",
    "RequestHandle",
    "RequestMetrics",
    "RequestState",
    "RequestStatus",
    "RetryPolicy",
    "SamplingParams",
    "SchedulerPolicy",
    "SequenceKV",
    "ShortestPromptFirstPolicy",
    "StepOutputs",
    "StepPlan",
    "StepReport",
    "StepTracer",
    "TelemetryConfig",
    "TokenDelta",
    "TraceEvent",
    "TransientFault",
    "chrome_trace",
    "get_policy",
    "plan_step",
    "prometheus_exposition",
    "summarize",
    "validate_admission",
    "validate_chrome_trace",
    "write_chrome_trace",
]
