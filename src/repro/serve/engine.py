"""The continuous-batching inference engine.

One :class:`Engine` owns a model and serves many requests concurrently.
It is the *internal* layer of the serving stack — clients normally talk
to the :class:`repro.serve.llm.LLM` facade — but its surface is fully
usable on its own:

* :meth:`Engine.submit` enqueues a request under a per-request
  :class:`~repro.serve.params.SamplingParams` recipe and returns a
  :class:`~repro.serve.handle.RequestHandle` (admission is the
  scheduler's job, so submissions are cheap and can arrive mid-stream);
* :meth:`Engine.step` runs one scheduler-planned model step — every
  running request decodes its next token, and waiting requests prefill
  *prompt chunks* sized to the budget left after decodes, both inside
  one mixed model invocation
  (:meth:`repro.llm.transformer.CausalLM.forward_mixed_step`) — and
  returns a :class:`~repro.serve.handle.StepOutputs`: the step's
  aggregate report plus one :class:`~repro.serve.handle.TokenDelta` per
  token emitted, so tokens are observable the step they are produced;
* :meth:`Engine.abort` cancels an in-flight request, releasing its
  paged blocks / prefix-cache references through the same rollback path
  preemption uses (a half-done chunked prefill leaks nothing);
* :meth:`Engine.run_until_idle` steps until the queue is empty; results
  are read from the handles, which view each request's
  :class:`~repro.serve.request.RequestState` — the engine keeps no
  finished requests, so a reused engine holds only its live ones.

Every request ends in :meth:`Engine._finish` — finished, aborted,
shed, expired or quarantined — which releases its residency, stamps
its terminal status and counts the end by finish reason.

The engine has one serving lane; two sizes shape it:

* **Chunked prefill** under ``max_batch_tokens`` bounds latency under
  long-prompt traffic: instead of stalling the whole decode batch for
  one monolithic prompt forward, a long prompt prefills across several
  steps — each step reserves one token of budget per running decode
  and gives the remainder to the prompt as a chunk (a budget >= the
  prompt prefills it in one step).  ``RequestState.prefill_pos``
  tracks progress; a half-prefilled request waits in the queue holding
  its partial cache until its final chunk completes and emits its
  first token; only that chunk samples logits (its last row), a
  partial chunk just lands its K/V.  A chunk's rows get the bits of a
  monolithic prefill's: its flat projections run GeMMs of at least
  each weight's ``min_rows`` rows, and its attention runs in
  position-aligned ``ATTN_TILE`` tiles of one shape, so no chunk
  boundary and nothing co-riding moves a prompt row, and every request
  equals sequential ``generate()`` bitwise.  Inside the one model call,
  decode rows and chunks advance through the layers together and read
  each projection weight once, but every GeMM stays one lane's own (see
  ``forward_mixed_step``).
* **The paged KV pool** (:mod:`repro.serve.kvpool`, ``kv_pool_blocks``
  blocks of ``kv_block_size`` positions) holds every request's KV:
  requests sharing a prompt prefix map the same physical blocks
  (skipping the shared prefill compute and KV writes), admission is
  planned against the free-block budget — for a chunk, only the
  chunk's block growth — and under pool pressure the engine preempts
  the latest-arrived request, running *or* half-prefilled, so
  admission never deadlocks.  A running victim is *swapped out*: its
  stored float16 K/V leaves the pool as one image
  (:class:`~repro.serve.kvpool.paged.KVImage`) and is swapped back into
  fresh blocks on re-admission, so no emitted token's KV is ever
  computed twice; a half-prefilled victim restarts its prefill.

Every step runs the same phases, in order:

1. **expire** — requests past their deadline fail before they cost
   another forward;
2. **schedule** — the scheduler plans the step's decodes, swap-ins and
   prompt chunks in arrival order under the token, slot and block
   budgets;
3. **swap-ins** — previously preempted or retried mid-decode requests
   land their stored KV in fresh blocks and join the decode batch;
4. **forward waves** — the chunks split into prefix-ordered waves (a
   step without chunks is one wave of decodes alone).  Each wave
   reserves its block growth, preempting when the pool cannot cover
   it; runs one ``forward_mixed_step`` (the decode batch rides the
   first wave); commits its decode rows; then commits its chunks.  An
   injected fault rolls the wave back and abandons the rest of the
   step;
5. **report** — what the step committed becomes its
   :class:`~repro.serve.metrics.StepReport`.

Phases open their trace spans and lifecycle instants through
:meth:`Engine._span` and :meth:`Engine._lifecycle`, which do nothing
when tracing is off; only the root ``step`` span is opened directly,
because it shares the report's clock readings.

The decode batch's projections run over a ``(batch, 1)`` token array
in fixed-height GeMM tiles — 4 rows while four remain, then 2
(:meth:`repro.llm.layers.Linear.step`) — each right before the same
projection's chunk GeMM when the step carries prompt chunks
(:data:`repro.llm.layers.Lanes`); per layer, every request's K/V row
lands in one batch append and attention runs one ``M == 1`` launch per
request over its own exact-length history, read in place
(:meth:`repro.llm.attention.MultiHeadAttention.step_batch`).
A model failure mid-forward may therefore leave K/V of both row kinds
behind; the engine rolls every decode row back to its pre-step length
and every chunk participant back to waiting.

Every emitted token is bitwise identical to what a sequential
:func:`repro.llm.generation.generate` call would produce — the parity
tests pin this down across KV formats, pool sizes and chunk budgets.
"""

from __future__ import annotations

import bisect
import itertools
import time
from collections import Counter
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.errors import DeadlineExceededError, ModelError, RequestError
from repro.hw.traffic import (
    StepTraffic,
    decode_request_kv_bytes,
    decode_step_traffic,
    prefill_chunk_traffic,
    # No engine path calls prefill_traffic any more; the benchmark
    # ledger's outside-in wrappers (benchmarks/ledger/ledgerlib/spans.py
    # TARGETS) still patch it as bound here, until ROADMAP item 1(a)
    # moves them to in-program spans.
    prefill_traffic,  # noqa: F401
    prefix_cache_savings,
    swap_in_traffic,
)
from repro.llm.attention import (
    AttentionDispatchStats,
    KVHotPathStats,
    stats_scope,
)
from repro.llm.config import ModelConfig
from repro.llm.generation import select_next_token
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import CausalLM
from repro.serve.faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    PressurePolicy,
    RetryPolicy,
    TransientFault,
    inject,
    injection_scope,
    request_scope,
)
from repro.serve.handle import RequestHandle, StepOutputs, TokenDelta
from repro.serve.kvpool.paged import KVImage, SequenceKV
from repro.serve.kvpool.pool import DEFAULT_BLOCK_SIZE, KVPool
from repro.serve.metrics import EngineMetrics, StepReport, summarize
from repro.serve.params import SamplingParams
from repro.serve.request import (
    Request,
    RequestMetrics,
    RequestState,
    RequestStatus,
    request_metrics,
)
from repro.serve.scheduler import (
    PrefillChunk,
    StepPlan,
    plan_step,
    preemption_victim,
    validate_admission,
)
from repro.serve.telemetry import EngineTelemetry, TelemetryConfig
from repro.serve.telemetry.export import log_step_summary

#: What :meth:`Engine._span` hands back when tracing is off.
_NO_SPAN: AbstractContextManager[None] = nullcontext()

#: Process-wide engine numbering for default telemetry labels.
_ENGINE_LABELS = itertools.count()

#: The finish reasons of a FAILED request (quarantine, deadline, shed).
_FAILURE_REASONS = ("error", "deadline", "shed")

#: The serving lanes and scheduling rules the engine no longer has:
#: each setting's one accepted value, and what expresses the old
#: behaviour instead.
_REMOVED_LANES: tuple[tuple[str, object, str], ...] = (
    (
        "kv_pool",
        True,
        "every engine stores KV in the paged pool; size it with "
        "kv_pool_blocks (the default 64 blocks of 64 positions holds "
        "max_batch_size=8 requests of 256 positions)",
    ),
    (
        "chunked_prefill",
        True,
        "set max_batch_tokens >= the prompt length to prefill a prompt "
        "in one step",
    ),
    (
        "grouped_attention",
        True,
        "decode attention already runs one exact-length launch per "
        "request over its own history; there is nothing to turn off",
    ),
    (
        "policy",
        "fcfs",
        "admission is first come, first served (the shortest-prompt-first "
        "and decode-first policies were removed): waiting requests are "
        "admitted in arrival order and preemption evicts the latest arrival",
    ),
)


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Serving knobs of one engine instance.

    Args:
        max_batch_size: concurrent requests resident in KV memory
            (running decodes plus half-prefilled prompts).
        max_batch_tokens: scheduler token budget per step (decodes cost
            1, prefill chunks cost their length).  *The*
            time-to-first-token vs throughput dial: small budgets bound
            every step's work (tight inter-token latency, more chunk
            steps per prompt), large budgets prefill prompts in fewer,
            longer steps; a budget >= a prompt's length prefills it in
            one step.
        policy: always ``"fcfs"`` — waiting requests are admitted in
            arrival order (:func:`~repro.serve.scheduler.plan_step`).
            Any other value raises :class:`~repro.errors.ModelError`.
        chunked_prefill: always ``True`` — waiting prompts are admitted
            for budget-sized chunks that ride along with the decode
            batch.  ``False`` raises :class:`~repro.errors.ModelError`;
            size ``max_batch_tokens`` instead.
        kv_format: the engine-wide KV-cache format
            (:class:`repro.llm.kv_quant.KVFormat`): ``KVFormat.fp16()``
            (paper baseline, the default), ``KVFormat.anda(M)``,
            ``KVFormat.bfp(M)``, ``KVFormat.mx(M)``, or a
            ``KVFormat.per_layer([...])`` stack.  Requests may override
            it individually via ``SamplingParams.kv_format``.
        kv_pool: always ``True`` — KV lives in the paged block pool
            (:mod:`repro.serve.kvpool`).  ``False`` raises; size
            ``kv_pool_blocks`` instead.
        kv_pool_blocks: physical blocks in the pool.
        kv_block_size: token positions per block; defaults to 64, the
            Anda group size (any size stays bitwise exact — grouping is
            per position along the head dimension).
        prefix_caching: share prompt-prefix blocks across requests.
        grouped_attention: always ``True`` — the decode batch's
            GeMMs run batched and its attention runs one exact-length
            launch per (layer, request)
            (:meth:`repro.llm.attention.MultiHeadAttention.step_batch`).
            ``False`` raises.
        telemetry: optional instruments
            (:class:`~repro.serve.telemetry.TelemetryConfig`) — phase
            span tracing for Chrome-trace export and per-step summary
            logging.  The Prometheus exposition of ``metrics()`` exists
            regardless of this config; only the tracer and log lines
            are optional.
        faults: optional seeded
            :class:`~repro.serve.faults.FaultPlan` evaluated at the
            named injection points threaded through the stack
            (chaos testing).  None (the default) makes every probe a
            no-op.
        retry: bounded-backoff
            :class:`~repro.serve.faults.RetryPolicy` applied to
            transient faults — a retried request that has emitted
            tokens swaps its stored KV out and back in, bitwise.
        pressure: :class:`~repro.serve.faults.PressurePolicy` for
            graceful degradation under KV-pool exhaustion (load
            shedding / KV-format downgrade at admission); inert by
            default.
    """

    max_batch_size: int = 8
    max_batch_tokens: int = 256
    policy: Literal["fcfs"] = "fcfs"  # ROADMAP 1(a) deletes it
    chunked_prefill: Literal[True] = True
    kv_pool: Literal[True] = True
    kv_pool_blocks: int = 64
    kv_block_size: int = DEFAULT_BLOCK_SIZE
    prefix_caching: bool = True
    grouped_attention: Literal[True] = True
    telemetry: TelemetryConfig = TelemetryConfig()
    kv_format: KVFormat | None = None
    faults: FaultPlan | None = None
    retry: RetryPolicy = RetryPolicy()
    pressure: PressurePolicy = PressurePolicy()

    def __post_init__(self) -> None:
        # A bad config must fail at construction, never mid-step with
        # requests already accepted.
        for name, kept, instead in _REMOVED_LANES:
            value = getattr(self, name)
            if type(value) is not type(kept) or value != kept:
                raise ModelError(f"{name}={value!r} is no longer supported: {instead}")
        if self.max_batch_size < 1:
            raise ModelError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_batch_tokens < 1:
            raise ModelError(
                f"max_batch_tokens must be >= 1, got {self.max_batch_tokens}"
            )
        if self.kv_pool_blocks < 2:
            # One block of CoW slack is always reserved, so a 1-block
            # pool could not hold even a 1-token request.
            raise ModelError(f"kv_pool_blocks must be >= 2, got {self.kv_pool_blocks}")
        if self.kv_block_size < 1:
            raise ModelError(f"kv_block_size must be >= 1, got {self.kv_block_size}")
        if not isinstance(self.telemetry, TelemetryConfig):
            raise ModelError(
                "telemetry must be a repro.serve.telemetry.TelemetryConfig, "
                f"got {type(self.telemetry).__name__}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ModelError(
                "faults must be a repro.serve.faults.FaultPlan or None, "
                f"got {type(self.faults).__name__}"
            )
        if not isinstance(self.retry, RetryPolicy):
            raise ModelError(
                "retry must be a repro.serve.faults.RetryPolicy, "
                f"got {type(self.retry).__name__}"
            )
        if not isinstance(self.pressure, PressurePolicy):
            raise ModelError(
                "pressure must be a repro.serve.faults.PressurePolicy, "
                f"got {type(self.pressure).__name__}"
            )
        if self.kv_format is None:
            object.__setattr__(self, "kv_format", KVFormat.fp16())
        elif not isinstance(self.kv_format, KVFormat):
            raise ModelError(
                "kv_format must be a repro.llm.kv_quant.KVFormat, got "
                f"{type(self.kv_format).__name__}"
            )


def _held_sequence(state: RequestState) -> SequenceKV:
    """A request's sequence, where the caller knows it holds one."""
    seq = state.kv
    assert seq is not None  # decodes and chunk runs hold their sequence
    return seq


def _common_prefix(first: np.ndarray, second: np.ndarray) -> int:
    """Length of the shared leading run of two token arrays."""
    limit = min(first.shape[0], second.shape[0])
    mismatch = np.nonzero(first[:limit] != second[:limit])[0]
    return int(mismatch[0]) if mismatch.size else limit


@dataclass(slots=True)
class _ChunkRun:
    """One prompt chunk scheduled for execution in this step.

    ``tokens`` is the positions actually executed (the scheduler's
    grant, shrunk by any prefix-cache hit); ``prefix_hit`` the cached
    positions a fresh paged request mapped instead of computing.
    """

    state: RequestState
    tokens: int
    prefix_hit: int = 0


@dataclass(slots=True)
class _StepTally:
    """What one step has committed so far, shared by its phases.

    Every count is taken as its work commits, so a step a fault
    abandons midway reports exactly the decode rows and chunks that
    ran before the fault.
    """

    traffic: StepTraffic = field(default_factory=StepTraffic)
    #: Traffic the prefix cache saved (mapped instead of computed).
    saved: StepTraffic = field(default_factory=StepTraffic)
    new_tokens: int = 0
    decodes: int = 0
    prefills: int = 0
    prefill_tokens: int = 0
    partial_prefills: int = 0
    preemptions: int = 0
    prefix_hit_tokens: int = 0
    #: The weight stream is charged once per *step*: the mixed step is
    #: the fusion quantum of the analytic traffic model, so the decode
    #: lane's charge covers every chunk riding along, and an
    #: all-prefill step pays it exactly once however its waves fall.
    weights_charged: bool = False
    #: Per-format attribution of the step's KV bytes.
    format_bytes: dict[str, float] = field(default_factory=dict)

    def charge_format(self, state: RequestState, nbytes: float) -> None:
        if nbytes <= 0.0:
            return
        label = state.kv_format.label if state.kv_format is not None else "fp16"
        self.format_bytes[label] = self.format_bytes.get(label, 0.0) + nbytes

    def credit_prefix_hit(
        self, config: ModelConfig, state: RequestState, tokens: int
    ) -> None:
        """Count positions mapped from the prefix cache, not computed."""
        self.prefix_hit_tokens += tokens
        self.saved = self.saved + prefix_cache_savings(
            config, tokens, kv_bits_per_element=state.kv_bits
        )


class Engine:
    """Continuous-batching serving engine over one :class:`CausalLM`."""

    def __init__(self, model: CausalLM, config: EngineConfig | None = None) -> None:
        self.model = model
        self.config = config or EngineConfig()
        self._policy: Literal["fcfs"] = "fcfs"  # ROADMAP 1(a) deletes it
        self._n_layers = model.config.n_layers
        # Both formats must fit the model here, not inside submit():
        # a per-layer stack of the wrong depth raises now.
        self._default_signature = self.config.kv_format.signature(self._n_layers)
        degraded = self.config.pressure.degraded_format
        if degraded is not None:
            degraded.signature(self._n_layers)
        # No pool codec: every sequence brings its request's codecs.
        self._pool = KVPool(
            model.config,
            num_blocks=self.config.kv_pool_blocks,
            block_size=self.config.kv_block_size,
            enable_prefix_cache=self.config.prefix_caching,
        )
        # Per-engine hot-path stats: installed around every step via
        # stats_scope, so two engines in one process (or one per
        # thread) never bleed kv_copy_bytes / attention_dispatches into
        # each other through the module globals.  The globals remain
        # the default sink for direct model calls outside any engine.
        self._hot_stats = KVHotPathStats()
        self._attn_stats = AttentionDispatchStats()
        self.telemetry = EngineTelemetry(
            self.config.telemetry, f"engine{next(_ENGINE_LABELS)}", self.metrics
        )
        self._tracer = self.telemetry.tracer
        self._ids = itertools.count()
        self._waiting: list[RequestState] = []
        self._running: list[RequestState] = []
        self._request_records: list[RequestMetrics] = []
        self._reports: list[StepReport] = []
        self._step_deltas: list[TokenDelta] = []
        self._step_index = 0
        #: Ended requests by finish reason; the aborted / failed /
        #: deadline / shed counts of metrics() derive from it.
        self._ends: Counter[str] = Counter()
        # Failure-semantics state: the seeded injector (None without a
        # plan) and the non-terminal counters summarize() folds in.
        self._injector: FaultInjector | None = (
            FaultInjector(self.config.faults)
            if self.config.faults is not None
            else None
        )
        self._fault_retries = 0
        self._degraded = 0
        # Reusable (capacity, 1) decode-token scratch; grown by
        # doubling, filled in place each step instead of building a
        # fresh (batch, 1) array per step.
        self._decode_token_buf: np.ndarray | None = None

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The engine's seeded injector (None without a fault plan)."""
        return self._injector

    # -- tracing ----------------------------------------------------------

    def _span(self, name: str, **args: object) -> AbstractContextManager[None]:
        """A tracer span around a region; a no-op context when untraced."""
        tracer = self._tracer
        if tracer is None:
            return _NO_SPAN
        return tracer.span(name, **args)

    def _lifecycle(self, request_id: int, status: str, **args: object) -> None:
        """Record one request's lifecycle transition (when traced)."""
        if self._tracer is not None:
            self._tracer.lifecycle(request_id, status, **args)

    # -- admission --------------------------------------------------------

    def submit(
        self, prompt_tokens: np.ndarray, params: SamplingParams
    ) -> RequestHandle:
        """Enqueue one request; returns its :class:`RequestHandle`.

        The decoding recipe is a per-request
        :class:`~repro.serve.params.SamplingParams`; anything else
        raises :class:`~repro.errors.RequestError`.

        Validation happens *here*, with ``errors``-module exceptions —
        empty prompts, out-of-vocab ids and pool-overflowing requests
        are rejected before they can fail deep in a scheduler step
        (mirroring what :func:`repro.llm.generation.generate` would
        accept).
        """
        if not isinstance(params, SamplingParams):
            raise RequestError(
                f"params must be a SamplingParams, got {type(params).__name__}"
            )
        prompt = np.asarray(prompt_tokens).reshape(-1)
        validate_admission(prompt, params, self.model.config, pool=self._pool)
        fmt, shed, degraded = self._admission_format(params)
        # A request is "private" when its resolved byte layout differs
        # from the default — it then opts out of prefix sharing entirely.
        kv_private = (
            (params.kv_format is not None or degraded)
            and fmt.signature(self._n_layers) != self._default_signature
        )
        request = Request(request_id=next(self._ids), prompt=prompt, params=params)
        request_id = request.request_id
        arrival = time.perf_counter()
        state = RequestState(
            request=request,
            arrival_step=self._step_index,
            arrival_time=arrival,
            kv_format=fmt,
            kv_bits=fmt.bits_per_element(self._n_layers),
            kv_private=kv_private,
            deadline=(
                None if params.deadline_s is None else arrival + params.deadline_s
            ),
        )
        self._waiting.append(state)
        handle = RequestHandle(self, state)
        self._lifecycle(request_id, "QUEUED", prompt_tokens=int(prompt.shape[0]))
        if degraded:
            self._degraded += 1
            self._lifecycle(request_id, "DEGRADED", format=fmt.label)
        if shed:
            self._finish(state, RequestStatus.FAILED, "shed")
            return handle
        if self._injector is not None:
            # The admission injection site: a transient fault re-queues
            # the request with backoff, a permanent one fails it at the
            # gate.  Either way the handle is returned to the caller.
            try:
                self._injector.begin_step(self._step_index)
                self._injector.probe("admission", request_id)
            except InjectedFault as fault:
                self._handle_request_fault(state, fault)
        return handle

    def _admission_format(self, params: SamplingParams) -> tuple[KVFormat, bool, bool]:
        """Resolve a new request's KV format; returns ``(fmt, shed, degraded)``.

        The format is the request's explicit override, else the engine
        default.  Graceful degradation under KV pressure: pool headroom
        below the shed threshold refuses the admission outright (a
        FAILED handle, not an exception — the caller still observes
        it); below the degrade threshold, a request without an explicit
        override is admitted at the policy's lower-bit format instead
        (prefix-signature privacy keeps it out of shared prefixes when
        the layouts differ).
        """
        fmt = (
            params.kv_format if params.kv_format is not None else self.config.kv_format
        )
        pressure = self.config.pressure
        if not pressure.active:
            return fmt, False, False
        pool = self._pool
        headroom = (pool.free_blocks + pool.reclaimable_blocks) / pool.num_blocks
        if headroom < pressure.shed_below_free_fraction:
            return fmt, True, False
        if (
            params.kv_format is None
            and pressure.degrade_below_free_fraction > 0.0
            and headroom < pressure.degrade_below_free_fraction
        ):
            assert pressure.degraded_format is not None  # validated
            return pressure.degraded_format, False, True
        return fmt, False, False

    # -- cancellation ------------------------------------------------------

    def abort(self, request_id: int) -> bool:
        """Cancel an in-flight request; returns True if it was active.

        The request's KV residency — paged blocks, prefix-cache
        references, a half-done chunked prefill's partial cache, a
        swapped-out request's image — is released through the same
        rollback path a half-prefilled preemption uses, so
        allocator refcounts stay balanced whatever state the request
        was aborted in.  Its partial tokens stay readable on the
        handle; it never produces a
        :class:`~repro.serve.request.CompletedRequest`.
        Aborting a finished or unknown id is a no-op returning False.
        """
        state = next(
            (
                candidate
                for candidate in itertools.chain(self._running, self._waiting)
                if candidate.request.request_id == request_id
            ),
            None,
        )
        if state is None:
            return False
        self._finish(state, RequestStatus.ABORTED, "abort")
        return True

    # -- stepping ---------------------------------------------------------

    def has_work(self) -> bool:
        return bool(self._waiting or self._running)

    def step(self) -> StepOutputs:
        """Run one scheduler-planned mixed step (decodes + prompt chunks).

        The phases are expire → schedule → swap-ins → forward waves →
        report (see the module docstring).  Prompt chunks and the
        decode batch execute in one
        :meth:`~repro.llm.transformer.CausalLM.forward_mixed_step`
        invocation per wave; a chunk that completes its prompt emits
        the request's first token (that is the moment TTFT is
        recorded), an incomplete chunk leaves the request
        half-prefilled in the waiting queue.  Swapped-out (previously
        preempted or retried, mid-decode) requests land their stored
        KV back in the pool and decode with the batch the same step.
        Each wave first reserves its block growth — preempting the
        latest-arrived request, running or half-prefilled, when the
        pool cannot cover it — and fresh prefills go through the prefix
        cache.

        Returns a :class:`~repro.serve.handle.StepOutputs`: the step's
        aggregate :class:`StepReport` plus one
        :class:`~repro.serve.handle.TokenDelta` per token emitted this
        step (the same deltas each emitting request's
        :class:`RequestHandle` builds from its state), so streaming
        consumers observe tokens — and measure TTFT — the step they are
        produced.
        """
        # Route every hot-path counter (and span) this step produces
        # into the engine's own stats; the module globals only ever see
        # direct model calls made outside an engine.
        with stats_scope(self._hot_stats, self._attn_stats, self._tracer):
            if self._injector is None:
                return self._step_scoped()
            self._injector.begin_step(self._step_index)
            with injection_scope(self._injector):
                return self._step_scoped()

    def _step_scoped(self) -> StepOutputs:
        """Run the step's phases under the root ``step`` span.

        The root span reuses the exact ``perf_counter`` readings that
        define ``StepReport.elapsed_seconds``, so its duration and the
        report agree to the clock tick.
        """
        started = time.perf_counter()  # include scheduling in step cost
        tracer = self._tracer
        if tracer is None:
            return self._run_phases(started)[0]
        tracer.begin("step", ts=tracer.to_us(started), step=self._step_index)
        outputs, ended = self._run_phases(started)
        tracer.end("step", ts=tracer.to_us(ended))
        return outputs

    def _run_phases(self, started: float) -> tuple[StepOutputs, float]:
        """expire → schedule → swap-ins → forward waves → report."""
        self._step_deltas = []
        before = self._counters()
        # Deadlines are enforced at step boundaries: sweep before
        # planning so an expired request never costs another forward.
        self._expire_deadlines(started)
        plan = self._schedule()
        tally = _StepTally()
        decodes = plan.decodes + self._swap_in(plan.swap_ins, tally)
        self._forward_waves(decodes, plan.prefills, tally)
        return self._report(started, plan, tally, before)

    def _schedule(self) -> StepPlan:
        """Plan this step's decodes and prompt chunks."""
        with self._span(
            "step.schedule", waiting=len(self._waiting), running=len(self._running)
        ):
            # Requests backing off after a transient fault keep their
            # queue slot but are hidden from the planner until their
            # retry step (they hold no residency, so inflight
            # accounting is unchanged).
            eligible = [
                state
                for state in self._waiting
                if state.retry_at_step <= self._step_index
            ]
            return plan_step(
                eligible,
                self._running,
                self._policy,
                self.config.max_batch_size,
                self.config.max_batch_tokens,
                blocks=self._pool.planner(self._running),
            )

    def _forward_waves(
        self,
        decodes: list[RequestState],
        chunks: list[PrefillChunk],
        tally: _StepTally,
    ) -> None:
        """Run the step's waves until they are done or a fault hits one.

        Each wave reserves its block growth, runs the model once, then
        commits its decode rows and its chunks.  The decode batch rides
        the first wave; a step without chunks is one wave of decodes.
        """
        if not (decodes or chunks):
            return
        for wave in self._plan_waves(chunks):
            decodes, runs = self._reserve_step_blocks(
                decodes, self._begin_chunks(wave), tally
            )
            if (runs or decodes) and not self._forward_wave(decodes, runs, tally):
                return
            decodes = []

    def _forward_wave(
        self, decodes: list[RequestState], runs: list[_ChunkRun], tally: _StepTally
    ) -> bool:
        """Forward one wave and commit it; False when a fault hit it.

        The decode rows' pre-step context lengths are the rollback
        watermarks.  Injected faults have precise rollback semantics:
        every participant's KV returns to its pre-step watermark, an
        attributed victim is quarantined or retried, and the step is
        abandoned (the survivors replay bitwise next step).  The engine
        stays serviceable.
        """
        watermarks = [state.context_length for state in decodes]
        try:
            for state in decodes:
                inject("model.decode", state.request.request_id)
            chunk_logits, decode_logits = self.model.forward_mixed_step(
                [
                    run.state.request.prompt[
                        run.state.prefill_pos : run.state.prefill_pos + run.tokens
                    ]
                    for run in runs
                ],
                [_held_sequence(run.state).caches for run in runs],
                decode_tokens=self._decode_tokens(decodes) if decodes else None,
                decode_caches=[_held_sequence(state).caches for state in decodes],
                # A chunk that completes its prompt samples its last row;
                # a partial chunk only lands K/V.
                sample_rows=[
                    int(
                        run.state.prefill_pos + run.tokens
                        >= run.state.request.prompt_length
                    )
                    for run in runs
                ],
            )
        except InjectedFault as fault:
            self._recover_step_fault(fault, runs, decodes, watermarks)
            return False
        except Exception:
            # Blanket-with-reraise, deliberately: an *unknown* failure
            # class mid-forward may have corrupted shared engine state,
            # so the engine must not absorb it — but it still rolls
            # back what it provably can before propagating.  Decode
            # rows and chunks advance through the layers together, so
            # a failure in any layer may have landed K/V of both:
            # every decode row returns to its watermark and every
            # chunk participant to a clean un-prefilled waiting state
            # (no pool blocks leak).  Earlier waves already committed
            # consistent states (completed or half-prefilled).
            self._rollback_wave(runs, decodes, watermarks)
            raise
        if decode_logits is not None:
            self._commit_decodes(decodes, watermarks, decode_logits, tally)
        self._commit_chunks(runs, chunk_logits, tally)
        return True

    def _commit_decodes(
        self,
        decodes: list[RequestState],
        contexts: list[int],
        logits: np.ndarray,
        tally: _StepTally,
    ) -> None:
        """Charge the decode batch's traffic and emit one token per row."""
        config = self.model.config
        tally.traffic = tally.traffic + decode_step_traffic(
            config,
            contexts,
            kv_bits_per_element=[state.kv_bits for state in decodes],
            batched=True,
        )
        tally.weights_charged = True
        for index, state in enumerate(decodes):
            tally.charge_format(
                state, decode_request_kv_bytes(config, contexts[index], state.kv_bits)
            )
            self._emit(state, logits[index, -1, :])
            tally.decodes += 1
            tally.new_tokens += 1

    def _commit_chunks(
        self, runs: list[_ChunkRun], logits: list[np.ndarray], tally: _StepTally
    ) -> None:
        """Advance each chunk's prefill; a completed prompt starts decoding."""
        config = self.model.config
        for run, chunk_logits in zip(runs, logits):
            state = run.state
            request_id = state.request.request_id
            traffic = prefill_chunk_traffic(
                config,
                run.tokens,
                cached_context_tokens=state.prefill_pos,
                kv_bits_per_element=state.kv_bits,
                include_weights=not tally.weights_charged,
            )
            tally.traffic = tally.traffic + traffic
            tally.charge_format(state, traffic.kv_read_bytes + traffic.kv_write_bytes)
            tally.weights_charged = True
            tally.prefills += 1
            state.prefill_pos += run.tokens
            tally.prefill_tokens += run.tokens
            if run.prefix_hit:
                tally.credit_prefix_hit(config, state, run.prefix_hit)
            if state.prefill_pos >= state.request.prompt_length:
                self._waiting.remove(state)
                state.status = RequestStatus.RUNNING
                self._lifecycle(request_id, "RUNNING")
                self._pool.register_prefix(state.kv, state.request.prompt)
                self._running.append(state)
                self._emit(state, chunk_logits[-1, :], first=True)
                tally.new_tokens += 1
            else:
                if state.status is not RequestStatus.PREFILLING:
                    self._lifecycle(
                        request_id, "PREFILLING", prefill_pos=state.prefill_pos
                    )
                state.status = RequestStatus.PREFILLING
                tally.partial_prefills += 1

    def _swap_in(
        self, states: list[RequestState], tally: _StepTally
    ) -> list[RequestState]:
        """Swap planned requests' stored KV back in; returns the restored.

        Each swapped-out request gets fresh blocks holding its own image
        (:meth:`~repro.serve.kvpool.pool.KVPool.swap_in`), rejoins the
        running set and decodes with this step's batch.  Like the
        mapping, registration skips the prefix cache: the fresh blocks
        hold none of a trie path's ancestors, so a registered one would
        sit below cache-only parents that count as reclaimable yet can
        never be evicted (eviction is leaf-first).  A swap-in is charged as the KV bytes
        it writes, with no weight or compute traffic.  An injected
        fault keeps the image, releases the partial blocks and backs
        off or quarantines just that request.
        """
        restored: list[RequestState] = []
        if not states:
            return restored
        config = self.model.config
        with self._span("step.swap_in", requests=len(states)):
            for state in states:
                request = state.request
                image = state.kv_image
                assert image is not None  # planned only for swapped-out requests
                try:
                    # Swap-ins are per-request, so faults here are always
                    # attributable; the ambient scope additionally
                    # attributes pool and gather probes fired inside.
                    with request_scope(request.request_id):
                        inject("model.prefill", request.request_id)
                        seq = self._sequence_for(state, image)
                except InjectedFault as fault:
                    self._handle_request_fault(state, fault)
                    continue
                seq.owner = request.request_id
                state.kv = seq
                state.kv_image = None
                state.prefill_pos = request.prompt_length
                self._waiting.remove(state)
                state.status = RequestStatus.RUNNING
                self._lifecycle(request.request_id, "RUNNING", resumed=True)
                self._running.append(state)
                traffic = swap_in_traffic(config, image.length, state.kv_bits)
                tally.traffic = tally.traffic + traffic
                tally.charge_format(state, traffic.kv_write_bytes)
                restored.append(state)
        return restored

    def _counters(self) -> tuple[int, int, int, int]:
        """Lifetime counters whose per-step deltas the report carries."""
        return (
            *self._hot_stats.snapshot(),
            *self._attn_stats.snapshot(),
            self._pool.evicted_blocks,
        )

    def _report(
        self,
        started: float,
        plan: StepPlan,
        tally: _StepTally,
        before: tuple[int, int, int, int],
    ) -> tuple[StepOutputs, float]:
        """Freeze the tally into the step's report; returns it and the end time."""
        ended = time.perf_counter()
        copy_bytes, dequant_bytes, dispatches, evicted = (
            now - then for now, then in zip(self._counters(), before)
        )
        report = StepReport(
            step=self._step_index,
            prefills=tally.prefills,
            decodes=tally.decodes,
            new_tokens=tally.new_tokens,
            batch_tokens=tally.decodes + sum(chunk.tokens for chunk in plan.prefills),
            prefill_tokens=tally.prefill_tokens,
            partial_prefills=tally.partial_prefills,
            elapsed_seconds=ended - started,
            traffic=tally.traffic,
            preemptions=tally.preemptions,
            evicted_blocks=evicted,
            prefix_hit_tokens=tally.prefix_hit_tokens,
            prefix_saved_bytes=tally.saved.total_bytes,
            kv_copy_bytes=copy_bytes,
            kv_dequant_bytes=dequant_bytes,
            attention_dispatches=dispatches,
            kv_format_bytes=tuple(sorted(tally.format_bytes.items())),
        )
        self._reports.append(report)
        self._step_index += 1
        telemetry_config = self.config.telemetry
        if telemetry_config.log_steps and (
            report.step % telemetry_config.log_every == 0
        ):
            log_step_summary(self.telemetry.engine_label, report)
        return StepOutputs(report=report, deltas=tuple(self._step_deltas)), ended

    def _decode_tokens(self, states: list[RequestState]) -> np.ndarray:
        """Gather the decode batch's next-token ids into reused scratch.

        The model's embedding lookup copies out of the array, so the
        engine-held buffer can be refilled in place next step.
        """
        batch = len(states)
        buf = self._decode_token_buf
        if buf is None or buf.shape[0] < batch:
            capacity = max(batch, self.config.max_batch_size)
            buf = np.empty((capacity, 1), dtype=np.int64)
            self._decode_token_buf = buf
        for index, state in enumerate(states):
            buf[index, 0] = state.last_token
        return buf[:batch]

    # -- per-request KV formats -------------------------------------------

    def _sequence_for(
        self, state: RequestState, image: KVImage | None = None
    ) -> SequenceKV:
        """Paged sequence for one request, honoring its KV format.

        Every sequence gets its codecs once, from its request's format.
        A private request opts out of prefix sharing — cached blocks
        hold default-format bytes it can neither read nor contribute
        to.  The request's final length is known here, so each layer's
        decode-ready residency is sized once and never regrows.  With
        an ``image``, the sequence is the swapped-out request's own
        bytes in fresh blocks instead of a prefix-cache-seeded one.
        """
        request = state.request
        assert state.kv_format is not None  # resolved at submit
        codecs = state.kv_format.codecs(self._n_layers)
        shareable = not state.kv_private
        reserved = request.prompt_length + request.params.max_new_tokens
        if image is not None:
            return self._pool.swap_in(
                image, codecs=codecs, shareable=shareable, reserved=reserved
            )
        return self._pool.create_sequence(
            request.prompt, codecs=codecs, shareable=shareable, reserved=reserved
        )

    # -- chunked prefill --------------------------------------------------

    def _plan_waves(self, chunks: list[PrefillChunk]) -> list[list[PrefillChunk]]:
        """Partition one step's chunks into prefix-ordered waves.

        The chunk lane fuses every chunk into one flat pass, but a
        fresh request can only map a prefix-cache hit *after* the
        donor's blocks are registered — which happens when the donor's
        prompt completes.  So a chunk whose prompt shares at least one
        whole block with an earlier same-step chunk that completes is
        deferred to a later wave: the earlier prompt registers first,
        and the deferred request maps its blocks instead of recomputing
        them (exactly what the sequential admission order used to
        give).  Requests with distinct prompts all land in wave one, and
        no chunks at all is one empty wave (the decode batch alone).
        """
        if self._pool.prefix_cache is None or len(chunks) <= 1:
            return [chunks]
        block = self._pool.block_size
        waves: list[list[PrefillChunk]] = []
        committed: list[PrefillChunk] = []
        remaining = list(chunks)
        while remaining:
            wave: list[PrefillChunk] = []
            deferred: list[PrefillChunk] = []
            for chunk in remaining:
                if chunk.state.kv is not None:
                    # A continuation already holds its cache; its hit
                    # opportunity has passed.
                    wave.append(chunk)
                    continue
                prompt = chunk.request.prompt

                def blocks_from(
                    donors: list[PrefillChunk], prompt: np.ndarray = prompt
                ) -> int:
                    # `prompt` bound as a default: the closure is only
                    # called within this iteration, but binding keeps
                    # the capture explicit (and loop-safe).
                    return max(
                        (
                            _common_prefix(prompt, donor.request.prompt) // block
                            for donor in donors
                            if donor.completes
                        ),
                        default=0,
                    )

                # Defer only when waiting strictly improves on what the
                # pool (or an earlier wave) already offers this prompt.
                have = max(
                    self._pool.peek_shared(prompt) // block,
                    blocks_from(committed),
                )
                if blocks_from(wave) > have:
                    deferred.append(chunk)
                else:
                    wave.append(chunk)
            waves.append(wave)
            committed.extend(wave)
            remaining = deferred
        return waves

    def _begin_chunks(self, chunks: list[PrefillChunk]) -> list[_ChunkRun]:
        """Materialize caches for this step's chunks (fallible setup).

        A fresh request gets its cache here — through the prefix cache,
        which may shrink the executed chunk (cached
        positions are mapped, not computed).  Setup runs per chunk
        inside that request's fault-attribution scope: an injected
        fault drops only the faulted chunk (quarantine or backoff) and
        the rest of the wave proceeds.  If setup raises anything
        *else*, every chunk already set up is rolled back and the error
        propagates (blanket-with-reraise: an unknown failure class must
        not be absorbed) so no request loses pool blocks or its queue
        slot.
        """
        runs: list[_ChunkRun] = []
        for chunk in chunks:
            state = chunk.state
            request_id = state.request.request_id
            try:
                with request_scope(request_id):
                    hit = 0
                    if state.kv is None:
                        seq = self._sequence_for(state)
                        seq.owner = request_id
                        state.kv = seq
                        state.prefill_pos = seq.shared_tokens
                        hit = seq.shared_tokens
                    inject("model.chunk", request_id)
            except InjectedFault as fault:
                self._release_residency(state)
                self._handle_request_fault(state, fault)
                continue
            except Exception:
                for run in runs:
                    self._rollback_chunk(run.state)
                self._release_residency(state)
                raise
            tokens = min(
                chunk.tokens,
                state.request.prompt_length - state.prefill_pos,
            )
            runs.append(_ChunkRun(state=state, tokens=tokens, prefix_hit=hit))
        return runs

    def _release_residency(self, state: RequestState) -> None:
        """Give a request's KV memory back (shared rollback primitive).

        The one place residency is torn down — chunk-failure rollback,
        preemption of half-prefilled requests, client aborts and every
        terminal path release through here, so every path returns paged
        blocks (and the references taken on shared prefix blocks) to
        the pool identically.  A swapped-out request's image goes too:
        a handle outlives its request, and must not pin the bytes.
        """
        if state.kv is not None:
            state.kv.release()
            state.kv = None
        state.kv_image = None
        state.prefill_pos = 0

    def _rollback_chunk(self, state: RequestState) -> None:
        """Undo a chunk participant: release its cache, stay queued."""
        self._release_residency(state)
        state.status = RequestStatus.WAITING

    def _detach(self, state: RequestState) -> None:
        """Take a request out of the running set or the waiting queue."""
        if state in self._running:
            self._running.remove(state)
        elif state in self._waiting:
            self._waiting.remove(state)

    def _requeue(self, state: RequestState) -> None:
        """Give a request's blocks back and re-queue it in arrival order.

        Shared by preemption and retry backoff.  A request that has
        emitted tokens keeps its stored KV as ``state.kv_image`` to swap
        back in; one that has not restarts its prefill.  The queue stays
        sorted by request id, so FCFS resumes the oldest request first.
        """
        self._detach(state)
        seq = state.kv
        if seq is not None:
            # swap_out releases the sequence; the second release is a no-op.
            image = seq.swap_out() if state.generated else None
            self._release_residency(state)
            state.kv_image = image
        state.status = RequestStatus.WAITING
        index = bisect.bisect_left(
            [waiting.request.request_id for waiting in self._waiting],
            state.request.request_id,
        )
        self._waiting.insert(index, state)

    # -- failure semantics ------------------------------------------------

    def _finish(
        self,
        state: RequestState,
        status: RequestStatus,
        reason: str,
        failure: BaseException | None = None,
        when: float | None = None,
    ) -> None:
        """End a request: the one way into a terminal status.

        The request leaves the running set or the waiting queue and
        gives back its residency — its own blocks return to the pool,
        while blocks shared through the prefix cache stay resident for
        future hits.  Its state keeps the tokens, and the engine keeps
        nothing of it but the count of its finish reason and, for a
        FINISHED request, its latency record.  ``when`` is the finish
        time (the last token's stamp for a FINISHED request); None
        reads the clock.
        """
        self._detach(state)
        self._release_residency(state)
        state.status = status
        state.finish_reason = reason
        if status is RequestStatus.FAILED:
            state.failure = failure
        state.finish_step = self._step_index
        state.finish_time = time.perf_counter() if when is None else when
        self._ends[reason] += 1
        if status is RequestStatus.FINISHED:
            self._request_records.append(request_metrics(state))
        self._lifecycle(
            state.request.request_id,
            status.name,
            reason=reason,
            tokens=len(state.generated),
        )

    def _failures(self) -> int:
        """Requests the engine failed: quarantined, expired or shed."""
        return sum(self._ends[reason] for reason in _FAILURE_REASONS)

    def _expire_deadlines(self, now: float) -> None:
        """Fail every queued/running request past its deadline."""
        expired = [
            state
            for state in itertools.chain(self._waiting, self._running)
            if state.deadline is not None and now >= state.deadline
        ]
        for state in expired:
            self._finish(
                state,
                RequestStatus.FAILED,
                "deadline",
                failure=DeadlineExceededError(
                    f"request {state.request.request_id} exceeded "
                    f"deadline_s={state.request.params.deadline_s} after "
                    f"{len(state.generated)} tokens"
                ),
            )

    def _handle_request_fault(
        self, state: RequestState, fault: InjectedFault
    ) -> None:
        """Route an attributed fault: bounded retry, else quarantine.

        Quarantine fails just the victim; its batchmates' KV state is
        untouched (the caller already rolled any shared step work back
        to the pre-step watermarks).
        """
        if (
            isinstance(fault, TransientFault)
            and state.retries < self.config.retry.max_retries
        ):
            self._backoff(state, fault)
        else:
            self._finish(state, RequestStatus.FAILED, "error", failure=fault)

    def _backoff(self, state: RequestState, fault: InjectedFault) -> None:
        """Re-queue a transiently faulted request with bounded backoff.

        The request gives its blocks back and re-enters the waiting
        queue in arrival order (exactly the preemption path), hidden
        from the planner until ``retry_at_step``.  One that has emitted
        tokens keeps its stored KV as an image and swaps it back in on
        re-admission; one that has not restarts its prefill.  Either
        way a retried request's tokens are identical to an unfaulted
        run's.
        """
        self._requeue(state)
        state.failure = fault
        state.retries += 1
        state.retry_at_step = (
            self._step_index + 1 + self.config.retry.delay_steps(state.retries)
        )
        self._fault_retries += 1
        self._lifecycle(
            state.request.request_id,
            "RETRY",
            site=fault.site,
            retries=state.retries,
            at_step=state.retry_at_step,
        )

    def _recover_step_fault(
        self,
        fault: InjectedFault,
        runs: list[_ChunkRun],
        decodes: list[RequestState],
        watermarks: list[int],
    ) -> None:
        """Batch-level rollback after a mid-forward injected fault.

        Every decode participant's KV is truncated back to its
        pre-step watermark (captured before the forward) and every
        chunk participant returns to a clean waiting state.  An
        attributed victim is then quarantined or backed off — a decode
        victim backs off with its rolled-back KV intact, as an image;
        an unattributed fault counts as one batch retry — the whole
        step simply replays next tick, bitwise.
        """
        victim: RequestState | None = None
        if fault.request_id is not None:
            for state in itertools.chain(
                (run.state for run in runs), decodes
            ):
                if state.request.request_id == fault.request_id:
                    victim = state
                    break
        self._rollback_wave(runs, decodes, watermarks, keep=victim)
        if victim is None:
            self._fault_retries += 1
            return
        self._handle_request_fault(victim, fault)

    def _rollback_wave(
        self,
        runs: list[_ChunkRun],
        decodes: list[RequestState],
        watermarks: list[int],
        keep: RequestState | None = None,
    ) -> None:
        """Undo a wave's forward: decode KV to its watermarks, chunks to waiting.

        ``keep`` names a chunk participant the caller handles itself
        (an injected fault's victim).
        """
        for state, length in zip(decodes, watermarks):
            assert state.kv is not None  # every decode holds its sequence
            state.kv.rollback(length)
        for run in runs:
            if run.state is not keep:
                self._rollback_chunk(run.state)

    # -- paged KV pool paths ----------------------------------------------

    def _reserve_step_blocks(
        self,
        decodes: list[RequestState],
        runs: list[_ChunkRun],
        tally: _StepTally,
    ) -> tuple[list[RequestState], list[_ChunkRun]]:
        """Shrink a wave until its block growth fits the pool.

        Every surviving decode appends one position and every chunk its
        token count; when the pool (free plus reclaimable prefix-cache
        blocks) cannot cover the worst-case growth, the latest-arrived
        request — running, chunked this step, or half-prefilled but
        unscheduled — is preempted: its blocks return to the pool, a
        running victim's bytes as an image it swaps back in, a
        half-prefilled victim's to be prefilled again.
        """
        with self._span("step.preempt", decodes=len(decodes), chunks=len(runs)):
            while decodes or runs:
                demand = sum(
                    _held_sequence(state).blocks_for_append(1) for state in decodes
                )
                demand += sum(
                    _held_sequence(run.state).blocks_for_append(run.tokens)
                    for run in runs
                )
                if demand <= self._pool.free_blocks + self._pool.reclaimable_blocks:
                    break
                holders = [state for state in self._waiting if state.kv is not None]
                victim = preemption_victim(decodes + holders)
                decodes = [state for state in decodes if state is not victim]
                runs = [run for run in runs if run.state is not victim]
                self._preempt(victim)
                tally.preemptions += 1
        return decodes, runs

    def _preempt(self, state: RequestState) -> None:
        """Take a request's blocks back and return it to the waiting queue.

        A running victim's stored KV leaves as an image it swaps back
        in; a half-prefilled one has emitted nothing, so it releases its
        partial cache and restarts its prefill when re-admitted (with
        prefix caching on, blocks its earlier chunks registered may be
        re-mapped instead of recomputed).  Either way it re-enters the
        queue at its arrival position.
        """
        self._requeue(state)
        state.preemptions += 1
        self._lifecycle(state.request.request_id, "PREEMPTED")

    def _emit(
        self, state: RequestState, logits: np.ndarray, first: bool = False
    ) -> None:
        """Select one token for a request and update its lifecycle.

        The token lands in the request's state, which its handle reads,
        and one :class:`TokenDelta` joins the step's outputs, so the
        token is observable the step it is produced.  A token in the
        request's ``stop_token_ids`` ends the request early
        (``finish_reason="stop"``); the length cap ends it with
        ``finish_reason="length"``.
        """
        request = state.request
        params = request.params
        with self._span("step.sample", request=request.request_id):
            token = select_next_token(
                logits,
                params.temperature,
                params.top_k,
                state.rng,
                top_p=params.top_p,
            )
        now = time.perf_counter()
        state.generated.append(token)
        state.token_times.append(now)
        if first:
            state.first_token_step = self._step_index
            state.first_token_time = now
        if params.is_stop(token):
            state.stopped = True
        reason = ("stop" if state.stopped else "length") if state.done else None
        self._step_deltas.append(
            TokenDelta(
                request_id=request.request_id,
                index=len(state.generated) - 1,
                token=token,
                finished=reason is not None,
                finish_reason=reason,
                time=now,
            )
        )
        if reason is not None:
            # Finish now, not at end of step: if a later prefill in the
            # same step raises, the request must not linger in _running
            # with its caches already released.
            self._finish(state, RequestStatus.FINISHED, reason, when=now)

    # -- collection -------------------------------------------------------

    def _stuck_summary(self) -> str:
        """Ids of every stuck request, with status/failure detail.

        The comma-separated id list stays contiguous (tooling greps
        ``stuck request ids: 0, 1``); per-request detail — status,
        retry count, and the last recorded failure — follows in
        brackets so a step-budget timeout explains *why* each request is
        stuck, not just that it is.
        """
        states = sorted(
            self._waiting + self._running,
            key=lambda state: state.request.request_id,
        )
        ids = ", ".join(str(state.request.request_id) for state in states)
        details = []
        for state in states:
            parts = [state.status.value]
            if state.retries:
                parts.append(f"{state.retries} retries")
            if state.failure is not None:
                parts.append(
                    f"last failure: {type(state.failure).__name__}: "
                    f"{state.failure}"
                )
            details.append(f"{state.request.request_id}: {', '.join(parts)}")
        return f"{ids} [{'; '.join(details)}]"

    def run_until(
        self,
        condition: Callable[[], bool],
        max_steps: int | None = None,
        what: str = "run_until",
    ) -> None:
        """Step the engine until ``condition()`` holds.

        The shared stepping loop under every blocking consumer —
        :meth:`run_until_idle`, :meth:`RequestHandle.result`, handle
        token iteration, and :meth:`LLM.generate` — with the engine's
        progress guards applied once, here:

        * ``max_steps`` bounds the wait (raising
          :class:`~repro.errors.ModelError` naming the stuck request
          ids) — the guard for preemption thrash in an undersized pool;
          ``what`` names the waiting operation in that error, so a
          timeout points at the call the client actually made;
        * a step that makes no progress at all (no prefill, no decode,
          no preemption) while requests are queued is a scheduler
          invariant violation and raises immediately;
        * an engine that goes idle before the condition holds raises
          (the condition can never become true by stepping further).
        """
        if max_steps is not None and max_steps < 1:
            raise ModelError(f"max_steps must be >= 1, got {max_steps}")
        steps = 0
        while not condition():
            if not self.has_work():
                raise ModelError(
                    "engine drained idle before the awaited condition held "
                    "(e.g. waiting on a request that can no longer emit)"
                )
            if max_steps is not None and steps >= max_steps:
                raise ModelError(
                    f"{what} did not finish within max_steps={max_steps}: "
                    f"{len(self._waiting)} waiting / {len(self._running)} "
                    f"running requests remain (stuck request ids: "
                    f"{self._stuck_summary()})"
                )
            # A step that only fails/retries requests, or that idles
            # because every waiting request is inside its retry backoff
            # window, still counts as progress.
            failures_before = self._failures() + self._fault_retries
            backoff_pending = any(
                state.retry_at_step > self._step_index
                for state in self._waiting
            )
            report = self.step().report
            steps += 1
            no_progress = (
                report.prefills == 0
                and report.decodes == 0
                and report.preemptions == 0
                and self._failures() + self._fault_retries == failures_before
                and not backoff_pending
            )
            if no_progress and self.has_work():
                raise ModelError(
                    "scheduler made no progress with requests queued "
                    f"({len(self._waiting)} waiting / {len(self._running)} "
                    f"running; stuck request ids: {self._stuck_summary()}); "
                    "this is a scheduling bug, not a capacity limit"
                )

    def run_until_idle(self, max_steps: int | None = None) -> None:
        """Step until no request is waiting or running.

        Results are then read from the requests' handles.  Past
        ``max_steps`` it raises :class:`~repro.errors.ModelError`
        naming the stuck request ids (a scheduler bug starving a
        request, or preemption thrash in an undersized KV pool).
        """
        self.run_until(
            lambda: not self.has_work(), max_steps=max_steps, what="run_until_idle"
        )

    def metrics(self) -> EngineMetrics:
        """Aggregate throughput/latency/traffic over the engine's life.

        One latency record is kept per finished request, whether or not
        anyone reads its result, so streaming consumers keep full
        latency statistics.
        """
        return summarize(
            self._reports,
            self._request_records,
            aborted=self._ends["abort"],
            failed=self._failures(),
            fault_retries=self._fault_retries,
            deadline_expired=self._ends["deadline"],
            shed=self._ends["shed"],
            degraded=self._degraded,
        )
