"""Request lifecycle model for the continuous-batching engine.

A :class:`Request` is the immutable description a client submits — a
prompt plus its per-request :class:`~repro.serve.params.SamplingParams`
recipe; a :class:`RequestState` is the engine's mutable per-request
record (KV caches, generated tokens, timing marks); a
:class:`CompletedRequest` is the frozen result handed back, carrying
both the tokens and the request's latency metrics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ModelError, RequestError
from repro.serve.params import SamplingParams

if TYPE_CHECKING:
    from repro.llm.kv_quant import KVFormat
    from repro.serve.kvpool.paged import KVImage, SequenceKV


class RequestStatus(enum.Enum):
    """Where a request sits in the engine's lifecycle.

    A preempted request goes back to WAITING with its generated tokens
    and RNG state intact and its stored KV swapped out of the pool
    (``RequestState.kv_image``); re-admission swaps the bytes back in
    and decoding continues the same step.  A half-prefilled request
    preempted mid-chunk also returns to WAITING, with its partial cache
    released (``prefill_pos`` reset to zero).

    FINISHED, ABORTED and FAILED are the terminal states: finished
    requests freeze into a :class:`CompletedRequest`; aborted requests
    release their KV residency immediately (the same rollback
    preemption uses) and never produce a result; failed requests are
    quarantined by the engine — permanent fault, retries exhausted,
    deadline expired, or shed at admission — with residency released
    and the original fault stored in ``RequestState.failure``.
    """

    WAITING = "waiting"  # admitted to the queue, no compute yet
    PREFILLING = "prefilling"  # chunked prefill in flight, cache partial
    RUNNING = "running"  # prefilled; decoding one token per step
    FINISHED = "finished"
    ABORTED = "aborted"  # cancelled by the client; residency released
    FAILED = "failed"  # quarantined by the engine; residency released

    @property
    def terminal(self) -> bool:
        return self in (
            RequestStatus.FINISHED,
            RequestStatus.ABORTED,
            RequestStatus.FAILED,
        )


@dataclass(frozen=True, eq=False)
class Request:
    """One client request: a prompt and its decoding recipe.

    Identity semantics (``eq=False``): the ndarray prompt makes field
    equality ill-defined, and ids are only unique per engine.

    Args:
        request_id: engine-assigned, unique within an engine instance.
        prompt: 1-D prompt token ids.
        params: the per-request :class:`SamplingParams`.
    """

    request_id: int
    prompt: np.ndarray
    params: SamplingParams

    def __post_init__(self) -> None:
        # Copy: prefill may run many steps after submit, and the caller
        # is free to reuse its buffer in the meantime.
        prompt = np.array(self.prompt).reshape(-1)
        object.__setattr__(self, "prompt", prompt)
        if prompt.shape[0] < 1:
            raise RequestError("prompt must contain at least one token")
        if not isinstance(self.params, SamplingParams):
            raise RequestError(
                f"params must be a SamplingParams, got {type(self.params).__name__}"
            )

    @property
    def prompt_length(self) -> int:
        return int(self.prompt.shape[0])


@dataclass
class RequestState:
    """Mutable engine-side record of one in-flight request.

    Timing marks are recorded in both scheduler steps (deterministic,
    comparable across runs) and wall-clock seconds (what a client
    experiences).
    """

    request: Request
    status: RequestStatus = RequestStatus.WAITING
    #: The request's paged-pool sequence (``kv.caches`` are its per-layer
    #: views); None while the request holds no KV residency.
    kv: SequenceKV | None = None
    #: A preempted mid-decode request's stored KV, swapped out of the
    #: pool until re-admission swaps it back in; None otherwise.  Every
    #: terminal path drops it.
    kv_image: KVImage | None = None
    #: Prompt positions already prefilled (chunked prefill progress).
    #: Strictly between 0 and the prompt length, the request holds a
    #: partial KV cache and is mid-way through a chunked prefill.
    prefill_pos: int = 0
    generated: list[int] = field(default_factory=list)
    # Declared non-optional: __post_init__ seeds a default generator,
    # so decode code never has to narrow it.
    rng: np.random.Generator = None  # type: ignore[assignment]
    preemptions: int = 0
    #: Resolved KV format for this request (the per-request override or
    #: the engine-wide default), set at submit time; None before then.
    kv_format: KVFormat | None = None
    #: Mean stored bits per cached K/V element under ``kv_format`` —
    #: what the per-request traffic model charges.
    kv_bits: float = 16.0
    #: True when ``kv_format`` differs from the engine-wide
    #: default: the request's blocks hold bytes other sequences cannot
    #: share, so it opts out of prefix-cache matching/registration.
    kv_private: bool = False
    #: True once a ``stop_token_ids`` member was emitted; ends the
    #: request before ``max_new_tokens``.
    stopped: bool = False
    #: Why the request ended (``"length"`` / ``"stop"`` / ``"abort"`` /
    #: ``"error"`` / ``"deadline"`` / ``"shed"``); None while in flight.
    finish_reason: str | None = None
    #: Transient-fault retries consumed so far (bounded by
    #: ``RetryPolicy.max_retries``; a retried request that has emitted
    #: tokens keeps its KV as an image and swaps it back in, bitwise).
    retries: int = 0
    #: First engine step at which a backed-off request may be scheduled
    #: again; 0 means schedulable now.
    retry_at_step: int = 0
    #: The exception that failed (or last faulted) this request; set on
    #: quarantine and on each transient retry, surfaced by
    #: ``RequestHandle.result()`` via RequestFailedError.
    failure: BaseException | None = None
    #: Absolute ``perf_counter`` deadline resolved from
    #: ``SamplingParams.deadline_s`` at submit; None = no deadline.
    deadline: float | None = None

    arrival_step: int = 0
    first_token_step: int | None = None
    finish_step: int | None = None
    arrival_time: float = 0.0
    first_token_time: float | None = None
    finish_time: float | None = None
    #: Wall-clock mark of every emitted token, in emission order; the
    #: gaps between consecutive marks are the request's inter-token
    #: latencies (what the ITL percentiles aggregate).
    token_times: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = np.random.default_rng(self.request.params.seed)

    @property
    def last_token(self) -> int:
        """The token the next decode step feeds to the model."""
        if not self.generated:
            raise ModelError(
                f"request {self.request.request_id} has not been prefilled"
            )
        return self.generated[-1]

    @property
    def context_length(self) -> int:
        """Cached positions so far (prompt plus generated history)."""
        if self.kv is None:
            return 0
        return self.kv.length

    @property
    def prefill_tokens(self) -> int:
        """Prompt positions left to prefill (a fresh chunk's schedule cost).

        A fresh request prefills its prompt; a half-prefilled request
        only the part beyond ``prefill_pos``.  A swapped-out request
        computes nothing: it is planned as a swap-in instead.
        """
        return self.request.prompt_length - self.prefill_pos

    @property
    def done(self) -> bool:
        """Decoding is over: length cap reached or a stop token emitted."""
        return self.stopped or (
            len(self.generated) >= self.request.params.max_new_tokens
        )

    def tokens(self) -> np.ndarray:
        """Prompt plus continuation, matching ``GenerationResult.tokens``."""
        return np.concatenate(
            [self.request.prompt, np.asarray(self.generated, dtype=np.int64)]
        )


@dataclass(frozen=True)
class RequestMetrics:
    """Latency marks of one finished request.

    Attributes:
        request_id: the request this describes.
        prompt_length / generated_tokens: token counts.
        ttft_steps / ttft_seconds: submit-to-first-token latency.
        latency_steps / latency_seconds: submit-to-finish latency.
        itl_seconds: gap between each consecutive pair of emitted
            tokens (``generated_tokens - 1`` entries) — the raw
            inter-token latencies the p50/p95 summaries aggregate.
        finish_reason: ``"length"`` or ``"stop"`` (aborted requests
            never produce metrics records).
    """

    request_id: int
    prompt_length: int
    generated_tokens: int
    ttft_steps: int
    latency_steps: int
    ttft_seconds: float
    latency_seconds: float
    itl_seconds: tuple[float, ...] = ()
    finish_reason: str = "length"


@dataclass(frozen=True, eq=False)
class CompletedRequest:
    """Final tokens and metrics of one served request.

    Identity semantics (``eq=False``): holds an ndarray; compare
    ``tokens`` with ``np.array_equal`` instead.
    """

    request_id: int
    tokens: np.ndarray
    prompt_length: int
    metrics: RequestMetrics
    finish_reason: str = "length"

    def continuation(self) -> np.ndarray:
        return self.tokens[self.prompt_length :]


def complete(state: RequestState) -> CompletedRequest:
    """Freeze a finished :class:`RequestState` into its result."""
    if state.status is not RequestStatus.FINISHED:
        raise ModelError(
            f"request {state.request.request_id} is {state.status.value}, "
            "not finished"
        )
    assert state.first_token_step is not None
    assert state.finish_step is not None
    assert state.first_token_time is not None
    assert state.finish_time is not None
    reason = state.finish_reason or "length"
    metrics = RequestMetrics(
        request_id=state.request.request_id,
        prompt_length=state.request.prompt_length,
        generated_tokens=len(state.generated),
        ttft_steps=state.first_token_step - state.arrival_step,
        latency_steps=state.finish_step - state.arrival_step,
        ttft_seconds=state.first_token_time - state.arrival_time,
        latency_seconds=state.finish_time - state.arrival_time,
        itl_seconds=tuple(
            later - earlier
            for earlier, later in zip(state.token_times, state.token_times[1:])
        ),
        finish_reason=reason,
    )
    return CompletedRequest(
        request_id=state.request.request_id,
        tokens=state.tokens(),
        prompt_length=state.request.prompt_length,
        metrics=metrics,
        finish_reason=reason,
    )
