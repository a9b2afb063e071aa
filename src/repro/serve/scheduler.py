"""Step-level scheduling: which requests prefill or decode this step.

Every engine step is planned under a *token budget*: running requests
each consume one decode token, and waiting requests consume prompt
positions when admitted for prefill.  The budget (``max_batch_tokens``)
bounds the work of one model step — the knob that trades
time-to-first-token against decode throughput — while
``max_batch_size`` bounds concurrent KV-cache residency.

Prefill is **chunked**: a waiting request does not have to fit its
whole prompt into one step.  The budget walk reserves one token per
running decode first, then hands whatever budget is left to prefill
work as a *chunk* — so a long prompt prefills across several steps
while every running request keeps decoding (Sarathi/vLLM-style mixed
steps), and a budget at least as long as a prompt prefills it whole.
A half-prefilled request (``RequestState.prefill_pos`` > 0) stays in
the waiting queue holding its partial cache; it keeps its residency
slot, and admitting its next chunk never consumes a new one.  A
*swapped-out* request (preempted mid-decode, its stored KV held as
``RequestState.kv_image``) computes nothing on re-admission: it is
planned as a swap-in that costs one decode token, and rejoins the
decode batch the step that admits it.

Admission order is arrival order, the one scheduling rule: waiting
requests are admitted first come, first served, and under pool
pressure the latest arrival is preempted first
(:func:`preemption_victim`), so the oldest requests, holding the most
already-paid-for KV, are the last to lose their residency and always
drain.  The engine keeps its waiting queue sorted by request id, and a
preempted or retried request re-enters it at its arrival position.
One guarantee is unconditional: if nothing is running and nothing
fits, the head of the queue is admitted anyway (a chunk the free-block
budget cannot cover must not deadlock the engine).

Admission is also planned against the *free-block budget* of a
:class:`KVBlockPlanner` (the engine passes its pool's):
a waiting request is only admitted when its block footprint — a
chunk's growth after prefix-cache sharing, a swap-in's whole context —
fits in what is free or reclaimable once the running requests' decode
growth is reserved.  Token budget bounds the *work* of a step; block
budget bounds the *memory* it commits.

Admission-time request costing also lives here
(:func:`validate_admission`): each request is costed against its own
``SamplingParams.max_new_tokens`` — worst-case sequence length and
worst-case pool footprint are per-request quantities now that the
decoding recipe is no longer an engine-wide setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Protocol

import numpy as np

from repro.errors import ModelError, RequestError
from repro.serve.params import SamplingParams
from repro.serve.request import Request, RequestState

if TYPE_CHECKING:
    from repro.llm.config import ModelConfig
    from repro.serve.kvpool.pool import KVPool


def validate_admission(
    prompt: np.ndarray,
    params: SamplingParams,
    model_config: ModelConfig,
    pool: KVPool | None = None,
) -> None:
    """Per-request worst-case token costing at the admission boundary.

    A request's schedulable footprint is ``prompt_length +
    params.max_new_tokens`` — its own cap, not an engine-wide one
    (stop tokens may end it earlier; admission must still plan for the
    worst case).  Rejects, with :class:`~repro.errors.RequestError`
    *before* the request enters the queue:

    * a prompt that is not a 1-D array of an integer dtype (a float
      prompt passes every range check, then blows up steps later as a
      fancy-index failure inside the embedding — wedging the engine,
      since the failed request would stay queued and re-raise on every
      subsequent step);
    * an empty prompt;
    * a total exceeding the model's ``max_seq_len``;
    * prompt token ids outside ``[0, vocab_size)`` (a deferred prefill
      failure would lose the request);
    * a per-request ``params.kv_format`` whose per-layer stack does not
      cover the model's layer count (bits-per-element costing and cache
      construction both need one format per layer);
    * when a ``pool`` is given (duck-typed to
      :class:`~repro.serve.kvpool.pool.KVPool`), a block footprint the
      pool could never guarantee even with every other request evicted.
    """
    if prompt.ndim != 1:
        raise RequestError(
            f"prompt must be a 1-D token array, got shape {prompt.shape}"
        )
    if int(prompt.shape[0]) < 1:
        raise RequestError("prompt must contain at least one token")
    if not np.issubdtype(prompt.dtype, np.integer):
        # Checked after emptiness: np.asarray([]) defaults to float64.
        raise RequestError(
            f"prompt token ids must have an integer dtype, got {prompt.dtype}; "
            "a non-integer prompt fails as a deferred indexing error inside "
            "the embedding and would wedge the engine"
        )
    if params.kv_format is not None:
        try:
            params.kv_format.bits_per_element(model_config.n_layers)
        except ModelError as exc:
            raise RequestError(f"kv_format does not fit the model: {exc}") from exc
    total = int(prompt.shape[0]) + params.max_new_tokens
    if total > model_config.max_seq_len:
        raise RequestError(
            f"prompt + continuation ({int(prompt.shape[0])} + "
            f"{params.max_new_tokens}) exceeds max_seq_len "
            f"{model_config.max_seq_len}"
        )
    vocab = model_config.vocab_size
    if int(prompt.min()) < 0 or int(prompt.max()) >= vocab:
        raise RequestError(
            f"prompt token ids must lie in [0, {vocab}); a deferred "
            "prefill failure would lose the request"
        )
    if pool is not None:
        needed = pool.blocks_for_tokens(total)
        limit = pool.max_sequence_blocks()
        if needed > limit:
            raise RequestError(
                f"request needs {needed} KV blocks "
                f"({total} tokens at block size "
                f"{pool.block_size}) but the pool guarantees "
                f"only {limit}; raise kv_pool_blocks"
            )


class KVBlockPlanner(Protocol):
    """Block-budget view the engine hands the scheduler.

    ``available_blocks`` is the pool headroom admissions may claim
    (free plus reclaimable prefix-cache blocks, minus the running
    requests' reserved decode growth); ``swap_in_blocks`` is a
    swapped-out candidate's footprint once restored and decoded one
    position; ``chunk_blocks`` is the footprint of prefilling just the
    next ``tokens`` positions of a candidate (its partial cache's block
    growth); ``admit`` commits an already-computed footprint against
    the budget.
    """

    def available_blocks(self) -> int: ...

    def swap_in_blocks(self, state: RequestState) -> int: ...

    def chunk_blocks(self, state: RequestState, tokens: int) -> int: ...

    def admit(self, blocks_needed: int) -> None: ...


def preemption_victim(candidates: list[RequestState]) -> RequestState:
    """The latest arrival among ``candidates``: who loses its KV blocks.

    The engine calls this when a step's block growth exceeds what the
    pool can free, over every block holder: running decodes and
    half-prefilled prompts.  A decoding victim is swapped out (its
    stored KV leaves the pool as one image and returns bitwise on
    re-admission); a half-prefilled one drops its partial cache and
    restarts its prefill.
    """
    if not candidates:
        raise ModelError("no preemption candidates: pool sizing bug")
    return max(
        candidates,
        key=lambda state: (state.arrival_step, state.request.request_id),
    )


@dataclass(frozen=True)
class PrefillChunk:
    """One admitted slice of prefill work: a request and a token count.

    ``tokens`` is the scheduler's budget grant; the engine may execute
    fewer positions when a prefix-cache hit shortens the fresh request
    (the grant is an upper bound, never a shortfall).  Only requests
    that have emitted nothing prefill; a swapped-out request is a
    :attr:`StepPlan.swap_ins` entry instead.
    """

    state: RequestState
    tokens: int

    @property
    def request(self) -> Request:
        """The underlying request (convenience passthrough)."""
        return self.state.request

    @property
    def completes(self) -> bool:
        """Whether this grant covers the rest of the prefill."""
        return self.tokens >= self.state.prefill_tokens


@dataclass(frozen=True)
class StepPlan:
    """The scheduler's decision for one engine step.

    Attributes:
        decodes: running requests decoding one token each.
        swap_ins: swapped-out requests whose stored KV returns to the
            pool this step; each then decodes one token with the batch.
        prefills: prefill chunks admitted this step (full prompts when
            the budget covers them).
        budget_tokens: tokens of model work the plan consumes.
    """

    decodes: list[RequestState] = field(default_factory=list)
    prefills: list[PrefillChunk] = field(default_factory=list)
    swap_ins: list[RequestState] = field(default_factory=list)

    @property
    def budget_tokens(self) -> int:
        return (
            len(self.decodes)
            + len(self.swap_ins)
            + sum(chunk.tokens for chunk in self.prefills)
        )

    @property
    def empty(self) -> bool:
        return not (self.decodes or self.swap_ins or self.prefills)


def plan_step(
    waiting: list[RequestState],
    running: list[RequestState],
    # ROADMAP 1(a) deletes it: the benchmark ledger still passes it.
    policy: Literal["fcfs"],
    max_batch_size: int,
    max_batch_tokens: int,
    blocks: KVBlockPlanner,
    chunking: Literal[True] = True,
) -> StepPlan:
    """Plan one step: decodes keep their slots, prefills fill the rest.

    Running requests are never displaced by admissions — each reserves
    one token of budget and one batch slot (preemption, when the pool
    runs dry mid-decode, is the engine's move, not the planner's).
    Waiting requests are then admitted in the order ``waiting`` gives
    them (arrival order; the engine keeps its queue sorted by request
    id) while the token budget, the slot count and the ``blocks``
    budget all hold out.  Admission stops once the token budget is
    spent or at the first request the block budget cannot cover
    (head-of-line blocking is deliberate: skipping over a big request
    forever would starve it).

    A fresh request that does not fit whole is admitted for a
    *partial* chunk — whatever token budget remains after decodes — and
    continues across steps; a half-prefilled request already holds its
    residency slot, so continuing it never consumes a new one.  A
    swapped-out (preempted mid-decode) request is admitted as a
    swap-in: one decode token and a slot, plus the blocks of its
    stored context and that token.  ``policy`` only accepts ``"fcfs"``
    and ``chunking`` only ``True``; a caller wanting whole-prompt
    admissions sizes ``max_batch_tokens`` >= the prompt.
    """
    if policy != "fcfs":
        raise ModelError(
            f"policy={policy!r} is no longer supported: admission is first "
            "come, first served"
        )
    if chunking is not True:
        raise ModelError(
            "chunking=False is no longer supported: set max_batch_tokens "
            ">= the prompt length to prefill a prompt in one step"
        )
    if max_batch_size < 1:
        raise ModelError(f"max_batch_size must be >= 1, got {max_batch_size}")
    if max_batch_tokens < 1:
        raise ModelError(f"max_batch_tokens must be >= 1, got {max_batch_tokens}")

    decodes = list(running)
    budget = max_batch_tokens - len(decodes)
    # Half-prefilled requests hold KV residency from the waiting queue;
    # count them against the slot cap so fresh admissions cannot strand
    # them, but let their own continuation through for free.
    inflight = sum(1 for state in waiting if state.prefill_pos > 0)
    slots = max_batch_size - len(decodes) - inflight
    prefills: list[PrefillChunk] = []
    swap_ins: list[RequestState] = []
    for state in waiting:
        if budget < 1:
            break  # decodes (or earlier admissions) consumed the budget
        continuing = state.prefill_pos > 0
        if not continuing and slots < 1:
            # Skip, don't stop: a swapped-out or retried request is
            # requeued at its arrival position, ahead of a later
            # half-prefilled one.  With the slot cap full, that
            # slot-exempt continuation must still get its chunk, or it
            # would pin its KV blocks while never progressing.
            continue
        swapped = state.kv_image is not None
        cost = 1 if swapped else min(state.prefill_tokens, budget)
        block_cost = (
            blocks.swap_in_blocks(state)
            if swapped
            else blocks.chunk_blocks(state, cost)
        )
        if block_cost > blocks.available_blocks() and (decodes or swap_ins or prefills):
            # With nothing running, the whole pool is free or
            # reclaimable and submit-time validation guarantees the
            # blocks exist: the first candidate is admitted anyway
            # rather than deadlocking the queue.
            break
        blocks.admit(block_cost)
        if swapped:
            swap_ins.append(state)
        else:
            prefills.append(PrefillChunk(state, cost))
        budget -= cost
        if not continuing:
            slots -= 1
    return StepPlan(decodes=decodes, prefills=prefills, swap_ins=swap_ins)
