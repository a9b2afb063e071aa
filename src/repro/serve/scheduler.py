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

Admission *order* is a policy:

* **fcfs** — first come, first served (arrival order, the latency-fair
  default);
* **shortest-prompt-first** — admit cheap prompts first, maximizing how
  many requests reach the decode batch per unit of prefill budget
  (throughput-greedy, can starve long prompts under load);
* **decode-first** — continue in-flight chunked prefills before
  admitting new requests, FCFS otherwise.  Decode tokens are reserved
  off the top of the budget structurally; this policy additionally
  keeps the prefill side of the budget focused on one prompt at a
  time, so a chunked prefill finishes (and starts decoding) as early
  as possible instead of smearing several partial caches across steps.

Policies only order the waiting queue; the budget walk below is shared.
One guarantee is unconditional: if nothing is running and nothing fits,
the first candidate is admitted anyway (a chunk the free-block budget
cannot cover must not deadlock the engine).

Given a :class:`KVBlockPlanner` (the engine always passes its pool's),
admission is additionally planned against the *free-block budget*:
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
from typing import TYPE_CHECKING, Literal

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


class KVBlockPlanner:
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

    def available_blocks(self) -> int:
        raise NotImplementedError

    def swap_in_blocks(self, state: RequestState) -> int:
        raise NotImplementedError

    def chunk_blocks(self, state: RequestState, tokens: int) -> int:
        raise NotImplementedError

    def admit(self, blocks_needed: int) -> None:
        raise NotImplementedError


class SchedulerPolicy:
    """Orders the waiting queue for admission (subclass hook)."""

    name = "base"

    def order(self, waiting: list[RequestState]) -> list[RequestState]:
        raise NotImplementedError


class FcfsPolicy(SchedulerPolicy):
    """Admit in arrival order."""

    name = "fcfs"

    def order(self, waiting: list[RequestState]) -> list[RequestState]:
        return list(waiting)


class ShortestPromptFirstPolicy(SchedulerPolicy):
    """Admit cheapest prefills first (ties broken by arrival)."""

    name = "shortest-prompt-first"

    def order(self, waiting: list[RequestState]) -> list[RequestState]:
        return sorted(
            waiting,
            key=lambda state: (
                state.request.prompt_length,
                state.request.request_id,
            ),
        )


class DecodeFirstPolicy(SchedulerPolicy):
    """Finish in-flight chunked prefills before admitting new work.

    A half-prefilled request holds KV memory but produces nothing
    until its prompt completes; front-running it with fresh admissions
    both delays its first token and multiplies the number of partial
    caches resident at once.  This policy pins in-flight prefills to
    the head of the queue (FCFS among themselves and among the rest),
    which bounds partial-cache residency to one prompt at a time under
    steady traffic.
    """

    name = "decode-first"

    def order(self, waiting: list[RequestState]) -> list[RequestState]:
        return sorted(
            waiting,
            key=lambda state: (
                0 if state.prefill_pos > 0 else 1,
                state.request.request_id,
            ),
        )


#: Registry of scheduler policies by name.
POLICIES: dict[str, type[SchedulerPolicy]] = {
    FcfsPolicy.name: FcfsPolicy,
    ShortestPromptFirstPolicy.name: ShortestPromptFirstPolicy,
    DecodeFirstPolicy.name: DecodeFirstPolicy,
}


def get_policy(name: str) -> SchedulerPolicy:
    """Instantiate a scheduler policy by registry name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ModelError(
            f"unknown scheduler policy {name!r}; known: {', '.join(sorted(POLICIES))}"
        ) from None


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
    policy: SchedulerPolicy,
    max_batch_size: int,
    max_batch_tokens: int,
    blocks: KVBlockPlanner | None = None,
    chunking: Literal[True] = True,
) -> StepPlan:
    """Plan one step: decodes keep their slots, prefills fill the rest.

    Running requests are never displaced by admissions — each reserves
    one token of budget and one batch slot (preemption, when a paged
    pool runs dry mid-decode, is the engine's move, not the planner's).
    Waiting requests are then admitted in policy order while the token
    budget, the slot count and (when ``blocks`` is given) the pool's
    free-block budget all hold out.  Admission stops at the first
    request that does not fit (head-of-line blocking is deliberate:
    skipping over a big request forever would starve it).

    A fresh request that does not fit whole is admitted for a
    *partial* chunk — whatever token budget remains after decodes — and
    continues across steps; a half-prefilled request already holds its
    residency slot, so continuing it never consumes a new one.  A
    swapped-out (preempted mid-decode) request is admitted as a
    swap-in: one decode token and a slot, plus the blocks of its
    stored context and that token.  ``chunking`` only accepts ``True``;
    a caller wanting whole-prompt admissions sizes ``max_batch_tokens``
    >= the prompt.
    """
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
    for state in policy.order(waiting):
        if budget < 1:
            break  # decodes (or earlier admissions) consumed the budget
        continuing = state.prefill_pos > 0
        if not continuing and slots < 1:
            # Skip, don't stop: a slot-exempt in-flight continuation
            # later in policy order (e.g. a long prompt under
            # shortest-prompt-first) must still get its chunk, or it
            # would pin its KV blocks while never progressing.
            continue
        swapped = state.kv_image is not None
        cost = 1 if swapped else min(state.prefill_tokens, budget)
        if blocks is not None:
            block_cost = (
                blocks.swap_in_blocks(state)
                if swapped
                else blocks.chunk_blocks(state, cost)
            )
            if block_cost > blocks.available_blocks() and (
                decodes or swap_ins or prefills
            ):
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
