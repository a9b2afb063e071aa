"""Tests for the step-level scheduler: policies, budget, chunking."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.serve.kvpool import KVImage
from repro.serve.params import SamplingParams
from repro.serve.request import Request, RequestState, RequestStatus
from repro.serve.scheduler import (
    FcfsPolicy,
    KVBlockPlanner,
    ShortestPromptFirstPolicy,
    get_policy,
    plan_step,
)


def make_state(
    request_id: int,
    prompt_length: int,
    running: bool = False,
    prefill_pos: int = 0,
    generated: tuple[int, ...] = (),
):
    state = RequestState(
        request=Request(
            request_id=request_id,
            prompt=np.arange(prompt_length) % 256,
            params=SamplingParams(max_new_tokens=4),
        )
    )
    if running:
        state.status = RequestStatus.RUNNING
    if prefill_pos:
        state.prefill_pos = prefill_pos
        state.status = RequestStatus.PREFILLING
    if generated:
        # Preempted mid-decode: its stored KV (every position but the
        # last emitted token's) waits as an image for its swap-in.
        state.generated = list(generated)
        shape = (1, 1, prompt_length + len(generated) - 1, 1)
        image = np.zeros(shape, dtype=np.float16)
        state.kv_image = KVImage(image, image)
    return state


class FixedBlocks(KVBlockPlanner):
    """A block budget of ``available`` blocks; every admission costs
    ``swap_in`` (swap-ins) or ``chunk`` (chunks) blocks."""

    def __init__(self, available: int, swap_in: int, chunk: int = 0) -> None:
        self.available = available
        self.swap_in = swap_in
        self.chunk = chunk

    def available_blocks(self) -> int:
        return self.available

    def swap_in_blocks(self, state: RequestState) -> int:
        return self.swap_in

    def chunk_blocks(self, state: RequestState, tokens: int) -> int:
        return self.chunk

    def admit(self, blocks_needed: int) -> None:
        self.available -= blocks_needed


class TestPolicies:
    def test_fcfs_keeps_arrival_order(self):
        waiting = [make_state(0, 9), make_state(1, 2), make_state(2, 5)]
        ordered = FcfsPolicy().order(waiting)
        assert [s.request.request_id for s in ordered] == [0, 1, 2]

    def test_shortest_prompt_first_sorts_by_length(self):
        waiting = [make_state(0, 9), make_state(1, 2), make_state(2, 5)]
        ordered = ShortestPromptFirstPolicy().order(waiting)
        assert [s.request.request_id for s in ordered] == [1, 2, 0]

    def test_shortest_prompt_ties_break_by_id(self):
        waiting = [make_state(3, 4), make_state(1, 4), make_state(2, 4)]
        ordered = ShortestPromptFirstPolicy().order(waiting)
        assert [s.request.request_id for s in ordered] == [1, 2, 3]

    def test_get_policy_by_name(self):
        assert isinstance(get_policy("fcfs"), FcfsPolicy)
        assert isinstance(
            get_policy("shortest-prompt-first"), ShortestPromptFirstPolicy
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ModelError):
            get_policy("round-robin")


class TestPlanStep:
    def test_decodes_reserve_budget_first(self):
        running = [make_state(0, 4, running=True), make_state(1, 4, running=True)]
        waiting = [make_state(2, 6)]
        plan = plan_step(waiting, running, FcfsPolicy(), 8, 8)
        # 2 decode tokens leave 6 tokens of budget: the prefill fits.
        assert len(plan.decodes) == 2
        assert [s.request.request_id for s in plan.prefills] == [2]
        assert plan.budget_tokens == 8

    def test_token_budget_caps_admissions(self):
        waiting = [make_state(0, 5), make_state(1, 5), make_state(2, 5)]
        plan = plan_step(waiting, [], FcfsPolicy(), 8, 10)
        assert [s.request.request_id for s in plan.prefills] == [0, 1]

    def test_admission_stops_at_first_misfit(self):
        # Head-of-line blocking is deliberate: request 1 only gets the
        # budget's leftover as a partial chunk, so request 2 (which
        # would fit whole) must wait behind it.
        waiting = [make_state(0, 4), make_state(1, 10), make_state(2, 1)]
        plan = plan_step(waiting, [], FcfsPolicy(), 8, 8)
        assert [s.request.request_id for s in plan.prefills] == [0, 1]
        assert [chunk.tokens for chunk in plan.prefills] == [4, 4]

    def test_batch_size_caps_admissions(self):
        waiting = [make_state(i, 1) for i in range(5)]
        plan = plan_step(waiting, [], FcfsPolicy(), 3, 100)
        assert len(plan.prefills) == 3

    def test_running_at_capacity_blocks_prefill(self):
        running = [make_state(i, 2, running=True) for i in range(4)]
        waiting = [make_state(9, 1)]
        plan = plan_step(waiting, running, FcfsPolicy(), 4, 100)
        assert plan.prefills == []
        assert len(plan.decodes) == 4

    def test_swap_in_longer_than_the_budget_shares_the_step(self):
        # A swapped-out request's context far exceeds the budget, but
        # it computes none of it: its swap-in costs one decode token, so
        # the next request still gets the rest of the budget.
        waiting = [make_state(0, 48, generated=(1, 2, 3)), make_state(1, 2)]
        plan = plan_step(waiting, [], FcfsPolicy(), 8, 8)
        assert [s.request.request_id for s in plan.swap_ins] == [0]
        assert [s.request.request_id for s in plan.prefills] == [1]
        assert plan.budget_tokens == 3

    def test_swap_in_joins_while_decodes_run(self):
        # No waiting for the batch to drain: the swap-in rides with the
        # running decodes for one budget token, and pays its blocks.
        running = [make_state(1, 2, running=True)]
        waiting = [make_state(0, 48, generated=(1, 2, 3))]
        blocks = FixedBlocks(available=5, swap_in=4)
        plan = plan_step(waiting, running, FcfsPolicy(), 8, 8, blocks=blocks)
        assert [s.request.request_id for s in plan.swap_ins] == [0]
        assert plan.prefills == []
        assert plan.budget_tokens == 2
        assert blocks.available == 1

    def test_swap_in_waits_for_blocks_while_decodes_run(self):
        running = [make_state(1, 2, running=True)]
        waiting = [make_state(0, 48, generated=(1, 2, 3)), make_state(2, 2)]
        blocks = FixedBlocks(available=3, swap_in=4)
        plan = plan_step(waiting, running, FcfsPolicy(), 8, 8, blocks=blocks)
        # Head-of-line: FCFS does not skip the swap-in for request 2.
        assert plan.swap_ins == [] and plan.prefills == []
        assert blocks.available == 3

    def test_policy_shapes_admission(self):
        waiting = [make_state(0, 7), make_state(1, 3)]
        fcfs = plan_step(waiting, [], FcfsPolicy(), 8, 8)
        spf = plan_step(waiting, [], ShortestPromptFirstPolicy(), 8, 8)
        assert [s.request.request_id for s in fcfs.prefills] == [0, 1]
        assert [s.request.request_id for s in spf.prefills] == [1, 0]
        assert fcfs.prefills[0].completes and not fcfs.prefills[1].completes

    def test_invalid_limits_rejected(self):
        with pytest.raises(ModelError):
            plan_step([], [], FcfsPolicy(), 0, 8)
        with pytest.raises(ModelError):
            plan_step([], [], FcfsPolicy(), 8, 0)

    def test_empty_plan(self):
        plan = plan_step([], [], FcfsPolicy(), 8, 8)
        assert plan.empty
        assert plan.budget_tokens == 0


class TestChunkedPlanning:
    def test_oversized_prompt_gets_budget_sized_chunk(self):
        waiting = [make_state(0, 50)]
        plan = plan_step(waiting, [], FcfsPolicy(), 8, 8)
        assert len(plan.prefills) == 1
        chunk = plan.prefills[0]
        assert chunk.tokens == 8
        assert not chunk.completes

    def test_chunk_rides_with_decodes_on_leftover_budget(self):
        running = [make_state(0, 4, running=True), make_state(1, 4, running=True)]
        waiting = [make_state(2, 50)]
        plan = plan_step(waiting, running, FcfsPolicy(), 8, 10)
        assert len(plan.decodes) == 2
        assert plan.prefills[0].tokens == 8  # 10 budget - 2 decode tokens
        assert plan.budget_tokens == 10

    def test_decodes_consuming_whole_budget_block_chunks(self):
        running = [make_state(index, 2, running=True) for index in range(4)]
        waiting = [make_state(9, 50)]
        plan = plan_step(waiting, running, FcfsPolicy(), 8, 4)
        assert plan.prefills == []
        assert len(plan.decodes) == 4

    def test_inflight_continuation_exempt_from_slot_cap(self):
        # Three running decodes fill a 4-slot engine alongside the
        # half-prefilled request's reserved slot; its continuation must
        # still be admitted while a fresh request is not.
        running = [make_state(index, 2, running=True) for index in range(3)]
        inflight = make_state(3, 40, prefill_pos=16)
        fresh = make_state(4, 4)
        plan = plan_step([inflight, fresh], running, FcfsPolicy(), 4, 32)
        assert [c.state.request.request_id for c in plan.prefills] == [3]
        assert plan.prefills[0].tokens == 24  # finishes the prompt

    def test_slot_exhaustion_skips_fresh_but_not_continuations(self):
        # Shortest-prompt-first orders a fresh short prompt ahead of a
        # half-prefilled long one.  With every slot taken, the fresh
        # candidate is skipped — not head-of-line-blocking the walk —
        # so the slot-exempt continuation still gets its chunk instead
        # of pinning its KV blocks forever.
        running = [make_state(index, 2, running=True) for index in range(3)]
        inflight = make_state(3, 60, prefill_pos=16)
        fresh = make_state(4, 2)
        plan = plan_step(
            [inflight, fresh],
            running,
            ShortestPromptFirstPolicy(),
            4,
            64,
        )
        assert [c.state.request.request_id for c in plan.prefills] == [3]

    def test_final_chunk_marks_completion(self):
        inflight = make_state(0, 20, prefill_pos=16)
        plan = plan_step([inflight], [], FcfsPolicy(), 8, 32)
        chunk = plan.prefills[0]
        assert chunk.tokens == 4
        assert chunk.completes

    def test_swapped_request_is_a_swap_in_not_a_chunk(self):
        # A preempted mid-decode request computes nothing on
        # re-admission: it is never a prefill chunk, whatever the
        # budget, and takes a slot like a fresh admission.
        swapped = make_state(0, 10, generated=(5, 6, 7))
        fresh = make_state(1, 4)
        plan = plan_step([swapped, fresh], [], FcfsPolicy(), 1, 64)
        assert plan.swap_ins == [swapped]
        assert plan.prefills == []  # the only slot went to the swap-in
        assert plan.budget_tokens == 1
        assert not plan.empty

    def test_budget_covering_the_prompt_admits_it_whole(self):
        # Whole-prompt prefill is a budget size, not a mode.
        waiting = [make_state(0, 50), make_state(1, 2)]
        plan = plan_step(waiting, [], FcfsPolicy(), 8, 64)
        assert [chunk.tokens for chunk in plan.prefills] == [50, 2]
        assert all(chunk.completes for chunk in plan.prefills)

    def test_chunking_off_rejected_naming_the_budget(self):
        with pytest.raises(ModelError, match="max_batch_tokens"):
            plan_step([make_state(0, 4)], [], FcfsPolicy(), 8, 8, chunking=False)
