"""The redesigned serving front end: LLM / SamplingParams / RequestHandle.

The acceptance bar for the API redesign:

* ``LLM.generate`` is token-bitwise identical to the bare
  ``submit``/``run_until_idle`` engine path and to sequential ``generate()``
  across {fp16, anda} formats x pool geometries x chunk budgets;
* ``abort()`` leaks nothing in any of those cells — allocator free
  counts are restored (modulo deliberately resident prefix-cache
  blocks, each reclaimable), including aborts mid-chunked-prefill and
  aborts of prefix-sharing requests under pool pressure;
* invalid requests are rejected at submission with ``errors``-module
  exceptions, never deep in the scheduler;
* handles stream tokens incrementally (per-step deltas), report
  status, and block for results.
"""

import gc
import types

import numpy as np
import pytest

from repro.errors import ModelError, RequestAbortedError, RequestError
from repro.llm.config import tiny_test_config
from repro.llm.generation import generate, generate_text
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.serve import (
    LLM,
    CompletedRequest,
    Engine,
    EngineConfig,
    RequestHandle,
    RequestState,
    RequestStatus,
    SamplingParams,
)
from serving_helpers import finished_results


@pytest.fixture(scope="module")
def model():
    return build_model(tiny_test_config("opt", d_model=32, n_layers=2))


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(21)
    return [rng.integers(0, 256, size=length) for length in (5, 19, 3, 11)]


#: Pool geometries: the engine default, and small blocks in a small pool.
POOLS = {
    "default-pool": {},
    "blocks4x32": dict(kv_pool_blocks=32, kv_block_size=4),
}


def mode_config(kv_mode, pool, budget, **overrides):
    """One cell of the {fp16,anda} x pool geometry x chunk budget grid.

    Budget 64 covers every prompt (whole-prompt prefills); budget 16
    chunks the longer ones.
    """
    settings = dict(
        kv_format=KVFormat(mode=kv_mode, mantissa_bits=6),
        max_batch_tokens=budget,
        max_batch_size=4,
        **POOLS[pool],
    )
    settings.update(overrides)
    return EngineConfig(**settings)


ALL_MODES = [
    pytest.param(kv_mode, pool, budget, id=f"{kv_mode}-{pool}-budget{budget}")
    for kv_mode in ("fp16", "anda")
    for pool in POOLS
    for budget in (64, 16)
]


def old_path(model, prompts, max_new_tokens, config):
    """The bare engine lifecycle: submit, step to idle, read the handles."""
    engine = Engine(model, config)
    params = SamplingParams(max_new_tokens=max_new_tokens)
    handles = [engine.submit(prompt, params) for prompt in prompts]
    done = finished_results(engine, handles, max_steps=500)
    return [done[handle.request_id] for handle in handles]


def assert_no_leaks(engine):
    """Every pool block is free or a reclaimable prefix-cache resident."""
    pool = engine._pool
    assert pool.leaked_blocks() == 0
    cached = 0 if pool.prefix_cache is None else len(pool.prefix_cache)
    assert pool.free_blocks + cached == pool.num_blocks
    if pool.prefix_cache is not None:
        # Resident cache blocks are all refcount-1, i.e. evictable.
        assert pool.prefix_cache.reclaimable_blocks() == cached


class TestNewApiParity:
    """LLM.generate vs the bare engine path and sequential generate()."""

    @pytest.mark.parametrize("kv_mode,pool,budget", ALL_MODES)
    def test_generate_matches_old_path(self, model, prompts, kv_mode, pool, budget):
        config = mode_config(kv_mode, pool, budget)
        new = LLM(model, config).generate(prompts, SamplingParams(max_new_tokens=6))
        old = old_path(model, prompts, 6, config)
        factory = config.kv_format.cache_factory(model)
        for prompt, new_result, old_result in zip(prompts, new, old):
            np.testing.assert_array_equal(new_result.tokens, old_result.tokens)
            expected = generate(model, prompt, 6, cache_factory=factory)
            np.testing.assert_array_equal(new_result.tokens, expected.tokens)

    @pytest.mark.parametrize("kv_mode,pool,budget", ALL_MODES)
    def test_stream_deltas_match_old_path(self, model, prompts, kv_mode, pool, budget):
        config = mode_config(kv_mode, pool, budget)
        streamed = {}
        llm = LLM(model, config)
        for delta in llm.stream(prompts, SamplingParams(max_new_tokens=6)):
            streamed.setdefault(delta.request_id, []).append(delta.token)
        old = old_path(model, prompts, 6, config)
        for request_id, old_result in zip(sorted(streamed), old):
            np.testing.assert_array_equal(
                np.asarray(streamed[request_id]), old_result.continuation()
            )

    def test_per_request_params_match_sequential(self, model, prompts):
        recipes = [
            SamplingParams(max_new_tokens=4),
            SamplingParams(max_new_tokens=7, temperature=1.0, top_k=30, seed=5),
            SamplingParams(max_new_tokens=3, temperature=0.7, top_k=10, seed=9),
            SamplingParams(max_new_tokens=6),
        ]
        results = LLM(model).generate(prompts, recipes)
        for prompt, params, result in zip(prompts, recipes, results):
            expected = generate(model, prompt, params=params)
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_single_prompt_returns_single_result(self, model, prompts):
        result = LLM(model).generate(prompts[0], SamplingParams(max_new_tokens=4))
        expected = generate(model, prompts[0], 4)
        np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_2d_ndarray_is_a_batch_of_row_prompts(self, model):
        # A 2-D array is a batch of row prompts; the facade must not
        # flatten it into one concatenated request.
        rows = np.arange(8, dtype=np.int64).reshape(2, 4) % 256
        results = LLM(model).generate(rows, SamplingParams(max_new_tokens=3))
        assert isinstance(results, list) and len(results) == 2
        for row, result in zip(rows, results):
            expected = generate(model, row, 3)
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_params_count_mismatch_rejected(self, model, prompts):
        with pytest.raises(RequestError):
            LLM(model).generate(prompts, [SamplingParams()] * (len(prompts) - 1))


class TestSubmitValidation:
    def test_empty_prompt_rejected_with_request_error(self, model):
        engine = Engine(model)
        with pytest.raises(RequestError):
            engine.submit(
                np.array([], dtype=np.int64), SamplingParams(max_new_tokens=4)
            )
        assert not engine.has_work()

    def test_nonpositive_max_new_tokens_rejected(self):
        for bad in (0, -3):
            with pytest.raises(RequestError):
                SamplingParams(max_new_tokens=bad)

    def test_request_error_is_a_model_error(self):
        # Pre-redesign callers catch ModelError; the new exception must
        # stay inside that contract.
        assert issubclass(RequestError, ModelError)

    def test_sampling_params_validated_at_construction(self):
        with pytest.raises(RequestError):
            SamplingParams(temperature=-0.5)
        with pytest.raises(RequestError):
            SamplingParams(temperature=1.0, top_k=0)
        with pytest.raises(RequestError):
            SamplingParams(top_p=0.0)
        with pytest.raises(RequestError):
            SamplingParams(top_p=1.5)
        with pytest.raises(RequestError):
            SamplingParams(stop_token_ids=(-1,))

    def test_submit_rejects_non_sampling_params(self, model):
        # The recipe is a SamplingParams and nothing else: a bare
        # max_new_tokens int, a string or None raises at the boundary,
        # and there are no scalar recipe kwargs to contradict it.
        engine = Engine(model)
        for bad in (4, "greedy", None):
            with pytest.raises(RequestError, match="SamplingParams"):
                engine.submit(np.array([1, 2]), bad)
        with pytest.raises(TypeError):
            engine.submit(np.array([1, 2]), SamplingParams(), temperature=1.0)
        assert not engine.has_work()


class TestAbort:
    """Cancellation must release KV residency in every grid cell."""

    @pytest.mark.parametrize("kv_mode,pool,budget", ALL_MODES)
    def test_abort_leaves_no_leaked_blocks(self, model, prompts, kv_mode, pool, budget):
        config = mode_config(kv_mode, pool, budget)
        engine = Engine(model, config)
        handles = [
            engine.submit(prompt, SamplingParams(max_new_tokens=6))
            for prompt in prompts
        ]
        engine.step()
        assert handles[1].abort()
        engine.step()
        assert handles[3].abort()
        engine.run_until_idle(max_steps=500)
        assert_no_leaks(engine)
        factory = config.kv_format.cache_factory(model)
        survivors = [handles[0].result(), handles[2].result()]
        for index, result in zip((0, 2), survivors):
            expected = generate(model, prompts[index], 6, cache_factory=factory)
            np.testing.assert_array_equal(result.tokens, expected.tokens)
        assert engine.metrics().aborted == 2

    def test_abort_mid_chunked_prefill_releases_partial_cache(self, model):
        rng = np.random.default_rng(4)
        engine = Engine(
            model,
            mode_config("fp16", "blocks4x32", budget=8),
        )
        short = engine.submit(
            rng.integers(0, 256, size=4), SamplingParams(max_new_tokens=8)
        )
        engine.step()
        big = engine.submit(
            rng.integers(0, 256, size=40), SamplingParams(max_new_tokens=4)
        )
        engine.step()  # first chunk only
        assert big.status() is RequestStatus.PREFILLING
        assert 0 < big._state.prefill_pos < 40
        assert big.abort()
        assert big._state.kv is None
        engine.run_until_idle(max_steps=100)
        assert_no_leaks(engine)
        assert short.finished

    def test_abort_prefix_sharing_sibling_keeps_donor_blocks_balanced(self, model):
        rng = np.random.default_rng(5)
        system = rng.integers(0, 256, size=12)
        prompts = [
            np.concatenate([system, rng.integers(0, 256, size=3)])
            for _ in range(4)
        ]
        engine = Engine(model, mode_config("anda", "blocks4x32", budget=16))
        handles = [engine.submit(p, SamplingParams(max_new_tokens=5)) for p in prompts]
        engine.step()  # prompts register / map shared prefix blocks
        # Abort two sharers while the prefix blocks are multiply owned.
        assert handles[2].abort()
        assert handles[3].abort()
        engine.run_until_idle(max_steps=200)
        assert_no_leaks(engine)
        expected = generate(model, prompts[0], 5)
        np.testing.assert_array_equal(handles[0].result().tokens, expected.tokens)

    def test_abort_under_pool_pressure_with_preemption(self, model):
        rng = np.random.default_rng(6)
        prompts = [rng.integers(0, 256, size=6) for _ in range(5)]
        engine = Engine(
            model,
            mode_config("fp16", "blocks4x32", budget=64, kv_pool_blocks=8),
        )
        handles = [
            engine.submit(prompt, SamplingParams(max_new_tokens=10))
            for prompt in prompts
        ]
        for _ in range(4):
            engine.step()
        assert handles[4].abort()  # latest arrival, likely preempted/waiting
        assert handles[1].abort()  # an early, resident request
        engine.run_until_idle(max_steps=400)
        assert_no_leaks(engine)
        for index in (0, 2, 3):
            expected = generate(model, prompts[index], 10)
            np.testing.assert_array_equal(
                handles[index].result().tokens, expected.tokens
            )

    def test_abort_waiting_request_before_any_compute(self, model, prompts):
        engine = Engine(model)
        handle = engine.submit(prompts[0], SamplingParams(max_new_tokens=4))
        assert handle.status() is RequestStatus.WAITING
        assert handle.abort()
        assert handle.aborted
        assert not engine.has_work()
        assert engine.metrics().aborted == 1

    def test_abort_is_idempotent_and_too_late_after_finish(self, model, prompts):
        engine = Engine(model)
        handle = engine.submit(prompts[0], SamplingParams(max_new_tokens=2))
        engine.run_until_idle()
        assert handle.finished
        assert not handle.abort()  # finished: nothing to cancel
        assert engine.metrics().aborted == 0
        assert not engine.abort(99)  # unknown id

    def test_result_on_aborted_handle_raises(self, model, prompts):
        engine = Engine(model)
        handle = engine.submit(prompts[0], SamplingParams(max_new_tokens=8))
        engine.step()
        handle.abort()
        with pytest.raises(RequestAbortedError):
            handle.result()
        # Partial output stays readable.
        assert len(handle.generated_tokens()) == 1

    def test_abort_via_llm_facade(self, model, prompts):
        llm = LLM(model)
        handle = llm.submit(prompts[0], SamplingParams(max_new_tokens=8))
        llm.engine.step()
        assert llm.abort(handle)
        assert handle.aborted


class TestRequestHandle:
    def test_token_iteration_is_incremental_and_complete(self, model, prompts):
        engine = Engine(model, EngineConfig(max_batch_tokens=64))
        handle = engine.submit(prompts[0], SamplingParams(max_new_tokens=6))
        other = engine.submit(prompts[1], SamplingParams(max_new_tokens=6))
        seen = []
        for delta in handle:
            seen.append(delta.token)
            assert delta.request_id == handle.request_id
            assert delta.index == len(seen) - 1
        expected = generate(model, prompts[0], 6)
        np.testing.assert_array_equal(np.asarray(seen), expected.continuation())
        assert seen[-1] is not None and handle.finished
        # The sibling advanced in the same steps and can still finish.
        other_result = other.result()
        np.testing.assert_array_equal(
            other_result.tokens, generate(model, prompts[1], 6).tokens
        )

    def test_status_transitions_and_first_delta_marks_ttft(self, model, prompts):
        engine = Engine(model)
        handle = engine.submit(prompts[0], SamplingParams(max_new_tokens=3))
        assert handle.status() is RequestStatus.WAITING
        outputs = engine.step()
        assert handle.status() is RequestStatus.RUNNING
        first = outputs.for_request(handle.request_id)[0]
        assert first.is_first and first.index == 0
        assert first.time >= handle.arrival_time
        engine.run_until_idle()
        assert handle.status() is RequestStatus.FINISHED
        final = handle.deltas()[-1]
        assert final.finished and final.finish_reason == "length"

    def test_result_is_rebuilt_from_the_state_on_every_call(self, model, prompts):
        engine = Engine(model)
        handle = engine.submit(prompts[0], SamplingParams(max_new_tokens=3))
        result = handle.result()
        assert result.metrics.generated_tokens == 3
        assert not engine.has_work()
        # The engine keeps no copy; asking again builds an equal result.
        again = handle.result()
        np.testing.assert_array_equal(again.tokens, result.tokens)
        assert again.metrics == result.metrics

    def test_token_iteration_max_steps_guards_stalls(self, model, prompts):
        # tokens(max_steps=...) bounds each wait like run_until_idle/result do.
        engine = Engine(model)
        handle = engine.submit(prompts[0], SamplingParams(max_new_tokens=4))
        with pytest.raises(ModelError, match="max_steps must be"):
            # The bound is validated like run_until_idle's before any stepping.
            for _ in handle.tokens(max_steps=0):
                pass
        for delta in handle.tokens(max_steps=5):
            assert delta.request_id == handle.request_id
        assert handle.finished

    def test_step_outputs_carry_every_emission(self, model, prompts):
        engine = Engine(model, EngineConfig(max_batch_tokens=64))
        for prompt in prompts[:3]:
            engine.submit(prompt, SamplingParams(max_new_tokens=4))
        total = 0
        while engine.has_work():
            outputs = engine.step()
            assert len(outputs.deltas) == outputs.report.new_tokens
            total += len(outputs.deltas)
        assert total == 3 * 4


#: What a reachability walk does not enter: these reach the whole
#: program, not what one object holds.
OPAQUE = (types.ModuleType, type, types.FunctionType, types.BuiltinFunctionType)


def reachable(root):
    """Every object reachable from ``root`` through instance data."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, OPAQUE):
                seen.add(id(ref))
                stack.append(ref)
    return found


class TestNothingOutlivesItsHandle:
    def test_streamed_requests_leave_no_record_in_the_llm(self, model, prompts):
        llm = LLM(model, EngineConfig(max_batch_size=4, max_batch_tokens=16))
        params = SamplingParams(max_new_tokens=6)
        handle = llm.submit(prompts[0], params)
        streamed = list(llm.stream([handle, *prompts[1:]], params))
        del handle
        assert len(streamed) == 6 * len(prompts)
        assert not llm.engine.has_work()
        held = [
            obj
            for obj in reachable(llm)
            if isinstance(obj, (CompletedRequest, RequestState, RequestHandle))
        ]
        assert held == []
        # The latency records are all the engine keeps of them.
        assert len(llm.metrics().requests) == len(prompts)


class TestStopTokens:
    def choose_stop(self, model, prompt):
        """A stop token the greedy continuation actually emits."""
        continuation = generate(model, prompt, 8).continuation()
        return int(continuation[3])

    def test_engine_stops_early_matching_generate(self, model, prompts):
        stop = self.choose_stop(model, prompts[0])
        params = SamplingParams(max_new_tokens=8, stop_token_ids=(stop,))
        result = LLM(model).generate(prompts[0], params)
        expected = generate(model, prompts[0], params=params)
        assert result.finish_reason == "stop"
        assert expected.finish_reason == "stop"
        np.testing.assert_array_equal(result.tokens, expected.tokens)
        assert result.continuation()[-1] == stop
        assert len(result.continuation()) < 8  # ended before the cap

    @pytest.mark.parametrize("kv_mode,pool,budget", ALL_MODES[:2] + ALL_MODES[-2:])
    def test_stop_tokens_across_modes(self, model, prompts, kv_mode, pool, budget):
        stop = self.choose_stop(model, prompts[1])
        params = SamplingParams(max_new_tokens=8, stop_token_ids=(stop,))
        config = mode_config(kv_mode, pool, budget)
        result = LLM(model, config).generate(prompts[1], params)
        expected = generate(model, prompts[1], params=params)
        np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_unmatched_stop_token_runs_to_length(self, model, prompts):
        params = SamplingParams(max_new_tokens=4, stop_token_ids=(256,))
        result = LLM(model).generate(prompts[0], params)
        assert result.finish_reason == "length"
        assert len(result.continuation()) == 4


class TestTopP:
    def test_top_p_engine_matches_generate(self, model, prompts):
        params = SamplingParams(
            max_new_tokens=8, temperature=1.0, top_k=40, top_p=0.7, seed=11
        )
        result = LLM(model).generate(prompts[0], params)
        expected = generate(model, prompts[0], params=params)
        np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_top_p_one_is_bitwise_legacy_sampling(self, model, prompts):
        # top_p=1.0 must take the pre-nucleus code path: identical
        # tokens to the scalar-kwargs sampler, same RNG consumption.
        params = SamplingParams(
            max_new_tokens=8, temperature=1.0, top_k=20, top_p=1.0, seed=7
        )
        with_params = generate(model, prompts[0], params=params)
        legacy = generate(model, prompts[0], 8, temperature=1.0, top_k=20, seed=7)
        np.testing.assert_array_equal(with_params.tokens, legacy.tokens)

    def test_tiny_top_p_degenerates_to_greedy_of_sampled_set(self, model, prompts):
        # A vanishing nucleus keeps only the most likely top-k token.
        params = SamplingParams(
            max_new_tokens=5, temperature=1.0, top_k=50, top_p=1e-9, seed=3
        )
        first = LLM(model).generate(prompts[0], params)
        second = generate(model, prompts[0], params=params)
        np.testing.assert_array_equal(first.tokens, second.tokens)


class TestGenerateTextRouting:
    def test_generate_text_accepts_sampling_params(self, model):
        params = SamplingParams(max_new_tokens=6)
        routed = generate_text(model, "hi", params=params)
        legacy = generate_text(model, "hi", max_new_tokens=6)
        assert routed == legacy
