"""Chunked-prefill tests: token parity, mixed steps, starvation.

The acceptance bar for chunked prefill: splitting a prompt into
budget-sized chunks that ride along with the decode batch changes step
composition — and therefore latency — but **never** changes a token.
Parity with sequential ``generate()`` is pinned across fp16 and anda
formats, pool geometries, greedy and sampled decoding, tiny budgets
(many chunks per prompt) and budgets covering every prompt.  Chunk
*logits* are bitwise a monolithic prefill's, pinned across chunk
budgets, tails, KV formats and co-riders, and every request of a
preempting, sampled, mixed-format workload equals ``generate()``.  The
scheduler side is pinned too: mixed steps keep decoding while a long
prompt prefills (no head-of-line starvation), half-prefilled requests
hold their residency slot, can be preempted under pool pressure, and
recover cleanly from a mid-step model failure.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.llm.attention import MultiHeadAttention
from repro.llm.config import ModelConfig, tiny_test_config
from repro.llm.generation import generate
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.serve import (
    Engine,
    EngineConfig,
    RequestStatus,
    SamplingParams,
)
from serving_helpers import finished_results, serve


@pytest.fixture(scope="module")
def model():
    return build_model(tiny_test_config("opt", d_model=32, n_layers=2))


@pytest.fixture(scope="module")
def llama():
    return build_model(tiny_test_config("llama", d_model=32, n_layers=2))


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(7)
    # Mixed lengths around and far beyond the tiny budgets used below.
    return [rng.integers(0, 256, size=length) for length in (5, 37, 3, 61, 16)]


def chunked_config(**overrides):
    defaults = dict(max_batch_tokens=16, max_batch_size=4)
    defaults.update(overrides)
    return EngineConfig(**defaults)


class TestChunkedParity:
    """Token-bitwise identity across formats, pools and chunk budgets."""

    @pytest.mark.parametrize("kv_mode", ["fp16", "anda"])
    @pytest.mark.parametrize(
        "pool",
        [{}, dict(kv_pool_blocks=64, kv_block_size=4)],
        ids=["default-pool", "blocks4x64"],
    )
    def test_whole_prompt_budget_matches_generate(self, model, prompts, kv_mode, pool):
        # A budget covering every prompt prefills each in one step: the
        # monolithic-prefill shape, on the same lane.
        fmt = KVFormat(mode=kv_mode, mantissa_bits=6)
        engine = Engine(
            model, chunked_config(max_batch_tokens=128, kv_format=fmt, **pool)
        )
        results = serve(model, prompts, max_new_tokens=8, engine=engine)
        assert engine.metrics().partial_prefills == 0
        factory = fmt.cache_factory(model)
        for prompt, result in zip(prompts, results):
            expected = generate(model, prompt, 8, cache_factory=factory)
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    @pytest.mark.parametrize("kv_mode", ["fp16", "anda"])
    def test_chunked_matches_sequential_generate(self, model, prompts, kv_mode):
        fmt = KVFormat(mode=kv_mode, mantissa_bits=6)
        engine = Engine(model, chunked_config(kv_format=fmt))
        results = serve(model, prompts, max_new_tokens=8, engine=engine)
        assert engine.metrics().partial_prefills > 0  # chunking actually ran
        factory = fmt.cache_factory(model)
        for prompt, result in zip(prompts, results):
            expected = generate(model, prompt, 8, cache_factory=factory)
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    @pytest.mark.parametrize("kv_mode", ["fp16", "anda"])
    def test_rotary_family_chunked_parity(self, llama, prompts, kv_mode):
        # Chunk positions offset into the rotary table via gather.
        fmt = KVFormat(mode=kv_mode, mantissa_bits=6)
        chunked = serve(
            llama, prompts, max_new_tokens=8, config=chunked_config(kv_format=fmt)
        )
        for prompt, result in zip(prompts, chunked):
            expected = generate(
                llama, prompt, 8, cache_factory=fmt.cache_factory(llama)
            )
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    @pytest.mark.parametrize("budget", [4, 7, 16, 64])
    def test_chunk_size_never_changes_tokens(self, model, prompts, budget):
        # Different budgets mean different chunk boundaries; tokens
        # must not move.
        results = serve(
            model,
            prompts,
            max_new_tokens=6,
            config=chunked_config(max_batch_tokens=budget),
        )
        for prompt, result in zip(prompts, results):
            expected = generate(model, prompt, 6)
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_sampled_chunked_parity(self, model, prompts):
        results = serve(
            model,
            prompts,
            max_new_tokens=8,
            temperature=1.0,
            seed=5,
            config=chunked_config(),
        )
        for prompt, result in zip(prompts, results):
            expected = generate(model, prompt, 8, temperature=1.0, seed=5)
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_paged_prefix_sharing_chunked_parity(self, model):
        # Shared prefixes + chunking: later requests map the prompt
        # blocks an earlier same-step admission registered.
        rng = np.random.default_rng(3)
        system = rng.integers(0, 256, size=12)
        prompts = [
            np.concatenate([system, rng.integers(0, 256, size=3)]) for _ in range(4)
        ]
        engine = Engine(
            model,
            chunked_config(max_batch_tokens=64, kv_pool_blocks=32, kv_block_size=4),
        )
        results = serve(model, prompts, max_new_tokens=6, engine=engine)
        for prompt, result in zip(prompts, results):
            expected = generate(model, prompt, 6)
            np.testing.assert_array_equal(result.tokens, expected.tokens)
        metrics = engine.metrics()
        assert metrics.prefix_hit_tokens == 3 * 12
        # Gross savings (avoided writes + activations) bound the net
        # delta: the chunk lane re-reads the shared context it attends
        # over, which monolithic prefill never paid.
        assert metrics.prefix_saved_bytes > 0


@pytest.fixture(scope="module")
def wide_llama():
    # The serving ledger's block shape (head_dim 64, FFN 768): a down
    # projection with K = 768 is where few-row GeMMs change bits.
    return build_model(
        ModelConfig(
            name="chunk-boundary-llama",
            family="llama",
            n_layers=2,
            d_model=128,
            n_heads=2,
            ffn_dim=768,
            vocab_size=256,
            max_seq_len=256,
            seed=3,
        )
    )


#: The serving ledger's model (``benchmarks/ledger``'s bench-llama).
BENCH_LLAMA = ModelConfig(
    name="bench-llama",
    family="llama",
    n_layers=4,
    d_model=256,
    n_heads=4,
    ffn_dim=768,
    vocab_size=256,
    max_seq_len=1024,
    seed=7,
)

KV_FORMATS = {"fp16": KVFormat.fp16(), "anda8": KVFormat.anda(8)}


def assert_same_caches(left, right):
    for ours, reference in zip(left, right):
        assert ours.length == reference.length
        for a, b in zip(ours.view(), reference.view()):
            assert a.tobytes() == b.tobytes()


class TestChunkBoundaryLogits:
    """Chunk boundaries, co-riding chunks and decode rows move no bit."""

    @pytest.mark.parametrize("kv", list(KV_FORMATS))
    @pytest.mark.parametrize("tail", range(1, 9))
    @pytest.mark.parametrize("budget", [16, 64, 128])
    def test_tail_chunk_is_bitwise_monolithic(self, wide_llama, budget, tail, kv):
        model = wide_llama
        factory = KV_FORMATS[kv].cache_factory(model)
        vocab = model.config.vocab_size
        rng = np.random.default_rng(budget * 10 + tail)
        prompt = rng.integers(0, vocab, size=budget + tail)
        mono_caches = factory()
        monolithic = model.forward_step(prompt[None], mono_caches)[0]
        decoders = [factory(), factory()]
        for caches, length in zip(decoders, (5, 40)):
            model.forward_step(rng.integers(0, vocab, size=(1, length)), caches)
        caches = factory()
        head = model.forward_mixed_step([prompt[:budget]], [caches])[0][0]
        # The tail rides with another request's chunk and two decode rows.
        rider = rng.integers(0, vocab, size=budget // 2 + 3)
        tail_logits, _ = model.forward_mixed_step(
            [rider, prompt[budget:]],
            [factory(), caches],
            decode_tokens=np.array([[3], [4]]),
            decode_caches=decoders,
        )
        chunked = np.concatenate([head, tail_logits[1]])
        assert chunked.tobytes() == monolithic.tobytes()
        assert_same_caches(caches, mono_caches)

    def test_ledger_request_31_shape_is_bitwise_monolithic(self):
        # The serving ledger's churn_mixed seed 5, request 31: 141
        # prompt tokens, Anda(8) KV, served as chunks of 124 + 17 beside
        # other requests.  A 2.7e-4 logit shift in its last prompt row
        # flips its temperature-0.8 sample at token 18.
        model = build_model(BENCH_LLAMA)
        factory = KVFormat.anda(8).cache_factory(model)
        rng = np.random.default_rng(31)
        prompt = rng.integers(0, 256, size=141)
        mono_caches = factory()
        (monolithic,), _ = model.forward_mixed_step(
            [prompt], [mono_caches], sample_rows=[1]
        )
        decoder = factory()
        model.forward_step(rng.integers(0, 256, size=(1, 30)), decoder)
        caches = factory()
        model.forward_mixed_step(
            [rng.integers(0, 256, size=9), prompt[:124]],
            [factory(), caches],
            sample_rows=[1, 0],
        )
        (chunked, _), _ = model.forward_mixed_step(
            [prompt[124:], rng.integers(0, 256, size=6)],
            [caches, factory()],
            decode_tokens=np.array([[7]]),
            decode_caches=[decoder],
            sample_rows=[1, 1],
        )
        assert chunked.tobytes() == monolithic.tobytes()
        assert_same_caches(caches, mono_caches)


class TestEveryRequestIsGenerate:
    """The exact oracle covers every request, not a sample."""

    def test_preempting_mixed_format_sampled_workload(self, wide_llama):
        # Chunked prompts (budget 40), fp16 and Anda(8) KV side by side,
        # temperature-0.8 sampling and a pool small enough to preempt.
        model = wide_llama
        rng = np.random.default_rng(1)
        requests = []
        for index in range(12):
            prompt = rng.integers(0, 256, size=int(rng.integers(20, 150)))
            params = SamplingParams(
                max_new_tokens=int(rng.integers(12, 40)),
                temperature=0.8,
                seed=100 + index,
                kv_format=KV_FORMATS["anda8" if index % 2 else "fp16"],
            )
            requests.append((prompt, params))
        engine = Engine(
            model,
            EngineConfig(
                max_batch_tokens=40,
                max_batch_size=6,
                kv_pool_blocks=24,
                kv_block_size=16,
            ),
        )
        handles = [engine.submit(prompt, params) for prompt, params in requests]
        engine.run_until_idle(max_steps=5000)
        metrics = engine.metrics()
        assert metrics.preemptions > 0 and metrics.partial_prefills > 0
        for (prompt, params), handle in zip(requests, handles):
            expected = generate(
                model,
                prompt,
                params=params,
                cache_factory=params.kv_format.cache_factory(model),
            )
            np.testing.assert_array_equal(handle.result().tokens, expected.tokens)


class TestMixedSteps:
    def test_long_prompt_chunks_ride_with_decodes(self, model):
        rng = np.random.default_rng(1)
        engine = Engine(model, chunked_config(max_batch_tokens=8))
        short = engine.submit(
            rng.integers(0, 256, size=4), SamplingParams(max_new_tokens=12)
        )
        engine.step()  # short prompt prefills whole, starts decoding
        chunked = engine.submit(
            rng.integers(0, 256, size=40), SamplingParams(max_new_tokens=4)
        )
        mixed = engine.step().report
        # One decode and one partial chunk share the step.
        assert mixed.decodes == 1
        assert mixed.prefills == 1
        assert mixed.partial_prefills == 1
        assert 0 < mixed.prefill_tokens <= 7  # budget 8 minus one decode
        state = engine._waiting[0]
        assert state.status is RequestStatus.PREFILLING
        assert 0 < state.prefill_pos < 40
        done = finished_results(engine, [short, chunked])
        assert len(done) == 2

    def test_prefill_pos_tracks_progress_to_first_token(self, model):
        rng = np.random.default_rng(2)
        prompt = rng.integers(0, 256, size=30)
        engine = Engine(model, chunked_config(max_batch_tokens=8))
        handle = engine.submit(prompt, SamplingParams(max_new_tokens=2))
        positions = []
        state = engine._waiting[0]
        while state.status is not RequestStatus.RUNNING:
            engine.step()
            positions.append(state.prefill_pos)
        # Monotone progress in budget-sized strides, TTFT at completion.
        assert positions == [8, 16, 24, 30]
        assert state.first_token_step == 3
        expected = generate(model, prompt, 2)
        engine.run_until_idle()
        np.testing.assert_array_equal(handle.result().tokens, expected.tokens)

    def test_ttft_steps_scale_with_budget(self, model):
        # The max_batch_tokens dial: a bigger budget means fewer chunk
        # steps before the first token.
        rng = np.random.default_rng(4)
        prompt = rng.integers(0, 256, size=48)
        ttfts = {}
        for budget in (8, 48):
            engine = Engine(model, chunked_config(max_batch_tokens=budget))
            engine.submit(prompt, SamplingParams(max_new_tokens=2))
            engine.run_until_idle()
            ttfts[budget] = engine.metrics().requests[0].ttft_steps
        assert ttfts[48] == 0
        assert ttfts[8] == 5  # ceil(48 / 8) - 1 extra steps

    def test_chunk_failure_rolls_back_cleanly(self, model):
        # A mid-step model failure in the chunk lane must not corrupt
        # running decodes or leak the chunk's cache; the request stays
        # queued and servable.
        rng = np.random.default_rng(6)
        engine = Engine(
            model,
            chunked_config(max_batch_tokens=8, kv_pool_blocks=32, kv_block_size=4),
        )
        short = engine.submit(
            rng.integers(0, 256, size=4), SamplingParams(max_new_tokens=6)
        )
        engine.step()
        free_before = engine._pool.free_blocks
        chunked = engine.submit(
            rng.integers(0, 256, size=30), SamplingParams(max_new_tokens=2)
        )

        real = engine.model.forward_mixed_step

        def failing(*args, **kwargs):
            raise ModelError("injected chunk failure")

        engine.model.forward_mixed_step = failing
        try:
            with pytest.raises(ModelError, match="injected"):
                engine.step()
        finally:
            engine.model.forward_mixed_step = real
        state = engine._waiting[0]
        assert state.status is RequestStatus.WAITING
        assert state.prefill_pos == 0
        assert state.kv is None
        assert engine._pool.free_blocks == free_before  # no block leak
        done = finished_results(engine, [short, chunked], max_steps=50)
        assert sorted(done) == [0, 1]

    @pytest.mark.parametrize("family", ["opt", "llama"])
    def test_late_layer_chunk_failure_rolls_back_decode_rows(
        self, model, llama, family, monkeypatch
    ):
        # Decode rows and chunks advance through the layers together,
        # so a failure in a chunk row of the last layer finds every
        # decode row's K/V already landed in every layer.  The engine
        # must roll each decode row back to its pre-step length and
        # release the chunk before re-raising; afterwards it serves
        # everyone bitwise and leaks no block.
        model = {"opt": model, "llama": llama}[family]
        rng = np.random.default_rng(12)
        prompts = [rng.integers(0, 256, size=n) for n in (3, 4, 30)]
        engine = Engine(
            model,
            chunked_config(max_batch_tokens=8, kv_pool_blocks=32, kv_block_size=4),
        )
        params = SamplingParams(max_new_tokens=6)
        handles = [engine.submit(prompt, params) for prompt in prompts[:2]]
        engine.step()
        running = list(engine._running)
        assert len(running) == 2
        lengths = [[cache.length for cache in state.kv.caches] for state in running]
        assert all(len(set(layers)) == 1 for layers in lengths)
        free_before = engine._pool.free_blocks
        handles.append(engine.submit(prompts[2], params))

        last = model.blocks[-1].attention
        real = MultiHeadAttention.step_mixed

        def failing(self, *args, **kwargs):
            if self is last:
                raise RuntimeError("late-layer chunk failure")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(MultiHeadAttention, "step_mixed", failing)
        with pytest.raises(RuntimeError, match="late-layer"):
            engine.step()
        monkeypatch.undo()

        after = [[cache.length for cache in state.kv.caches] for state in running]
        assert after == lengths
        assert [state.context_length for state in running] == [
            layers[0] for layers in lengths
        ]
        (waiting,) = engine._waiting
        assert waiting.status is RequestStatus.WAITING
        assert waiting.kv is None and waiting.prefill_pos == 0
        assert engine._pool.free_blocks == free_before
        done = finished_results(engine, handles, max_steps=50)
        assert sorted(done) == [0, 1, 2]
        assert engine._pool.leaked_blocks() == 0
        for prompt, handle in zip(prompts, handles):
            expected = generate(model, prompt, 6).tokens
            np.testing.assert_array_equal(done[handle.request_id].tokens, expected)

    def test_half_prefilled_request_preempted_under_pool_pressure(self, model):
        # Decode growth outranks a half-prefilled prompt: when the pool
        # runs dry, the (latest-arrived) half-prefilled request loses
        # its partial cache, restarts from scratch, and still finishes
        # with bitwise-identical tokens.  The waiting queue stays sorted
        # by request id (arrival) through every preemption.
        rng = np.random.default_rng(8)
        shorts = [rng.integers(0, 256, size=4) for _ in range(3)]
        long_prompt = rng.integers(0, 256, size=24)
        engine = Engine(
            model,
            chunked_config(
                max_batch_tokens=8,
                max_batch_size=8,
                kv_pool_blocks=10,
                kv_block_size=4,
                prefix_caching=False,
            ),
        )
        handles = [
            engine.submit(prompt, SamplingParams(max_new_tokens=12))
            for prompt in shorts
        ]
        handles.append(engine.submit(long_prompt, SamplingParams(max_new_tokens=2)))
        for _ in range(200):
            if not engine.has_work():
                break
            engine.step()
            ids = [state.request.request_id for state in engine._waiting]
            assert ids == sorted(ids)
        assert not engine.has_work()
        done = {handle.request_id: handle.result() for handle in handles}
        assert engine.metrics().preemptions > 0
        for index, prompt in enumerate(shorts + [long_prompt]):
            count = 12 if index < 3 else 2
            expected = generate(model, prompt, count)
            np.testing.assert_array_equal(done[index].tokens, expected.tokens)


class TestNoStarvation:
    def test_huge_prompt_never_stalls_decodes(self, model):
        # FCFS, one huge prompt behind steady short arrivals: once
        # chunking is on, every step with running requests makes decode
        # progress — the huge prefill never monopolizes a step — and
        # first-token progress happens every step (a decode, a chunk
        # advancing toward a first token, or both).
        rng = np.random.default_rng(9)
        engine = Engine(model, chunked_config(max_batch_tokens=8, max_batch_size=4))
        engine.submit(rng.integers(0, 256, size=4), SamplingParams(max_new_tokens=20))
        engine.step()
        monster = rng.integers(0, 256, size=120)
        engine.submit(monster, SamplingParams(max_new_tokens=2))
        stalled = 0
        steps = 0
        while engine.has_work() and steps < 200:
            had_running = bool(engine._running)
            report = engine.step().report
            steps += 1
            if had_running and report.decodes == 0:
                stalled += 1
            assert report.decodes > 0 or report.prefill_tokens > 0
        assert stalled == 0
        assert not engine.has_work()

    def test_whole_prompt_budget_huge_prompt_does_stall(self, model):
        # The contrast case.  A budget >= the longest prompt prefills it
        # monolithically, sharing one step with running decodes —
        # stalling them for the whole 120-token forward.  A small
        # budget's chunked steps never exceed it.
        rng = np.random.default_rng(9)
        short = rng.integers(0, 256, size=4)
        monster = rng.integers(0, 256, size=120)
        worst_step_work = {}
        for chunked, budget in ((False, 128), (True, 16)):
            engine = Engine(
                model, chunked_config(max_batch_tokens=budget, max_batch_size=4)
            )
            engine.submit(short, SamplingParams(max_new_tokens=20))
            engine.step()
            engine.submit(monster, SamplingParams(max_new_tokens=2))
            worst = 0
            steps = 0
            while engine.has_work() and steps < 300:
                report = engine.step().report
                steps += 1
                if report.decodes > 0:
                    worst = max(worst, report.decodes + report.prefill_tokens)
            worst_step_work[chunked] = worst
        assert worst_step_work[False] >= 121  # prefill rode whole with a decode
        assert worst_step_work[True] <= 16  # chunked never exceeds the budget

    def test_short_arrivals_keep_flowing_during_long_prefill(self, model):
        # Shorter requests submitted while the monster prefills still
        # finish promptly (they are behind it in FCFS order, so they
        # wait for its first token, but decodes already running never
        # stop).
        rng = np.random.default_rng(10)
        engine = Engine(model, chunked_config(max_batch_tokens=12, max_batch_size=4))
        first = engine.submit(
            rng.integers(0, 256, size=4), SamplingParams(max_new_tokens=30)
        )
        engine.step()
        monster = engine.submit(
            rng.integers(0, 256, size=100), SamplingParams(max_new_tokens=2)
        )
        for _ in range(4):
            engine.step()
        done = finished_results(engine, [first, monster], max_steps=100)
        assert first.request_id in done


class TestLatencyMetrics:
    def test_ttft_and_itl_percentiles_populate(self, model, prompts):
        engine = Engine(model, chunked_config())
        serve(model, prompts, max_new_tokens=6, engine=engine)
        metrics = engine.metrics()
        assert 0.0 < metrics.ttft_p50_seconds <= metrics.ttft_p95_seconds
        assert 0.0 < metrics.itl_p50_seconds <= metrics.itl_p95_seconds
        for record in metrics.requests:
            assert len(record.itl_seconds) == record.generated_tokens - 1
            assert all(gap >= 0.0 for gap in record.itl_seconds)

    def test_percentiles_empty_engine_are_zero(self, model):
        metrics = Engine(model, chunked_config()).metrics()
        assert metrics.ttft_p95_seconds == 0.0
        assert metrics.itl_p95_seconds == 0.0


class TestDrainDiagnostics:
    def test_drain_timeout_names_stuck_request_ids(self, model):
        engine = Engine(model, EngineConfig())
        params = SamplingParams(max_new_tokens=8)
        first = engine.submit(np.arange(4, dtype=np.int64), params).request_id
        second = engine.submit(np.arange(6, dtype=np.int64), params).request_id
        with pytest.raises(ModelError, match=rf"{first}, {second}"):
            engine.run_until_idle(max_steps=2)

    def test_no_progress_error_names_stuck_request_ids(self, model, monkeypatch):
        import repro.serve.engine as engine_module
        from repro.serve.scheduler import StepPlan

        engine = Engine(model, EngineConfig())
        stuck = engine.submit(
            np.arange(4, dtype=np.int64), SamplingParams(max_new_tokens=4)
        ).request_id
        monkeypatch.setattr(
            engine_module,
            "plan_step",
            lambda *args, **kwargs: StepPlan(decodes=[], prefills=[]),
        )
        with pytest.raises(ModelError, match=rf"stuck request ids: {stuck}"):
            engine.run_until_idle()
