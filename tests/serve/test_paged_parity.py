"""Paged-engine tests: bitwise parity, prefix sharing, preemption.

The acceptance bar for the KV pool: the engine (FP16 and Anda formats)
emits tokens bitwise identical to sequential ``generate()`` — through
block-granular storage of any block size, prefix-cache sharing,
copy-on-write forks, and preemption's swap-out/swap-in (a swapped
request's bytes return bitwise, and its tokens equal a never-preempted
twin's).  Shared-prefix workloads must show measurable prefill-compute
and simulated-DRAM savings, and a memory-pressure run must preempt yet
still finish every request.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.errors import ModelError
from repro.llm.config import tiny_test_config
from repro.llm.generation import generate
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.serve import (
    Engine,
    EngineConfig,
    FaultPlan,
    FaultRule,
    RequestStatus,
    RetryPolicy,
    SamplingParams,
)
from repro.serve.kvpool import paged as paged_module
from oracles import gather_reference
from serving_helpers import assert_matches_generate, finished_results, serve


@pytest.fixture(scope="module")
def model():
    return build_model(tiny_test_config("opt", d_model=32, n_layers=2))


@pytest.fixture(scope="module")
def llama():
    return build_model(tiny_test_config("llama", d_model=32, n_layers=2))


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(42)
    return [rng.integers(0, 256, size=length) for length in (5, 11, 3, 17)]


def paged_config(**overrides):
    defaults = dict(kv_pool_blocks=32, kv_block_size=4)
    defaults.update(overrides)
    return EngineConfig(**defaults)


#: Pool geometries: small blocks in a small pool, and the engine default.
POOLS = [
    pytest.param(dict(kv_pool_blocks=32, kv_block_size=4), id="blocks4x32"),
    pytest.param({}, id="default-pool"),
]


class TestPagedParity:
    @pytest.mark.parametrize("pool", POOLS)
    @pytest.mark.parametrize("kv_mode", ["fp16", "anda"])
    def test_paged_tokens_match_sequential_generate(
        self, model, prompts, kv_mode, pool
    ):
        fmt = KVFormat(mode=kv_mode, mantissa_bits=6)
        config = EngineConfig(kv_format=fmt, **pool)
        results = serve(model, prompts, max_new_tokens=8, config=config)
        assert_matches_generate(model, prompts, results, 8, fmt)

    @pytest.mark.parametrize("kv_mode", ["fp16", "anda"])
    def test_rotary_family_paged_parity(self, llama, prompts, kv_mode):
        fmt = KVFormat(mode=kv_mode, mantissa_bits=6)
        results = serve(
            llama, prompts, max_new_tokens=8, config=paged_config(kv_format=fmt)
        )
        assert_matches_generate(llama, prompts, results, 8, fmt)

    @pytest.mark.parametrize("block_size", [1, 3, 64])
    def test_block_size_never_changes_tokens(self, model, prompts, block_size):
        # Anda groups per position along the head dimension, so even
        # unaligned block sizes stay bitwise exact.
        fmt = KVFormat.anda(6)
        results = serve(
            model,
            prompts,
            max_new_tokens=6,
            config=paged_config(
                kv_format=fmt, kv_block_size=block_size, kv_pool_blocks=64
            ),
        )
        assert_matches_generate(model, prompts, results, 6, fmt)

    def test_sampled_decoding_parity(self, model, prompts):
        paged = serve(
            model, prompts, max_new_tokens=8, temperature=1.0, seed=9,
            config=paged_config(),
        )
        assert_matches_generate(model, prompts, paged, 8, temperature=1.0, seed=9)


class TestPrefixSharing:
    def shared_prompts(self, count=4, common=12, tail=3, seed=0):
        rng = np.random.default_rng(seed)
        system = rng.integers(0, 256, size=common)
        return [
            np.concatenate([system, rng.integers(0, 256, size=tail)])
            for _ in range(count)
        ]

    def test_shared_prefix_hits_and_parity(self, model):
        prompts = self.shared_prompts()
        engine = Engine(model, paged_config())
        results = serve(model, prompts, max_new_tokens=6, engine=engine)
        assert_matches_generate(model, prompts, results, 6)
        metrics = engine.metrics()
        # 3 of 4 requests share the 12-token system prompt's 3 blocks.
        assert metrics.prefix_hit_tokens == 3 * 12
        assert metrics.prefix_saved_bytes > 0

    def test_shared_prefix_saves_prefill_compute_and_traffic(self, model):
        prompts = self.shared_prompts(count=6, common=16, tail=2)
        with_cache = Engine(model, paged_config(kv_pool_blocks=64))
        without_cache = Engine(
            model, paged_config(kv_pool_blocks=64, prefix_caching=False)
        )
        results = serve(model, prompts, 4, engine=with_cache)
        baseline = serve(model, prompts, 4, engine=without_cache)
        assert_matches_generate(model, prompts, results, 4)
        assert_matches_generate(model, prompts, baseline, 4)
        hit, miss = with_cache.metrics(), without_cache.metrics()
        assert hit.prefix_hit_tokens >= 5 * 16
        assert miss.prefix_hit_tokens == 0
        # Prefill work and simulated DRAM both shrink with sharing.
        assert hit.prefill_tokens < miss.prefill_tokens
        assert hit.traffic.kv_write_bytes < miss.traffic.kv_write_bytes
        # Gross savings (avoided writes + activations) bound the net
        # delta from above: a suffix chunk re-reads the shared context
        # it attends over.
        saved_net = miss.traffic.total_bytes - hit.traffic.total_bytes
        assert 0 < saved_net <= hit.prefix_saved_bytes

    def test_identical_prompts_fork_copy_on_write(self, model):
        # A block-aligned duplicated prompt shares all but its final
        # token; writing that token must fork the partial shared block.
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, 256, size=8)
        engine = Engine(model, paged_config())
        results = serve(
            model, [prompt.copy() for _ in range(3)], 5, engine=engine
        )
        assert engine._pool.cow_forks >= 2
        expected = generate(model, prompt, 5)
        for result in results:
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_prefix_cache_survives_request_completion(self, model):
        prompt = np.arange(10, dtype=np.int64)
        engine = Engine(model, paged_config())
        serve(model, [prompt], 4, engine=engine)
        assert engine._pool.reclaimable_blocks > 0  # cached, evictable
        serve(model, [prompt.copy()], 4, engine=engine)
        assert engine.metrics().prefix_hit_tokens == 8  # 2 full blocks


class TestPreemption:
    def test_memory_pressure_preempts_and_completes(self, model):
        rng = np.random.default_rng(11)
        prompts = [rng.integers(0, 256, size=6) for _ in range(5)]
        # 8 blocks x 4 positions = 32 slots for 5 x 16 = 80 positions.
        engine = Engine(
            model,
            paged_config(kv_pool_blocks=8, max_batch_tokens=128),
        )
        results = serve(model, prompts, max_new_tokens=10, engine=engine)
        metrics = engine.metrics()
        assert metrics.preemptions > 0
        assert len(results) == len(prompts)
        assert_matches_generate(model, prompts, results, 10)

    def test_preempted_sampled_requests_resume_bitwise(self, model):
        rng = np.random.default_rng(13)
        prompts = [rng.integers(0, 256, size=5) for _ in range(4)]
        engine = Engine(
            model,
            paged_config(kv_pool_blocks=6, prefix_caching=False),
        )
        results = serve(
            model, prompts, max_new_tokens=12, temperature=1.0, seed=3,
            engine=engine,
        )
        assert engine.metrics().preemptions > 0
        for prompt, result in zip(prompts, results):
            expected = generate(model, prompt, 12, temperature=1.0, seed=3)
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_preemption_evicts_latest_arrival_first(self, model):
        rng = np.random.default_rng(17)
        prompts = [rng.integers(0, 256, size=6) for _ in range(4)]
        engine = Engine(model, paged_config(kv_pool_blocks=8))
        params = SamplingParams(max_new_tokens=10)
        handles = [engine.submit(prompt, params) for prompt in prompts]
        first = handles[0]
        # Step until the first preemption: the earliest arrival must
        # still be resident (latest-arrival-first victim selection).
        for _ in range(200):
            if engine.step().report.preemptions:
                break
        else:
            pytest.fail("undersized pool never preempted")
        running_ids = {state.request.request_id for state in engine._running}
        assert first.request_id in running_ids
        results = finished_results(engine, handles, max_steps=400)
        assert sorted(results) == [0, 1, 2, 3]  # everyone still completes

    def test_oversized_request_rejected_at_submit(self, model):
        engine = Engine(model, paged_config(kv_pool_blocks=4))
        with pytest.raises(ModelError):
            # 4 blocks x 4 tokens = 16 slots, minus one CoW slack block.
            engine.submit(
                np.arange(10, dtype=np.int64), SamplingParams(max_new_tokens=6)
            )
        assert not engine.has_work()


class TestMidStepFailureRecovery:
    def test_failed_swap_in_keeps_image_and_leaks_nothing(self, model, monkeypatch):
        # An unknown failure mid swap-in (after layer 0 landed) must
        # propagate, but leave the request queued with its image and
        # no blocks, the running decode untouched, and both servable
        # afterwards.  (The chunk-lane recovery is pinned in
        # test_chunked_prefill.)
        plan = FaultPlan(
            rules=(FaultRule(site="model.decode", kind="transient", request_id=1),)
        )
        engine = Engine(
            model,
            paged_config(faults=plan, retry=RetryPolicy(backoff_steps=0)),
        )
        prompts = [np.arange(4, dtype=np.int64), np.arange(6, dtype=np.int64)]
        resident = engine.submit(prompts[0], SamplingParams(max_new_tokens=3))
        swapped = engine.submit(prompts[1], SamplingParams(max_new_tokens=3))
        engine.step()  # both prefill and emit token 1
        engine.step()  # decode faults on request 1: step abandoned, 1 backs off
        state = swapped._state
        assert state.generated and state.kv is None
        image = state.kv_image
        assert image is not None and image.length == 6
        free = engine._pool.free_blocks

        real_append = paged_module.PagedKVCache.append_precompressed
        landed = []

        def failing_append(cache, k, v):
            if landed:
                raise ModelError("injected swap-in failure")
            landed.append(real_append(cache, k, v))
            return landed[-1]

        monkeypatch.setattr(
            paged_module.PagedKVCache, "append_precompressed", failing_append
        )
        with pytest.raises(ModelError, match="injected"):
            engine.step()  # the swap-in runs before any decode
        monkeypatch.undo()
        assert len(landed) == 1  # layer 0 took its blocks first
        assert engine._waiting == [state]
        assert state.kv is None and state.kv_image is image
        assert engine._pool.free_blocks == free
        assert [s.request.request_id for s in engine._running] == [0]
        done = finished_results(engine, [resident, swapped], max_steps=20)
        assert sorted(done) == [0, 1]  # both still serve
        for prompt, result in zip(prompts, done.values()):
            expected = generate(model, prompt, 3)
            np.testing.assert_array_equal(result.tokens, expected.tokens)
        assert engine._pool.leaked_blocks() == 0


#: KV formats for the swap tests: (engine default, odd requests' override).
SWAP_FORMATS = [
    pytest.param(KVFormat.fp16(), None, id="fp16"),
    pytest.param(KVFormat.anda(8), None, id="anda8"),
    pytest.param(KVFormat.fp16(), KVFormat.anda(8), id="mixed"),
]


class TestSwap:
    """Preemption swaps a request's stored KV out and back, bitwise."""

    @staticmethod
    def prompts():
        rng = np.random.default_rng(5)
        return [rng.integers(0, 256, size=n) for n in (21, 18, 25, 9, 14)]

    @staticmethod
    def submit_all(engine, prompts, override):
        return [
            engine.submit(
                prompt,
                SamplingParams(
                    max_new_tokens=12,
                    temperature=0.8 if index % 2 else 0.0,
                    seed=index,
                    kv_format=override if index % 2 else None,
                ),
            )
            for index, prompt in enumerate(prompts)
        ]

    @staticmethod
    def engine(model, fmt, blocks):
        # Budget 8: every prompt spans at least two chunks.
        return Engine(
            model,
            EngineConfig(
                kv_format=fmt,
                kv_block_size=4,
                max_batch_tokens=8,
                kv_pool_blocks=blocks,
            ),
        )

    @staticmethod
    def snapshot(state):
        """A running request's pool bytes and residency, per layer."""
        seq = state.kv
        length = seq.length
        return length, [
            (
                tuple(part.tobytes() for part in gather_reference(seq, layer, length)),
                tuple(part.tobytes() for part in seq.caches[layer].read(length)),
            )
            for layer in range(len(seq.caches))
        ]

    @pytest.mark.parametrize("fmt, override", SWAP_FORMATS)
    def test_swap_in_restores_pool_bytes_and_residency_bitwise(
        self, model, fmt, override
    ):
        engine = self.engine(model, fmt, blocks=12)
        handles = self.submit_all(engine, self.prompts(), override)
        before: dict[int, tuple] = {}
        swapped_in = 0
        while engine.has_work():
            images = {
                state.request.request_id: state.kv_image.length
                for state in engine._waiting
                if state.kv_image is not None
            }
            for state in engine._running:
                before[state.request.request_id] = self.snapshot(state)
            outputs = engine.step()
            for state in engine._running:
                request_id = state.request.request_id
                if request_id not in images:
                    continue
                swapped_in += 1
                # Swapped in and decoded in the step that admitted it.
                assert any(
                    delta.request_id == request_id for delta in outputs.deltas
                )
                length, layers = before[request_id]
                assert images[request_id] == length
                assert state.kv.shared_tokens == 0
                for layer, (stored, resident) in enumerate(layers):
                    seq = state.kv
                    pool_now = gather_reference(seq, layer, length)
                    assert tuple(p.tobytes() for p in pool_now) == stored
                    resident_now = seq.caches[layer].read(length)
                    assert tuple(p.tobytes() for p in resident_now) == resident
        assert swapped_in >= 1
        assert all(h.status() is RequestStatus.FINISHED for h in handles)
        assert engine._pool.leaked_blocks() == 0

    @pytest.mark.parametrize("fmt, override", SWAP_FORMATS)
    @pytest.mark.parametrize("blocks", [11, 14])
    def test_swapped_requests_match_a_never_preempted_twin(
        self, model, fmt, override, blocks
    ):
        engine = self.engine(model, fmt, blocks=blocks)
        handles = self.submit_all(engine, self.prompts(), override)
        engine.run_until_idle(max_steps=500)
        twin = self.engine(model, fmt, blocks=64)
        twin_handles = self.submit_all(twin, self.prompts(), override)
        twin.run_until_idle(max_steps=500)
        assert engine.metrics().preemptions > 0
        assert twin.metrics().preemptions == 0
        for ours, theirs in zip(handles, twin_handles):
            np.testing.assert_array_equal(ours.result().tokens, theirs.result().tokens)
        assert engine._pool.leaked_blocks() == 0
        assert all(handle._state.kv_image is None for handle in handles)

    @staticmethod
    def swapped_engine(model, rules=(), backoff=8):
        """Request 1 backed off mid-decode, holding its KV as an image."""
        plan = FaultPlan(
            rules=(FaultRule(site="model.decode", request_id=1, step=2), *rules)
        )
        engine = Engine(
            model,
            paged_config(
                faults=plan, retry=RetryPolicy(backoff_steps=backoff, max_retries=2)
            ),
        )
        handles = [
            engine.submit(np.arange(5 + index, dtype=np.int64), PARAMS)
            for index in range(3)
        ]
        for _ in range(3):
            engine.step()
        state = handles[1]._state
        assert state.status is RequestStatus.WAITING
        assert state.kv is None and state.kv_image is not None
        return engine, handles

    def test_abort_while_swapped_drops_the_image(self, model):
        engine, handles = self.swapped_engine(model)
        assert handles[1].abort()
        assert handles[1]._state.kv_image is None
        engine.run_until_idle(max_steps=100)
        assert engine._pool.leaked_blocks() == 0

    def test_deadline_while_swapped_drops_the_image(self, model):
        engine, handles = self.swapped_engine(model)
        handles[1]._state.deadline = 0.0  # long past
        engine.step()
        state = handles[1]._state
        assert state.status is RequestStatus.FAILED
        assert state.finish_reason == "deadline"
        assert state.kv_image is None
        engine.run_until_idle(max_steps=100)
        assert engine._pool.leaked_blocks() == 0

    def test_quarantine_at_swap_in_drops_the_image(self, model):
        rule = FaultRule(site="model.prefill", kind="permanent", request_id=1)
        engine, handles = self.swapped_engine(model, rules=(rule,), backoff=0)
        engine.step()  # the swap-in faults permanently
        state = handles[1]._state
        assert state.status is RequestStatus.FAILED
        assert state.kv is None and state.kv_image is None
        engine.run_until_idle(max_steps=100)
        assert engine._pool.leaked_blocks() == 0

    def test_finish_after_swap_in_drops_the_image(self, model):
        engine, handles = self.swapped_engine(model, backoff=0)
        engine.run_until_idle(max_steps=100)
        state = handles[1]._state
        assert state.status is RequestStatus.FINISHED
        assert state.kv is None and state.kv_image is None
        np.testing.assert_array_equal(
            handles[1].result().tokens, generate(model, np.arange(6), 6).tokens
        )
        assert engine._pool.leaked_blocks() == 0

    def test_preempt_resume_cycles_leave_allocations_flat(self, model):
        # Handles outlive their requests (a client may hold them for
        # ever), so a terminal path that kept an image would pin it.
        # Each cycle swaps requests out and back, aborts one while it
        # is swapped out, and drains; what the pool's sequences still
        # hold allocated afterwards must not grow with the cycles.
        engine = self.engine(model, KVFormat.fp16(), blocks=11)
        held = []
        retained = []
        tracemalloc.start()
        try:
            for _ in range(4):
                handles = self.submit_all(engine, self.prompts(), None)
                held.extend(handles)
                aborted = False
                while engine.has_work():
                    engine.step()
                    swapped = [s for s in engine._waiting if s.kv_image is not None]
                    if swapped and not aborted:
                        aborted = engine.abort(swapped[-1].request.request_id)
                assert aborted
                gc.collect()  # a sequence and its layer caches form a cycle
                snapshot = tracemalloc.take_snapshot().filter_traces(
                    [tracemalloc.Filter(True, paged_module.__file__)]
                )
                stats = snapshot.statistics("filename")
                retained.append(sum(stat.size for stat in stats))
        finally:
            tracemalloc.stop()
        assert max(retained) <= retained[0]
        assert engine.metrics().preemptions >= 4
        assert engine._pool.leaked_blocks() == 0


PARAMS = SamplingParams(max_new_tokens=6)


class TestDrainGuard:
    def test_drain_max_steps_raises_instead_of_spinning(self, model):
        engine = Engine(model, EngineConfig())
        engine.submit(np.arange(4, dtype=np.int64), SamplingParams(max_new_tokens=8))
        with pytest.raises(ModelError):
            engine.run_until_idle(max_steps=2)

    def test_drain_max_steps_validates(self, model):
        engine = Engine(model, EngineConfig())
        with pytest.raises(ModelError):
            engine.run_until_idle(max_steps=0)

    def test_generous_max_steps_drains_normally(self, model, prompts):
        engine = Engine(model, EngineConfig())
        handle = engine.submit(prompts[0], SamplingParams(max_new_tokens=3))
        engine.run_until_idle(max_steps=50)
        assert handle.finished

    def test_starved_queue_raises_clear_error(self, model, monkeypatch):
        # Simulate a scheduler bug: a plan that never admits or decodes.
        import repro.serve.engine as engine_module
        from repro.serve.scheduler import StepPlan

        engine = Engine(model, EngineConfig())
        engine.submit(np.arange(4, dtype=np.int64), SamplingParams(max_new_tokens=4))
        monkeypatch.setattr(
            engine_module,
            "plan_step",
            lambda *args, **kwargs: StepPlan(decodes=[], prefills=[]),
        )
        with pytest.raises(ModelError, match="no progress"):
            engine.run_until_idle()


class TestPoolConfigValidation:
    def test_bad_pool_sizes_rejected(self):
        with pytest.raises(ModelError):
            EngineConfig(kv_pool_blocks=1)
        with pytest.raises(ModelError):
            EngineConfig(kv_block_size=0)

    @pytest.mark.parametrize(
        "lane,size",
        [
            ("kv_pool", "kv_pool_blocks"),
            ("chunked_prefill", "max_batch_tokens"),
            ("grouped_attention", "exact-length launch per request"),
        ],
    )
    def test_removed_lanes_raise_naming_the_size(self, lane, size):
        # One serving lane: the old mode booleans accept only True, and
        # False says which size expresses the old behaviour instead.
        with pytest.raises(ModelError, match=size):
            EngineConfig(**{lane: False})

    def test_pool_metrics_counters_zero_without_pressure(self, model, prompts):
        engine = Engine(model, EngineConfig())
        serve(model, prompts[:2], 3, engine=engine)
        metrics = engine.metrics()
        assert metrics.preemptions == 0
        assert metrics.evicted_blocks == 0
        assert metrics.prefix_hit_tokens == 0
        assert metrics.prefix_saved_bytes == 0.0
