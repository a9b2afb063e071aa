"""The batched decode lane: one pool scatter and one attention loop per layer.

``MultiHeadAttention.step_batch`` lands every decode row's K/V through
one ``KVCache.append_batch`` call — for paged caches one fancy-index
scatter per tensor into the pool — then runs every row's ``M == 1``
``_attention_core`` launch in one loop, writing each context row in
place.  Each row must stay bitwise identical to the per-row path:
``append_precompressed`` (``SequenceKV.write``'s block loop) plus its
own ``_attention_core`` launch, which is what the row decoded alone —
a ``forward_decode_batch`` batch of one, as sequential ``generate``
decodes — runs.  These tests pin that property over ragged
batches, formats, block boundaries and copy-on-write forks; the
rollback of a fault that fires after the scatter; and the decode and
chunk lanes' process-wide memos under two engines on two threads.

Comparisons use ``tobytes()`` — bit equality, not ``==``.
"""

import math
import sys
import threading
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.llm import attention as attention_module
from repro.llm.attention import AttentionDispatchStats, KVHotPathStats, stats_scope
from repro.llm.config import tiny_test_config
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.serve import Engine, EngineConfig, SamplingParams
from repro.serve.faults import FaultPlan, FaultRule, RetryPolicy
from repro.serve.kvpool import paged as paged_module
from repro.serve.kvpool.paged import PagedKVCache, SequenceKV
from repro.serve.kvpool.pool import KVPool

BLOCK = 4
MODELS = {
    family: build_model(tiny_test_config(family, d_model=32, n_layers=2, seed=29))
    for family in ("opt", "llama")
}


def bitwise_equal(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and left.tobytes() == right.tobytes()


def make_pool(model, fmt: KVFormat) -> KVPool:
    return KVPool(model.config, num_blocks=256, block_size=BLOCK, codec=fmt.codec())


def build_side(model, fmt, lengths, mixed, share, seed):
    """One pool plus the decode batch's sequences, prefilled.

    ``mixed`` gives every other row an anda(8) override on an fp16
    pool; ``share`` adds an unprefilled row that maps a donor's prompt
    prefix mid-block, so its first decode write forks the shared block
    and its first read fetches the prefix from the pool.
    """
    pool = make_pool(model, fmt)
    rng = np.random.default_rng(seed)
    sequences = []
    override = KVFormat.anda(8).codecs(model.config.n_layers)
    for index, length in enumerate(lengths):
        prompt = rng.integers(0, 255, size=length)
        odd = mixed and index % 2 == 1
        sequence = pool.create_sequence(
            prompt,
            codecs=override if odd else None,
            shareable=not odd,
            reserved=0 if index % 3 == 0 else length + 4,
        )
        model.forward_step(prompt[None, sequence.shared_tokens :], sequence.caches)
        sequences.append(sequence)
    if share:
        donor_prompt = rng.integers(0, 255, size=3 * BLOCK)
        donor = pool.create_sequence(donor_prompt)
        model.forward_step(donor_prompt[None], donor.caches)
        pool.register_prefix(donor, donor_prompt)
        # The hit is capped one short of the prompt (its last token
        # needs logits): 2 * BLOCK - 1 shared positions, ending inside
        # the donor's second block, which the first decode write forks.
        sharer = pool.create_sequence(donor_prompt[: 2 * BLOCK])
        assert sharer.shared_tokens == 2 * BLOCK - 1
        sequences.append(sharer)
    return pool, sequences


def written_slots(pool: KVPool, sequence: SequenceKV, layer: int):
    """The pool bytes of every position the sequence holds, in order."""
    keys, values = [], []
    for position in range(sequence.length):
        block = sequence.block_table[position // BLOCK]
        keys.append(pool.keys[layer, block, :, position % BLOCK].tobytes())
        values.append(pool.values[layer, block, :, position % BLOCK].tobytes())
    return keys, values


class TestBatchedDecodeBitwise:
    """The batched lane against each row decoded alone on a twin pool."""

    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["opt", "llama"]),
        lengths=st.lists(st.integers(1, 24), min_size=1, max_size=16),
        fmt_name=st.sampled_from(["fp16", "anda", "mixed"]),
        share=st.booleans(),
        steps=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @example(
        family="opt", lengths=[1], fmt_name="fp16", share=False, steps=2, seed=0
    )
    # Rows at BLOCK and 2 * BLOCK open a new block on their first step.
    @example(
        family="llama",
        lengths=[1, BLOCK, 2 * BLOCK, 7] + [3] * 12,
        fmt_name="mixed",
        share=True,
        steps=3,
        seed=1,
    )
    def test_batched_lane_matches_per_row(
        self, family, lengths, fmt_name, share, steps, seed
    ):
        model = MODELS[family]
        fmt = KVFormat.anda(8) if fmt_name == "anda" else KVFormat.fp16()
        mixed = fmt_name == "mixed"
        pool_a, batched = build_side(model, fmt, lengths, mixed, share, seed)
        pool_b, per_row = build_side(model, fmt, lengths, mixed, share, seed)
        assert 1 <= len(batched) <= 17
        rng = np.random.default_rng(seed + 1)
        for _ in range(steps):
            tokens = rng.integers(0, 255, size=(len(batched), 1))
            hot_a, hot_b = KVHotPathStats(), KVHotPathStats()
            with stats_scope(hot_a, AttentionDispatchStats()):
                logits = model.forward_decode_batch(
                    tokens, [sequence.caches for sequence in batched]
                )
            with stats_scope(hot_b, AttentionDispatchStats()):
                expected = [
                    model.forward_decode_batch(
                        tokens[index : index + 1], [sequence.caches]
                    )
                    for index, sequence in enumerate(per_row)
                ]
            for index, row in enumerate(expected):
                assert bitwise_equal(logits[index], row[0]), f"row {index}"
            assert hot_a.snapshot() == hot_b.snapshot()
        assert pool_a.cow_forks == pool_b.cow_forks
        if share:
            assert pool_a.cow_forks >= 1
        for left, right in zip(batched, per_row):
            assert left.length == right.length
            for layer in range(model.config.n_layers):
                assert written_slots(pool_a, left, layer) == written_slots(
                    pool_b, right, layer
                )
                keys_a, values_a = left.caches[layer].view()
                keys_b, values_b = right.caches[layer].view()
                assert bitwise_equal(keys_a, keys_b)
                assert bitwise_equal(values_a, values_b)
                assert left.caches[layer]._filled == right.caches[layer]._filled
        assert [len(s.block_table) for s in batched] == [
            len(s.block_table) for s in per_row
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 13), min_size=1, max_size=17),
        share=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_append_batch_matches_append_precompressed(self, lengths, share, seed):
        # The seam alone, on identical float16 rows: one scatter per
        # tensor against one SequenceKV.write block loop per row.
        model = MODELS["opt"]
        fmt = KVFormat.fp16()
        if share and len(lengths) == 17:
            lengths = lengths[:16]
        pool_a, batched = build_side(model, fmt, lengths, False, share, seed)
        pool_b, per_row = build_side(model, fmt, lengths, False, share, seed)
        config = model.config
        rng = np.random.default_rng(seed)
        shape = (len(batched), config.n_heads, 1, config.head_dim)
        for layer in range(config.n_layers):
            k = rng.normal(size=shape).astype(np.float16)
            v = rng.normal(size=shape).astype(np.float16)
            caches_a = [sequence.caches[layer] for sequence in batched]
            caches_b = [sequence.caches[layer] for sequence in per_row]
            hot_a, hot_b = KVHotPathStats(), KVHotPathStats()
            with stats_scope(hot_a, AttentionDispatchStats()):
                views_a = PagedKVCache.append_batch(caches_a, k, v)
            with stats_scope(hot_b, AttentionDispatchStats()):
                views_b = [
                    cache.append_precompressed(k[i : i + 1], v[i : i + 1])
                    for i, cache in enumerate(caches_b)
                ]
            assert hot_a.snapshot() == hot_b.snapshot()
            for (keys_a, values_a), (keys_b, values_b) in zip(views_a, views_b):
                assert bitwise_equal(keys_a, keys_b)
                assert bitwise_equal(values_a, values_b)
            for left, right in zip(batched, per_row):
                assert written_slots(pool_a, left, layer) == written_slots(
                    pool_b, right, layer
                )
        assert pool_a.cow_forks == pool_b.cow_forks

    def test_foreign_caches_fall_back_to_the_per_cache_loop(self):
        # A batch mixing pools (or unpaged caches) takes the base loop,
        # which lands the same bytes.
        model = MODELS["opt"]
        fmt = KVFormat.fp16()
        _, left = build_side(model, fmt, [3], False, False, 0)
        _, right = build_side(model, fmt, [5], False, False, 1)
        unpaged = model.new_cache()
        model.forward_step(np.arange(4)[None], unpaged)
        tokens = np.array([[3], [4], [5]])
        request_caches = [left[0].caches, right[0].caches, unpaged]
        logits = model.forward_decode_batch(tokens, request_caches)
        _, twin_left = build_side(model, fmt, [3], False, False, 0)
        _, twin_right = build_side(model, fmt, [5], False, False, 1)
        twin_unpaged = model.new_cache()
        model.forward_step(np.arange(4)[None], twin_unpaged)
        twins = [twin_left[0].caches, twin_right[0].caches, twin_unpaged]
        for index, caches in enumerate(twins):
            expected = model.forward_decode_batch(tokens[index : index + 1], [caches])
            assert bitwise_equal(logits[index], expected[0])


class TestScatterFaultRollback:
    """A fault after the scatter rolls every participant back."""

    # Step 3 writes position prompt + 2: the rows with 6- and 10-token
    # prompts open a new block there, two of them after the victim.
    PROMPTS = [
        np.arange(start, start + length) % 251
        for start, length in ((3, 5), (17, 6), (40, 7), (70, 10), (95, 6))
    ]
    VICTIM = 2  # the middle decode row
    FAULT_STEP = 3

    def run(self, monkeypatch, faulted: bool):
        model = MODELS["llama"]
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="paged.gather",
                    kind="transient",
                    step=self.FAULT_STEP,
                    request_id=self.VICTIM,
                ),
            )
            if faulted
            else ()
        )
        engine = Engine(
            model,
            EngineConfig(
                kv_pool_blocks=128,
                kv_block_size=BLOCK,
                faults=plan,
                retry=RetryPolicy(max_retries=2, backoff_steps=0),
            ),
        )
        # The rule fires at the victim's first paged.gather probe of its
        # step; hide the layer-0 probe from the injector so the first
        # one it sees is layer 1's — after layer 1's scatter has landed
        # every row, and after rows before the victim passed their own
        # probes.
        real = paged_module.inject
        probes: Counter = Counter()

        def layer_one(site, request_id=None):
            if site == "paged.gather" and request_id == self.VICTIM:
                probes[engine._step_index] += 1
                if probes[engine._step_index] % model.config.n_layers == 1:
                    return
            real(site, request_id)

        monkeypatch.setattr(paged_module, "inject", layer_one)
        rollbacks: list[tuple[int, int]] = []
        rollback = SequenceKV.rollback

        def recording_rollback(sequence, length):
            rollbacks.append((sequence.owner, length))
            rollback(sequence, length)

        monkeypatch.setattr(SequenceKV, "rollback", recording_rollback)
        handles = [
            engine.submit(prompt, SamplingParams(max_new_tokens=6))
            for prompt in self.PROMPTS
        ]
        watermarks: dict[int, int] = {}
        while engine.has_work():
            if engine._step_index == self.FAULT_STEP:
                assert len(engine._running) == len(self.PROMPTS)
                watermarks = {
                    state.request.request_id: state.context_length
                    for state in engine._running
                }
                engine.step()
                if faulted:
                    self.assert_rolled_back(engine, watermarks, rollbacks)
            else:
                engine.step()
        return engine, [handle.result().tokens for handle in handles]

    @staticmethod
    def assert_rolled_back(engine, watermarks, rollbacks):
        assert sorted(rollbacks) == sorted(watermarks.items())
        assert sum(length % BLOCK == 0 for length in watermarks.values()) == 3
        for state in engine._running:
            sequence = state.kv
            length = watermarks[state.request.request_id]
            assert {cache.length for cache in sequence.caches} == {length}
            assert len(sequence.block_table) == math.ceil(length / BLOCK)

    def test_middle_row_fault_in_layer_one_rolls_back_and_replays_bitwise(
        self, monkeypatch
    ):
        twin, expected = self.run(monkeypatch, faulted=False)
        monkeypatch.undo()
        engine, tokens = self.run(monkeypatch, faulted=True)
        assert engine.fault_injector.fired_total == 1
        assert engine.metrics().fault_retries == 1
        for ours, reference in zip(tokens, expected):
            np.testing.assert_array_equal(ours, reference)
        assert engine._pool.leaked_blocks() == 0
        assert twin._pool.leaked_blocks() == 0


class TestTwoEnginesTwoThreads:
    """The attention module's process-wide memos under concurrent engines.

    ``_CHUNK_POS_MEMO``, ``_ROTARY_BUILD_MEMO`` and
    ``RotaryTable._gather_memo`` are shared by every engine in the
    process.  Engines with different chunk geometries on their own
    threads (more threads than the CI hosts' two cores), switching
    every microsecond, must emit the tokens each emits alone.
    """

    BUDGETS = (5, 8, 13)

    @staticmethod
    def prompts(budget: int) -> list[np.ndarray]:
        rng = np.random.default_rng(budget)
        return [rng.integers(0, 255, size=length) for length in (23, 9, 31, 17)]

    @classmethod
    def serve(cls, budget: int) -> list[np.ndarray]:
        # Each engine builds its own model, so both threads race on the
        # rotary build memo, then share its table and gather memo.
        model = build_model(tiny_test_config("llama", d_model=32, n_layers=2, seed=31))
        engine = Engine(model, EngineConfig(max_batch_tokens=budget))
        handles = [
            engine.submit(prompt, SamplingParams(max_new_tokens=6))
            for prompt in cls.prompts(budget)
        ]
        engine.run_until_idle(max_steps=500)
        return [handle.result().tokens for handle in handles]

    def test_tokens_match_single_thread_runs(self, monkeypatch):
        expected = {budget: self.serve(budget) for budget in self.BUDGETS}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                monkeypatch.setattr(attention_module, "_CHUNK_POS_MEMO", None)
                attention_module._ROTARY_BUILD_MEMO.clear()
                results: dict[int, list[np.ndarray]] = {}
                errors: list[BaseException] = []

                def worker(budget: int) -> None:
                    try:
                        results[budget] = self.serve(budget)
                    except Exception as error:  # surfaced below
                        errors.append(error)

                threads = [
                    threading.Thread(target=worker, args=(budget,))
                    for budget in self.BUDGETS
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                for budget in self.BUDGETS:
                    for ours, reference in zip(results[budget], expected[budget]):
                        np.testing.assert_array_equal(ours, reference)
        finally:
            sys.setswitchinterval(interval)

