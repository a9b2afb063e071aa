"""Growth property tests for the zero-copy decode hot path.

The optimized KV storage (preallocated buffers + incremental
decode-ready views, and the paged write-through scratch) must be
**bitwise** indistinguishable from the pre-optimization reference
(per-append concatenate + full re-astype, kept alive as
``ReferenceKVCache`` / ``SequenceKV.gather_reference``).  The one
representation difference is deliberate: the decode-ready residency
holds keys float32 and values **float64** (what ``float64 weights @
values`` computes in), so values are pinned against the reference's
exact float32 -> float64 upcast.  These tests pin that across the edges
where the optimized storage does something structurally different:

* capacity-doubling boundaries (buffer growth copies) and reserved
  capacity (no growth copies at all),
* block boundaries and fragmented block tables (paged gather),
* write-through appends interleaved with truncate / rollback /
  copy-on-write forks / prefix-seeded reads (scratch must stay valid),
* release + replay (the preempt/resume path rebuilds from scratch),

for both KV modes (fp16, anda) and both storages (unpaged, paged).
Comparisons use ``tobytes()`` — bit equality, not ``==`` (which would
let ``-0.0`` / ``+0.0`` slip through).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import attention as attention_module
from repro.llm.attention import (
    HOT_PATH_STATS,
    KVCache,
    ReferenceKVCache,
    causal_block,
    causal_mask,
)
from repro.llm.config import tiny_test_config
from repro.llm.kv_quant import AndaKVCache, make_kv_codec
from repro.llm.transformer import build_model
from repro.serve import Engine, EngineConfig
from repro.serve.kvpool.paged import SequenceKV
from repro.serve.kvpool.pool import KVPool

#: Chunk sizes crossing the initial capacity (16) and two doublings.
chunk_lists = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=14)

KV_MODES = ["fp16", "anda"]
HEADS, HEAD_DIM = 2, 16


def bitwise_equal(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and left.tobytes() == right.tobytes()


def values_equal(values: np.ndarray, reference: np.ndarray) -> bool:
    """Decode-ready values: float64, equal to the float32 oracle upcast."""
    assert reference.dtype == np.float32
    return values.dtype == np.float64 and bitwise_equal(
        values, reference.astype(np.float64)
    )


def history_equal(history, reference) -> bool:
    """A decode-ready ``(keys, values)`` pair against the float32 oracle."""
    keys, values = history
    ref_k, ref_v = reference
    return (
        keys.dtype == np.float32
        and bitwise_equal(keys, ref_k)
        and values_equal(values, ref_v)
    )


def make_unpaged(mode: str) -> KVCache:
    return KVCache() if mode == "fp16" else AndaKVCache(mantissa_bits=8)


def make_reference(mode: str) -> ReferenceKVCache:
    codec = None if mode == "fp16" else AndaKVCache(mantissa_bits=8)
    return ReferenceKVCache(codec=codec)


def random_kv(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.normal(size=(1, HEADS, length, HEAD_DIM)).astype(np.float32)


def make_pool(mode: str, num_blocks: int = 96) -> KVPool:
    config = tiny_test_config(d_model=HEADS * HEAD_DIM, n_layers=2)
    return KVPool(
        config,
        num_blocks=num_blocks,
        block_size=4,
        codec=make_kv_codec(mode, 8),
        enable_prefix_cache=False,
    )


class TestUnpagedGrowthParity:
    @pytest.mark.parametrize("mode", KV_MODES)
    @given(lengths=chunk_lists, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_view_matches_reference_after_every_append(self, mode, lengths, seed):
        rng = np.random.default_rng(seed)
        optimized, reference = make_unpaged(mode), make_reference(mode)
        for length in lengths:
            k, v = random_kv(rng, length), random_kv(rng, length)
            assert history_equal(optimized.append(k, v), reference.append(k, v))
            assert optimized.length == reference.length
            # The stored float16 bytes are the parity bedrock.
            assert bitwise_equal(optimized.keys, reference.keys)
            assert bitwise_equal(optimized.values, reference.values)

    @pytest.mark.parametrize("mode", KV_MODES)
    def test_view_is_memoized_and_stable_across_calls(self, mode):
        rng = np.random.default_rng(3)
        cache = make_unpaged(mode)
        cache.append(random_kv(rng, 5), random_kv(rng, 5))
        first_k, first_v = cache.view()
        again_k, again_v = cache.view()
        assert again_k is not None and bitwise_equal(first_k, again_k)
        assert bitwise_equal(first_v, again_v)


class TestPagedGrowthParity:
    @pytest.mark.parametrize("mode", KV_MODES)
    @given(lengths=chunk_lists, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_gather_matches_reference_and_unpaged(self, mode, lengths, seed):
        rng = np.random.default_rng(seed)
        pool = make_pool(mode)
        sequence = pool.create_sequence(np.array([1, 2, 3]))
        reference = make_reference(mode)
        for length in lengths:
            k, v = random_kv(rng, length), random_kv(rng, length)
            for layer in range(pool.n_layers):
                paged = sequence.caches[layer].append(k, v)
                if layer == 0:
                    unpaged = reference.append(k, v)
                assert history_equal(paged, unpaged)
            total = sequence.length
            assert history_equal(
                sequence.gather(0, total), sequence.gather_reference(0, total)
            )

    @pytest.mark.parametrize("mode", KV_MODES)
    def test_cow_fork_keeps_warm_scratch_valid(self, mode):
        """A sharer that gathered before forking must re-read nothing stale.

        The fork is set up the way the kvpool suite does (a mid-block
        manual share): the sharer's first private write lands *inside*
        a block another sequence still references, forcing the
        copy-on-write fork while the sharer's gather scratch is
        already warm over that block.
        """
        rng = np.random.default_rng(7)
        pool = make_pool(mode)
        donor = pool.create_sequence(np.array([1]))
        for layer in range(pool.n_layers):
            donor.caches[layer].append(random_kv(rng, 4), random_kv(rng, 4))
        donor_before = donor.gather(0, 4)[0].tobytes()

        shared_block = donor.block_table[0]
        pool.allocator.incref(shared_block)
        sharer = SequenceKV(pool, [shared_block], shared_tokens=2)
        # Warm the sharer's gather scratch over the shared block...
        warm_k, _ = sharer.gather(0, 2)
        assert bitwise_equal(warm_k, sharer.gather_reference(0, 2)[0])
        # ...then append: position 2 lands mid-way into the shared
        # block, so the write forks it (donor keeps the original).
        forks_before = pool.cow_forks
        for layer in range(pool.n_layers):
            sharer.caches[layer].append(random_kv(rng, 5), random_kv(rng, 5))
        assert pool.cow_forks > forks_before
        assert sharer.block_table[0] != shared_block
        for layer in range(pool.n_layers):
            length = sharer.caches[layer].length
            assert history_equal(
                sharer.gather(layer, length), sharer.gather_reference(layer, length)
            )
        # The donor's stored bytes are untouched by the fork.
        assert donor.gather(0, 4)[0].tobytes() == donor_before
        assert donor.gather_reference(0, 4)[0].tobytes() == donor_before

    @pytest.mark.parametrize("mode", KV_MODES)
    def test_release_and_replay_rebuilds_bitwise(self, mode):
        """The preempt/resume path: a replayed sequence gathers identically."""
        rng = np.random.default_rng(11)
        pool = make_pool(mode)
        appends = [
            (random_kv(rng, length), random_kv(rng, length))
            for length in (5, 1, 1, 7, 1, 3)
        ]

        def run() -> tuple[bytes, bytes]:
            sequence = pool.create_sequence(np.array([1]))
            for k, v in appends:
                for layer in range(pool.n_layers):
                    sequence.caches[layer].append(k, v)
            keys, values = sequence.gather(0, sequence.length)
            snapshot = (keys.tobytes(), values.tobytes())
            sequence.release()
            return snapshot

        assert run() == run()


#: One step of the write-through property: (op, pick, amount).
scratch_ops = st.lists(
    st.tuples(
        st.sampled_from(["append", "truncate", "rollback", "partial", "fork"]),
        st.integers(0, 7),
        st.integers(1, 9),
    ),
    min_size=1,
    max_size=12,
)


class TestWriteThroughScratch:
    """The scratch is written by ``write()``; the pool is only a seed."""

    @pytest.mark.parametrize("mode", KV_MODES)
    @given(
        ops=scratch_ops,
        reserved=st.sampled_from([0, 6, 160]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_scratch_equals_pool_readback_under_interleavings(
        self, mode, ops, reserved, seed
    ):
        """Append / truncate / rollback / CoW fork / prefix seeding, interleaved.

        After every operation each live sequence's decode-ready
        history must equal both a full pool read-back
        (``gather_reference``) and an independent unpaged oracle fed
        the same appends — whatever mix of write-through extension,
        watermark clamping and first-read seeding produced it.
        """
        rng = np.random.default_rng(seed)
        pool = make_pool(mode, num_blocks=256)
        live = [
            (
                SequenceKV(pool, [], shared_tokens=0, reserved=reserved),
                make_reference(mode),
            )
        ]

        def append(sequence, count, layers):
            k, v = random_kv(rng, count), random_kv(rng, count)
            for layer in layers:
                sequence.caches[layer].append(k, v)
            return k, v

        for op, pick, amount in ops:
            sequence, oracle = live[pick % len(live)]
            length = sequence.length
            floor = sequence.shared_tokens
            if op == "append":
                oracle.append(*append(sequence, amount, range(pool.n_layers)))
            elif op == "truncate" and length:
                # Per-cache truncate keeps the blocks (and may dip into
                # a shared prefix: the next write then forks it).
                kept = (pick * length) // 8
                for cache in sequence.caches:
                    cache.truncate(kept)
                oracle.truncate(kept)
            elif op == "rollback" and length > floor:
                kept = floor + (pick * (length - floor)) // 8
                sequence.rollback(kept)
                oracle.truncate(kept)
            elif op == "partial":
                # A forward that faulted after layer 0 appended.
                append(sequence, amount, [0])
                sequence.rollback(length)
            elif op == "fork" and length and len(live) < 3:
                # A prefix-seeded sharer over the donor's blocks, cut
                # mid-block when the length says so: both sides now
                # copy-on-write on their next append.
                for block in sequence.block_table:
                    pool.allocator.incref(block)
                sharer = SequenceKV(
                    pool, list(sequence.block_table), length, reserved=reserved
                )
                for cache in sharer.caches:
                    assert cache.length == length
                twin = make_reference(mode)
                twin.append_precompressed(oracle.keys, oracle.values)
                live.append((sharer, twin))
            for sequence, oracle in live:
                if not oracle.length:
                    continue
                assert sequence.length == oracle.length
                for layer in range(pool.n_layers):
                    history = sequence.gather(layer, oracle.length)
                    assert history_equal(
                        history, sequence.gather_reference(layer, oracle.length)
                    )
                    assert history_equal(history, oracle.view())

    @pytest.mark.parametrize("mode", KV_MODES)
    def test_steady_appends_never_read_the_pool_back(self, mode):
        """Once seeded, appends extend the scratch from the rows in hand.

        Wiping the pool's stored bytes after each append must not
        change what attention reads: nothing re-reads them.
        """
        rng = np.random.default_rng(23)
        pool = make_pool(mode)
        sequence = pool.create_sequence(np.array([1]), reserved=40)
        oracle = make_reference(mode)
        for count in (5, 1, 1, 3, 1, 1, 1):
            k, v = random_kv(rng, count), random_kv(rng, count)
            for layer in range(pool.n_layers):
                history = sequence.caches[layer].append(k, v)
                pool.keys[layer] = 0
                pool.values[layer] = 0
                if layer == 0:
                    expected = oracle.append(k, v)
                assert history_equal(history, expected)

    def test_reserved_scratch_never_regrows(self):
        pool = make_pool("fp16")
        rng = np.random.default_rng(29)
        reserved = pool.create_sequence(np.array([1]), reserved=40)
        unreserved = pool.create_sequence(np.array([1]))
        grown = {}
        for name, sequence in (("reserved", reserved), ("unreserved", unreserved)):
            before = HOT_PATH_STATS.copy_bytes
            for _ in range(40):
                sequence.caches[0].append(random_kv(rng, 1), random_kv(rng, 1))
            grown[name] = HOT_PATH_STATS.copy_bytes - before
        assert grown["reserved"] == 0
        assert grown["unreserved"] > 0  # doubling: 4 -> 8 -> 16 -> 32 -> 64
        assert reserved._deq_k[0].shape[1] == 40
        # A reservation is a hint, not a limit: outgrowing it falls
        # back to doubling and stays bitwise right.
        reserved.caches[0].append(random_kv(rng, 3), random_kv(rng, 3))
        assert history_equal(
            reserved.gather(0, 43), reserved.gather_reference(0, 43)
        )


class TestMaskMemo:
    def test_prefill_mask_matches_causal_mask(self):
        block = causal_block(6)
        assert block is not None
        assert bitwise_equal(block, causal_mask(6))
        # One growing triangle: every size is a view of the same memo.
        assert np.shares_memory(causal_block(6), causal_block(4))

    def test_memo_grows_by_powers_of_two(self, monkeypatch):
        # Creeping chunk sizes must not rebuild the triangle per size:
        # one build covers every size up to the next power of two.
        monkeypatch.setattr(attention_module, "_CAUSAL_BLOCK", None)
        assert causal_block(5).base is attention_module._CAUSAL_BLOCK
        built = attention_module._CAUSAL_BLOCK
        assert built.shape == (8, 8)
        for size in (6, 7, 8):
            assert bitwise_equal(causal_block(size), causal_mask(size))
            assert attention_module._CAUSAL_BLOCK is built
        assert causal_block(9).shape == (9, 9)
        assert attention_module._CAUSAL_BLOCK.shape == (16, 16)

    def test_decode_mask_is_elided(self):
        # A single new token attends to its entire history: the
        # additive mask is all zeros, and adding zeros is a bitwise
        # no-op through the softmax, so the hot path skips it.
        assert causal_block(1) is None

    def test_mid_sequence_chunk_mask_values(self):
        # Added in place to scores[..., start:], the block reproduces
        # the full (new_len, start + new_len) history mask: zeros over
        # the older positions, the causal triangle among the new ones.
        start, new_len = 3, 4
        total = start + new_len
        scores = np.zeros((2, new_len, total))
        scores[..., start:] += causal_block(new_len)
        positions = np.arange(start, total)[:, None]
        history = np.arange(total)[None, :]
        expected = np.where(history > positions, -1e9, 0.0).astype(np.float32)
        assert bitwise_equal(scores[0], expected.astype(np.float64))
        assert bitwise_equal(scores[1], scores[0])

    @pytest.mark.parametrize("start", [0, 5])
    def test_attention_core_matches_the_materialised_mask(self, start):
        """In-place block vs ``scores + full_mask``: same weights, bitwise.

        Also pins the dtype contract the one-residency design leans on
        (NumPy >= 2 promotion): float32 scores times the float64 scale
        make float64 weights, so the context comes back float64 even
        from float32 values.
        """
        model = build_model(tiny_test_config(seed=3))
        attention = model.blocks[0].attention
        rng = np.random.default_rng(31)
        new_len, total = 6, start + 6
        shape = (1, attention.n_heads, total, attention.head_dim)
        q = rng.normal(size=shape).astype(np.float32)[:, :, start:]
        keys = rng.normal(size=shape).astype(np.float32)
        values = rng.normal(size=shape).astype(np.float32)
        context = attention._attention_core(q, keys, values, start)
        assert context.dtype == np.float64
        positions = np.arange(start, total)[:, None]
        mask = np.where(np.arange(total)[None, :] > positions, -1e9, 0.0)
        scores = (q @ keys.swapaxes(-1, -2)) * attention.scale + mask.astype(
            np.float32
        )
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=-1, keepdims=True)
        assert bitwise_equal(context, weights @ values)
        assert bitwise_equal(
            context,
            attention._attention_core(q, keys, values.astype(np.float64), start),
        )


class TestBatchedLogitsBitwise:
    """Logits-level parity: stricter than the token-level suites.

    Token parity can mask sub-ULP drift (argmax/sampling rarely flip on
    a 1e-6 logit change); comparing raw logits bytes catches it.  This
    pinned a real bug during this refactor: the reused context scratch
    was float32 while the attention core's score pipeline runs in
    float64 (the float64 ``scale`` scalar promotes it), silently
    rounding batched-decode contexts before the output projection.
    """

    @pytest.mark.parametrize("family", ["opt", "llama"])
    @pytest.mark.parametrize("mode", KV_MODES)
    def test_decode_batch_logits_bitwise_equal_sequential(self, family, mode):
        model = build_model(tiny_test_config(family=family, seed=17))
        factory = (
            model.new_cache
            if mode == "fp16"
            else (lambda: [AndaKVCache(8) for _ in model.blocks])
        )
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, 255, size=(1, 11))
        seq_caches, bat_caches = factory(), factory()
        prefill_a = model.forward_step(prompt, seq_caches)
        prefill_b = model.forward_step(prompt, bat_caches)
        assert bitwise_equal(prefill_a, prefill_b)
        token = np.array([[7]])
        for _ in range(6):
            sequential = model.forward_step(token, seq_caches)
            batched = model.forward_decode_batch(token, [bat_caches])
            assert bitwise_equal(sequential[0, -1], batched[0, -1])
            token = np.array([[int(np.argmax(sequential[0, -1]))]])

    @pytest.mark.parametrize("mode", KV_MODES)
    def test_mixed_chunk_logits_bitwise_equal_monolithic(self, mode):
        model = build_model(tiny_test_config(family="llama", seed=19))
        factory = (
            model.new_cache
            if mode == "fp16"
            else (lambda: [AndaKVCache(8) for _ in model.blocks])
        )
        rng = np.random.default_rng(9)
        prompt = rng.integers(0, 255, size=13)
        mono = model.forward_step(prompt.reshape(1, -1), factory())
        chunk_caches = factory()
        chunk_logits, _ = model.forward_mixed_step(
            [prompt[:8]], [chunk_caches], decode_tokens=None, decode_caches=None
        )
        tail_logits, _ = model.forward_mixed_step(
            [prompt[8:]], [chunk_caches], decode_tokens=None, decode_caches=None
        )
        assert bitwise_equal(chunk_logits[0], mono[0, :8])
        assert bitwise_equal(tail_logits[0], mono[0, 8:])


class TestEngineHotPathCounters:
    @pytest.mark.parametrize("kv_pool", [False, True])
    def test_decode_dequant_bytes_amortize_flat(self, kv_pool):
        """Steady-state decode converts O(new tokens), not O(history)."""
        model = build_model(tiny_test_config(seed=13))
        config = EngineConfig(
            chunked_prefill=False,
            kv_pool=kv_pool,
            kv_pool_blocks=64,
            kv_block_size=8,
            prefix_caching=False,
        )
        engine = Engine(model, config)
        engine.submit(np.array([5, 6, 7, 8, 9]), max_new_tokens=30)
        engine.drain(max_steps=64)
        decode_steps = [
            report
            for report in engine._reports
            if report.decodes == 1 and report.prefills == 0
        ]
        assert len(decode_steps) >= 20
        dequant = {report.kv_dequant_bytes for report in decode_steps}
        # Incremental views dequantize exactly the appended tail every
        # step, so the per-step byte count is one constant: the bytes
        # materialised, float32 keys plus float64 values.
        assert len(dequant) == 1
        config = model.config
        assert dequant.pop() == (
            config.n_layers * config.n_heads * config.head_dim * (4 + 8)
        )
        growth_steps = [r for r in decode_steps if r.kv_copy_bytes > 0]
        if kv_pool:
            # The engine reserves a paged sequence's scratch to prompt
            # + max_new_tokens: no growth copy, ever.
            assert not growth_steps
        else:
            # Unreserved buffers double: capacity crossings (5 prompt +
            # 30 tokens passes 16 and 32) show up as growth copies on
            # a few steps, not every step.
            assert growth_steps
            assert len(growth_steps) < len(decode_steps) / 2
        metrics = engine.metrics()
        assert metrics.kv_dequant_bytes == sum(
            report.kv_dequant_bytes for report in engine._reports
        )
        assert metrics.kv_copy_bytes == sum(
            report.kv_copy_bytes for report in engine._reports
        )
