"""Growth property tests for the zero-copy decode hot path.

The optimized KV storage (one write-through decode-ready residency per
layer cache, unpaged or paged) must be
**bitwise** indistinguishable from the pre-optimization reference
(per-append concatenate + full re-astype, kept alive as
``ReferenceKVCache`` / ``SequenceKV.gather_reference``).  Both hold
the decode-ready history as float32 keys and values — the dtype the
attention core computes in — so residency and oracle compare byte for
byte.  These tests pin that across the edges where the optimized
storage does something structurally different:

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

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.llm import attention as attention_module
from repro.llm.attention import (
    HOT_PATH_STATS,
    KVCache,
    MultiHeadAttention,
    ReferenceKVCache,
    causal_block,
    causal_mask,
)
from repro.llm.config import tiny_test_config
from repro.llm.kv_quant import KV_MODES as REGISTERED_KV_MODES
from repro.llm.kv_quant import AndaKVCache, KVFormat
from repro.llm.transformer import build_model
from repro.serve import Engine, EngineConfig, SamplingParams
from repro.serve.kvpool.paged import SequenceKV
from repro.serve.kvpool.pool import KVPool

#: Chunk sizes crossing the initial capacity (16) and two doublings.
chunk_lists = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=14)

KV_MODES = ["fp16", "anda"]
HEADS, HEAD_DIM = 2, 16


def bitwise_equal(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and left.tobytes() == right.tobytes()


def history_equal(history, reference) -> bool:
    """A decode-ready ``(keys, values)`` pair, float32 and bitwise the oracle's."""
    return all(
        array.dtype == expected.dtype == np.float32 and bitwise_equal(array, expected)
        for array, expected in zip(history, reference)
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
        codec=KVFormat(mode, 8).codec(),
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
            assert history_equal(optimized.view(), reference.view())
            # The residency holds exactly the stored float16 values (the
            # parity bedrock): it round-trips through float16 unchanged.
            for resident, stored in zip(optimized.view(), reference.view()):
                narrowed = resident.astype(np.float16)
                assert bitwise_equal(narrowed.astype(np.float32), resident)
                assert bitwise_equal(narrowed, stored.astype(np.float16))

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
        """A released sequence's rows, appended again, gather identically."""
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
    # A sharer truncated below its shared prefix, then a faulted step.
    @example(
        ops=[("append", 0, 1), ("fork", 0, 1), ("truncate", 1, 1), ("partial", 1, 1)],
        reserved=0,
        seed=0,
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
            elif op == "partial" and length >= floor:
                # A forward that faulted after layer 0 appended (the
                # engine's pre-step watermark never sits below the
                # shared prefix; a truncate above may have dipped in).
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
        assert grown["unreserved"] > 0  # doubling: 16 -> 32 -> 64
        # The residency was sized to the reservation: the view's
        # backing buffer holds exactly 40 positions.
        keys, values = reserved.caches[0].view()
        assert keys.base.shape[2] == values.base.shape[2] == 40
        # A reservation is a hint, not a limit: outgrowing it falls
        # back to doubling and stays bitwise right.
        reserved.caches[0].append(random_kv(rng, 3), random_kv(rng, 3))
        assert history_equal(
            reserved.gather(0, 43), reserved.gather_reference(0, 43)
        )


@contextmanager
def tracing():
    """Trace allocations; yields a reader of the bytes currently held."""
    tracemalloc.start()
    try:
        yield lambda: tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestResidencyFootprint:
    """One decode-ready residency: 8 B per K/V element pair, no twin."""

    APPENDS = 128

    def rows(self, heads: int, head_dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(43)
        shape = (1, heads, 1, head_dim)
        return [
            (rng.normal(size=shape).astype(np.float32),
             rng.normal(size=shape).astype(np.float32))
            for _ in range(self.APPENDS)
        ]

    @pytest.mark.parametrize("mode", KV_MODES)
    def test_unpaged_cache_holds_eight_bytes_per_pair(self, mode):
        heads, head_dim = 4, 64
        rows = self.rows(heads, head_dim)
        make_unpaged(mode).append(*rows[0])  # warm any codec-side memos
        with tracing() as held_bytes:
            before = held_bytes()
            cache = make_unpaged(mode)
            for k, v in rows:
                cache.append(k, v)
            held = held_bytes() - before
        pairs = heads * self.APPENDS * head_dim
        # Float32 keys + float32 values; a float16 copy beside them
        # would add 4 B per pair (12 B in all).
        assert held / pairs <= 8.5

    def test_sequence_release_frees_every_layer_residency(self):
        pool = make_pool("fp16")
        rows = self.rows(HEADS, HEAD_DIM)
        with tracing() as held_bytes:
            sequence = pool.create_sequence(np.array([1]), reserved=self.APPENDS)
            for k, v in rows:
                for cache in sequence.caches:
                    cache.append(k, v)
            held = held_bytes()
            sequence.release()
            freed = held - held_bytes()
        residency = pool.n_layers * HEADS * self.APPENDS * HEAD_DIM * 8
        assert freed >= residency


class TestStoredFormCrossing:
    """An appended row crosses float16 once, saturating like the codecs.

    ``compress`` hands float32 rows exact in float16 to the caches: the
    unpaged residency keeps them as they are, the paged pool narrows
    them (``fp16.pack_half``) and its residency copies them; the decode
    lane lands one saturating bulk float16 cast.  Every path must store
    the same float16 values, in range.
    """

    @staticmethod
    def layer_caches(mode: str) -> tuple[SequenceKV, KVCache]:
        """A paged sequence and an unpaged cache of one KV mode."""
        sequence = make_pool(mode).create_sequence(np.array([1]))
        return sequence, KVFormat(mode, 8).codec()

    @staticmethod
    def attention(seed: int = 0) -> MultiHeadAttention:
        config = tiny_test_config(d_model=HEADS * HEAD_DIM, seed=seed)
        return build_model(config).blocks[0].attention

    @staticmethod
    def huge_rows(length: int) -> np.ndarray:
        rows = np.full((1, HEADS, length, HEAD_DIM), 1e5, dtype=np.float32)
        rows[..., 1::2] = -1e5
        return rows

    @staticmethod
    def decode(
        attention: MultiHeadAttention, x: np.ndarray, caches: list[KVCache]
    ) -> np.ndarray:
        return attention.step_batch(x, caches)

    def assert_saturated(self, history, length: int) -> None:
        for array in history:
            assert array.shape[2] == length
            assert set(np.unique(array)) == {-65504.0, 65504.0}

    def test_fp16_chunk_append_saturates(self):
        sequence, unpaged = self.layer_caches("fp16")
        attention = self.attention()
        q = np.ones((1, HEADS, 3, HEAD_DIM), dtype=np.float32)
        for cache in (unpaged, sequence.caches[0]):
            history = cache.append(self.huge_rows(3), self.huge_rows(3))
            self.assert_saturated(history, 3)
            assert np.isfinite(attention._attention_core(q, *history, 0)).all()
        self.assert_saturated(sequence.gather_reference(0, 3), 3)

    def test_fp16_decode_append_saturates(self, monkeypatch):
        sequence, unpaged = self.layer_caches("fp16")
        attention = self.attention()
        # Projections the layer cannot produce from small weights:
        # K and V rows of +-1e5, which overflow float16.
        huge = np.concatenate([self.huge_rows(1)] * 2)
        qkv = np.stack([np.ones_like(huge), huge, huge])
        monkeypatch.setattr(attention, "_project_qkv", lambda x: qkv)
        x = np.zeros((2, 1, HEADS * HEAD_DIM), dtype=np.float32)
        out = self.decode(attention, x, [unpaged, sequence.caches[0]])
        assert np.isfinite(out).all()
        for cache in (unpaged, sequence.caches[0]):
            self.assert_saturated(cache.view(), 1)
        self.assert_saturated(sequence.gather_reference(0, 1), 1)

    @pytest.mark.parametrize("mode", REGISTERED_KV_MODES)
    def test_residency_equals_widened_pool_bytes(self, mode):
        sequence, unpaged = self.layer_caches(mode)
        attention = self.attention(seed=4)
        rng = np.random.default_rng(23)
        paged = sequence.caches[0]
        # Chunk appends (step_mixed: compress, then the float32 rows),
        # then decode appends (step_batch: the bulk float16 cast).
        for length in (5, 3):
            x = rng.normal(size=(1, length, HEADS * HEAD_DIM)).astype(np.float32)
            for cache in (paged, unpaged):
                attention.step_mixed(x, [cache], [length])
        for _ in range(3):
            x = rng.normal(size=(1, 1, HEADS * HEAD_DIM)).astype(np.float32)
            self.decode(attention, np.repeat(x, 2, axis=0), [paged, unpaged])
        length = paged.length
        assert length == unpaged.length == 11
        pool_bytes = sequence.gather_reference(0, length)
        assert history_equal(paged.view(), pool_bytes)
        assert history_equal(unpaged.view(), pool_bytes)


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
        scores = np.zeros((2, new_len, total), dtype=np.float32)
        scores[..., start:] += causal_block(new_len)
        positions = np.arange(start, total)[:, None]
        history = np.arange(total)[None, :]
        expected = np.where(history > positions, -1e9, 0.0).astype(np.float32)
        assert bitwise_equal(scores[0], expected)
        assert bitwise_equal(scores[1], scores[0])

    @pytest.mark.parametrize("start", [0, 5])
    def test_attention_core_matches_the_materialised_mask(self, start):
        """In-place block vs ``scores + full_mask``: same weights, bitwise.

        Also pins the dtype contract the one-residency design leans on:
        the scale is a float32 scalar (under NumPy >= 2 a float64 one
        would promote the scores), so scores, weights and context all
        stay float32 from float32 inputs.
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
        assert context.dtype == np.float32
        assert attention.scale.dtype == np.float32
        positions = np.arange(start, total)[:, None]
        mask = np.where(np.arange(total)[None, :] > positions, -1e9, 0.0)
        scores = (q @ keys.swapaxes(-1, -2)) * attention.scale + mask.astype(
            np.float32
        )
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=-1, keepdims=True)
        assert weights.dtype == np.float32
        assert bitwise_equal(context, weights @ values)


class TestBatchedLogitsBitwise:
    """Logits-level parity: stricter than the token-level suites.

    Token parity can mask sub-ULP drift (argmax/sampling rarely flip on
    a 1e-6 logit change); comparing raw logits bytes catches it.  This
    pinned a real bug once: a reused context scratch narrower than the
    attention core's output dtype silently rounded batched-decode
    contexts before the output projection.  The core now computes in
    float32 end to end and the context buffers are float32 to match.
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
            # A batch of one: one row on the M == 1 path.
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


class TestFloat32Pipeline:
    """Inference attention is float32 from the scores to the logits.

    NEP 50 makes numpy scalars strongly typed, so one ``np.float64``
    scalar in the core (a scale, a mask constant) silently promotes
    every score, softmax and ``weights @ values`` of every launch —
    and a float64 residency or context buffer would keep it there.
    Every launch of every serving entry point is checked here.
    """

    @pytest.mark.parametrize("storage", ["unpaged", "paged"])
    @pytest.mark.parametrize("family", ["opt", "llama"])
    @pytest.mark.parametrize("mode", KV_MODES)
    def test_every_launch_and_residency_is_float32(
        self, monkeypatch, storage, family, mode
    ):
        model = build_model(tiny_test_config(family=family, n_layers=2, seed=37))
        launches = []
        core = MultiHeadAttention._attention_core

        def recording_core(self, q, keys, values, start, out=None):
            # The decode lane hands each row its slot of the layer's
            # context buffer; record the buffer the row lands in.
            context = core(self, q, keys, values, start, out=out)
            assert out is None or context is out
            launches.append((q.dtype, keys.dtype, values.dtype, context.dtype))
            return context

        monkeypatch.setattr(MultiHeadAttention, "_attention_core", recording_core)
        pool = KVPool(
            model.config,
            num_blocks=64,
            block_size=4,
            codec=KVFormat(mode, 8).codec(),
            enable_prefix_cache=False,
        )
        sequences = []

        def new_caches() -> list[KVCache]:
            if storage == "paged":
                sequences.append(pool.create_sequence(np.array([1]), reserved=32))
                return sequences[-1].caches
            if mode == "fp16":
                return model.new_cache()
            return [AndaKVCache(8) for _ in model.blocks]

        rng = np.random.default_rng(41)
        first, second, third = new_caches(), new_caches(), new_caches()
        logits = [model.forward_step(rng.integers(0, 255, size=(1, 7)), first)]
        chunk_logits, _ = model.forward_mixed_step(
            [rng.integers(0, 255, size=5)], [second]
        )
        logits += chunk_logits
        tokens = np.array([[3], [4]])
        chunk_logits, decode_logits = model.forward_mixed_step(
            [rng.integers(0, 255, size=6)],
            [third],
            decode_tokens=tokens,
            decode_caches=[first, second],
        )
        logits += [*chunk_logits, decode_logits]
        logits.append(model.forward_decode_batch(tokens, [first, third]))
        logits.append(model.forward_step(np.array([[5]]), second))

        assert [array.dtype for array in logits] == [np.float32] * len(logits)
        # forward_step x2, chunk segments x2, decode rows x4: per layer.
        assert len(launches) == model.config.n_layers * 8
        assert set(launches) == {(np.dtype(np.float32),) * 4}
        for caches in (first, second, third):
            for cache in caches:
                keys, values = cache.view()
                assert (keys.dtype, values.dtype) == (np.float32, np.float32)
        for sequence in sequences:
            for layer in range(model.config.n_layers):
                keys, values = sequence.gather(layer, sequence.length)
                assert (keys.dtype, values.dtype) == (np.float32, np.float32)


class TestEngineHotPathCounters:
    def test_decode_dequant_bytes_amortize_flat(self):
        """Steady-state decode converts O(new tokens), not O(history)."""
        model = build_model(tiny_test_config(seed=13))
        config = EngineConfig(
            kv_pool_blocks=64,
            kv_block_size=8,
            prefix_caching=False,
        )
        engine = Engine(model, config)
        engine.submit(np.array([5, 6, 7, 8, 9]), SamplingParams(max_new_tokens=30))
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
        # materialised, float32 keys plus float32 values.
        assert len(dequant) == 1
        config = model.config
        assert dequant.pop() == (
            config.n_layers * config.n_heads * config.head_dim * (4 + 4)
        )
        # The engine reserves a sequence's scratch to prompt +
        # max_new_tokens: no growth copy, ever.  (Unreserved KVCache
        # doubling is pinned by TestUnpagedGrowthParity.)
        assert not [r for r in decode_steps if r.kv_copy_bytes > 0]
        metrics = engine.metrics()
        assert metrics.kv_dequant_bytes == sum(
            report.kv_dequant_bytes for report in engine._reports
        )
        assert metrics.kv_copy_bytes == sum(
            report.kv_copy_bytes for report in engine._reports
        )
