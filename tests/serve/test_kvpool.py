"""KV-pool unit tests: allocator invariants, prefix trie, paged storage.

The allocator tests are property-style where cheap: random
alloc/incref/decref churn must preserve the free+used==total invariant
and refcount bookkeeping exactly.  The pool tests pin the storage
semantics the parity suite relies on — scatter/gather round-trips,
copy-on-write isolation, fragmentation tolerance, bitwise swap-out /
swap-in — and the prefix cache's LRU leaf-first eviction ordering
under pool exhaustion.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.llm.config import tiny_test_config
from repro.serve.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    TransientFault,
    injection_scope,
)
from repro.serve.kvpool import (
    BlockAllocator,
    KVPool,
    KVImage,
    OutOfBlocksError,
    PrefixCache,
)
from repro.serve.params import SamplingParams
from repro.serve.request import Request, RequestState


@pytest.fixture()
def config():
    return tiny_test_config("opt", d_model=32, n_layers=2)


def make_pool(config, num_blocks=16, block_size=4, prefix=True):
    return KVPool(
        config,
        num_blocks=num_blocks,
        block_size=block_size,
        enable_prefix_cache=prefix,
    )


class TestBlockAllocator:
    def test_alloc_free_roundtrip(self):
        allocator = BlockAllocator(4)
        blocks = [allocator.allocate() for _ in range(4)]
        assert sorted(blocks) == [0, 1, 2, 3]
        assert allocator.free_blocks == 0
        with pytest.raises(OutOfBlocksError):
            allocator.allocate()
        for block in blocks:
            assert allocator.decref(block) is True
        assert allocator.free_blocks == 4

    def test_refcount_defers_free(self):
        allocator = BlockAllocator(2)
        block = allocator.allocate()
        allocator.incref(block)
        assert allocator.refcount(block) == 2
        assert allocator.is_shared(block)
        assert allocator.decref(block) is False
        assert allocator.free_blocks == 1
        assert allocator.decref(block) is True
        assert allocator.free_blocks == 2

    def test_unheld_operations_rejected(self):
        allocator = BlockAllocator(2)
        with pytest.raises(ModelError):
            allocator.incref(0)  # never allocated
        block = allocator.allocate()
        allocator.decref(block)
        with pytest.raises(ModelError):
            allocator.decref(block)  # double free
        with pytest.raises(ModelError):
            allocator.refcount(99)  # out of range

    def test_lifo_reuse_keeps_working_set_compact(self):
        allocator = BlockAllocator(8)
        first = allocator.allocate()
        allocator.decref(first)
        assert allocator.allocate() == first

    def test_property_random_churn_preserves_invariants(self):
        rng = np.random.default_rng(7)
        allocator = BlockAllocator(12)
        refcounts: dict[int, int] = {}
        for _ in range(2000):
            op = rng.integers(0, 3)
            if op == 0 and allocator.free_blocks:
                block = allocator.allocate()
                assert block not in refcounts
                refcounts[block] = 1
            elif op == 1 and refcounts:
                block = int(rng.choice(list(refcounts)))
                allocator.incref(block)
                refcounts[block] += 1
            elif op == 2 and refcounts:
                block = int(rng.choice(list(refcounts)))
                freed = allocator.decref(block)
                refcounts[block] -= 1
                assert freed == (refcounts[block] == 0)
                if refcounts[block] == 0:
                    del refcounts[block]
            assert allocator.free_blocks + allocator.used_blocks == 12
            assert allocator.used_blocks == len(refcounts)
            for block, count in refcounts.items():
                assert allocator.refcount(block) == count


class TestSequenceStorage:
    def rows(self, seq, layer, n, seed=0):
        rng = np.random.default_rng(seed)
        shape = (1, 2, n, 32 // 2)  # (batch, heads, tokens, head_dim)
        return (
            rng.standard_normal(shape).astype(np.float16),
            rng.standard_normal(shape).astype(np.float16),
        )

    def test_scatter_gather_roundtrip(self, config):
        pool = make_pool(config)
        seq = pool.create_sequence(np.arange(5))
        k16, v16 = self.rows(seq, 0, 11)
        seq.write(0, 0, k16, v16)
        keys, values = seq.gather(0, 11)
        np.testing.assert_array_equal(keys[0], k16[0].astype(np.float32))
        np.testing.assert_array_equal(values[0], v16[0].astype(np.float32))
        assert len(seq.block_table) == 3  # ceil(11 / 4)

    def test_incremental_writes_match_bulk_write(self, config):
        pool = make_pool(config)
        bulk = pool.create_sequence(np.arange(3))
        incremental = pool.create_sequence(np.arange(3))
        k16, v16 = self.rows(bulk, 0, 9, seed=3)
        bulk.write(0, 0, k16, v16)
        for position in range(9):
            incremental.write(
                0,
                position,
                k16[:, :, position : position + 1],
                v16[:, :, position : position + 1],
            )
        np.testing.assert_array_equal(bulk.gather(0, 9)[0], incremental.gather(0, 9)[0])

    def test_fragmented_block_table_still_gathers_in_order(self, config):
        # Allocate interleaved sequences, free one, then grow another:
        # its table becomes non-contiguous physical ids but the gather
        # must still return positions in logical order.
        pool = make_pool(config, num_blocks=6, prefix=False)
        seq_a = pool.create_sequence(np.arange(2))
        seq_b = pool.create_sequence(np.arange(2))
        ka, va = self.rows(seq_a, 0, 4, seed=1)
        kb, vb = self.rows(seq_b, 0, 4, seed=2)
        seq_a.write(0, 0, ka, va)
        seq_b.write(0, 0, kb, vb)
        seq_b.release()  # hole in the middle of the pool
        k2, v2 = self.rows(seq_a, 0, 8, seed=4)
        seq_a.write(0, 4, k2[:, :, 4:], v2[:, :, 4:])
        expected = np.concatenate([ka, k2[:, :, 4:]], axis=2)
        np.testing.assert_array_equal(
            seq_a.gather(0, 8)[0][0], expected[0].astype(np.float32)
        )

    def test_copy_on_write_isolates_sharer_from_donor(self, config):
        pool = make_pool(config, prefix=False)
        donor = pool.create_sequence(np.arange(4))
        k16, v16 = self.rows(donor, 0, 4, seed=5)
        donor.write(0, 0, k16, v16)
        # Fork: sharer maps the donor's block (refcount 2) and then
        # overwrites its last row.
        shared_block = donor.block_table[0]
        pool.allocator.incref(shared_block)
        sharer = pool.create_sequence(np.arange(4))
        sharer.block_table.append(shared_block)
        sharer.shared_tokens = 3
        sharer.caches[0].length = 3
        forks_before = pool.cow_forks
        k_new, v_new = self.rows(sharer, 0, 1, seed=6)
        sharer.write(0, 3, k_new, v_new)
        assert pool.cow_forks == forks_before + 1
        assert sharer.block_table[0] != shared_block
        # Donor sees its original rows; sharer sees the copied prefix
        # plus its own row.
        np.testing.assert_array_equal(
            donor.gather(0, 4)[0][0], k16[0].astype(np.float32)
        )
        np.testing.assert_array_equal(
            sharer.gather(0, 4)[0][0][:, 3], k_new[0][:, 0].astype(np.float32)
        )
        np.testing.assert_array_equal(
            sharer.gather(0, 4)[0][0][:, :3], k16[0][:, :3].astype(np.float32)
        )

    def test_release_is_idempotent(self, config):
        pool = make_pool(config, prefix=False)
        seq = pool.create_sequence(np.arange(2))
        k16, v16 = self.rows(seq, 0, 2, seed=8)
        seq.write(0, 0, k16, v16)
        free_before = pool.free_blocks
        seq.release()
        seq.release()
        assert pool.free_blocks == free_before + 1


class TestSwap:
    """Swap-out/swap-in: a sequence's bytes leave the pool and return."""

    @staticmethod
    def filled(pool, prompt, length, seed=0):
        rng = np.random.default_rng(seed)
        seq = pool.create_sequence(prompt)
        shape = (1, 2, length - seq.shared_tokens, 16)
        for cache in seq.caches:
            cache.append(
                rng.standard_normal(shape).astype(np.float32),
                rng.standard_normal(shape).astype(np.float32),
            )
        return seq

    def test_swap_round_trip_is_bitwise_in_fresh_blocks(self, config):
        pool = make_pool(config, block_size=4)
        prompt = np.arange(9)
        donor = self.filled(pool, prompt, 9, seed=1)
        pool.register_prefix(donor, prompt)
        # The sequence maps the donor's two full prompt blocks.
        seq = self.filled(pool, prompt, 10, seed=2)
        assert seq.shared_tokens == 8
        before = [
            tuple(part.tobytes() for part in seq.gather(layer, 10))
            for layer in range(pool.n_layers)
        ]
        stored = [
            tuple(part.tobytes() for part in seq.gather_reference(layer, 10))
            for layer in range(pool.n_layers)
        ]
        donor_refs = [pool.allocator.refcount(b) for b in donor.block_table]
        free_before = pool.free_blocks
        image = seq.swap_out()
        assert pool.free_blocks == free_before + 1  # its one private block
        assert image.length == 10
        assert image.keys.dtype == np.float16
        assert image.keys.shape == (pool.n_layers, 2, 10, 16)
        restored = pool.swap_in(image, reserved=12)
        # Fresh blocks only: nothing mapped, no donor block pinned.
        assert restored.shared_tokens == 0
        assert not set(restored.block_table) & set(donor.block_table)
        assert [pool.allocator.refcount(b) for b in donor.block_table] == (
            [ref - 1 for ref in donor_refs[:2]] + donor_refs[2:]
        )
        assert restored.length == 10
        for layer in range(pool.n_layers):
            residency = restored.gather(layer, 10)
            assert tuple(part.tobytes() for part in residency) == before[layer]
            pool_bytes = restored.gather_reference(layer, 10)
            assert tuple(part.tobytes() for part in pool_bytes) == stored[layer]

    def test_fault_mid_swap_in_releases_the_blocks_taken(self, config):
        pool = make_pool(config, block_size=4)
        image = self.filled(pool, np.arange(6), 6).swap_out()
        free = pool.free_blocks
        injector = FaultInjector(FaultPlan(rules=(FaultRule(site="paged.gather"),)))
        injector.begin_step(0)
        with injection_scope(injector), pytest.raises(TransientFault):
            # Layer 0 lands (taking both blocks), then its read faults.
            pool.swap_in(image)
        assert injector.fired_total == 1
        assert pool.free_blocks == free
        assert pool.leaked_blocks() == 0


class TestPrefixCache:
    def test_insert_then_match_shares_full_blocks(self, config):
        pool = make_pool(config, block_size=4)
        prompt = np.arange(10)  # 2 full blocks + 2 tail tokens
        seq = pool.create_sequence(prompt)
        assert seq.shared_tokens == 0
        seq.block_table.extend(pool.take_block() for _ in range(3))
        pool.register_prefix(seq, prompt)
        hit = pool.peek_shared(prompt)
        assert hit == 8
        other = pool.create_sequence(prompt)
        assert other.shared_tokens == 8
        assert other.block_table == seq.block_table[:2]
        assert pool.allocator.refcount(seq.block_table[0]) == 3  # seq+cache+other

    def test_fresh_request_never_matches_whole_prompt(self, config):
        # The final prompt position must be recomputed for logits, so
        # a block-aligned full match is capped one token short.
        pool = make_pool(config, block_size=4)
        prompt = np.arange(8)
        seq = pool.create_sequence(prompt)
        seq.block_table.extend(pool.take_block() for _ in range(2))
        pool.register_prefix(seq, prompt)
        fresh = pool.create_sequence(prompt)
        assert fresh.shared_tokens == 7
        assert len(fresh.block_table) == 2  # partial share of block 2
        assert pool.peek_shared(prompt) == 7

    def test_first_writer_wins_on_duplicate_insert(self, config):
        pool = make_pool(config, block_size=4)
        prompt = np.arange(4)
        first = pool.create_sequence(prompt)
        first.block_table.append(pool.take_block())
        pool.register_prefix(first, prompt)
        second = pool.create_sequence(np.arange(4))
        # second shares first's block rather than registering a new one
        assert second.block_table == first.block_table
        # A swapped-in sequence holds the same tokens in its own block;
        # registering it changes nothing: the trie keeps the first
        # writer's bytes, which is why a swap-in never maps the trie.
        image = np.ones((pool.n_layers, 2, 4, 16), dtype=np.float16)
        swapped = pool.swap_in(KVImage(image, image))
        assert swapped.block_table != first.block_table
        assert pool.register_prefix(swapped, prompt) == 0
        assert pool.create_sequence(np.arange(4)).block_table == first.block_table

    def test_eviction_is_lru_and_leaf_first(self, config):
        allocator = BlockAllocator(8)
        cache = PrefixCache(allocator, block_size=2)
        # Chain A: two blocks (parent + child); chain B: one block.
        a0, a1, b0 = (allocator.allocate() for _ in range(3))
        cache.insert(np.arange(4), [a0, a1], clock=1)
        cache.insert(np.arange(10, 12), [b0], clock=2)
        for block in (a0, a1, b0):
            allocator.decref(block)  # cache holds the only reference
        assert cache.reclaimable_blocks() == 3
        # LRU leaf is a1 (clock 1) even though b0's chain is older by
        # insertion; a0 is a parent and must not go before a1.
        assert cache.evict_lru() == a1
        assert cache.evict_lru() == a0
        assert cache.evict_lru() == b0
        assert cache.evict_lru() is None
        assert cache.evicted_blocks == 3

    def test_shared_blocks_are_not_reclaimable(self, config):
        allocator = BlockAllocator(4)
        cache = PrefixCache(allocator, block_size=2)
        block = allocator.allocate()
        cache.insert(np.arange(2), [block], clock=1)
        assert allocator.refcount(block) == 2  # writer + cache
        assert cache.reclaimable_blocks() == 0
        assert cache.evict_lru() is None
        allocator.decref(block)  # writer finishes
        assert cache.reclaimable_blocks() == 1

    def test_pool_exhaustion_reclaims_lru_before_failing(self, config):
        pool = make_pool(config, num_blocks=4, block_size=4)
        prompt = np.arange(4)
        seq = pool.create_sequence(prompt)
        seq.block_table.append(pool.take_block())
        pool.register_prefix(seq, prompt)
        seq.release()  # cache-only now: reclaimable
        assert pool.reclaimable_blocks == 1
        taken = [pool.take_block() for _ in range(4)]  # forces the eviction
        assert pool.evicted_blocks == 1
        assert len(taken) == 4
        with pytest.raises(OutOfBlocksError):
            pool.take_block()


class TestPlanning:
    def test_prefill_block_cost_counts_pinned_reclaimables(self, config):
        pool = make_pool(config, block_size=4)
        prompt = np.arange(8)
        seq = pool.create_sequence(prompt)
        seq.block_table.extend(pool.take_block() for _ in range(2))
        pool.register_prefix(seq, prompt)
        while_held = pool.prefill_block_cost(prompt, 8)
        seq.release()
        after_release = pool.prefill_block_cost(prompt, 8)
        # Shared blocks: 2 (7-token capped match). While the writer
        # holds them they cost nothing extra; once cache-only they are
        # pinned out of the reclaimable budget on admission.  Both
        # cases add one fresh block for the CoW fork of the partial
        # tail.
        assert while_held == 1
        assert after_release == 3

    def test_swap_in_costs_fresh_blocks_for_context_plus_one(self, config):
        # A swap-in maps nothing from the prefix cache, whatever the
        # trie holds: it pays blocks for its whole stored context plus
        # the position its next decode appends.
        pool = make_pool(config, block_size=4)
        prompt = np.arange(8)
        donor = pool.create_sequence(prompt)
        donor.block_table.extend(pool.take_block() for _ in range(2))
        pool.register_prefix(donor, prompt)
        state = RequestState(
            request=Request(
                request_id=0, prompt=prompt, params=SamplingParams()
            )
        )
        for stored, blocks in ((7, 2), (8, 3), (11, 3)):
            image = np.zeros((2, 2, stored, 16), dtype=np.float16)
            state.kv_image = KVImage(image, image)
            assert pool.planner([]).swap_in_blocks(state) == blocks

    def test_blocks_for_append_counts_growth_and_fork(self, config):
        pool = make_pool(config, prefix=False)
        seq = pool.create_sequence(np.arange(2))
        rng = np.random.default_rng(0)
        k16 = rng.standard_normal((1, 2, 4, 16)).astype(np.float16)
        seq.write(0, 0, k16, k16)
        seq.caches[0].length = 4
        assert seq.blocks_for_append(1) == 1  # at capacity: new block
        pool.allocator.incref(seq.block_table[0])
        seq.caches[0].length = 3
        assert seq.blocks_for_append(1) == 1  # shared tail: CoW fork
        assert seq.blocks_for_append(2) == 2  # fork + growth


class TestLeakAccounting:
    def test_fresh_pool_reports_no_leaks(self, config):
        assert make_pool(config).leaked_blocks() == 0

    def test_released_sequence_blocks_are_not_leaks(self, config):
        pool = make_pool(config, block_size=4)
        prompt = np.arange(8)
        seq = pool.create_sequence(prompt)
        seq.block_table.extend(pool.take_block() for _ in range(2))
        pool.register_prefix(seq, prompt)
        # Held by a live sequence *and* the cache: the sequence's share
        # counts as a (transient) leak-check miss only until release.
        seq.release()
        assert pool.leaked_blocks() == 0
        assert pool.reclaimable_blocks == len(pool.prefix_cache)

    def test_unreleased_sequence_counts_as_leak(self, config):
        pool = make_pool(config, prefix=False)
        seq = pool.create_sequence(np.arange(2))
        seq.block_table.append(pool.take_block())
        assert pool.leaked_blocks() == 1  # still held: not yet released
        seq.release()
        assert pool.leaked_blocks() == 0

    def test_cache_resident_stuck_above_refcount_one_is_a_leak(self, config):
        # A release path that forgets a decref leaves a cache node at
        # refcount > 1: never evictable, so it must count as leaked
        # even though the cache still names it.
        pool = make_pool(config, block_size=4)
        prompt = np.arange(8)
        seq = pool.create_sequence(prompt)
        seq.block_table.extend(pool.take_block() for _ in range(2))
        pool.register_prefix(seq, prompt)
        pool.allocator.incref(seq.block_table[0])  # the forgotten ref
        seq.release()
        assert pool.leaked_blocks() == 1
