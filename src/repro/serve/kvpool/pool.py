"""The paged KV pool: physical storage, allocation, sharing, planning.

One :class:`KVPool` turns KV memory into a schedulable resource: a
fixed number of physical blocks (each holding ``block_size`` token
positions of every layer's K/V in float16), a refcounted
:class:`~repro.serve.kvpool.allocator.BlockAllocator` over them, and an
optional :class:`~repro.serve.kvpool.prefix.PrefixCache` that lets
requests sharing a prompt prefix map the same blocks.  The engine
plans admission against the pool's free-block budget (through
:class:`PoolPlanner`) and preempts running requests when decode growth
would otherwise exhaust it.

The default block size is 64 — the Anda group size, so one block row
is exactly one compression group along the time axis.  Bitwise
identity with the unpaged path does not actually require alignment
(Anda groups along the head dimension, per position), and the parity
tests pin that down for unaligned sizes too; 64 keeps block granules
matched to the hardware word the rest of the stack models.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ModelError
from repro.llm.attention import KVCache
from repro.llm.config import ModelConfig
from repro.serve.faults.injector import inject
from repro.serve.kvpool.allocator import BlockAllocator, OutOfBlocksError
from repro.serve.kvpool.paged import SequenceKV
from repro.serve.kvpool.prefix import PrefixCache
from repro.serve.scheduler import KVBlockPlanner

if TYPE_CHECKING:
    from repro.serve.request import RequestState

#: Default positions per block: the Anda group size / hardware word.
DEFAULT_BLOCK_SIZE = 64


class KVPool:
    """Fixed-size paged KV storage shared by all of an engine's requests.

    Args:
        config: model architecture (layer/head geometry of the blocks).
        num_blocks: physical blocks in the pool.
        block_size: token positions per block.
        codec: write-side compressor — an unpaged cache instance
            (:class:`~repro.llm.attention.KVCache` for FP16,
            :class:`~repro.llm.kv_quant.AndaKVCache` for Anda) whose
            ``compress`` / ``compression_key`` the paged caches
            delegate to, keeping stored bytes identical to the unpaged
            path.
        codecs: per-layer default codecs for a pool whose engine runs a
            per-layer :class:`~repro.llm.kv_quant.KVFormat`; overrides
            ``codec`` layer-by-layer for every sequence that does not
            carry its own per-request overrides.
        enable_prefix_cache: share prompt-prefix blocks across requests.
    """

    def __init__(
        self,
        config: ModelConfig,
        num_blocks: int,
        block_size: int = DEFAULT_BLOCK_SIZE,
        codec: KVCache | None = None,
        codecs: list[KVCache] | None = None,
        enable_prefix_cache: bool = True,
    ) -> None:
        if block_size < 1:
            raise ModelError(f"block_size must be >= 1, got {block_size}")
        if codecs is not None and len(codecs) != config.n_layers:
            raise ModelError(
                f"pool codecs must cover all {config.n_layers} layers, "
                f"got {len(codecs)}"
            )
        self.n_layers = config.n_layers
        self.block_size = block_size
        self.num_blocks = num_blocks
        self.codec = codec if codec is not None else KVCache()
        self.codecs = codecs
        self.allocator = BlockAllocator(num_blocks)
        shape = (
            config.n_layers,
            num_blocks,
            config.n_heads,
            block_size,
            config.head_dim,
        )
        self.keys = np.zeros(shape, dtype=np.float16)
        self.values = np.zeros(shape, dtype=np.float16)
        self.prefix_cache = (
            PrefixCache(self.allocator, block_size) if enable_prefix_cache else None
        )
        self.cow_forks = 0  # lifetime copy-on-write fork counter
        self._clock = 0  # recency clock for prefix-cache LRU

    # -- capacity queries -------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return self.allocator.free_blocks

    @property
    def reclaimable_blocks(self) -> int:
        """Cache-only blocks evictable under pressure (refcount 1)."""
        if self.prefix_cache is None:
            return 0
        return self.prefix_cache.reclaimable_blocks()

    @property
    def evicted_blocks(self) -> int:
        return 0 if self.prefix_cache is None else self.prefix_cache.evicted_blocks

    def blocks_for_tokens(self, tokens: int) -> int:
        """Blocks a private sequence of ``tokens`` positions occupies."""
        return -(-tokens // self.block_size)

    def leaked_blocks(self) -> int:
        """Blocks still referenced beyond the prefix cache's own hold.

        Once every live sequence has released — finish, preemption
        rollback, or a client ``abort()`` — each pool block must be
        either on the free list or a *reclaimable* (refcount-1)
        prefix-cache resident.  Two leak classes are counted: blocks
        held by no cache node at all (a sequence that never released),
        and cache residents stuck at refcount > 1 (a release path that
        forgot a decref — such a block can never be evicted, so it is
        leaked even though the cache still names it).  The abort test
        suite and the serving benchmark's abort workload assert this
        is zero after drain.
        """
        cached = 0
        stuck = 0
        if self.prefix_cache is not None:
            cached = len(self.prefix_cache)
            stuck = cached - self.prefix_cache.reclaimable_blocks()
        return self.allocator.used_blocks - cached + stuck

    def max_sequence_blocks(self) -> int:
        """Largest block footprint one request may claim (admission cap).

        One block of slack is reserved for the copy-on-write fork a
        prefix-sharing request may need while the donor block is still
        referenced elsewhere.
        """
        return self.num_blocks - 1

    # -- allocation -------------------------------------------------------

    def take_block(self) -> int:
        """Allocate one block, reclaiming LRU prefix-cache blocks if dry."""
        # Attribution comes from the engine's ambient request scope
        # (set around per-request cache setup); mid-forward growth
        # allocations probe unattributed and fault batch-level.
        inject("pool.allocate")
        while self.allocator.free_blocks == 0:
            if self.prefix_cache is None or self.prefix_cache.evict_lru() is None:
                raise OutOfBlocksError(
                    f"KV pool exhausted: {self.num_blocks} blocks all "
                    "referenced by live requests; the scheduler should have "
                    "preempted before this allocation"
                )
        return self.allocator.allocate()

    def take_blocks(self, count: int) -> list[int]:
        """Allocate ``count`` blocks at once (chunk-write growth).

        Same eviction-on-dry behavior as :meth:`take_block`, but
        all-or-nothing: if the pool runs dry mid-way, the blocks
        already taken are returned to the free list before the error
        propagates, so a failed multi-block grow leaks nothing.
        """
        blocks: list[int] = []
        try:
            for _ in range(count):
                blocks.append(self.take_block())
        except OutOfBlocksError:
            for block in blocks:
                self.allocator.decref(block)
            raise
        return blocks

    # -- sequence lifecycle -----------------------------------------------

    def _shared_cap(self, prompt_tokens: np.ndarray, reserve_logits: bool) -> int:
        # A fresh request must recompute at least its final prompt
        # position to produce first-token logits; a resumed request
        # already holds its first tokens, so its whole prompt may hit.
        length = int(len(prompt_tokens))
        return max(0, length - 1) if reserve_logits else length

    def peek_shared(
        self,
        prompt_tokens: np.ndarray,
        reserve_logits: bool = True,
        shareable: bool = True,
    ) -> int:
        """Prefix-cache hit length (tokens) without taking references."""
        if self.prefix_cache is None or not shareable:
            return 0
        self._clock += 1
        cap = self._shared_cap(prompt_tokens, reserve_logits)
        return self.prefix_cache.peek(prompt_tokens, cap, self._clock)

    def create_sequence(
        self,
        prompt_tokens: np.ndarray,
        reserve_logits: bool = True,
        codecs: list[KVCache] | None = None,
        shareable: bool = True,
        reserved: int = 0,
    ) -> SequenceKV:
        """New request view, seeded with any cached prompt prefix.

        ``codecs`` installs per-layer write-side codec overrides for a
        request whose KV format differs from the pool default;
        ``shareable=False`` opts the sequence out of prefix-cache
        matching — cached blocks hold the *default* format's bytes,
        which a different format must neither read nor contribute to.
        ``reserved`` is the most positions the sequence will ever hold
        (0: unknown); its decode-ready scratch is sized from it once.
        """
        blocks: list[int] = []
        shared_tokens = 0
        if self.prefix_cache is not None and shareable:
            self._clock += 1
            cap = self._shared_cap(prompt_tokens, reserve_logits)
            blocks, shared_tokens = self.prefix_cache.match(
                prompt_tokens, cap, self._clock
            )
        return SequenceKV(
            self, list(blocks), shared_tokens, codecs=codecs, reserved=reserved
        )

    def register_prefix(self, sequence: SequenceKV, prompt_tokens: np.ndarray) -> int:
        """Cache a prefilled prompt's full blocks for future sharing.

        Sequences carrying per-layer codec overrides are refused (they
        return 0 registered blocks): their bytes are not what the
        pool's default codec would have written, so a later sharer
        would silently read the wrong format.
        """
        if self.prefix_cache is None or sequence.codecs is not None:
            return 0
        self._clock += 1
        return self.prefix_cache.insert(
            prompt_tokens, sequence.block_table, self._clock
        )

    # -- scheduler integration --------------------------------------------

    def prefill_block_cost(
        self,
        prompt_tokens: np.ndarray,
        total_positions: int,
        reserve_logits: bool = True,
        shareable: bool = True,
    ) -> int:
        """Pool-budget cost (blocks) of admitting one prefill.

        ``total_positions`` is the sequence length after the prefill
        step (prompt plus any replayed decode tokens on resume).  The
        cost counts *fresh* blocks beyond the shared prefix, one slack
        block for a copy-on-write fork when the hit ends mid-block, and
        — crucially — every matched block the admission would *pin*:
        a cache-only (refcount 1) block counted in the reclaimable
        budget stops being reclaimable the moment this request maps it,
        so it must be charged against the same budget.

        ``shareable=False`` (a request whose KV format differs from the
        pool default) prices the prefill with no prefix sharing at all
        — its full fresh-block footprint — matching what
        :meth:`create_sequence` will actually allocate for it.
        """
        return self._admission_cost(
            prompt_tokens, total_positions, reserve_logits, shareable
        )

    def chunk_block_cost(
        self,
        prompt_tokens: np.ndarray,
        chunk_tokens: int,
        shareable: bool = True,
    ) -> int:
        """Pool-budget cost (blocks) of a fresh request's *first chunk*.

        Chunked admissions only commit the chunk's footprint: blocks to
        hold the positions written this step (beyond any shared
        prefix), plus the same CoW-slack and pinning charges as a full
        prefill.  Later chunks of a half-prefilled request are costed
        by the planner as plain cache growth
        (:meth:`SequenceKV.blocks_for_append`).
        """
        shared = self.peek_shared(
            prompt_tokens, reserve_logits=True, shareable=shareable
        )
        end = min(int(len(prompt_tokens)), shared + chunk_tokens)
        return self._admission_cost(
            prompt_tokens, end, reserve_logits=True, shareable=shareable
        )

    def _admission_cost(
        self,
        prompt_tokens: np.ndarray,
        total_positions: int,
        reserve_logits: bool,
        shareable: bool = True,
    ) -> int:
        shared_blocks: list[int] = []
        shared = 0
        if self.prefix_cache is not None and shareable:
            self._clock += 1
            cap = self._shared_cap(prompt_tokens, reserve_logits)
            shared_blocks, shared = self.prefix_cache.peek_blocks(
                prompt_tokens, cap, self._clock
            )
        fresh = max(0, self.blocks_for_tokens(total_positions) - len(shared_blocks))
        if shared % self.block_size:
            fresh += 1
        pinned = sum(
            1 for block in shared_blocks if self.allocator.refcount(block) == 1
        )
        return fresh + pinned

    def planner(self, running: list[RequestState]) -> "PoolPlanner":
        return PoolPlanner(self, running)


class PoolPlanner(KVBlockPlanner):
    """Adapts one pool + the running set to the scheduler's block budget.

    The budget offered to admissions is what is free or reclaimable
    *after* reserving the running requests' decode growth — running
    requests are never starved of blocks by new admissions.
    """

    def __init__(self, pool: KVPool, running: list[RequestState]) -> None:
        self._pool = pool
        decode_growth = sum(
            state.kv.blocks_for_append(1) for state in running if state.kv is not None
        )
        self._available = pool.free_blocks + pool.reclaimable_blocks - decode_growth

    def available_blocks(self) -> int:
        return self._available

    def prefill_blocks(self, state: RequestState) -> int:
        return self._pool.prefill_block_cost(
            state.request.prompt,
            state.prefill_tokens,
            reserve_logits=not state.generated,
            shareable=not getattr(state, "kv_private", False),
        )

    def chunk_blocks(self, state: RequestState, tokens: int) -> int:
        if state.kv is not None:
            # Half-prefilled: the chunk is plain growth of its cache.
            return state.kv.blocks_for_append(tokens)
        return self._pool.chunk_block_cost(
            state.request.prompt,
            tokens,
            shareable=not getattr(state, "kv_private", False),
        )

    def admit(self, blocks_needed: int) -> None:
        self._available -= blocks_needed
