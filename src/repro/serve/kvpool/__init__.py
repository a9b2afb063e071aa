"""Paged KV-cache memory subsystem for the serving engine.

vLLM-style KV paging over the numpy substrate: a fixed pool of
physical blocks (:class:`~repro.serve.kvpool.pool.KVPool`) managed by
a refcounted free-list allocator with copy-on-write
(:class:`~repro.serve.kvpool.allocator.BlockAllocator`), block-backed
per-request caches that plug into the existing attention paths
(:class:`~repro.serve.kvpool.paged.PagedKVCache` /
:class:`~repro.serve.kvpool.paged.SequenceKV`), a radix-trie prefix
cache that maps shared prompt prefixes onto shared physical blocks
(:class:`~repro.serve.kvpool.prefix.PrefixCache`), a preemption
policy for eviction under pool pressure
(:class:`~repro.serve.kvpool.preempt.Preemptor`), and the float16
image a preempted sequence's bytes wait in until they are swapped back
(:class:`~repro.serve.kvpool.paged.KVImage`).

Every engine stores its KV here, sized by ``EngineConfig.kv_pool_blocks``
and ``kv_block_size``; see ``src/repro/serve/README.md`` for sizing and
policy notes.
"""

from repro.serve.kvpool.allocator import BlockAllocator, OutOfBlocksError
from repro.serve.kvpool.paged import KVImage, PagedKVCache, SequenceKV
from repro.serve.kvpool.pool import DEFAULT_BLOCK_SIZE, KVPool, PoolPlanner
from repro.serve.kvpool.preempt import Preemptor
from repro.serve.kvpool.prefix import PrefixCache

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "BlockAllocator",
    "KVImage",
    "KVPool",
    "OutOfBlocksError",
    "PagedKVCache",
    "PoolPlanner",
    "Preemptor",
    "PrefixCache",
    "SequenceKV",
]
