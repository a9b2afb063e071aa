"""Radix-trie prefix cache mapping prompt prefixes to physical blocks.

Requests that share a prompt prefix can map the *same* physical KV
blocks instead of recomputing and re-storing them: a system prompt
prefilled once is read by every request that starts with it.  The trie
is block-granular — each edge is the token tuple of one full block —
so a match covers whole blocks; the pool additionally shares the last
matched block *partially* (copy-on-write protects it) when the sharing
cap cuts mid-block.

The cache holds one allocator reference per trie node, which keeps a
finished request's prompt blocks resident after the request itself is
freed.  Under pool pressure those cache-only blocks (refcount 1) are
reclaimed leaf-first in LRU order — a parent block is never evicted
while a child below it survives, so every path from the root always
describes contiguous, resident prefix KV.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.serve.kvpool.allocator import BlockAllocator


@dataclass(slots=True)
class TrieNode:
    """One full block of a cached prompt prefix."""

    block_id: int
    last_use: int = 0
    parent: "TrieNode | None" = None
    children: dict[tuple, "TrieNode"] = field(default_factory=dict)


class PrefixCache:
    """Block-granular radix trie over cached prompt prefixes.

    Args:
        allocator: the pool's allocator; the cache holds one reference
            per node so cached blocks survive their writer.
        block_size: token positions per block (the chunking unit).
    """

    def __init__(self, allocator: BlockAllocator, block_size: int) -> None:
        if block_size < 1:
            raise ModelError(f"block_size must be >= 1, got {block_size}")
        self._allocator = allocator
        self._block_size = block_size
        self._root = TrieNode(block_id=-1)  # sentinel, holds no block
        self._nodes: dict[int, TrieNode] = {}  # block_id -> node
        self.evicted_blocks = 0  # lifetime eviction counter

    def __len__(self) -> int:
        return len(self._nodes)

    def _chunks(self, tokens: np.ndarray) -> Iterator[tuple[int, ...]]:
        """Full-block token tuples, lazily — walks usually break early."""
        size = self._block_size
        for i in range(len(tokens) // size):
            yield tuple(int(t) for t in tokens[i * size : (i + 1) * size])

    # -- lookup -----------------------------------------------------------

    def _walk(self, tokens: np.ndarray, clock: int) -> list[TrieNode]:
        node = self._root
        path: list[TrieNode] = []
        for chunk in self._chunks(tokens):
            child = node.children.get(chunk)
            if child is None:
                break
            child.last_use = clock  # refresh recency even on peek, so a
            path.append(child)  # planned match is evicted last
            node = child
        return path

    def peek(self, tokens: np.ndarray, max_tokens: int, clock: int) -> int:
        """Shareable prefix length (tokens) without taking references."""
        return self.peek_blocks(tokens, max_tokens, clock)[1]

    def peek_blocks(
        self, tokens: np.ndarray, max_tokens: int, clock: int
    ) -> tuple[list[int], int]:
        """Longest cached prefix of ``tokens``, capped at ``max_tokens``.

        Returns ``(block_ids, shared_tokens)`` without taking references
        (planning).  The final block may be only partially covered by
        ``shared_tokens`` when the cap cuts mid-block.
        """
        path = self._walk(tokens, clock)
        shared_tokens = min(len(path) * self._block_size, max_tokens)
        if shared_tokens <= 0:
            return [], 0
        keep = -(-shared_tokens // self._block_size)  # ceil division
        return [node.block_id for node in path[:keep]], shared_tokens

    def match(
        self, tokens: np.ndarray, max_tokens: int, clock: int
    ) -> tuple[list[int], int]:
        """:meth:`peek_blocks`, taking one reference per returned block.

        The caller owns the references.  When the cap cuts the final
        block mid-way, the caller's first write into it must
        copy-on-write.
        """
        blocks, shared_tokens = self.peek_blocks(tokens, max_tokens, clock)
        for block_id in blocks:
            self._allocator.incref(block_id)
        return blocks, shared_tokens

    # -- insertion --------------------------------------------------------

    def insert(self, tokens: np.ndarray, block_table: list[int], clock: int) -> int:
        """Register a prompt's full blocks; returns blocks newly cached.

        Walks the trie along the prompt's full-block chunks, reusing
        existing nodes (first writer wins — a duplicate prompt does not
        replace the cached block) and adding nodes backed by the
        request's own blocks where the path runs out.  Each new node
        takes one allocator reference owned by the cache.
        """
        full = len(tokens) // self._block_size
        if full > len(block_table):
            raise ModelError(
                f"prompt spans {full} full blocks but the table holds "
                f"{len(block_table)}"
            )
        node = self._root
        added = 0
        for index, chunk in enumerate(self._chunks(tokens)):
            child = node.children.get(chunk)
            if child is None:
                block_id = block_table[index]
                if block_id in self._nodes:
                    # One physical block cannot sit at two trie
                    # positions; stop extending this path.
                    break
                child = TrieNode(block_id=block_id, parent=node)
                node.children[chunk] = child
                self._nodes[block_id] = child
                self._allocator.incref(block_id)
                added += 1
            child.last_use = clock
            node = child
        return added

    # -- reclamation ------------------------------------------------------

    def _evictable(self) -> list[TrieNode]:
        """Leaf nodes whose block only the cache still references."""
        return [
            node
            for node in self._nodes.values()
            if not node.children and self._allocator.refcount(node.block_id) == 1
        ]

    def reclaimable_blocks(self) -> int:
        """Blocks the cache could release under pressure (refcount 1).

        Prefix sharing increfs a whole root path, so refcounts are
        monotone non-increasing down the trie: every refcount-1 node is
        transitively reachable through refcount-1 ancestors and will be
        freed leaf-first.
        """
        return sum(
            1
            for node in self._nodes.values()
            if self._allocator.refcount(node.block_id) == 1
        )

    def evict_lru(self) -> int | None:
        """Free the least-recently-used evictable leaf; returns its id."""
        candidates = self._evictable()
        if not candidates:
            return None
        victim = min(candidates, key=lambda node: (node.last_use, node.block_id))
        self._detach(victim)
        self._allocator.decref(victim.block_id)
        self.evicted_blocks += 1
        return victim.block_id

    def _detach(self, node: TrieNode) -> None:
        assert node.parent is not None
        for chunk, child in list(node.parent.children.items()):
            if child is node:
                del node.parent.children[chunk]
                break
        del self._nodes[node.block_id]
