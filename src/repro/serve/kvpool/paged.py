"""Block-table-backed KV caches: the paged counterpart of ``KVCache``.

A :class:`SequenceKV` is one request's view of the pool: an ordered
block table (shared across layers — a block holds every layer's K/V
for its token positions) plus one :class:`PagedKVCache` per layer that
plugs into the attention lanes, ``step_mixed`` (chunks, and sequential
``forward_step``) and ``step_batch`` (decode rows).
Writes scatter new positions into blocks (allocating or copy-on-write
forking as needed).  The pool stores float16: a codec's ``compress``
returns float32 rows exact in float16, narrowed once on the way into
the blocks by :func:`repro.core.fp16.pack_half` (NumPy's float16 casts
run one element at a time; the helper is a shift and a table gather),
while the residency takes the float32 rows as they are.  Stored values
are identical to the unpaged ``KVCache`` — float16 values, compressed
per position — so paged decode is bitwise identical to unpaged decode.

Reading is the decode hot path: every layer of every step reads a
request's whole history.  Each layer cache therefore holds the same
**one decode-ready residency** as an unpaged cache — the float32 K/V
buffer :class:`~repro.llm.attention.KVCache` owns, writes through,
grows, truncates and releases — and adds only what paging needs:

* **the pool read** — :meth:`PagedKVCache._fetch` fills the positions
  above the residency's watermark (a shared prefix on first read) with
  one vectorized fancy-index gather over the block table.  Everything
  the sequence writes itself lands through a write-through — the chunk
  lane's :meth:`SequenceKV.write`, the decode lane's
  :meth:`PagedKVCache.append_batch` (one pool scatter per tensor for a
  whole layer's decode rows) — so a decode step costs O(new tokens) and
  never reads the pool back;
* **the reservation** — the residency is sized to the request's final
  length (``prompt + max_new_tokens``, passed by the engine at
  creation), so it never regrows; sequences created without one fall
  back to capacity doubling.

``truncate`` / ``rollback`` clamp the watermark (the residency below it
stays valid); :meth:`SequenceKV.release` frees every layer's residency
with the blocks it mirrors.  Copy-on-write forks copy bytes verbatim,
so they never invalidate it.  The tests keep the original
per-block-loop float32 gather as their parity oracle.

Preemption moves a sequence out of the pool and back without
recomputing it: :meth:`SequenceKV.swap_out` releases the sequence and
returns its stored float16 bytes as a :class:`KVImage`, and
:meth:`~repro.serve.kvpool.pool.KVPool.swap_in` lands an image in fresh
blocks, bitwise what the sequence held before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core import fp16
from repro.errors import ModelError
from repro.llm.attention import KVCache
from repro.serve.faults.injector import inject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pool -> paged)
    from repro.serve.kvpool.pool import KVPool


@dataclass(frozen=True, slots=True, eq=False)
class KVImage:
    """A swapped-out sequence's stored K/V, held outside the pool.

    ``keys`` / ``values`` are ``(layers, heads, length, head_dim)``
    float16 — the pool's own 4 B per K/V element pair, never the
    residency's 8 B.  Identity semantics (``eq=False``): it holds
    ndarrays.
    """

    keys: np.ndarray
    values: np.ndarray

    @property
    def length(self) -> int:
        """Positions the image holds."""
        return int(self.keys.shape[2])


class PagedKVCache(KVCache):
    """One layer's KV history stored in pool blocks.

    Drop-in for :class:`~repro.llm.attention.KVCache`: ``append`` /
    ``append_precompressed`` scatter through the sequence's block table
    and return the decode-ready history, and ``compress`` /
    ``compression_key`` delegate to the sequence's codec so the batched
    decode path can precompress a whole batch in one call exactly as it
    does for unpaged caches.
    """

    __slots__ = ("_sequence", "_layer", "_codec", "_key")

    def __init__(self, sequence: "SequenceKV", layer: int) -> None:
        super().__init__()
        self._sequence = sequence
        self._layer = layer
        # A sequence's codecs are fixed at creation: bind this layer's
        # once rather than on every decode step.
        self._codec = sequence.codecs[layer]
        self._key = self._codec.compression_key()
        self.length = sequence.shared_tokens
        self._reserved = sequence.reserved

    def compress(self, tensor: np.ndarray) -> np.ndarray:
        # Attribution caveat: a stacked-group compress call reaches
        # here through one member cache on behalf of the whole group;
        # the owner id is still the right attribution because the
        # engine rolls the entire step back on any mid-forward fault
        # before quarantining/retrying the attributed request.
        inject("codec.encode", self._sequence.owner)
        return self._codec.compress(tensor)

    def compression_key(self) -> tuple:
        return self._key

    @classmethod
    def append_batch(
        cls, caches: list[KVCache], k: np.ndarray, v: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Land one decode row per cache with one pool scatter per tensor.

        ``k`` / ``v`` are the decode lane's float16 rows (float32 rows
        exact in float16 also land exactly, through NumPy's slower
        cast).  Every cache must be one layer of a sequence in one pool (else
        the base per-cache loop runs).  Each sequence first grows and
        copy-on-write forks its block table exactly as
        :meth:`SequenceKV.write` would; then ``pool.keys[layer, blocks,
        :, rows]`` lands every row's K (and likewise V) in one
        fancy-index assignment; then each residency is written through
        and read back via :meth:`view`, so the ``paged.gather`` probe
        fires once per cache.  The scatter lands every row before any
        row's probe fires; a fault after it leaves rows above some
        caches' lengths, which rollback trims like any aborted write.
        :meth:`SequenceKV.write`'s per-block loop stays the chunk lane's
        path: for one sequence's many positions it is the faster one.
        """
        first = caches[0]
        if not isinstance(first, PagedKVCache) or k.shape[2] != 1:
            return super().append_batch(caches, k, v)
        pool, layer = first._sequence.pool, first._layer
        paged = [
            cache
            for cache in caches
            if isinstance(cache, PagedKVCache)
            and cache._sequence.pool is pool
            and cache._layer == layer
        ]
        if len(paged) != len(caches):
            return super().append_batch(caches, k, v)
        size, allocator = pool.block_size, pool.allocator
        blocks, rows = [], []
        for cache in paged:
            sequence = cache._sequence
            table = sequence.block_table
            start = cache.length
            index = start // size
            # The common step writes into an owned block: nothing to do.
            if index >= len(table) or allocator.is_shared(table[index]):
                sequence._ensure_writable(start, start + 1)
            blocks.append(table[index])
            rows.append(start % size)
        # (B, H, hd) on both sides: the two index arrays are split by a
        # slice, so their broadcast axis leads.
        pool.keys[layer, blocks, :, rows] = k[:, :, 0]
        pool.values[layer, blocks, :, rows] = v[:, :, 0]
        views = []
        for index, cache in enumerate(paged):
            row = slice(index, index + 1)
            cache.write_through(cache.length, k[row], v[row])
            cache.length += 1
            views.append(cache.view())
        return views

    def _store(self, start: int, k: np.ndarray, v: np.ndarray) -> None:
        if k.shape[0] != 1:
            raise ModelError(f"paged caches hold one request, got batch {k.shape[0]}")
        self._sequence.write(self._layer, start, k, v)

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        # Defined here rather than inherited: the benchmark ledger
        # times the paged read under this name.
        return self.read(self.length)

    def read(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode-ready ``(1, H, length, hd)`` history: K and V float32.

        Resident positions are served in place; anything above the
        watermark is fetched from the pool first.
        """
        inject("paged.gather", self._sequence.owner)
        if self._filled < length:
            self._fetch(self._filled, length)
        return super().read(length)

    def _fetch(self, start: int, stop: int) -> None:
        """Land pool positions ``[start, stop)`` in the residency.

        One fancy-index gather over the block-table slice the positions
        span (``O(fetched positions)``, never the whole table), written
        through like any other float16 rows.
        """
        sequence = self._sequence
        pool = sequence.pool
        size = pool.block_size
        positions = np.arange(start, stop)
        first = start // size
        table = np.asarray(
            sequence.block_table[first : -(-stop // size)], dtype=np.intp
        )
        blocks = table[positions // size - first]
        rows = positions % size
        # (T, H, hd) gathers, landed as (1, H, T, hd) rows.
        self.write_through(
            start,
            pool.keys[self._layer, blocks, :, rows].transpose(1, 0, 2)[None],
            pool.values[self._layer, blocks, :, rows].transpose(1, 0, 2)[None],
        )


class SequenceKV:
    """One request's block table plus its per-layer paged caches.

    Created by :meth:`~repro.serve.kvpool.pool.KVPool.create_sequence`,
    possibly seeded with shared prefix blocks (``shared_tokens`` cached
    positions the request never recomputes).  The table is append-only
    from the writer's point of view; the only in-place mutation is the
    copy-on-write fork that replaces a shared block with a private copy
    the first time this request writes into it.

    ``codecs`` holds one write-side codec per layer, fixed at creation:
    the engine passes its request's ``kv_format.codecs(n_layers)``, and
    a free-standing sequence (``codecs=None``) uses the pool's default
    ``codec`` on every layer.  ``shareable`` says whether those codecs
    write the engine default's bytes: only then may the sequence map
    or register prefix-cache blocks.

    ``reserved`` is the most positions the request can ever hold
    (``prompt + max_new_tokens``; 0 when unknown): every layer cache
    sizes its decode-ready residency from it once (see the module
    docstring), so it never regrows.
    """

    __slots__ = (
        "pool",
        "block_table",
        "shared_tokens",
        "caches",
        "codecs",
        "shareable",
        "owner",
        "reserved",
        "_released",
    )

    def __init__(
        self,
        pool: "KVPool",
        block_table: list[int],
        shared_tokens: int,
        codecs: "list[KVCache] | None" = None,
        shareable: bool = True,
        reserved: int = 0,
    ) -> None:
        self.pool = pool
        self.block_table = block_table
        self.shared_tokens = shared_tokens
        self.reserved = reserved
        if codecs is None:
            codecs = [pool.codec] * pool.n_layers
        elif len(codecs) != pool.n_layers:
            raise ModelError(
                f"per-layer codecs cover {len(codecs)} layers, pool has "
                f"{pool.n_layers}"
            )
        self.codecs = codecs
        self.shareable = shareable
        #: Owning request id for fault attribution; set by the engine
        #: when it binds this sequence to a request, None for
        #: free-standing sequences (tests, benchmarks).
        self.owner: int | None = None
        self.caches = [PagedKVCache(self, layer) for layer in range(pool.n_layers)]
        self._released = False

    @property
    def length(self) -> int:
        """Positions written (layer 0 leads during a forward pass)."""
        return self.caches[0].length

    @property
    def capacity(self) -> int:
        return len(self.block_table) * self.pool.block_size

    def blocks_for_append(self, n_new: int) -> int:
        """Upper bound on fresh blocks appending ``n_new`` positions needs.

        Counts capacity growth plus one block when the first write
        would land in a shared block (the copy-on-write fork allocates
        a private copy while other owners keep the original).
        """
        size = self.pool.block_size
        start, end = self.length, self.length + n_new
        needed = max(0, -(-end // size) - len(self.block_table))
        if start < self.capacity and self.pool.allocator.is_shared(
            self.block_table[start // size]
        ):
            needed += 1
        return needed

    # -- write path -------------------------------------------------------

    def _ensure_writable(self, start: int, end: int) -> None:
        """Grow the table to ``end`` and privatize touched shared blocks."""
        size = self.pool.block_size
        missing = -(-end // size) - len(self.block_table)
        if missing > 0:
            self.block_table.extend(self.pool.take_blocks(missing))
        allocator = self.pool.allocator
        for index in range(start // size, -(-end // size)):
            if allocator.is_shared(self.block_table[index]):
                self._fork(index)

    def _fork(self, index: int) -> None:
        """Copy-on-write: replace a shared block with a private copy."""
        old = self.block_table[index]
        new = self.pool.take_block()
        # A block carries every layer's K/V for its positions, so one
        # fork copies the whole position range across layers.
        self.pool.keys[:, new] = self.pool.keys[:, old]
        self.pool.values[:, new] = self.pool.values[:, old]
        self.pool.allocator.decref(old)
        self.block_table[index] = new
        self.pool.cow_forks += 1

    def write(self, layer: int, start: int, k: np.ndarray, v: np.ndarray) -> None:
        """Scatter ``(1, H, T, hd)`` stored-form rows into blocks, then write through.

        ``k`` / ``v`` are float16 rows (the decode lane's bulk cast) or
        float32 rows exact in float16 (a codec's ``compress`` output,
        the chunk lane).  Float32 rows are narrowed once, before the
        block loop, by :func:`repro.core.fp16.pack_half` — a shift and
        a table gather rather than NumPy's element-at-a-time float16
        cast — and that narrowing is the only float16 crossing they
        make.  The layer cache's
        :meth:`~repro.llm.attention.KVCache.write_through` then extends
        its residency straight from ``k`` / ``v`` (a copy for float32
        rows) when the rows land at (or below) its watermark — every
        engine append once the residency is seeded — so the next read
        has nothing to fetch.  Rows landing above it leave the gap for
        that read to fetch.
        """
        k16 = k if k.dtype == np.float16 else fp16.pack_half(k)
        v16 = v if v.dtype == np.float16 else fp16.pack_half(v)
        new_len = k16.shape[2]
        end = start + new_len
        self._ensure_writable(start, end)
        size = self.pool.block_size
        position, offset = start, 0
        while offset < new_len:
            block = self.block_table[position // size]
            row = position % size
            count = min(size - row, new_len - offset)
            self.pool.keys[layer, block, :, row : row + count] = k16[
                0, :, offset : offset + count
            ]
            self.pool.values[layer, block, :, row : row + count] = v16[
                0, :, offset : offset + count
            ]
            position += count
            offset += count
        self.caches[layer].write_through(start, k, v)

    # -- teardown ---------------------------------------------------------

    def rollback(self, length: int) -> None:
        """Roll the whole sequence back to ``length`` positions.

        The engine's batch-level fault recovery: every layer cache is
        truncated to ``length`` (layers the aborted forward never
        reached are already there) and blocks past the kept range are
        returned to the pool.  Copy-on-write forks taken during the
        aborted step are kept — a fork copies its block's bytes
        verbatim, so the kept prefix is bitwise intact and replaying
        the dropped positions reproduces the pre-fault bytes exactly.
        """
        if self._released:
            raise ModelError("rollback() on a released sequence")
        if length < self.shared_tokens:
            raise ModelError(
                f"rollback({length}) below the shared prefix "
                f"({self.shared_tokens} tokens)"
            )
        for cache in self.caches:
            if cache.length > length:
                cache.truncate(length)
        size = self.pool.block_size
        keep = -(-length // size)
        for block in self.block_table[keep:]:
            self.pool.allocator.decref(block)
        del self.block_table[keep:]

    def swap_out(self) -> KVImage:
        """Release the sequence; return its stored bytes as an image.

        The image holds positions ``[0, length)`` of every layer, taken
        with one fancy-index gather per tensor over the block table.
        """
        size = self.pool.block_size
        positions = np.arange(self.length)
        blocks = np.asarray(self.block_table, dtype=np.intp)[positions // size]
        rows = positions % size
        # Release first, gather second: preemption fires when residency
        # is at its high-water mark, so the float32 residency is freed
        # before the image is allocated.  Freed blocks keep their bytes
        # until the next take_block, and nothing writes the pool
        # between these two statements.
        self.release()
        # (T, L, H, hd) gathers: the two index arrays are split by a
        # slice, so their broadcast axis leads.
        keys = self.pool.keys[:, blocks, :, rows].transpose(1, 2, 0, 3)
        values = self.pool.values[:, blocks, :, rows].transpose(1, 2, 0, 3)
        return KVImage(keys, values)

    def release(self) -> None:
        """Drop this sequence's references (blocks may live on, shared)."""
        if self._released:
            return
        for block in self.block_table:
            self.pool.allocator.decref(block)
        self.block_table = []
        self._released = True
        # Free each layer's residency with the blocks it mirrors.
        for cache in self.caches:
            cache.release()
