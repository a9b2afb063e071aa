"""Test-only storage oracles for the KV hot path.

The serving stack stores KV in one write-through float32 residency per
layer cache, backed by float16 pool blocks.  These are the
pre-optimization storages it replaced, kept here as the bitwise oracles
the pinning tests compare against:

* :class:`ReferenceKVCache` — per-append concatenate plus a full
  float32 conversion on every read (O(history) per step);
* :func:`gather_reference` — a paged sequence's stored float16 bytes,
  read back block by block from the pool and widened to float32.

Both charge the active stats scope what they copy and convert, as the
storage they stand in for did.
"""

from __future__ import annotations

import numpy as np

from repro.core import fp16
from repro.errors import ModelError
from repro.llm.attention import KVCache, active_scope
from repro.serve.kvpool.paged import SequenceKV


class ReferenceKVCache(KVCache):
    """The pre-optimization O(history)-per-step storage.

    Appends float16 rows by whole-array concatenate and converts the
    full history to float32 on every :meth:`view` — what
    :class:`~repro.llm.attention.KVCache` did before its preallocated
    residency.  An optional ``codec`` delegates the write-side
    compression, so one reference class covers FP16 and Anda storage.
    """

    __slots__ = ("_codec", "_ref_k", "_ref_v")

    def __init__(self, codec: KVCache | None = None) -> None:
        super().__init__()
        self._codec = codec
        self._ref_k: np.ndarray | None = None
        self._ref_v: np.ndarray | None = None

    def compress(self, tensor: np.ndarray) -> np.ndarray:
        return tensor if self._codec is None else self._codec.compress(tensor)

    def compression_key(self) -> tuple:
        return ("fp16",) if self._codec is None else self._codec.compression_key()

    @property
    def keys(self) -> np.ndarray | None:
        """Stored float16 keys ``(batch, heads, length, hd)``."""
        return self._ref_k

    @property
    def values(self) -> np.ndarray | None:
        """Stored float16 values ``(batch, heads, length, hd)``."""
        return self._ref_v

    def _store(self, start: int, k: np.ndarray, v: np.ndarray) -> None:
        # Saturating float16 casts: the oracle for fp16.round_to_half /
        # pack_half, which the optimized write path uses instead.
        k16 = np.clip(k, -fp16.MAX_FINITE, fp16.MAX_FINITE).astype(np.float16)
        v16 = np.clip(v, -fp16.MAX_FINITE, fp16.MAX_FINITE).astype(np.float16)
        if self._ref_k is None:
            self._ref_k, self._ref_v = k16, v16
        else:
            self._ref_k = np.concatenate([self._ref_k, k16], axis=2)
            self._ref_v = np.concatenate([self._ref_v, v16], axis=2)
            active_scope().hot.copy_bytes += self._ref_k.nbytes + self._ref_v.nbytes

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        if self._ref_k is None:
            raise ModelError("view() on an empty KV cache")
        keys = self._ref_k.astype(np.float32)
        values = self._ref_v.astype(np.float32)
        active_scope().hot.dequant_bytes += keys.nbytes + values.nbytes
        return keys, values

    def truncate(self, length: int) -> None:
        super().truncate(length)
        if self._ref_k is not None:
            if length == 0:
                self._ref_k = None
                self._ref_v = None
            else:
                self._ref_k = self._ref_k[:, :, :length]
                self._ref_v = self._ref_v[:, :, :length]


def gather_reference(
    sequence: SequenceKV, layer: int, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """The pre-optimization paged gather: per-block loop + concatenate.

    Re-materializes and widens the first ``length`` stored positions of
    one layer from the pool on every call, as ``(1, H, length, hd)``
    float32 keys and values.
    """
    pool = sequence.pool
    size = pool.block_size
    k_parts, v_parts = [], []
    remaining = length
    for block in sequence.block_table:
        if remaining <= 0:
            break
        rows = min(size, remaining)
        k_parts.append(pool.keys[layer, block, :, :rows])
        v_parts.append(pool.values[layer, block, :, :rows])
        remaining -= rows
    keys = np.concatenate(k_parts, axis=1)[None].astype(np.float32)
    values = np.concatenate(v_parts, axis=1)[None].astype(np.float32)
    scope = active_scope()
    scope.hot.copy_bytes += (keys.nbytes + values.nbytes) // 2
    scope.hot.dequant_bytes += keys.nbytes + values.nbytes
    return keys, values
