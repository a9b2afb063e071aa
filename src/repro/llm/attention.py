"""Causal multi-head self-attention with the A_qkv / A_o tap points.

One fused QKV projection consumes the (possibly quantized) ``A_qkv``
activation; the attention output consumes ``A_o`` before the output
projection.  LLaMA-family models apply rotary position embeddings to
queries and keys; OPT-family models rely on the model's learned position
embeddings instead.

Two forward paths are provided:

* :meth:`MultiHeadAttention.__call__` — autograd path used for training
  and whole-sequence (prefill) evaluation.
* :meth:`MultiHeadAttention.step` — plain-numpy incremental path with a
  KV cache, used by :mod:`repro.llm.generation` (the paper keeps the KV
  cache in FP16; so does this model).
"""

from __future__ import annotations

import contextvars
import itertools
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.precision import TensorKind
from repro.errors import ModelError
from repro.llm.autograd import Tensor, concat, softmax
from repro.llm.config import ModelConfig
from repro.llm.hooks import ActivationTap
from repro.llm.layers import Linear, Module

#: Additive mask value for future positions (large enough to zero the
#: softmax in float32 without producing NaN through inf - inf).
MASK_VALUE = -1e9


def causal_mask(length: int) -> np.ndarray:
    """Upper-triangular additive mask of shape (length, length)."""
    mask = np.zeros((length, length), dtype=np.float32)
    mask[np.triu_indices(length, k=1)] = MASK_VALUE
    return mask


# -- decode hot-path accounting -----------------------------------------------


@dataclass
class KVHotPathStats:
    """Process-wide counters of Python-side KV re-materialization work.

    Two byte streams distinguish necessary work from waste on the
    decode hot path:

    * ``copy_bytes`` — bytes memcpy'd moving *already-stored* history
      around: capacity-doubling buffer growth, scratch growth, and the
      reference implementations' per-append concatenates.  Amortized
      O(1) per token for the preallocated path; O(history) per step
      for the reference path.
    * ``dequant_bytes`` — bytes actually materialized in the
      decode-ready residency for attention reads (float32 keys,
      float64 values — 12 bytes per stored float16 pair).
      Incremental views convert only the tail appended since the last
      step; the reference path re-converts the whole history (to
      float32) every layer every step.

    The engine snapshots these around each step and reports the deltas
    (``StepReport.kv_copy_bytes`` / ``kv_dequant_bytes``), which is
    what makes the hot-path win measurable and CI-gateable.
    """

    copy_bytes: int = 0
    dequant_bytes: int = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.copy_bytes, self.dequant_bytes)

    def reset(self) -> None:
        self.copy_bytes = 0
        self.dequant_bytes = 0


#: The process-wide instance every cache variant reports into.
HOT_PATH_STATS = KVHotPathStats()


@dataclass
class AttentionDispatchStats:
    """Process-wide counters of attention kernel launches.

    ``dispatches`` counts attention-pipeline launches: one per
    :meth:`MultiHeadAttention._attention_core` call (the per-request
    oracle — prefill segments and ungrouped decode both land here) plus
    one per multi-request bucket run by :class:`BucketedAttention`.
    The per-request decode path costs ``layers x batch`` dispatches per
    step; the grouped path costs ``layers x buckets`` — that ratio is
    the structural win the decode hot-path benchmark gates.

    ``grouped_requests`` counts requests served through a multi-request
    bucket (a measure of how much of the batch the planner managed to
    group), and ``padded_slots`` counts wasted key positions scored in
    padded buckets (``sum(bucket_len - request_len)`` — what the
    pad-waste cap bounds, and what :func:`repro.hw.traffic.
    decode_step_traffic` charges as padded reads).

    The engine snapshots these around each step and reports the deltas
    (``StepReport.attention_dispatches`` etc.), mirroring
    :class:`KVHotPathStats`.
    """

    dispatches: int = 0
    grouped_requests: int = 0
    padded_slots: int = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.dispatches, self.grouped_requests, self.padded_slots)

    def reset(self) -> None:
        self.dispatches = 0
        self.grouped_requests = 0
        self.padded_slots = 0


#: The process-wide instance every attention path reports into.
ATTENTION_STATS = AttentionDispatchStats()


@dataclass
class StatScope:
    """Where hot-path counters (and optional trace spans) are routed.

    Every increment site on the decode hot path — buffer growth,
    dequant views, bucket dispatches, the paged gather — reports into
    the *active* scope instead of naming the module globals directly.
    The default scope wraps :data:`HOT_PATH_STATS` /
    :data:`ATTENTION_STATS` (tracer ``None``), so direct model calls
    (benchmarks, tests, sequential ``generate``) behave exactly as
    before; an :class:`~repro.serve.engine.Engine` installs its own
    per-engine stats around each step via :func:`stats_scope`, which is
    what keeps two engines in one process — or one per thread, since
    contextvars are thread-local — from double-counting each other.

    ``tracer`` is an optional :class:`repro.serve.telemetry.StepTracer`
    duck type (``span``/``begin``/``end``/``instant``); hot sites guard
    every use with an ``is not None`` check so the disabled cost is one
    contextvar load per site.
    """

    hot: KVHotPathStats
    attention: AttentionDispatchStats
    tracer: object | None = None


_DEFAULT_SCOPE = StatScope(HOT_PATH_STATS, ATTENTION_STATS)
_ACTIVE_SCOPE: contextvars.ContextVar[StatScope] = contextvars.ContextVar(
    "repro_stats_scope", default=_DEFAULT_SCOPE
)


def active_scope() -> StatScope:
    """The scope hot-path counters currently report into."""
    return _ACTIVE_SCOPE.get()


@contextmanager
def stats_scope(
    hot: KVHotPathStats,
    attention: AttentionDispatchStats,
    tracer: object | None = None,
):
    """Route hot-path counters (and spans) into private stats objects.

    Reentrant and exception-safe: the previous scope is restored on
    exit via the contextvar token, so nested engine steps (or an engine
    stepping inside another engine's traced region) unwind correctly.
    """
    token = _ACTIVE_SCOPE.set(StatScope(hot, attention, tracer))
    try:
        yield
    finally:
        _ACTIVE_SCOPE.reset(token)


def grow_buffer(
    buffer: np.ndarray | None,
    shape: tuple[int, ...],
    axis: int,
    kept: int,
    dtype: np.dtype,
) -> np.ndarray:
    """Allocate a larger cache buffer, carrying over its logical prefix.

    The one growth implementation shared by every growable buffer on
    the hot path — float16 storage, the decode-ready dequant views,
    the paged scratch and the bucket workspaces — so the prefix-copy
    slicing and the ``copy_bytes`` accounting cannot drift apart
    between them.

    Args:
        buffer: current buffer, or None for a first allocation.
        shape: target shape (the new capacity already at ``shape[axis]``).
        axis: the time axis being grown.
        kept: logical positions to carry over along ``axis``.
    """
    grown = np.empty(shape, dtype=dtype)
    if buffer is not None and kept:
        index = (slice(None),) * axis + (slice(0, kept),)
        grown[index] = buffer[index]
        _ACTIVE_SCOPE.get().hot.copy_bytes += grown[index].nbytes
    return grown


def buffer_capacity(length: int, reserved: int, current: int, minimum: int) -> int:
    """Time-axis capacity for a buffer that must hold ``length`` positions.

    A reservation that covers ``length`` is taken as-is — the buffer
    then never regrows; without one (0) or once outgrown, capacity
    doubles from ``current`` (at least ``minimum``) so growth copies
    amortize.
    """
    if reserved >= length:
        return reserved
    return max(length, minimum, 2 * current)


# -- per-forward-pass memos ---------------------------------------------------
#
# Every layer of a forward pass asks for the same additive masks and
# position ranges (all layers sit at the same cache lengths), so these
# small module-level memos turn O(layers) identical constructions per
# step into O(1).  Values are marked read-only: callers only ever add
# or index them, never mutate.

_CAUSAL_BLOCK: np.ndarray | None = None

_CHUNK_POS_MEMO: tuple[tuple, np.ndarray] | None = None


def causal_block(new_len: int) -> np.ndarray | None:
    """Additive ``(new_len, new_len)`` causal mask among the new positions.

    Queries at ``[start, start + new_len)`` see every one of the
    ``start`` older positions and the causal triangle among themselves,
    so the full ``(new_len, start + new_len)`` mask is ``start`` zero
    columns followed by this block — the caller adds the block in place
    to ``scores[..., start:]`` and leaves the zero columns alone.
    Skipping a zero addend is a bitwise no-op through the softmax: at
    worst it keeps a ``-0.0`` score that ``+ 0.0`` would have turned
    into ``+0.0``, and ``exp`` maps both to the same ``1.0``.  For the
    same reason the single-token decode case returns ``None`` (its
    block is one zero).

    Memoized as one growing triangle: a causal mask's top-left corner
    is the causal mask of the smaller size, so every ``new_len`` is a
    view of the largest block built so far — no per-shape entries to
    cap.  The side grows to the next power of two, so chunk sizes that
    creep upward rebuild it O(log) times, not once per size, and the
    block that stays pinned for the life of the process is under twice
    the largest ``new_len`` ever asked for on a side (exactly
    ``max_seq_len`` squared float32 after a full power-of-two prefill).
    """
    if new_len <= 1:
        return None
    global _CAUSAL_BLOCK
    block = _CAUSAL_BLOCK
    if block is None or block.shape[0] < new_len:
        block = causal_mask(1 << (new_len - 1).bit_length())
        block.setflags(write=False)
        _CAUSAL_BLOCK = block
    return block[:new_len, :new_len]


def chunk_positions(starts: list[int], lengths: list[int]) -> np.ndarray:
    """Flattened per-segment position ids for a mixed step's chunk lane.

    Memoized single-slot: all layers of one forward pass (and the
    position-embedding lookup before them) share identical
    ``(starts, lengths)``, so the concatenated arange is built once per
    pass instead of once per layer.
    """
    global _CHUNK_POS_MEMO
    key = (tuple(starts), tuple(lengths))
    memo = _CHUNK_POS_MEMO
    if memo is not None and memo[0] == key:
        return memo[1]
    positions = np.concatenate(
        [np.arange(start, start + length) for start, length in zip(starts, lengths)]
    )
    positions.setflags(write=False)
    _CHUNK_POS_MEMO = (key, positions)
    return positions


_CONTEXT_SCRATCH: dict[tuple, np.ndarray] = {}
_CONTEXT_SCRATCH_CAP = 8


def _context_scratch(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """Reusable attention-context buffer for one step shape.

    ``step_batch`` / ``step_mixed`` previously concatenated per-request
    context slices into a fresh array every layer; writing the slices
    into a per-shape scratch reuses one allocation across all layers of
    a step (the downstream transpose+reshape copies out of it before
    the next layer runs).  The dtype is the attention core's own output
    dtype — the scores pipeline runs in float64 (the float64 ``scale``
    scalar promotes it), and storing the context any narrower would
    round it before the output projection, breaking bitwise parity
    with the unbatched ``step`` path.
    """
    key = (shape, dtype)
    scratch = _CONTEXT_SCRATCH.get(key)
    if scratch is None:
        if len(_CONTEXT_SCRATCH) >= _CONTEXT_SCRATCH_CAP:
            _CONTEXT_SCRATCH.clear()
        scratch = np.empty(shape, dtype=dtype)
        _CONTEXT_SCRATCH[key] = scratch
    return scratch


_ROTARY_BUILD_MEMO: dict[tuple[int, int, float], "RotaryTable"] = {}
_ROTARY_BUILD_MEMO_CAP = 32


@dataclass
class RotaryTable:
    """Precomputed cos/sin tables for rotary position embeddings.

    Tables are pure functions of ``(head_dim, max_len, base)``, so
    :meth:`build` memoizes them — every attention layer of a model
    (and equal-geometry models in one process) shares a single
    instance, which is what lets :meth:`gather` keep a one-slot memo
    that hits for layers 2..L of each forward pass.  Instances are
    immutable by convention: ``cos``/``sin`` are never written after
    construction.
    """

    cos: np.ndarray
    sin: np.ndarray
    _gather_memo: tuple[tuple, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )

    @classmethod
    def build(cls, head_dim: int, max_len: int, base: float = 10000.0) -> "RotaryTable":
        key = (head_dim, max_len, base)
        table = _ROTARY_BUILD_MEMO.get(key)
        if table is not None:
            return table
        half = head_dim // 2
        freqs = base ** (-np.arange(0, half, dtype=np.float64) / half)
        angles = np.outer(np.arange(max_len, dtype=np.float64), freqs)
        double = np.concatenate([angles, angles], axis=-1)
        cos = np.cos(double).astype(np.float32)
        sin = np.sin(double).astype(np.float32)
        # The instance is shared process-wide (and slice() hands out
        # views of it): freeze the tables so an in-place mutation by
        # any one caller cannot corrupt every other model.
        cos.setflags(write=False)
        sin.setflags(write=False)
        table = cls(cos=cos, sin=sin)
        if len(_ROTARY_BUILD_MEMO) >= _ROTARY_BUILD_MEMO_CAP:
            _ROTARY_BUILD_MEMO.clear()
        _ROTARY_BUILD_MEMO[key] = table
        return table

    def slice(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        if stop > self.cos.shape[0]:
            raise ModelError(
                f"rotary table holds {self.cos.shape[0]} positions, "
                f"requested up to {stop}"
            )
        return self.cos[start:stop], self.sin[start:stop]

    def gather(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-request cos/sin rows for arbitrary (unsorted) positions.

        One-slot memo: every layer of a forward pass gathers the same
        positions, so the fancy-index copy runs once per pass instead
        of once per layer (the table instance is shared via
        :meth:`build`'s memo).
        """
        key = (positions.tobytes(), positions.dtype.str, positions.shape)
        memo = self._gather_memo
        if memo is not None and memo[0] == key:
            return memo[1], memo[2]
        limit = int(positions.max(initial=0)) + 1
        if limit > self.cos.shape[0]:
            raise ModelError(
                f"rotary table holds {self.cos.shape[0]} positions, "
                f"requested up to {limit}"
            )
        cos_rows = self.cos[positions]
        sin_rows = self.sin[positions]
        cos_rows.setflags(write=False)
        sin_rows.setflags(write=False)
        self._gather_memo = (key, cos_rows, sin_rows)
        return cos_rows, sin_rows


def _rotate_half(x: Tensor) -> Tensor:
    half = x.shape[-1] // 2
    front = x[..., :half]
    back = x[..., half:]
    return concat([-back, front], axis=-1)


def apply_rotary(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate (batch, heads, time, head_dim) queries/keys by position."""
    return x * Tensor(cos) + _rotate_half(x) * Tensor(sin)


def _rotate_half_np(x: np.ndarray) -> np.ndarray:
    half = x.shape[-1] // 2
    return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)


#: Smallest time-axis capacity a cache buffer is allocated with; single
#: -token decode growth doubles from here instead of reallocating at
#: every one of the first appends.
_INITIAL_CAPACITY = 16

#: Monotonic id source for cache identity (see :attr:`KVCache.uid`).
_CACHE_UID_COUNTER = itertools.count()


class KVCache:
    """Per-layer key/value history for incremental decoding (FP16).

    Two subclass seams keep every cache variant on one append path:

    * **compression** — :meth:`compress` (a row-local transform applied
      on write) and :meth:`compression_key`; the batched decode path
      uses those to compress a whole batch's K/V in one call and then
      append per request via :meth:`append_precompressed`.
    * **storage** — :meth:`_store` (persist float16 rows) and
      :meth:`view` (return the full decode-ready history).  The paged
      subclass (:class:`repro.serve.kvpool.paged.PagedKVCache`)
      scatters rows into pool blocks on write and keeps the same
      decode-ready history per sequence.  Because both store the same
      float16 bytes, the two are bitwise interchangeable under
      ``step`` / ``step_batch``.

    **One decode-ready residency.**  :meth:`view` is the only form in
    which attention ever reads history, so it is held in exactly the
    dtypes its consumers compute in: keys **float32** (the scores
    matmul must run in float32 and be upcast by the float64 scale
    afterwards, as the oracle does) and values **float64** (their only
    consumer is ``float64 weights @ values``, which numpy would
    otherwise promote to float64 — the *whole* history, per launch —
    before BLAS sees it).  Both conversions from the stored float16
    are exact, so pre-promoting is bitwise invisible; no attention
    launch converts history again.

    Storage here is the decode hot path, so per-step cost must be
    proportional to *new* tokens, not history length:

    * float16 rows land in preallocated, capacity-doubling buffers
      with a logical length (``_len``) — appending a token is one row
      write, and buffer-growth copies amortize to O(1) per token;
    * :meth:`view` keeps the decode-ready twin of the storage and
      converts only the tail appended since the last call, returning
      zero-copy slices of it.  The twin is written by :meth:`view`
      alone and invalidated if :meth:`compression_key` ever changes
      (defensive — compression is applied at write time, so stored
      bytes never change under it).

    Stored float16 bytes are identical to the old concatenate storage,
    and numpy matmuls buffer strided views to contiguous memory before
    BLAS sees them.
    :class:`ReferenceKVCache` keeps the O(history)-per-step storage
    alive as the parity oracle the growth property tests and the
    decode hot-path benchmark compare against.
    """

    __slots__ = (
        "_k16",
        "_v16",
        "_len",
        "_deq_k",
        "_deq_v",
        "_deq_len",
        "_deq_key",
        "_uid",
    )

    def __init__(self) -> None:
        self._k16: np.ndarray | None = None
        self._v16: np.ndarray | None = None
        self._len = 0
        self._deq_k: np.ndarray | None = None
        self._deq_v: np.ndarray | None = None
        self._deq_len = 0
        self._deq_key: tuple | None = None
        self._uid = next(_CACHE_UID_COUNTER)

    @property
    def uid(self) -> int:
        """Process-unique cache identity, stable for the cache's lifetime.

        :class:`BucketedAttention` keys its per-bucket gather
        workspaces on member uid tuples, so a workspace is reused (and
        synced incrementally) exactly as long as the same cache objects
        stay grouped together, and can never be confused with a new
        cache that reuses the same memory address.
        """
        return self._uid

    @property
    def reserved(self) -> int:
        """Positions this cache is known to grow to at most (0: unknown).

        Buffers sized from a reservation never regrow; without one
        they fall back to capacity doubling.
        """
        return 0

    def compress(self, tensor: np.ndarray) -> np.ndarray:
        """Write-side transform; must be row-local along leading axes."""
        return tensor

    def compression_key(self) -> tuple:
        """Caches with equal keys share one batched compress call."""
        return ("fp16",)

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.append_precompressed(self.compress(k), self.compress(v))

    def append_precompressed(
        self, k: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Append K/V already passed through :meth:`compress`."""
        self._store(
            k.astype(np.float16, copy=False), v.astype(np.float16, copy=False)
        )
        return self.view()

    @property
    def keys(self) -> np.ndarray | None:
        """Stored float16 keys ``(batch, heads, length, hd)`` (a view)."""
        return None if self._k16 is None else self._k16[:, :, : self._len]

    @property
    def values(self) -> np.ndarray | None:
        """Stored float16 values ``(batch, heads, length, hd)`` (a view)."""
        return None if self._v16 is None else self._v16[:, :, : self._len]

    def _store(self, k16: np.ndarray, v16: np.ndarray) -> None:
        """Persist new float16 rows into the preallocated buffers."""
        new_len = k16.shape[2]
        end = self._len + new_len
        if self._k16 is None:
            shape = list(k16.shape)
            shape[2] = max(new_len, _INITIAL_CAPACITY)
            self._k16 = np.empty(shape, dtype=np.float16)
            self._v16 = np.empty(shape, dtype=np.float16)
        elif end > self._k16.shape[2]:
            capacity = self._k16.shape[2]
            while capacity < end:
                capacity *= 2
            shape = list(self._k16.shape)
            shape[2] = capacity
            grown = tuple(shape)
            self._k16 = grow_buffer(self._k16, grown, 2, self._len, np.float16)
            self._v16 = grow_buffer(self._v16, grown, 2, self._len, np.float16)
        self._k16[:, :, self._len : end] = k16
        self._v16[:, :, self._len : end] = v16
        self._len = end

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """Decode-ready history ``(batch, heads, time, hd)``: K float32, V float64.

        Memoized: only positions appended since the last call are
        converted; the returned arrays are read-mostly slices of the
        persistent buffers (valid until the next append forces a
        growth reallocation, i.e. for the current layer step).
        """
        if self._len == 0 or self._k16 is None:
            raise ModelError("view() on an empty KV cache")
        key = self.compression_key()
        if self._deq_key is not None and self._deq_key != key:
            self._deq_len = 0  # compression changed: re-dequantize
        self._deq_key = key
        capacity = self._k16.shape[2]
        if self._deq_k is None or self._deq_k.shape[2] != capacity:
            shape = tuple(self._k16.shape)
            self._deq_k = grow_buffer(self._deq_k, shape, 2, self._deq_len, np.float32)
            self._deq_v = grow_buffer(self._deq_v, shape, 2, self._deq_len, np.float64)
        if self._deq_len < self._len:
            tail = slice(self._deq_len, self._len)
            self._deq_k[:, :, tail] = self._k16[:, :, tail]
            self._deq_v[:, :, tail] = self._v16[:, :, tail]
            _ACTIVE_SCOPE.get().hot.dequant_bytes += (
                self._deq_k[:, :, tail].nbytes + self._deq_v[:, :, tail].nbytes
            )
            self._deq_len = self._len
        keys = self._deq_k[:, :, : self._len]
        values = self._deq_v[:, :, : self._len]
        # The old view() returned private copies; these alias the
        # persistent buffers, so hand out read-only views (the buffers
        # themselves stay writable for the next tail dequant).
        keys.setflags(write=False)
        values.setflags(write=False)
        return keys, values

    @property
    def length(self) -> int:
        return self._len

    def truncate(self, length: int) -> None:
        """Roll the cache back to ``length`` stored positions.

        The engine's batch-level fault rollback: positions beyond
        ``length`` are logically dropped (the preallocated buffers keep
        their capacity) and the decode-ready twin is clamped so the next
        :meth:`view` re-dequantizes nothing stale.  Re-appending the
        same rows afterwards reproduces the pre-truncation bytes
        exactly.
        """
        if not 0 <= length <= self._len:
            raise ModelError(
                f"truncate({length}) outside stored length {self._len}"
            )
        self._len = length
        self._deq_len = min(self._deq_len, length)


class ReferenceKVCache(KVCache):
    """The pre-optimization O(history)-per-step storage, kept as oracle.

    Appends by whole-array concatenate and dequantizes the full
    history on every :meth:`view` — exactly what :class:`KVCache` did
    before preallocated buffers and incremental views, float32 values
    included.  The growth property tests pin the optimized storage
    bitwise against this (values against its exact float64 upcast), and
    ``benchmarks/bench_decode_hotpath.py`` measures the step-latency
    gap.  An optional ``codec`` delegates the write-side compression,
    so one reference class covers FP16 and Anda storage.
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
        return self._ref_k

    @property
    def values(self) -> np.ndarray | None:
        return self._ref_v

    def _store(self, k16: np.ndarray, v16: np.ndarray) -> None:
        if self._ref_k is None:
            self._ref_k, self._ref_v = k16, v16
        else:
            self._ref_k = np.concatenate([self._ref_k, k16], axis=2)
            self._ref_v = np.concatenate([self._ref_v, v16], axis=2)
            _ACTIVE_SCOPE.get().hot.copy_bytes += (
                self._ref_k.nbytes + self._ref_v.nbytes
            )

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        if self._ref_k is None:
            raise ModelError("view() on an empty KV cache")
        keys = self._ref_k.astype(np.float32)
        values = self._ref_v.astype(np.float32)
        _ACTIVE_SCOPE.get().hot.dequant_bytes += keys.nbytes + values.nbytes
        return keys, values

    @property
    def length(self) -> int:
        return 0 if self._ref_k is None else self._ref_k.shape[2]

    def truncate(self, length: int) -> None:
        if not 0 <= length <= self.length:
            raise ModelError(
                f"truncate({length}) outside stored length {self.length}"
            )
        if self._ref_k is not None:
            if length == 0:
                self._ref_k = None
                self._ref_v = None
            else:
                self._ref_k = self._ref_k[:, :, :length]
                self._ref_v = self._ref_v[:, :, :length]


# -- grouped batched attention ------------------------------------------------
#
# PackInfer-style KV-length bucketing for the decode lane: instead of
# one attention pipeline launch per (layer, request), requests whose
# histories share a KV length run as one batched launch per
# (layer, bucket).  Bitwise discipline mirrors the chunked-prefill lane
# rules: stacked numpy matmuls apply BLAS per leading-axis slice, so a
# fully batched exact-length bucket reproduces the per-request bits,
# while a bucket of size 1 stays on the M == 1 kernel path through
# ``_attention_core`` itself.  Padded buckets never feed padded
# operands to a matmul (BLAS edge kernels change bits when the reduced
# or written extent changes): per-member exact-length matmuls write
# into a shared padded scores workspace whose pad tail is MASK_VALUE,
# and only the alignment-insensitive elementwise softmax middle runs
# batched.


@dataclass(frozen=True, slots=True)
class Bucket:
    """One dispatch group: request rows sharing a (target) KV length.

    Attributes:
        indices: batch positions of the member requests.
        lengths: each member's exact KV length (post-append, i.e. the
            length attention reads), in ``indices`` order.
        length: the bucket's target KV length — ``max(lengths)``; the
            padded scores extent for mixed-length buckets.
    """

    indices: tuple[int, ...]
    lengths: tuple[int, ...]
    length: int

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def padded(self) -> bool:
        return any(length != self.length for length in self.lengths)

    @property
    def padded_slots(self) -> int:
        """Wasted key positions scored: ``sum(target - member length)``."""
        return sum(self.length - length for length in self.lengths)


@dataclass(frozen=True, slots=True)
class BucketPlan:
    """One decode step's bucket assignment (shared by every layer)."""

    buckets: tuple[Bucket, ...]

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    @property
    def grouped_requests(self) -> int:
        return sum(bucket.size for bucket in self.buckets if bucket.size > 1)

    @property
    def padded_slots(self) -> int:
        return sum(bucket.padded_slots for bucket in self.buckets)


def plan_buckets(lengths: list[int], pad_waste_cap: float = 0.125) -> BucketPlan:
    """Group request rows by KV length into dispatch buckets.

    Exact-length groups come first: every length shared by >= 2
    requests becomes one unpadded bucket (the fully batched fast
    path).  Leftover singletons are then greedily merged, longest
    first, into padded buckets as long as the padded fraction
    ``padded_slots / (size * target)`` stays within ``pad_waste_cap``
    — the knob trading fewer dispatches against wasted key reads.
    Whatever still stands alone stays a singleton bucket, which the
    dispatcher routes through the per-request oracle so it keeps the
    M == 1 kernel path (and its bitwise guarantee) untouched.

    The plan depends only on the lengths, so one plan per step serves
    every layer.
    """
    if not 0.0 <= pad_waste_cap < 1.0:
        raise ModelError(f"pad_waste_cap must lie in [0, 1), got {pad_waste_cap}")
    groups: dict[int, list[int]] = {}
    for index, length in enumerate(lengths):
        if length < 1:
            raise ModelError(f"request {index} has KV length {length}")
        groups.setdefault(length, []).append(index)

    buckets: list[Bucket] = []
    singles: list[tuple[int, int]] = []
    for length, indices in groups.items():
        if len(indices) >= 2:
            buckets.append(
                Bucket(
                    indices=tuple(indices),
                    lengths=(length,) * len(indices),
                    length=length,
                )
            )
        else:
            singles.append((length, indices[0]))

    singles.sort(reverse=True)
    pending: list[tuple[int, int]] = []

    def close(members: list[tuple[int, int]]) -> None:
        if not members:
            return
        target = members[0][0]
        buckets.append(
            Bucket(
                indices=tuple(index for _, index in members),
                lengths=tuple(length for length, _ in members),
                length=target,
            )
        )

    for length, index in singles:
        if not pending:
            pending = [(length, index)]
            continue
        target = pending[0][0]
        candidate = pending + [(length, index)]
        waste = sum(target - member_len for member_len, _ in candidate)
        if pad_waste_cap > 0.0 and waste <= pad_waste_cap * len(candidate) * target:
            pending = candidate
        else:
            close(pending)
            pending = [(length, index)]
    close(pending)
    return BucketPlan(buckets=tuple(buckets))


class _BucketWorkspace:
    """Persistent stacked K/V buffers for one exact-bucket membership.

    The members' decode-ready histories (:meth:`KVCache.view` — keys
    float32, values float64) stacked along a leading bucket axis, in
    the same dtypes, so the sync is a plain tail copy and the batched
    context matmul is a straight dgemm over persistent memory.
    Written only by :meth:`BucketedAttention._workspace`; sized from
    the members' reservations when every member has one, so a bucket
    that lives its whole decode never regrows.

    ``synced`` is the shared copy watermark: exact buckets hold
    equal-length members, and a workspace is only ever reused by the
    identical member tuple, so one integer tracks all members.
    """

    __slots__ = ("keys", "values", "synced")

    def __init__(self) -> None:
        self.keys: np.ndarray | None = None
        self.values: np.ndarray | None = None
        self.synced = 0


class BucketedAttention:
    """KV-length-bucketed decode dispatcher (one instance per engine).

    Owns the bucket planning policy (:meth:`plan` wraps
    :func:`plan_buckets` with the configured pad-waste cap) and the
    per-bucket gather workspaces.  Workspaces are keyed by the member
    caches' uid tuples: as long as the same requests stay bucketed
    together — the steady decode state — each step's sync copies only
    the tail appended since the last step (O(new tokens), preserving
    the hot-path contract), and a membership change simply starts a
    fresh workspace.  :meth:`plan` opens a step by sweeping every
    workspace the previous step did not touch — its membership no
    longer exists — so residency tracks the live buckets instead of
    accumulating dead ones; steps too small to plan call :meth:`sweep`
    directly, and the owner calls :meth:`clear` when nothing is left
    decoding.  The caches are assumed append-only, as on
    the engine path; rewriting stored history through direct
    ``write()`` calls would require a new cache (new uid) to stay
    coherent.

    Composes with both storage backends by construction: it reads
    histories only through ``cache.view()``'s decode-ready
    ``(1, H, len, hd)`` contract (keys float32, values float64), which
    unpaged :class:`KVCache` and the paged sequence scratch both
    satisfy.
    """

    def __init__(self, pad_waste_cap: float = 0.125) -> None:
        if not 0.0 <= pad_waste_cap < 1.0:
            raise ModelError(f"pad_waste_cap must lie in [0, 1), got {pad_waste_cap}")
        self.pad_waste_cap = pad_waste_cap
        self._workspaces: dict[tuple[int, ...], _BucketWorkspace] = {}
        #: Workspace keys used since the last :meth:`plan`.
        self._touched: set[tuple[int, ...]] = set()

    def plan(self, lengths: list[int]) -> BucketPlan:
        """Bucket assignment for one decode step's post-append lengths.

        Also a step boundary for workspace residency (:meth:`sweep`).
        Direct :meth:`run_bucket` callers that never plan keep every
        workspace they create.
        """
        self.sweep()
        return plan_buckets(lengths, self.pad_waste_cap)

    def sweep(self) -> None:
        """Step boundary: drop workspaces untouched since the last one.

        Every decode step is a boundary, including one whose batch is
        too small to plan — a batch that drained from two requests to
        one must still free the pair's workspace.
        """
        if len(self._touched) < len(self._workspaces):
            self._workspaces = {key: self._workspaces[key] for key in self._touched}
        self._touched.clear()

    def clear(self) -> None:
        """Drop every workspace (no decoder left, or histories rolled back)."""
        self._workspaces = {}
        self._touched.clear()

    def run_bucket(
        self,
        attention: "MultiHeadAttention",
        bucket: Bucket,
        q: np.ndarray,
        views: list[tuple[np.ndarray, np.ndarray]],
        caches: list["KVCache"],
    ) -> np.ndarray:
        """Attention context rows ``(bucket, H, 1, hd)`` for one bucket.

        Singleton buckets fall through to the per-request oracle so
        their rows stay on the M == 1 kernel path, bitwise identical
        to sequential decode.
        """
        for slot, index in enumerate(bucket.indices):
            have = views[index][0].shape[2]
            if have != bucket.lengths[slot]:
                raise ModelError(
                    f"bucket expects request {index} at KV length "
                    f"{bucket.lengths[slot]}, cache holds {have}"
                )
        if bucket.size == 1:
            index = bucket.indices[0]
            keys, values = views[index]
            return attention._attention_core(
                q[index : index + 1], keys, values, bucket.length - 1
            )
        scope = _ACTIVE_SCOPE.get()
        stats = scope.attention
        stats.dispatches += 1
        stats.grouped_requests += bucket.size
        if bucket.padded:
            stats.padded_slots += bucket.padded_slots
        tracer = scope.tracer
        if tracer is None:
            if bucket.padded:
                return self._run_padded(attention, bucket, q, views)
            return self._run_exact(attention, bucket, q, views, caches)
        with tracer.span(
            "decode.attention",
            size=bucket.size,
            kv_length=bucket.length,
            padded=bucket.padded,
        ):
            if bucket.padded:
                return self._run_padded(attention, bucket, q, views)
            return self._run_exact(attention, bucket, q, views, caches)

    # -- exact-length buckets ---------------------------------------------

    def _workspace(
        self,
        bucket: Bucket,
        views: list[tuple[np.ndarray, np.ndarray]],
        caches: list["KVCache"],
    ) -> _BucketWorkspace:
        """Sync (incrementally) and return the bucket's gather workspace."""
        key = tuple(caches[index].uid for index in bucket.indices)
        length = bucket.length
        workspace = self._workspaces.get(key)
        if workspace is None:
            workspace = _BucketWorkspace()
            self._workspaces[key] = workspace
        self._touched.add(key)
        if workspace.synced > length:
            # History shrank under us (direct write() rollback): the
            # cached prefix can no longer be trusted.
            workspace.synced = 0
        if workspace.keys is None or workspace.keys.shape[2] < length:
            # The membership dissolves when its first member finishes,
            # so the smallest reservation bounds the workspace's life.
            capacity = buffer_capacity(
                length,
                min(caches[index].reserved for index in bucket.indices),
                0 if workspace.keys is None else workspace.keys.shape[2],
                _INITIAL_CAPACITY,
            )
            heads, head_dim = views[bucket.indices[0]][0].shape[1], views[
                bucket.indices[0]
            ][0].shape[3]
            shape = (bucket.size, heads, capacity, head_dim)
            workspace.keys = grow_buffer(
                workspace.keys, shape, 2, workspace.synced, np.float32
            )
            workspace.values = grow_buffer(
                workspace.values, shape, 2, workspace.synced, np.float64
            )
        if workspace.synced < length:
            tail = slice(workspace.synced, length)
            for slot, index in enumerate(bucket.indices):
                keys, values = views[index]
                workspace.keys[slot, :, tail] = keys[0, :, tail]
                workspace.values[slot, :, tail] = values[0, :, tail]
            _ACTIVE_SCOPE.get().hot.copy_bytes += bucket.size * (
                workspace.keys[0, :, tail].nbytes + workspace.values[0, :, tail].nbytes
            )
            workspace.synced = length
        return workspace

    def _run_exact(
        self,
        attention: "MultiHeadAttention",
        bucket: Bucket,
        q: np.ndarray,
        views: list[tuple[np.ndarray, np.ndarray]],
        caches: list["KVCache"],
    ) -> np.ndarray:
        """Fully batched attention over equal-length histories.

        One stacked pipeline — scores matmul, max, exp, sum, divide,
        context matmul — over ``(bucket, H, ...)`` operands.  numpy
        runs BLAS per leading-axis slice and every elementwise /
        reduction op is row-local with an unchanged reduced extent, so
        each row's bits match the per-request oracle exactly (verified
        by the singleton/padded parity tests and the benchmark gate).
        """
        workspace = self._workspace(bucket, views, caches)
        length = bucket.length
        keys = workspace.keys[:, :, :length]
        values = workspace.values[:, :, :length]
        q_rows = q[list(bucket.indices)]
        scores = (q_rows @ keys.swapaxes(-1, -2)) * attention.scale
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=-1, keepdims=True)
        return weights @ values

    # -- padded buckets ----------------------------------------------------

    def _run_padded(
        self,
        attention: "MultiHeadAttention",
        bucket: Bucket,
        q: np.ndarray,
        views: list[tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Padded masked attention over near-equal-length histories.

        Matmuls and sums run per member at the member's *exact* length
        — padding an operand fed to BLAS, or widening a reduction,
        changes bits at unaligned lengths — while the shared padded
        scores workspace lets the elementwise softmax middle (max /
        subtract / exp / divide, all row-local) run batched.  Pad
        columns are assigned ``MASK_VALUE`` directly (never computed),
        so ``exp`` maps them to 0.0 and they influence nothing; the
        per-member sum reads only real columns regardless.
        """
        size, target = bucket.size, bucket.length
        heads, head_dim = attention.n_heads, attention.head_dim
        scores = np.empty((size, heads, 1, target))
        for slot, (index, length) in enumerate(zip(bucket.indices, bucket.lengths)):
            keys = views[index][0]
            row = (q[index : index + 1] @ keys.swapaxes(-1, -2)) * attention.scale
            scores[slot, :, :, :length] = row[0]
            scores[slot, :, :, length:] = MASK_VALUE
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        denominators = np.empty((size, heads, 1, 1))
        for slot, length in enumerate(bucket.lengths):
            denominators[slot] = weights[slot, :, :, :length].sum(
                axis=-1, keepdims=True
            )
        weights /= denominators
        context = np.empty((size, heads, 1, head_dim))
        for slot, (index, length) in enumerate(zip(bucket.indices, bucket.lengths)):
            values = views[index][1]
            context[slot] = (weights[slot : slot + 1, :, :, :length] @ values)[0]
        return context


class MultiHeadAttention(Module):
    """Fused-QKV causal attention with activation taps."""

    def __init__(
        self, config: ModelConfig, tap: ActivationTap, rng: np.random.Generator
    ) -> None:
        bias = config.family == "opt"
        self.qkv_proj = Linear(config.d_model, 3 * config.d_model, rng, bias=bias)
        self.out_proj = Linear(config.d_model, config.d_model, rng, bias=bias)
        self.n_heads = config.n_heads
        self.head_dim = config.head_dim
        self.scale = 1.0 / np.sqrt(config.head_dim)
        self.tap = tap
        self.rotary = (
            RotaryTable.build(config.head_dim, config.max_seq_len)
            if config.family == "llama"
            else None
        )

    # -- training / prefill path ----------------------------------------

    def __call__(self, x: Tensor) -> Tensor:
        batch, length, d_model = x.shape
        x = self.tap.apply(TensorKind.QKV, x)
        qkv = self.qkv_proj(x)  # (B, T, 3D)
        qkv = qkv.reshape(batch, length, 3, self.n_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, H, T, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]

        if self.rotary is not None:
            cos, sin = self.rotary.slice(0, length)
            q = apply_rotary(q, cos, sin)
            k = apply_rotary(k, cos, sin)

        scores = (q @ k.transpose(0, 1, 3, 2)) * self.scale
        scores = scores + Tensor(causal_mask(length))
        weights = softmax(scores, axis=-1)
        context = weights @ v  # (B, H, T, hd)
        context = context.transpose(0, 2, 1, 3).reshape(batch, length, d_model)

        context = self.tap.apply(TensorKind.O, context)
        return self.out_proj(context)

    # -- incremental decode path ------------------------------------------

    def _project_qkv(self, x: np.ndarray) -> np.ndarray:
        """QKV-tap + fused projection: ``(B, T, D)`` -> ``(3, B, H, T, hd)``."""
        batch, new_len, _ = x.shape
        if self.tap.quantizer is not None:
            x = self.tap.quantizer(TensorKind.QKV, x)
        qkv = x @ self.qkv_proj.weight.data
        if self.qkv_proj.bias is not None:
            qkv = qkv + self.qkv_proj.bias.data
        qkv = qkv.reshape(batch, new_len, 3, self.n_heads, self.head_dim)
        return qkv.transpose(2, 0, 3, 1, 4)

    def _attention_core(
        self, q: np.ndarray, keys: np.ndarray, values: np.ndarray, start: int
    ) -> np.ndarray:
        """Masked softmax attention over one request's exact history.

        ``q`` is ``(batch, heads, new, head_dim)``; ``keys``/``values``
        hold ``start + new`` cached positions in the decode-ready
        dtypes of :meth:`KVCache.view` (float32 / float64 — the weights
        are float64, so float32 values would be re-promoted whole, per
        call).  No padding is involved: scores span exactly the
        request's history, which is what makes batched decode
        token-identical to sequential decode.
        """
        new_len = q.shape[2]
        _ACTIVE_SCOPE.get().attention.dispatches += 1
        scores = (q @ keys.swapaxes(-1, -2)) * self.scale
        block = causal_block(new_len)
        if block is not None:
            scores[..., start:] += block
        scores -= scores.max(axis=-1, keepdims=True)
        weights_np = np.exp(scores)
        weights_np /= weights_np.sum(axis=-1, keepdims=True)
        return weights_np @ values

    def _project_out(self, context: np.ndarray) -> np.ndarray:
        """O-tap + output projection for ``(B, T, D)`` attention context."""
        if self.tap.quantizer is not None:
            context = self.tap.quantizer(TensorKind.O, context)
        out = context @ self.out_proj.weight.data
        if self.out_proj.bias is not None:
            out = out + self.out_proj.bias.data
        return out.astype(np.float32)

    def step(self, x: np.ndarray, cache: KVCache) -> np.ndarray:
        """Process new tokens with cached history (plain numpy).

        Args:
            x: ``(batch, new_tokens, d_model)`` activations.
            cache: layer cache; extended in place.
        """
        batch, new_len, d_model = x.shape
        start = cache.length
        qkv = self._project_qkv(x)
        q, k, v = qkv[0], qkv[1], qkv[2]

        if self.rotary is not None:
            cos, sin = self.rotary.slice(start, start + new_len)
            q = q * cos + _rotate_half_np(q) * sin
            k = k * cos + _rotate_half_np(k) * sin

        keys, values = cache.append(k, v)
        context = self._attention_core(q, keys, values, start)
        context = context.transpose(0, 2, 1, 3).reshape(batch, new_len, d_model)
        return self._project_out(context)

    def step_batch(
        self,
        x: np.ndarray,
        caches: list[KVCache],
        plan: BucketPlan | None = None,
        dispatcher: BucketedAttention | None = None,
    ) -> np.ndarray:
        """Single-token decode for many independent requests at once.

        The projections (QKV, output) run as one batched ``(B, 1, D)``
        GeMM — numpy applies them per leading-axis slice, so each row is
        bitwise identical to a ``batch=1`` :meth:`step` call.  Each
        request may sit at a different position; rotary/positional
        phases are gathered per request.

        Attention itself runs in one of two modes, both token-bitwise
        identical to sequential decode:

        * **per request** (``plan is None``): one
          :meth:`_attention_core` call per request against that
          request's exact-length cache — O(batch) dispatches per layer.
        * **grouped** (``plan`` + ``dispatcher`` given): appends and
          views are collected first, then each :class:`Bucket` of the
          plan runs as one batched launch — O(buckets) dispatches per
          layer (singleton buckets still route through the oracle to
          stay on the M == 1 kernel path).

        Args:
            x: ``(batch, 1, d_model)`` activations, one row per request.
            caches: one :class:`KVCache` per request for *this* layer,
                each extended in place.
            plan: the step's bucket assignment (computed once from the
                post-append lengths, shared across layers).
            dispatcher: the engine's :class:`BucketedAttention`.
        """
        batch, new_len, d_model = x.shape
        if new_len != 1:
            raise ModelError(f"step_batch decodes one token per request, got {new_len}")
        if len(caches) != batch:
            raise ModelError(
                f"got {len(caches)} caches for a batch of {batch} requests"
            )
        starts = np.array([cache.length for cache in caches])
        qkv = self._project_qkv(x)
        q, k, v = qkv[0], qkv[1], qkv[2]  # (B, H, 1, hd)

        if self.rotary is not None:
            cos, sin = self.rotary.gather(starts)
            cos = cos[:, None, None, :]  # (B, 1, 1, hd) -> broadcasts over heads
            sin = sin[:, None, None, :]
            q = q * cos + _rotate_half_np(q) * sin
            k = k * cos + _rotate_half_np(k) * sin

        # Group the batch by compression scheme and compress each
        # group's K *and* V in a single stacked call per scheme — the
        # transform is row-local along leading axes, so this is
        # bitwise identical to the per-request, per-tensor compress
        # inside append() while paying the codec's fixed overhead once
        # per (layer, scheme) instead of 2x batch times.  A uniform
        # batch (the engine's common case) degenerates to exactly one
        # stacked call over the whole k/v arrays; fp16 rows are the
        # identity and skip the stack entirely.  Afterwards every row
        # holds its stored form: one float16 cast per layer covers the
        # whole batch, and the per-request appends below store the
        # rows as-is.
        groups: dict[tuple, list[int]] = {}
        for index, cache in enumerate(caches):
            key = cache.compression_key()
            if key != ("fp16",):
                groups.setdefault(key, []).append(index)
        if groups:
            tracer = _ACTIVE_SCOPE.get().tracer
            span = (
                nullcontext()
                if tracer is None
                else tracer.span("decode.codec", batch=batch)
            )
            with span:
                for indices in groups.values():
                    n = len(indices)
                    if n == batch:
                        stacked = caches[indices[0]].compress(
                            np.concatenate([k, v], axis=0)
                        )
                        k = stacked[:n]
                        v = stacked[n:]
                    else:
                        stacked = caches[indices[0]].compress(
                            np.concatenate([k[indices], v[indices]], axis=0)
                        )
                        k[indices] = stacked[:n]
                        v[indices] = stacked[n:]
        k = k.astype(np.float16)
        v = v.astype(np.float16)

        if plan is not None and dispatcher is not None:
            # Grouped mode: land every request's append first (views of
            # one request's cache are never invalidated by another
            # request's append — per-request buffers, or per-sequence
            # scratch in the paged pool), then launch once per
            # bucket.
            views = [
                cache.append_precompressed(
                    k[index : index + 1], v[index : index + 1]
                )
                for index, cache in enumerate(caches)
            ]
            context: np.ndarray | None = None
            for bucket in plan.buckets:
                rows = dispatcher.run_bucket(self, bucket, q, views, caches)
                if context is None:
                    context = _context_scratch((batch,) + rows.shape[1:], rows.dtype)
                for slot, index in enumerate(bucket.indices):
                    context[index] = rows[slot]
            context = context.transpose(0, 2, 1, 3).reshape(batch, new_len, d_model)
            return self._project_out(context)

        # (B, H, 1, hd) scratch reused across the step's layers; the
        # transpose+reshape below hands a fresh copy (or a view consumed
        # before the next layer) to the output projection.
        context = None
        for index, cache in enumerate(caches):
            keys, values = cache.append_precompressed(
                k[index : index + 1], v[index : index + 1]
            )
            row = self._attention_core(
                q[index : index + 1], keys, values, int(starts[index])
            )
            if context is None:
                context = _context_scratch((batch,) + row.shape[1:], row.dtype)
            context[index] = row[0]
        context = context.transpose(0, 2, 1, 3).reshape(batch, new_len, d_model)
        return self._project_out(context)

    def step_mixed(
        self, x: np.ndarray, caches: list[KVCache], lengths: list[int]
    ) -> np.ndarray:
        """Variable-length prompt segments for many requests at once.

        The chunk lane of a mixed step: prompt chunks — a budget-sized
        slice of a long prompt, or a whole short prompt — are
        flattened along the time axis into one ``(1, total, d_model)``
        array so the projections, norms and FFN run as a single GeMM
        over every prefill token in the step, while attention runs per
        segment against that request's exact-length cache.  A segment
        may start anywhere (``cache.length`` positions already
        cached): rotary phases are gathered per flattened position
        (:meth:`RotaryTable.gather`), and the causal mask spans
        ``cache_len + segment`` so chunk queries see the whole cached
        history plus their own prefix.  Because multi-row GeMM results
        are row-local (every ``M >= 2`` matmul kernel accumulates rows
        identically), each segment is bitwise identical to the same
        rows of a monolithic prefill — which is what makes chunked
        prefill token-identical to unchunked prefill.  Single-token
        decodes do *not* belong in this lane: OpenBLAS's ``M == 1``
        kernel accumulates differently, so the engine keeps decodes on
        :meth:`step_batch` to preserve their own bitwise guarantee.

        Args:
            x: ``(1, total, d_model)`` activations, segments
                concatenated in request order.
            caches: one :class:`KVCache` per segment for *this* layer,
                each extended in place by its segment's positions.
            lengths: per-segment token counts summing to ``total``.
        """
        batch, total, d_model = x.shape
        if batch != 1:
            raise ModelError(f"mixed steps flatten to batch 1, got {batch}")
        if sum(lengths) != total or min(lengths, default=0) < 1:
            raise ModelError(
                f"segment lengths {lengths} must be positive and sum to {total}"
            )
        if len(caches) != len(lengths):
            raise ModelError(f"got {len(caches)} caches for {len(lengths)} segments")
        starts = [cache.length for cache in caches]
        qkv = self._project_qkv(x)
        q, k, v = qkv[0], qkv[1], qkv[2]  # (1, H, total, hd)

        if self.rotary is not None:
            positions = chunk_positions(starts, lengths)
            cos, sin = self.rotary.gather(positions)  # (total, hd)
            q = q * cos + _rotate_half_np(q) * sin
            k = k * cos + _rotate_half_np(k) * sin

        # (1, H, total, hd) scratch reused across the step's layers.
        context: np.ndarray | None = None
        offset = 0
        for cache, start, length in zip(caches, starts, lengths):
            stop = offset + length
            keys, values = cache.append(k[:, :, offset:stop], v[:, :, offset:stop])
            segment = self._attention_core(q[:, :, offset:stop], keys, values, start)
            if context is None:
                context = _context_scratch(
                    (1, self.n_heads, total, self.head_dim), segment.dtype
                )
            context[:, :, offset:stop] = segment
            offset = stop
        context = context.transpose(0, 2, 1, 3).reshape(batch, total, d_model)
        return self._project_out(context)
