"""Causal multi-head self-attention with the A_qkv / A_o tap points.

One fused QKV projection consumes the (possibly quantized) ``A_qkv``
activation; the attention output consumes ``A_o`` before the output
projection.  LLaMA-family models apply rotary position embeddings to
queries and keys; OPT-family models rely on the model's learned position
embeddings instead.

Beside the autograd path, inference runs plain numpy with an FP16 KV
cache (as in the paper), one layer loop serving two row kinds:

* :meth:`MultiHeadAttention.__call__` — autograd: training, whole-
  sequence evaluation, and the arithmetic reference for the lanes.
* :meth:`MultiHeadAttention.project_qkv` /
  :meth:`MultiHeadAttention.project_out` — the fused QKV and output
  projections for both row kinds of a step, each reading its weight
  once: decode rows' fixed-height tiles (4 rows while four remain,
  then 2), then the chunk's flat GeMM.
* :meth:`MultiHeadAttention.step_batch` — decode rows' attention body:
  one token for each of many requests, every row bitwise identical to
  that request decoded alone.
* :meth:`MultiHeadAttention.step_mixed` — prompt chunks' attention
  body: chunks of many requests flattened into one lane, attention in
  ``ATTN_TILE``-position tiles aligned to absolute position, so a
  prompt row's bits depend only on its own request — never on chunk
  boundaries or co-riders.  In the model's last layer it lands every
  position's K/V but runs queries only for the rows a caller samples,
  each through the decode rows' per-row launch
  (:meth:`MultiHeadAttention._attend_rows`).  ``CausalLM.forward_step``
  is this lane with one segment, sampling every row.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core import fp16
from repro.core.precision import TensorKind
from repro.errors import ModelError
from repro.llm.autograd import Tensor, concat, softmax
from repro.llm.config import ModelConfig
from repro.llm.hooks import ActivationTap
from repro.llm.layers import Lanes, Linear, Module, as_float32, each

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
      around: residency growth and the reference implementations'
      per-append concatenates.  Amortized O(1) per token for the
      residency (zero under a reservation); O(history) per step for
      the reference path.
    * ``dequant_bytes`` — bytes materialized in the decode-ready
      residency (float32 keys and values — 8 bytes per stored float16
      pair), counted when rows land there — at write-through, or at a
      paged cache's pool fetch — never at ``view()``, so a step costs
      its appended tail.  The reference path re-converts the whole
      history every layer every step.

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
    """Process-wide counter of attention kernel launches.

    ``dispatches`` counts :meth:`MultiHeadAttention._attention_core`
    calls — one per decode row per layer, one per ``ATTN_TILE``-position
    tile a prompt chunk touches in every layer but the last, and one
    per sampled chunk row in the last — so a step costs ``layers x
    decode rows + (layers - 1) x chunk tiles + sampled rows``
    dispatches (pinned in the grouped-attention tests).

    The engine snapshots it around each step and reports the delta
    (``StepReport.attention_dispatches``), mirroring
    :class:`KVHotPathStats`.
    """

    dispatches: int = 0

    def snapshot(self) -> tuple[int]:
        return (self.dispatches,)

    def reset(self) -> None:
        self.dispatches = 0


#: The process-wide instance every attention path reports into.
ATTENTION_STATS = AttentionDispatchStats()


@dataclass
class StatScope:
    """Where hot-path counters (and optional trace spans) are routed.

    Every increment site on the decode hot path — residency growth and
    write-through, attention dispatches — reports into
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
    """Allocate a larger, zero-filled cache buffer, carrying over its prefix.

    The decode-ready residency's growth (:meth:`KVCache.write_through`),
    kept apart so the prefix-copy slicing and the ``copy_bytes``
    accounting live in one place.  Positions past ``kept`` read as
    zeros: a chunk's attention tile reads keys up to its tile's end,
    past the cache's length, and masks them (see
    :meth:`KVCache.tile_view`).

    Args:
        buffer: current buffer, or None for a first allocation.
        shape: target shape (the new capacity already at ``shape[axis]``).
        axis: the time axis being grown.
        kept: logical positions to carry over along ``axis``.
    """
    grown = np.zeros(shape, dtype=dtype)
    if buffer is not None and kept:
        index = (slice(None),) * axis + (slice(0, kept),)
        grown[index] = buffer[index]
        _ACTIVE_SCOPE.get().hot.copy_bytes += grown[index].nbytes
    return grown


#: Query positions per chunk-attention launch.  Tile ``a`` holds
#: positions ``[a * ATTN_TILE, (a + 1) * ATTN_TILE)`` of one request
#: and attends over keys ``[0, (a + 1) * ATTN_TILE)`` under one
#: constant causal block, so every launch of a tile has one shape, and
#: a row's bits are the same in every launch of its tile: whichever
#: chunk holds it, whatever rides beside it.
ATTN_TILE = 32


def buffer_capacity(length: int, reserved: int, current: int, minimum: int) -> int:
    """Time-axis capacity for a buffer that must hold ``length`` positions.

    A reservation that covers ``length`` is taken — the buffer then
    never regrows; without one (0) or once outgrown, capacity doubles
    from ``current`` (at least ``minimum``) so growth copies amortize.
    Either way it rounds up to a whole number of :data:`ATTN_TILE`
    positions, so the last tile a cache's positions touch fits.
    """
    if reserved < length:
        reserved = max(length, minimum, 2 * current)
    return -(-reserved // ATTN_TILE) * ATTN_TILE


#: The one causal block every chunk tile adds to its last
#: ``ATTN_TILE`` score columns; read-only.
_CAUSAL_TILE = causal_mask(ATTN_TILE)
_CAUSAL_TILE.setflags(write=False)


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

    A read-only view of the one ``ATTN_TILE``-square block: launches
    are one-row decodes or chunk tiles, so ``new_len`` never exceeds
    the tile.
    """
    if new_len <= 1:
        return None
    if new_len > ATTN_TILE:
        raise ModelError(f"a launch holds at most {ATTN_TILE} queries, got {new_len}")
    return _CAUSAL_TILE[:new_len, :new_len]


# -- per-forward-pass memos ---------------------------------------------------
#
# Every layer of a forward pass asks for the same position ranges (all
# layers sit at the same cache lengths), so this small module-level
# memo turns O(layers) identical constructions per step into O(1).
# Values are marked read-only: callers only ever add or index them,
# never mutate.

_CHUNK_POS_MEMO: tuple[tuple, np.ndarray] | None = None


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
    _gather_memo: tuple[tuple[tuple, np.ndarray, np.ndarray], ...] = field(
        default=(), repr=False
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

        Two-slot memo: every layer of a forward pass gathers the same
        positions for its decode rows and for its prompt chunk, so the
        fancy-index copy runs once per lane and pass instead of once per
        layer (the table instance is shared via :meth:`build`'s memo).
        """
        key = (positions.tobytes(), positions.dtype.str, positions.shape)
        for memo in self._gather_memo:
            if memo[0] == key:
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
        self._gather_memo = ((key, cos_rows, sin_rows), *self._gather_memo[:1])
        return cos_rows, sin_rows


def _rotate_half(x: Tensor) -> Tensor:
    half = x.shape[-1] // 2
    front = x[..., :half]
    back = x[..., half:]
    return concat([-back, front], axis=-1)


def apply_rotary(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate (batch, heads, time, head_dim) queries/keys by position."""
    return x * Tensor(cos) + _rotate_half(x) * Tensor(sin)


def _read_only(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only aliases of writable residency buffers."""
    readable = (keys.view(), values.view())
    readable[0].setflags(write=False)
    readable[1].setflags(write=False)
    return readable


def _rotate_half_np(x: np.ndarray) -> np.ndarray:
    half = x.shape[-1] // 2
    return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)


#: Smallest time-axis capacity a residency is allocated with; single
#: -token decode growth doubles from here instead of reallocating at
#: every one of the first appends.
_INITIAL_CAPACITY = ATTN_TILE


class KVCache:
    """Per-layer key/value history for incremental decoding.

    **One decode-ready residency.**  The history lives in exactly one
    form: a float32 K/V buffer ``(batch, heads, capacity, hd)`` filled
    up to a watermark — 8 bytes per element pair, in the dtype attention
    computes in.  Float32 is the training path's dtype, and the
    inference core keeps scores, softmax and ``weights @ values`` in it
    end to end, so no launch promotes, converts or copies the history:
    :meth:`view` hands out read-only slices.  Every value attention
    reads is a stored float16 value: :meth:`compress` returns float32
    rows that are exact in float16, which land here unchanged (float16
    rows — the decode lane's bulk cast, a pool fetch — widen exactly).
    A row crosses float16 once, where the paged pool narrows it
    (NumPy's float16 casts run one element at a time, so the write path
    avoids them; see :mod:`repro.core.fp16`).

    This class owns the residency's whole life cycle for unpaged and
    paged caches alike, at O(new tokens) per step:

    * **write-through** — :meth:`write_through` lands appended rows at
      the watermark; nothing is ever read back;
    * **growth** — a reservation (``_reserved``, set by the paged
      subclass to ``prompt + max_new_tokens``) sizes the buffer once;
      without one, capacity doubles from :data:`_INITIAL_CAPACITY` so
      growth copies amortize to O(1) per token.  Capacity is a whole
      number of :data:`ATTN_TILE` positions and starts zero-filled, so
      a chunk's attention tile reads its keys in place
      (:meth:`tile_view`);
    * **truncate / release** — :meth:`truncate` drops positions and
      clamps the watermark (re-appending the same rows reproduces the
      same bytes); :meth:`release` frees the buffer.

    Two subclass seams keep every cache variant on this one path:
    **compression** (:meth:`compress`, a row-local transform applied on
    write, and :meth:`compression_key`, which lets the batched decode
    path compress a whole batch in one call and append per request via
    :meth:`append_precompressed`) and **storage** (:meth:`_store`: the
    unpaged residency *is* the storage, while
    :class:`repro.serve.kvpool.paged.PagedKVCache` scatters rows into
    pool blocks and fetches what it did not write — a shared prefix —
    on first read).  Both land the same float16 values, so they are
    bitwise interchangeable under ``step_mixed`` / ``step_batch``.
    """

    __slots__ = ("_k", "_v", "_readable", "length", "_filled", "_reserved")

    def __init__(self) -> None:
        self._k: np.ndarray | None = None
        self._v: np.ndarray | None = None
        #: Read-only aliases of ``_k`` / ``_v``: :meth:`read` slices
        #: them, so its views are read-only without a flag call each.
        self._readable: tuple[np.ndarray, np.ndarray] | None = None
        #: Logical positions stored (a paged cache counts a shared
        #: prefix it has not read yet); the residency holds ``_filled``.
        self.length = 0
        self._filled = 0
        self._reserved = 0

    def __setstate__(self, state: tuple) -> None:
        """Restore a copied cache with ``_readable`` aliasing its own buffers.

        ``copy.deepcopy`` copies ``_k`` / ``_v`` and the read-only
        aliases as unrelated arrays, so a copy's reads would miss its
        own later appends; the aliases are rebuilt from the copies.
        """
        attributes, slots = state if isinstance(state, tuple) else (state, None)
        for part in (attributes, slots):
            for name, value in (part or {}).items():
                setattr(self, name, value)
        if self._k is not None and self._v is not None:
            self._readable = _read_only(self._k, self._v)

    def compress(self, tensor: np.ndarray) -> np.ndarray:
        """Write-side transform; must be row-local along leading axes.

        Returns float32 rows exact in float16 (what :meth:`_store` and
        :func:`repro.core.fp16.pack_half` rely on).  The identity codec
        rounds to the nearest half, saturating at ``±65504`` like every
        other codec (:func:`repro.core.fp16.round_to_half`).
        """
        return fp16.round_to_half(tensor)

    def compression_key(self) -> tuple:
        """Caches with equal keys share one batched compress call."""
        return ("fp16",)

    def storage_bits_per_element(self) -> float:
        """Stored bits per cached element; the identity codec keeps FP16."""
        return 16.0

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.append_precompressed(self.compress(k), self.compress(v))

    def append_precompressed(
        self, k: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Append K/V already passed through :meth:`compress`.

        The rows go to :meth:`_store` as they are: float32 rows exact in
        float16 (a compress output) or float16 rows (the decode lane's
        bulk cast).  No cast happens here.
        """
        self._store(self.length, k, v)
        self.length += k.shape[2]
        return self.view()

    @classmethod
    def append_batch(
        cls, caches: list["KVCache"], k: np.ndarray, v: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Append one decode row per cache; return each cache's history.

        The batched decode lane's seam: ``caches`` are one layer's
        caches, row ``i`` of the stacked ``(B, H, 1, hd)`` stored-form
        ``k`` / ``v`` belongs to ``caches[i]``.  Called on
        ``type(caches[0])``.  Here it loops :meth:`append_precompressed`;
        :class:`repro.serve.kvpool.paged.PagedKVCache` lands a whole
        batch in the pool with one scatter per tensor.
        """
        return [
            cache.append_precompressed(k[index : index + 1], v[index : index + 1])
            for index, cache in enumerate(caches)
        ]

    def _store(self, start: int, k: np.ndarray, v: np.ndarray) -> None:
        """Persist stored-form rows at ``start``: here, into the residency."""
        self.write_through(start, k, v)

    def write_through(self, start: int, k: np.ndarray, v: np.ndarray) -> None:
        """Land stored-form ``(batch, heads, T, hd)`` rows at ``start``.

        ``k`` / ``v`` hold float16 values, as float32 (copied) or float16
        (widened exactly).  Rows at (or below) the watermark extend the
        residency from ``start``; rows above it leave a gap, which only
        a paged cache can have and which its next read fills from the
        pool.
        """
        if start > self._filled:
            return
        end = start + k.shape[2]
        keys, values = self._k, self._v
        if keys is None or values is None or keys.shape[2] < end:
            current = 0 if keys is None else keys.shape[2]
            capacity = buffer_capacity(end, self._reserved, current, _INITIAL_CAPACITY)
            shape = (k.shape[0], k.shape[1], capacity, k.shape[3])
            keys = self._k = grow_buffer(keys, shape, 2, start, np.float32)
            values = self._v = grow_buffer(values, shape, 2, start, np.float32)
            self._readable = _read_only(keys, values)
        keys[:, :, start:end] = k
        values[:, :, start:end] = v
        # float32 residency: 4 bytes per landed key and value element.
        _ACTIVE_SCOPE.get().hot.dequant_bytes += 4 * (k.size + v.size)
        self._filled = end

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """Decode-ready history ``(batch, heads, length, hd)``: K and V float32."""
        return self.read(self.length)

    def read(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """The first ``length`` resident positions as read-only views.

        Zero-copy slices of the residency, valid until the next append
        forces a growth reallocation (i.e. for the current layer step).
        """
        readable = self._readable
        if not 0 < length <= self._filled or readable is None:
            raise ModelError(f"read({length}) of a cache holding {self._filled}")
        return readable[0][:, :, :length], readable[1][:, :, :length]

    def tile_view(self, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The residency's first ``stop`` positions, past ``length`` too.

        The chunk lane reads here, in place, right after :meth:`append`
        landed every stored position: an attention tile's keys and
        values (``stop`` a multiple of :data:`ATTN_TILE`) and a sampled
        row's history.  What lies past ``length`` — zeros, or rows a
        rollback dropped — is finite, and a tile's causal block masks
        it to weight zero.
        """
        readable = self._readable
        if (
            readable is None
            or self._filled < self.length
            or stop > readable[0].shape[2]
        ):
            raise ModelError(
                f"tile_view({stop}) of a cache holding {self._filled} of "
                f"{self.length} positions"
            )
        return readable[0][:, :, :stop], readable[1][:, :, :stop]

    def truncate(self, length: int) -> None:
        """Roll the cache back to ``length`` positions (fault rollback).

        Later positions are logically dropped — the buffer keeps its
        capacity, a paged cache's blocks stay for
        :meth:`~repro.serve.kvpool.paged.SequenceKV.rollback` to trim —
        and the watermark is clamped, so re-appending the same rows
        reproduces the pre-truncation bytes exactly.
        """
        if not 0 <= length <= self.length:
            raise ModelError(f"truncate({length}) outside stored length {self.length}")
        self.length = length
        self._filled = min(self._filled, length)

    def release(self) -> None:
        """Free the residency (a paged cache's blocks outlive it)."""
        self._k = None
        self._v = None
        self._readable = None
        self._filled = 0


# -- grouped decode attention -------------------------------------------------
#
# A decode step works per layer, not per row.  The K/V rows of every
# decode row land through one ``KVCache.append_batch`` call (one pool
# scatter per tensor for paged caches), then every row runs one M == 1
# ``_attention_core`` launch over its own decode-ready residency, read
# in place, writing its context row straight into the layer's context
# buffer — the same launch sequential decode makes, so each row is
# bitwise identical to decoding that request alone.  One
# ``decode.attention`` span covers a layer's launches.  Fusing rows does
# not pay: a stacked launch must first copy the histories side by side
# (8 B per K/V element pair, every step) and measured within a few
# percent of the per-row launches; padding to a common length, one 2-D
# GEMM over the rows, or one ragged softmax buffer (``np.add.reduceat``
# sums sequentially, not pairwise) each change bits.
#
# ``plan_buckets`` / ``BucketedAttention`` group rows by KV length.  The
# engine does not use them; the benchmark ledger's bucket probe does,
# timing ``run_bucket`` on the same per-row kernel.


@dataclass(frozen=True, slots=True)
class Bucket:
    """Decode rows sharing one KV length.

    Attributes:
        indices: batch positions of the member requests.
        length: the members' KV length (post-append, i.e. the length
            attention reads).
    """

    indices: tuple[int, ...]
    length: int

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, slots=True)
class BucketPlan:
    """Decode rows grouped by KV length (shared by every layer)."""

    buckets: tuple[Bucket, ...]

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)


def plan_buckets(lengths: list[int]) -> BucketPlan:
    """Group request rows by KV length: one bucket per distinct length.

    Buckets come in order of first appearance.  The plan depends only
    on the lengths, so one plan serves every layer.
    """
    groups: dict[int, list[int]] = {}
    for index, length in enumerate(lengths):
        if length < 1:
            raise ModelError(f"request {index} has KV length {length}")
        groups.setdefault(length, []).append(index)
    return BucketPlan(
        buckets=tuple(
            Bucket(indices=tuple(indices), length=length)
            for length, indices in groups.items()
        )
    )


class BucketedAttention:
    """Runs one bucket's attention (stateless; the ledger probe's entry).

    Reads histories only through ``cache.view()``'s decode-ready
    ``(1, H, len, hd)`` contract (keys and values float32), which every
    :class:`KVCache` satisfies.
    """

    __slots__ = ()

    def run_bucket(
        self,
        attention: "MultiHeadAttention",
        bucket: Bucket,
        q: np.ndarray,
        views: list[tuple[np.ndarray, np.ndarray]],
        caches: list["KVCache"] | None = None,
    ) -> list[np.ndarray]:
        """Attention context for one bucket: a ``(1, H, 1, hd)`` row per member.

        The decode lane's per-row kernel: one
        :meth:`MultiHeadAttention._attention_core` launch per member
        over ``views[index]`` in place, rows in ``bucket.indices``
        order.  ``caches`` is accepted for callers that pass it
        positionally and is not read.
        """
        for index in bucket.indices:
            have = views[index][0].shape[2]
            if have != bucket.length:
                raise ModelError(
                    f"bucket expects request {index} at KV length "
                    f"{bucket.length}, cache holds {have}"
                )
        return [
            attention._attention_core(
                q[index : index + 1], *views[index], bucket.length - 1
            )
            for index in bucket.indices
        ]


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
        # A float32 scalar: under NumPy >= 2 (NEP 50) a float64 one
        # would promote every inference score, softmax and context.
        self.scale = np.float32(1.0 / np.sqrt(config.head_dim))
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

    def project_qkv(self, lanes: Lanes) -> Lanes:
        """QKV tap + fused projection per lane, split into heads.

        Decode rows ``(B, 1, D)`` become ``(3, B, H, 1, hd)``; the flat
        chunk ``(T, D)`` becomes ``(3, 1, H, T, hd)``.
        The projection reads its weight once for every lane
        (:data:`~repro.llm.layers.Lanes`).
        """

        def split_heads(qkv: np.ndarray) -> np.ndarray:
            # The flat chunk lane (T, 3D) is one batch row.
            new_len = qkv.shape[-2]
            qkv = qkv.reshape(-1, new_len, 3, self.n_heads, self.head_dim)
            return qkv.transpose(2, 0, 3, 1, 4)

        lanes = self.tap.quantize(TensorKind.QKV, lanes)
        return each(split_heads, each(self.qkv_proj.step, lanes))

    def _attention_core(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        start: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Masked softmax attention of one request's queries over its keys.

        ``q`` is ``(batch, heads, new, head_dim)``; ``keys``/``values``
        hold ``start + new`` positions as :meth:`KVCache.view` /
        :meth:`KVCache.tile_view` return them (float32 / float32), the
        last ``new`` under the causal block.  The whole pipeline —
        scores, softmax, ``weights @ values`` — runs in float32 in place
        on the one scores buffer, so no launch promotes or copies the
        history.  A decode row (``new == 1``) scores exactly its
        request's history; a chunk tile scores one fixed span.  ``out``
        (a C-contiguous float32 buffer of the context's shape) receives
        the context in place of a fresh array; BLAS computes the same
        bits either way.

        The reductions call the ufuncs directly: ``ndarray.max`` /
        ``sum`` are the same reductions behind an extra Python frame,
        which a decode step pays once per (row, layer).
        """
        new_len = q.shape[2]
        _ACTIVE_SCOPE.get().attention.dispatches += 1
        scores = q @ keys.swapaxes(-1, -2)
        scores *= self.scale
        if new_len > 1:
            scores[..., start:] += causal_block(new_len)
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        return np.matmul(scores, values, out=out)

    def _attend_rows(
        self, q: np.ndarray, histories: list[tuple[np.ndarray, np.ndarray]]
    ) -> np.ndarray:
        """One ``M == 1`` launch per query row: context ``(R, 1, d_model)``.

        Row ``i`` of ``q`` (``(R, heads, 1, head_dim)``) attends over
        ``histories[i]``, a ``(keys, values)`` pair ending at that row's
        own position, and writes its context row in place.  A row's
        bits depend on nothing but its own query and history: the
        decode lane's rows (:meth:`step_batch`) and the chunk lane's
        sampled rows (:meth:`step_mixed` with ``rows``) both run here.
        """
        count = q.shape[0]
        # float32 is the core's output dtype, so each row lands unchanged.
        context = np.empty((count, self.n_heads, 1, self.head_dim), dtype=np.float32)
        core = self._attention_core
        for index, (keys, values) in enumerate(histories):
            core(
                q[index : index + 1],
                keys,
                values,
                keys.shape[2] - 1,
                out=context[index : index + 1],
            )
        return context.transpose(0, 2, 1, 3).reshape(
            count, 1, self.n_heads * self.head_dim
        )

    def project_out(self, contexts: Lanes) -> Lanes:
        """O tap + output projection per lane of contexts."""
        contexts = self.tap.quantize(TensorKind.O, contexts)
        return as_float32(each(self.out_proj.step, contexts))

    def step_batch(self, qkv: np.ndarray, caches: list[KVCache]) -> np.ndarray:
        """Decode rows' attention body: one token for each of many requests.

        Takes the rows' fused projection ``(3, B, H, 1, hd)``
        (:meth:`project_qkv`) and returns their attention context
        ``(B, 1, d_model)`` for :meth:`project_out`; the block runs both
        projections so that each reads its weight once for decode rows
        and prompt chunks alike.  Each request may sit at a different
        position; rotary phases are gathered per request.

        The layer's work is one call per layer, not per row: every
        row's K/V lands through one :meth:`KVCache.append_batch`, then
        one loop runs every row's M == 1 :meth:`_attention_core` launch
        over its own history, writing the context row in place — the
        launch sequential decode makes, so attention is bitwise
        identical to it.

        Args:
            qkv: ``(3, batch, heads, 1, head_dim)`` projected rows, one
                per request; Q and K are rotated in place.
            caches: one :class:`KVCache` per request for *this* layer,
                each extended in place.
        """
        _, batch, _, new_len, _ = qkv.shape
        if new_len != 1:
            raise ModelError(f"step_batch decodes one token per request, got {new_len}")
        if len(caches) != batch:
            raise ModelError(
                f"got {len(caches)} caches for a batch of {batch} requests"
            )
        starts = np.array([cache.length for cache in caches])
        # q is (B, H, 1, hd); K and V stay stacked as one (2, B, H, 1, hd)
        # view, so the codec and the float16 cast below each make one
        # call over both.
        q, kv = qkv[0], qkv[1:]

        if self.rotary is not None:
            cos, sin = self.rotary.gather(starts)
            cos = cos[:, None, None, :]  # (B, 1, 1, hd) -> broadcasts over heads
            sin = sin[:, None, None, :]
            # Q and K rotate in place as one (2, B, H, 1, hd) stack: the
            # same elementwise arithmetic, half the numpy calls.
            qk = qkv[:2]
            np.add(qk * cos, _rotate_half_np(qk) * sin, out=qk)

        # Group the batch by compression scheme and compress each
        # group's K *and* V in a single stacked call per scheme — the
        # transform is row-local along leading axes, so this is
        # bitwise identical to the per-request, per-tensor compress
        # inside append() while paying the codec's fixed overhead once
        # per (layer, scheme) instead of 2x batch times.  A uniform
        # batch (the engine's common case) degenerates to exactly one
        # stacked call over the whole K/V stack; fp16 rows skip the
        # codec entirely.  Afterwards one saturating float16 cast per
        # layer covers the whole stack (the clip is the fp16 codec's
        # saturation; the other codecs' rows are already in range), and
        # the batch append below stores the rows as-is.
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
                    rows = kv if n == batch else kv[:, indices]
                    # (2, n, ...) -> (2n, ...): every K row, then every V row.
                    stacked = caches[indices[0]].compress(
                        rows.reshape(2 * n, *rows.shape[2:])
                    ).reshape(rows.shape)
                    if n == batch:
                        kv = stacked
                    else:
                        kv[:, indices] = stacked
        kv16 = np.clip(kv, -fp16.MAX_FINITE, fp16.MAX_FINITE).astype(np.float16)

        views = type(caches[0]).append_batch(caches, kv16[0], kv16[1])
        tracer = _ACTIVE_SCOPE.get().tracer
        span = (
            nullcontext()
            if tracer is None
            else tracer.span(
                "decode.attention", size=batch, kv_length=int(starts.max()) + 1
            )
        )
        with span:
            return self._attend_rows(q, views)

    def step_mixed(
        self,
        qkv: np.ndarray,
        caches: list[KVCache],
        lengths: list[int],
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Prompt chunks' attention body: variable-length segments at once.

        Prompt chunks — a budget-sized slice of a long prompt, or a
        whole short prompt — are flattened along the time axis into one
        ``(total, d_model)`` lane, so the fused QKV projection
        (:meth:`project_qkv`) is a single GeMM over every prefill token
        of the step; this method takes that projection
        ``(3, 1, H, total, hd)`` and returns the attention context for
        :meth:`project_out`.  A segment may start anywhere
        (``cache.length`` positions already cached): rotary phases are
        gathered per flattened position (:meth:`RotaryTable.gather`).
        Every position's K/V is compressed and appended to its
        segment's cache — the prefix cache, later decodes and swap all
        read it.

        Queries run in tiles aligned to absolute position: tile ``a`` of
        a request holds its positions ``[a * ATTN_TILE, (a + 1) *
        ATTN_TILE)`` — the segment's rows there, zeros elsewhere — and
        attends in one launch over the cache's first ``(a + 1) *
        ATTN_TILE`` keys, read in place (:meth:`KVCache.tile_view`),
        under one constant causal block.  Keys past a row's own
        position — later rows of the prompt, or the residency's zero
        fill past the cache's length — get weight exactly zero.  Every
        launch of a tile has one shape and a row's bits inside a launch
        ignore its co-rows, so a prompt row gets the same bits whichever
        chunk holds it and whatever rides beside it: chunked prefill is
        bitwise a monolithic prefill.

        * ``rows=None`` (every layer but the model's last) runs every
          tile the segments touch and returns ``(total, d_model)``,
          which the output projection takes as one flat GeMM.
        * ``rows`` given (the last layer): only those flat positions
          run a query — one ``M == 1`` launch each over its causal
          history ``[:start + j + 1]``, through the decode rows'
          :meth:`_attend_rows`.  Returns ``(len(rows), 1, d_model)``,
          which the output projection takes in
          :meth:`~repro.llm.layers.Linear.step`'s one-token tiles (4
          rows while four remain, then 2); a row's bits depend only on
          that row, so sampling one row equals the same row of a pass
          that samples every row.

        Args:
            qkv: ``(3, 1, heads, total, head_dim)`` projected positions,
                segments concatenated in request order.
            caches: one :class:`KVCache` per segment for *this* layer,
                each extended in place by its segment's positions.
            lengths: per-segment token counts summing to ``total``.
            rows: optional flat positions (sorted, in ``[0, total)``)
                whose queries to run; ``None`` runs every position.
        """
        _, batch, _, total, _ = qkv.shape
        if batch != 1:
            raise ModelError(f"mixed steps flatten to batch 1, got {batch}")
        if sum(lengths) != total or min(lengths, default=0) < 1:
            raise ModelError(
                f"segment lengths {lengths} must be positive and sum to {total}"
            )
        if len(caches) != len(lengths):
            raise ModelError(f"got {len(caches)} caches for {len(lengths)} segments")
        starts = [cache.length for cache in caches]
        positions = chunk_positions(starts, lengths)
        q, k, v = qkv[0, 0], qkv[1], qkv[2]  # q (H, total, hd), k / v (1, H, total, hd)

        if self.rotary is not None:
            cos, sin = self.rotary.gather(positions)  # (total, hd)
            k = k * cos + _rotate_half_np(k) * sin

        offset = 0
        for cache, length in zip(caches, lengths):
            stop = offset + length
            cache.append(k[:, :, offset:stop], v[:, :, offset:stop])
            offset = stop

        owners = np.repeat(np.arange(len(lengths)), lengths)
        if rows is not None:
            q = q[:, rows].transpose(1, 0, 2)[:, :, None, :]  # (R, H, 1, hd)
            if self.rotary is not None:
                cos = cos[rows][:, None, None, :]
                sin = sin[rows][:, None, None, :]
                q = q * cos + _rotate_half_np(q) * sin
            histories = [
                caches[owner].tile_view(end)
                for owner, end in zip(owners[rows], positions[rows] + 1)
            ]
            return self._attend_rows(q, histories)

        if self.rotary is not None:
            q = q * cos + _rotate_half_np(q) * sin
        tiles, slots = np.divmod(positions, ATTN_TILE)
        # A segment's rows are consecutive positions, so each (segment,
        # tile) launch takes one contiguous stretch of the flat rows.
        firsts = np.flatnonzero(
            np.diff(owners, prepend=-1) | np.diff(tiles, prepend=-1)
        ).tolist()
        context = np.empty((total, self.n_heads, self.head_dim), dtype=np.float32)
        tile_shape = (1, self.n_heads, ATTN_TILE, self.head_dim)
        for first, stop in zip(firsts, [*firsts[1:], total]):
            span = (int(tiles[first]) + 1) * ATTN_TILE
            slot = int(slots[first])
            tile_rows = slice(slot, slot + stop - first)
            tile = np.zeros(tile_shape, dtype=np.float32)
            tile[0, :, tile_rows] = q[:, first:stop]
            keys, values = caches[owners[first]].tile_view(span)
            out = self._attention_core(tile, keys, values, span - ATTN_TILE)
            context[first:stop] = out[0, :, tile_rows].transpose(1, 0, 2)
        return context.reshape(total, self.n_heads * self.head_dim)
