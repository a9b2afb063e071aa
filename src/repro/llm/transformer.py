"""Transformer blocks and the causal language model.

Implements both architectures the paper benchmarks:

* **OPT family** — pre-LayerNorm blocks, ReLU feed-forward, learned
  position embeddings, biased projections.
* **LLaMA family** — pre-RMSNorm blocks, SwiGLU feed-forward, rotary
  position embeddings, bias-free projections.

The four FP-INT GeMM activation tensors (Fig. 3) route through the
model's shared :class:`~repro.llm.hooks.ActivationTap`:

========  =======================================  ==================
tap kind  activation                               consumed by
========  =======================================  ==================
QKV       normed block input                       Wq / Wk / Wv
O         attention context                        Wo
U         normed attention output                  W_up (and W_gate)
D         FFN intermediate (post-nonlinearity)     W_down
========  =======================================  ==================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.precision import TensorKind
from repro.errors import ModelError
from repro.llm.attention import (
    BucketedAttention,
    KVCache,
    MultiHeadAttention,
    active_scope,
    chunk_positions,
)
from repro.llm.autograd import Tensor, no_grad, softmax_cross_entropy
from repro.llm.config import ModelConfig
from repro.llm.hooks import ActivationTap
from repro.llm.layers import (
    Embedding,
    Lanes,
    Linear,
    Module,
    as_float32,
    each,
    make_norm,
)


class FeedForward(Module):
    """OPT-style two-layer ReLU feed-forward with U/D taps."""

    def __init__(
        self, config: ModelConfig, tap: ActivationTap, rng: np.random.Generator
    ) -> None:
        self.up_proj = Linear(config.d_model, config.ffn_dim, rng, bias=True)
        self.down_proj = Linear(config.ffn_dim, config.d_model, rng, bias=True)
        self.tap = tap

    def __call__(self, x: Tensor) -> Tensor:
        x = self.tap.apply(TensorKind.U, x)
        hidden = self.up_proj(x).relu()
        hidden = self.tap.apply(TensorKind.D, hidden)
        return self.down_proj(hidden)

    def step(self, lanes: Lanes) -> Lanes:
        """Inference FFN per lane; each projection serves every lane in turn."""
        lanes = self.tap.quantize(TensorKind.U, lanes)
        hidden = each(self.up_proj.step, lanes)
        del lanes
        for up in hidden:
            if up is not None:
                np.maximum(up, 0.0, out=up)
        hidden = self.tap.quantize(TensorKind.D, hidden)
        return as_float32(each(self.down_proj.step, hidden))


class GatedFeedForward(Module):
    """LLaMA-style SwiGLU feed-forward with U/D taps.

    The U tap feeds *both* the gate and up projections (they share the
    same input activation, which is why the BOPs model counts the U
    GeMM twice for gated FFNs).
    """

    def __init__(
        self, config: ModelConfig, tap: ActivationTap, rng: np.random.Generator
    ) -> None:
        self.gate_proj = Linear(config.d_model, config.ffn_dim, rng, bias=False)
        self.up_proj = Linear(config.d_model, config.ffn_dim, rng, bias=False)
        self.down_proj = Linear(config.ffn_dim, config.d_model, rng, bias=False)
        self.tap = tap

    def __call__(self, x: Tensor) -> Tensor:
        x = self.tap.apply(TensorKind.U, x)
        hidden = self.gate_proj(x).silu() * self.up_proj(x)
        hidden = self.tap.apply(TensorKind.D, hidden)
        return self.down_proj(hidden)

    def step(self, lanes: Lanes) -> Lanes:
        """Inference FFN per lane; each projection serves every lane in turn."""
        lanes = self.tap.quantize(TensorKind.U, lanes)
        hidden = each(self.gate_proj.step, lanes)
        # SiLU, then the up product, land in each lane's gate buffer, so
        # only one lane's up product is ever alive.
        for gate in hidden:
            if gate is not None:
                np.divide(gate, 1.0 + np.exp(-gate), out=gate)
        for gate, lane in zip(hidden, lanes):
            if gate is not None:
                gate *= self.up_proj.step(lane)
        del lanes
        hidden = self.tap.quantize(TensorKind.D, hidden)
        return as_float32(each(self.down_proj.step, hidden))


def _residual(hidden: Lanes, updates: Lanes) -> Lanes:
    """``hidden + update`` per present lane."""
    return [None if x is None else x + update for x, update in zip(hidden, updates)]


class TransformerBlock(Module):
    """Pre-norm residual block: attention then feed-forward."""

    def __init__(
        self, config: ModelConfig, tap: ActivationTap, rng: np.random.Generator
    ) -> None:
        self.attn_norm = make_norm(config.norm, config.d_model)
        self.attention = MultiHeadAttention(config, tap, rng)
        self.ffn_norm = make_norm(config.norm, config.d_model)
        self.ffn: Module = (
            GatedFeedForward(config, tap, rng)
            if config.gated_ffn
            else FeedForward(config, tap, rng)
        )

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attention(self.attn_norm(x))
        return x + self.ffn(self.ffn_norm(x))

    def step(
        self,
        hidden: Lanes,
        caches: list[list[KVCache] | None],
        lengths: list[int],
        rows: np.ndarray | None = None,
    ) -> Lanes:
        """One layer of a serving step for its decode rows and prompt chunk.

        ``hidden`` holds the step's two lanes
        (:data:`~repro.llm.layers.Lanes`): decode rows ``(B, 1,
        d_model)`` and the flat chunk ``(total, d_model)``, either
        ``None`` when the step carries none; ``caches`` holds this
        layer's caches per lane.  The lanes share every projection —
        fused QKV, O and the FFN's — each reading its weight once for
        both, and keep their own attention bodies: decode rows run
        :meth:`~repro.llm.attention.MultiHeadAttention.step_batch`, the
        chunk's segments (``lengths``) run
        :meth:`~repro.llm.attention.MultiHeadAttention.step_mixed`.
        Norms reduce along the last axis only, so each lane's rows stay
        row-local.

        With ``rows`` (the model's last layer) every chunk position
        still lands its K/V, but only those flat positions run
        attention, the residual and the FFN, as ``(len(rows), 1,
        d_model)`` rows in :meth:`~repro.llm.layers.Linear.step`'s
        one-token tiles, so a row's bits depend only on that row.
        """
        attention = self.attention
        decode, chunk = attention.project_qkv(each(self.attn_norm, hidden))
        if decode is not None:
            decode = attention.step_batch(decode, caches[0])
        if chunk is not None:
            chunk = attention.step_mixed(chunk, caches[1], lengths, rows)
        attended = attention.project_out([decode, chunk])
        del decode, chunk
        if rows is not None:
            hidden = [hidden[0], hidden[1][rows][:, None, :]]
        hidden = _residual(hidden, attended)
        del attended
        return _residual(hidden, self.ffn.step(each(self.ffn_norm, hidden)))


@dataclass(slots=True)
class _Lane:
    """One row kind of a serving step, checked and ready for the layer loop."""

    #: Token ids: ``(batch, 1)`` decode rows or the ``(total,)`` flat chunk.
    ids: np.ndarray
    #: Position ids, broadcastable against ``ids``.
    positions: np.ndarray
    #: Per request, its per-layer caches.
    caches: list[list[KVCache]]
    #: Chunk only: per-segment token counts, the flat positions the
    #: last layer samples, and per segment how many it samples.
    lengths: list[int] | None = None
    rows: np.ndarray | None = None
    sample_rows: list[int] | None = None


class CausalLM(Module):
    """A causal language model in the OPT or LLaMA style.

    Args:
        config: architecture description (see
            :mod:`repro.llm.config`); the config's ``seed`` initializes
            the weights deterministically.
    """

    def __init__(self, config: ModelConfig) -> None:
        rng = np.random.default_rng(config.seed)
        self.tap = ActivationTap()
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.d_model, rng)
        self.position_embedding = (
            Embedding(config.max_seq_len, config.d_model, rng)
            if config.family == "opt"
            else None
        )
        self.blocks = [
            TransformerBlock(config, self.tap, rng) for _ in range(config.n_layers)
        ]
        self.final_norm = make_norm(config.norm, config.d_model)
        self.lm_head = Linear(config.d_model, config.vocab_size, rng, bias=False)

    # -- full-sequence path -----------------------------------------------

    def _embed(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ModelError(f"tokens must be (batch, time), got shape {tokens.shape}")
        if tokens.shape[1] > self.config.max_seq_len:
            raise ModelError(
                f"sequence length {tokens.shape[1]} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        hidden = self.token_embedding(tokens)
        if self.position_embedding is not None:
            positions = np.arange(tokens.shape[1])
            hidden = hidden + self.position_embedding(positions)
        return hidden

    def forward(self, tokens: np.ndarray) -> Tensor:
        """Logits for every position: ``(batch, time, vocab)``."""
        hidden = self._embed(tokens)
        for block in self.blocks:
            hidden = block(hidden)
        return self.lm_head(self.final_norm(hidden))

    __call__ = forward

    def loss(self, tokens: np.ndarray) -> Tensor:
        """Mean next-token cross entropy over a ``(batch, time)`` batch."""
        tokens = np.asarray(tokens)
        if tokens.shape[1] < 2:
            raise ModelError("need at least two tokens for a next-token loss")
        logits = self.forward(tokens[:, :-1])
        return softmax_cross_entropy(logits, tokens[:, 1:])

    # -- incremental decode path --------------------------------------------

    def new_cache(self) -> list[KVCache]:
        """Fresh per-layer KV caches for incremental decoding."""
        return [KVCache() for _ in self.blocks]

    def forward_step(
        self, tokens: np.ndarray, caches: list[KVCache]
    ) -> np.ndarray:
        """Extend one request's cached decoding by ``tokens`` (``(1, new)`` ids).

        A step with one prompt chunk that samples every row, so every
        row — at any chunk boundary, even a one-token chunk — is bitwise
        the same row of a monolithic prefill, and equals the same row
        sampled on its own (``forward_mixed_step(..., sample_rows=[1])``
        for the last).  Decoding a sampled token runs the decode lane
        instead (:meth:`forward_decode_batch`), as the serving engine
        does.  Returns plain-numpy logits ``(1, new, vocab)``.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2 or tokens.shape[0] != 1:
            raise ModelError(
                "forward_step extends one request: expects (1, new) token ids, "
                f"got shape {tokens.shape}"
            )
        chunk = self._chunk_lane([tokens[0]], [caches], None)
        return self._forward(None, chunk)[1][0][None]

    def forward_decode_batch(
        self,
        tokens: np.ndarray,
        request_caches: list[list[KVCache]],
        dispatcher: BucketedAttention | None = None,
    ) -> np.ndarray:
        """Decode one token for many requests in a single batched step.

        A serving step with decode rows alone: request states are
        gathered into one ``(batch, 1)`` token array, every projection
        (QKV, O, FFN, LM head) runs through
        :meth:`~repro.llm.layers.Linear.step` — one weight pass per
        4-row tile while four rows remain, then per 2-row tile, each a
        GEMM of fixed height whose rows get the same bits at either
        height — and attention consults each request's own
        exact-length cache — so requests may sit at arbitrary,
        different positions.  Every row of the result is bitwise
        identical to decoding that request alone (a batch of one, its
        row padded into a 2-row tile), which is how
        :func:`~repro.llm.generation.generate` decodes.

        Each layer lands every request's K/V row in one batch append
        and runs one ``M == 1`` attention launch per request over its
        own history, in one loop.

        Args:
            tokens: ``(batch, 1)`` next-token ids, one row per request.
            request_caches: per request, the per-layer cache list that
                earlier :meth:`forward_step` / ``forward_decode_batch``
                calls extended.
            dispatcher: accepted for callers that pass one and not
                read (attention needs no dispatcher).

        Returns:
            Plain-numpy logits ``(batch, 1, vocab)``.
        """
        return self._forward(self._decode_lane(tokens, request_caches), None)[0]

    def forward_mixed_step(
        self,
        chunk_groups: list[np.ndarray],
        chunk_caches: list[list[KVCache]],
        decode_tokens: np.ndarray | None = None,
        decode_caches: list[list[KVCache]] | None = None,
        sample_rows: list[int] | None = None,
    ) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Run prompt chunks and decodes for many requests in one step.

        This is the chunked-prefill serving step: one layer loop
        advances both row kinds together (:meth:`_forward`).

        * The **prompt chunks** flatten along the time axis into one
          ``(total, d_model)`` lane that lands every position's K/V but
          computes logits only for the trailing rows each segment
          samples (``sample_rows``).  Every prompt row is bitwise the
          same row of a monolithic prefill of its own prompt, whatever
          the chunk boundaries and whatever rides in the step: each
          flat projection runs one GEMM of at least the weight's
          :attr:`~repro.llm.layers.Linear.min_rows` rows, from which
          height on a row's bits ignore the height and the co-rows, and
          attention runs in position-aligned tiles of one shape
          (:meth:`~repro.llm.attention.MultiHeadAttention.step_mixed`).
        * The **decode rows** are a ``(batch, 1, d_model)`` lane, each
          row bitwise identical to :meth:`forward_decode_batch` of that
          request alone.

        Inside every layer, each projection — fused QKV, O, the FFN's,
        then the LM head — runs the decode rows first, in
        :meth:`~repro.llm.layers.Linear.step`'s fixed-height tiles (4
        rows while four remain, then 2), and then the chunk's flat
        GEMM, which reads the weight while it is still in cache, so a
        mixed step reads each weight from memory once rather than once
        per lane.  The lanes never share a GEMM, and
        each GEMM keeps the shape and the input it has when its lane
        runs alone, so running the lanes together changes only the call
        order, never a bit.  The attention bodies stay per lane
        (:meth:`~repro.llm.attention.MultiHeadAttention.step_batch`,
        :meth:`~repro.llm.attention.MultiHeadAttention.step_mixed`).
        Every input is checked, and a cache set named twice across the
        lanes is rejected, before any layer runs; a failure inside a
        layer may leave K/V rows of both lanes behind, which the engine
        rolls back.

        Args:
            chunk_groups: per chunked request, a 1-D array of prompt
                token ids (length >= 1) continuing that request's
                cache.
            chunk_caches: per chunked request, the per-layer cache list
                to extend, aligned with ``chunk_groups``.
            decode_tokens: optional ``(batch, 1)`` next-token ids for
                the decode rows.
            decode_caches: per decode request, the per-layer cache
                list (required when ``decode_tokens`` is given).
            sample_rows: per chunked request, how many of its trailing
                rows to return logits for (``0`` to ``len(group)``);
                ``None`` samples every row.  The engine samples ``1``
                for a chunk that completes its prompt and ``0`` for a
                partial one.

        Returns:
            ``(chunk_logits, decode_logits)`` — per chunk, plain-numpy
            logits ``(sampled, vocab)`` for its last ``sampled`` rows;
            decode logits ``(batch, 1, vocab)`` or ``None`` when the
            step has no decode rows.
        """
        if not chunk_groups and decode_tokens is None:
            raise ModelError("mixed step needs at least one chunk or decode")
        self._check_distinct(list(chunk_caches) + list(decode_caches or []))
        chunk = self._chunk_lane(chunk_groups, chunk_caches, sample_rows)
        if chunk is None:
            # A step of decode rows alone is the decode-only entry.
            return [], self.forward_decode_batch(decode_tokens, decode_caches or [])
        decode = None
        if decode_tokens is not None:
            decode = self._decode_lane(decode_tokens, decode_caches or [])
        decode_logits, chunk_logits = self._forward(decode, chunk)
        return chunk_logits, decode_logits

    def _decode_lane(
        self, tokens: np.ndarray, request_caches: list[list[KVCache]]
    ) -> _Lane:
        """Check a step's decode rows: one next token per request."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2 or tokens.shape[0] < 1 or tokens.shape[1] != 1:
            raise ModelError(
                f"decode batch expects (batch >= 1, 1) token ids, got {tokens.shape}"
            )
        self._check_requests(list(tokens), request_caches)
        starts = np.array([caches[0].length for caches in request_caches])
        if (starts + 1).max(initial=0) > self.config.max_seq_len:
            raise ModelError(
                f"a request would exceed max_seq_len {self.config.max_seq_len}"
            )
        return _Lane(tokens, starts[:, None], request_caches)

    def _chunk_lane(
        self,
        chunk_groups: list[np.ndarray],
        chunk_caches: list[list[KVCache]],
        sample_rows: list[int] | None,
    ) -> _Lane | None:
        """Check a step's prompt chunks and flatten them into one lane.

        ``None`` when the step has none.  The lane's ``rows`` are the
        flat positions the last layer runs queries for: each segment's
        last ``sample_rows`` rows.  That layer's key/value side —
        attention norm, fused QKV, rotary on K, codec and cache append
        — still covers every position, while its query side —
        attention, O, residual, FFN, final norm and LM head — runs only
        for those rows, one decode-shaped row each.  A partial prompt
        chunk that samples ``0`` rows therefore lands its K/V and
        returns ``(0, vocab)``.
        """
        groups = [np.asarray(group) for group in chunk_groups]
        if any(group.ndim != 1 or group.shape[0] < 1 for group in groups):
            raise ModelError("every chunk group must be 1-D, of at least one token")
        lengths = [group.shape[0] for group in groups]
        if sample_rows is None:
            sample_rows = lengths
        elif len(sample_rows) != len(groups) or any(
            not 0 <= count <= length for count, length in zip(sample_rows, lengths)
        ):
            raise ModelError(
                f"sample_rows {list(sample_rows)} must give each of "
                f"{len(groups)} chunks a count in [0, its length {lengths}]"
            )
        if not groups:
            return None
        self._check_requests(groups, chunk_caches)
        starts = [caches[0].length for caches in chunk_caches]
        if max(
            start + length for start, length in zip(starts, lengths)
        ) > self.config.max_seq_len:
            raise ModelError(
                f"a request would exceed max_seq_len {self.config.max_seq_len}"
            )
        # A flat position is sampled when it is among its segment's
        # last ``count`` rows.
        ends = np.cumsum(lengths)
        rows = np.flatnonzero(
            np.arange(ends[-1]) >= np.repeat(ends - sample_rows, lengths)
        )
        return _Lane(
            np.concatenate(groups),  # (total,)
            # Shared with the attention layers' rotary gather: one
            # memoized build per step, not one per consumer.
            chunk_positions(starts, lengths),
            chunk_caches,
            lengths,
            rows,
            sample_rows,
        )

    def _forward(
        self, decode: _Lane | None, chunk: _Lane | None
    ) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """The model's one serving layer loop, over a step's two lanes.

        Serves decode-only steps (:meth:`forward_decode_batch`),
        chunk-only ones (:meth:`forward_step`) and mixed ones
        (:meth:`forward_mixed_step`): each layer is one
        :meth:`TransformerBlock.step` over both lanes, the last sampling
        the chunk's ``rows``.  Returns the decode rows' logits
        ``(batch, 1, vocab)`` (``None`` without decode rows) and per
        chunk its sampled rows' logits ``(sampled, vocab)``.
        """
        tracer = active_scope().tracer
        if tracer is not None:
            if chunk is not None:
                tracer.begin(
                    "step.prefill_chunks",
                    chunks=len(chunk.caches),
                    tokens=int(chunk.ids.shape[0]),
                )
            if decode is not None:
                tracer.begin("step.decode_batch", batch=decode.ids.shape[0])
        lanes = [decode, chunk]
        lengths = [] if chunk is None else chunk.lengths
        with no_grad():
            hidden = [
                None if lane is None else self._embed_lane(lane) for lane in lanes
            ]
            last = len(self.blocks) - 1
            for layer_index, block in enumerate(self.blocks):
                hidden = block.step(
                    hidden,
                    [
                        None
                        if lane is None
                        else [caches[layer_index] for caches in lane.caches]
                        for lane in lanes
                    ],
                    lengths,
                    None if layer_index < last or chunk is None else chunk.rows,
                )
            decode_logits, chunk_logits = each(
                self.lm_head.step, each(self.final_norm, hidden)
            )
        if tracer is not None:
            if decode is not None:
                tracer.end("step.decode_batch")
            if chunk is not None:
                tracer.end("step.prefill_chunks")
        if chunk is None:
            return decode_logits, []
        # (sampled, 1, vocab) -> per chunk (its sampled rows, vocab)
        return decode_logits, np.split(
            chunk_logits[:, 0, :], np.cumsum(chunk.sample_rows)[:-1]
        )

    def _embed_lane(self, lane: _Lane) -> np.ndarray:
        """A lane's token (plus learned position) embeddings, plain numpy."""
        hidden = self.token_embedding(lane.ids).data
        if self.position_embedding is not None:
            hidden = hidden + self.position_embedding(lane.positions).data
        return hidden

    def _check_requests(
        self, ids: list[np.ndarray], request_caches: list[list[KVCache]]
    ) -> None:
        """Integer ids, and per request its own cache for every layer."""
        if len(request_caches) != len(ids):
            raise ModelError(
                f"got {len(request_caches)} cache sets for {len(ids)} requests"
            )
        for tokens, caches in zip(ids, request_caches):
            if tokens.dtype.kind not in "iu":  # signed or unsigned, not bool
                raise ModelError(f"token ids must be integers, got {tokens.dtype}")
            if len(caches) != len(self.blocks):
                raise ModelError(
                    f"got {len(caches)} layer caches for {len(self.blocks)} layers"
                )
        self._check_distinct(request_caches)

    @staticmethod
    def _check_distinct(request_caches: list[list[KVCache]]) -> None:
        """No cache named twice in one call (it would be extended twice)."""
        named = {id(cache) for caches in request_caches for cache in caches}
        if len(named) != sum(len(caches) for caches in request_caches):
            raise ModelError("a KV cache set is named twice in one call")

    # -- tap plumbing ----------------------------------------------------------

    def set_quantizer(self, quantizer) -> None:
        """Install (or clear, with ``None``) the activation quantizer."""
        self.tap.quantizer = quantizer

    def set_recorder(self, recorder) -> None:
        """Install (or clear, with ``None``) the activation recorder."""
        self.tap.recorder = recorder


def build_model(config: ModelConfig) -> CausalLM:
    """Construct a freshly initialized model for a config."""
    return CausalLM(config)
