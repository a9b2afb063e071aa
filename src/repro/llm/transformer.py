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
from repro.llm.layers import Embedding, Linear, Module, make_norm


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

    def step(self, x: np.ndarray) -> np.ndarray:
        if self.tap.quantizer is not None:
            x = self.tap.quantizer(TensorKind.U, x)
        hidden = np.maximum(self.up_proj.step(x), 0.0)
        if self.tap.quantizer is not None:
            hidden = self.tap.quantizer(TensorKind.D, hidden)
        return self.down_proj.step(hidden).astype(np.float32, copy=False)


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

    def step(self, x: np.ndarray) -> np.ndarray:
        if self.tap.quantizer is not None:
            x = self.tap.quantizer(TensorKind.U, x)
        gate = self.gate_proj.step(x)
        gate = gate / (1.0 + np.exp(-gate)) * self.up_proj.step(x)
        if self.tap.quantizer is not None:
            gate = self.tap.quantizer(TensorKind.D, gate)
        return self.down_proj.step(gate).astype(np.float32, copy=False)


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

    def step_batch(self, x: np.ndarray, caches: list[KVCache]) -> np.ndarray:
        """One decode step for a batch of requests with per-request caches.

        Norms reduce along the last axis only, so they batch
        row-identically as-is; the feed-forward's projections run in
        :meth:`~repro.llm.layers.Linear.step`'s fixed ``ROW_TILE``-row
        tiles, whose rows do not depend on their co-rows; attention
        routes through
        :meth:`~repro.llm.attention.MultiHeadAttention.step_batch`,
        one launch per request.
        """
        x = x + self.attention.step_batch(self.attn_norm(x), caches)
        return x + self.ffn.step(self.ffn_norm(x))

    def step_mixed(
        self,
        x: np.ndarray,
        caches: list[KVCache],
        lengths: list[int],
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """One mixed step over variable-length per-request segments.

        The chunk lane: every prompt chunk of the step is one flat
        ``(1, total, d_model)`` input.  The attention norm and the
        fused QKV projection run over every position, so every
        position's K/V lands in its cache
        (:meth:`~repro.llm.attention.MultiHeadAttention.step_mixed`).
        With ``rows=None`` the rest of the block runs over every
        position too, each projection one plain GeMM of height
        ``total``.  With ``rows`` (the model's last layer) only those
        flat positions run attention, the residual and the FFN, as
        ``(len(rows), 1, d_model)`` rows in
        :meth:`~repro.llm.layers.Linear.step`'s fixed ``ROW_TILE``-row
        tiles — the decode lane's arithmetic, so a row's bits depend
        only on that row.  Decode rows never ride this lane (see
        :meth:`CausalLM.forward_mixed_step`).
        """
        attended = self.attention.step_mixed(self.attn_norm(x), caches, lengths, rows)
        if rows is not None:
            x = x[0, rows][:, None, :]
        x = x + attended
        return x + self.ffn.step(self.ffn_norm(x))


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

        The chunk lane with one segment that samples every row, so a
        chunk that rides that lane alone is bitwise equal to
        ``forward_step`` over the same boundaries, and each row equals
        the same row sampled on its own (``forward_mixed_step(...,
        sample_rows=[1])`` for the last).  Returns plain-numpy logits
        ``(1, new, vocab)``.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2 or tokens.shape[0] != 1:
            raise ModelError(
                "forward_step extends one request: expects (1, new) token ids, "
                f"got shape {tokens.shape}"
            )
        return self._forward_chunk_lane([tokens[0]], [caches])[0][None]

    def forward_decode_batch(
        self,
        tokens: np.ndarray,
        request_caches: list[list[KVCache]],
        dispatcher: BucketedAttention | None = None,
    ) -> np.ndarray:
        """Decode one token for many requests in a single batched step.

        This is the serving engine's model step: request states are
        gathered into one ``(batch, 1)`` token array, every projection
        (QKV, O, FFN, LM head) runs through
        :meth:`~repro.llm.layers.Linear.step` — one weight pass per
        ``ROW_TILE`` rows, each tile a GEMM of fixed height — and
        attention consults each request's own exact-length cache — so
        requests may sit at arbitrary, different positions.  Every row
        of the result is bitwise identical to running that request alone
        through :meth:`forward_step`, whose one row lands in the same
        fixed-height tile (padded).

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
        tracer = active_scope().tracer
        if tracer is not None:
            tracer.begin("step.decode_batch", batch=tokens.shape[0])
        with no_grad():
            hidden = self.token_embedding(tokens).data
            if self.position_embedding is not None:
                hidden = hidden + self.position_embedding(starts[:, None]).data
            for layer_index, block in enumerate(self.blocks):
                layer_caches = [caches[layer_index] for caches in request_caches]
                hidden = block.step_batch(hidden, layer_caches)
            logits = self.lm_head.step(self.final_norm(hidden))
        if tracer is not None:
            tracer.end("step.decode_batch")
        return logits

    def forward_mixed_step(
        self,
        chunk_groups: list[np.ndarray],
        chunk_caches: list[list[KVCache]],
        decode_tokens: np.ndarray | None = None,
        decode_caches: list[list[KVCache]] | None = None,
        sample_rows: list[int] | None = None,
    ) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Run prompt chunks and decodes for many requests in one step.

        This is the chunked-prefill serving step, executed as two lanes
        inside one invocation:

        * the **chunk lane** (:meth:`_forward_chunk_lane`) flattens
          every prompt chunk along the time axis into one ``(1, total,
          d_model)`` pass and lands every position's K/V, but computes
          logits only for the trailing rows each segment samples
          (``sample_rows``); its logits match a monolithic prefill of
          the same prompt only to within BLAS accumulation-order
          differences (1e-6 to 1e-4 at logit scale ~4), not bitwise,
          and its tokens agree (pinned across chunk budgets and tails
          by the chunked-prefill tests);
        * the **decode lane** is :meth:`forward_decode_batch`, keeping
          each decode row bitwise identical to sequential decoding.

        The two lanes deliberately do *not* share one GeMM: OpenBLAS
        may give a row different bits at different GeMM heights (a
        K = 768 projection changes between ``M <= 5`` and ``M >= 6``),
        and the chunk lane's height is the step's chunk-token count,
        which varies.  Decode rows run in
        :meth:`~repro.llm.layers.Linear.step`'s fixed ``ROW_TILE``-row
        tiles instead, the height sequential decode uses, so every
        decode row stays bitwise.  A cache set named twice across the
        two lanes is rejected before any layer runs, and the chunk lane
        runs *first*: if it raises, no decode cache has been touched,
        so the engine can release the chunk participants' caches and
        recover.

        Args:
            chunk_groups: per chunked request, a 1-D array of prompt
                token ids (length >= 1) continuing that request's
                cache.
            chunk_caches: per chunked request, the per-layer cache list
                to extend, aligned with ``chunk_groups``.
            decode_tokens: optional ``(batch, 1)`` next-token ids for
                the decode lane.
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
            decode lane is empty.
        """
        if not chunk_groups and decode_tokens is None:
            raise ModelError("mixed step needs at least one chunk or decode")
        self._check_distinct(list(chunk_caches) + list(decode_caches or []))
        chunk_logits = self._forward_chunk_lane(chunk_groups, chunk_caches, sample_rows)
        decode_logits = None
        if decode_tokens is not None:
            decode_logits = self.forward_decode_batch(
                decode_tokens, decode_caches or []
            )
        return chunk_logits, decode_logits

    def _forward_chunk_lane(
        self,
        chunk_groups: list[np.ndarray],
        chunk_caches: list[list[KVCache]],
        sample_rows: list[int] | None = None,
    ) -> list[np.ndarray]:
        """Flat-GeMM pass over every prompt chunk of a mixed step.

        Every layer but the last runs over every position.  The last
        splits (:meth:`TransformerBlock.step_mixed` with ``rows``): its
        key/value side — attention norm, fused QKV, rotary on K, codec
        and cache append — still covers every position, while its query
        side — attention, O, residual, FFN, final norm and LM head —
        runs only for the rows a segment samples, one decode-shaped row
        each.  A partial prompt chunk that samples ``0`` rows therefore
        lands its K/V and returns ``(0, vocab)``.
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
            return []
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
        flat = np.concatenate(groups)[None, :]  # (1, total)
        tracer = active_scope().tracer
        if tracer is not None:
            tracer.begin(
                "step.prefill_chunks",
                chunks=len(groups),
                tokens=int(flat.shape[1]),
            )
        with no_grad():
            hidden = self.token_embedding(flat).data
            if self.position_embedding is not None:
                # Shared with the attention layers' rotary gather: one
                # memoized build per mixed step, not one per consumer.
                positions = chunk_positions(starts, lengths)
                hidden = hidden + self.position_embedding(positions).data
            *front, last = self.blocks
            for layer_index, block in enumerate(front):
                layer_caches = [caches[layer_index] for caches in chunk_caches]
                hidden = block.step_mixed(hidden, layer_caches, lengths)
            last_caches = [caches[-1] for caches in chunk_caches]
            hidden = last.step_mixed(hidden, last_caches, lengths, rows)
            # (sampled, 1, vocab)
            logits = self.lm_head.step(self.final_norm(hidden))
        if tracer is not None:
            tracer.end("step.prefill_chunks")
        return np.split(logits[:, 0, :], np.cumsum(sample_rows)[:-1])

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
