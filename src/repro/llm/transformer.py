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
    BucketPlan,
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
        hidden = x @ self.up_proj.weight.data + self.up_proj.bias.data
        hidden = np.maximum(hidden, 0.0)
        if self.tap.quantizer is not None:
            hidden = self.tap.quantizer(TensorKind.D, hidden)
        return (hidden @ self.down_proj.weight.data + self.down_proj.bias.data).astype(
            np.float32, copy=False
        )


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
        gate = x @ self.gate_proj.weight.data
        gate = gate / (1.0 + np.exp(-gate)) * (x @ self.up_proj.weight.data)
        if self.tap.quantizer is not None:
            gate = self.tap.quantizer(TensorKind.D, gate)
        return (gate @ self.down_proj.weight.data).astype(np.float32, copy=False)


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

    def step(self, x: np.ndarray, cache: KVCache) -> np.ndarray:
        x = x + self.attention.step(self.attn_norm(x), cache)
        return x + self.ffn.step(self.ffn_norm(x))

    def step_batch(
        self,
        x: np.ndarray,
        caches: list[KVCache],
        plan: BucketPlan | None = None,
        dispatcher: BucketedAttention | None = None,
    ) -> np.ndarray:
        """One decode step for a batch of requests with per-request caches.

        Norms and the feed-forward reduce along the last axis only, so
        they batch row-identically as-is; attention routes through
        :meth:`~repro.llm.attention.MultiHeadAttention.step_batch`,
        grouped into KV-length buckets when a ``plan`` is given.
        """
        x = x + self.attention.step_batch(
            self.attn_norm(x), caches, plan=plan, dispatcher=dispatcher
        )
        return x + self.ffn.step(self.ffn_norm(x))

    def step_mixed(
        self, x: np.ndarray, caches: list[KVCache], lengths: list[int]
    ) -> np.ndarray:
        """One mixed step over variable-length per-request segments.

        Same row-local batching argument as :meth:`step_batch`, with
        attention routed through
        :meth:`~repro.llm.attention.MultiHeadAttention.step_mixed` so
        decodes and prompt chunks share the step's GeMMs.
        """
        x = x + self.attention.step_mixed(self.attn_norm(x), caches, lengths)
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
        """Extend cached decoding by ``tokens`` (``(batch, new)`` ids).

        Returns plain-numpy logits ``(batch, new, vocab)``.
        """
        tokens = np.asarray(tokens)
        start = caches[0].length
        with no_grad():
            hidden = self.token_embedding(tokens).data
            if self.position_embedding is not None:
                positions = np.arange(start, start + tokens.shape[1])
                hidden = hidden + self.position_embedding(positions).data
            for block, cache in zip(self.blocks, caches):
                hidden = block.step(hidden, cache)
            return self.final_norm(hidden) @ self.lm_head.weight.data

    def forward_decode_batch(
        self,
        tokens: np.ndarray,
        request_caches: list[list[KVCache]],
        dispatcher: BucketedAttention | None = None,
    ) -> np.ndarray:
        """Decode one token for many requests in a single batched step.

        This is the serving engine's model step: request states are
        gathered into one ``(batch, 1)`` token array, the big GeMMs
        (projections, FFN, LM head) run once over the whole batch, and
        attention consults each request's own exact-length cache — so
        requests may sit at arbitrary, different positions.  Every row
        of the result is bitwise identical to running that request alone
        through :meth:`forward_step`.

        With a ``dispatcher``, attention runs grouped: the step's
        post-append KV lengths are bucketed once
        (:meth:`~repro.llm.attention.BucketedAttention.plan` — all
        layers sit at the same lengths, so the plan is shared) and each
        layer launches one attention pipeline per bucket instead of one
        per request, still token-bitwise identical.

        Args:
            tokens: ``(batch, 1)`` next-token ids, one row per request.
            request_caches: per request, the per-layer cache list that
                earlier :meth:`forward_step` / ``forward_decode_batch``
                calls extended.
            dispatcher: optional grouped-attention dispatcher.

        Returns:
            Plain-numpy logits ``(batch, 1, vocab)``.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2 or tokens.shape[1] != 1:
            raise ModelError(
                f"decode batch expects (batch, 1) token ids, got {tokens.shape}"
            )
        if len(request_caches) != tokens.shape[0]:
            raise ModelError(
                f"got {len(request_caches)} cache sets for "
                f"{tokens.shape[0]} requests"
            )
        starts = np.array([caches[0].length for caches in request_caches])
        if (starts + 1).max(initial=0) > self.config.max_seq_len:
            raise ModelError(
                f"a request would exceed max_seq_len {self.config.max_seq_len}"
            )
        plan: BucketPlan | None = None
        if dispatcher is not None:
            if len(request_caches) > 1:
                # Post-append lengths: each cache gains one position
                # this step before attention reads it.
                plan = dispatcher.plan([int(start) + 1 for start in starts])
            else:
                # A lone request launches no bucket, but the step still
                # frees the workspaces of the batch it drained from.
                dispatcher.sweep()
        tracer = active_scope().tracer
        if tracer is not None:
            tracer.begin(
                "step.decode_batch",
                batch=tokens.shape[0],
                grouped=plan is not None,
            )
        with no_grad():
            hidden = self.token_embedding(tokens).data
            if self.position_embedding is not None:
                hidden = hidden + self.position_embedding(starts[:, None]).data
            for layer_index, block in enumerate(self.blocks):
                layer_caches = [caches[layer_index] for caches in request_caches]
                hidden = block.step_batch(
                    hidden, layer_caches, plan=plan, dispatcher=dispatcher
                )
            logits = self.final_norm(hidden) @ self.lm_head.weight.data
        if tracer is not None:
            tracer.end("step.decode_batch")
        return logits

    def forward_mixed_step(
        self,
        chunk_groups: list[np.ndarray],
        chunk_caches: list[list[KVCache]],
        decode_tokens: np.ndarray | None = None,
        decode_caches: list[list[KVCache]] | None = None,
        dispatcher: BucketedAttention | None = None,
    ) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Run prompt chunks and decodes for many requests in one step.

        This is the chunked-prefill serving step, executed as two lanes
        inside one invocation:

        * the **chunk lane** flattens every prompt chunk along the time
          axis into one ``(1, total, d_model)`` pass
          (:meth:`~repro.llm.transformer.TransformerBlock.step_mixed`),
          so its GeMM rows are bitwise identical to a monolithic
          prefill of the same prompt;
        * the **decode lane** is :meth:`forward_decode_batch`, keeping
          each decode row bitwise identical to sequential decoding.

        The two lanes deliberately do *not* share one GeMM: OpenBLAS
        switches accumulation kernels between single-row (``M == 1``)
        and multi-row (``M >= 2``) matmuls, so folding decode rows into
        the chunk lane's flat GeMM would silently change decode logits
        in the low bits.  Keeping the lanes separate preserves both
        bitwise guarantees at once.  The chunk lane runs *first*: if it
        raises, no decode cache has been touched, so the engine can
        release the chunk participants' caches and recover.

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
            dispatcher: optional grouped-attention dispatcher for the
                decode lane (the chunk lane always runs per segment).

        Returns:
            ``(chunk_logits, decode_logits)`` — per chunk, plain-numpy
            logits ``(len(group), vocab)``; decode logits ``(batch, 1,
            vocab)`` or ``None`` when the decode lane is empty.
        """
        if not chunk_groups and decode_tokens is None:
            raise ModelError("mixed step needs at least one chunk or decode")
        chunk_logits = self._forward_chunk_lane(chunk_groups, chunk_caches)
        decode_logits = None
        if decode_tokens is not None:
            decode_logits = self.forward_decode_batch(
                decode_tokens, decode_caches or [], dispatcher=dispatcher
            )
        return chunk_logits, decode_logits

    def _forward_chunk_lane(
        self,
        chunk_groups: list[np.ndarray],
        chunk_caches: list[list[KVCache]],
    ) -> list[np.ndarray]:
        """Flat-GeMM pass over every prompt chunk of a mixed step."""
        if not chunk_groups:
            return []
        if len(chunk_caches) != len(chunk_groups):
            raise ModelError(
                f"got {len(chunk_caches)} cache sets for "
                f"{len(chunk_groups)} chunk groups"
            )
        groups = [np.asarray(group).reshape(-1) for group in chunk_groups]
        if min(group.shape[0] for group in groups) < 1:
            raise ModelError("every chunk group must hold at least one token")
        lengths = [group.shape[0] for group in groups]
        starts = [caches[0].length for caches in chunk_caches]
        if max(
            start + length for start, length in zip(starts, lengths)
        ) > self.config.max_seq_len:
            raise ModelError(
                f"a request would exceed max_seq_len {self.config.max_seq_len}"
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
            for layer_index, block in enumerate(self.blocks):
                layer_caches = [caches[layer_index] for caches in chunk_caches]
                hidden = block.step_mixed(hidden, layer_caches, lengths)
            # (1, total, vocab)
            logits = self.final_norm(hidden) @ self.lm_head.weight.data
        if tracer is not None:
            tracer.end("step.prefill_chunks")
        split: list[np.ndarray] = []
        offset = 0
        for length in lengths:
            split.append(logits[0, offset : offset + length, :])
            offset += length
        return split

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
