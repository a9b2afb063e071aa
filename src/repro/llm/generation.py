"""Autoregressive text generation with a KV cache.

Decoding exercises the same FP-INT GeMM tap points as prefill (the
quantizer, if installed, applies at every step), with attention keys and
values cached in FP16 as in the paper's evaluation setup.

The decoding recipe is a per-request :class:`repro.serve.SamplingParams`
(temperature, top-k, nucleus top-p, stop tokens, seed).  :func:`generate`
accepts either one directly (``params=``) or the equivalent scalar
kwargs; the serving engine's batched decode uses the same
:func:`select_next_token` on the same recipe.  :func:`generate`
prefills the prompt monolithically and decodes through the engine's
decode lane, and a chunked prefill gives every prompt row the same
bits as a monolithic one, so the two paths are token-bitwise
identical however the engine chunks and batches a request.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ModelError
from repro.llm.attention import KVCache
from repro.llm.tokenizer import ByteTokenizer
from repro.llm.transformer import CausalLM

if TYPE_CHECKING:  # pragma: no cover - serve imports llm, not vice versa
    from repro.serve.params import SamplingParams

#: Builds fresh per-layer caches for one request (e.g. FP16 or Anda KV).
CacheFactory = Callable[[], "list[KVCache]"]


def _sampling_params(
    params: "SamplingParams | None",
    max_new_tokens: int | None,
    temperature: float,
    top_k: int,
    seed: int,
) -> "SamplingParams":
    """Resolve an explicit ``SamplingParams`` or build one from kwargs."""
    # Function-level import: repro.serve imports this module at package
    # init, so the reverse edge must stay lazy to avoid a cycle.
    from repro.serve.params import SamplingParams

    if params is not None:
        return params
    if max_new_tokens is None:
        raise ModelError("either params or max_new_tokens must be given")
    return SamplingParams(
        max_new_tokens=max_new_tokens,
        temperature=temperature,
        top_k=top_k,
        seed=seed,
    )


@dataclass(frozen=True)
class GenerationResult:
    """Tokens produced by one decode call (prompt included)."""

    tokens: np.ndarray
    prompt_length: int
    #: Why decoding ended: ``"length"`` (hit ``max_new_tokens``) or
    #: ``"stop"`` (emitted a ``stop_token_ids`` member).
    finish_reason: str = "length"

    def continuation(self) -> np.ndarray:
        return self.tokens[self.prompt_length :]


def select_next_token(
    logits: np.ndarray,
    temperature: float,
    top_k: int,
    rng: np.random.Generator,
    top_p: float = 1.0,
) -> int:
    """Pick the next token from one vocab-sized logit row.

    Greedy argmax at ``temperature <= 0``, else top-k softmax sampling
    with optional nucleus (top-p) truncation.  Shared by
    :func:`generate` and the serving engine so both paths make
    bit-identical choices from identical logits and RNG state —
    ``top_p=1.0`` takes the pre-nucleus code path verbatim (same ops,
    same RNG consumption), which is what keeps the parity suite exact.
    """
    if temperature <= 0.0:
        return int(np.argmax(logits))
    if top_k < 1:
        raise ModelError(f"top_k must be >= 1 when sampling, got {top_k}")
    scaled = logits.astype(np.float64) / temperature
    top = np.argsort(scaled)[-top_k:]
    probs = np.exp(scaled[top] - scaled[top].max())
    probs /= probs.sum()
    if top_p < 1.0:
        # Keep the smallest high-probability set reaching top_p mass
        # (the nucleus always includes the most likely token), then
        # renormalize over it.
        order = np.argsort(probs)[::-1]
        cutoff = int(np.searchsorted(np.cumsum(probs[order]), top_p)) + 1
        keep = order[:cutoff]
        top = top[keep]
        probs = probs[keep] / probs[keep].sum()
    return int(rng.choice(top, p=probs))


def generate(
    model: CausalLM,
    prompt_tokens: np.ndarray,
    max_new_tokens: int | None = None,
    temperature: float = 0.0,
    top_k: int = 20,
    seed: int = 0,
    cache_factory: CacheFactory | None = None,
    params: "SamplingParams | None" = None,
) -> GenerationResult:
    """Greedy (``temperature == 0``) or top-k/top-p sampled decoding.

    Args:
        model: a trained causal LM.
        prompt_tokens: 1-D prompt token ids.
        max_new_tokens: continuation length (ignored when ``params`` is
            given).
        temperature: 0 for greedy, else softmax temperature.
        top_k: sample from the k most likely tokens when sampling.
        seed: sampling seed.
        cache_factory: optional builder for the per-layer KV caches
            (default FP16 via ``model.new_cache``; pass e.g.
            ``KVFormat.anda(8).cache_factory(model)`` for Anda KV).
        params: a full :class:`repro.serve.SamplingParams` recipe; when
            given it overrides the scalar decoding kwargs and adds
            nucleus ``top_p`` and early-``stop_token_ids`` support.
    """
    params = _sampling_params(params, max_new_tokens, temperature, top_k, seed)
    prompt = np.asarray(prompt_tokens).reshape(1, -1)
    if prompt.shape[1] < 1:
        raise ModelError("prompt must contain at least one token")
    if prompt.shape[1] + params.max_new_tokens > model.config.max_seq_len:
        raise ModelError(
            f"prompt + continuation ({prompt.shape[1]} + "
            f"{params.max_new_tokens}) exceeds max_seq_len "
            f"{model.config.max_seq_len}"
        )
    rng = np.random.default_rng(params.seed)
    caches = model.new_cache() if cache_factory is None else cache_factory()
    # A monolithic prefill: chunked ones give every prompt row the same
    # bits.  Only the prompt's last row is sampled; the rest land K/V.
    logits = model.forward_mixed_step([prompt[0]], [caches], sample_rows=[1])[0][0]

    produced = [prompt[0]]
    finish_reason = "length"
    for index in range(params.max_new_tokens):
        next_token = select_next_token(
            logits[0],
            params.temperature,
            params.top_k,
            rng,
            top_p=params.top_p,
        )
        produced.append(np.array([next_token]))
        if params.is_stop(next_token):
            finish_reason = "stop"
            break
        if index + 1 < params.max_new_tokens:
            # The serving engine's decode lane, one row.
            logits = model.forward_decode_batch(np.array([[next_token]]), [caches])[0]
    return GenerationResult(
        tokens=np.concatenate(produced),
        prompt_length=prompt.shape[1],
        finish_reason=finish_reason,
    )


def generate_text(
    model: CausalLM,
    prompt: str,
    max_new_tokens: int = 64,
    temperature: float = 0.0,
    seed: int = 0,
    params: "SamplingParams | None" = None,
) -> str:
    """String-in / string-out convenience wrapper around :func:`generate`.

    Routed through :class:`repro.serve.SamplingParams` like every other
    front end: the scalar kwargs build one (pass ``params`` to use a
    full recipe, including ``top_p`` and ``stop_token_ids``).
    """
    params = _sampling_params(params, max_new_tokens, temperature, 20, seed)
    tokenizer = ByteTokenizer()
    result = generate(model, tokenizer.encode(prompt), params=params)
    return tokenizer.decode(result.tokens)
