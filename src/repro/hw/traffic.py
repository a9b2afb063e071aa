"""Decode-phase DRAM traffic accounting for the serving engine.

:mod:`repro.hw.roofline` already shows *why* decode is the bandwidth
regime: one token per request means no weight reuse, so operational
intensity collapses to ~2 MACs/byte.  This module quantifies *how much*
traffic a serving step moves, which is the cost axis continuous
batching actually optimizes:

* **weights** — every FP-INT GeMM weight (plus the LM head) streams
  from DRAM once per model step.  A batched step amortizes that stream
  over the whole batch; one-at-a-time decode re-reads it per request.
* **KV cache** — each request re-reads its entire key/value history
  every step and appends one position.  This term scales with context
  length and is where the Anda KV format's compression
  (:meth:`repro.llm.kv_quant.KVFormat.bits_per_element`) multiplies
  through.
* **activations** — per-token hidden-state traffic; small next to the
  other two but kept for honest totals.

The numbers are analytic (bytes implied by the model config), matching
how :mod:`repro.hw.workloads` counts GeMM volumes — no simulator run
is needed per serving step.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.errors import HardwareError
from repro.llm.config import ModelConfig

#: Bytes per FP16 element, the substrate's weight/activation precision.
_FP16_BYTES = 2.0


@dataclass(frozen=True, slots=True)
class StepTraffic:
    """DRAM bytes moved by one serving step, split by stream.

    ``slots=True``: the engine folds one of these per lane per step
    into its accumulators, so construction stays allocation-light on
    the decode hot path.

    Attributes:
        weight_bytes: model weights streamed (once per batched step).
        kv_read_bytes: key/value history re-read across the batch.
        kv_write_bytes: newly appended key/value positions.
        activation_bytes: hidden-state reads/writes across the batch.
    """

    weight_bytes: float = 0.0
    kv_read_bytes: float = 0.0
    kv_write_bytes: float = 0.0
    activation_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        return (
            self.weight_bytes
            + self.kv_read_bytes
            + self.kv_write_bytes
            + self.activation_bytes
        )

    def __add__(self, other: "StepTraffic") -> "StepTraffic":
        return StepTraffic(
            weight_bytes=self.weight_bytes + other.weight_bytes,
            kv_read_bytes=self.kv_read_bytes + other.kv_read_bytes,
            kv_write_bytes=self.kv_write_bytes + other.kv_write_bytes,
            activation_bytes=self.activation_bytes + other.activation_bytes,
        )


def _weight_bytes(config: ModelConfig) -> float:
    """FP16 bytes of every weight a decode step streams.

    Counts the per-token FP-INT GeMM weights (each MAC touches one
    weight element exactly once at sequence length 1) plus the LM head.
    """
    gemm_weights = config.fp_int_macs_per_token()
    lm_head = config.d_model * config.vocab_size
    return (gemm_weights + lm_head) * _FP16_BYTES


def _kv_elements_per_position(config: ModelConfig) -> int:
    """K + V elements one cached position holds across all layers."""
    return 2 * config.n_layers * config.d_model


def _activation_bytes_per_token(config: ModelConfig) -> float:
    """Hidden-state write+read per block plus embedding/head I/O."""
    return (2 * config.n_layers + 2) * config.d_model * _FP16_BYTES


def decode_step_traffic(
    config: ModelConfig,
    context_lengths: Sequence[int],
    kv_bits_per_element: "float | Sequence[float]" = 16.0,
    batched: bool = True,
) -> StepTraffic:
    """Traffic of one decode step over a batch of requests.

    Args:
        config: architecture being served.
        context_lengths: per-request cached positions *before* the step
            (each request reads that history and appends one position).
        kv_bits_per_element: stored bits per cached element — 16 for
            FP16, :meth:`repro.llm.kv_quant.KVFormat.bits_per_element`
            for a compressed cache.  A *sequence* gives per-request widths
            (mixed-format serving: each request's history is read and
            its appended position written at its own width).
        batched: if true, weights stream once for the whole batch
            (continuous batching); if false, once per request
            (one-at-a-time decode), which is the baseline the engine's
            speedup is measured against.
    """
    batch = len(context_lengths)
    uniform = isinstance(kv_bits_per_element, (int, float))
    if not uniform:
        per_request_bits = [float(bits) for bits in kv_bits_per_element]
        if len(per_request_bits) != batch:
            raise HardwareError(
                f"got {len(per_request_bits)} per-request KV widths for a "
                f"batch of {batch} requests"
            )
        if len(set(per_request_bits)) == 1:
            # A same-width batch takes the uniform arithmetic, keeping
            # its float rounding identical to the scalar call.
            uniform = True
            kv_bits_per_element = per_request_bits[0]
    if uniform:
        if kv_bits_per_element <= 0:
            raise HardwareError(
                f"kv bits per element must be positive, got {kv_bits_per_element}"
            )
        if batch == 0:
            return StepTraffic()
        if min(context_lengths) < 0:
            raise HardwareError("context lengths must be non-negative")
        kv_bytes_per_element = kv_bits_per_element / 8.0
        per_position = _kv_elements_per_position(config)
        history = sum(context_lengths)
        return StepTraffic(
            weight_bytes=_weight_bytes(config) * (1 if batched else batch),
            kv_read_bytes=history * per_position * kv_bytes_per_element,
            kv_write_bytes=batch * per_position * kv_bytes_per_element,
            activation_bytes=batch * _activation_bytes_per_token(config),
        )
    if any(bits <= 0 for bits in per_request_bits):
        raise HardwareError(
            f"kv bits per element must be positive, got {kv_bits_per_element}"
        )
    if batch == 0:
        return StepTraffic()
    if min(context_lengths) < 0:
        raise HardwareError("context lengths must be non-negative")
    per_position = _kv_elements_per_position(config)
    kv_read = sum(
        context * bits / 8.0
        for context, bits in zip(context_lengths, per_request_bits)
    )
    kv_write = sum(bits / 8.0 for bits in per_request_bits)
    return StepTraffic(
        weight_bytes=_weight_bytes(config) * (1 if batched else batch),
        kv_read_bytes=kv_read * per_position,
        kv_write_bytes=kv_write * per_position,
        activation_bytes=batch * _activation_bytes_per_token(config),
    )


def decode_request_kv_bytes(
    config: ModelConfig, context_length: int, kv_bits_per_element: float = 16.0
) -> float:
    """One request's KV bytes within a decode step (read + write).

    The per-request share of :func:`decode_step_traffic`'s KV streams —
    its ``context_length`` history re-read plus the one appended
    position, at its own stored width — used by the engine to split a
    mixed-format step's KV traffic by format.
    """
    if context_length < 0:
        raise HardwareError(f"context length must be >= 0, got {context_length}")
    if kv_bits_per_element <= 0:
        raise HardwareError(
            f"kv bits per element must be positive, got {kv_bits_per_element}"
        )
    per_position = _kv_elements_per_position(config)
    return (context_length + 1) * per_position * kv_bits_per_element / 8.0


def prefill_traffic(
    config: ModelConfig,
    prompt_length: int,
    kv_bits_per_element: float = 16.0,
    cached_prefix_tokens: int = 0,
) -> StepTraffic:
    """Traffic of prefilling one prompt (whole-sequence forward).

    Prefill streams the weights once for the whole prompt (that reuse
    is why prefill is the compute-bound regime), writes the prompt's
    K/V history, and moves per-token activations.  Attention reads the
    growing in-flight history from on-chip buffers in this model, so no
    KV *read* traffic is charged to DRAM during prefill.

    ``cached_prefix_tokens`` accounts a prefix-cache hit: positions
    served from shared physical blocks are neither recomputed nor
    re-written, so only the uncached suffix is charged for KV writes
    and activation movement (:func:`prefix_cache_savings` quantifies
    the avoided bytes).
    """
    if prompt_length < 1:
        raise HardwareError(f"prompt length must be >= 1, got {prompt_length}")
    if not 0 <= cached_prefix_tokens < prompt_length:
        raise HardwareError(
            f"cached prefix ({cached_prefix_tokens}) must lie in "
            f"[0, {prompt_length}) — a fully cached prompt runs no prefill"
        )
    computed = prompt_length - cached_prefix_tokens
    kv_bytes_per_element = kv_bits_per_element / 8.0
    return StepTraffic(
        weight_bytes=_weight_bytes(config),
        kv_write_bytes=computed
        * _kv_elements_per_position(config)
        * kv_bytes_per_element,
        activation_bytes=computed * _activation_bytes_per_token(config),
    )


def prefill_chunk_traffic(
    config: ModelConfig,
    chunk_tokens: int,
    cached_context_tokens: int = 0,
    kv_bits_per_element: float = 16.0,
    include_weights: bool = True,
) -> StepTraffic:
    """Traffic of one prompt chunk inside a mixed serving step.

    Chunked prefill changes the prefill traffic shape in two ways.
    First, the chunk's queries attend over the *already cached*
    context — earlier chunks and any shared prefix — which, unlike the
    in-flight rows of a monolithic prefill, must be re-read from DRAM
    (that re-read is chunking's bandwidth cost, and it is exactly the
    KV stream the Anda format compresses).  Second, the weight stream
    is charged once per *model step*, not per chunk: a chunk riding
    along with decode tokens — or a later chunk in the same step —
    shares the step's weight stream, so pass ``include_weights=False``
    for it.  That sharing is the point of mixed steps: the prompt
    chunk amortizes the weight stream the decode batch already pays
    for.
    """
    if chunk_tokens < 1:
        raise HardwareError(f"chunk must hold >= 1 token, got {chunk_tokens}")
    if cached_context_tokens < 0:
        raise HardwareError(f"cached context must be >= 0, got {cached_context_tokens}")
    if kv_bits_per_element <= 0:
        raise HardwareError(
            f"kv bits per element must be positive, got {kv_bits_per_element}"
        )
    kv_bytes_per_element = kv_bits_per_element / 8.0
    per_position = _kv_elements_per_position(config)
    return StepTraffic(
        weight_bytes=_weight_bytes(config) if include_weights else 0.0,
        kv_read_bytes=cached_context_tokens * per_position * kv_bytes_per_element,
        kv_write_bytes=chunk_tokens * per_position * kv_bytes_per_element,
        activation_bytes=chunk_tokens * _activation_bytes_per_token(config),
    )


def prefix_cache_savings(
    config: ModelConfig,
    cached_prefix_tokens: int,
    kv_bits_per_element: float = 16.0,
) -> StepTraffic:
    """DRAM traffic a prefix-cache hit avoided for one prefill.

    The avoided streams are the cached positions' K/V writes and
    activation movement — the difference between a full
    :func:`prefill_traffic` charge and the suffix-only charge the
    paged engine actually pays.  (The weight stream is not avoided:
    the suffix forward still reads every weight once.)
    """
    if cached_prefix_tokens < 0:
        raise HardwareError(
            f"cached prefix tokens must be >= 0, got {cached_prefix_tokens}"
        )
    kv_bytes_per_element = kv_bits_per_element / 8.0
    return StepTraffic(
        kv_write_bytes=cached_prefix_tokens
        * _kv_elements_per_position(config)
        * kv_bytes_per_element,
        activation_bytes=cached_prefix_tokens
        * _activation_bytes_per_token(config),
    )


def batching_traffic_advantage(
    config: ModelConfig,
    batch_size: int,
    context_length: int,
    kv_bits_per_element: float = 16.0,
) -> float:
    """One-at-a-time bytes over batched bytes for one decode step.

    The headline serving ratio: how much DRAM traffic continuous
    batching saves at a given batch size and (uniform) context length.
    Grows toward ``batch_size`` when weights dominate (short contexts)
    and decays toward 1 as the per-request KV history takes over —
    which is exactly the regime where Anda KV compression extends the
    advantage.
    """
    if batch_size < 1:
        raise HardwareError(f"batch size must be >= 1, got {batch_size}")
    contexts = [context_length] * batch_size
    sequential = decode_step_traffic(
        config, contexts, kv_bits_per_element, batched=False
    )
    batched = decode_step_traffic(config, contexts, kv_bits_per_element, batched=True)
    return sequential.total_bytes / batched.total_bytes
