"""The Anda activation data format (Sec. III of the paper).

An :class:`AndaTensor` is a variable-length grouped BFP tensor:

* groups of 64 values share one exponent (the paper's chosen group
  size — the sweet spot of Fig. 5 and the hardware word width),
* each element stores a sign bit and an ``M``-bit mantissa, where ``M``
  is chosen *per tensor type* by the adaptive precision search,
* storage is bit-plane based (:mod:`repro.core.bitplane`), so an
  ``M``-bit tensor occupies ``1 + M`` words per group plus one shared
  exponent — memory cost scales linearly with the chosen precision.

Unlike FIGNA-style dynamic conversion, the Anda scheme keeps activations
*in this format in memory* (Fig. 8d): encode once at producer side (the
runtime bit-plane compressor), decode never — the bit-serial PE consumes
planes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import fp16
from repro.core.bfp import BfpConfig, BfpTensor, quantize
from repro.core.bitplane import WORD_BITS, BitPlaneStore
from repro.core.groups import GroupLayout, from_groups
from repro.errors import FormatError

#: The Anda group size: fixed at the 64-element hardware word width.
ANDA_GROUP_SIZE = WORD_BITS


@dataclass
class AndaTensor:
    """A tensor held in the Anda variable-length grouped format.

    Attributes:
        store: bit-plane packed payload (signs, planes, exponents).
        layout: grouping metadata (original shape, padding).
        mantissa_bits: the tensor-wide mantissa length ``M``.
        rounding: rounding mode used during encode.
    """

    store: BitPlaneStore
    layout: GroupLayout
    mantissa_bits: int
    rounding: str = "truncate"

    # -- construction -------------------------------------------------

    @classmethod
    def from_float(
        cls,
        values: np.ndarray,
        mantissa_bits: int,
        rounding: str = "truncate",
    ) -> "AndaTensor":
        """Encode a finite float tensor into the Anda format.

        The tensor is grouped along its last axis in runs of 64
        channels.  Raises :class:`~repro.errors.FormatError` for
        non-finite inputs or out-of-range mantissa lengths.
        """
        bfp = quantize(
            np.asarray(values),
            BfpConfig(
                mantissa_bits=mantissa_bits,
                group_size=ANDA_GROUP_SIZE,
                rounding=rounding,
            ),
        )
        return cls.from_bfp(bfp)

    @classmethod
    def from_bfp(cls, bfp: BfpTensor) -> "AndaTensor":
        """Re-package an existing 64-element-group BFP tensor bit-plane-wise."""
        if bfp.layout.group_size != ANDA_GROUP_SIZE:
            raise FormatError(
                f"Anda tensors use group size {ANDA_GROUP_SIZE}, got "
                f"{bfp.layout.group_size}"
            )
        store = BitPlaneStore.from_fields(
            bfp.sign, bfp.mantissa, bfp.shared_exponent, bfp.config.mantissa_bits
        )
        return cls(
            store=store,
            layout=bfp.layout,
            mantissa_bits=bfp.config.mantissa_bits,
            rounding=bfp.config.rounding,
        )

    # -- views ---------------------------------------------------------

    def to_bfp(self) -> BfpTensor:
        """Unpack back to structure-of-arrays BFP fields."""
        sign, mantissa, exponents = self.store.unpack()
        return BfpTensor(
            sign=sign,
            mantissa=mantissa,
            shared_exponent=exponents,
            config=BfpConfig(
                mantissa_bits=self.mantissa_bits,
                group_size=ANDA_GROUP_SIZE,
                rounding=self.rounding,
            ),
            layout=self.layout,
        )

    def decode(self) -> np.ndarray:
        """Reconstruct the float32 tensor the format represents."""
        return self.to_bfp().dequantize()

    # -- properties ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.layout.shape

    @property
    def n_groups(self) -> int:
        return self.layout.n_groups

    def storage_bits(self) -> int:
        """Memory footprint in bits, bit-plane layout included."""
        return self.store.storage_bits()

    def compression_ratio(self) -> float:
        """FP16 footprint divided by Anda footprint for this tensor.

        Padding elements are charged to Anda (the hardware stores whole
        groups), making the ratio slightly conservative for ragged rows.
        """
        n_logical = int(np.prod(self.layout.shape))
        return fp16.storage_bits(n_logical) / self.storage_bits()

    def signed_mantissa(self) -> np.ndarray:
        """Signed integer mantissas ``(n_groups, 64)`` for dot-product use."""
        sign, mantissa, _ = self.store.unpack()
        return np.where(sign == 1, -mantissa, mantissa)

    def group_values(self) -> np.ndarray:
        """Decoded float32 values kept in grouped ``(n_groups, 64)`` shape."""
        bfp = self.to_bfp()
        scale_exp = bfp.shared_exponent + 1 - self.mantissa_bits
        magnitude = np.ldexp(bfp.mantissa.astype(np.float64), scale_exp[:, None])
        return np.where(bfp.sign == 1, -magnitude, magnitude).astype(np.float32)


def _fake_quantize_reference(
    values: np.ndarray, mantissa_bits: int, rounding: str
) -> np.ndarray:
    """The field-decomposition quantize-dequantize pipeline.

    Numerically identical to ``AndaTensor.from_float(...).decode()``
    but skips the bit-plane packing.  This is the oracle the vectorized
    path below is pinned against — exact integer arithmetic over FP16
    fields, one numpy op per conversion stage.
    """
    config = BfpConfig(
        mantissa_bits=mantissa_bits, group_size=ANDA_GROUP_SIZE, rounding=rounding
    )
    bfp = quantize(np.asarray(values), config)
    scale_exp = bfp.shared_exponent + 1 - mantissa_bits
    magnitude = np.ldexp(bfp.mantissa.astype(np.float64), scale_exp[:, None])
    signed = np.where(bfp.sign == 1, -magnitude, magnitude)
    return from_groups(signed, bfp.layout).astype(np.float32)


def _fake_quantize_rows_vectorized(rows: np.ndarray, mantissa_bits: int) -> np.ndarray:
    """Fused truncate-mode codec over ``(rows, channels)`` float rows.

    Bitwise identical to :func:`_fake_quantize_reference` (pinned by the
    hypothesis parity suite) but stays in float32 / uint32 passes — no
    float16 cast, which NumPy runs one element at a time:

    * the group peak is the uint32 max of the raw magnitude bits
      (:data:`repro.core.fp16.MAGNITUDE_MASK`); FP16 rounding is
      monotone, so it rounds to the peak of the rounded group, and a
      peak at or above the infinity pattern flags a non-finite input;
    * every value is rounded to FP16 precision, saturating, by
      :func:`repro.core.fp16.round_magnitude_bits`;
    * the shared exponent is the rounded peak's float32 exponent field,
      clamped to the subnormal convention (all-zero groups land there
      too, where the value is irrelevant — every mantissa truncates to
      zero); rounding an 11-bit significand carries into the exponent
      exactly when the dropped float32 bits are at least ``0x7FF000``,
      so adding ``0x1000`` before masking rounds the exponent;
    * aligning and truncating an 11-bit significand to ``M`` kept bits
      is ``trunc(v * 2**(M - 1 - shared))``, and dequantizing multiplies
      back by ``2**(shared + 1 - M)`` — per-group powers of two built as
      float32 bit patterns, so both products are exact; adding ``+0.0``
      restores the canonical positive zero the reference produces for
      truncated-to-zero negatives.

    Ragged rows are zero-padded into a fresh per-call array (the pad
    takes part in the group max, so it must be zero).
    """
    # float32 first, exactly like fp16.to_fp16_bits: float64 inputs
    # double-round through float32, and values overflowing float32
    # become non-finite and raise, matching the reference path bitwise.
    rows = np.asarray(rows, dtype=np.float32)
    n_rows, cols = rows.shape
    pad = (-cols) % ANDA_GROUP_SIZE
    if pad:
        padded = np.zeros((n_rows, cols + pad), dtype=np.float32)
        padded[:, :cols] = rows
        rows = padded
    magnitude = rows.view(np.uint32) & fp16.MAGNITUDE_MASK
    peak = magnitude.reshape(-1, ANDA_GROUP_SIZE).max(axis=1)
    top = peak.max(initial=0)
    grouped = fp16.round_magnitude_bits(rows, magnitude, top).reshape(
        -1, ANDA_GROUP_SIZE
    )
    if top > fp16.MAX_FINITE_BITS:
        np.minimum(peak, fp16.MAX_FINITE_BITS, out=peak)
    # The rounded peak's float32 exponent field E (in place, as bits):
    # shared = E - 127, so 2**(M - 1 - shared) has biased exponent
    # M + 253 - E and its inverse E + 1 - M.
    peak += np.uint32(0x1000)
    peak &= fp16.EXPONENT_MASK
    np.maximum(peak, fp16.MIN_NORMAL_BITS, out=peak)
    scale = np.uint32((mantissa_bits + 253) << 23) - peak
    unscale = peak - np.uint32((mantissa_bits - 1) << 23)
    grouped *= scale.view(np.float32)[:, None]
    np.trunc(grouped, out=grouped)
    grouped *= unscale.view(np.float32)[:, None]
    grouped += np.float32(0.0)
    out = grouped.reshape(n_rows, cols + pad)
    if pad:
        return np.ascontiguousarray(out[:, :cols])
    return out


def fake_quantize(
    values: np.ndarray, mantissa_bits: int, rounding: str = "truncate"
) -> np.ndarray:
    """Quantize-dequantize a tensor through the Anda format.

    Fast path used by the LLM activation hooks and the serving KV
    codec: numerically identical to
    ``AndaTensor.from_float(...).decode()`` but skips the bit-plane
    packing, and routes truncate-mode conversions (the hardware default
    and the serving codec's mode) through the fused vectorized pipeline
    (validated bitwise-equivalent by tests).
    """
    values = np.asarray(values)
    if rounding == "truncate" and values.ndim >= 1 and values.shape[-1] > 0:
        # Validate config eagerly so bad mantissa lengths raise the
        # same FormatError the reference path raises.
        BfpConfig(
            mantissa_bits=mantissa_bits,
            group_size=ANDA_GROUP_SIZE,
            rounding=rounding,
        )
        flat = values.reshape(-1, values.shape[-1])
        return _fake_quantize_rows_vectorized(flat, mantissa_bits).reshape(
            values.shape
        )
    return _fake_quantize_reference(values, mantissa_bits, rounding)


def fake_quantize_batch(
    values: np.ndarray, mantissa_bits: int, rounding: str = "truncate"
) -> np.ndarray:
    """Batch-axis Anda fake quantization for ``(..., channels)`` stacks.

    The serving engine's batched decode path pushes ``(batch, time,
    channels)`` activation stacks through the format in one call.
    Grouping runs along the last axis only (groups never span rows —
    see :func:`repro.core.groups.to_groups`), so the result is
    row-for-row identical to fake-quantizing each leading-axis slice
    independently; a property the engine's token-parity guarantee
    relies on and the tests pin down.
    """
    values = np.asarray(values)
    flat = values.reshape(-1, values.shape[-1])
    return fake_quantize(flat, mantissa_bits, rounding=rounding).reshape(values.shape)


def fake_quantize_batch_reference(
    values: np.ndarray, mantissa_bits: int, rounding: str = "truncate"
) -> np.ndarray:
    """Pre-vectorization :func:`fake_quantize_batch`, kept as the oracle.

    The parity tests compare the vectorized codec against this bitwise —
    including the ``.astype(float16)`` stored bytes the KV caches
    persist, which are the serving stack's parity bedrock.
    """
    values = np.asarray(values)
    flat = values.reshape(-1, values.shape[-1])
    return _fake_quantize_reference(flat, mantissa_bits, rounding).reshape(
        values.shape
    )
