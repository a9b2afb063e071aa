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


#: Memoized scratch rows for ragged channel counts, keyed by padded 2-D
#: shape.  Distinct channel counts can pad to the same shape, so both
#: the data region and the pad tail are rewritten every call (the tail
#: must be zero — it participates in the group max).  Bounded so
#: pathological shape churn cannot grow it without limit.
_PAD_SCRATCH: dict[tuple[int, int], np.ndarray] = {}
_PAD_SCRATCH_LIMIT = 16


def _fake_quantize_rows_vectorized(rows: np.ndarray, mantissa_bits: int) -> np.ndarray:
    """Fused truncate-mode codec over ``(rows, channels)`` float rows.

    Bitwise identical to :func:`_fake_quantize_reference` (pinned by the
    hypothesis parity suite) but collapses its ~35 numpy dispatches to
    ~15 by staying in the float domain:

    * after FP16 rounding, the shared exponent of a group is just
      ``frexp(max |v|) - 1``, clamped to the subnormal convention;
    * aligning and truncating an 11-bit significand to ``M`` kept bits
      is ``trunc(|v| * 2**(M - 1 - shared))`` — exact, because FP16
      values scaled by powers of two carry at most 11 significant bits
      and every intermediate stays inside float32's exact range;
    * dequantization is the inverse ``ldexp``; adding ``+0.0`` restores
      the canonical positive zero the reference's sign-canonicalization
      produces for truncated-to-zero negatives.

    The recurring decode shape — the stacked K+V single-position batch —
    hits the no-pad branch (head dims are multiples of the 64-wide
    group), so the group decomposition is a plain reshape; ragged rows
    reuse a memoized zero-padded scratch instead of ``np.pad``-ing a
    fresh array per call.
    """
    # float32 first, exactly like fp16.to_fp16_bits: float64 inputs
    # double-round through float32, and values overflowing float32
    # become non-finite and raise, matching the reference path bitwise.
    rows = np.asarray(rows, dtype=np.float32)
    if not np.all(np.isfinite(rows)):
        raise FormatError("cannot encode non-finite values as FP16")
    halves = np.clip(rows, -fp16.MAX_FINITE, fp16.MAX_FINITE).astype(np.float16)
    n_rows, cols = rows.shape
    pad = (-cols) % ANDA_GROUP_SIZE
    if pad:
        key = (n_rows, cols + pad)
        padded = _PAD_SCRATCH.get(key)
        if padded is None:
            if len(_PAD_SCRATCH) >= _PAD_SCRATCH_LIMIT:
                _PAD_SCRATCH.clear()
            padded = np.zeros(key, dtype=np.float32)
            _PAD_SCRATCH[key] = padded
        padded[:, :cols] = halves
        padded[:, cols:] = 0.0
        flat = padded
    else:
        flat = halves.astype(np.float32)
    grouped = flat.reshape(-1, ANDA_GROUP_SIZE)
    peak = np.abs(grouped).max(axis=1)
    # frexp exponent of the group max, shifted into the unbiased
    # integer-significand convention; a subnormal max clamps to the
    # fixed subnormal exponent (all-zero groups land there too, where
    # the value is irrelevant — every mantissa truncates to zero).
    shared = np.maximum(np.frexp(peak)[1] - 1, fp16.SUBNORMAL_EXPONENT)
    up = (mantissa_bits - 1) - shared
    quantized = np.trunc(np.ldexp(grouped, up[:, None]))
    out = np.ldexp(quantized, -up[:, None]) + np.float32(0.0)
    if pad:
        return np.ascontiguousarray(out.reshape(n_rows, cols + pad)[:, :cols])
    return out.reshape(n_rows, cols)


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
