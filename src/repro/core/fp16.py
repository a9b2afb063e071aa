"""Bit-true software codec for IEEE-754 binary16 (FP16).

The Anda format (and every block-floating-point variant in this library)
is defined in terms of the *fields* of FP16 numbers: sign, 5-bit biased
exponent and 10-bit stored mantissa with an implicit hidden bit.  This
module exposes those fields exactly, via integer views of ``numpy``
``float16`` arrays, so the format conversions in :mod:`repro.core.bfp`
and :mod:`repro.core.anda` are exact integer arithmetic rather than
float approximations.

Conventions
-----------
Throughout the library an FP16 value is written as::

    value = (-1)**sign * significand * 2**(exponent - 10)

where ``significand`` is the 11-bit integer including the hidden bit
(``1024 + mantissa_field`` for normal numbers, ``mantissa_field`` for
subnormals) and ``exponent`` is the *unbiased* exponent in this
"integer significand" convention (``exp_field - 15`` for normals,
``-14`` for subnormals).  This makes the shared-exponent alignment of
BFP conversion a pair of integer shifts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError

#: Number of explicitly stored mantissa bits in FP16.
MANTISSA_FIELD_BITS = 10

#: Number of significand bits including the hidden bit.
SIGNIFICAND_BITS = 11

#: Exponent bias of FP16.
EXPONENT_BIAS = 15

#: Exponent-field value reserved for Inf/NaN.
EXPONENT_FIELD_SPECIAL = 31

#: Largest finite FP16 magnitude.
MAX_FINITE = 65504.0

#: Unbiased exponent (integer-significand convention) of subnormals.
SUBNORMAL_EXPONENT = 1 - EXPONENT_BIAS

#: Sentinel unbiased exponent assigned to zero elements so they never
#: win the shared-exponent maximum of a group.
ZERO_EXPONENT = -128


def to_fp16_bits(values: np.ndarray) -> np.ndarray:
    """Round an array to FP16 and return the raw ``uint16`` bit patterns.

    Values beyond the finite FP16 range are clamped to ``±MAX_FINITE``
    (activations in a trained network occasionally overflow FP16 when
    simulated in FP32; real inference kernels saturate the same way).

    Raises:
        FormatError: if ``values`` contains NaN or infinity.
    """
    arr = np.asarray(values, dtype=np.float32)
    if not np.all(np.isfinite(arr)):
        raise FormatError("cannot encode non-finite values as FP16")
    clipped = np.clip(arr, -MAX_FINITE, MAX_FINITE)
    return clipped.astype(np.float16).view(np.uint16)


# -- float32 -> float16 without the cast ---------------------------------------
#
# NumPy's float16 casts run one element at a time (about 6 ns per element
# float32 -> float16 and 3 ns back on a 2-core x86-64 host), while a
# float32 or uint32 pass costs about 0.25 ns.  The helpers below reach the
# same bits through float32 / uint32 passes and one table gather; the
# tests pin them bitwise against the casts over every finite half and
# every tie.

#: Clears the float32 sign bit.  The resulting uint32 magnitude bits are
#: ordered like the magnitudes, so their max is the peak magnitude and
#: ``>= EXPONENT_MASK`` flags a NaN or infinity.
MAGNITUDE_MASK = np.uint32(0x7FFFFFFF)
#: The float32 exponent field; as a bit pattern, also +inf.
EXPONENT_MASK = np.uint32(0x7F800000)
#: float32 bit patterns of ``MAX_FINITE`` and of ``2**-14`` (the smallest
#: normal half).
MAX_FINITE_BITS = np.uint32(0x477FE000)
MIN_NORMAL_BITS = np.uint32(0x38800000)
#: Added to an exponent field ``e``: the float32 ``1.5 * 2**(e + 13)``.
_ROUNDER_BITS = np.uint32((13 << 23) | (1 << 22))


def round_magnitude_bits(
    values: np.ndarray, magnitude: np.ndarray, top: np.uint32
) -> np.ndarray:
    """Round float32 ``values`` to FP16 precision, given their magnitude bits.

    The core of :func:`round_to_half` for callers that already hold
    ``magnitude = values.view(np.uint32) & MAGNITUDE_MASK`` and ``top``,
    the largest of them (or of any superset); ``magnitude`` is
    overwritten.  Returns a new float32 array equal to
    :func:`round_to_half` except that a result of zero is always
    ``+0.0``.

    Each value is rounded by adding and subtracting ``1.5 * 2**(e + 13)``
    for its exponent ``e`` clamped to ``>= -14``: the sum lands in a
    binade whose float32 ulp is the half's ulp at ``e`` (``2**-24`` below
    ``2**-14``, the subnormal spacing), so float32's own ties-to-even
    addition does the rounding, for either sign.

    Raises:
        FormatError: if ``top`` flags a NaN or infinity.
    """
    if top >= EXPONENT_MASK:
        raise FormatError("cannot encode non-finite values as FP16")
    if top > MAX_FINITE_BITS:
        values = np.clip(values, -MAX_FINITE, MAX_FINITE)
        np.minimum(magnitude, MAX_FINITE_BITS, out=magnitude)
    rounder = np.bitwise_and(magnitude, EXPONENT_MASK, out=magnitude)
    np.maximum(rounder, MIN_NORMAL_BITS, out=rounder)
    rounder += _ROUNDER_BITS
    shift = rounder.view(np.float32)
    rounded = values + shift
    rounded -= shift
    return rounded


def round_to_half(values: np.ndarray) -> np.ndarray:
    """Round to the nearest FP16 value (ties to even), returned as float32.

    Bitwise equal to ``np.clip(values, -MAX_FINITE, MAX_FINITE)
    .astype(np.float16).astype(np.float32)`` — saturating like
    :func:`to_fp16_bits` — in float32 / uint32 passes instead of the
    element-at-a-time float16 casts.

    Raises:
        FormatError: if ``values`` contains NaN or infinity.
    """
    values = np.asarray(values, dtype=np.float32)
    magnitude = values.view(np.uint32) & MAGNITUDE_MASK
    rounded = round_magnitude_bits(values, magnitude, magnitude.max(initial=0))
    # Restores the sign of values that rounded to zero.
    return np.copysign(rounded, values, out=rounded)


def _half_bits_table() -> np.ndarray:
    """uint16 FP16 bits indexed by the top 19 bits of a float32 (sign,
    exponent, 10 mantissa bits) — all a value exact in FP16 has.

    Filled only at the 63 488 finite halves (from one float16 cast of
    every pattern); the rest stay zero, and ``np.zeros`` leaves their
    pages untouched, so the table costs about 170 KiB of memory.
    """
    patterns = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
    halves = patterns.view(np.float16)
    finite = np.isfinite(halves)
    widened = halves[finite].astype(np.float32).view(np.uint32)
    table = np.zeros(1 << 19, dtype=np.uint16)
    table[widened >> 13] = patterns[finite]
    table.setflags(write=False)
    return table


#: Read-only lookup table behind :func:`pack_half`.
_HALF_BITS = _half_bits_table()


def pack_half(values: np.ndarray) -> np.ndarray:
    """Narrow float32 values that are exact in FP16 to float16, by lookup.

    Bitwise equal to ``values.astype(np.float16)`` when every value is a
    finite FP16 value (the output of :func:`round_to_half` or of a KV
    codec's ``compress``); other inputs are not checked and give
    unspecified bits.  Such a value's low 13 float32 bits are zero, so
    its top 19 bits — sign, exponent and the 10 mantissa bits a half
    keeps — index its FP16 bit pattern: one shift and one gather.
    """
    values = np.asarray(values, dtype=np.float32)
    return _HALF_BITS.take(values.view(np.uint32) >> 13).view(np.float16)


def decompose_bits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split raw FP16 bit patterns into (sign, exp_field, mant_field).

    Returns:
        Tuple of integer arrays: sign in {0, 1}, biased exponent field in
        [0, 31], and the 10-bit stored mantissa field.
    """
    bits = np.asarray(bits, dtype=np.uint16)
    sign = ((bits >> 15) & 0x1).astype(np.int64)
    exp_field = ((bits >> MANTISSA_FIELD_BITS) & 0x1F).astype(np.int64)
    mant_field = (bits & 0x3FF).astype(np.int64)
    return sign, exp_field, mant_field


def decompose(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decompose arbitrary finite values into FP16 (sign, exponent, significand).

    The returned exponent follows the integer-significand convention of
    this module (see module docstring); the significand includes the
    hidden bit and spans [0, 2**11).  Zero elements get significand 0 and
    the :data:`ZERO_EXPONENT` sentinel.
    """
    sign, exp_field, mant_field = decompose_bits(to_fp16_bits(values))
    if np.any(exp_field == EXPONENT_FIELD_SPECIAL):
        raise FormatError("Inf/NaN bit pattern encountered in FP16 decompose")
    hidden = np.where(exp_field > 0, 1 << MANTISSA_FIELD_BITS, 0)
    significand = hidden | mant_field
    exponent = np.where(exp_field > 0, exp_field - EXPONENT_BIAS, SUBNORMAL_EXPONENT)
    exponent = np.where(significand == 0, ZERO_EXPONENT, exponent)
    return sign, exponent, significand


def compose(sign: np.ndarray, exponent: np.ndarray, significand: np.ndarray) -> np.ndarray:
    """Rebuild float32 values from (sign, exponent, significand) fields.

    Inverse of :func:`decompose` for all finite FP16 values::

        value = (-1)**sign * significand * 2**(exponent - 10)
    """
    sign = np.asarray(sign, dtype=np.int64)
    exponent = np.asarray(exponent, dtype=np.int64)
    significand = np.asarray(significand, dtype=np.int64)
    magnitude = np.ldexp(
        significand.astype(np.float64), exponent - MANTISSA_FIELD_BITS
    )
    return np.where(sign == 1, -magnitude, magnitude).astype(np.float32)


def round_trip(values: np.ndarray) -> np.ndarray:
    """Round values to FP16 precision and return them as float32.

    Equivalent to ``values.astype(float16).astype(float32)`` with the
    library's saturation semantics; used as the FP16 reference baseline
    in accuracy experiments.
    """
    return compose(*decompose(values))


def storage_bits(num_elements: int) -> int:
    """On-chip storage cost, in bits, of ``num_elements`` FP16 values."""
    return 16 * int(num_elements)
