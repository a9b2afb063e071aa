"""Unit tests for the bit-true FP16 codec."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import fp16
from repro.errors import FormatError


class TestDecompose:
    def test_one(self):
        sign, exponent, significand = fp16.decompose(np.array([1.0]))
        assert sign[0] == 0
        assert exponent[0] == 0
        assert significand[0] == 1 << 10

    def test_negative_two(self):
        sign, exponent, significand = fp16.decompose(np.array([-2.0]))
        assert sign[0] == 1
        assert exponent[0] == 1
        assert significand[0] == 1 << 10

    def test_one_point_five(self):
        _, exponent, significand = fp16.decompose(np.array([1.5]))
        assert exponent[0] == 0
        assert significand[0] == (1 << 10) | (1 << 9)

    def test_zero_gets_sentinel_exponent(self):
        _, exponent, significand = fp16.decompose(np.array([0.0]))
        assert significand[0] == 0
        assert exponent[0] == fp16.ZERO_EXPONENT

    def test_subnormal(self):
        # Smallest positive FP16 subnormal is 2**-24.
        sign, exponent, significand = fp16.decompose(np.array([2.0**-24]))
        assert sign[0] == 0
        assert exponent[0] == fp16.SUBNORMAL_EXPONENT
        assert significand[0] == 1

    def test_significand_range(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000).astype(np.float32)
        _, _, significand = fp16.decompose(x)
        assert np.all(significand < (1 << 11))
        assert np.all(significand >= 0)

    def test_rejects_nan(self):
        with pytest.raises(FormatError):
            fp16.decompose(np.array([np.nan]))

    def test_rejects_inf(self):
        with pytest.raises(FormatError):
            fp16.decompose(np.array([np.inf]))

    def test_overflow_saturates_to_max_finite(self):
        sign, exponent, significand = fp16.decompose(np.array([1e9, -1e9]))
        value = fp16.compose(sign, exponent, significand)
        assert value[0] == pytest.approx(fp16.MAX_FINITE)
        assert value[1] == pytest.approx(-fp16.MAX_FINITE)


class TestRoundTrip:
    def test_exact_fp16_values(self):
        values = np.array([0.0, 1.0, -1.5, 0.25, 1024.0, -65504.0], dtype=np.float32)
        assert np.array_equal(fp16.round_trip(values), values)

    def test_matches_numpy_cast(self):
        rng = np.random.default_rng(7)
        x = (rng.normal(size=4096) * 10 ** rng.uniform(-6, 4, size=4096)).astype(
            np.float32
        )
        expected = x.astype(np.float16).astype(np.float32)
        assert np.array_equal(fp16.round_trip(x), expected)

    @given(
        st.lists(
            st.floats(
                min_value=-60000.0,
                max_value=60000.0,
                allow_nan=False,
                allow_infinity=False,
                width=32,
            ),
            min_size=1,
            max_size=64,
        )
    )
    def test_property_round_trip_equals_fp16_cast(self, values):
        x = np.array(values, dtype=np.float32)
        expected = x.astype(np.float16).astype(np.float32)
        assert np.array_equal(fp16.round_trip(x), expected)

    def test_preserves_shape(self):
        x = np.zeros((3, 5, 7), dtype=np.float32)
        assert fp16.round_trip(x).shape == (3, 5, 7)

    def test_all_positive_normal_bit_patterns(self):
        # Exhaustively reconstruct every finite positive FP16 pattern.
        bits = np.arange(0, 0x7C00, dtype=np.uint16)  # below Inf
        expected = bits.view(np.float16).astype(np.float32)
        sign, exp_field, mant_field = fp16.decompose_bits(bits)
        hidden = np.where(exp_field > 0, 1 << 10, 0)
        significand = hidden | mant_field
        exponent = np.where(exp_field > 0, exp_field - 15, -14)
        rebuilt = fp16.compose(sign, exponent, significand)
        assert np.array_equal(rebuilt, expected)


class TestStorage:
    def test_storage_bits(self):
        assert fp16.storage_bits(64) == 1024
        assert fp16.storage_bits(0) == 0


def _cast_round(values: np.ndarray) -> np.ndarray:
    """The float16-cast oracle of ``fp16.round_to_half``."""
    clipped = np.clip(values, -fp16.MAX_FINITE, fp16.MAX_FINITE)
    return clipped.astype(np.float16).astype(np.float32)


def _bits(values: np.ndarray) -> np.ndarray:
    assert values.dtype == np.float32
    return values.view(np.uint32)


#: Every finite half, as float16.
_FINITE_HALVES = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16)
_FINITE_HALVES = _FINITE_HALVES[np.isfinite(_FINITE_HALVES)]


def _tie_points() -> np.ndarray:
    """Every midpoint between adjacent non-negative halves and its float32
    neighbours (just below and just above), both signs."""
    positive = np.unique(np.abs(_FINITE_HALVES.astype(np.float32)))
    lower = positive[:-1].astype(np.float64)
    upper = positive[1:].astype(np.float64)
    midpoints = ((lower + upper) / 2).astype(np.float32)
    # Halves carry 11 significant bits, so every midpoint is exact in float32.
    assert np.array_equal(midpoints.astype(np.float64), (lower + upper) / 2)
    around = np.concatenate(
        [
            midpoints,
            np.nextafter(midpoints, np.float32(np.inf)),
            np.nextafter(midpoints, np.float32(0.0)),
        ]
    )
    return np.concatenate([around, -around])


class TestIntegerOpCasts:
    """``round_to_half`` / ``pack_half`` against NumPy's float16 casts."""

    def test_round_fixes_every_finite_half(self):
        halves = _FINITE_HALVES.astype(np.float32)
        assert np.array_equal(_bits(fp16.round_to_half(halves)), _bits(halves))

    def test_pack_matches_cast_on_every_finite_half(self):
        halves = _FINITE_HALVES.astype(np.float32)
        packed = fp16.pack_half(halves)
        assert packed.dtype == np.float16
        assert np.array_equal(packed.view(np.uint16), _FINITE_HALVES.view(np.uint16))

    def test_round_ties_and_their_neighbours(self):
        points = _tie_points()
        assert np.array_equal(
            _bits(fp16.round_to_half(points)), _bits(_cast_round(points))
        )

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(0)
        patterns = rng.integers(0, 1 << 32, size=1 << 20, dtype=np.uint64)
        values = patterns.astype(np.uint32).view(np.float32)
        values = values[np.isfinite(values)]
        rounded = fp16.round_to_half(values)
        assert np.array_equal(_bits(rounded), _bits(_cast_round(values)))
        assert np.array_equal(
            fp16.pack_half(rounded).view(np.uint16),
            rounded.astype(np.float16).view(np.uint16),
        )

    def test_signed_zeros_and_underflow_keep_their_sign(self):
        values = np.array([0.0, -0.0, 1e-9, -1e-9, 1e-45, -1e-45], dtype=np.float32)
        rounded = fp16.round_to_half(values)
        assert np.array_equal(_bits(rounded), _bits(_cast_round(values)))
        assert list(np.signbit(rounded)) == [False, True, False, True, False, True]
        assert np.array_equal(
            fp16.pack_half(rounded).view(np.uint16),
            rounded.astype(np.float16).view(np.uint16),
        )

    def test_saturates_at_max_finite(self):
        values = np.array(
            [65504.0, 65519.0, 65520.0, 1e5, 3e38, -65520.0, -1e5, -3e38],
            dtype=np.float32,
        )
        rounded = fp16.round_to_half(values)
        assert np.array_equal(_bits(rounded), _bits(_cast_round(values)))
        assert list(rounded) == [65504.0] * 5 + [-65504.0] * 3

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(FormatError):
            fp16.round_to_half(np.array([1.0, bad], dtype=np.float32))

    def test_shapes_and_strides(self):
        values = np.random.default_rng(1).normal(size=(3, 5, 8)).astype(np.float32)
        strided = values[:, ::2, 1:]
        rounded = fp16.round_to_half(strided)
        assert rounded.shape == strided.shape
        assert np.array_equal(_bits(rounded), _bits(_cast_round(strided)))
        assert np.array_equal(
            fp16.pack_half(rounded[:, :, ::3]).view(np.uint16),
            rounded[:, :, ::3].astype(np.float16).view(np.uint16),
        )
        assert fp16.round_to_half(np.zeros((0, 4), np.float32)).shape == (0, 4)
