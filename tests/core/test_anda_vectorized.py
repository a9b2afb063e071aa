"""Bitwise parity of the vectorized Anda codec against the reference.

The serving KV caches persist ``compress(x).astype(float16)`` bytes;
those stored bytes are the parity bedrock of every serving guarantee
(paged == unpaged, batched == solo, chunked == monolithic).  The
vectorized hot path therefore must match the pre-vectorization
reference *bitwise* — including the float16 conversion — not merely to
within rounding.  These tests pin that down across group-boundary
shapes, mantissa widths, denormals, zeros and mixed magnitudes.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anda import (
    ANDA_GROUP_SIZE,
    fake_quantize,
    fake_quantize_batch,
    fake_quantize_batch_reference,
)
from repro.errors import FormatError


def random_rows(seed, shape, scale_spread=2.0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=shape)
    scales = 10 ** (rng.normal(size=shape) * scale_spread / 4)
    return (base * scales).astype(np.float32)


def assert_bitwise(vectorized: np.ndarray, reference: np.ndarray) -> None:
    """Equality at the stored-byte level, not just value level."""
    assert vectorized.shape == reference.shape
    assert (
        vectorized.astype(np.float16).tobytes()
        == reference.astype(np.float16).tobytes()
    )
    # And in the float32 working domain, as bits: value equality would
    # call -0.0 and +0.0 equal.
    assert vectorized.dtype == reference.dtype == np.float32
    assert np.array_equal(vectorized.view(np.uint32), reference.view(np.uint32))


# Channel counts straddling the 64-wide group boundary, including
# ragged tails the vectorized path zero-pads.
BOUNDARY_CHANNELS = [1, 2, 63, 64, 65, 127, 128, 129, 192]


class TestStoredBytesParity:
    @pytest.mark.parametrize("channels", BOUNDARY_CHANNELS)
    def test_group_boundary_shapes(self, channels):
        x = random_rows(channels, (16, channels))
        assert_bitwise(
            fake_quantize_batch(x, 6), fake_quantize_batch_reference(x, 6)
        )

    @pytest.mark.parametrize("mantissa", [1, 2, 4, 7, 8, 11, 15, 16])
    def test_all_mantissa_widths(self, mantissa):
        x = random_rows(mantissa, (8, 96))
        assert_bitwise(
            fake_quantize_batch(x, mantissa),
            fake_quantize_batch_reference(x, mantissa),
        )

    def test_decode_shape_stacked_kv(self):
        # The serving decode codec call: stacked K+V of a decode batch,
        # one position per request — (2 * batch, heads, 1, head_dim)
        # flattened to rows of head_dim by the cache's compress().
        x = random_rows(0, (32, 4, 1, 16))
        assert_bitwise(
            fake_quantize_batch(x, 6), fake_quantize_batch_reference(x, 6)
        )

    def test_zeros_and_negative_zero(self):
        x = np.zeros((4, ANDA_GROUP_SIZE), dtype=np.float32)
        x[1] = -0.0
        out = fake_quantize_batch(x, 4)
        ref = fake_quantize_batch_reference(x, 4)
        assert_bitwise(out, ref)

    def test_subnormal_groups(self):
        # Groups whose peak sits in the fp16 subnormal range exercise
        # the shared-exponent clamp.
        x = random_rows(3, (8, 128)) * np.float32(1e-7)
        assert_bitwise(
            fake_quantize_batch(x, 5), fake_quantize_batch_reference(x, 5)
        )

    def test_float64_input_double_rounds_like_reference(self):
        x = random_rows(4, (4, 64)).astype(np.float64) * 1.0000001
        assert_bitwise(
            fake_quantize_batch(x, 6), fake_quantize_batch_reference(x, 6)
        )

    def test_large_magnitudes_clip_to_fp16(self):
        x = random_rows(5, (4, 64)) * np.float32(1e6)
        assert_bitwise(
            fake_quantize_batch(x, 8), fake_quantize_batch_reference(x, 8)
        )

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 12),
        channels=st.sampled_from(BOUNDARY_CHANNELS),
        mantissa=st.integers(1, 16),
    )
    def test_property_bitwise_parity(self, seed, rows, channels, mantissa):
        x = random_rows(seed, (rows, channels), scale_spread=3.0)
        assert_bitwise(
            fake_quantize_batch(x, mantissa),
            fake_quantize_batch_reference(x, mantissa),
        )

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), mantissa=st.integers(1, 16))
    def test_batched_equals_per_row(self, seed, mantissa):
        # Row-locality: compressing a stack is bitwise identical to
        # compressing each row alone — what lets the engine compress a
        # whole decode batch (and stacked K+V) in one call.
        x = random_rows(seed, (6, 96))
        stacked = fake_quantize_batch(x, mantissa)
        solo = np.stack(
            [fake_quantize(x[i], mantissa) for i in range(x.shape[0])]
        )
        assert_bitwise(stacked, solo)


class TestFallbacksAndErrors:
    def test_nearest_rounding_uses_reference(self):
        x = random_rows(6, (4, 64))
        out = fake_quantize_batch(x, 6, rounding="nearest")
        ref = fake_quantize_batch_reference(x, 6, rounding="nearest")
        assert np.array_equal(out, ref)

    def test_bad_mantissa_raises_format_error(self):
        x = random_rows(7, (2, 64))
        with pytest.raises(FormatError):
            fake_quantize_batch(x, 0)
        with pytest.raises(FormatError):
            fake_quantize_batch(x, 17)

    def test_nonfinite_raises_format_error(self):
        x = random_rows(8, (2, 64))
        x[0, 3] = np.inf
        with pytest.raises(FormatError):
            fake_quantize_batch(x, 6)


class TestThreadSafety:
    def test_concurrent_ragged_encodes_match_reference(self):
        # Ragged rows are zero-padded before grouping.  A pad buffer
        # shared across calls (a process-global scratch) lets one
        # thread's rows leak into another's encode between numpy calls;
        # the pad must be per call.
        threads, encodes, mantissa = 8, 300, 6
        inputs = [random_rows(seed, (4, 100)) for seed in range(threads)]
        expected = [fake_quantize_batch_reference(x, mantissa) for x in inputs]
        mismatches = [0] * threads

        def worker(index: int) -> None:
            want = expected[index].view(np.uint32)
            for _ in range(encodes):
                got = fake_quantize_batch(inputs[index], mantissa)
                if not np.array_equal(got.view(np.uint32), want):
                    mismatches[index] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=worker, args=(index,))
                for index in range(threads)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert mismatches == [0] * threads
