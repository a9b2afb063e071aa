"""Microbenchmarks: throughput of the format codecs themselves.

Not a paper figure — these time the library's own hot paths (encode,
decode, fake-quantize, Anda GeMM) so regressions in the software
implementation are visible.  Multiple rounds, real statistics.
"""

import numpy as np
import pytest

from repro.core import fp16
from repro.core.anda import AndaTensor, fake_quantize
from repro.core.bitserial import anda_matvec
from repro.core.compressor import BitPlaneCompressor
from repro.llm.kv_quant import AndaKVCache


@pytest.fixture(scope="module")
def activations():
    rng = np.random.default_rng(0)
    return rng.normal(size=(64, 1024)).astype(np.float32)


def test_encode_throughput(benchmark, activations):
    result = benchmark(AndaTensor.from_float, activations, 6)
    assert result.mantissa_bits == 6


def test_decode_throughput(benchmark, activations):
    tensor = AndaTensor.from_float(activations, 6)
    decoded = benchmark(tensor.decode)
    assert decoded.shape == activations.shape


def test_fake_quantize_throughput(benchmark, activations):
    out = benchmark(fake_quantize, activations, 6)
    assert out.shape == activations.shape


def test_bpc_throughput(benchmark, activations):
    compressor = BitPlaneCompressor()
    tensor, stats = benchmark(compressor.compress, activations, 6)
    assert stats.groups == 64 * 16


def test_anda_matvec_throughput(benchmark, activations):
    rng = np.random.default_rng(1)
    weights = rng.integers(-8, 8, size=(1024, 64))
    tensor = AndaTensor.from_float(activations, 6)
    out = benchmark(anda_matvec, tensor, weights)
    assert out.shape == (64, 64)


# -- the KV write path: one 128-token chunk of one layer, 4 heads x 64 ----


@pytest.fixture(scope="module")
def kv_chunk():
    rng = np.random.default_rng(2)
    return rng.standard_normal((1, 4, 128, 64)).astype(np.float32)


def test_kv_chunk_compress_throughput(benchmark, kv_chunk):
    out = benchmark(AndaKVCache(8).compress, kv_chunk)
    assert out.dtype == np.float32 and out.shape == kv_chunk.shape


def test_kv_chunk_round_to_half_throughput(benchmark, kv_chunk):
    out = benchmark(fp16.round_to_half, kv_chunk)
    assert out.dtype == np.float32 and out.shape == kv_chunk.shape


def test_kv_chunk_pack_half_throughput(benchmark, kv_chunk):
    exact = fp16.round_to_half(kv_chunk)
    out = benchmark(fp16.pack_half, exact)
    assert np.array_equal(out.view(np.uint16), exact.astype(np.float16).view(np.uint16))
