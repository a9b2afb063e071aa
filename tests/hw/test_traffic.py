"""Tests for the serving-step DRAM traffic accounting."""

import pytest

from repro.errors import HardwareError
from repro.hw.traffic import (
    StepTraffic,
    batching_traffic_advantage,
    decode_step_traffic,
    prefill_chunk_traffic,
    prefill_traffic,
    prefix_cache_savings,
)
from repro.llm.config import get_config
from repro.llm.kv_quant import KVFormat


@pytest.fixture(scope="module")
def config():
    return get_config("opt-1.3b")


class TestDecodeStepTraffic:
    def test_batched_weights_are_amortized(self, config):
        contexts = [128] * 8
        batched = decode_step_traffic(config, contexts, batched=True)
        sequential = decode_step_traffic(config, contexts, batched=False)
        assert sequential.weight_bytes == 8 * batched.weight_bytes
        assert sequential.kv_read_bytes == batched.kv_read_bytes
        assert sequential.total_bytes > batched.total_bytes

    def test_kv_read_scales_with_context(self, config):
        short = decode_step_traffic(config, [16])
        long = decode_step_traffic(config, [256])
        assert long.kv_read_bytes == 16 * short.kv_read_bytes
        assert long.kv_write_bytes == short.kv_write_bytes

    def test_anda_kv_bits_shrink_kv_streams(self, config):
        bits = KVFormat.anda(6).bits_per_element()
        fp16 = decode_step_traffic(config, [64, 64])
        anda = decode_step_traffic(config, [64, 64], kv_bits_per_element=bits)
        assert anda.kv_read_bytes == pytest.approx(fp16.kv_read_bytes * bits / 16.0)
        assert anda.weight_bytes == fp16.weight_bytes

    def test_empty_batch_moves_nothing(self, config):
        assert decode_step_traffic(config, []).total_bytes == 0.0

    def test_invalid_inputs_rejected(self, config):
        with pytest.raises(HardwareError):
            decode_step_traffic(config, [4], kv_bits_per_element=0.0)
        with pytest.raises(HardwareError):
            decode_step_traffic(config, [-1])


class TestPrefillTraffic:
    def test_weights_stream_once_per_prompt(self, config):
        short = prefill_traffic(config, 8)
        long = prefill_traffic(config, 64)
        assert short.weight_bytes == long.weight_bytes
        assert long.kv_write_bytes == 8 * short.kv_write_bytes
        assert short.kv_read_bytes == 0.0

    def test_empty_prompt_rejected(self, config):
        with pytest.raises(HardwareError):
            prefill_traffic(config, 0)

    def test_cached_prefix_charges_suffix_only(self, config):
        full = prefill_traffic(config, 64)
        hit = prefill_traffic(config, 64, cached_prefix_tokens=48)
        suffix = prefill_traffic(config, 16)
        assert hit.kv_write_bytes == suffix.kv_write_bytes
        assert hit.activation_bytes == suffix.activation_bytes
        # Weights still stream once: the suffix forward reads them all.
        assert hit.weight_bytes == full.weight_bytes

    def test_cached_prefix_bounds_enforced(self, config):
        with pytest.raises(HardwareError):
            prefill_traffic(config, 16, cached_prefix_tokens=16)
        with pytest.raises(HardwareError):
            prefill_traffic(config, 16, cached_prefix_tokens=-1)


class TestPrefillChunkTraffic:
    def test_first_chunk_matches_monolithic_prefill(self, config):
        # A whole-prompt chunk with no cached context is exactly a
        # monolithic prefill charge.
        chunk = prefill_chunk_traffic(config, 64)
        mono = prefill_traffic(config, 64)
        assert chunk.total_bytes == pytest.approx(mono.total_bytes)
        assert chunk.kv_read_bytes == 0.0

    def test_later_chunks_reread_cached_context(self, config):
        # Chunking's bandwidth cost: chunk N re-reads the N-1 earlier
        # chunks' KV from DRAM, scaling with how deep it starts.
        shallow = prefill_chunk_traffic(config, 16, cached_context_tokens=16)
        deep = prefill_chunk_traffic(config, 16, cached_context_tokens=48)
        assert deep.kv_read_bytes == 3 * shallow.kv_read_bytes
        assert deep.kv_write_bytes == shallow.kv_write_bytes

    def test_riding_chunk_shares_the_weight_stream(self, config):
        # A chunk in a mixed step amortizes the decode batch's weight
        # stream instead of paying its own.
        alone = prefill_chunk_traffic(config, 16)
        riding = prefill_chunk_traffic(config, 16, include_weights=False)
        assert riding.weight_bytes == 0.0
        assert alone.weight_bytes > 0.0
        assert alone.kv_write_bytes == riding.kv_write_bytes

    def test_anda_kv_bits_shrink_the_context_reread(self, config):
        bits = KVFormat.anda(6).bits_per_element()
        fp16 = prefill_chunk_traffic(config, 16, cached_context_tokens=64)
        anda = prefill_chunk_traffic(
            config, 16, cached_context_tokens=64, kv_bits_per_element=bits
        )
        assert anda.kv_read_bytes == pytest.approx(fp16.kv_read_bytes * bits / 16.0)
        assert anda.weight_bytes == fp16.weight_bytes

    def test_invalid_inputs_rejected(self, config):
        with pytest.raises(HardwareError):
            prefill_chunk_traffic(config, 0)
        with pytest.raises(HardwareError):
            prefill_chunk_traffic(config, 8, cached_context_tokens=-1)
        with pytest.raises(HardwareError):
            prefill_chunk_traffic(config, 8, kv_bits_per_element=0.0)


class TestPrefixCacheSavings:
    def test_savings_close_the_full_vs_suffix_gap(self, config):
        full = prefill_traffic(config, 64)
        hit = prefill_traffic(config, 64, cached_prefix_tokens=48)
        saved = prefix_cache_savings(config, 48)
        assert saved.total_bytes == pytest.approx(full.total_bytes - hit.total_bytes)
        assert saved.weight_bytes == 0.0

    def test_savings_scale_with_kv_bits(self, config):
        bits = KVFormat.anda(6).bits_per_element()
        fp16 = prefix_cache_savings(config, 32)
        anda = prefix_cache_savings(config, 32, kv_bits_per_element=bits)
        assert anda.kv_write_bytes == pytest.approx(fp16.kv_write_bytes * bits / 16.0)

    def test_negative_cached_tokens_rejected(self, config):
        with pytest.raises(HardwareError):
            prefix_cache_savings(config, -1)


class TestStepTraffic:
    def test_addition_is_fieldwise(self):
        a = StepTraffic(1.0, 2.0, 3.0, 4.0)
        b = StepTraffic(10.0, 20.0, 30.0, 40.0)
        total = a + b
        assert total.weight_bytes == 11.0
        assert total.kv_read_bytes == 22.0
        assert total.kv_write_bytes == 33.0
        assert total.activation_bytes == 44.0
        assert total.total_bytes == 110.0


class TestBatchingAdvantage:
    def test_advantage_grows_with_batch(self, config):
        small = batching_traffic_advantage(config, 2, 64)
        large = batching_traffic_advantage(config, 8, 64)
        assert 1.0 < small < large <= 8.0

    def test_advantage_decays_with_context(self, config):
        near = batching_traffic_advantage(config, 8, 16)
        far = batching_traffic_advantage(config, 8, 1024)
        assert far < near

    def test_kv_compression_extends_advantage(self, config):
        bits = KVFormat.anda(4).bits_per_element()
        fp16 = batching_traffic_advantage(config, 8, 512)
        anda = batching_traffic_advantage(config, 8, 512, kv_bits_per_element=bits)
        assert anda > fp16

    def test_invalid_batch_rejected(self, config):
        with pytest.raises(HardwareError):
            batching_traffic_advantage(config, 0, 64)
