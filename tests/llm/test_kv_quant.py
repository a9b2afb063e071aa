"""Tests for the Anda KV-cache compression extension."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.llm.config import tiny_test_config
from repro.llm.kv_quant import KV_MODES, AndaKVCache, KVFormat
from repro.llm.transformer import build_model


class TestAndaKVCache:
    def test_append_quantizes(self):
        cache = AndaKVCache(mantissa_bits=4)
        rng = np.random.default_rng(0)
        k = rng.normal(size=(1, 2, 3, 64)).astype(np.float32)
        keys, _ = cache.append(k, k)
        assert keys.shape == k.shape
        assert not np.array_equal(keys, k)  # quantization happened

    def test_high_precision_nearly_transparent(self):
        cache = AndaKVCache(mantissa_bits=11)
        rng = np.random.default_rng(1)
        k = rng.normal(size=(1, 2, 2, 64)).astype(np.float32)
        keys, _ = cache.append(k, k)
        fp16 = k.astype(np.float16).astype(np.float32)
        assert np.abs(keys - fp16).max() <= np.abs(fp16).max() * 2e-3

    def test_validation(self):
        with pytest.raises(ModelError):
            AndaKVCache(mantissa_bits=0)

    def test_storage_accounting(self):
        cache = AndaKVCache(mantissa_bits=7)
        assert cache.storage_bits_per_element() == pytest.approx(8 + 8 / 64)
        assert 16 / KVFormat.anda(7).bits_per_element() == pytest.approx(
            16 / (8 + 8 / 64)
        )

    def test_compression_monotone(self):
        def ratio(bits):
            return 16 / KVFormat.anda(bits).bits_per_element()

        assert ratio(4) > ratio(8) > 1.0


class TestCompressContract:
    """Every codec's ``compress`` returns float32 rows exact in float16.

    The write path relies on it: the paged pool narrows those rows with
    ``fp16.pack_half`` (exact only on float16 values) and the residency
    keeps them unconverted.
    """

    @pytest.mark.parametrize("mode", KV_MODES)
    @pytest.mark.parametrize("mantissa_bits", range(1, 17))
    def test_output_is_exact_in_float16(self, mode, mantissa_bits):
        rng = np.random.default_rng(mantissa_bits)
        # Rows spanning 1e-7 (float16 subnormals) to 1e6 (saturation).
        magnitudes = 10.0 ** rng.uniform(-7, 6, size=(2, 3, 8, 64))
        signs = rng.choice([-1.0, 1.0], size=magnitudes.shape)
        rows = (signs * magnitudes).astype(np.float32)
        out = KVFormat(mode, mantissa_bits).codec().compress(rows)
        assert out.dtype == np.float32
        assert out.shape == rows.shape
        assert np.isfinite(out).all()
        widened = out.astype(np.float16).astype(np.float32)
        assert np.array_equal(widened.view(np.uint32), out.view(np.uint32))


class TestGenerationWithQuantizedCache:
    @pytest.mark.parametrize("family", ["opt", "llama"])
    def test_logits_close_at_high_precision(self, family):
        model = build_model(tiny_test_config(family=family, seed=31))
        tokens = np.random.default_rng(2).integers(0, 256, size=(1, 12))
        fp_caches = model.new_cache()
        q_caches = KVFormat.anda(11).cache_factory(model)()
        fp_logits = model.forward_step(tokens, fp_caches)
        q_logits = model.forward_step(tokens, q_caches)
        scale = np.abs(fp_logits).max()
        assert np.abs(fp_logits - q_logits).max() < 0.05 * scale

    def test_generation_runs_with_quantized_cache(self):
        model = build_model(tiny_test_config(seed=37))
        prompt = np.array([65, 66, 67])
        caches = KVFormat.anda(8).cache_factory(model)()
        logits = model.forward_step(prompt.reshape(1, -1), caches)
        assert logits.shape == (1, 3, 256)
        assert caches[0].length == 3

    def _greedy_with_cache(self, model, prompt, caches, steps):
        produced = [
            int(np.argmax(model.forward_step(prompt.reshape(1, -1), caches)[0, -1]))
        ]
        for _ in range(steps - 1):
            step = model.forward_step(np.array([[produced[-1]]]), caches)
            produced.append(int(np.argmax(step[0, -1])))
        return produced

    def test_quantized_cache_decoding_is_deterministic(self):
        model = build_model(tiny_test_config(seed=41))
        prompt = np.array([65, 66, 67, 68])
        first = self._greedy_with_cache(
            model, prompt, KVFormat.anda(2).cache_factory(model)(), steps=12
        )
        second = self._greedy_with_cache(
            model, prompt, KVFormat.anda(2).cache_factory(model)(), steps=12
        )
        assert first == second
        assert all(0 <= token <= 255 for token in first)

    def test_cache_precision_controls_divergence(self):
        """Error vs the exact FP cache grows as mantissa bits shrink."""
        model = build_model(tiny_test_config(seed=43))
        prompt = np.random.default_rng(3).integers(0, 256, size=(1, 16))
        exact = model.forward_step(prompt, model.new_cache())
        errors = []
        for bits in (2, 6, 11):
            logits = model.forward_step(
                prompt, KVFormat.anda(bits).cache_factory(model)()
            )
            errors.append(float(np.abs(logits - exact).max()))
        assert errors[0] > errors[1] > errors[2]
