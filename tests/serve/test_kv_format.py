"""The KVFormat API: spec semantics, engine config, per-request override.

Covers the format value object itself (modes, per-layer stacks,
search-derived policies, labels, signatures), ``EngineConfig.kv_format``
resolution, and admission-time validation of
``SamplingParams.kv_format``.
"""

import numpy as np
import pytest

from repro.core.precision import PrecisionCombination
from repro.core.search import SearchResult
from repro.errors import ModelError, RequestError
from repro.llm.config import tiny_test_config
from repro.llm.generation import generate
from repro.llm.kv_quant import KV_MODES, KVFormat
from repro.llm.transformer import build_model
from repro.llm.zoo import get_model
from repro.serve import Engine, EngineConfig, SamplingParams
from serving_helpers import serve


@pytest.fixture(scope="module")
def model():
    return get_model("opt-125m-sim")


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(7)
    return [rng.integers(0, 256, size=length) for length in (5, 9, 13)]


class TestSpec:
    def test_uniform_constructors(self):
        assert KVFormat.fp16().label == "fp16"
        assert KVFormat.anda(4).label == "anda4"
        assert KVFormat.bfp(6).label == "bfp6"
        assert KVFormat.mx(4).label == "mx4"

    def test_bits_per_element(self):
        assert KVFormat.fp16().bits_per_element() == 16.0
        assert KVFormat.anda(4).bits_per_element() == 1 + 4 + 8 / 64
        assert KVFormat.bfp(6).bits_per_element() == 1 + 6 + 8 / 64
        # MX adds the per-subgroup microexponent on top.
        assert KVFormat.mx(4).bits_per_element() > 1 + 4 + 8 / 64

    def test_validation(self):
        with pytest.raises(ModelError):
            KVFormat(mode="nope")
        with pytest.raises(ModelError):
            KVFormat.anda(0)
        with pytest.raises(ModelError):
            KVFormat.anda(17)
        with pytest.raises(ModelError):
            KVFormat.per_layer([])
        with pytest.raises(ModelError):
            KVFormat.per_layer([KVFormat.anda(4), "fp16"])
        with pytest.raises(ModelError):
            # layers only belong to the per-layer sentinel mode
            KVFormat(mode="anda", layers=(KVFormat.fp16(),))

    def test_per_layer_resolution_and_mean_bits(self):
        stack = KVFormat.per_layer([KVFormat.anda(4), KVFormat.fp16()])
        assert not stack.uniform
        assert stack.resolve(0) == KVFormat.anda(4)
        assert stack.resolve(1) == KVFormat.fp16()
        assert stack.bits_per_element() == ((1 + 4 + 8 / 64) + 16.0) / 2
        with pytest.raises(ModelError):
            stack.bits_per_element(n_layers=3)
        with pytest.raises(ModelError):
            stack.resolve(2)

    def test_signature_is_per_layer_compression_keys(self):
        stack = KVFormat.per_layer([KVFormat.anda(4), KVFormat.fp16()])
        assert stack.signature(2) == (("anda", 4), ("fp16",))
        # A uniform format broadcast over n layers.
        assert KVFormat.anda(4).signature(2) == (("anda", 4), ("anda", 4))
        # Byte-equivalent spellings share a signature.
        broadcast = KVFormat.per_layer([KVFormat.anda(4)] * 2)
        assert broadcast.signature(2) == KVFormat.anda(4).signature(2)

    def test_per_layer_codec_raises(self):
        stack = KVFormat.per_layer([KVFormat.anda(4), KVFormat.fp16()])
        with pytest.raises(ModelError):
            stack.codec()
        keys = [codec.compression_key() for codec in stack.codecs(2)]
        assert keys == [("anda", 4), ("fp16",)]

    def test_labels_for_stacks(self):
        assert (
            KVFormat.per_layer([KVFormat.anda(4), KVFormat.fp16()]).label
            == "per_layer(anda4,fp16)"
        )
        assert (
            KVFormat.per_layer([KVFormat.anda(5)] * 3).label
            == "per_layer(anda5x3)"
        )

    def test_cache_factory_builds_one_codec_per_layer(self, model):
        caches = KVFormat.anda(6).cache_factory(model)()
        assert len(caches) == len(model.blocks)
        assert all(c.compression_key() == ("anda", 6) for c in caches)

    @pytest.mark.parametrize("mode", KV_MODES)
    def test_width_is_the_codecs_storage_width(self, mode):
        # One width formula per format: the codec's.
        fmt = KVFormat(mode, 5)
        assert fmt.bits_per_element() == fmt.codec().storage_bits_per_element()


class TestFromSearch:
    def combo(self, qkv):
        return PrecisionCombination(qkv=qkv, o=8, u=8, d=8)

    def result(self, qkv):
        return SearchResult(
            best=self.combo(qkv),
            best_bops=1.0,
            reference_accuracy=0.9,
            tolerance=0.01,
        )

    def test_combination_uses_qkv_bits(self):
        assert KVFormat.from_search(self.combo(5)) == KVFormat.anda(5)
        assert KVFormat.from_search(self.combo(5), mode="bfp") == KVFormat.bfp(5)

    def test_search_result_unwraps_best(self):
        assert KVFormat.from_search(self.result(6)) == KVFormat.anda(6)

    def test_infeasible_search_raises(self):
        infeasible = SearchResult(
            best=None,
            best_bops=float("inf"),
            reference_accuracy=0.9,
            tolerance=0.01,
        )
        with pytest.raises(ModelError):
            KVFormat.from_search(infeasible)

    def test_sequence_builds_per_layer_policy(self):
        fmt = KVFormat.from_search([self.result(4), self.combo(8)])
        assert fmt == KVFormat.per_layer([KVFormat.anda(4), KVFormat.anda(8)])

    def test_search_policy_serves(self, prompts):
        # First serving consumer of the search path: a per-layer policy
        # straight from (mock) search output drives a live engine.
        tiny = build_model(tiny_test_config("opt", d_model=32, n_layers=2))
        fmt = KVFormat.from_search([self.result(4), self.result(8)])
        results = serve(
            tiny, prompts, max_new_tokens=4, config=EngineConfig(kv_format=fmt)
        )
        assert all(r.continuation().shape[0] == 4 for r in results)


class TestEngineConfigFormat:
    def test_default_is_fp16(self):
        config = EngineConfig()
        assert config.kv_format == KVFormat.fp16()
        assert config.kv_format.bits_per_element() == 16.0

    def test_removed_scalar_knobs_rejected(self):
        # kv_format is the only spelling; the scalar knobs are gone.
        with pytest.raises(TypeError):
            EngineConfig(kv_mode="anda")
        with pytest.raises(TypeError):
            EngineConfig(kv_mantissa_bits=4)

    def test_non_format_kv_format_raises(self):
        with pytest.raises(ModelError):
            EngineConfig(kv_format="anda")

    def test_per_layer_config_bits_are_the_layer_mean(self):
        stack = KVFormat.per_layer([KVFormat.anda(4), KVFormat.fp16()])
        config = EngineConfig(kv_format=stack)
        assert config.kv_format.mode == "per_layer"
        assert config.kv_format.bits_per_element(n_layers=2) == (
            (1 + 4 + 8 / 64) + 16.0
        ) / 2

    def test_engine_format_serves_like_sequential_generate(self, model, prompts):
        fmt = KVFormat.anda(6)
        results = serve(
            model, prompts, max_new_tokens=6, config=EngineConfig(kv_format=fmt)
        )
        factory = fmt.cache_factory(model)
        for prompt, result in zip(prompts, results):
            expected = generate(model, prompt, 6, cache_factory=factory)
            np.testing.assert_array_equal(result.tokens, expected.tokens)


class TestPerRequestValidation:
    def test_params_reject_non_format(self):
        with pytest.raises(RequestError):
            SamplingParams(max_new_tokens=4, kv_format="anda")

    def test_params_default_is_inherit(self):
        assert SamplingParams(max_new_tokens=4).kv_format is None

    def test_submit_rejects_model_mismatched_stack(self):
        tiny = build_model(tiny_test_config("opt", d_model=32, n_layers=2))
        engine = Engine(tiny, EngineConfig())
        wrong_depth = KVFormat.per_layer([KVFormat.anda(4)] * 3)
        with pytest.raises(RequestError):
            engine.submit(
                np.array([1, 2, 3]),
                SamplingParams(max_new_tokens=2, kv_format=wrong_depth),
            )

    def test_submit_accepts_matching_stack(self):
        tiny = build_model(tiny_test_config("opt", d_model=32, n_layers=2))
        engine = Engine(tiny, EngineConfig())
        stack = KVFormat.per_layer([KVFormat.anda(4), KVFormat.fp16()])
        handle = engine.submit(
            np.array([1, 2, 3]), SamplingParams(max_new_tokens=2, kv_format=stack)
        )
        while engine.has_work():
            engine.step()
        assert handle.result().continuation().shape[0] == 2


def test_serve_module_exports_kvformat():
    import repro.serve as serve_module

    assert serve_module.KVFormat is KVFormat
    assert "KVFormat" in serve_module.__all__
