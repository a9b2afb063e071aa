"""Mixed-precision serving: one engine, heterogeneous KV formats.

The load-bearing guarantee of the format redesign: a batch whose
requests override ``SamplingParams.kv_format`` emits, request for
request, exactly the tokens sequential ``generate()`` emits with that
format's caches — across pool geometries and chunk budgets.  On top:
the prefix cache never mixes byte-incompatible formats, and telemetry
splits KV traffic by format.
"""

import numpy as np
import pytest

from repro.llm.config import tiny_test_config
from repro.llm.generation import generate
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.llm.zoo import get_model
from repro.serve import Engine, EngineConfig, SamplingParams


@pytest.fixture(scope="module")
def model():
    return get_model("opt-125m-sim")


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(11)
    return [rng.integers(0, 256, size=length) for length in (6, 13, 21, 9)]


#: One format per request in the mixed batch (None inherits the engine
#: default, anda6; fp16 and bfp5 are byte-incompatible overrides).
REQUEST_FORMATS = [None, KVFormat.fp16(), KVFormat.bfp(5), KVFormat.anda(4)]

#: Pool geometries x chunk budgets (64 covers every prompt; 16 chunks).
MODES = [
    pytest.param(pool, budget, id=f"{label}-budget{budget}")
    for label, pool in (
        ("default-pool", {}),
        ("blocks4x64", dict(kv_pool_blocks=64, kv_block_size=4)),
    )
    for budget in (64, 16)
]


def run_engine(model, prompts, formats, config, max_new_tokens=6):
    engine = Engine(model, config)
    handles = [
        engine.submit(
            prompt,
            SamplingParams(max_new_tokens=max_new_tokens, kv_format=fmt),
        )
        for prompt, fmt in zip(prompts, formats)
    ]
    while engine.has_work():
        engine.step()
    return engine, [handle.result().tokens for handle in handles]


def make_config(pool=None, budget=16, **overrides):
    return EngineConfig(
        kv_format=overrides.pop("kv_format", KVFormat.anda(6)),
        max_batch_tokens=budget,
        **(pool or {}),
        **overrides,
    )


def assert_matches_generate(model, prompts, formats, tokens, default, count=6):
    """Each request's tokens equal sequential generate() in its format."""
    for prompt, fmt, served in zip(prompts, formats, tokens):
        factory = (fmt or default).cache_factory(model)
        expected = generate(model, prompt, count, cache_factory=factory)
        np.testing.assert_array_equal(served, expected.tokens)


class TestMixedBatchParity:
    @pytest.mark.parametrize("pool,budget", MODES)
    def test_tokens_match_per_format_sequential(self, model, prompts, pool, budget):
        config = make_config(pool, budget)
        _, mixed = run_engine(model, prompts, REQUEST_FORMATS, config)
        assert_matches_generate(
            model, prompts, REQUEST_FORMATS, mixed, KVFormat.anda(6)
        )

    @pytest.mark.parametrize("pool,budget", MODES)
    def test_per_layer_override_in_mixed_batch(self, prompts, pool, budget):
        tiny = build_model(tiny_test_config("opt", d_model=32, n_layers=2))
        stack = KVFormat.per_layer([KVFormat.anda(4), KVFormat.fp16()])
        formats = [None, stack, None, stack]
        config = make_config(pool, budget, kv_format=KVFormat.fp16())
        _, mixed = run_engine(tiny, prompts, formats, config)
        assert_matches_generate(tiny, prompts, formats, mixed, KVFormat.fp16())

    def test_per_layer_engine_default_matches_generate(self, prompts):
        # Requests inheriting a per-layer engine default get that
        # stack's codecs and must write the same bytes the sequential
        # per-layer caches write.
        tiny = build_model(tiny_test_config("opt", d_model=32, n_layers=2))
        stack = KVFormat.per_layer([KVFormat.anda(4), KVFormat.fp16()])
        formats = [None] * len(prompts)
        _, tokens = run_engine(tiny, prompts, formats, make_config(kv_format=stack))
        assert_matches_generate(tiny, prompts, formats, tokens, stack)


class TestFormatSplitTelemetry:
    def test_metrics_split_by_label(self, model, prompts):
        engine, _ = run_engine(model, prompts, REQUEST_FORMATS, make_config())
        split = dict(engine.metrics().kv_format_bytes)
        assert set(split) == {"anda6", "fp16", "bfp5", "anda4"}
        assert all(value > 0 for value in split.values())

    def test_split_sums_to_step_kv_traffic(self, model, prompts):
        # Every KV byte read or written belongs to one request, so the
        # per-format attribution covers the KV streams exactly.
        engine, _ = run_engine(
            model, prompts, REQUEST_FORMATS, make_config(budget=64)
        )
        metrics = engine.metrics()
        split_total = sum(dict(metrics.kv_format_bytes).values())
        kv_total = metrics.traffic.kv_read_bytes + metrics.traffic.kv_write_bytes
        assert split_total == pytest.approx(kv_total, rel=1e-9)

    def test_prometheus_counter_per_format(self, model, prompts):
        engine, _ = run_engine(model, prompts, REQUEST_FORMATS, make_config())
        text = engine.telemetry.prometheus()
        assert "repro_engine_kv_format_bytes_total" in text
        for label in ("anda6", "fp16", "bfp5", "anda4"):
            assert f'format="{label}"' in text

    def test_uniform_traffic_independent_of_format_spelling(self, model, prompts):
        # A single-format batch charges the same bytes whether the
        # format is the engine default or every request's (byte-equal)
        # override: the per-request kv_bits arithmetic never
        # re-associates.
        inherited, _ = run_engine(model, prompts, [None] * len(prompts), make_config())
        overridden, _ = run_engine(
            model, prompts, [KVFormat.anda(6)] * len(prompts), make_config()
        )
        assert (
            inherited.metrics().traffic.total_bytes
            == overridden.metrics().traffic.total_bytes
        )


class TestPrefixSharingGuard:
    def shared_prompts(self):
        rng = np.random.default_rng(3)
        prefix = rng.integers(0, 256, size=70)
        return [
            np.concatenate([prefix, rng.integers(0, 256, size=6)]),
            np.concatenate([prefix, rng.integers(0, 256, size=9)]),
        ]

    def test_default_format_requests_still_share(self, model):
        prompts = self.shared_prompts()
        engine, _ = run_engine(model, prompts, [None, None], make_config())
        assert engine.metrics().prefix_hit_tokens > 0

    def test_private_format_request_never_shares(self, model):
        prompts = self.shared_prompts()
        engine, tokens = run_engine(
            model,
            prompts,
            [None, KVFormat.fp16()],
            make_config(),
        )
        # The fp16 override must not read the anda6 donor's blocks...
        assert engine.metrics().prefix_hit_tokens == 0
        # ...and must still decode exactly like its solo engine.
        _, solo = run_engine(
            model,
            [prompts[1]],
            [None],
            make_config(kv_format=KVFormat.fp16()),
        )
        np.testing.assert_array_equal(tokens[1], solo[0])

    def test_private_blocks_never_enter_the_cache(self, model):
        prompts = self.shared_prompts()
        # Submit the override FIRST: if its blocks were registered, the
        # second (default-format) request would "hit" wrong-format
        # bytes.  With the guard, the default request gets no hit and
        # decodes from its own correctly-formatted blocks.
        engine, tokens = run_engine(
            model,
            prompts,
            [KVFormat.fp16(), None],
            make_config(),
        )
        assert engine.metrics().prefix_hit_tokens == 0
        _, solo = run_engine(model, [prompts[1]], [None], make_config())
        np.testing.assert_array_equal(tokens[1], solo[0])

    def test_same_format_override_still_shares(self, model):
        # An explicit override equal to the engine default is byte
        # compatible — sharing stays on (kv_private is signature-based,
        # not identity-based).
        prompts = self.shared_prompts()
        engine, _ = run_engine(
            model,
            prompts,
            [None, KVFormat.anda(6)],
            make_config(),
        )
        assert engine.metrics().prefix_hit_tokens > 0
