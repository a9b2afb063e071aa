"""Grouped decode attention: parity, launch counts, engine wiring.

A decode step's attention runs one ``M == 1`` ``_attention_core``
launch per request over its own decode-ready history, read in place,
in one loop per layer.  The contract: emitted tokens (and the logits
behind them) stay **bitwise** identical to decoding each request alone
(a ``forward_decode_batch`` batch of one, as ``generate`` decodes).
These tests pin it across the places it could crack:

* the bucket planner the benchmark ledger's probe still calls (equal
  lengths group, distinct lengths never merge, degenerate inputs),
* grouped decode parity for both KV modes and both storages, and the
  rotary family,
* the launch count — one per (layer, decode row) plus one per
  (layer, prefill chunk tile) — and the absence of history copies on the
  steady decode path,
* the engine, which must emit sequential ``generate()``'s tokens.

Comparisons use ``tobytes()`` — bit equality, not ``==``.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.llm import attention as attention_module
from repro.llm.attention import (
    ATTENTION_STATS,
    HOT_PATH_STATS,
    BucketedAttention,
    plan_buckets,
)
from repro.llm.config import tiny_test_config
from repro.llm.generation import generate
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.serve import Engine, EngineConfig, SamplingParams
from repro.serve.kvpool.pool import KVPool
from serving_helpers import assert_matches_generate, serve

KV_MODES = ["fp16", "anda"]


@pytest.fixture(scope="module")
def model():
    return build_model(tiny_test_config("opt", d_model=32, n_layers=2))


@pytest.fixture(scope="module")
def llama():
    return build_model(tiny_test_config("llama", d_model=32, n_layers=2))


def bitwise_equal(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and left.tobytes() == right.tobytes()


class TestPlanBuckets:
    def test_all_equal_lengths_form_one_exact_bucket(self):
        plan = plan_buckets([9] * 8)
        assert plan.num_buckets == 1
        (bucket,) = plan.buckets
        assert bucket.size == 8 and bucket.length == 9

    def test_all_distinct_lengths_degrade_to_singletons(self):
        plan = plan_buckets([4, 40, 400, 4000])
        assert plan.num_buckets == 4
        assert all(bucket.size == 1 for bucket in plan.buckets)

    def test_near_equal_lengths_never_merge(self):
        # No padding: a bucket holds one exact length only.
        plan = plan_buckets([100, 99, 98])
        assert [bucket.length for bucket in plan.buckets] == [100, 99, 98]

    def test_buckets_follow_first_appearance(self):
        plan = plan_buckets([5, 6, 5])
        assert [(b.indices, b.length) for b in plan.buckets] == [
            ((0, 2), 5),
            ((1,), 6),
        ]

    def test_every_request_lands_in_exactly_one_bucket(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            lengths = rng.integers(1, 64, size=rng.integers(1, 24)).tolist()
            plan = plan_buckets(lengths)
            indices = [i for bucket in plan.buckets for i in bucket.indices]
            assert sorted(indices) == list(range(len(lengths)))
            for bucket in plan.buckets:
                assert all(lengths[i] == bucket.length for i in bucket.indices)
            assert len({bucket.length for bucket in plan.buckets}) == plan.num_buckets

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ModelError):
            plan_buckets([0, 4])
        # Deleted knobs: nothing pads, and nothing is resident to cap.
        with pytest.raises(TypeError):
            plan_buckets([4], pad_waste_cap=0.1)
        with pytest.raises(TypeError):
            BucketedAttention(pad_waste_cap=0.1)
        with pytest.raises(TypeError):
            BucketedAttention(max_workspaces=2)


def prefill_all(model, factory, prompts):
    """Prefill each prompt into its own caches; return caches + greedy tokens."""
    request_caches = []
    tokens = []
    for prompt in prompts:
        caches = factory()
        logits = model.forward_step(prompt.reshape(1, -1), caches)
        request_caches.append(caches)
        tokens.append(int(np.argmax(logits[0, -1])))
    return request_caches, tokens


def decode_batch_logits(model, factory, prompts, steps):
    """Per-step decode-batch logits for a batch of prompts.

    Prefills each prompt into its own caches, then runs ``steps``
    greedy decode-batch steps, returning the per-step logits array —
    the object whose bytes must match :func:`per_request_logits`.
    """
    request_caches, tokens = prefill_all(model, factory, prompts)
    history = []
    for _ in range(steps):
        batch = np.array(tokens).reshape(-1, 1)
        logits = model.forward_decode_batch(batch, request_caches)
        history.append(logits)
        tokens = [int(np.argmax(row[-1])) for row in logits]
    return history


def per_request_logits(model, factory, prompts, steps):
    """The oracle: each request decoded alone, a batch of one."""
    request_caches, tokens = prefill_all(model, factory, prompts)
    history = []
    for _ in range(steps):
        logits = np.concatenate(
            [
                model.forward_decode_batch(np.array([[token]]), [caches])
                for token, caches in zip(tokens, request_caches)
            ]
        )
        history.append(logits)
        tokens = [int(np.argmax(row[-1])) for row in logits]
    return history


def paged_factory(pool):
    def factory():
        return pool.create_sequence(np.array([1])).caches

    return factory


def make_factory(model, kv_mode, paged):
    if not paged:
        return KVFormat(kv_mode, 8).cache_factory(model)
    pool = KVPool(
        model.config,
        num_blocks=512,
        block_size=4,
        codec=KVFormat(kv_mode, 8).codec(),
        enable_prefix_cache=False,
    )
    return paged_factory(pool)


class TestGroupedBitwiseParity:
    #: Prompt lengths shaping the plan: three requests sharing a length
    #: and two alone at theirs — both bucket sizes every step.
    MIXED_LENGTHS = (7, 7, 7, 10, 9)

    @pytest.mark.parametrize("kv_mode", KV_MODES)
    @pytest.mark.parametrize("paged", [False, True], ids=["unpaged", "paged"])
    def test_shared_and_lone_lengths_match_per_request(self, model, kv_mode, paged):
        rng = np.random.default_rng(31)
        prompts = [
            rng.integers(0, 256, size=length) for length in self.MIXED_LENGTHS
        ]
        factory = make_factory(model, kv_mode, paged)
        grouped = decode_batch_logits(model, factory, prompts, steps=5)
        factory = make_factory(model, kv_mode, paged)
        per_request = per_request_logits(model, factory, prompts, steps=5)
        for step, (ours, reference) in enumerate(zip(grouped, per_request)):
            assert bitwise_equal(ours, reference), f"diverged at step {step}"

    @pytest.mark.parametrize("kv_mode", KV_MODES)
    def test_rotary_family_grouped_parity(self, llama, kv_mode):
        rng = np.random.default_rng(37)
        prompts = [
            rng.integers(0, 256, size=length) for length in self.MIXED_LENGTHS
        ]
        factory = KVFormat(kv_mode, 8).cache_factory(llama)
        grouped = decode_batch_logits(llama, factory, prompts, steps=4)
        factory = KVFormat(kv_mode, 8).cache_factory(llama)
        per_request = per_request_logits(llama, factory, prompts, steps=4)
        for ours, reference in zip(grouped, per_request):
            assert bitwise_equal(ours, reference)

    @pytest.mark.parametrize(
        "lengths", [(6,) * 8, (3, 12, 25)], ids=["shared", "singletons"]
    )
    def test_decode_dispatches_one_launch_per_row(self, model, lengths):
        # Shared or distinct lengths, each layer launches one attention
        # pipeline per decode row.
        rng = np.random.default_rng(43)
        prompts = [rng.integers(0, 256, size=length) for length in lengths]
        factory = KVFormat.fp16().cache_factory(model)
        caches = [factory() for _ in prompts]
        for prompt, request in zip(prompts, caches):
            model.forward_step(prompt.reshape(1, -1), request)
        token = np.full((len(prompts), 1), 5)
        before = ATTENTION_STATS.dispatches
        model.forward_decode_batch(token, caches)
        launches = ATTENTION_STATS.dispatches - before
        assert launches == len(model.blocks) * len(prompts)

    def test_run_bucket_rows_match_the_core_per_member(self, model):
        # Direct callers (the ledger's bucket probe) hand run_bucket a
        # bucket and the members' views: it returns, in member order,
        # exactly the rows one _attention_core call per member gives.
        factory = KVFormat.fp16().cache_factory(model)
        caches = [factory()[0] for _ in range(3)]
        rng = np.random.default_rng(59)
        attention = model.blocks[0].attention
        shape = (1, attention.n_heads, 6, attention.head_dim)
        for cache in caches:
            cache.append(
                rng.normal(size=shape).astype(np.float32),
                rng.normal(size=shape).astype(np.float32),
            )
        views = [cache.view() for cache in caches]
        q = rng.normal(size=(3, attention.n_heads, 1, attention.head_dim)).astype(
            np.float32
        )
        (bucket,) = plan_buckets([6, 6, 6]).buckets
        rows = BucketedAttention().run_bucket(attention, bucket, q, views, caches)
        assert len(rows) == 3
        for index, row in enumerate(rows):
            reference = attention._attention_core(
                q[index : index + 1], *views[index], 5
            )
            assert bitwise_equal(row, reference)

    def test_length_mismatch_rejected(self, model):
        # A plan computed from stale lengths must fail loudly, not
        # read the wrong rows.
        factory = KVFormat.fp16().cache_factory(model)
        caches = factory()
        model.forward_step(np.arange(6).reshape(1, -1), caches)
        attention = model.blocks[0].attention
        plan = plan_buckets([3])  # cache actually holds 6
        views = [layer_cache.view() for layer_cache in caches[:1]]
        q = np.zeros((1, attention.n_heads, 1, attention.head_dim))
        with pytest.raises(ModelError, match="KV length"):
            BucketedAttention().run_bucket(
                attention, plan.buckets[0], q, views, caches[:1]
            )

    def test_decodes_need_no_dispatcher(self, model):
        # The mixed step runs its decode lane without a dispatcher, and
        # a dispatcher passed positionally to forward_decode_batch (the
        # ledger's decode probe does) is accepted and changes nothing.
        factory = KVFormat.fp16().cache_factory(model)
        chunk, decode, twin, oracle = factory(), factory(), factory(), factory()
        for caches in (decode, twin, oracle):
            model.forward_step(np.arange(4).reshape(1, -1), caches)
        _, logits = model.forward_mixed_step(
            [np.arange(3)], [chunk], np.full((1, 1), 3), [decode]
        )
        assert chunk[0].length == 3 and decode[0].length == 5
        probed = model.forward_decode_batch(
            np.full((1, 1), 3), [twin], BucketedAttention()
        )
        expected = model.forward_decode_batch(np.full((1, 1), 3), [oracle])
        assert bitwise_equal(logits, expected)
        assert bitwise_equal(probed, expected)


class TestNoHistoryCopies:
    """Decode reads each history once, in place: no per-step copy."""

    def test_reserved_decode_steps_copy_nothing(self, model):
        # Paged sequences reserved to their final length: every decode
        # step — shared-length bucket included — adds zero copy bytes.
        pool = KVPool(
            model.config, num_blocks=64, block_size=4, enable_prefix_cache=False
        )
        caches = [
            pool.create_sequence(np.arange(20), reserved=32).caches for _ in range(3)
        ]
        for request in caches:
            model.forward_step(np.arange(20).reshape(1, -1), request)
        token = np.full((3, 1), 3)
        for _ in range(8):
            before = HOT_PATH_STATS.copy_bytes
            model.forward_decode_batch(token, caches)
            assert HOT_PATH_STATS.copy_bytes == before

    @pytest.mark.parametrize("kv_mode", KV_MODES)
    def test_engine_decode_steps_copy_nothing(self, model, kv_mode):
        # The engine reserves every sequence to prompt + max_new_tokens,
        # so no step that decodes re-materializes history.
        rng = np.random.default_rng(67)
        prompts = [rng.integers(0, 256, size=8) for _ in range(4)]
        fmt = KVFormat(mode=kv_mode, mantissa_bits=6)
        engine = Engine(model, EngineConfig(kv_format=fmt))
        for prompt in prompts:
            engine.submit(prompt, SamplingParams(max_new_tokens=12))
        decoding = []
        while engine.has_work():
            report = engine.step().report
            if report.decodes:
                decoding.append(report.kv_copy_bytes)
        assert len(decoding) >= 11 and not any(decoding)


class TestEngineGrouped:
    @pytest.mark.parametrize("kv_mode", KV_MODES)
    def test_engine_grouped_tokens_match_sequential_generate(self, model, kv_mode):
        rng = np.random.default_rng(53)
        # Equal-length prompts decode at equal KV lengths: one
        # shared-length bucket per step, the engine's steady state.
        prompts = [rng.integers(0, 256, size=8) for _ in range(5)]
        fmt = KVFormat(mode=kv_mode, mantissa_bits=6)
        engine = Engine(model, EngineConfig(kv_format=fmt))
        results = serve(model, prompts, max_new_tokens=8, engine=engine)
        assert_matches_generate(model, prompts, results, 8, fmt)
        metrics = engine.metrics()
        # Kept for the serving ledger, which reads them; nothing feeds
        # them any more.
        assert metrics.attention_grouped_requests == 0
        assert metrics.attention_padded_reads == 0

    def test_paged_engine_grouped_parity(self, model):
        rng = np.random.default_rng(61)
        prompts = [rng.integers(0, 256, size=8) for _ in range(4)]
        grouped = serve(
            model,
            prompts,
            max_new_tokens=8,
            config=EngineConfig(kv_pool_blocks=64, kv_block_size=4),
        )
        assert_matches_generate(model, prompts, grouped, 8)

    def test_every_step_dispatches_layers_times_rows_and_chunks(self, model):
        # The structural dispatch gate: on a mixed-length run (shared
        # and lone lengths, requests joining and leaving), each step
        # launches one attention pipeline per (layer, decode row), one
        # per (layer but the last, prefill chunk), and in the last layer
        # one per sampled row: a chunk that completes its prompt samples
        # its last row, a partial chunk none.
        rng = np.random.default_rng(71)
        lengths = (7, 7, 7, 10, 9, 3, 25, 16)
        prompts = [rng.integers(0, 256, size=length) for length in lengths]
        engine = Engine(model, EngineConfig(max_batch_tokens=32))
        counts = [4 + index % 5 for index in range(len(prompts))]
        handles = [
            engine.submit(prompt, SamplingParams(max_new_tokens=count))
            for prompt, count in zip(prompts, counts)
        ]
        n_layers = len(model.blocks)
        decoded = partial = 0
        while engine.has_work():
            report = engine.step().report
            decoded += report.decodes
            partial += report.partial_prefills
            sampled = report.prefills - report.partial_prefills
            assert report.attention_dispatches == (
                n_layers * report.decodes
                + (n_layers - 1) * report.prefills
                + sampled
            )
        assert decoded > 0 and partial > 0
        for handle, prompt, count in zip(handles, prompts, counts):
            expected = generate(model, prompt, count)
            np.testing.assert_array_equal(handle.result().tokens, expected.tokens)

    def test_engine_builds_no_dispatcher_and_plans_no_buckets(
        self, model, monkeypatch
    ):
        # Bucket plumbing is off the engine path: a run that decodes
        # constructs no BucketedAttention, plans no buckets and runs no
        # bucket.
        calls = []

        def forbidden(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"engine called {name}")

            return record

        monkeypatch.setattr(attention_module, "plan_buckets", forbidden("plan_buckets"))
        monkeypatch.setattr(
            BucketedAttention, "__new__", forbidden("BucketedAttention")
        )
        monkeypatch.setattr(BucketedAttention, "run_bucket", forbidden("run_bucket"))
        rng = np.random.default_rng(73)
        prompts = [rng.integers(0, 256, size=length) for length in (5, 9, 9)]
        results = serve(model, prompts, max_new_tokens=4)
        assert_matches_generate(model, prompts, results, 4)
        assert calls == []

    def test_pad_waste_knob_removed(self):
        with pytest.raises(TypeError):
            EngineConfig(attention_pad_waste=0.0)
