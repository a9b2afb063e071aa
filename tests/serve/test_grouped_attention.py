"""Grouped batched attention: bucket planning, parity, engine wiring.

The bucketed dispatcher runs a decode step's attention as O(buckets)
launches per layer, under one non-negotiable contract: emitted tokens
(and the logits behind them) stay **bitwise** identical to decoding
each request alone through ``forward_step``.  These tests pin that
contract across the places it could crack:

* the planner's policy edges (all-equal, all-distinct, the pad-waste
  cap, degenerate inputs),
* singleton buckets, which must route through the per-request oracle
  untouched (the M == 1 kernel-lane guarantee),
* padded buckets, whose mask-don't-compute formulation must match the
  oracle bitwise for both KV modes and both storages,
* the engine, which must emit sequential ``generate()``'s tokens while
  every decode step launches exactly ``layers x buckets`` dispatches,
* the incremental gather workspace, which must re-sync only appended
  tails while memberships hold.

Comparisons use ``tobytes()`` — bit equality, not ``==``.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.llm.attention import (
    ATTENTION_STATS,
    HOT_PATH_STATS,
    BucketedAttention,
    plan_buckets,
)
from repro.llm.config import tiny_test_config
from repro.llm.generation import generate
from repro.llm.kv_quant import KVFormat, make_cache_factory, make_kv_codec
from repro.llm.transformer import build_model
from repro.serve import Engine, EngineConfig
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
        assert bucket.size == 8 and not bucket.padded
        assert plan.grouped_requests == 8
        assert plan.padded_slots == 0

    def test_all_distinct_lengths_degrade_to_singletons(self):
        # Lengths too far apart to merge under the cap: the plan must
        # degrade gracefully to per-request dispatch, never error.
        plan = plan_buckets([4, 40, 400, 4000])
        assert plan.num_buckets == 4
        assert all(bucket.size == 1 for bucket in plan.buckets)
        assert plan.grouped_requests == 0
        assert plan.padded_slots == 0

    def test_near_equal_singletons_merge_into_padded_bucket(self):
        plan = plan_buckets([100, 99, 98])
        assert plan.num_buckets == 1
        (bucket,) = plan.buckets
        assert bucket.padded and bucket.length == 100
        assert bucket.lengths == (100, 99, 98)  # longest-first merge
        assert bucket.padded_slots == 3

    def test_zero_cap_disables_padded_merges(self):
        plan = plan_buckets([100, 99, 98], pad_waste_cap=0.0)
        assert plan.num_buckets == 3
        assert all(bucket.size == 1 for bucket in plan.buckets)

    def test_exact_groups_take_precedence_over_merging(self):
        plan = plan_buckets([5, 5, 6])
        by_size = sorted(plan.buckets, key=lambda bucket: -bucket.size)
        assert by_size[0].indices == (0, 1) and not by_size[0].padded
        assert by_size[1].indices == (2,)

    def test_every_request_lands_in_exactly_one_bucket(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            lengths = rng.integers(1, 64, size=rng.integers(1, 24)).tolist()
            plan = plan_buckets(lengths)
            indices = [i for bucket in plan.buckets for i in bucket.indices]
            assert sorted(indices) == list(range(len(lengths)))
            for bucket in plan.buckets:
                # Each member's recorded length is the real one, and
                # padded waste respects the cap the planner promised.
                assert all(
                    lengths[i] == length
                    for i, length in zip(bucket.indices, bucket.lengths)
                )
                assert bucket.length == max(bucket.lengths)
                if bucket.size > 1 and bucket.padded:
                    assert (
                        bucket.padded_slots <= 0.125 * bucket.size * bucket.length
                    )

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ModelError):
            plan_buckets([0, 4])
        with pytest.raises(ModelError):
            plan_buckets([4], pad_waste_cap=1.0)
        with pytest.raises(ModelError):
            plan_buckets([4], pad_waste_cap=-0.1)
        with pytest.raises(ModelError):
            BucketedAttention(pad_waste_cap=1.5)
        with pytest.raises(TypeError):
            # Deleted knob: residency is swept per step, not capped.
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


def decode_batch_logits(model, factory, prompts, steps, dispatcher):
    """Per-step decode-batch logits for a batch of prompts.

    Prefills each prompt into its own caches, then runs ``steps``
    greedy decode-batch steps, returning the per-step logits array —
    the object whose bytes must match :func:`per_request_logits`.
    """
    request_caches, tokens = prefill_all(model, factory, prompts)
    history = []
    for _ in range(steps):
        batch = np.array(tokens).reshape(-1, 1)
        logits = model.forward_decode_batch(batch, request_caches, dispatcher)
        history.append(logits)
        tokens = [int(np.argmax(row[-1])) for row in logits]
    return history


def per_request_logits(model, factory, prompts, steps):
    """The oracle: each request decoded alone through ``forward_step``."""
    request_caches, tokens = prefill_all(model, factory, prompts)
    history = []
    for _ in range(steps):
        logits = np.concatenate(
            [
                model.forward_step(np.array([[token]]), caches)
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
        return make_cache_factory(model, kv_mode, 8)
    pool = KVPool(
        model.config,
        num_blocks=512,
        block_size=4,
        codec=make_kv_codec(kv_mode, 8),
        enable_prefix_cache=False,
    )
    return paged_factory(pool)


class TestGroupedBitwiseParity:
    #: Prompt lengths shaping the plan: an exact bucket (three equal
    #: lengths), a padded merge (two lengths one apart), and nothing
    #: left over — both grouped formulations exercised every step.
    MIXED_LENGTHS = (7, 7, 7, 10, 9)

    @pytest.mark.parametrize("kv_mode", KV_MODES)
    @pytest.mark.parametrize("paged", [False, True], ids=["unpaged", "paged"])
    def test_exact_and_padded_buckets_match_per_request(
        self, model, kv_mode, paged
    ):
        rng = np.random.default_rng(31)
        prompts = [
            rng.integers(0, 256, size=length) for length in self.MIXED_LENGTHS
        ]
        factory = make_factory(model, kv_mode, paged)
        grouped = decode_batch_logits(
            model, factory, prompts, steps=5, dispatcher=BucketedAttention()
        )
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
        factory = make_cache_factory(llama, kv_mode, 8)
        grouped = decode_batch_logits(
            llama, factory, prompts, steps=4, dispatcher=BucketedAttention()
        )
        factory = make_cache_factory(llama, kv_mode, 8)
        per_request = per_request_logits(llama, factory, prompts, steps=4)
        for ours, reference in zip(grouped, per_request):
            assert bitwise_equal(ours, reference)

    def test_singleton_buckets_stay_on_oracle_path(self, model):
        # All-distinct lengths: every bucket is a singleton, so the
        # grouped path must make zero grouped launches — each request
        # goes through _attention_core exactly as decoding it alone.
        rng = np.random.default_rng(41)
        prompts = [rng.integers(0, 256, size=length) for length in (3, 12, 25)]
        factory = make_cache_factory(model, "fp16", 8)
        before = ATTENTION_STATS.snapshot()
        grouped = decode_batch_logits(
            model, factory, prompts, steps=3, dispatcher=BucketedAttention(0.0)
        )
        dispatches, grouped_requests, padded = (
            after - base for after, base in zip(ATTENTION_STATS.snapshot(), before)
        )
        assert grouped_requests == 0 and padded == 0
        factory = make_cache_factory(model, "fp16", 8)
        per_request = per_request_logits(model, factory, prompts, steps=3)
        for ours, reference in zip(grouped, per_request):
            assert bitwise_equal(ours, reference)

    @pytest.mark.parametrize(
        "lengths,buckets",
        [((6,) * 8, 1), ((3, 12, 25), 3)],
        ids=["exact", "singletons"],
    )
    def test_grouped_dispatch_counts_are_buckets_not_batch(
        self, model, lengths, buckets
    ):
        rng = np.random.default_rng(43)
        prompts = [rng.integers(0, 256, size=length) for length in lengths]
        factory = make_cache_factory(model, "fp16", 8)
        caches = [factory() for _ in prompts]
        for prompt, request in zip(prompts, caches):
            model.forward_step(prompt.reshape(1, -1), request)
        token = np.full((len(prompts), 1), 5)
        before = ATTENTION_STATS.dispatches
        model.forward_decode_batch(token, caches, BucketedAttention(0.0))
        launches = ATTENTION_STATS.dispatches - before
        assert launches == len(model.blocks) * buckets

    def test_length_mismatch_rejected(self, model):
        # A plan computed from stale lengths must fail loudly, not
        # read the wrong rows.
        factory = make_cache_factory(model, "fp16", 8)
        caches = factory()
        model.forward_step(np.arange(6).reshape(1, -1), caches)
        attention = model.blocks[0].attention
        dispatcher = BucketedAttention()
        plan = dispatcher.plan([3])  # cache actually holds 6
        views = [layer_cache.view() for layer_cache in caches[:1]]
        q = np.zeros((1, attention.n_heads, 1, attention.head_dim))
        with pytest.raises(ModelError, match="KV length"):
            dispatcher.run_bucket(attention, plan.buckets[0], q, views, caches[:1])


    def test_decodes_require_a_dispatcher(self, model):
        # One decode lane: the mixed step refuses decodes without a
        # dispatcher before its chunk lane touches any cache.
        factory = make_cache_factory(model, "fp16", 8)
        chunk, decode = factory(), factory()
        model.forward_step(np.arange(4).reshape(1, -1), decode)
        with pytest.raises(ModelError, match="dispatcher"):
            model.forward_mixed_step(
                [np.arange(3)], [chunk], np.full((1, 1), 3), [decode]
            )
        assert chunk[0].length == 0 and decode[0].length == 4


class TestWorkspaceReuse:
    def run_steps(self, model, dispatcher, caches, token, steps):
        deltas = []
        for _ in range(steps):
            before = HOT_PATH_STATS.copy_bytes
            model.forward_decode_batch(token, caches, dispatcher=dispatcher)
            deltas.append(HOT_PATH_STATS.copy_bytes - before)
        return deltas

    def test_steady_state_syncs_only_the_appended_tail(self, model):
        # Same membership across steps: the first step syncs the full
        # history, the second crosses a capacity doubling (the initial
        # allocation lands exactly at the first length), and every
        # later step copies one position per member — a single
        # constant, the O(new tokens) hot-path contract.
        rng = np.random.default_rng(47)
        prompts = [rng.integers(0, 256, size=20) for _ in range(4)]
        factory = make_cache_factory(model, "fp16", 8)
        caches = [factory() for _ in prompts]
        for prompt, request in zip(prompts, caches):
            model.forward_step(prompt.reshape(1, -1), request)
        dispatcher = BucketedAttention()
        token = np.full((len(prompts), 1), 3)
        first, growth, *steady = self.run_steps(model, dispatcher, caches, token, 8)
        assert len(set(steady)) == 1
        assert 0 < steady[0] < first
        assert steady[0] < growth  # the doubling copy is not the norm
        assert len(dispatcher._workspaces) == len(model.blocks)

    def test_membership_change_starts_a_fresh_workspace(self, model):
        factory = make_cache_factory(model, "fp16", 8)
        first = [factory() for _ in range(2)]
        second = [factory() for _ in range(2)]
        for request in (*first, *second):
            model.forward_step(np.arange(5).reshape(1, -1), request)
        dispatcher = BucketedAttention()
        token = np.full((2, 1), 3)
        model.forward_decode_batch(token, first, dispatcher=dispatcher)
        assert len(dispatcher._workspaces) == len(model.blocks)
        model.forward_decode_batch(token, second, dispatcher=dispatcher)
        # New uid tuples -> new workspaces; the old membership was
        # live in the previous step, so it survives this step's sweep...
        assert len(dispatcher._workspaces) == 2 * len(model.blocks)
        model.forward_decode_batch(token, second, dispatcher=dispatcher)
        # ...and is freed by the next one.
        second_keys = {
            tuple(request[layer].uid for request in second)
            for layer in range(len(model.blocks))
        }
        assert set(dispatcher._workspaces) == second_keys

    def test_batch_draining_to_one_frees_the_pair_workspace(self, model):
        # A singleton batch plans one singleton bucket (no workspace),
        # and is still a step boundary: the pair's workspace goes the
        # step after it was last used, not whenever a batch of two next
        # shows up.
        factory = make_cache_factory(model, "fp16", 8)
        caches = [factory() for _ in range(2)]
        for request in caches:
            model.forward_step(np.arange(5).reshape(1, -1), request)
        dispatcher = BucketedAttention()
        model.forward_decode_batch(np.full((2, 1), 3), caches, dispatcher=dispatcher)
        assert len(dispatcher._workspaces) == len(model.blocks)
        survivor = caches[:1]
        token = np.full((1, 1), 3)
        model.forward_decode_batch(token, survivor, dispatcher=dispatcher)
        model.forward_decode_batch(token, survivor, dispatcher=dispatcher)
        assert not dispatcher._workspaces

    def test_clear_drops_everything_and_resyncs_bitwise(self, model):
        factory = make_cache_factory(model, "fp16", 8)
        caches = [factory() for _ in range(2)]
        twins = [factory() for _ in range(2)]
        for request in (*caches, *twins):
            model.forward_step(np.arange(5).reshape(1, -1), request)
        dispatcher, untouched = BucketedAttention(), BucketedAttention()
        token = np.full((2, 1), 3)
        model.forward_decode_batch(token, caches, dispatcher=dispatcher)
        model.forward_decode_batch(token, twins, dispatcher=untouched)
        dispatcher.clear()
        assert not dispatcher._workspaces
        assert bitwise_equal(
            model.forward_decode_batch(token, caches, dispatcher=dispatcher),
            model.forward_decode_batch(token, twins, dispatcher=untouched),
        )

    def test_sweep_bounds_the_table_under_churn(self, model):
        # Every step brings a brand-new membership: residency never
        # exceeds the live step's workspaces plus the previous step's.
        factory = make_cache_factory(model, "fp16", 8)
        dispatcher = BucketedAttention()
        token = np.full((2, 1), 3)
        for _ in range(6):
            caches = [factory() for _ in range(2)]
            for request in caches:
                model.forward_step(np.arange(4).reshape(1, -1), request)
            model.forward_decode_batch(token, caches, dispatcher=dispatcher)
            assert len(dispatcher._workspaces) <= 2 * len(model.blocks)

    def test_run_bucket_without_plan_keeps_its_workspace(self, model):
        # Direct callers (the ledger's bucket probe) never plan(): the
        # launch must work, reuse one workspace, and match the planned
        # dispatcher bitwise.
        factory = make_cache_factory(model, "fp16", 8)
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
        unplanned = BucketedAttention()
        bucket = plan_buckets([6, 6, 6]).buckets[0]
        first = unplanned.run_bucket(attention, bucket, q, views, caches)
        again = unplanned.run_bucket(attention, bucket, q, views, caches)
        assert len(unplanned._workspaces) == 1
        planned = BucketedAttention()
        reference = planned.run_bucket(
            attention, planned.plan([6, 6, 6]).buckets[0], q, views, caches
        )
        assert bitwise_equal(first, reference) and bitwise_equal(again, reference)

    def test_reserved_members_size_the_workspace_once(self, model):
        # Paged sequences carrying a reservation: the workspace is
        # allocated at the smallest member reservation and the steady
        # state pays the tail sync only — no growth copy, ever.
        pool = KVPool(
            model.config, num_blocks=64, block_size=4, enable_prefix_cache=False
        )
        caches = [
            pool.create_sequence(np.arange(20), reserved=20 + extra).caches
            for extra in (12, 16)
        ]
        for request in caches:
            model.forward_step(np.arange(20).reshape(1, -1), request)
        dispatcher = BucketedAttention()
        token = np.full((2, 1), 3)
        first, *steady = self.run_steps(model, dispatcher, caches, token, 8)
        assert len(set(steady)) == 1 and 0 < steady[0] < first
        for workspace in dispatcher._workspaces.values():
            assert workspace.keys.shape[2] == 32
            assert workspace.values.dtype == np.float64


class TestEngineGrouped:
    @pytest.mark.parametrize("kv_mode", KV_MODES)
    def test_engine_grouped_tokens_match_sequential_generate(self, model, kv_mode):
        rng = np.random.default_rng(53)
        # Equal-length prompts decode at equal KV lengths: one exact
        # bucket per step, the engine's steady state.
        prompts = [rng.integers(0, 256, size=8) for _ in range(5)]
        fmt = KVFormat(mode=kv_mode, mantissa_bits=6)
        engine = Engine(model, EngineConfig(kv_format=fmt))
        results = serve(model, prompts, max_new_tokens=8, engine=engine)
        assert_matches_generate(model, prompts, results, 8, fmt)
        assert engine.metrics().attention_grouped_requests > 0

    def test_padded_buckets_report_padded_reads(self, model):
        rng = np.random.default_rng(59)
        # Near-equal prompt lengths leave near-equal decode lengths:
        # the planner merges them into padded buckets, and the waste
        # must surface in the metrics (and, via traffic accounting,
        # in simulated KV-read bytes).
        prompts = [rng.integers(0, 256, size=size) for size in (30, 29, 28)]
        engine = Engine(model)
        results = serve(model, prompts, max_new_tokens=6, engine=engine)
        metrics = engine.metrics()
        assert metrics.attention_grouped_requests > 0
        assert metrics.attention_padded_reads > 0
        assert_matches_generate(model, prompts, results, 6)

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

    def test_every_decode_step_dispatches_layers_times_buckets(self, model):
        # The structural dispatch gate: on a mixed-length run (exact,
        # padded and singleton buckets, requests joining and leaving),
        # each step launches one attention pipeline per (layer, bucket)
        # of its decode plan — singletons included — plus one per
        # (layer, prefill chunk).
        rng = np.random.default_rng(71)
        lengths = (7, 7, 7, 10, 9, 3, 25, 16)
        prompts = [rng.integers(0, 256, size=length) for length in lengths]
        engine = Engine(model, EngineConfig(max_batch_tokens=32))
        plans = []
        planner = engine._dispatcher.plan

        def recording_plan(step_lengths):
            plans.append(planner(step_lengths))
            return plans[-1]

        engine._dispatcher.plan = recording_plan
        counts = [4 + index % 5 for index in range(len(prompts))]
        handles = [
            engine.submit(prompt, max_new_tokens=count)
            for prompt, count in zip(prompts, counts)
        ]
        n_layers = len(model.blocks)
        sizes = set()
        while engine.has_work():
            planned = len(plans)
            report = engine.step().report
            step_plans = plans[planned:]
            assert len(step_plans) == (1 if report.decodes else 0)
            buckets = sum(plan.num_buckets for plan in step_plans)
            sizes.update(b.size for plan in step_plans for b in plan.buckets)
            assert report.attention_dispatches == n_layers * (buckets + report.prefills)
        assert 1 in sizes and max(sizes) > 1  # singletons and groups both ran
        for handle, prompt, count in zip(handles, prompts, counts):
            expected = generate(model, prompt, count)
            np.testing.assert_array_equal(handle.result().tokens, expected.tokens)

    def test_drained_engine_holds_no_workspaces(self, model):
        # No request left decoding means no next decode step to sweep:
        # the engine clears the dispatcher itself, on finish and abort.
        rng = np.random.default_rng(67)
        prompts = [rng.integers(0, 256, size=8) for _ in range(3)]
        engine = Engine(model)
        handles = [engine.submit(prompt, max_new_tokens=6) for prompt in prompts]
        while not engine._dispatcher._workspaces:
            engine.step()
        for handle in handles:
            assert engine.abort(handle.request_id)
        assert not engine._dispatcher._workspaces
        serve(model, prompts, max_new_tokens=4, engine=engine)
        assert engine.metrics().attention_grouped_requests > 0
        assert not engine._dispatcher._workspaces

    def test_pad_waste_config_validated(self):
        with pytest.raises(ModelError):
            EngineConfig(attention_pad_waste=1.0)
        with pytest.raises(ModelError):
            EngineConfig(attention_pad_waste=-0.5)
