"""Chaos property suite: random fault plans never corrupt survivors.

Hypothesis draws a workload (prompt set), a seeded :class:`FaultPlan`,
a KV format (fp16 or anda), a pool size and a chunk budget — the pool
small enough to preempt, the budget small enough to chunk — runs it
next to a fault-free twin engine, and pins the failure-isolation
invariants:

* every request the faults did **not** fail is token-bitwise identical
  to the twin (retried and preempted requests included — a request
  that has emitted tokens swaps its stored KV out and back in, bitwise,
  and one that has not re-prefills);
* the paged pool leaks zero blocks after drain, whatever state faults
  interrupted (mid-chunk, mid-decode, group gather/compress);
* the engine stays serviceable: work submitted after the faults
  completes bitwise;
* accounting is exact: every injected fault is either a retry or a
  failure (``fired_total == fault_retries + failed``).

The abort/fault race tests pin the sharpest aliasing case
deterministically: a fault into a request whose prefix blocks are
shared (refcounted, not copied) with live siblings, racing an abort of
another sibling, in both submission orders.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.llm.config import tiny_test_config
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.serve import (
    Engine,
    EngineConfig,
    FaultPlan,
    FaultRule,
    RequestStatus,
    RetryPolicy,
    SamplingParams,
)
from repro.serve.faults import SITES


@pytest.fixture(scope="module")
def model():
    return build_model(tiny_test_config("opt", d_model=32, n_layers=2))


PARAMS = SamplingParams(max_new_tokens=5)


def make_config(fmt, plan=None, kv_pool_blocks=128, max_batch_tokens=24):
    return EngineConfig(
        kv_format=fmt,
        faults=plan,
        retry=RetryPolicy(max_retries=2, backoff_steps=1),
        kv_pool_blocks=kv_pool_blocks,
        kv_block_size=4,
        max_batch_tokens=max_batch_tokens,
    )


def run_batch(model, prompts, config):
    engine = Engine(model, config)
    handles = [engine.submit(prompt, PARAMS) for prompt in prompts]
    engine.run_until_idle(max_steps=1000)
    return engine, handles


def rules_strategy():
    targeted = st.fixed_dictionaries(
        {
            "site": st.sampled_from(SITES),
            "kind": st.sampled_from(["transient", "permanent"]),
            "request_id": st.integers(min_value=0, max_value=2),
            "max_fires": st.integers(min_value=1, max_value=2),
        }
    )
    stepped = st.fixed_dictionaries(
        {
            "site": st.sampled_from(SITES),
            "kind": st.sampled_from(["transient", "permanent"]),
            "step": st.integers(min_value=0, max_value=5),
            "max_fires": st.just(1),
        }
    )
    probabilistic = st.fixed_dictionaries(
        {
            "site": st.sampled_from(SITES),
            "kind": st.sampled_from(["transient", "permanent"]),
            "probability": st.sampled_from([0.5, 1.0]),
            "max_fires": st.integers(min_value=1, max_value=2),
        }
    )
    return st.lists(
        st.one_of(targeted, stepped, probabilistic), min_size=1, max_size=2
    )


@st.composite
def chaos_case(draw):
    lengths = draw(
        st.lists(st.integers(min_value=3, max_value=20), min_size=2, max_size=4)
    )
    return {
        "lengths": lengths,
        "prompt_seed": draw(st.integers(min_value=0, max_value=2**16)),
        "rules": draw(rules_strategy()),
        "plan_seed": draw(st.integers(min_value=0, max_value=2**16)),
        # 12 blocks of 4 hold one full-length request (25 positions);
        # a budget of 8 chunks every prompt longer than it.
        "kv_pool_blocks": draw(st.sampled_from([12, 32, 128])),
        "max_batch_tokens": draw(st.sampled_from([8, 24, 64])),
        "anda": draw(st.booleans()),
    }


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=chaos_case())
def test_faults_never_corrupt_survivors(model, case):
    rng = np.random.default_rng(case["prompt_seed"])
    vocab = model.config.vocab_size
    prompts = [rng.integers(0, vocab, size=n) for n in case["lengths"]]
    fmt = KVFormat.anda(8) if case["anda"] else None
    plan = FaultPlan(
        rules=tuple(FaultRule(**rule) for rule in case["rules"]),
        seed=case["plan_seed"],
    )

    sizes = {
        "kv_pool_blocks": case["kv_pool_blocks"],
        "max_batch_tokens": case["max_batch_tokens"],
    }
    twin_engine, twin_handles = run_batch(model, prompts, make_config(fmt, **sizes))
    twin = [handle.result().tokens for handle in twin_handles]

    engine, handles = run_batch(model, prompts, make_config(fmt, plan, **sizes))

    # Every request reached a terminal state.
    for handle in handles:
        assert handle.status() in (RequestStatus.FINISHED, RequestStatus.FAILED)

    # Non-faulted (and retried-to-completion) requests are bitwise.
    for index, handle in enumerate(handles):
        if handle.status() is RequestStatus.FINISHED:
            np.testing.assert_array_equal(handle.result().tokens, twin[index])

    # No block leaks whatever state the faults interrupted.
    assert engine._pool.leaked_blocks() == 0

    # Exact accounting: each injected fault was retried or failed.
    metrics = engine.metrics()
    assert (
        engine.fault_injector.fired_total
        == metrics.fault_retries + metrics.failed
    )

    # The engine still serves: post-fault work completes bitwise (the
    # plan's rules are spent or past their step by now, but even a
    # still-live rule would only fail the new request, not wedge the
    # engine — run_until_idle would then surface a stuck queue).
    probe_prompt = rng.integers(0, vocab, size=7)
    twin_extra = twin_engine.submit(probe_prompt, PARAMS)
    twin_engine.run_until_idle(max_steps=1000)
    extra = engine.submit(probe_prompt, PARAMS)
    engine.run_until_idle(max_steps=1000)
    if extra.status() is RequestStatus.FINISHED:
        np.testing.assert_array_equal(
            extra.result().tokens, twin_extra.result().tokens
        )
    assert engine._pool.leaked_blocks() == 0


class TestAbortFaultRaces:
    """Faults into prefix-sharing requests racing aborts of siblings."""

    def sibling_prompts(self, model, order_flipped):
        rng = np.random.default_rng(11)
        vocab = model.config.vocab_size
        shared = rng.integers(0, vocab, size=32)
        tails = [rng.integers(0, vocab, size=n) for n in (4, 7, 5)]
        prompts = [np.concatenate([shared, tail]) for tail in tails]
        return prompts[::-1] if order_flipped else prompts

    @pytest.mark.parametrize("order_flipped", [False, True])
    @pytest.mark.parametrize("victim", [0, 1])
    def test_fault_into_shared_prefix_leaves_siblings_bitwise(
        self, model, order_flipped, victim
    ):
        prompts = self.sibling_prompts(model, order_flipped)
        _, twin_handles = run_batch(model, prompts, make_config(None))
        twin = [handle.result().tokens for handle in twin_handles]

        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="model.decode",
                    kind="permanent",
                    request_id=victim,
                ),
            )
        )
        engine, handles = run_batch(model, prompts, make_config(None, plan))
        assert handles[victim].status() is RequestStatus.FAILED
        for index, handle in enumerate(handles):
            if index != victim:
                np.testing.assert_array_equal(
                    handle.result().tokens, twin[index]
                )
        assert engine._pool.leaked_blocks() == 0

    @pytest.mark.parametrize("order_flipped", [False, True])
    def test_abort_races_fault_on_shared_blocks(self, model, order_flipped):
        # Request 0 faults at step 3 while request 1 is aborted at step
        # 4; request 2 — sharing the same prefix blocks as both — must
        # come out bitwise, and nothing may leak.
        prompts = self.sibling_prompts(model, order_flipped)
        _, twin_handles = run_batch(model, prompts, make_config(None))
        twin = [handle.result().tokens for handle in twin_handles]

        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="model.decode",
                    kind="permanent",
                    request_id=0,
                    step=3,
                ),
            )
        )
        engine = Engine(model, make_config(None, plan))
        handles = [engine.submit(prompt, PARAMS) for prompt in prompts]
        for step in range(5):
            if step == 4:
                handles[1].abort()
            engine.step()
        engine.run_until_idle(max_steps=1000)
        assert handles[0].status() is RequestStatus.FAILED
        assert handles[1].status() is RequestStatus.ABORTED
        np.testing.assert_array_equal(handles[2].result().tokens, twin[2])
        assert engine._pool.leaked_blocks() == 0
