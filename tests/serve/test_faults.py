"""Failure semantics: fault injection, quarantine, retry, deadlines.

The fault-tolerance acceptance bar, pinned deterministically (the
randomized sweep lives in ``test_chaos.py``):

* a :class:`FaultPlan` is validated declarative data, and a
  :class:`FaultInjector` evaluates it reproducibly — the same plan and
  seed fire at exactly the same probes;
* a permanent fault quarantines exactly its request: terminal FAILED
  status, ``finish_reason="error"``, a typed
  :class:`RequestFailedError` from ``result()`` carrying the original
  fault, batchmates bitwise-identical to a fault-free run;
* a transient fault retries with bounded backoff and the retried
  request's tokens stay bitwise identical (a request that has emitted
  tokens swaps its stored KV out and back in); exhausting the retry
  budget quarantines;
* deadlines are enforced at step boundaries and surface as
  :class:`DeadlineExceededError`;
* KV-pool pressure sheds or format-degrades new admissions without
  touching requests already in flight;
* every failure is accounted: engine counters, the Prometheus
  exposition, tracer lifecycle instants, and the drain stuck-message
  detail all agree.
"""

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    ModelError,
    RequestError,
    RequestFailedError,
)
from repro.llm.config import tiny_test_config
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.serve import (
    Engine,
    EngineConfig,
    FaultInjector,
    FaultPlan,
    FaultRule,
    PermanentFault,
    PressurePolicy,
    RequestStatus,
    RetryPolicy,
    SamplingParams,
    TransientFault,
)
from repro.serve.faults import SITES
from repro.serve.telemetry import TelemetryConfig, request_track


@pytest.fixture(scope="module")
def model():
    return build_model(tiny_test_config("opt", d_model=32, n_layers=2))


@pytest.fixture(scope="module")
def prompts(model):
    rng = np.random.default_rng(42)
    vocab = model.config.vocab_size
    return [rng.integers(0, vocab, size=n) for n in (5, 11, 3)]


PARAMS = SamplingParams(max_new_tokens=6)


def run_engine(model, prompts, config, params=PARAMS):
    engine = Engine(model, config)
    handles = [engine.submit(prompt, params) for prompt in prompts]
    engine.run_until_idle(max_steps=500)
    return engine, handles


@pytest.fixture(scope="module")
def baseline(model, prompts):
    _, handles = run_engine(model, prompts, EngineConfig())
    return [handle.result().tokens for handle in handles]


class TestPlanValidation:
    def test_rule_rejects_bad_fields(self):
        with pytest.raises(ModelError):
            FaultRule(site="")
        with pytest.raises(ModelError):
            FaultRule(site="model.decode", kind="flaky")
        with pytest.raises(ModelError):
            FaultRule(site="model.decode", step=-1)
        with pytest.raises(ModelError):
            FaultRule(site="model.decode", probability=1.5)
        with pytest.raises(ModelError):
            FaultRule(site="model.decode", max_fires=0)

    def test_plan_rejects_non_rules(self):
        with pytest.raises(ModelError):
            FaultPlan(rules=("not a rule",))

    def test_retry_policy_backoff_schedule(self):
        policy = RetryPolicy(max_retries=4, backoff_steps=2, max_backoff_steps=5)
        assert policy.delay_steps(0) == 0
        assert policy.delay_steps(1) == 2
        assert policy.delay_steps(2) == 4
        assert policy.delay_steps(3) == 5  # capped
        assert RetryPolicy(backoff_steps=0).delay_steps(3) == 0

    def test_pressure_policy_validation(self):
        with pytest.raises(ModelError):
            PressurePolicy(shed_below_free_fraction=-0.1)
        with pytest.raises(ModelError):
            PressurePolicy(degrade_below_free_fraction=0.5)  # no format
        assert not PressurePolicy().active
        assert PressurePolicy(shed_below_free_fraction=0.1).active

    def test_sampling_params_deadline_validation(self):
        with pytest.raises(RequestError):
            SamplingParams(max_new_tokens=2, deadline_s=0.0)
        with pytest.raises(RequestError):
            SamplingParams(max_new_tokens=2, deadline_s=-1.0)

    def test_engine_config_validates_fault_types(self):
        with pytest.raises(ModelError):
            EngineConfig(faults="plan")
        with pytest.raises(ModelError):
            EngineConfig(retry=None)
        with pytest.raises(ModelError):
            EngineConfig(pressure=42)


class TestInjectorDeterminism:
    def fire_pattern(self, plan, probes=100):
        injector = FaultInjector(plan)
        pattern = []
        for step in range(probes):
            injector.begin_step(step)
            try:
                injector.probe("model.decode", request_id=0)
                pattern.append(False)
            except (TransientFault, PermanentFault):
                pattern.append(True)
        return pattern

    def test_same_seed_same_fires(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="model.decode", probability=0.5, max_fires=None
                ),
            ),
            seed=7,
        )
        assert self.fire_pattern(plan) == self.fire_pattern(plan)

    def test_different_seed_different_fires(self):
        rule = FaultRule(site="model.decode", probability=0.5, max_fires=None)
        a = self.fire_pattern(FaultPlan(rules=(rule,), seed=0))
        b = self.fire_pattern(FaultPlan(rules=(rule,), seed=1))
        assert a != b

    def test_max_fires_caps_and_counters_account(self):
        plan = FaultPlan(
            rules=(FaultRule(site="model.decode", max_fires=3),)
        )
        pattern = self.fire_pattern(plan)
        assert sum(pattern) == 3
        assert pattern[:3] == [True, True, True]

    def test_step_and_request_gating(self):
        plan = FaultPlan(
            rules=(FaultRule(site="model.decode", step=2, request_id=1),)
        )
        injector = FaultInjector(plan)
        injector.begin_step(2)
        injector.probe("model.decode", request_id=0)  # wrong request
        injector.probe("model.decode", request_id=None)  # unattributed
        injector.begin_step(1)
        injector.probe("model.decode", request_id=1)  # wrong step
        assert injector.fired_total == 0
        injector.begin_step(2)
        with pytest.raises(TransientFault):
            injector.probe("model.decode", request_id=1)
        assert injector.fired_total == 1
        assert injector.fired_by_site == {"model.decode": 1}

    def test_wildcard_site_matches_everything(self):
        plan = FaultPlan(rules=(FaultRule(site="*", max_fires=len(SITES)),))
        injector = FaultInjector(plan)
        for site in SITES:
            with pytest.raises(TransientFault):
                injector.probe(site)
        assert injector.fired_total == len(SITES)

    def test_fault_carries_site_and_attribution(self):
        plan = FaultPlan(
            rules=(FaultRule(site="codec.encode", kind="permanent"),)
        )
        injector = FaultInjector(plan)
        with pytest.raises(PermanentFault) as info:
            injector.probe("codec.encode", request_id=5)
        assert info.value.site == "codec.encode"
        assert info.value.request_id == 5
        assert info.value.rule_index == 0


class TestQuarantine:
    def test_permanent_fault_fails_only_its_request(
        self, model, prompts, baseline
    ):
        plan = FaultPlan(
            rules=(
                FaultRule(site="model.decode", kind="permanent", request_id=1),
            )
        )
        engine, handles = run_engine(
            model, prompts, EngineConfig(faults=plan)
        )
        assert handles[1].status() is RequestStatus.FAILED
        assert handles[1].failed
        assert isinstance(handles[1].failure(), PermanentFault)
        for index in (0, 2):
            np.testing.assert_array_equal(
                handles[index].result().tokens, baseline[index]
            )
        metrics = engine.metrics()
        assert metrics.failed == 1
        assert metrics.fault_retries == 0
        assert engine.fault_injector.fired_total == 1

    def test_result_raises_typed_error_with_original_fault(
        self, model, prompts
    ):
        plan = FaultPlan(
            rules=(
                FaultRule(site="model.decode", kind="permanent", request_id=0),
            )
        )
        _, handles = run_engine(model, prompts, EngineConfig(faults=plan))
        with pytest.raises(RequestFailedError) as info:
            handles[0].result()
        assert isinstance(info.value.fault, PermanentFault)
        assert info.value.__cause__ is info.value.fault
        assert "error" in str(info.value)

    def test_engine_serves_new_work_after_quarantine(
        self, model, prompts, baseline
    ):
        plan = FaultPlan(
            rules=(
                FaultRule(site="model.decode", kind="permanent", request_id=0),
            )
        )
        engine, handles = run_engine(
            model, prompts, EngineConfig(faults=plan)
        )
        assert handles[0].failed
        fresh = engine.submit(prompts[0], PARAMS)
        engine.run_until_idle(max_steps=500)
        np.testing.assert_array_equal(fresh.result().tokens, baseline[0])

    def test_paged_quarantine_leaks_no_blocks(self, model, prompts):
        plan = FaultPlan(
            rules=(
                FaultRule(site="paged.gather", kind="permanent", step=2),
            )
        )
        engine, handles = run_engine(
            model,
            prompts,
            EngineConfig(faults=plan, kv_pool_blocks=256),
        )
        assert any(handle.failed for handle in handles)
        assert engine._pool.leaked_blocks() == 0

    def test_abort_of_failed_request_is_noop(self, model, prompts):
        plan = FaultPlan(
            rules=(FaultRule(site="admission", kind="permanent", request_id=0),)
        )
        engine = Engine(model, EngineConfig(faults=plan))
        handle = engine.submit(prompts[0], PARAMS)
        assert handle.failed
        assert engine.abort(0) is False


class TestTransientRetry:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"kv_pool_blocks": 256, "kv_block_size": 4},
            {"max_batch_tokens": 4},
        ],
        ids=["default", "blocks4x256", "budget4"],
    )
    def test_retried_request_stays_bitwise(
        self, model, prompts, baseline, overrides
    ):
        plan = FaultPlan(
            rules=(
                FaultRule(site="model.decode", kind="transient", request_id=1),
            )
        )
        engine, handles = run_engine(
            model,
            prompts,
            EngineConfig(faults=plan, retry=RetryPolicy(max_retries=2), **overrides),
        )
        for index in range(3):
            np.testing.assert_array_equal(
                handles[index].result().tokens, baseline[index]
            )
        metrics = engine.metrics()
        assert metrics.failed == 0
        assert metrics.fault_retries == 1
        assert engine.fault_injector.fired_total == 1
        assert engine._pool.leaked_blocks() == 0

    def test_exhausted_retries_quarantine(self, model, prompts):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="model.decode",
                    kind="transient",
                    request_id=0,
                    max_fires=10,
                ),
            )
        )
        engine, handles = run_engine(
            model, prompts, EngineConfig(faults=plan, retry=RetryPolicy(max_retries=1))
        )
        assert handles[0].status() is RequestStatus.FAILED
        metrics = engine.metrics()
        assert metrics.fault_retries == 1
        assert metrics.failed == 1
        assert engine.fault_injector.fired_total == 2

    def test_admission_fault_transient_retries_to_completion(
        self, model, prompts, baseline
    ):
        plan = FaultPlan(
            rules=(FaultRule(site="admission", kind="transient", request_id=0),)
        )
        engine, handles = run_engine(
            model, prompts, EngineConfig(faults=plan)
        )
        np.testing.assert_array_equal(handles[0].result().tokens, baseline[0])
        assert engine.metrics().fault_retries == 1


class TestDeadlines:
    def test_expired_deadline_fails_with_typed_error(self, model, prompts):
        params = SamplingParams(max_new_tokens=6, deadline_s=1e-9)
        engine, handles = run_engine(model, prompts[:1], EngineConfig(), params)
        assert handles[0].status() is RequestStatus.FAILED
        with pytest.raises(RequestFailedError) as info:
            handles[0].result()
        assert isinstance(info.value.fault, DeadlineExceededError)
        metrics = engine.metrics()
        assert metrics.deadline_expired == 1
        assert metrics.failed == 1

    def test_generous_deadline_changes_nothing(self, model, prompts, baseline):
        params = SamplingParams(max_new_tokens=6, deadline_s=3600.0)
        _, handles = run_engine(model, prompts, EngineConfig(), params)
        for index in range(3):
            np.testing.assert_array_equal(
                handles[index].result().tokens, baseline[index]
            )


class TestPressure:
    def occupied_engine(self, model, prompts, pressure):
        engine = Engine(
            model,
            EngineConfig(kv_pool_blocks=16, pressure=pressure),
        )
        first = engine.submit(prompts[0], PARAMS)
        for _ in range(3):
            engine.step()
        return engine, first

    def test_degrade_downgrades_new_admissions_only(self, model, prompts):
        pressure = PressurePolicy(
            degrade_below_free_fraction=0.95,
            degraded_format=KVFormat.anda(4),
        )
        engine, first = self.occupied_engine(model, prompts, pressure)
        second = engine.submit(prompts[1], PARAMS)
        engine.run_until_idle(max_steps=500)
        metrics = engine.metrics()
        assert metrics.degraded == 1
        assert metrics.shed == 0
        assert first.result().tokens is not None
        assert second.result().tokens is not None
        assert engine._pool.leaked_blocks() == 0

    def test_explicit_format_is_never_degraded(self, model, prompts):
        pressure = PressurePolicy(
            degrade_below_free_fraction=0.95,
            degraded_format=KVFormat.anda(4),
        )
        engine, _ = self.occupied_engine(model, prompts, pressure)
        engine.submit(
            prompts[1],
            SamplingParams(max_new_tokens=6, kv_format=KVFormat.fp16()),
        )
        engine.run_until_idle(max_steps=500)
        assert engine.metrics().degraded == 0

    def test_mismatched_degraded_format_fails_at_construction(self, model):
        # A bad config must fail when the engine is built, not inside a
        # later submit() that happens to degrade.
        pressure = PressurePolicy(
            degrade_below_free_fraction=1.0,
            degraded_format=KVFormat.per_layer([KVFormat.anda(4)] * 3),
        )
        with pytest.raises(ModelError, match="covers 3 layers, model has 2"):
            Engine(model, EngineConfig(kv_pool_blocks=16, pressure=pressure))

    def test_shed_fails_fast_without_exception(self, model, prompts):
        pressure = PressurePolicy(shed_below_free_fraction=0.95)
        engine, first = self.occupied_engine(model, prompts, pressure)
        second = engine.submit(prompts[1], PARAMS)
        assert second.status() is RequestStatus.FAILED
        with pytest.raises(RequestFailedError) as info:
            second.result()
        assert "shed" in str(info.value)
        assert info.value.fault is None
        engine.run_until_idle(max_steps=500)
        assert engine.metrics().shed == 1
        assert first.result().tokens is not None
        assert engine._pool.leaked_blocks() == 0


class TestStepReportCounts:
    """A faulted step's report counts exactly the work that committed."""

    def test_late_wave_fault_keeps_first_wave_decodes(self, model):
        # Request 0 decodes while requests 1 and 2 prefill; 2 shares a
        # whole 4-position block with 1, so it is deferred to a second
        # wave.  A fault in that wave abandons the rest of the step, but
        # request 0's decode row already emitted in wave one.
        rng = np.random.default_rng(7)
        vocab = model.config.vocab_size
        shared = rng.integers(0, vocab, size=8)
        late = [
            np.concatenate([shared, rng.integers(0, vocab, size=3)])
            for _ in range(2)
        ]
        plan = FaultPlan(
            rules=(FaultRule(site="paged.gather", request_id=2, step=2),)
        )
        config = EngineConfig(faults=plan, kv_block_size=4)
        engine = Engine(model, config)
        engine.submit(rng.integers(0, vocab, size=5), PARAMS)
        engine.step()
        engine.step()
        for prompt in late:
            engine.submit(prompt, PARAMS)
        outputs = engine.step()
        assert engine.fault_injector.fired_total == 1
        decoded = [delta for delta in outputs.deltas if delta.index > 0]
        assert [delta.request_id for delta in decoded] == [0]
        report = outputs.report
        assert report.decodes == 1
        assert report.new_tokens == 2
        # One decode row plus the two planned prompt chunks.
        assert report.batch_tokens == 1 + sum(len(prompt) for prompt in late)
        engine.run_until_idle(max_steps=500)
        assert engine._pool.leaked_blocks() == 0

    @pytest.mark.parametrize(
        "site, step",
        [
            # Before the swap-in takes a block.
            pytest.param("model.prefill", None, id="resume-site"),
            # After layer 0 landed: its blocks must go back.
            pytest.param("paged.gather", 3, id="mid-swap-in"),
        ],
    )
    def test_faulted_replay_is_not_counted_as_a_prefill(
        self, model, prompts, baseline, site, step
    ):
        # The decode fault backs request 0 off mid-decode with its KV
        # as an image; its swap-in then faults too and is backed off
        # again.  The image survives, the partial blocks go back, the
        # step counts no prefill, and the retry is bitwise.
        plan = FaultPlan(
            rules=(
                FaultRule(site="model.decode", request_id=0, step=2),
                FaultRule(site=site, request_id=0, step=step),
            )
        )
        engine = Engine(
            model,
            EngineConfig(
                faults=plan, retry=RetryPolicy(max_retries=3, backoff_steps=0)
            ),
        )
        handle = engine.submit(prompts[0], PARAMS)
        injector = engine.fault_injector
        pool = engine._pool
        report = None
        image = None
        for _ in range(20):
            free = pool.free_blocks
            image = handle._state.kv_image
            report = engine.step().report
            if injector.fired_by_site.get(site):
                break
        assert injector.fired_by_site == {"model.decode": 1, site: 1}
        state = handle._state
        assert handle.status() is RequestStatus.WAITING
        assert image is not None and state.kv_image is image
        assert state.kv is None and pool.free_blocks == free
        assert report.prefills == 0
        assert report.prefill_tokens == 0
        engine.run_until_idle(max_steps=500)
        np.testing.assert_array_equal(handle.result().tokens, baseline[0])
        assert engine.metrics().fault_retries == 2
        assert pool.leaked_blocks() == 0


class TestAccountingSurfaces:
    def test_drain_stuck_message_names_status_and_failure(
        self, model, prompts
    ):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="model.decode",
                    kind="transient",
                    request_id=0,
                    max_fires=None,
                ),
            )
        )
        engine = Engine(
            model,
            EngineConfig(
                faults=plan, retry=RetryPolicy(max_retries=10_000, backoff_steps=0)
            ),
        )
        engine.submit(prompts[0], PARAMS)
        with pytest.raises(ModelError) as info:
            engine.run_until_idle(max_steps=8)
        message = str(info.value)
        assert "stuck request ids: 0" in message
        assert "waiting" in message
        assert "retries" in message
        assert "TransientFault" in message

    def test_prometheus_exposes_failure_counters(self, model, prompts):
        plan = FaultPlan(
            rules=(
                FaultRule(site="model.decode", kind="permanent", request_id=0),
            )
        )
        engine, _ = run_engine(
            model,
            prompts,
            EngineConfig(faults=plan, telemetry=TelemetryConfig(trace=True)),
        )
        text = engine.telemetry.prometheus()
        assert "repro_engine_failed_total" in text
        label = engine.telemetry.engine_label
        assert f'repro_engine_failed_total{{engine="{label}"}} 1.0' in text
        for name in (
            "repro_engine_fault_retries_total",
            "repro_engine_deadline_expired_total",
            "repro_engine_shed_requests_total",
            "repro_engine_degraded_requests_total",
        ):
            assert name in text

    def test_tracer_emits_failed_and_retry_instants(self, model, prompts):
        plan = FaultPlan(
            rules=(
                FaultRule(site="model.decode", kind="transient", request_id=0),
                FaultRule(site="model.decode", kind="permanent", request_id=1),
            )
        )
        engine, handles = run_engine(
            model,
            prompts,
            EngineConfig(faults=plan, telemetry=TelemetryConfig(trace=True)),
        )
        events = engine.telemetry.tracer.events
        retry = [event for event in events if event.name == "RETRY"]
        failed = [event for event in events if event.name == "FAILED"]
        assert len(retry) == 1
        assert retry[0].track == request_track(0)
        assert len(failed) == 1
        assert failed[0].track == request_track(1)
        assert failed[0].args["reason"] == "error"
        assert handles[0].status() is RequestStatus.FINISHED
        assert handles[1].status() is RequestStatus.FAILED

    def test_failed_request_never_produces_completed_result(
        self, model, prompts
    ):
        plan = FaultPlan(
            rules=(
                FaultRule(site="model.decode", kind="permanent", request_id=1),
            )
        )
        _, handles = run_engine(model, prompts, EngineConfig(faults=plan))
        finished_ids = {handle.request_id for handle in handles if handle.finished}
        assert finished_ids == {0, 2}
        with pytest.raises(RequestFailedError):
            handles[1].result()
