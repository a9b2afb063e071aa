"""Serving telemetry: tracer, registry, exporters, engine integration.

The observability acceptance bar:

* a traced grouped-attention engine run produces a Chrome trace-event
  object that passes the schema validator (required keys, per-track
  monotonic ``ts``, LIFO-matched B/E pairs) — the same validator CI
  runs against the uploaded artifact;
* the root ``step`` span durations reproduce ``elapsed_seconds`` of
  the matching :class:`StepReport` (the span reuses the report's exact
  ``perf_counter`` readings, so the comparison is tight);
* per-request lifecycle instants agree with the handles' terminal
  statuses, including aborts and the PREFILLING transition of chunked
  prompts;
* the Prometheus exposition reproduces every ``EngineMetrics``
  counter and gauge, per engine, through the declared field tables;
* telemetry changes **no** numerics: token streams with tracing and
  step logging on are bitwise identical to a telemetry-off engine —
  and a disabled-telemetry engine records no events at all.
"""

import json
import logging
import math
from collections import Counter

import numpy as np
import pytest

from repro.errors import ModelError
from repro.llm.config import tiny_test_config
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.serve import (
    LLM,
    Engine,
    EngineConfig,
    FaultPlan,
    FaultRule,
    PressurePolicy,
    RequestStatus,
    SamplingParams,
)
from repro.serve.telemetry import (
    ENGINE_COUNTER_FIELDS,
    ENGINE_GAUGE_FIELDS,
    CounterRegistry,
    StepTracer,
    TelemetryConfig,
    chrome_trace,
    prometheus_exposition,
    request_track,
    validate_chrome_trace,
)


@pytest.fixture(scope="module")
def model():
    return build_model(tiny_test_config("opt", d_model=32, n_layers=2))


def traced_config(**overrides):
    defaults = dict(
        max_batch_size=4,
        telemetry=TelemetryConfig(trace=True),
    )
    defaults.update(overrides)
    return EngineConfig(**defaults)


def prompts_for(model, count=4, seed=3):
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_size
    return [rng.integers(0, vocab, size=5 + (index % 4)) for index in range(count)]


def run_traced_engine(model, **config_overrides):
    engine = Engine(model, traced_config(**config_overrides))
    llm = LLM(engine=engine)
    handles = [
        llm.submit(prompt, SamplingParams(max_new_tokens=6))
        for prompt in prompts_for(model)
    ]
    engine.run_until_idle(max_steps=500)
    return engine, handles


class TestCounterRegistry:
    def test_counter_inc_and_samples(self):
        registry = CounterRegistry()
        family = registry.counter("reqs_total", "requests", labels=("engine",))
        family.labels(engine="e0").inc()
        family.labels(engine="e0").inc(2.5)
        family.labels(engine="e1").inc(4)
        samples = {s.labels: s.value for s in family.samples()}
        assert samples[(("engine", "e0"),)] == 3.5
        assert samples[(("engine", "e1"),)] == 4.0

    def test_gauge_set_overwrites(self):
        registry = CounterRegistry()
        gauge = registry.gauge("depth", labels=())
        gauge.labels().set(7.0)
        gauge.labels().set(3.0)
        assert gauge.labels().value == 3.0

    def test_counter_cannot_decrease(self):
        registry = CounterRegistry()
        family = registry.counter("ticks")
        with pytest.raises(ModelError, match="cannot decrease"):
            family.labels().inc(-1)

    def test_set_is_gauge_only(self):
        registry = CounterRegistry()
        family = registry.counter("ticks")
        with pytest.raises(ModelError, match="gauge-only"):
            family.labels().set(5.0)

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ModelError, match="invalid metric name"):
            CounterRegistry().counter("9starts-with-digit")

    def test_invalid_label_name_rejected(self):
        with pytest.raises(ModelError, match="invalid label name"):
            CounterRegistry().counter("ok", labels=("not-ok",))

    def test_reregistration_must_match(self):
        registry = CounterRegistry()
        registry.counter("ticks", labels=("engine",))
        assert registry.counter("ticks", labels=("engine",)) is not None
        with pytest.raises(ModelError, match="re-registered"):
            registry.gauge("ticks", labels=("engine",))
        with pytest.raises(ModelError, match="re-registered"):
            registry.counter("ticks", labels=("other",))

    def test_wrong_label_set_rejected(self):
        family = CounterRegistry().counter("ticks", labels=("engine",))
        with pytest.raises(ModelError, match="takes labels"):
            family.labels(host="h")

    def test_collect_preserves_registration_order(self):
        registry = CounterRegistry()
        registry.counter("b_total")
        registry.gauge("a_depth")
        assert [f.name for f in registry.collect()] == ["b_total", "a_depth"]


class TestTelemetryConfig:
    def test_log_every_must_be_positive(self):
        with pytest.raises(ModelError, match="log_every"):
            TelemetryConfig(log_every=0)


class TestStepTracer:
    def test_span_records_matched_pair(self):
        tracer = StepTracer()
        with tracer.span("phase", detail=3):
            pass
        begin, end = tracer.events
        assert (begin.phase, end.phase) == ("B", "E")
        assert begin.name == end.name == "phase"
        assert begin.track == end.track == "phase"
        assert begin.args == {"detail": 3}
        assert begin.ts <= end.ts

    def test_explicit_ts_is_used_verbatim(self):
        tracer = StepTracer()
        tracer.begin("step", ts=10.0)
        tracer.end("step", ts=250.0)
        assert [event.ts for event in tracer.events] == [10.0, 250.0]

    def test_lifecycle_lands_on_request_track(self):
        tracer = StepTracer()
        tracer.lifecycle(17, "QUEUED", prompt_tokens=9)
        (event,) = tracer.events
        assert event.phase == "i"
        assert event.name == "QUEUED"
        assert event.track == request_track(17) == "request 17"
        assert event.args == {"prompt_tokens": 9}

    def test_clear_keeps_epoch(self):
        tracer = StepTracer()
        tracer.instant("x")
        epoch = tracer.epoch
        tracer.clear()
        assert tracer.events == []
        assert tracer.epoch == epoch


class TestChromeTraceExport:
    def test_empty_tracer_exports_metadata_only(self):
        payload = chrome_trace(StepTracer())
        assert payload["displayTimeUnit"] == "ms"
        (process_meta,) = payload["traceEvents"]
        assert process_meta["ph"] == "M"
        assert process_meta["name"] == "process_name"

    def test_tracks_become_named_threads(self):
        tracer = StepTracer()
        with tracer.span("step"):
            with tracer.span("step.sample"):
                pass
        tracer.lifecycle(3, "QUEUED")
        payload = chrome_trace(tracer, process_name="proc")
        thread_names = {
            event["args"]["name"]: event["tid"]
            for event in payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert set(thread_names) == {"step", "step.sample", "request 3"}
        # tids assigned in first-appearance order, starting after the
        # process metadata row.
        assert thread_names["step"] < thread_names["step.sample"]

    def test_validator_accepts_own_output(self):
        tracer = StepTracer()
        with tracer.span("step"):
            tracer.instant("QUEUED", track="request 0")
        assert validate_chrome_trace(chrome_trace(tracer)) == []

    def test_validator_rejects_missing_container(self):
        assert validate_chrome_trace({}) == ["traceEvents is missing or not a list"]

    def test_validator_rejects_missing_keys(self):
        problems = validate_chrome_trace({"traceEvents": [{"ph": "B"}]})
        assert problems

    def test_validator_rejects_nonmonotonic_ts(self):
        events = [
            {"name": "a", "ph": "B", "pid": 1, "tid": 1, "ts": 5.0},
            {"name": "a", "ph": "E", "pid": 1, "tid": 1, "ts": 4.0},
        ]
        problems = validate_chrome_trace({"traceEvents": events})
        assert any("goes backwards" in p for p in problems)

    def test_validator_rejects_unmatched_spans(self):
        events = [
            {"name": "a", "ph": "B", "pid": 1, "tid": 1, "ts": 1.0},
            {"name": "b", "ph": "E", "pid": 1, "tid": 1, "ts": 2.0},
        ]
        assert validate_chrome_trace({"traceEvents": events})
        dangling = [{"name": "a", "ph": "B", "pid": 1, "tid": 1, "ts": 1.0}]
        assert validate_chrome_trace({"traceEvents": dangling})


class TestEngineTracing:
    def test_traced_run_passes_schema_validation(self, model):
        engine, _ = run_traced_engine(model)
        assert validate_chrome_trace(engine.telemetry.chrome_trace()) == []

    def test_trace_file_is_json_loadable(self, model, tmp_path):
        engine, _ = run_traced_engine(model)
        path = engine.telemetry.write_trace(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []

    def test_root_step_spans_reproduce_step_reports(self, model):
        engine = Engine(model, traced_config())
        llm = LLM(engine=engine)
        for prompt in prompts_for(model):
            llm.submit(prompt, SamplingParams(max_new_tokens=5))
        reports = []
        while engine.has_work():
            reports.append(engine.step().report)
        durations = []
        open_ts = None
        for event in engine.telemetry.tracer.events:
            if event.name != "step":
                continue
            if event.phase == "B":
                open_ts = event.ts
            elif event.phase == "E":
                durations.append((event.ts - open_ts) / 1e6)
        assert len(durations) == len(reports)
        for duration, report in zip(durations, reports):
            assert math.isclose(
                duration, report.elapsed_seconds, rel_tol=1e-9, abs_tol=1e-12
            )

    def test_expected_phase_spans_present(self, model):
        engine, _ = run_traced_engine(model)
        names = {event.name for event in engine.telemetry.tracer.events}
        assert {"step", "step.schedule", "step.decode_batch", "step.sample"} <= names

    def test_decode_attention_spans_one_per_layer(self, model):
        # Each layer of a decode step runs every row's attention in one
        # loop under one decode.attention span: its size is the step's
        # decode rows, its kv_length the longest row's history, and the
        # spans cover each decode row once per layer.
        engine = Engine(model, traced_config())
        llm = LLM(engine=engine)
        rng = np.random.default_rng(5)
        for length in (6, 6, 9, 4):
            llm.submit(
                rng.integers(0, model.config.vocab_size, size=length),
                SamplingParams(max_new_tokens=5),
            )
        engine.run_until_idle(max_steps=200)
        events = engine.telemetry.tracer.events
        spans = [e for e in events if e.name == "decode.attention" and e.phase == "B"]
        steps = [e for e in events if e.name == "step.decode_batch" and e.phase == "B"]
        assert spans and steps
        assert all(set(event.args) == {"size", "kv_length"} for event in spans)
        assert all(set(event.args) == {"batch"} for event in steps)
        n_layers = model.config.n_layers
        assert len(spans) == n_layers * len(steps)
        # Spans nest in their decode batch, layer after layer.
        for index, step in enumerate(steps):
            layer_spans = spans[index * n_layers : (index + 1) * n_layers]
            assert {event.args["size"] for event in layer_spans} == {step.args["batch"]}
            assert len({event.args["kv_length"] for event in layer_spans}) == 1
        assert max(event.args["size"] for event in spans) >= 2
        assert all(event.args["kv_length"] >= 5 for event in spans)
        # The mixed prompt lengths put rows at different lengths in one
        # step: kv_length is the longest.
        assert max(event.args["kv_length"] for event in spans) >= 10
        decode_rows = sum(event.args["batch"] for event in steps)
        assert sum(event.args["size"] for event in spans) == n_layers * decode_rows

    def test_chunked_prefill_emits_chunk_lane_spans(self, model):
        engine = Engine(
            model,
            traced_config(max_batch_tokens=8),
        )
        llm = LLM(engine=engine)
        rng = np.random.default_rng(9)
        llm.submit(
            rng.integers(0, model.config.vocab_size, size=30),
            SamplingParams(max_new_tokens=3),
        )
        engine.run_until_idle(max_steps=200)
        names = {event.name for event in engine.telemetry.tracer.events}
        assert "step.prefill_chunks" in names

    def test_span_and_lifecycle_taxonomy_is_pinned(self, model):
        # One traced run whose steps cover decode-only, mixed,
        # multi-wave (a prefix-deferred chunk), preempting (small pool)
        # and swap-in steps, plus every failure instant.  The
        # exact taxonomy is pinned: span names, each span's arg keys
        # and parent span, and the multiset of lifecycle instants.
        rng = np.random.default_rng(0)
        vocab = model.config.vocab_size
        plan = FaultPlan(
            rules=(
                FaultRule(site="model.decode", request_id=1, step=6),
                FaultRule(site="model.decode", kind="permanent", request_id=4),
            )
        )
        engine = Engine(
            model,
            traced_config(
                max_batch_tokens=16,
                kv_block_size=4,
                kv_pool_blocks=12,
                pressure=PressurePolicy(
                    degrade_below_free_fraction=0.75,
                    degraded_format=KVFormat.anda(4),
                ),
                faults=plan,
            ),
        )
        params = SamplingParams(max_new_tokens=10)
        shared = rng.integers(0, vocab, size=8)
        reports = []
        engine.submit(rng.integers(0, vocab, size=6), params)
        reports += [engine.step().report, engine.step().report]
        for _ in range(2):
            tail = rng.integers(0, vocab, size=3)
            engine.submit(np.concatenate([shared, tail]), params)
        reports.append(engine.step().report)
        engine.submit(rng.integers(0, vocab, size=30), params)
        engine.submit(rng.integers(0, vocab, size=5), params)
        reports += [engine.step().report, engine.step().report]
        doomed = engine.submit(rng.integers(0, vocab, size=4), params)
        reports.append(engine.step().report)
        doomed.abort()
        while engine.has_work():
            reports.append(engine.step().report)

        span_args, span_parents, instants, instant_args = {}, {}, [], {}
        preempt_spans_per_step: dict[int, int] = {}
        stack = []
        for event in engine.telemetry.tracer.events:
            keys = tuple(sorted(event.args or ()))
            if event.phase == "B":
                span_args.setdefault(event.name, set()).add(keys)
                span_parents.setdefault(event.name, set()).add(
                    stack[-1][0] if stack else None
                )
                if event.name == "step":
                    step = event.args["step"]
                elif event.name == "step.preempt":
                    preempt_spans_per_step[step] = (
                        preempt_spans_per_step.get(step, 0) + 1
                    )
                stack.append((event.name, event.track))
            elif event.phase == "E":
                assert stack.pop() == (event.name, event.track)
            else:
                assert event.track.startswith("request ")
                instants.append(event.name)
                instant_args.setdefault(event.name, set()).add(keys)
        assert not stack

        # The run covers every step shape the pin is meant to guard.
        assert any(r.decodes and not r.prefills for r in reports)
        assert any(r.decodes and r.prefills for r in reports)
        assert max(preempt_spans_per_step.values()) >= 2
        assert any(r.preemptions for r in reports)

        assert span_args == {
            "step": {("step",)},
            "step.schedule": {("running", "waiting")},
            "step.preempt": {("chunks", "decodes")},
            "step.prefill_chunks": {("chunks", "tokens")},
            "step.decode_batch": {("batch",)},
            "decode.attention": {("kv_length", "size")},
            "decode.codec": {("batch",)},
            "step.sample": {("request",)},
            "step.swap_in": {("requests",)},
        }
        lane_phases = (
            "step.schedule",
            "step.preempt",
            "step.prefill_chunks",
            "step.decode_batch",
            "step.sample",
            "step.swap_in",
        )
        assert span_parents == {
            "step": {None},
            **{name: {"step"} for name in lane_phases},
            "decode.attention": {"step.decode_batch"},
            "decode.codec": {"step.decode_batch"},
        }
        assert Counter(instants) == Counter(
            QUEUED=6,
            DEGRADED=3,
            # Request 1's swap-in maps no shared prefix blocks, so it
            # waits for free blocks until request 0 finishes; the
            # shifted schedule gives request 4's prompt two chunks.
            PREFILLING=4,
            RUNNING=6,
            PREEMPTED=2,
            RETRY=1,
            FAILED=1,
            ABORTED=1,
            FINISHED=4,
        )
        assert instant_args == {
            "QUEUED": {("prompt_tokens",)},
            "DEGRADED": {("format",)},
            "PREFILLING": {("prefill_pos",)},
            "RUNNING": {(), ("resumed",)},
            "PREEMPTED": {()},
            "RETRY": {("at_step", "retries", "site")},
            "FAILED": {("reason", "tokens")},
            "ABORTED": {("tokens",)},
            "FINISHED": {("reason", "tokens")},
        }

    def test_disabled_telemetry_records_nothing(self, model):
        engine = Engine(model, EngineConfig(max_batch_size=4))
        llm = LLM(engine=engine)
        llm.generate(prompts_for(model), SamplingParams(max_new_tokens=4))
        assert engine.telemetry.tracer is None
        with pytest.raises(ModelError, match="tracing is disabled"):
            engine.telemetry.chrome_trace()


class TestLifecycleEvents:
    def lifecycle_by_request(self, engine):
        events = {}
        for event in engine.telemetry.tracer.events:
            if event.phase == "i" and event.track.startswith("request "):
                request_id = int(event.track.split(" ", 1)[1])
                events.setdefault(request_id, []).append(event.name)
        return events

    def test_finished_requests_trace_queued_running_finished(self, model):
        engine, handles = run_traced_engine(model)
        events = self.lifecycle_by_request(engine)
        for handle in handles:
            assert handle.status() is RequestStatus.FINISHED
            trail = events[handle.request_id]
            assert trail[0] == "QUEUED"
            assert trail[-1] == "FINISHED"
            assert "RUNNING" in trail
            assert "ABORTED" not in trail

    def test_aborted_request_traces_aborted_terminal(self, model):
        engine = Engine(model, traced_config())
        llm = LLM(engine=engine)
        handles = [
            llm.submit(prompt, SamplingParams(max_new_tokens=8))
            for prompt in prompts_for(model)
        ]
        engine.step()
        handles[1].abort()
        engine.run_until_idle(max_steps=200)
        events = self.lifecycle_by_request(engine)
        assert handles[1].status() is RequestStatus.ABORTED
        assert events[handles[1].request_id][-1] == "ABORTED"
        assert "FINISHED" not in events[handles[1].request_id]
        for handle in handles:
            if handle is not handles[1]:
                assert events[handle.request_id][-1] == "FINISHED"

    def test_chunked_prompt_traces_prefilling_before_running(self, model):
        engine = Engine(
            model,
            traced_config(max_batch_tokens=8),
        )
        llm = LLM(engine=engine)
        rng = np.random.default_rng(13)
        handle = llm.submit(
            rng.integers(0, model.config.vocab_size, size=30),
            SamplingParams(max_new_tokens=3),
        )
        engine.run_until_idle(max_steps=200)
        trail = self.lifecycle_by_request(engine)[handle.request_id]
        assert "PREFILLING" in trail
        assert trail.index("PREFILLING") < trail.index("RUNNING")


def parse_exposition(text):
    """name -> {labels_text: float} for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_and_labels, value = line.rsplit(" ", 1)
        name = name_and_labels.split("{", 1)[0]
        samples.setdefault(name, {})[name_and_labels] = float(value)
    return samples


class TestPrometheusExposition:
    def test_renders_help_type_and_escaped_labels(self):
        registry = CounterRegistry()
        family = registry.counter("reqs_total", "total requests", ("engine",))
        family.labels(engine='e"0\\x\n').inc(2)
        text = prometheus_exposition(registry)
        assert "# HELP reqs_total total requests" in text
        assert "# TYPE reqs_total counter" in text
        assert '\\"' in text and "\\n" in text and "\\\\" in text
        assert text.endswith("\n")

    def test_exposition_reproduces_every_engine_metric(self, model):
        engine, _ = run_traced_engine(model)
        metrics = engine.metrics()
        label = engine.telemetry.engine_label
        samples = parse_exposition(engine.telemetry.prometheus())
        for attribute, name, _ in ENGINE_COUNTER_FIELDS:
            value = samples[name][f'{name}{{engine="{label}"}}']
            assert value == pytest.approx(float(getattr(metrics, attribute))), name
        for attribute, name, _ in ENGINE_GAUGE_FIELDS:
            value = samples[name][f'{name}{{engine="{label}"}}']
            assert value == pytest.approx(float(getattr(metrics, attribute))), name
        dram = samples["repro_engine_dram_bytes_total"]
        assert dram[
            f'repro_engine_dram_bytes_total{{engine="{label}"}}'
        ] == pytest.approx(metrics.traffic.total_bytes)
        finished = samples["repro_engine_finished_requests_total"]
        assert finished[
            f'repro_engine_finished_requests_total{{engine="{label}"}}'
        ] == float(len(metrics.requests))

    def test_repeated_pulls_are_idempotent_when_quiescent(self, model):
        engine, _ = run_traced_engine(model)
        assert engine.telemetry.prometheus() == engine.telemetry.prometheus()

    def test_counters_advance_across_pulls(self, model):
        engine = Engine(model, traced_config())
        llm = LLM(engine=engine)
        llm.generate(prompts_for(model, count=2), SamplingParams(max_new_tokens=3))
        first = parse_exposition(engine.telemetry.prometheus())
        llm.generate(prompts_for(model, count=2), SamplingParams(max_new_tokens=3))
        second = parse_exposition(engine.telemetry.prometheus())
        name = "repro_engine_steps_total"
        (first_value,) = first[name].values()
        (second_value,) = second[name].values()
        assert second_value > first_value


class TestStepLogging:
    def test_log_steps_emits_summary_lines(self, model, caplog):
        engine = Engine(
            model,
            traced_config(telemetry=TelemetryConfig(log_steps=True)),
        )
        llm = LLM(engine=engine)
        with caplog.at_level(logging.INFO, logger="repro.serve.telemetry"):
            llm.generate(prompts_for(model, count=2), SamplingParams(max_new_tokens=3))
        lines = [r.message for r in caplog.records]
        assert lines
        label = engine.telemetry.engine_label
        assert all(f"engine={label}" in line for line in lines)

    def test_log_every_subsamples(self, model, caplog):
        engine = Engine(
            model,
            traced_config(telemetry=TelemetryConfig(log_steps=True, log_every=3)),
        )
        llm = LLM(engine=engine)
        with caplog.at_level(logging.INFO, logger="repro.serve.telemetry"):
            llm.generate(prompts_for(model, count=2), SamplingParams(max_new_tokens=6))
        steps = engine.metrics().steps
        assert len(caplog.records) == len([s for s in range(steps) if s % 3 == 0])


class TestTelemetryNeutrality:
    @pytest.mark.parametrize("budget", [64, 16])
    def test_tokens_bitwise_identical_with_telemetry_on(self, model, budget):
        prompts = prompts_for(model, count=4, seed=21)
        params = SamplingParams(max_new_tokens=6, temperature=0.9, top_k=8, seed=5)

        def tokens(telemetry):
            config = EngineConfig(
                max_batch_size=4,
                max_batch_tokens=budget,
                telemetry=telemetry,
            )
            llm = LLM(model=model, config=config)
            return [
                result.tokens.tobytes()
                for result in llm.generate([p.copy() for p in prompts], params)
            ]

        plain = tokens(TelemetryConfig())
        instrumented = tokens(TelemetryConfig(trace=True, log_steps=True))
        assert plain == instrumented
