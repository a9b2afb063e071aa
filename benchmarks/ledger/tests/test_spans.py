"""Span tree, self-time accounting, wrapper hygiene, trace export."""

import pytest

from ledgerlib import spans
from ledgerlib.spans import Span
from repro.serve import StepTracer, validate_chrome_trace


def _tree(*rows):
    return spans.build_tree([Span(name, start, end) for name, start, end in rows])


def test_self_time_is_duration_minus_children():
    ordered, clamped = _tree(
        ("Engine.step", 0.0, 10.0),
        ("plan_step", 1.0, 2.0),
        ("CausalLM.forward_decode_batch", 2.0, 9.0),
        ("GatedFeedForward.step", 3.0, 5.0),
        ("RMSNorm.__call__", 5.0, 5.5),
        ("LLM.submit", 11.0, 12.0),
    )
    assert clamped == 0
    result = spans.attribute(ordered)
    assert result.busy == pytest.approx(11.0)
    assert result.self_seconds["serve.engine.step_self_share"] == pytest.approx(2.0)
    assert result.self_seconds["serve.scheduler.plan_self_share"] == pytest.approx(1.0)
    assert result.self_seconds["llm.transformer.lane_self_share"] == pytest.approx(4.5)
    assert result.self_seconds["llm.transformer.ffn_self_share"] == pytest.approx(2.0)
    assert result.self_seconds["llm.transformer.norm_self_share"] == pytest.approx(0.5)
    assert result.self_seconds["serve.llm.submit_self_share"] == pytest.approx(1.0)
    assert result.share_sum() == pytest.approx(1.0)
    assert result.calls["RMSNorm.__call__"] == 1


def test_unlisted_span_names_inherit_their_parents_layer():
    ordered, _ = _tree(
        ("Engine.step", 0.0, 4.0),
        ("BucketedAttention.run_bucket", 1.0, 3.0),
        ("some.future.span", 1.5, 2.5),
    )
    result = spans.attribute(ordered)
    assert result.self_seconds["llm.attention.bucket_self_share"] == pytest.approx(2.0)
    assert "some.future.span" not in result.self_seconds


def test_decode_lane_inside_a_mixed_step_is_not_chunk_lane_time():
    ordered, _ = _tree(
        ("Engine.step", 0.0, 10.0),
        ("CausalLM.forward_mixed_step", 1.0, 9.0),
        ("CausalLM.forward_decode_batch", 6.0, 9.0),
    )
    result = spans.attribute(ordered)
    assert result.chunk_lane_seconds == pytest.approx(5.0)
    decode = result.inclusive_seconds["CausalLM.forward_decode_batch"]
    assert decode == pytest.approx(3.0)


def test_a_span_outliving_its_parent_is_clamped_and_counted():
    ordered, clamped = _tree(("Engine.step", 0.0, 5.0), ("plan_step", 4.0, 6.0))
    assert clamped == 1
    assert spans.attribute(ordered).share_sum() == pytest.approx(1.0)


def test_install_restores_every_patched_attribute():
    before = [spans._raw_attribute(owner, attr) for owner, attr, _ in spans.TARGETS]
    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        during = [spans._raw_attribute(owner, attr) for owner, attr, _ in spans.TARGETS]
        assert all(a is not b for a, b in zip(before, during))
    after = [spans._raw_attribute(owner, attr) for owner, attr, _ in spans.TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_install_restores_after_an_exception():
    before = [spans._raw_attribute(owner, attr) for owner, attr, _ in spans.TARGETS]
    with pytest.raises(RuntimeError):
        with spans.installed(spans.SpanRecorder()):
            raise RuntimeError("mid-pass failure")
    after = [spans._raw_attribute(owner, attr) for owner, attr, _ in spans.TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_every_target_has_a_layer():
    assert {name for _, _, name in spans.TARGETS} <= set(spans.LAYER_OF)


def test_wrapper_records_one_span_per_call_and_returns_the_result():
    recorder = spans.SpanRecorder()
    wrapped = recorder.wrap(lambda x: x + 1, "plan_step")
    assert wrapped(1) == 2 and wrapped(2) == 3
    recorded = recorder.spans()
    assert [s.name for s in recorded] == ["plan_step", "plan_step"]
    assert all(s.end >= s.start for s in recorded)


def test_tracer_events_become_spans_on_the_shared_clock():
    tracer = StepTracer()
    tracer.begin("step", ts=10.0)
    tracer.begin("step.schedule", ts=20.0)
    tracer.end("step.schedule", ts=30.0)
    tracer.lifecycle(3, "QUEUED")
    tracer.end("step", ts=50.0)
    found, instants = spans.tracer_spans(tracer)
    by_name = {span.name: span for span in found}
    assert by_name["step"].duration == pytest.approx(40e-6)
    assert by_name["step.schedule"].start == pytest.approx(tracer.epoch + 20e-6)
    assert [(name, track) for name, _, track, _ in instants] == [
        ("QUEUED", "request 3")
    ]


def test_merged_trace_passes_the_repo_validator():
    ordered, _ = _tree(
        ("Engine.step", 0.0, 1.0),
        ("plan_step", 0.1, 0.2),
        ("CausalLM.forward_decode_batch", 0.2, 0.9),
        ("step.decode_batch", 0.25, 0.85),
        ("Engine.step", 1.5, 2.0),
    )
    instants = [("QUEUED", 0.05, "request 0", {}), ("FINISHED", 1.9, "request 0", {})]
    trace = spans.chrome_trace(ordered, instants)
    assert validate_chrome_trace(trace) == []
    assert sum(event["ph"] == "B" for event in trace["traceEvents"]) == 5
