"""The serving ledger's contract with ``src/``, checked in tier-1.

Tier-1 collects only ``tests/``, so without this file nothing in it
imports ``benchmarks/ledger``.  The ledger names program attributes
directly: it imports the bucket API at module level, its traced pass
patches every ``spans.TARGETS`` class attribute, and its workloads build
``EngineConfig`` with the settings they pin.  Renaming or deleting any
of them would pass the serving tests and fail every benchmark run; these
tests fail instead.  Nothing under ``benchmarks/`` is modified.
"""

import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"
if str(LEDGER) not in sys.path:
    sys.path.append(str(LEDGER))

from ledgerlib import child, driver, probes, schema, spans, workloads  # noqa: E402


def calibrate():
    return 1.0


@pytest.fixture(scope="module")
def model():
    return workloads.bench_model()


def test_child_entry_points_import():
    # run.py starts one of these in each child process.
    assert callable(child.serve) and callable(child.setup_probe)


def test_every_span_target_resolves_and_is_restored():
    originals = [spans._raw_attribute(owner, attr) for owner, attr, _ in spans.TARGETS]
    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        for (owner, attr, _), original in zip(spans.TARGETS, originals):
            assert spans._raw_attribute(owner, attr) is not original
    for (owner, attr, name), original in zip(spans.TARGETS, originals):
        assert spans._raw_attribute(owner, attr) is original, name


@pytest.mark.parametrize("name", schema.workload_names())
def test_smoke_pass_serves_every_request(model, name):
    spec = workloads.build_workload(name, 0, smoke=True)
    traced = name == "decode_fp16"
    recorder = spans.SpanRecorder()
    if traced:
        with spans.installed(recorder):
            record = driver.run_pass(model, spec, calibrate, trace=True)
    else:
        record = driver.run_pass(model, spec, calibrate)
    assert set(record.outcomes) <= {"finished", "aborted"}
    assert record.outcomes.count("aborted") <= sum(
        request.abort_tick is not None for request in spec.requests
    )
    assert record.leaked_blocks == 0
    for outcome, request, tokens in zip(record.outcomes, spec.requests, record.tokens):
        if outcome == "finished":
            assert 0 < len(tokens) <= request.params.max_new_tokens
    if traced:
        assert record.tracer is not None
        called = {span.name for span in recorder.spans()}
        assert {"Engine.step", "LLM.submit", "RequestHandle.deltas"} <= called


def test_probes_run(model):
    results = probes.run_probes(model, calibrate, calls=1)
    expected = {m.name for m in schema.PER_LAYER if "_probe_" in m.name}
    assert set(results) == expected
    assert all(value > 0 for value in results.values())
