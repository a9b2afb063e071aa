"""The whole child pipeline on seconds-sized shapes (``--smoke``)."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ledgerlib import schema, spans
from ledgerlib.child import ChildArgs, serve
from ledgerlib.workloads import SHAPES, SMOKE_SHAPES, build_workload
from repro.serve import validate_chrome_trace

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parents[1]


def _serve(name, seed=0, traced=True, trace_out=None):
    return serve(
        ChildArgs(
            workload=name,
            seed=seed,
            seconds=0.0,
            spawned_at=time.time(),
            traced=traced,
            trace_out=trace_out,
            smoke=True,
            min_passes=2,
        )
    )


@pytest.fixture(scope="module")
def results():
    return {name: _serve(name) for name in schema.workload_names()}


def test_smoke_shapes_cover_every_workload():
    assert set(SMOKE_SHAPES) == set(SHAPES) == set(schema.workload_names())


@pytest.mark.parametrize("name", schema.workload_names())
def test_workload_is_correct_and_reports_every_metric(results, name):
    result = results[name]
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert result["end_to_end"]["failed_share"]["value"] == 0.0
    assert set(result["end_to_end"]) == {m.name for m in schema.END_TO_END} | {
        "failed_share"
    }
    probes = {m.name for m in schema.PER_LAYER if "_probe_" in m.name}
    assert set(result["per_layer"]) == {m.name for m in schema.PER_LAYER} - probes
    for metric in schema.END_TO_END:
        assert result["end_to_end"][metric.name]["value"] > 0
    assert result["info"]["share_sum"] == pytest.approx(1.0, abs=1e-3)
    assert result["info"]["clamped_spans"] == 0
    assert result["per_layer"]["serve.kvpool.leaked_blocks"]["value"] == 0


def test_layers_show_up_where_the_workload_stresses_them(results):
    layer = {name: results[name]["per_layer"] for name in results}
    assert layer["decode_fp16"]["core.anda.encode_calls"]["value"] == 0
    assert layer["prefill_anda"]["core.anda.encode_calls"]["value"] > 0
    assert layer["prefill_anda"]["serve.kvpool.prefix_hit_share"]["value"] == 0
    assert layer["shared_prefix_anda"]["serve.kvpool.prefix_hit_share"]["value"] > 0.5
    assert layer["churn_mixed"]["serve.engine.aborted"]["value"] == 1
    assert (
        layer["prefill_anda"]["llm.transformer.chunk_lane_share"]["value"]
        > layer["decode_fp16"]["llm.transformer.chunk_lane_share"]["value"]
    )


def test_exact_metrics_repeat_and_move_with_the_seed(results):
    def exact(result):
        return [result["per_layer"][name]["value"] for name in schema.EXACT_PER_LAYER]

    again = _serve("prefill_anda")
    other = _serve("prefill_anda", seed=1)
    assert exact(again) == exact(results["prefill_anda"])
    assert exact(other) != exact(results["prefill_anda"])


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in schema.workload_names():
        first = build_workload(name, 3)
        again = build_workload(name, 3)
        other = build_workload(name, 4)
        for a, b in zip(first.requests, again.requests):
            assert a.prompt.tolist() == b.prompt.tolist() and a.params == b.params
        assert any(
            a.prompt.tolist() != b.prompt.tolist()
            for a, b in zip(first.requests, other.requests)
        )


def test_end_to_end_passes_run_without_wrappers(results):
    # serve() measured with nothing installed and restored what the
    # traced pass patched: every target is its original attribute again.
    for owner, attribute, _ in spans.TARGETS:
        function = spans._raw_attribute(owner, attribute)
        assert getattr(function, "__name__", "") != "traced"
        assert not hasattr(function, "__wrapped__")


def test_trace_out_is_a_valid_chrome_trace(tmp_path):
    path = tmp_path / "trace.json"
    result = _serve("churn_mixed", trace_out=str(path))
    assert result["correct"], result["problems"]
    payload = json.loads(path.read_text())
    assert validate_chrome_trace(payload) == []
    names = {event["name"] for event in payload["traceEvents"]}
    assert {"Engine.step", "step", "plan_step", "ABORTED"} <= names


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        LEDGER,
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "decode_fp16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_form_prints_exactly_the_manifest_metrics(trace, group):
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", "churn_mixed",
         "--seed", "2", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [entry["name"] for entry in manifest[group]]
    for entry in manifest[group]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
