"""The manifest and the schema module agree and respect the contract."""

import json
from pathlib import Path

from ledgerlib import schema

MANIFEST = Path(__file__).resolve().parents[3] / "BENCHMARK.json"


def test_schema_has_no_problems():
    assert schema.schema_problems() == []


def test_manifest_matches_the_schema():
    assert schema.check_manifest(json.loads(MANIFEST.read_text())) == []


def test_manifest_size_and_paths():
    assert MANIFEST.stat().st_size <= 64 * 1024
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["command"] == ["python3", "benchmarks/ledger/run.py"]


def test_names_and_limits():
    names = [m.name for m in schema.END_TO_END + schema.PER_LAYER]
    assert all(schema.NAME_RE.match(name) for name in names)
    assert len(schema.END_TO_END) <= 16 and len(schema.PER_LAYER) <= 128
    assert len(schema.WORKLOADS) == 4


def test_every_interaction_names_existing_metrics_and_workloads():
    layer = {m.name for m in schema.PER_LAYER}
    e2e = {m.name for m in schema.END_TO_END}
    for _, metrics, targets, workloads in schema.INTERACTIONS:
        assert set(metrics) <= layer
        assert set(targets) <= e2e
        assert set(workloads) <= set(schema.workload_names())


def test_a_drifted_manifest_is_reported():
    manifest = json.loads(MANIFEST.read_text())
    manifest["end_to_end"][1]["bound"] = 0.5
    manifest["per_layer"].pop()
    problems = schema.check_manifest(manifest)
    assert any("bound" in p for p in problems)
    assert any("per_layer" in p for p in problems)


def test_readme_names_every_metric_and_workload():
    text = (MANIFEST.parent / "benchmarks" / "ledger" / "README.md").read_text()
    names = [m.name for m in schema.END_TO_END + schema.PER_LAYER]
    names += [schema.FAILED_SHARE.name, *schema.workload_names()]
    assert [name for name in names if f"`{name}`" not in text] == []
