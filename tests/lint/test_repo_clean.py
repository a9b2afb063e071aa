"""End-to-end: the shipped repo must lint clean against its committed
baseline, and the baseline must honor its own hygiene rules."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.findings import Baseline
from repro.lint.runner import DEFAULT_BASELINE, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_lints_clean_against_committed_baseline():
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    result = run_lint(REPO_ROOT, baseline=baseline)
    assert result.errors == []
    assert result.new == [], "\n".join(f.render() for f in result.new)
    assert result.stale_baseline == [], [e.key for e in result.stale_baseline]
    assert result.ok


def test_committed_baseline_entries_all_carry_notes():
    raw = json.loads((REPO_ROOT / DEFAULT_BASELINE).read_text())
    entries = raw["findings"]
    assert entries, "baseline exists, so it must have entries"
    for entry in entries:
        assert entry["key"].startswith("RPL"), entry
        assert entry.get("note"), f"baseline entry without tracking note: {entry['key']}"
    keys = [entry["key"] for entry in entries]
    assert len(keys) == len(set(keys)), "duplicate baseline keys"


def test_committed_baseline_grandfathers_known_codes_only():
    # Every other rule is enforced at zero findings; the zero-copy rule
    # grandfathers reference codecs, per-write codec decodes and
    # finish-time assembly.
    raw = json.loads((REPO_ROOT / DEFAULT_BASELINE).read_text())
    codes = {entry["key"].split("|", 1)[0] for entry in raw["findings"]}
    assert codes == {"RPL002"}


def test_serve_all_matches_runtime_exports():
    # RPL008 is a static check; cross-validate it against the runtime
    # truth that the old CI import-lint step used to assert, for every
    # package whose ``__all__`` names the KV-format API.
    import repro.llm as llm
    import repro.serve as serve

    for package in (serve, llm):
        missing = [name for name in package.__all__ if not hasattr(package, name)]
        assert missing == [], package.__name__
