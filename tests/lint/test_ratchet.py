"""Baseline-ratchet mechanics: new findings fail, baselined ones pass,
shrinking is accepted, stale entries force cleanup."""

from __future__ import annotations

import json

import pytest

from repro.lint.cli import main
from repro.lint.findings import Baseline, BaselineEntry, Finding
from repro.lint.rules import NoHotPathAllocation
from repro.lint.runner import run_lint

VIOLATING_ENGINE = {
    "serve/engine.py": (
        "import numpy as np\n"
        "class Engine:\n"
        "    def step(self):\n"
        "        return np.concatenate([np.zeros(2)])\n"
    )
}

CLEAN_ENGINE = {
    "serve/engine.py": (
        "class Engine:\n"
        "    def step(self):\n"
        "        return 1\n"
    )
}


def _violation_key(root) -> str:
    result = run_lint(root, baseline=Baseline(), rules=(NoHotPathAllocation(),))
    (finding,) = result.findings
    return finding.key


def write_baseline(root, keys: list[str]):
    path = root / "lint_baseline.json"
    path.write_text(
        json.dumps({"findings": [{"key": key, "note": "test entry"} for key in keys]})
    )
    return path


def cli(root, *extra: str) -> int:
    return main(["--root", str(root), *extra])


def test_new_violation_fails_the_run(make_repo, capsys):
    root = make_repo(VIOLATING_ENGINE)
    assert cli(root) == 1
    out = capsys.readouterr().out
    assert "RPL002" in out and "NEW" in out


def test_baselined_violation_passes(make_repo, capsys):
    root = make_repo(VIOLATING_ENGINE)
    write_baseline(root, [_violation_key(root)])
    assert cli(root) == 0
    assert "grandfathered" in capsys.readouterr().out


def test_fabricated_second_violation_fails_despite_baseline(make_repo):
    root = make_repo(VIOLATING_ENGINE)
    write_baseline(root, [_violation_key(root)])
    engine = root / "src" / "repro" / "serve" / "engine.py"
    engine.write_text(
        "import numpy as np\n"
        "class Engine:\n"
        "    def step(self):\n"
        "        self.other()\n"
        "        return np.concatenate([np.zeros(2)])\n"
        "    def other(self):\n"
        "        return np.vstack([np.zeros(2)])\n"
    )
    assert cli(root) == 1


def test_shrinking_the_baseline_is_accepted(make_repo):
    # Fix the violation AND delete its entry: clean run.
    root = make_repo(CLEAN_ENGINE)
    write_baseline(root, [])
    assert cli(root) == 0


def test_stale_baseline_entry_fails_until_removed(make_repo, capsys):
    # Fix the violation but keep the entry: the ratchet flags the stale
    # entry so the baseline can only shrink.
    root = make_repo(CLEAN_ENGINE)
    write_baseline(root, ["RPL002|src/repro/serve/engine.py|Engine.step|gone"])
    assert cli(root) == 1
    assert "stale baseline entry" in capsys.readouterr().out


def test_no_baseline_flag_reports_everything_as_new(make_repo):
    root = make_repo(VIOLATING_ENGINE)
    write_baseline(root, [_violation_key(root)])
    assert cli(root) == 0
    assert cli(root, "--no-baseline") == 1


def test_json_output_is_machine_readable(make_repo, tmp_path):
    root = make_repo(VIOLATING_ENGINE)
    out = tmp_path / "findings.json"
    assert cli(root, "--json", str(out)) == 1
    payload = json.loads(out.read_text())
    assert payload["ok"] is False
    assert payload["new"][0]["code"] == "RPL002"
    assert payload["new"][0]["path"] == "src/repro/serve/engine.py"
    assert payload["new"][0]["line"] == 4


def test_json_stdout_stays_pure_json(make_repo, capsys):
    root = make_repo(VIOLATING_ENGINE)
    assert cli(root, "--json", "-") == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # human report must not pollute stdout
    assert payload["ok"] is False
    assert "repro.lint: FAIL" in captured.err


def test_explain_known_and_unknown_codes(capsys):
    assert main(["--explain", "RPL006"]) == 0
    out = capsys.readouterr().out
    assert "RPL006" in out and "rationale:" in out and "invariant:" in out
    assert main(["--explain", "RPL999"]) == 2


def test_crashing_rule_fails_the_run(make_repo):
    class Boom(NoHotPathAllocation):
        def check(self, index):
            raise RuntimeError("kaput")

    root = make_repo(CLEAN_ENGINE)
    result = run_lint(root, baseline=Baseline(), rules=(Boom(),))
    assert not result.ok
    assert result.errors and "kaput" in result.errors[0]


def test_baseline_split_partitions_consistently():
    f1 = Finding(code="RPL001", path="a.py", line=3, message="m1", context="f")
    f2 = Finding(code="RPL001", path="a.py", line=9, message="m2", context="g")
    baseline = Baseline(
        entries=[BaselineEntry(key=f1.key, note="ok"), BaselineEntry(key="gone", note="")]
    )
    new, old, stale = baseline.split([f1, f2])
    assert new == [f2]
    assert old == [f1]
    assert [entry.key for entry in stale] == ["gone"]


@pytest.mark.parametrize("flag", ["--root"])
def test_missing_repo_root_is_a_usage_error(tmp_path, flag, capsys):
    assert main([flag, str(tmp_path / "nowhere")]) == 2
    assert "no src/repro" in capsys.readouterr().err
