"""Runner: collection, filtering, exit codes, output formats, stats."""

from __future__ import annotations

import json
import textwrap

from repro.cli import main as cli_main
from repro.lint import lint_paths, render_json, render_text, stats_snapshot
from repro.obs.export import render_stats_report
from repro.obs.registry import merge_snapshots

DIRTY = """
import time
def now():
    return time.time()
"""

CLEAN = "X = 1\n"


def _write(tmp_path, logical, source):
    path = tmp_path / "repro" / logical
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestCollection:
    def test_pycache_and_hidden_dirs_skipped(self, tmp_path):
        _write(tmp_path, "sim/a.py", CLEAN)
        _write(tmp_path, "sim/__pycache__/a.cpython-311.py", DIRTY)
        _write(tmp_path, "sim/.hidden/b.py", DIRTY)
        report = lint_paths([tmp_path])
        assert len(report.files) == 1
        assert report.findings == []

    def test_single_file_path(self, tmp_path):
        path = _write(tmp_path, "sim/a.py", DIRTY)
        report = lint_paths([path])
        assert [f.code for f in report.findings] == ["RPL101"]

    def test_missing_path_errors(self, tmp_path, capsys):
        exit_code = cli_main(["lint", str(tmp_path / "nope")])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().out


class TestFiltering:
    def test_select_prefix(self, tmp_path):
        _write(tmp_path, "sim/a.py", DIRTY)  # RPL101
        _write(
            tmp_path,
            "sim/b.py",
            """
            class Ev:
                def __init__(self):
                    self.t = 0.0
            """,
        )  # RPL501
        report = lint_paths([tmp_path], select=["RPL1"])
        assert {f.code for f in report.findings} == {"RPL101"}
        report = lint_paths([tmp_path], ignore=["RPL5"])
        assert {f.code for f in report.findings} == {"RPL101"}

    def test_unknown_prefix_is_usage_error(self, tmp_path, capsys):
        _write(tmp_path, "sim/a.py", CLEAN)
        assert cli_main(["lint", str(tmp_path), "--select", "RPL9"]) == 2


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "sim/a.py", CLEAN)
        assert cli_main(["lint", str(tmp_path)]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        _write(tmp_path, "sim/a.py", DIRTY)
        assert cli_main(["lint", str(tmp_path)]) == 1


class TestOutput:
    def test_text_format(self, tmp_path, capsys):
        _write(tmp_path, "sim/a.py", DIRTY)
        cli_main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert "RPL101" in out and "1 finding(s)" in out

    def test_json_format(self, tmp_path, capsys):
        _write(tmp_path, "sim/a.py", DIRTY)
        cli_main(["lint", str(tmp_path), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert document["exit_code"] == 1
        assert document["findings"][0]["code"] == "RPL101"
        assert document["findings"][0]["context"] == "now"

    def test_render_helpers_match_cli(self, tmp_path):
        _write(tmp_path, "sim/a.py", DIRTY)
        report = lint_paths([tmp_path])
        assert "RPL101" in render_text(report)
        assert render_json(report)["exit_code"] == 1


class TestStats:
    def test_snapshot_uses_obs_registry_format(self, tmp_path):
        _write(tmp_path, "sim/a.py", DIRTY)
        snapshot = stats_snapshot(lint_paths([tmp_path]))
        assert snapshot["lint.findings"] == {"type": "counter", "value": 1}
        assert snapshot["lint.rule_hits"]["type"] == "table"
        assert snapshot["lint.rule_hits"]["rows"]["RPL101"]["count"] == 1

    def test_snapshot_rides_merge_and_render(self, tmp_path):
        _write(tmp_path, "sim/a.py", DIRTY)
        snapshot = stats_snapshot(lint_paths([tmp_path]))
        merged = merge_snapshots([snapshot, snapshot])
        assert merged["lint.findings"]["value"] == 2
        rendered = render_stats_report(merged, elapsed_s=1.0)
        assert "lint.findings" in rendered

    def test_cli_stats_flag(self, tmp_path, capsys):
        _write(tmp_path, "sim/a.py", DIRTY)
        cli_main(["lint", str(tmp_path), "--stats"])
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["lint.rule_hits.RPL101"]["value"] == 1
