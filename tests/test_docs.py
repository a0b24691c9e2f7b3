"""Docs stay true: generated references in sync, intra-repo links resolve.

These are the local half of the CI ``docs`` job — a drifted
``docs/SCENARIOS.md`` or a broken markdown link fails tier-1 before any
workflow runs.
"""

import pathlib
import subprocess
import sys

import pytest

from repro.scenarios.registry import (
    scenario_reference_markdown,
    scenario_table_markdown,
)

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

from check_markdown_links import broken_links, markdown_files  # noqa: E402


class TestScenarioReference:
    def test_scenarios_md_matches_the_registry(self):
        """docs/SCENARIOS.md is generated; regenerate on drift with
        ``PYTHONPATH=src python -m repro scenarios --doc > docs/SCENARIOS.md``."""
        committed = (REPO / "docs" / "SCENARIOS.md").read_text(encoding="utf-8")
        assert committed == scenario_reference_markdown() + "\n"

    def test_reference_covers_every_registered_scenario(self):
        from repro.scenarios import scenario_names

        doc = scenario_reference_markdown()
        for name in scenario_names():
            assert f"## `{name}`" in doc

    def test_reference_lists_every_preset(self):
        from repro.scenarios import all_scenarios

        doc = scenario_reference_markdown()
        for plugin in all_scenarios():
            for preset in plugin.presets:
                assert f"`{preset.name}`" in doc

    def test_cli_doc_flag_emits_the_same_document(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "--doc"]) == 0
        assert capsys.readouterr().out == scenario_reference_markdown() + "\n"


class TestReadme:
    def test_readme_links_architecture_and_scenarios_docs(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/SCENARIOS.md" in readme

    def test_readme_links_the_linting_doc(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "docs/LINTING.md" in readme

    def test_linting_doc_catalogs_every_rule(self):
        from repro.lint import FRAMEWORK_CODES, all_rules

        doc = (REPO / "docs" / "LINTING.md").read_text(encoding="utf-8")
        for rule in all_rules():
            assert f"`{rule.code}`" in doc, rule.code
        for code in FRAMEWORK_CODES:
            assert f"`{code}`" in doc, code
        for section in ("Waivers", "lint-ok"):
            assert section in doc

    def test_architecture_doc_cross_links_linting(self):
        doc = (REPO / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
        assert "LINTING.md" in doc

    def test_architecture_doc_exists_and_maps_the_layers(self):
        doc = (REPO / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for module in (
            "repro.sim",
            "repro.radio",
            "repro.mac",
            "repro.mobility",
            "repro.scenarios",
            "repro.campaign",
            "traceio",
        ):
            assert module in doc
        assert "medium.transmit" in doc  # the broadcast data-flow diagram


class TestMarkdownLinks:
    def test_all_intra_repo_links_resolve(self):
        bad = broken_links(REPO)
        assert not bad, f"broken markdown links: {bad}"

    def test_the_checker_actually_scans_this_repo(self):
        names = {p.name for p in markdown_files(REPO)}
        assert {
            "README.md",
            "ARCHITECTURE.md",
            "SCENARIOS.md",
            "LINTING.md",
        } <= names

    def test_inline_code_spans_are_not_link_checked(self, tmp_path):
        # docs/LINTING.md quotes `table[key](#anchor)`-ish shapes in
        # backticks; those are code examples, not links.
        (tmp_path / "doc.md").write_text(
            "use `rows[code](#fake)` and see [real](exists.md)"
        )
        (tmp_path / "exists.md").write_text("ok")
        from check_markdown_links import broken_links as check

        assert check(tmp_path) == []

    def test_checker_cli_entrypoint(self):
        result = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_markdown_links.py")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_checker_flags_broken_links(self, tmp_path):
        (tmp_path / "bad.md").write_text("see [missing](does-not-exist.md)")
        bad = broken_links(tmp_path)
        assert bad == [(tmp_path / "bad.md", "does-not-exist.md")]
