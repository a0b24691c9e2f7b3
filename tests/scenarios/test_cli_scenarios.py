"""The ``repro scenarios`` command and registry-sourced CLI surfaces."""

from pathlib import Path

from repro.cli import _campaign_presets, build_parser, main
from repro.scenarios import scenario_names, scenario_table_markdown

README = Path(__file__).resolve().parents[2] / "README.md"


class TestScenariosCommand:
    def test_lists_every_registered_scenario(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out
        assert "preset:" in out

    def test_markdown_matches_registry_table(self, capsys):
        assert main(["scenarios", "--markdown"]) == 0
        assert capsys.readouterr().out.strip() == scenario_table_markdown()


class TestReadmeTable:
    def test_readme_embeds_the_generated_table(self):
        """README's scenario table is the registry's, verbatim — run
        ``repro scenarios --markdown`` and paste on drift."""
        assert scenario_table_markdown() in README.read_text(encoding="utf-8")


class TestRegistrySourcedPresets:
    def test_every_plugin_preset_is_offered(self):
        assert {
            "platoon-size",
            "bitrate",
            "hello-period",
            "protocol-modes",
            "speed",
            "density",
            "download",
            "oncoming",
        } <= set(_campaign_presets())

    def test_scenario_flag_accepts_every_registered_kind(self):
        parser = build_parser()
        for name in scenario_names():
            args = parser.parse_args(["campaign", "run", "--scenario", name])
            assert args.scenario == name


class TestScenarioCampaignRun:
    def test_gridless_scenario_campaign_runs(self, tmp_path, capsys):
        code = main(
            [
                "campaign",
                "run",
                "--scenario",
                "urban",
                "--rounds",
                "1",
                "--seed",
                "55",
                "--set",
                "round_duration_s=40",
                "--store",
                str(tmp_path / "s.jsonl"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 executed" in out
        assert "parameter" in out
