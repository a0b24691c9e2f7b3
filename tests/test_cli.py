"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.rounds == 15
        assert args.seed == 2008

    def test_highway_speed_list(self):
        args = build_parser().parse_args(["highway", "--speeds", "30,60"])
        assert args.speeds == "30,60"

    def test_figures_flow(self):
        args = build_parser().parse_args(["figures", "--flow", "2"])
        assert args.flow == 2


class TestCommands:
    def test_table1_runs(self, capsys):
        assert main(["table1", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "Lost before coop" in out
        assert "Paper before" in out

    def test_figures_runs(self, capsys):
        assert main(["figures", "--rounds", "2", "--flow", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Figure 6" in out
        assert "Region I" in out

    def test_figures_rejects_unknown_flow(self, capsys):
        assert main(["figures", "--rounds", "2", "--flow", "9"]) == 2

    def test_highway_runs(self, capsys):
        assert main(["highway", "--speeds", "80", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "km/h" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table1", "--rounds", "0"], "at least one round"),
            (["figures", "--rounds", "0", "--flow", "2"], "at least one round"),
            (["highway", "--speeds", "80", "--rounds", "0"], "at least one round"),
            (["multi-ap", "--rounds", "0"], "at least one round"),
            (["highway", "--speeds=-5", "--rounds", "1"], "speed must be positive"),
        ],
        ids=["table1", "figures", "highway", "multi-ap", "highway-quarantined"],
    )
    def test_rejected_campaign_is_an_error_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{argv[0]}: ")
        assert message in captured.err


class TestProfileCommand:
    def test_profile_runs_and_prints_hot_spots(self, capsys):
        assert main([
            "profile", "--scenario", "urban",
            "--set", "round_duration_s=5", "--limit", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "simulator" in out

    def test_profile_sort_and_seed_flags(self, capsys):
        assert main([
            "profile", "--scenario", "urban", "--seed", "7",
            "--set", "round_duration_s=5", "--sort", "tottime",
        ]) == 0
        assert "tottime" in capsys.readouterr().out

    def test_profile_rejects_malformed_set(self, capsys):
        assert main([
            "profile", "--scenario", "urban", "--set", "nonsense",
        ]) == 2

    def test_profile_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--scenario", "nope"])
