"""Command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.campaign.spec import CampaignSpec, config_to_dict
from repro.cli import build_parser, main
from repro.scenarios import get_scenario
from repro.scenarios.highway import HighwayConfig

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


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


class TestInputsThatCannotRun:
    """A scenario input that cannot run fails at once with exit code 2
    and one error line that names the bad value, instead of a traceback
    or a round that never ends."""

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["highway", "--speeds", "80,nan", "--rounds", "1"], "'nan'"),
            (
                ["campaign", "run", "--scenario", "highway", "--rounds", "1",
                 "--set", "speed_ms=NaN"],
                "speed_ms=nan",
            ),
            (
                ["campaign", "run", "--scenario", "highway", "--rounds", "1",
                 "--set", "road_length_m=Infinity"],
                "road_length_m=inf",
            ),
            (
                ["campaign", "run", "--scenario", "highway", "--rounds", "1",
                 "--set", "speed_ms=Infinity"],
                "speed_ms=inf",
            ),
            # One NaN per scenario in the fields that the sender's and
            # the beacon's jitter formulas, and the reachability bound
            # (through the transmit power), take without raising.
            (
                ["campaign", "run", "--scenario", "urban", "--rounds", "1",
                 "--set", "packet_rate_hz=NaN"],
                "packet_rate_hz=nan",
            ),
            (
                ["campaign", "run", "--scenario", "highway", "--rounds", "1",
                 "--set", "radio.car_tx_power_dbm=NaN"],
                "car_tx_power_dbm=nan",
            ),
            (
                ["campaign", "run", "--scenario", "bidirectional", "--rounds", "1",
                 "--set", "lane_offset_m=NaN"],
                "lane_offset_m=nan",
            ),
            (
                ["campaign", "run", "--scenario", "multi_ap", "--rounds", "1",
                 "--set", "packet_rate_hz=NaN"],
                "packet_rate_hz=nan",
            ),
            (
                ["campaign", "run", "--scenario", "trace", "--rounds", "1",
                 "--set", "carq.hello_period_s=NaN"],
                "hello_period_s=nan",
            ),
        ],
        ids=[
            "speeds-nan", "set-nan-speed", "set-infinite-road", "set-infinite-speed",
            "urban-nan-rate", "highway-nan-tx-power", "bidirectional-nan-lane",
            "multi_ap-nan-rate", "trace-nan-hello",
        ],
    )
    def test_non_finite_input_exits_at_once(self, argv, bad, tmp_path):
        # Each of these ran a round that never ended (or a meaningless
        # one), in-process; a subprocess with a timeout keeps a
        # regression from hanging the suite.
        if argv[0] == "campaign":
            argv = argv + ["--store", str(tmp_path / "store.jsonl")]
        result = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env={**os.environ, "PYTHONPATH": REPO_SRC},
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2, result.stderr
        assert bad in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "store.jsonl").exists()

    @pytest.mark.parametrize(
        "speeds, bad",
        [("abc", "'abc'"), ("80,", "'' in '80,'"), ("", "'' in ''")],
        ids=["word", "trailing-comma", "empty"],
    )
    def test_speeds_that_are_not_numbers_are_usage_errors(self, speeds, bad, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["highway", "--speeds", speeds, "--rounds", "1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --speeds: {bad}" in err

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["stats", "--scenario", "urban", "--set", "round_duration_s=short"],
             "round_duration_s='short'"),
            (["campaign", "run", "--scenario", "highway", "--set", "speed_ms=fast"],
             "speed_ms='fast'"),
            (["campaign", "run", "--scenario", "multi_ap", "--rounds", "1",
              "--set", "speed_ms=fast"], "speed_ms='fast'"),
        ],
        ids=["stats-urban", "campaign-highway", "campaign-multi_ap"],
    )
    def test_mistyped_set_value_is_an_error_line(self, argv, bad, capsys, tmp_path):
        if argv[0] == "campaign":
            argv = argv + ["--store", str(tmp_path / "store.jsonl")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{argv[0]}: ")
        assert bad in captured.err
        assert not (tmp_path / "store.jsonl").exists()

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["--scenario", "urban", "--set", "carq.buffer_capacity=big"],
             "buffer_capacity='big'"),
            (["--scenario", "urban", "--set", "carq.buffer_capacity=0"],
             "buffer_capacity=0"),
            (["--scenario", "urban", "--set", "carq.selection=random"],
             "selection='random'"),
            (["--scenario", "trace", "--set", "t_max=soon"], "t_max='soon'"),
        ],
        ids=["buffer-capacity-word", "buffer-capacity-zero", "selection", "trace-t_max"],
    )
    def test_value_a_none_default_field_cannot_hold_is_an_error_line(
        self, argv, bad, capsys, tmp_path
    ):
        # Each of these quarantined its task (exit 3) with an error
        # raised inside the round.
        store = tmp_path / "store.jsonl"
        argv = ["campaign", "run", "--rounds", "1", *argv, "--store", str(store)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("campaign: ")
        assert bad in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not store.exists()

    @pytest.mark.parametrize(
        "scenario, block, field, value",
        [
            ("highway", "radio", "cull_headroom_db", 12.0),
            ("urban", "carq", "batch_requests", True),
            ("trace", "carq", "buffer_overheard_responses", False),
        ],
        ids=["cull-headroom", "batch-requests", "buffer-overheard-responses"],
    )
    def test_deleted_field_is_an_error_line(
        self, scenario, block, field, value, capsys, tmp_path
    ):
        # Fields that no config has (a spec saved by an older tree may
        # still carry them): given by --set or in a spec file, each one
        # exits 2 with one line that names it, and nothing runs.
        store = tmp_path / "store.jsonl"
        base = config_to_dict(get_scenario(scenario).default_config())
        base[block][field] = value
        CampaignSpec(
            name="old", scenario=scenario, seed=1, rounds=1, base=base
        ).save(tmp_path / "spec.json")
        for source in (
            ["--scenario", scenario, "--rounds", "1",
             "--set", f"{block}.{field}={json.dumps(value)}"],
            ["--spec", str(tmp_path / "spec.json")],
        ):
            assert main(["campaign", "run", *source, "--store", str(store)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("campaign: ")
            assert field in captured.err
            assert len(captured.err.splitlines()) == 1
            assert not store.exists()

    def test_mistyped_spec_file_is_an_error_line(self, capsys, tmp_path):
        base = {**config_to_dict(HighwayConfig()), "speed_ms": "fast"}
        spec = CampaignSpec(name="typo", scenario="highway", seed=1, rounds=2, base=base)
        spec.save(tmp_path / "spec.json")
        store = tmp_path / "store.jsonl"
        argv = ["campaign", "run", "--spec", str(tmp_path / "spec.json"),
                "--store", str(store)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("campaign: ")
        assert "speed_ms='fast'" in captured.err
        assert not store.exists()
