"""The ``repro campaign`` CLI: run, resume, report, spec files."""

import pytest

from repro.cli import build_parser, main


RUN_ARGS = [
    "campaign",
    "run",
    "--preset",
    "platoon-size",
    "--points",
    "1,2",
    "--rounds",
    "1",
    "--set",
    "round_duration_s=40",
    "--seed",
    "55",
]


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["campaign", "run", "--preset", "speed"])
        assert args.workers == 1
        assert args.preset == "speed"
        assert args.store is None

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", "--preset", "nope"])

    def test_report_subcommand(self):
        args = build_parser().parse_args(
            ["campaign", "report", "--preset", "bitrate", "--store", "x.jsonl"]
        )
        assert args.store == "x.jsonl"


class TestRun:
    def test_run_two_workers_then_cached_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        spec_file = str(tmp_path / "spec.json")
        argv = RUN_ARGS + [
            "--workers", "2", "--store", store, "--save-spec", spec_file,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached on 2 worker(s)" in out
        assert "parameter" in out

        # Resume from the spec file: everything is a cache hit.
        assert main(
            ["campaign", "run", "--spec", spec_file, "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 cached" in out

    def test_report_reads_existing_store(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        spec_file = str(tmp_path / "spec.json")
        assert main(RUN_ARGS + ["--store", store, "--save-spec", spec_file]) == 0
        capsys.readouterr()
        assert main(
            ["campaign", "report", "--spec", spec_file, "--store", store]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 3  # header + one line per grid point

    def test_report_on_empty_store_fails_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "campaign", "report", "--preset", "platoon-size",
                "--store", str(tmp_path / "missing.jsonl"),
            ]
        )
        assert code == 2
        assert "resume" in capsys.readouterr().err

    def test_missing_spec_and_preset_fails_cleanly(self, capsys):
        assert main(["campaign", "run"]) == 2
        assert "--preset" in capsys.readouterr().err

    def test_bad_points_filter_fails_cleanly(self, capsys):
        assert main(
            ["campaign", "run", "--preset", "platoon-size", "--points", "42"]
        ) == 2
        assert "matches nothing" in capsys.readouterr().err

    def test_bad_set_syntax_fails_cleanly(self, capsys):
        assert main(
            ["campaign", "run", "--preset", "platoon-size", "--set", "oops"]
        ) == 2
        assert "PATH=VALUE" in capsys.readouterr().err

    def test_set_seed_is_rejected_with_redirect(self, capsys):
        assert main(
            ["campaign", "run", "--preset", "platoon-size", "--set", "seed=9"]
        ) == 2
        assert "--seed" in capsys.readouterr().err

    def test_set_rounds_is_rejected_with_redirect(self, capsys):
        assert main(
            ["campaign", "run", "--preset", "platoon-size", "--set", "rounds=9"]
        ) == 2
        assert "--rounds" in capsys.readouterr().err

    def test_workers_zero_fails_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "campaign", "run", "--preset", "platoon-size",
                "--workers", "0", "--store", str(tmp_path / "s.jsonl"),
            ]
        )
        assert code == 2
        assert "worker" in capsys.readouterr().err

    def test_run_on_corrupt_store_fails_cleanly(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        store.write_text("garbage\n" + '{"task_id": "a", "row": {}}\n')
        assert main(
            ["campaign", "run", "--preset", "platoon-size", "--store", str(store)]
        ) == 2
        assert "corrupt" in capsys.readouterr().err


class TestPointsFiltering:
    def spec_for(self, argv):
        from repro.cli import _campaign_spec

        return _campaign_spec(build_parser().parse_args(argv))

    def test_speed_preset_selects_by_kmh(self):
        spec = self.spec_for(
            ["campaign", "run", "--preset", "speed", "--points", "80"]
        )
        (ax,) = spec.axes
        assert [p.label for p in ax.points] == [80.0]

    def test_density_preset_sizes_the_platoon_at_the_default_pass(self):
        from repro.scenarios.highway import HighwayConfig

        spec = self.spec_for(["campaign", "run", "--preset", "density"])
        (ax,) = spec.axes
        assert [p.label for p in ax.points] == [3, 6, 12, 24]
        assert [p.overrides for p in ax.points] == [
            {"n_cars": n} for n in (3, 6, 12, 24)
        ]
        assert spec.rounds == 10
        smallest = self.spec_for(
            ["campaign", "run", "--preset", "density", "--points", "3"]
        )
        (task, *rest) = smallest.expand()
        assert len(rest) == 9
        assert task.config() == HighwayConfig(n_cars=3)

    def test_numeric_tolerant_match(self):
        spec = self.spec_for(
            ["campaign", "run", "--preset", "hello-period", "--points", "0.50,3"]
        )
        (ax,) = spec.axes
        assert [p.label for p in ax.points] == [0.5, 3.0]
