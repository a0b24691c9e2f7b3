"""``tools/ab_pairs.py``: the verdict on paired benchmark samples."""

import json
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import ab_pairs  # noqa: E402


def judge(parent, change, better="lower", bound=0.25):
    return ab_pairs.verdict(parent, change, better=better, bound=bound)


PARENT = [2.00, 2.02, 1.98, 2.05, 1.97, 2.01, 2.03, 1.99, 2.04, 2.00]


class TestVerdict:
    def test_quartiles_interpolate_and_the_middle_is_the_median(self):
        assert ab_pairs.pctl([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
        assert ab_pairs.pctl([1.0, 2.0, 3.0, 4.0, 5.0], 0.25) == 2.0
        assert ab_pairs.pctl([1.0, 2.0, 3.0, 4.0], 0.75) == 3.25
        assert ab_pairs.pctl([7.0], 0.25) == 7.0

    def test_ten_of_ten_wins_past_the_parent_iqr_is_a_gain(self):
        result = judge(PARENT, [p * 0.88 for p in PARENT])
        assert result.verdict == "gain"
        assert result.wins == 10
        assert result.delta == pytest.approx(-0.12)

    def test_nine_of_ten_wins_is_enough(self):
        change = [p * 0.88 for p in PARENT]
        change[3] = PARENT[3] + 0.01
        assert judge(PARENT, change).wins == 9
        assert judge(PARENT, change).verdict == "gain"

    def test_fewer_than_ten_pairs_show_no_gain(self):
        # 0.14 % apart, every pair won, the parent's spread smaller still.
        result = ab_pairs.verdict(
            [49.38, 49.38, 49.39], [49.31, 49.31, 49.32], better="lower", bound=0.1
        )
        assert result.wins == 3
        assert result.verdict == "within bound"
        assert judge([10.0] * 3, [9.99] * 3).verdict == "within bound"

    def test_eight_of_ten_wins_is_not(self):
        change = [p * 0.88 for p in PARENT]
        change[3] = PARENT[3] + 0.01
        change[5] = PARENT[5]  # a tie counts for neither side
        result = judge(PARENT, change)
        assert result.wins == 8
        assert result.verdict == "within bound"

    def test_medians_inside_the_parent_iqr_are_no_gain(self):
        # Every pair won, by less than the parent's own spread.
        change = [p - 0.005 for p in PARENT]
        assert judge(PARENT, change).wins == 10
        assert judge(PARENT, change).verdict == "within bound"

    def test_worse_by_more_than_the_bound_is_a_regression(self):
        assert judge(PARENT, [p * 1.30 for p in PARENT]).verdict == "regression"
        assert judge(PARENT, [p * 1.20 for p in PARENT]).verdict == "within bound"
        peak = [40.0] * 10
        assert judge(peak, [44.5] * 10, bound=0.1).verdict == "regression"
        assert judge(peak, [43.5] * 10, bound=0.1).verdict == "within bound"

    def test_higher_is_better_flips_every_comparison(self):
        assert judge(PARENT, [p * 1.12 for p in PARENT], better="higher").verdict == "gain"
        assert (
            judge(PARENT, [p * 0.70 for p in PARENT], better="higher").verdict
            == "regression"
        )

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [1.0, 3.0, 1.2, 2.8, 1.1, 2.9, 1.0, 3.0, 1.2, 2.7]
        shuffled = noisy[5:] + noisy[:5]
        assert judge(noisy, shuffled).verdict == "unresolved"

    def test_unless_every_change_run_beats_every_parent_run(self):
        # Too close for a gain (0.9 apart, inside the parent's 1.6 IQR),
        # too noisy to call unchanged, but no run of the change is worse.
        noisy = [2.0, 3.6] * 5
        result = judge(noisy, [1.9] * 10)
        assert result.wins == 10
        assert result.verdict == "within bound"
        assert judge(noisy, [1.9] * 9 + [2.1]).verdict == "unresolved"

    def test_unpaired_samples_are_refused(self):
        with pytest.raises(ValueError):
            judge([1.0, 2.0], [1.0])


def fake_bench(tmp_path, result):
    """A benchmark command that prints one metric line, then *result*."""
    script = tmp_path / "bench.py"
    script.write_text(f"print('multi_ap cpu_s 1.5 s')\nprint({json.dumps(result)!r})\n")
    return [sys.executable, str(script)]


class TestRuns:
    def test_a_run_with_failed_rows_is_refused(self, tmp_path):
        command = fake_bench(
            tmp_path, {"correct": False, "attempted": 3, "failed": 1, "metrics": {}}
        )
        with pytest.raises(ab_pairs.RefusedRun, match="failed=1 of 3"):
            ab_pairs.run_once(tmp_path, command)

    def test_a_correct_run_yields_its_readings(self, tmp_path):
        command = fake_bench(tmp_path, {
            "correct": True, "attempted": 2, "failed": 0,
            "metrics": {"cpu_s": {"value": 1.5, "unit": "s"}},
        })
        assert ab_pairs.run_once(tmp_path, command) == {"cpu_s": 1.5}


METRICS = [
    metric["name"]
    for metric in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
]


class TestExitStatus:
    """``main()``'s exit status, which CI's perf gate fails on."""

    def run(self, monkeypatch, change_runs):
        """Three pairs: every parent run reads 10 on every metric, and
        the change runs read *change_runs* in turn (a reading, or an
        exception that the run raises)."""
        pending = list(change_runs)

        def run_once(root, command):
            if root.name == "parent":
                return dict.fromkeys(METRICS, 10.0)
            reading = pending.pop(0)
            if isinstance(reading, Exception):
                raise reading
            return reading

        monkeypatch.setattr(ab_pairs, "run_once", run_once)
        return ab_pairs.main(
            ["parent", "change", "--workload", "multi_ap", "--pairs", "3"]
        )

    @staticmethod
    def reading(**values):
        return {**dict.fromkeys(METRICS, 10.0), **values}

    def test_every_metric_within_bound_exits_0(self, monkeypatch, capsys):
        runs = [self.reading(cpu_s=v) for v in (10.2, 9.9, 10.1)]
        assert self.run(monkeypatch, runs) == 0
        assert "regression" not in capsys.readouterr().out

    def test_a_regression_exits_1(self, monkeypatch, capsys):
        runs = [self.reading(cpu_s=13.0) for _ in range(3)]
        assert self.run(monkeypatch, runs) == 1
        assert "| regression |" in capsys.readouterr().out

    def test_a_refused_run_exits_1(self, monkeypatch, capsys):
        runs = [self.reading(), ab_pairs.RefusedRun("rows mismatched")]
        assert self.run(monkeypatch, runs) == 1
        assert "refused: change run of pair 2" in capsys.readouterr().err

    def test_unresolved_does_not_fail(self, monkeypatch, capsys):
        runs = [self.reading(cpu_s=v) for v in (7.0, 10.0, 13.0)]
        assert self.run(monkeypatch, runs) == 0
        assert "| unresolved |" in capsys.readouterr().out
