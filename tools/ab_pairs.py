"""Alternating A/B pairs of the benchmark: a parent tree against a change.

Usage::

    python3 tools/ab_pairs.py PARENT_ROOT CHANGE_ROOT --workload multi_ap --pairs 10
    python3 tools/ab_pairs.py PARENT_ROOT CHANGE_ROOT --workload trace --pairs 10 --seed 1

Each side runs the command ``BENCHMARK.json`` declares (a plain run of
one workload, ``--seconds`` set to its ``run_seconds``) with that tree as
the working directory; the pairs alternate which side goes first.  A run
that does not print ``"correct": true`` with 0 failed is refused: the
tool stops with exit status 1.  Every run's end-to-end readings are
printed, then, for each end-to-end metric, both sides' median and
quartiles, the pairs the change won and a verdict:

``gain``
    over at least ten pairs, the change won at least nine tenths of them
    (ties count for neither side) and the medians lie further apart than
    the parent's interquartile range;
``regression``
    the change's median is worse than the parent's by more than the
    metric's ``bound`` (a share of the parent's median);
``unresolved``
    neither, and the runs spread wider than the bound, while not every
    change run beat every parent run;
``within bound``
    otherwise.

Exit status: 0, or 1 when a run was refused or a metric regressed.  The
tool reads ``BENCHMARK.json`` next to this directory and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Share of pairs the change must win for a gain.
WIN_SHARE = 0.9
#: Fewest pairs that can show a gain; fewer read at most ``within bound``.
MIN_GAIN_PAIRS = 10
#: Hard stop for one benchmark run.
RUN_TIMEOUT_S = 600.0


class RefusedRun(RuntimeError):
    """A benchmark run failed, or its rows did not match the references."""


def pctl(values: list[float], q: float) -> float:
    """The *q*-quantile, interpolated between closest ranks
    (``pctl(v, 0.5)`` is the median)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


@dataclass(frozen=True)
class Verdict:
    """One end-to-end metric over all pairs."""

    parent: tuple[float, float, float]   # q1, median, q3
    change: tuple[float, float, float]
    wins: int
    pairs: int
    delta: float                          # change median vs parent's, as a share
    verdict: str


def verdict(
    parent: list[float], change: list[float], *, better: str, bound: float
) -> Verdict:
    """Judge paired samples (``parent[i]`` ran beside ``change[i]``)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of parent and change runs, at least one")
    sign = 1.0 if better == "lower" else -1.0
    p = (pctl(parent, 0.25), pctl(parent, 0.5), pctl(parent, 0.75))
    c = (pctl(change, 0.25), pctl(change, 0.5), pctl(change, 0.75))
    scale = abs(p[1]) or 1.0
    wins = sum(sign * (b - a) < 0.0 for a, b in zip(parent, change))
    worse_by = sign * (c[1] - p[1]) / scale
    spread = max(p[2] - p[0], c[2] - c[0]) / scale
    if worse_by > bound:
        kind = "regression"
    elif (
        len(parent) >= MIN_GAIN_PAIRS
        and wins >= math.ceil(WIN_SHARE * len(parent))
        and -sign * (c[1] - p[1]) > p[2] - p[0]
    ):
        kind = "gain"
    elif spread > bound and not all(
        sign * (b - a) < 0.0 for a in parent for b in change
    ):
        kind = "unresolved"
    else:
        kind = "within bound"
    return Verdict(p, c, wins, len(parent), (c[1] - p[1]) / scale, kind)


def run_once(root: pathlib.Path, command: list[str]) -> dict[str, float]:
    """One benchmark run in *root*; returns its end-to-end readings."""
    done = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RefusedRun(f"{root}: exit {done.returncode}\n{done.stderr.strip()}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RefusedRun(f"{root}: last line is not the result: {lines[-1]!r}") from None
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RefusedRun(
            f"{root}: correct={result.get('correct')!r}, "
            f"failed={result.get('failed')!r} of {result.get('attempted')!r}"
        )
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=pathlib.Path)
    parser.add_argument("change_root", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [
        *bench["command"], "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(bench["run_seconds"]),
    ]
    metrics = bench["end_to_end"]
    sides = {"parent": args.parent_root, "change": args.change_root}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    names = [m["name"] for m in metrics]
    print(f"# {args.workload}, seed {args.seed}: {' '.join(command)}")
    print("| pair | first | side | " + " | ".join(names) + " |")
    print("| --- | --- | --- | " + " | ".join("---" for _ in names) + " |")
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            started = time.monotonic()
            try:
                reading = run_once(sides[side], command)
            except (RefusedRun, subprocess.TimeoutExpired) as exc:
                print(f"refused: {side} run of pair {pair + 1}: {exc}", file=sys.stderr)
                return 1
            runs[side].append(reading)
            cells = " | ".join(f"{reading[n]:.4g}" for n in names)
            print(f"| {pair + 1} | {order[0]} | {side} | {cells} |", flush=True)
            print(
                f"pair {pair + 1} {side}: {time.monotonic() - started:.0f} s",
                file=sys.stderr, flush=True,
            )

    print()
    print("| metric | parent median [q1, q3] | change median [q1, q3] | Δ | wins | verdict |")
    print("| --- | --- | --- | --- | --- | --- |")
    regressed = False
    for metric in metrics:
        name = metric["name"]
        result = verdict(
            [r[name] for r in runs["parent"]],
            [r[name] for r in runs["change"]],
            better=metric["better"],
            bound=metric["bound"],
        )
        regressed |= result.verdict == "regression"
        p, c = result.parent, result.change
        print(
            f"| {name} ({metric['unit']}) "
            f"| {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}] "
            f"| {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}] "
            f"| {result.delta:+.1%} | {result.wins}/{result.pairs} | {result.verdict} |"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
