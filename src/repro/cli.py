"""Command-line interface: ``python -m repro <command>`` (or the
installed ``repro`` console script).

Commands regenerate the paper's artifacts from the shell without writing
any Python:

* ``table1 [--rounds N] [--seed S]`` — Table 1 with paper reference columns;
* ``figures [--rounds N] [--flow CAR]`` — ASCII Figures 3–8 for one flow;
* ``highway [--speeds KMH,KMH,…]`` — the drive-thru speed sweep;
* ``multi-ap [--rounds N]`` — the §6 file-download study (these four
  run their rounds in-process on the campaign engine);
* ``scenarios [--markdown|--doc]`` — the registered scenario plugins
  (``--doc`` emits the full ``docs/SCENARIOS.md`` reference);
* ``trace synth|info`` — generate a deterministic synthetic mobility
  trace / summarise any supported trace file (see
  :mod:`repro.mobility.traceio`);
* ``campaign run|report|verify`` — declarative, parallel, resumable
  campaigns over any registered scenario, its presets, or a spec file
  (see :mod:`repro.campaign` and :mod:`repro.scenarios`); ``--metrics``
  streams per-task telemetry into a JSONL sidecar and folds it back in
  reports; runs are supervised (worker respawn, ``--max-attempts``
  retries, ``--task-timeout`` reaping, quarantine into a
  ``<store>.failures`` sidecar, graceful Ctrl-C checkpointing) and
  ``--chaos`` injects deterministic faults to prove it
  (``docs/ROBUSTNESS.md``); ``verify`` integrity-checks a store with
  CI-usable exit codes;
* ``profile`` — cProfile one round or a whole campaign (aggregated),
  optionally emitting a collapsed-stacks flamegraph file;
* ``stats`` — one instrumented round, metrics breakdown with the top
  event-kernel cost centers;
* ``trace-viz`` — one instrumented round exported as Chrome
  trace-event / Perfetto JSON (see ``docs/OBSERVABILITY.md``).

Every scenario-shaped choice here — preset names, ``--scenario`` values,
report table layouts — is enumerated from the scenario plugin registry,
never hard-coded: registering a plugin is all it takes to appear.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable

from repro.analysis import (
    PAPER_TABLE1,
    ascii_plot,
    compute_table1,
    coop_curves,
    estimate_regions,
    flow_matrices,
    optimality_gap,
    reception_curves,
    render_table1,
)
from repro.campaign import (
    CampaignSpec,
    ChaosSpec,
    FailureLog,
    GridAxis,
    GridPoint,
    JsonlStore,
    MemoryStore,
    MetricsLog,
    ProgressReporter,
    RetryPolicy,
    config_from_dict,
    config_to_dict,
    download_summaries,
    matrices_by_round,
    point_summaries,
    run_campaign,
    sweep_points,
)
from repro.campaign.spec import apply_override
from repro.errors import CampaignError, ReproError
from repro.mac.frames import NodeId
from repro.scenarios import (
    all_scenarios,
    get_scenario,
    scenario_names,
    scenario_table_markdown,
)
from repro.units import kmh_to_ms


def _paper_command(
    command: Callable[[argparse.Namespace], int],
) -> Callable[[argparse.Namespace], int]:
    """Report a :class:`ReproError` from a paper command (a campaign the
    engine rejects, say) as ``<command>: <message>`` with exit code 2,
    as every other subcommand does."""

    def run(args: argparse.Namespace) -> int:
        try:
            return command(args)
        except ReproError as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2

    return run


def _run_paper_campaign(
    scenario: str, args: argparse.Namespace, axes: tuple[GridAxis, ...] = ()
) -> tuple[CampaignSpec, MemoryStore]:
    """Run a scenario's default campaign at ``--rounds`` / ``--seed``.

    The tasks are the ones ``repro campaign run --scenario NAME`` runs
    with the same rounds and seed (plus *axes*), executed in-process.
    """
    import dataclasses

    spec = dataclasses.replace(
        _default_scenario_spec(scenario),
        rounds=args.rounds,
        seed=args.seed,
        axes=axes,
    )
    store = MemoryStore()
    run_campaign(spec, store)
    return spec, store


@_paper_command
def _cmd_table1(args: argparse.Namespace) -> int:
    spec, store = _run_paper_campaign("urban", args)
    rows = compute_table1(matrices_by_round(store, spec))
    print(render_table1(rows, paper_reference=PAPER_TABLE1))
    return 0


@_paper_command
def _cmd_figures(args: argparse.Namespace) -> int:
    cars = [NodeId(i + 1) for i in range(3)]
    flow = NodeId(args.flow)
    if flow not in cars:
        print(f"unknown car {args.flow}; choose 1-3", file=sys.stderr)
        return 2
    spec, store = _run_paper_campaign("urban", args)
    matrices = flow_matrices(matrices_by_round(store, spec), flow)
    names = {car: f"car {car}" for car in cars}

    curves = reception_curves(matrices, cars, car_names=names)
    regions = estimate_regions(matrices, cars)
    print(f"Figure {2 + int(flow)} — P(reception), packets addressed to car {flow}")
    print(
        f"Region I: 1–{regions.region_i_end}, Region II: "
        f"–{regions.region_iii_start - 1}, Region III: –{regions.window_length}"
    )
    print(ascii_plot([curves[car].smoothed(7) for car in cars]))

    cc = coop_curves(matrices, car_name=f"car {flow}")
    print(f"\nFigure {5 + int(flow)} — after-coop vs joint "
          f"(optimality gap {optimality_gap(matrices):.4f})")
    print(ascii_plot([cc.joint.smoothed(7), cc.after_coop.smoothed(7)]))
    return 0


def _speed_list(text: str) -> str:
    """The ``--speeds`` argument type: comma-separated finite numbers.

    Returns *text* unchanged for :func:`_cmd_highway` to split.  A speed
    that is not above 0 is left to the highway config's check, which
    names the value it rejects in the campaign's error line.
    """
    for entry in text.split(","):
        try:
            value = float(entry)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{entry!r} in {text!r} is not a number"
            ) from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(
                f"{entry!r} in {text!r} is not a finite number"
            )
    return text


@_paper_command
def _cmd_highway(args: argparse.Namespace) -> int:
    # The ``speed`` preset's axis: labels in km/h, overrides in m/s.
    speeds_kmh = [float(v) for v in args.speeds.split(",")]
    speed = GridAxis(
        name="speed_kmh",
        points=tuple(
            GridPoint(label=v, overrides={"speed_ms": kmh_to_ms(v)})
            for v in speeds_kmh
        ),
    )
    spec, store = _run_paper_campaign("highway", args, axes=(speed,))
    print(f"{'speed':>10} {'pkts':>7} {'before':>8} {'after':>7} {'gain':>6}")
    for point in sweep_points(store, spec):
        print(
            f"{point.parameter:>7.0f} km/h {point.tx_by_ap_mean:>7.0f} "
            f"{100 * point.lost_before_fraction:>7.1f}% "
            f"{100 * point.lost_after_fraction:>6.1f}% "
            f"{100 * point.reduction_fraction:>5.0f}%"
        )
    return 0


@_paper_command
def _cmd_multi_ap(args: argparse.Namespace) -> int:
    spec, store = _run_paper_campaign("multi_ap", args)
    try:
        (summary,) = download_summaries(store, spec)
    except CampaignError:
        print("no car completed the download; lengthen the road")
        return 1
    print(
        f"{spec.base['file_blocks']}-block file, APs every "
        f"{spec.base['ap_spacing_m']:.0f} m: "
        f"{summary.aps_visited_coop_mean:.1f} APs with C-ARQ vs "
        f"{summary.aps_visited_direct_mean:.1f} without "
        f"({100 * summary.visit_reduction_fraction:.0f}% fewer visits)"
    )
    return 0


def _campaign_presets() -> dict:
    """``--preset`` name → its plugin preset, enumerated live from the
    registry (so plugins registered after import still appear).

    Preset names share one CLI namespace across plugins; a collision is
    a registration bug and fails loudly instead of silently shadowing.
    """
    presets = {}
    for plugin in all_scenarios():
        for preset in plugin.presets:
            if preset.name in presets:
                raise CampaignError(
                    f"campaign preset {preset.name!r} is defined by two "
                    f"scenario plugins (seen again on {plugin.name!r})"
                )
            presets[preset.name] = preset
    return presets


def _default_scenario_spec(scenario: str) -> CampaignSpec:
    """A gridless campaign over a scenario's default configuration."""
    plugin = get_scenario(scenario)
    base = plugin.default_config()
    return CampaignSpec(
        name=scenario,
        scenario=scenario,
        seed=base.seed,
        rounds=base.rounds,
        base=config_to_dict(base),
    )


def _parse_set_value(text: str):
    """``--set`` values: JSON when it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _label_matches(label, wanted: str) -> bool:
    """``--points`` matching: exact text, or numerically equal values."""
    if str(label) == wanted:
        return True
    try:
        return float(label) == float(wanted)
    except (TypeError, ValueError):
        return False


def _campaign_spec(args: argparse.Namespace) -> CampaignSpec:
    """Resolve and customise the spec named by
    ``--spec``/``--preset``/``--scenario``."""
    import dataclasses

    if args.spec:
        spec = CampaignSpec.load(args.spec)
        # A hand-written file is outside input: build each grid point's
        # config now, so a value that does not fit or cannot run fails
        # here, naming it, instead of quarantining every task.
        for task in spec.expand():
            if task.round_index == 0:
                task.config()
    elif args.preset:
        spec = CampaignSpec.from_dict(_campaign_presets()[args.preset].build())
    elif getattr(args, "scenario", None):
        spec = _default_scenario_spec(args.scenario)
    else:
        raise CampaignError("pass --preset NAME, --scenario KIND, or --spec FILE")
    if getattr(args, "rounds", None) is not None:
        spec = dataclasses.replace(spec, rounds=args.rounds)
    if getattr(args, "seed", None) is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    if getattr(args, "points", None):
        wanted = [p.strip() for p in args.points.split(",")]
        axes = []
        for ax in spec.axes:
            kept = tuple(
                p
                for p in ax.points
                if any(_label_matches(p.label, w) for w in wanted)
            )
            if not kept:
                raise CampaignError(
                    f"--points {args.points!r} matches nothing on axis {ax.name!r}"
                )
            axes.append(GridAxis(name=ax.name, points=kept))
        spec = dataclasses.replace(spec, axes=tuple(axes))
    for override in getattr(args, "set", None) or []:
        path, sep, raw = override.partition("=")
        if not sep:
            raise CampaignError(f"--set expects PATH=VALUE, got {override!r}")
        path = path.strip()
        if path in ("seed", "rounds"):
            # Task seeds and expansion come from the spec, which would
            # silently shadow a base-config edit — steer to the real knob.
            raise CampaignError(
                f"--set {path}=… has no effect (the campaign {path} wins); "
                f"use --{path} instead"
            )
        cfg = config_from_dict(get_scenario(spec.scenario).config_cls, spec.base)
        cfg = apply_override(cfg, path, _parse_set_value(raw))
        spec = dataclasses.replace(spec, base=config_to_dict(cfg))
    return spec


def _default_store_path(spec: CampaignSpec) -> str:
    return f"campaigns/{spec.name}.jsonl"


def _print_campaign_report(spec: CampaignSpec, store: JsonlStore) -> None:
    plugin = get_scenario(spec.scenario)
    print(plugin.report_header)
    for summary in point_summaries(store, spec):
        print(plugin.report_line(summary))


def _scenario_round_config(args: argparse.Namespace):
    """``(plugin, config)`` for one round of ``--scenario`` with
    ``--seed`` / ``--set`` applied (shared by profile/stats/trace-viz)."""
    import dataclasses

    plugin = get_scenario(args.scenario)
    config = plugin.default_config()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    for override in args.set or []:
        path, sep, raw = override.partition("=")
        if not sep:
            raise CampaignError(f"--set expects PATH=VALUE, got {override!r}")
        config = apply_override(config, path.strip(), _parse_set_value(raw))
    return plugin, config


def _frame_name(func: tuple) -> str:
    """A flamegraph-safe frame label for a pstats function key."""
    filename, _lineno, funcname = func
    if filename in ("~", ""):
        return funcname.strip("<>").replace(";", ":").replace(" ", "_")
    import os.path

    module = os.path.splitext(os.path.basename(filename))[0]
    return f"{module}.{funcname}".replace(";", ":").replace(" ", "_")


def _write_collapsed_stacks(stats, path: str) -> int:
    """Write ``caller;callee microseconds`` lines for flamegraph tools.

    cProfile keeps caller→callee edges, not full stacks, so this is the
    edge-folded approximation: each line attributes a function's
    self-time to its direct caller (two frames deep).  The totals equal
    the profile's tottime, and ``flamegraph.pl`` / speedscope render it
    directly.
    """
    lines = []
    for func, (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        name = _frame_name(func)
        if callers:
            for caller, (_ccc, _cnc, caller_tt, _cct) in callers.items():
                micros = int(round(caller_tt * 1e6))
                if micros > 0:
                    lines.append(f"{_frame_name(caller)};{name} {micros}")
        else:
            micros = int(round(tt * 1e6))
            if micros > 0:
                lines.append(f"{name} {micros}")
    with open(path, "w", encoding="utf-8") as handle:
        for line in sorted(lines):
            handle.write(line + "\n")
    return len(lines)


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile a scenario round — or a whole campaign — and print hot spots.

    Future perf PRs should start from this data rather than guessing:
    ``repro profile --scenario multi_ap`` answers "where does a round
    actually spend its time" in a few seconds.  With ``--preset``,
    ``--spec``, ``--rounds`` or ``--points`` the profiler aggregates
    across every task of the resolved campaign (one profile, all
    rounds), and ``--flamegraph FILE`` additionally writes a collapsed-
    stacks file for flamegraph.pl / speedscope.
    """
    import cProfile
    import pstats

    from repro.campaign.executor import execute_task

    campaign_mode = bool(
        args.preset or args.spec or args.rounds is not None or args.points
    )
    profiler = cProfile.Profile()
    try:
        if campaign_mode:
            spec = _campaign_spec(args)
            tasks = spec.expand()
            for task in tasks:
                profiler.enable()
                execute_task(task)
                profiler.disable()
            print(
                f"profile: aggregated over {len(tasks)} task(s) of "
                f"campaign {spec.name!r}"
            )
        else:
            plugin, config = _scenario_round_config(args)
            context = plugin.build_round(config, args.round)
            profiler.enable()
            context.run()
            profiler.disable()
    except ReproError as exc:
        print(f"profile: {exc}", file=sys.stderr)
        return 2
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.limit)
    if args.flamegraph:
        count = _write_collapsed_stacks(stats, args.flamegraph)
        print(f"wrote {args.flamegraph}: {count} collapsed-stack edges")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run one instrumented round and print the metrics breakdown.

    The event-kernel section names the top cost centers (callback label,
    call count, cumulative wall time) — the evidence the ROADMAP's
    "break the event-kernel ceiling" work plans against.
    """
    import time as _time

    from repro import obs
    from repro.obs.export import render_stats_report

    try:
        plugin, config = _scenario_round_config(args)
        with obs.instrumented():
            start = _time.perf_counter()
            plugin.run_round(config, args.round)
            elapsed_s = _time.perf_counter() - start
            snapshot = obs.registry().snapshot()
    except ReproError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"elapsed_s": elapsed_s, "metrics": snapshot},
                         sort_keys=True))
        return 0
    print(
        f"stats: one {args.scenario!r} round (round {args.round}) "
        f"in {elapsed_s:.2f} s wall"
    )
    print(render_stats_report(snapshot, elapsed_s=elapsed_s, top=args.top))
    return 0


def _cmd_trace_viz(args: argparse.Namespace) -> int:
    """Run one instrumented round and export a Perfetto trace JSON.

    The file loads directly in https://ui.perfetto.dev and shows the
    round → slot → broadcast → batch-kernel span hierarchy against wall
    clock (see docs/OBSERVABILITY.md for how to read it).
    """
    from repro import obs
    from repro.obs.export import write_chrome_trace

    try:
        plugin, config = _scenario_round_config(args)
        with obs.instrumented(capacity=args.capacity) as tracer:
            plugin.run_round(config, args.round)
            tracer.finish()
            document = write_chrome_trace(
                tracer,
                args.out,
                metadata={"scenario": args.scenario, "round": args.round},
            )
    except (ReproError, OSError) as exc:
        print(f"trace-viz: {exc}", file=sys.stderr)
        return 2
    spans = len(document["traceEvents"])
    dropped = f", {tracer.dropped} dropped" if tracer.dropped else ""
    print(
        f"wrote {args.out}: {spans} spans{dropped} (validated); "
        f"open in https://ui.perfetto.dev"
    )
    return 0


def _cmd_trace_synth(args: argparse.Namespace) -> int:
    """Generate a deterministic synthetic trace file.

    The same parameters (and seed) always produce the identical file,
    so CI and examples can regenerate their input instead of shipping
    fixtures: ``repro trace synth --out t.csv`` then ``repro campaign
    run --scenario trace --set trace_file=t.csv``.
    """
    from repro.mobility.traceio import dump_traces, synth_traces

    try:
        traces = synth_traces(
            vehicles=args.vehicles,
            duration_s=args.duration,
            tick_s=args.tick,
            seed=args.seed,
            road_length_m=args.road_length,
            mean_speed_ms=args.speed,
            entry_gap_s=args.entry_gap,
        )
        dump_traces(traces, args.out, fmt=args.format)
    except (ReproError, OSError) as exc:
        print(f"trace synth: {exc}", file=sys.stderr)
        return 2
    summary = traces.summary()
    print(
        f"wrote {args.out} ({args.format}): {summary['vehicles']} vehicles, "
        f"{summary['samples']} samples over {summary['duration_s']:.0f} s, "
        f"mean speed {summary['mean_speed_ms']:.1f} m/s"
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    """Summarise a trace file (any supported format)."""
    from repro.mobility.traceio import detect_format, load_traces

    try:
        fmt = args.format if args.format != "auto" else detect_format(args.file)
        traces = load_traces(args.file, fmt=fmt, unit=args.unit)
    except ReproError as exc:
        print(f"trace info: {exc}", file=sys.stderr)
        return 2
    summary = traces.summary()
    x_min, y_min, x_max, y_max = summary["bbox_m"]
    print(f"format:     {fmt}")
    print(f"vehicles:   {summary['vehicles']}")
    print(f"samples:    {summary['samples']}")
    print(
        f"time:       [{summary['start_time_s']:.2f}, "
        f"{summary['end_time_s']:.2f}] s ({summary['duration_s']:.2f} s)"
    )
    print(
        f"bbox:       [{x_min:.1f}, {y_min:.1f}] – [{x_max:.1f}, {y_max:.1f}] m"
    )
    print(f"path total: {summary['total_path_m']:.0f} m")
    print(f"mean speed: {summary['mean_speed_ms']:.1f} m/s")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """List the registered scenario plugins (the extension surface)."""
    if getattr(args, "doc", False):
        from repro.scenarios.registry import scenario_reference_markdown

        print(scenario_reference_markdown())
        return 0
    if args.markdown:
        print(scenario_table_markdown())
        return 0
    for plugin in all_scenarios():
        print(f"{plugin.name}")
        print(f"  {plugin.description}")
        print(f"  modes:   {', '.join(plugin.modes)}")
        if plugin.presets:
            for preset in plugin.presets:
                print(f"  preset:  {preset.name} — {preset.description}")
        else:
            print("  preset:  (none)")
    return 0


def _campaign_retry_policy(args: argparse.Namespace) -> RetryPolicy:
    """The :class:`RetryPolicy` described by the run flags."""
    import dataclasses

    policy = RetryPolicy()
    if getattr(args, "max_attempts", None) is not None:
        policy = dataclasses.replace(policy, max_attempts=args.max_attempts)
    if getattr(args, "task_timeout", None) is not None:
        policy = dataclasses.replace(policy, timeout_s=args.task_timeout)
    return policy


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    import contextlib

    try:
        spec = _campaign_spec(args)
        if args.save_spec:
            spec.save(args.save_spec)
        chaos = ChaosSpec.parse(args.chaos) if args.chaos else None
        retry = _campaign_retry_policy(args)
        store_path = args.store or _default_store_path(spec)
        with contextlib.ExitStack() as stack:
            store = stack.enter_context(JsonlStore(store_path))
            metrics = None
            if args.metrics:
                metrics = stack.enter_context(
                    MetricsLog(MetricsLog.sidecar_path(store_path))
                )
            failures = stack.enter_context(
                FailureLog(FailureLog.sidecar_path(store_path))
            )
            progress = ProgressReporter(
                total=len(spec.expand()), name=spec.name, stream=sys.stderr
            )
            stats = run_campaign(
                spec, store, workers=args.workers, progress=progress,
                metrics=metrics, failures=failures, retry=retry, chaos=chaos,
                raise_on_failure=False,
            )
            print(progress.summary(), file=sys.stderr)
            print(
                f"campaign {spec.name!r}: {stats.executed} executed, "
                f"{stats.cached} cached on {stats.workers} worker(s) "
                f"in {stats.elapsed_s:.1f} s; store: {store_path}"
            )
            resilience = []
            if stats.retried:
                resilience.append(f"{stats.retried} retried")
            if stats.timeouts:
                resilience.append(f"{stats.timeouts} timed out")
            if stats.worker_restarts:
                resilience.append(f"{stats.worker_restarts} worker restart(s)")
            if stats.chaos_injections:
                resilience.append(f"{stats.chaos_injections} fault(s) injected")
            if stats.serial_fallback:
                resilience.append("degraded to serial")
            if resilience:
                print("resilience: " + ", ".join(resilience))
            if metrics is not None:
                print(f"metrics: {metrics.path}")
            if stats.failed:
                print(
                    f"campaign: {stats.failed} task(s) quarantined "
                    f"(see {failures.path}):",
                    file=sys.stderr,
                )
                print(stats.failure_summary(), file=sys.stderr)
            if stats.interrupted:
                print(
                    "campaign: interrupted — partial results are saved; "
                    "re-run the same command to resume",
                    file=sys.stderr,
                )
                return 130
            if stats.failed:
                # A partial store cannot fold into the per-point report
                # (and the exit code already says "look at the failures").
                return 3
            _print_campaign_report(spec, store)
    except (ReproError, OSError) as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    try:
        spec = _campaign_spec(args)
        store_path = args.store or _default_store_path(spec)
        with JsonlStore(store_path) as store:
            _print_campaign_report(spec, store)
        if args.metrics:
            from repro.campaign.report import render_metrics_report

            with MetricsLog(MetricsLog.sidecar_path(store_path)) as metrics:
                print()
                print(render_metrics_report(metrics))
    except (ReproError, OSError) as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_campaign_verify(args: argparse.Namespace) -> int:
    """Integrity-check a store and its sidecars (read-only, CI-gateable).

    Exit codes: 0 clean, 1 corrupt/incomplete (or warnings under
    ``--strict``), 2 usage errors — so a pipeline can gate on the store
    it just produced: ``repro campaign verify --spec s.json --store x``.
    """
    from repro.campaign.verify import verify_store

    try:
        spec = None
        if args.spec or args.preset or getattr(args, "scenario", None):
            spec = _campaign_spec(args)
        store_path = args.store or (
            _default_store_path(spec) if spec is not None else None
        )
        if store_path is None:
            raise CampaignError(
                "pass --store PATH (or a spec source to derive it from)"
            )
        report = verify_store(store_path, spec=spec)
    except (ReproError, OSError) as exc:
        print(f"campaign verify: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if not report.ok:
        return 1
    if args.strict and report.warnings:
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the linter is tooling, not simulation, and the
    # other subcommands should not pay for loading it.
    from repro.lint import runner

    return runner.main(args)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'A Cooperative ARQ for Delay-Tolerant "
        "Vehicular Networks' (ICDCS WS 2008)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--rounds", type=int, default=15)
    table1.add_argument("--seed", type=int, default=2008)
    table1.set_defaults(func=_cmd_table1)

    figures = sub.add_parser("figures", help="ASCII Figures 3-8 for one flow")
    figures.add_argument("--rounds", type=int, default=15)
    figures.add_argument("--seed", type=int, default=2008)
    figures.add_argument("--flow", type=int, default=1, help="destination car (1-3)")
    figures.set_defaults(func=_cmd_figures)

    highway = sub.add_parser("highway", help="drive-thru speed sweep")
    highway.add_argument(
        "--speeds", type=_speed_list, default="40,80,120",
        help="km/h, comma-separated",
    )
    highway.add_argument("--rounds", type=int, default=3)
    highway.add_argument("--seed", type=int, default=404)
    highway.set_defaults(func=_cmd_highway)

    multi_ap = sub.add_parser("multi-ap", help="file download across APs")
    multi_ap.add_argument("--rounds", type=int, default=2)
    multi_ap.add_argument("--seed", type=int, default=77)
    multi_ap.set_defaults(func=_cmd_multi_ap)

    profile = sub.add_parser(
        "profile", help="cProfile a scenario round or campaign (perf work starts here)"
    )
    profile.add_argument(
        "--scenario",
        choices=scenario_names(),
        default="urban",
        help="scenario to profile (default config, one round)",
    )
    profile.add_argument(
        "--preset",
        choices=sorted(_campaign_presets()),
        help="profile every task of this campaign preset (aggregated)",
    )
    profile.add_argument(
        "--spec", help="profile every task of this CampaignSpec JSON file"
    )
    profile.add_argument("--seed", type=int, default=None, help="override config seed")
    profile.add_argument("--round", type=int, default=0, help="round index to build")
    profile.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="campaign mode: profile this many rounds aggregated",
    )
    profile.add_argument(
        "--points",
        help="campaign mode: comma-separated grid labels to keep",
    )
    profile.add_argument(
        "--sort",
        choices=["cumulative", "tottime", "calls"],
        default="cumulative",
        help="pstats sort key",
    )
    profile.add_argument("--limit", type=int, default=20, help="rows to print")
    profile.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a config field, e.g. --set round_duration_s=10",
    )
    profile.add_argument(
        "--flamegraph",
        metavar="FILE",
        help="also write a collapsed-stacks file (flamegraph.pl / speedscope)",
    )
    profile.set_defaults(func=_cmd_profile)

    stats = sub.add_parser(
        "stats", help="run one instrumented round and print the metrics breakdown"
    )
    stats.add_argument(
        "--scenario",
        choices=scenario_names(),
        default="urban",
        help="scenario to instrument (default config, one round)",
    )
    stats.add_argument("--seed", type=int, default=None, help="override config seed")
    stats.add_argument("--round", type=int, default=0, help="round index to build")
    stats.add_argument("--top", type=int, default=12, help="cost-center rows to print")
    stats.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a config field, e.g. --set round_duration_s=10",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the raw metrics snapshot as JSON instead of the breakdown",
    )
    stats.set_defaults(func=_cmd_stats)

    trace_viz = sub.add_parser(
        "trace-viz",
        help="run one instrumented round and export Perfetto trace JSON",
    )
    trace_viz.add_argument(
        "--scenario",
        choices=scenario_names(),
        default="urban",
        help="scenario to trace (default config, one round)",
    )
    trace_viz.add_argument("--out", required=True, help="output trace JSON path")
    trace_viz.add_argument("--seed", type=int, default=None, help="override config seed")
    trace_viz.add_argument("--round", type=int, default=0, help="round index to build")
    trace_viz.add_argument(
        "--capacity",
        type=int,
        default=100_000,
        help="span ring-buffer size (oldest spans drop beyond this)",
    )
    trace_viz.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a config field, e.g. --set round_duration_s=10",
    )
    trace_viz.set_defaults(func=_cmd_trace_viz)

    scenarios = sub.add_parser(
        "scenarios", help="list the registered scenario plugins"
    )
    scenarios.add_argument(
        "--markdown",
        action="store_true",
        help="emit the README scenario table (same metadata)",
    )
    scenarios.add_argument(
        "--doc",
        action="store_true",
        help="emit the full scenario reference (docs/SCENARIOS.md)",
    )
    scenarios.set_defaults(func=_cmd_scenarios)

    trace = sub.add_parser(
        "trace", help="mobility-trace utilities (synthesize / inspect)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    synth = trace_sub.add_parser(
        "synth", help="write a deterministic synthetic trace file"
    )
    synth.add_argument("--out", required=True, help="output file path")
    synth.add_argument(
        "--format",
        choices=["csv", "sumo-fcd", "ns2"],
        default="csv",
        help="output format (default csv)",
    )
    synth.add_argument("--vehicles", type=int, default=8)
    synth.add_argument("--duration", type=float, default=120.0, help="seconds")
    synth.add_argument("--tick", type=float, default=1.0, help="sample tick, s")
    synth.add_argument("--seed", type=int, default=97)
    synth.add_argument("--road-length", type=float, default=2000.0, help="metres")
    synth.add_argument("--speed", type=float, default=20.0, help="mean m/s")
    synth.add_argument(
        "--entry-gap", type=float, default=4.0, help="seconds between entries"
    )
    synth.set_defaults(func=_cmd_trace_synth)

    info = trace_sub.add_parser("info", help="summarise a trace file")
    info.add_argument("file", help="trace file (SUMO FCD XML / ns-2 setdest / CSV)")
    info.add_argument(
        "--format",
        choices=["auto", "csv", "sumo-fcd", "ns2"],
        default="auto",
        help="input format (default: sniff)",
    )
    info.add_argument("--unit", default="m", help="coordinate unit (m, km, ft, …)")
    info.set_defaults(func=_cmd_trace_info)

    campaign = sub.add_parser(
        "campaign", help="declarative, parallel, resumable campaigns"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _spec_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--preset",
            choices=sorted(_campaign_presets()),
            help="a scenario plugin's campaign preset",
        )
        p.add_argument(
            "--scenario",
            choices=scenario_names(),
            help="gridless campaign over a scenario's default config",
        )
        p.add_argument("--spec", help="CampaignSpec JSON file (overrides --preset)")
        p.add_argument("--store", help="JSONL result store (default campaigns/<name>.jsonl)")
        p.add_argument("--rounds", type=int, default=None, help="override spec rounds")
        p.add_argument("--seed", type=int, default=None, help="override campaign seed")
        p.add_argument(
            "--points",
            help="comma-separated grid labels to keep (smoke runs / sharding)",
        )
        p.add_argument(
            "--set",
            action="append",
            metavar="PATH=VALUE",
            help="override a base-config field, e.g. --set round_duration_s=40",
        )

    run = campaign_sub.add_parser("run", help="execute a campaign (resumable)")
    _spec_arguments(run)
    run.add_argument("--workers", type=int, default=1, help="worker processes")
    run.add_argument("--save-spec", help="also write the resolved spec JSON here")
    run.add_argument(
        "--metrics",
        action="store_true",
        help="stream per-task metric snapshots into <store>.metrics",
    )
    run.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="executions per task before quarantine (default 3)",
    )
    run.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget; hung workers are killed and "
        "the task retried (pool mode only)",
    )
    run.add_argument(
        "--chaos",
        metavar="SPEC",
        help="deterministic fault injection, e.g. "
        "rate=0.3,seed=7,kinds=crash|raise,hang=5 "
        "(kinds: crash, hang, raise, torn-write)",
    )
    run.set_defaults(func=_cmd_campaign_run)

    report = campaign_sub.add_parser(
        "report", help="aggregate an existing store (no simulation)"
    )
    _spec_arguments(report)
    report.add_argument(
        "--metrics",
        action="store_true",
        help="also fold and print the <store>.metrics telemetry sidecar",
    )
    report.set_defaults(func=_cmd_campaign_report)

    verify = campaign_sub.add_parser(
        "verify",
        help="integrity-check a result store and its sidecars (read-only)",
    )
    _spec_arguments(verify)
    verify.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings (torn tail, stale rows) as failures too",
    )
    verify.set_defaults(func=_cmd_campaign_verify)

    lint = sub.add_parser(
        "lint",
        help="run reprolint (AST determinism & hot-path discipline checks)",
        description=(
            "Static checks for this repo's load-bearing invariants: "
            "keyed randomness, libm-routed kernels, guarded probes, "
            "flattened hot paths, slotted layouts. See docs/LINTING.md."
        ),
    )
    lint.add_argument(
        "paths", nargs="+", help="files or directories to lint"
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="PREFIX",
        help="only report codes matching PREFIX (repeatable, e.g. RPL1)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        metavar="PREFIX",
        help="suppress codes matching PREFIX (repeatable)",
    )
    lint.add_argument(
        "--stats",
        action="store_true",
        help="emit per-rule hit counts as an obs metrics snapshot (JSON)",
    )
    lint.add_argument(
        "-v", "--verbose", action="store_true", help="also list waived findings"
    )
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
