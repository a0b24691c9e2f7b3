"""The ``reprolint`` runner: collect files, run rules, apply waivers,
render text/JSON/stats output.

Exit-code semantics (consumed by CI):

* ``0`` — clean: no reported findings;
* ``1`` — findings reported;
* ``2`` — usage or internal error (unknown rule code, path does not
  exist).

``--select``/``--ignore`` filter *reporting* by code prefix
(``--select RPL1`` keeps the determinism family).  Every rule always
runs regardless, so waiver bookkeeping (used/stale) is independent of
the filter — a waiver does not become "unused" just because its family
was deselected this invocation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.lint.framework import Finding, ModuleContext, all_rules

#: Codes emitted by the framework itself rather than a registered rule.
FRAMEWORK_CODES: dict[str, str] = {
    "RPL000": "file does not parse",
    "RPL001": "malformed waiver (missing code or reason)",
    "RPL002": "stale waiver (matches no finding)",
}


@dataclass(slots=True)
class LintReport:
    """Everything one lint invocation learned."""

    files: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    waived: list[Finding] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def summary(self) -> str:
        return (
            f"{len(self.files)} file(s), {len(self.findings)} finding(s), "
            f"{len(self.waived)} waived"
        )


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Python files under *paths*, sorted, skipping caches and hidden dirs."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        if path.is_file():
            files.add(path)
            continue
        for candidate in path.rglob("*.py"):
            if any(
                part == "__pycache__" or part.startswith(".")
                for part in candidate.parts
            ):
                continue
            files.add(candidate)
    return sorted(files)


def lint_file(path: str | Path, source: str | None = None) -> tuple[
    list[Finding], list[Finding]
]:
    """``(reported, waived)`` findings for one file."""
    path = Path(path)
    if source is None:
        source = path.read_text(encoding="utf-8")
    module = ModuleContext(str(path), source)

    raw: list[Finding] = []
    if module.parse_error is not None:
        raw.append(module.parse_error)
    else:
        for rule in all_rules():
            raw.extend(rule.check(module))
    raw.extend(module.malformed_waivers)

    reported: list[Finding] = []
    waived: list[Finding] = []
    for finding in raw:
        waiver = next(
            (w for w in module.waivers if w.covers(finding)), None
        )
        if waiver is not None:
            waiver.used = True
            waived.append(finding)
        else:
            reported.append(finding)

    for waiver in module.waivers:
        if not waiver.used:
            reported.append(
                Finding(
                    code="RPL002",
                    message=(
                        f"stale waiver for {', '.join(waiver.codes)} — no "
                        f"finding here any more; delete the comment"
                    ),
                    path=str(path),
                    line=waiver.line,
                    col=0,
                    context="<module>",
                )
            )
    return reported, waived


def _code_selected(
    code: str, select: Sequence[str] | None, ignore: Sequence[str] | None
) -> bool:
    if select and not any(code.startswith(prefix) for prefix in select):
        return False
    if ignore and any(code.startswith(prefix) for prefix in ignore):
        return False
    return True


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintReport:
    """Run every rule over *paths* and fold in waivers."""
    report = LintReport()
    all_reported: list[Finding] = []
    for path in collect_files(paths):
        report.files.append(str(path))
        reported, waived = lint_file(path)
        all_reported.extend(reported)
        report.waived.extend(waived)

    report.findings = sorted(
        (f for f in all_reported if _code_selected(f.code, select, ignore)),
        key=Finding.sort_key,
    )
    report.waived.sort(key=Finding.sort_key)
    return report


# -- output renderers ---------------------------------------------------------


def render_text(report: LintReport, *, verbose: bool = False) -> str:
    lines = [finding.render() for finding in report.findings]
    if verbose:
        lines.extend(f"waived: {f.render()}" for f in report.waived)
    lines.append(report.summary())
    return "\n".join(lines)


def render_json(report: LintReport) -> dict[str, Any]:
    def row(finding: Finding) -> dict[str, Any]:
        return {
            "code": finding.code,
            "message": finding.message,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "context": finding.context,
        }

    return {
        "files": len(report.files),
        "findings": [row(f) for f in report.findings],
        "waived": [row(f) for f in report.waived],
        "exit_code": report.exit_code,
    }


def stats_snapshot(report: LintReport) -> dict[str, Any]:
    """The report as an obs metrics-registry snapshot.

    Uses a *fresh* :class:`~repro.obs.registry.MetricsRegistry` (never
    the process-wide one — lint runs must not pollute campaign metrics)
    so the output merges and renders through the exact machinery
    ``repro stats`` already uses: ``merge_snapshots`` across runs,
    ``render_stats_report`` for the human view.
    """
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("lint.files").inc(len(report.files))
    registry.counter("lint.findings").inc(len(report.findings))
    registry.counter("lint.waived").inc(len(report.waived))
    hits = registry.table("lint.rule_hits")
    for finding in report.findings + report.waived:
        registry.counter(f"lint.rule_hits.{finding.code}").inc()
        hits.add(finding.code, 1.0)
    return registry.snapshot()


# -- CLI entry (wired through ``repro lint``) ---------------------------------


def main(args: Any) -> int:
    """Entry point for the ``repro lint`` subcommand (argparse namespace)."""
    try:
        known = {rule.code for rule in all_rules()} | set(FRAMEWORK_CODES)
        for prefix in (args.select or []) + (args.ignore or []):
            if not any(code.startswith(prefix) for code in known):
                print(f"error: no rule code matches prefix {prefix!r}")
                return 2
        report = lint_paths(args.paths, select=args.select, ignore=args.ignore)
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2

    if args.stats:
        print(json.dumps(stats_snapshot(report), indent=2, sort_keys=True))
    elif args.format == "json":
        print(json.dumps(render_json(report), indent=2, sort_keys=True))
    else:
        print(render_text(report, verbose=args.verbose))
    return report.exit_code
