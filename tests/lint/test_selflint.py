"""Tier-1 gate: the shipped tree lints clean.

Every finding in ``src/repro`` must be fixed or carry an inline
``lint-ok`` waiver with a written reason — a new violation anywhere in
the package fails this test, which is exactly the CI contract ``repro
lint`` enforces.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_lints_clean_modulo_baseline():
    """Clean modulo inline waivers: the linter has no baseline file."""
    report = lint_paths([REPO_ROOT / "src" / "repro"])
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )


def test_every_waiver_in_the_tree_carries_a_reason():
    report = lint_paths([REPO_ROOT / "src" / "repro"], select=["RPL001"])
    assert report.findings == []
