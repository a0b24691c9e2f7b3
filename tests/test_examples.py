"""Every example and benchmark script still imports, and CI runs every
benchmark.

The tier-1 suite runs none of these scripts, yet each one imports the
library's public names: a rename or a deletion under ``src/`` must fail
here rather than in the first reader's terminal.  ``runpy`` executes
each module body under a name other than ``__main__``, so the scripts'
``main()`` guards keep their simulations from running.
"""

import pathlib
import runpy

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    path.relative_to(REPO).as_posix()
    for folder in ("examples", "benchmarks")
    for path in (REPO / folder).glob("*.py")
)


def test_scripts_found():
    assert len(SCRIPTS) > 10


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports(script):
    runpy.run_path(str(REPO / script), run_name="import_check")


def test_ci_names_every_benchmark():
    """A check in ``benchmarks/`` that no CI job runs checks nothing."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    unrun = [
        script for script in SCRIPTS
        if script.startswith("benchmarks/")
        and script != "benchmarks/conftest.py"
        and script not in workflow
    ]
    assert not unrun, f"no CI job runs {unrun}"
