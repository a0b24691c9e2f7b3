"""``reprolint`` — AST-level determinism & hot-path discipline linter.

The rules encode this repo's load-bearing invariants as static checks
(see ``docs/LINTING.md`` for the catalog):

* **RPL1xx determinism** — no ambient RNG / wall clock outside the
  keyed seams, no ``id()`` ordering, no bare-set iteration;
* **RPL2xx kernel discipline** — NumPy transcendentals in ``radio/``
  route through ``keyed.libm_map`` (the last-ulp bit-identity contract);
* **RPL3xx probe discipline** — every probe-bundle dereference is
  guarded by ``is not None``; no import-time bundles;
* **RPL4xx hot-path shape** — no generator processes in ``mac``/``net``,
  no mid-accumulation rebinds (the PR 7 ``_finish_batch`` bug shape),
  no mutable defaults;
* **RPL5xx layout** — hot-package classes declare ``__slots__``;
* **RPL6xx robustness** — no silently swallowed broad excepts (failures
  must reach the campaign resilience layer, not vanish).

Importing this package registers every built-in rule.
"""

from __future__ import annotations

# Rule modules register themselves on import.
from repro.lint import (  # noqa: F401
    determinism as _determinism,
    hotpath as _hotpath,
    kernel as _kernel,
    layout as _layout,
    probes as _probes,
    robustness as _robustness,
)
from repro.lint.framework import (
    DETERMINISM_PACKAGES,
    HOT_PACKAGES,
    RNG_SEAMS,
    Finding,
    ModuleContext,
    Rule,
    Waiver,
    all_rules,
    get_rule,
    logical_path,
    register,
)
from repro.lint.runner import (
    FRAMEWORK_CODES,
    LintReport,
    collect_files,
    lint_file,
    lint_paths,
    render_json,
    render_text,
    stats_snapshot,
)

__all__ = [
    "DETERMINISM_PACKAGES",
    "FRAMEWORK_CODES",
    "Finding",
    "HOT_PACKAGES",
    "LintReport",
    "ModuleContext",
    "RNG_SEAMS",
    "Rule",
    "Waiver",
    "all_rules",
    "collect_files",
    "get_rule",
    "lint_file",
    "lint_paths",
    "logical_path",
    "register",
    "render_json",
    "render_text",
    "stats_snapshot",
]
