"""The ``reprolint`` core: findings, waivers, module contexts, rule registry.

One :class:`ModuleContext` per file — the source is read and parsed
exactly once, and every registered :class:`Rule` walks the same tree.
Rules are small classes with a ``code`` (``RPL101``…), a one-line
``name`` and a ``rationale`` paragraph; the catalog in
``docs/LINTING.md`` is generated from these attributes, so rule metadata
lives in exactly one place.

Waivers are inline comments::

    self._rng = np.random.default_rng()  # repro: lint-ok RPL101 (ad-hoc fallback; builders inject seeded streams)

A waiver *must* carry a parenthesised reason — a bare ``lint-ok`` is
itself a finding (``RPL001``), and a waiver that matches no finding is a
stale one (``RPL002``).  Waivers are read from comment tokens only
(via :mod:`tokenize`), so the marker appearing inside a string literal —
fixture sources in tests, documentation snippets — never counts.

Scoping: rules apply to logical module paths *inside the repro package*
(``mac/medium.py``), derived from the last ``repro`` path component, so
the linter behaves identically whether pointed at ``src/repro``, an
installed checkout, or a test fixture tree containing a ``repro/``
directory.  Files outside any ``repro`` package (e.g. ``tests/``) only
get the framework hygiene rules.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import PurePath
from typing import ClassVar, Iterable, Iterator

#: Packages whose modules must not draw wall-clock or ambient randomness.
DETERMINISM_PACKAGES: tuple[str, ...] = (
    "sim", "mac", "net", "core", "radio", "mobility",
)

#: Packages whose per-instance layout and control-flow shape are hot.
HOT_PACKAGES: tuple[str, ...] = ("sim", "mac", "net", "core", "radio")

#: The sanctioned randomness seams: the only modules allowed to mint
#: generators / keyed streams directly.
RNG_SEAMS: tuple[str, ...] = (
    "sim/random.py",
    "radio/keyed.py",
    "mobility/traceio/synth.py",
)

#: Batch-kernel modules bound by the last-ulp libm contract (PR 4).
KERNEL_PACKAGE = "radio"
KERNEL_SEAM = "radio/keyed.py"


@dataclass(frozen=True, slots=True)
class Finding:
    """One lint finding, anchored to a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int
    context: str  # enclosing ``Class.method`` qualname, or ``<module>``

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(slots=True)
class Waiver:
    """An inline ``# repro: lint-ok CODE… (reason)`` comment."""

    codes: tuple[str, ...]
    reason: str
    line: int
    used: bool = False

    def covers(self, finding: Finding) -> bool:
        """A waiver covers findings on its own line or the line below
        (so a standalone comment can sit above the offending statement)."""
        return finding.code in self.codes and finding.line in (
            self.line,
            self.line + 1,
        )


_WAIVER_RE = re.compile(
    r"repro:\s*lint-ok\b(?P<codes>[^(]*)(?:\((?P<reason>.*)\))?\s*$"
)
_CODE_RE = re.compile(r"^RPL\d{3}$")


def _parse_waiver_comment(
    text: str, line: int, path: str
) -> "Waiver | Finding | None":
    """A :class:`Waiver`, a malformed-waiver :class:`Finding`, or ``None``
    when the comment is not a waiver marker at all."""
    match = _WAIVER_RE.search(text)
    if match is None:
        return None
    codes = tuple(
        part for part in re.split(r"[,\s]+", match.group("codes").strip()) if part
    )
    reason = (match.group("reason") or "").strip()
    bad = [code for code in codes if not _CODE_RE.match(code)]
    if not codes or bad or not reason:
        detail = (
            f"unknown code(s) {', '.join(bad)}" if bad
            else "missing rule code(s)" if not codes
            else "missing (reason)"
        )
        return Finding(
            code="RPL001",
            message=(
                f"malformed waiver: {detail}; write "
                f"'# repro: lint-ok RPL101 (why this site is exempt)'"
            ),
            path=path,
            line=line,
            col=0,
            context="<module>",
        )
    return Waiver(codes=codes, reason=reason, line=line)


def logical_path(path: str) -> str | None:
    """Path relative to the innermost ``repro`` package, as posix.

    ``src/repro/mac/medium.py`` → ``mac/medium.py``;
    files outside any ``repro`` directory → ``None``.
    """
    parts = PurePath(path).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1:])
    return None


def in_packages(logical: str | None, packages: Iterable[str]) -> bool:
    """Is *logical* a module inside one of *packages*?"""
    if logical is None:
        return False
    head = logical.split("/", 1)[0]
    return head in tuple(packages)


class ModuleContext:
    """One parsed source file, shared by every rule.

    ``tree`` is ``None`` when the file does not parse —
    the runner reports that as an ``RPL000`` finding.
    """

    __slots__ = (
        "path", "logical", "source", "tree", "waivers",
        "malformed_waivers", "parse_error", "_contexts", "_in_function",
    )

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.logical = logical_path(path)
        self.source = source
        self.waivers: list[Waiver] = []
        self.malformed_waivers: list[Finding] = []
        self.parse_error: Finding | None = None
        self._contexts: dict[int, str] = {}
        self._in_function: set[int] = set()
        try:
            self.tree: ast.Module | None = ast.parse(source)
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = Finding(
                code="RPL000",
                message=f"file does not parse: {exc.msg}",
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                context="<module>",
            )
            return
        self._scan_waivers()
        self._map_contexts()

    def _scan_waivers(self) -> None:
        """Collect waivers from COMMENT tokens (never string literals)."""
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                parsed = _parse_waiver_comment(
                    token.string, token.start[0], self.path
                )
                if isinstance(parsed, Waiver):
                    self.waivers.append(parsed)
                elif isinstance(parsed, Finding):
                    # Malformed waivers surface through the runner (RPL001).
                    self.malformed_waivers.append(parsed)
        except tokenize.TokenizeError:
            pass

    def _map_contexts(self) -> None:
        """Record the enclosing qualname for every node (one walk)."""
        assert self.tree is not None

        def visit(
            node: ast.AST, stack: tuple[str, ...], in_function: bool
        ) -> None:
            for child in ast.iter_child_nodes(node):
                self._contexts[id(child)] = ".".join(stack) or "<module>"
                if in_function:
                    self._in_function.add(id(child))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, stack + (child.name,), True)
                elif isinstance(child, ast.ClassDef):
                    visit(child, stack + (child.name,), in_function)
                else:
                    visit(child, stack, in_function)

        visit(self.tree, (), False)

    def context_of(self, node: ast.AST) -> str:
        """Enclosing ``Class.method`` qualname for *node* (``<module>``
        at top level)."""
        return self._contexts.get(id(node), "<module>")

    def in_function(self, node: ast.AST) -> bool:
        """Is *node* lexically inside any function body?"""
        return id(node) in self._in_function


class Rule:
    """Base class: one code, one invariant, one ``check`` pass."""

    code: ClassVar[str] = ""
    name: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            code=self.code,
            message=message,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            context=module.context_of(node),
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and index the rule by its code."""
    if not _CODE_RE.match(cls.code):
        raise ValueError(f"rule {cls.__name__} has invalid code {cls.code!r}")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls()
    return cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by code (import side effect:
    importing :mod:`repro.lint` registers the built-in rule modules)."""
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


def get_rule(code: str) -> Rule:
    return _REGISTRY[code]


# -- shared AST helpers -------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map of local names to the canonical dotted path they import.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from datetime import datetime`` → ``{"datetime": "datetime.datetime"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    head = name.name.split(".", 1)[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def canonical_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """The canonical dotted path of a call through the import map.

    ``np.random.default_rng(…)`` → ``numpy.random.default_rng`` when
    ``np`` aliases numpy; calls on local objects resolve to ``None``.
    """
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    canonical = aliases.get(head)
    if canonical is None:
        return None
    return f"{canonical}.{rest}" if rest else canonical
