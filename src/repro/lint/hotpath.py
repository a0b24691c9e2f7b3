"""RPL4xx — hot-path shape: flattened callbacks, honest accumulators.

PR 7 flattened the event kernel's hot control flow: generator-based
processes cost a frame resume per event, so CSMA contention and AP flow
senders became self-rescheduling callbacks.  These rules keep that shape from
regressing — and encode the exact bug shape that refactor shipped and
the runtime pins missed: ``_finish_batch`` rebinding its ``delivered``
accumulator with the FER-outcome list, so every dense-broadcast delivery
was appended to a list nobody read.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.framework import (
    HOT_PACKAGES,
    Finding,
    ModuleContext,
    Rule,
    in_packages,
    register,
)


@register
class GeneratorProcessRule(Rule):
    code = "RPL401"
    name = "no new generator-based processes in mac/ or net/"
    rationale = (
        "PR 7 flattened MAC contention and AP flow senders into "
        "self-rescheduling callbacks: a generator process costs a frame "
        "resume per event and hides the reschedule from the profiler. New "
        "hot-path logic in mac/ and net/ must be written as callbacks; "
        "generators remain fine in core/ protocol orchestration."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.tree is None or not in_packages(module.logical, ("mac", "net")):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for child in ast.walk(node):
                if isinstance(child, (ast.Yield, ast.YieldFrom)):
                    # Anchor on the def so one finding per generator,
                    # and so the waiver sits on the signature.
                    yield self.finding(
                        module,
                        node,
                        f"{node.name}() is a generator-based process; "
                        f"mac/ and net/ hot paths are flattened "
                        f"self-rescheduling callbacks (PR 7)",
                    )
                    break


@dataclass(slots=True)
class _Accumulation:
    line: int
    loops: tuple[int, ...]  # id() stack of enclosing loops


@dataclass(slots=True)
class _Rebind:
    node: ast.Assign | ast.AnnAssign
    name: str
    line: int
    loops: tuple[int, ...]


_ACCUMULATE_METHODS = frozenset(
    {"append", "extend", "add", "update", "insert", "appendleft", "setdefault"}
)


def _is_empty_container(expr: ast.expr | None) -> bool:
    """``[]`` / ``{}`` / ``set()`` / ``list()`` …: the legitimate
    accumulator (re-)initialisation shapes."""
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        return not expr.elts
    if isinstance(expr, ast.Dict):
        return not expr.keys
    if isinstance(expr, ast.Call):
        return (
            isinstance(expr.func, ast.Name)
            and expr.func.id in ("list", "dict", "set", "deque", "defaultdict")
            and not expr.args
            and not expr.keywords
        )
    return False


@register
class AccumulatorShadowRule(Rule):
    code = "RPL402"
    name = "accumulator rebound mid-accumulation"
    rationale = (
        "The PR 7 `_finish_batch` bug shape: a name that is appended to "
        "(an accumulator, often a caller-owned parameter) is rebound to a "
        "computed value partway through the function, so later appends land "
        "in an object nobody reads. Record-comparison pins cannot see this "
        "— the rows are 'valid', just silently empty."
    )

    def _scan_function(
        self, module: ModuleContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        params = {
            arg.arg
            for arg in (
                func.args.posonlyargs + func.args.args + func.args.kwonlyargs
            )
        }
        accumulations: dict[str, list[_Accumulation]] = {}
        rebinds: list[_Rebind] = []

        def scan(node: ast.AST, loops: tuple[int, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue  # nested scopes have their own accumulators
                if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                    scan(child, loops + (id(child),))
                    continue
                if isinstance(child, ast.Call):
                    fn = child.func
                    if (
                        isinstance(fn, ast.Attribute)
                        and fn.attr in _ACCUMULATE_METHODS
                        and isinstance(fn.value, ast.Name)
                    ):
                        accumulations.setdefault(fn.value.id, []).append(
                            _Accumulation(line=child.lineno, loops=loops)
                        )
                if isinstance(child, ast.AugAssign) and isinstance(
                    child.target, ast.Name
                ):
                    accumulations.setdefault(child.target.id, []).append(
                        _Accumulation(line=child.lineno, loops=loops)
                    )
                if isinstance(child, ast.Assign):
                    for target in child.targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                        ):
                            accumulations.setdefault(
                                target.value.id, []
                            ).append(
                                _Accumulation(line=child.lineno, loops=loops)
                            )
                    if len(child.targets) == 1 and isinstance(
                        child.targets[0], ast.Name
                    ):
                        rebinds.append(
                            _Rebind(
                                child, child.targets[0].id, child.lineno, loops
                            )
                        )
                if isinstance(child, ast.AnnAssign) and isinstance(
                    child.target, ast.Name
                ):
                    if child.value is not None:
                        rebinds.append(
                            _Rebind(
                                child, child.target.id, child.lineno, loops
                            )
                        )
                scan(child, loops)

        scan(func, ())

        for rebind in rebinds:
            value = rebind.node.value
            if value is None or _is_empty_container(value):
                continue
            if isinstance(value, ast.Constant) or (
                isinstance(value, ast.UnaryOp)
                and isinstance(value.operand, ast.Constant)
            ):
                continue  # counter reset (``stagnant = 0``) is idiomatic
            rhs_names = {
                n.id for n in ast.walk(value) if isinstance(n, ast.Name)
            }
            if rebind.name in rhs_names:
                continue  # ``parts = sorted(parts)`` keeps the accumulator
            accums = accumulations.get(rebind.name, [])
            if not accums:
                continue
            # The name must already be an accumulator when the rebind
            # runs: a caller-owned parameter, or accumulated above.
            prior = rebind.name in params or any(
                a.line < rebind.line for a in accums
            )
            if not prior:
                continue
            later = any(a.line > rebind.line for a in accums)
            same_loop = bool(rebind.loops) and any(
                a.loops and a.loops[-1] == rebind.loops[-1] for a in accums
            )
            if later or same_loop:
                origin = (
                    "the caller's accumulator parameter"
                    if rebind.name in params
                    else "its own accumulator"
                )
                yield self.finding(
                    module,
                    rebind.node,
                    f"{rebind.name!r} is accumulated into elsewhere in this "
                    f"function but rebound here to a computed value — "
                    f"later appends target a severed object "
                    f"(the PR 7 _finish_batch bug shape; {origin})",
                )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.tree is None or not in_packages(module.logical, HOT_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scan_function(module, node)


@register
class MutableDefaultRule(Rule):
    code = "RPL403"
    name = "no mutable default arguments in hot packages"
    rationale = (
        "A mutable default ([]/{}) on a simulator-registered callback is "
        "shared across every invocation and every round in a worker "
        "process — state leaks between rounds and the paired-seed "
        "campaign arms silently diverge."
    )

    _FACTORY_NAMES = frozenset({"list", "dict", "set", "bytearray"})

    def _mutable(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(expr, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in self._FACTORY_NAMES
        )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.tree is None or not in_packages(module.logical, HOT_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults: list[ast.expr] = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if self._mutable(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument on {node.name}() is "
                        f"shared across calls and rounds; default to None "
                        f"and construct inside",
                    )
