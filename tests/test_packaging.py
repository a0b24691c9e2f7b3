"""``setup.py`` declares every third-party package that ``repro`` imports.

CI jobs install the package alone (``pip install -e .``) and then run
it, so an import that ``install_requires`` leaves out works only where
something else happened to install it.
"""

import ast
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]


def declared_requirements() -> set[str]:
    """Distribution names in ``setup()``'s ``install_requires``."""
    tree = ast.parse((REPO / "setup.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup":
            for keyword in node.keywords:
                if keyword.arg == "install_requires":
                    return {
                        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
                        for spec in ast.literal_eval(keyword.value)
                    }
    return set()


def third_party_imports() -> dict[str, str]:
    """Top-level name of every absolute import under ``src/repro`` that is
    neither the standard library nor ``repro``, with one module using it."""
    found: dict[str, str] = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "repro":
                    found.setdefault(top, str(path.relative_to(REPO)))
    return found


def test_every_third_party_import_is_declared():
    imports = third_party_imports()
    assert imports, "the scan found no third-party import at all"
    missing = {
        name: module for name, module in imports.items()
        if name.lower() not in declared_requirements()
    }
    assert not missing, f"imported but not in install_requires: {missing}"
