"""The oracles under ``tests/`` stay outside the program: no module of
``src/repro`` imports anything that lives in ``tests/`` (the
``reference`` package, ``_support``, ``conftest`` or a test module), so
a differential test always compares the program with code it does not
contain."""

from __future__ import annotations

import ast
from pathlib import Path

_TESTS = Path(__file__).resolve().parent
_SOURCE = _TESTS.parent / "src" / "repro"

#: Every top-level name an import could reach ``tests/`` by.
_TEST_MODULES = {"tests"} | {
    path.stem for path in _TESTS.iterdir()
    if path.suffix == ".py" or (path.is_dir() and (path / "__init__.py").exists())}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module


def test_no_source_module_imports_from_tests():
    assert "reference" in _TEST_MODULES and "_support" in _TEST_MODULES
    sources = sorted(_SOURCE.rglob("*.py"))
    assert sources
    offending = [
        f"{path.relative_to(_SOURCE.parent)}:{line}: {module}"
        for path in sources
        for line, module in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module.split(".")[0] in _TEST_MODULES]
    assert offending == []
