"""Shared model for the contract analyzer.

Three things live here:

* :class:`Diagnostic` and :class:`ParsedFile` -- the units the runner
  and reporters exchange, including ``# contract: allow[checker]``
  line suppressions.
* Static extraction of contract declarations: a pre-pass over every
  analyzed file that recognizes the :mod:`repro.contracts` declaration
  forms *syntactically* (decorator and call shapes with literal
  arguments).  Analyzed code is never imported, so violation fixtures
  are self-describing and linting cannot execute the tree under test.
* :class:`AnalysisContext` -- the extracted declarations plus the
  parsed files, handed to every checker.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

__all__ = [
    "Diagnostic",
    "ParsedFile",
    "SnapshotDecl",
    "CacheDecl",
    "SiteDecl",
    "AnalysisContext",
    "parse_file",
    "module_name_for",
    "extract_registrations",
    "decorator_name",
    "call_name",
]

#: ``# contract: allow[snapshot-immutability]`` (comma-separated names
#: or ``*``) suppresses diagnostics reported on the same line.
_ALLOW_RE = re.compile(r"#\s*contract:\s*allow\[([^\]]*)\]")


@dataclass(frozen=True)
class Diagnostic:
    """One checker finding, anchored to a source location."""

    checker: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"[{self.checker}] {self.message}")


@dataclass
class ParsedFile:
    """A source file parsed once and shared by every checker."""

    path: Path
    module: str
    tree: ast.Module
    source: str
    #: line number -> set of checker names allowed on that line
    #: (``{"*"}`` allows every checker).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    def is_suppressed(self, diagnostic: Diagnostic) -> bool:
        allowed = self.suppressions.get(diagnostic.line)
        if not allowed:
            return False
        return "*" in allowed or diagnostic.checker in allowed


@dataclass(frozen=True)
class SnapshotDecl:
    """A ``@snapshot_contract`` declaration found in the tree."""

    name: str
    module: str
    path: str
    line: int
    builders: Tuple[str, ...] = ()
    mutators: Tuple[str, ...] = ()
    memo_attrs: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class CacheDecl:
    """A ``@cache_contract`` declaration found in the tree."""

    class_name: str
    module: str
    path: str
    line: int
    #: attr -> policy mapping ({"policy": ..., "revalidators": ...}).
    memos: Mapping[str, Mapping[str, object]] = field(default_factory=dict)


@dataclass(frozen=True)
class SiteDecl:
    """An ``injection_site("...")`` declaration found in the tree."""

    name: str
    module: str
    path: str
    line: int


@dataclass
class AnalysisContext:
    """Everything the checkers need: declarations plus parsed files."""

    files: List[ParsedFile] = field(default_factory=list)
    #: snapshot class name -> declaration (class names are unique in
    #: the governed tree; the checkers match on the simple name so
    #: annotations like ``statistics: DatabaseStatistics`` resolve).
    snapshots: Dict[str, SnapshotDecl] = field(default_factory=dict)
    #: ``(module, qualname)`` of every ``@builder`` function.
    builder_functions: Set[Tuple[str, str]] = field(default_factory=set)
    caches: List[CacheDecl] = field(default_factory=list)
    #: fault-injection site name -> declaration.
    sites: Dict[str, SiteDecl] = field(default_factory=dict)
    deterministic_packages: List[str] = field(default_factory=list)
    #: ``observe_only_package("...")`` declarations (non-governing
    #: telemetry scopes, checked by the telemetry checker).
    observe_only_packages: List[str] = field(default_factory=list)
    #: ``wall_clock_module("...")`` declarations: the only modules in
    #: their top-level trees allowed to read ``time.*`` clocks.
    wall_clock_modules: List[str] = field(default_factory=list)
    #: Filled in by the runner: final, sorted, suppression-filtered.
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def in_deterministic_scope(self, module: str) -> bool:
        return any(module == pkg or module.startswith(pkg + ".")
                   for pkg in self.deterministic_packages)

    def observe_only_scope(self, module: str) -> Optional[str]:
        """The observe-only package containing ``module``, if any."""
        for pkg in self.observe_only_packages:
            if module == pkg or module.startswith(pkg + "."):
                return pkg
        return None

    def in_wall_clock_confined_scope(self, module: str) -> bool:
        """True when ``module`` shares a top-level package with a
        declared wall-clock module but is not itself one of them."""
        if module in self.wall_clock_modules:
            return False
        tops = {decl.split(".")[0] for decl in self.wall_clock_modules}
        return module.split(".")[0] in tops


def module_name_for(path: Path) -> str:
    """Dotted module name, walking up while ``__init__.py`` exists.

    ``src/repro/tuning/monitor.py`` -> ``repro.tuning.monitor``; a
    free-standing fixture file maps to its stem.
    """
    path = path.resolve()
    parts: List[str] = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or path.stem


def parse_file(path: Path) -> ParsedFile:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    suppressions: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            names = {part.strip() for part in match.group(1).split(",")
                     if part.strip()}
            if names:
                suppressions[lineno] = names
    return ParsedFile(path=path, module=module_name_for(path), tree=tree,
                      source=source, suppressions=suppressions)


def decorator_name(node: ast.expr) -> Optional[str]:
    """The terminal name of a decorator expression (``contracts.builder``
    and ``builder`` both yield ``"builder"``); ``None`` for exotic
    shapes."""
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The terminal name of a call's callee."""
    return decorator_name(node)


def _literal(node: Optional[ast.expr], default: object) -> object:
    if node is None:
        return default
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return default


def _str_tuple(node: Optional[ast.expr]) -> Tuple[str, ...]:
    value = _literal(node, ())
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple, set, frozenset)):
        return tuple(str(item) for item in sorted(value)) \
            if isinstance(value, (set, frozenset)) \
            else tuple(str(item) for item in value)
    return ()


class _RegistrationCollector(ast.NodeVisitor):
    """Pre-pass: pull contract declarations out of one parsed file."""

    def __init__(self, parsed: ParsedFile, context: AnalysisContext) -> None:
        self.parsed = parsed
        self.context = context
        self._qualname: List[str] = []

    # -- helpers -------------------------------------------------------
    def _keyword(self, call: ast.Call, name: str) -> Optional[ast.expr]:
        for keyword in call.keywords:
            if keyword.arg == name:
                return keyword.value
        return None

    def _record_class(self, node: ast.ClassDef) -> None:
        for deco in node.decorator_list:
            if not isinstance(deco, ast.Call):
                continue
            name = decorator_name(deco)
            if name == "snapshot_contract":
                self.context.snapshots[node.name] = SnapshotDecl(
                    name=node.name,
                    module=self.parsed.module,
                    path=str(self.parsed.path),
                    line=node.lineno,
                    builders=_str_tuple(self._keyword(deco, "builders")),
                    mutators=_str_tuple(self._keyword(deco, "mutators")),
                    memo_attrs=frozenset(
                        _str_tuple(self._keyword(deco, "memo_attrs"))))
            elif name == "cache_contract":
                memos = _literal(self._keyword(deco, "memos"), {})
                if isinstance(memos, dict):
                    self.context.caches.append(CacheDecl(
                        class_name=node.name,
                        module=self.parsed.module,
                        path=str(self.parsed.path),
                        line=node.lineno,
                        memos=memos))

    def _record_function(self, node: ast.AST) -> None:
        for deco in node.decorator_list:  # type: ignore[attr-defined]
            if isinstance(deco, ast.Call):
                continue
            if decorator_name(deco) == "builder":
                qualname = ".".join(
                    self._qualname + [node.name])  # type: ignore[attr-defined]
                self.context.builder_functions.add(
                    (self.parsed.module, qualname))

    # -- visitors ------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._record_class(node)
        self._qualname.append(node.name)
        self.generic_visit(node)
        self._qualname.pop()

    def _visit_function(self, node: ast.AST) -> None:
        self._record_function(node)
        self._qualname.append(node.name)  # type: ignore[attr-defined]
        self.generic_visit(node)
        self._qualname.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name in ("deterministic_package", "injection_site",
                    "observe_only_package", "wall_clock_module") and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if name == "injection_site":
                    self.context.sites.setdefault(first.value, SiteDecl(
                        name=first.value,
                        module=self.parsed.module,
                        path=str(self.parsed.path),
                        line=node.lineno))
                elif name == "observe_only_package":
                    if first.value not in self.context.observe_only_packages:
                        self.context.observe_only_packages.append(first.value)
                elif name == "wall_clock_module":
                    if first.value not in self.context.wall_clock_modules:
                        self.context.wall_clock_modules.append(first.value)
                elif first.value not in self.context.deterministic_packages:
                    self.context.deterministic_packages.append(first.value)
        self.generic_visit(node)


def extract_registrations(parsed: ParsedFile,
                          context: AnalysisContext) -> None:
    """Fold one file's contract declarations into ``context``."""
    _RegistrationCollector(parsed, context).visit(parsed.tree)
