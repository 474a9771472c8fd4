"""Analysis orchestration: discover, parse, extract, check.

:func:`analyze_paths` is the single entry point the CLI and the tests
share.  It runs in two passes over the same parsed trees:

1. **Registration pass** -- every file is scanned for contract
   declarations (:func:`repro.analysis.core.extract_registrations`),
   building the :class:`~repro.analysis.core.AnalysisContext`.  The
   declarations come from the *analyzed* tree, never from imports, so
   pointing the analyzer at a violation fixture picks up the fixture's
   own contracts.
2. **Checker pass** -- every checker visits every file, then runs its
   project-wide check; ``# contract: allow[...]`` suppressions are
   filtered out at the end.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.core import (
    AnalysisContext,
    Diagnostic,
    ParsedFile,
    extract_registrations,
    parse_file,
)

__all__ = ["analyze_paths", "default_source_root"]


def default_source_root() -> Path:
    """The installed ``repro`` package's source directory."""
    import repro
    return Path(repro.__file__).resolve().parent


def _discover(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sub for sub in sorted(path.rglob("*.py"))
                         if "__pycache__" not in sub.parts)
        elif path.suffix == ".py":
            files.append(path)
    # De-duplicate while preserving deterministic order.
    seen = set()
    unique: List[Path] = []
    for path in sorted(files):
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def analyze_paths(paths: Optional[Sequence[Path]] = None,
                  checkers: Optional[Iterable[object]] = None) \
        -> AnalysisContext:
    """Run the contract analyzer; diagnostics land on the returned
    context as ``context.diagnostics`` (sorted, suppressions applied).
    """
    if paths is None:
        paths = [default_source_root()]
    context = AnalysisContext()

    parsed_files: List[ParsedFile] = []
    for path in _discover(list(paths)):
        parsed_files.append(parse_file(path))
    context.files = parsed_files

    for parsed in parsed_files:
        extract_registrations(parsed, context)

    active = list(checkers) if checkers is not None else list(ALL_CHECKERS)
    by_path: Dict[str, ParsedFile] = {str(parsed.path): parsed
                                      for parsed in parsed_files}
    diagnostics: List[Diagnostic] = []
    for checker in active:
        for parsed in parsed_files:
            diagnostics.extend(checker.check_file(parsed, context))
        diagnostics.extend(checker.check_project(context))

    kept = [diag for diag in diagnostics
            if not (diag.path in by_path
                    and by_path[diag.path].is_suppressed(diag))]
    kept.sort(key=lambda diag: (diag.path, diag.line, diag.col,
                                diag.checker, diag.message))
    context.diagnostics = kept
    return context
