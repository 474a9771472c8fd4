"""Static contract analysis for the repository's own invariants.

``repro.analysis`` is an AST-based checker framework that machine-checks
the contracts declared through :mod:`repro.contracts`:

* :mod:`repro.analysis.core` -- parsed-file model, ``# contract:
  allow[...]`` suppressions, and the *static* extraction of contract
  declarations (``@snapshot_contract``, ``@cache_contract``,
  ``@builder``, ``deterministic_package(...)``,
  ``injection_site(...)``, ``observe_only_package(...)``,
  ``wall_clock_module(...)``) straight out of the source -- analyzed
  trees are never imported.
* :mod:`repro.analysis.checkers` -- the five contract checkers:
  snapshot-immutability, cache-invalidation, determinism (including
  wall-clock confinement), fault coverage and the observe-only
  telemetry contract.
* :mod:`repro.analysis.runner` -- file discovery and orchestration.
* :mod:`repro.analysis.reporters` -- text and JSON diagnostics output.

Entry point: ``xml-index-advisor lint`` (see :mod:`repro.tools.cli`).
"""

from repro.analysis.core import AnalysisContext, Diagnostic
from repro.analysis.runner import analyze_paths, default_source_root
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "AnalysisContext",
    "Diagnostic",
    "analyze_paths",
    "default_source_root",
    "render_json",
    "render_text",
]
