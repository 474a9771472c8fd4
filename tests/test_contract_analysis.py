"""Tests for the contract analyzer (``repro.analysis``) and its CLI gate.

The seeded fixture files under ``tests/fixtures/contracts/`` each carry
deliberate violations for one checker; the tests pin the exact
(checker, line) set every fixture produces, then assert the live source
tree lints clean -- the same invariant CI enforces through
``xml-index-advisor lint``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, default_source_root
from repro.tools.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures" / "contracts"


def _diagnose(name: str, tests_dir: Path):
    context = analyze_paths(paths=[FIXTURES / f"{name}.py"],
                            tests_dir=tests_dir)
    return context.diagnostics


def _checker_lines(diagnostics):
    return {(d.checker, d.line) for d in diagnostics}


@pytest.fixture
def empty_tests_dir(tmp_path):
    """An empty test corpus, so fixture escape hatches count as untested."""
    corpus = tmp_path / "no-tests"
    corpus.mkdir()
    return corpus


class TestSnapshotChecker:
    def test_seeded_violations(self, empty_tests_dir):
        diagnostics = _diagnose("bad_snapshot", empty_tests_dir)
        assert _checker_lines(diagnostics) == {
            ("snapshot-immutability", 23),  # write in a non-builder method
            ("snapshot-immutability", 32),  # attribute write
            ("snapshot-immutability", 33),  # container mutation
            ("snapshot-immutability", 34),  # mutator call outside build phase
            ("snapshot-immutability", 35),  # attribute delete
            ("snapshot-immutability", 40),  # augmented write via annotation
        }

    def test_memo_builder_and_suppressed_writes_allowed(self, empty_tests_dir):
        diagnostics = _diagnose("bad_snapshot", empty_tests_dir)
        flagged = {d.line for d in diagnostics}
        # The memo write (24), builder-body writes (19, 46) and the
        # `# contract: allow[...]` suppressed write (52) stay silent.
        assert flagged.isdisjoint({19, 24, 46, 52})


class TestCacheChecker:
    def test_seeded_violations(self, empty_tests_dir):
        diagnostics = _diagnose("bad_cache", empty_tests_dir)
        assert _checker_lines(diagnostics) == {
            ("cache-invalidation", 31),  # unrevalidated public read
            ("cache-invalidation", 37),  # reached through indirect_bad()
            ("cache-invalidation", 46),  # push memo touched by a stranger
        }

    def test_messages_carry_entry_point(self, empty_tests_dir):
        diagnostics = _diagnose("bad_cache", empty_tests_dir)
        by_line = {d.line: d.message for d in diagnostics}
        assert "indirect_bad()" in by_line[37]
        assert "stray_writer()" in by_line[46]


class TestHatchChecker:
    def test_seeded_violations(self, empty_tests_dir):
        diagnostics = _diagnose("bad_hatch", empty_tests_dir)
        messages = sorted(d.message for d in diagnostics)
        assert len(diagnostics) == 5
        assert sum("never branched" in m for m in messages) == 1
        assert sum("only guards dead code" in m for m in messages) == 1
        # With an empty corpus all three fixture flags are untested.
        assert sum("not referenced by any test" in m for m in messages) == 3

    def test_diagnostics_anchor_to_declarations(self, empty_tests_dir):
        diagnostics = _diagnose("bad_hatch", empty_tests_dir)
        assert {d.line for d in diagnostics} == {10, 11, 12}


class TestDeterminismChecker:
    def test_seeded_violations(self, empty_tests_dir):
        diagnostics = _diagnose("bad_determinism", empty_tests_dir)
        assert _checker_lines(diagnostics) == {
            ("determinism", 19),  # time.time()
            ("determinism", 23),  # datetime.now()
            ("determinism", 27),  # random.choice()
            ("determinism", 32),  # for-loop over a set
            ("determinism", 35),  # list() over a set
        }

    def test_sorted_and_seeded_random_allowed(self, empty_tests_dir):
        diagnostics = _diagnose("bad_determinism", empty_tests_dir)
        # clean() at the bottom of the fixture: sorted() iteration and a
        # seeded random.Random draw no diagnostics.
        assert all(d.line < 38 for d in diagnostics)


class TestFaultCoverageChecker:
    def test_seeded_violations(self, empty_tests_dir):
        diagnostics = _diagnose("bad_faults", empty_tests_dir)
        assert _checker_lines(diagnostics) == {
            ("fault-coverage", 11),  # registered site never consulted
            ("fault-coverage", 20),  # catalog mutation with no fault point
            ("fault-coverage", 23),  # consult of an unregistered site
        }

    def test_covered_mutation_is_silent(self, empty_tests_dir):
        diagnostics = _diagnose("bad_faults", empty_tests_dir)
        # covered_mutation pairs its add_index with a fault point (17),
        # and the wired site's declaration (10) is consulted.
        assert {d.line for d in diagnostics}.isdisjoint({10, 16, 17})


class TestTelemetryChecker:
    """The fixture is a package: ``bad_telemetry/`` declares its own
    observe-only plane and audited clock module so both the telemetry
    checker and the wall-clock confinement pass engage on it alone."""

    def _diagnose_package(self, tests_dir):
        context = analyze_paths(paths=[FIXTURES / "bad_telemetry"],
                                tests_dir=tests_dir)
        return context.diagnostics

    def test_seeded_violations(self, empty_tests_dir):
        diagnostics = self._diagnose_package(empty_tests_dir)
        assert _checker_lines(diagnostics) == {
            ("telemetry", 13),    # plane.py: governed import in the plane
            ("telemetry", 34),    # engine.py: data-dependent histogram bounds
            ("telemetry", 38),    # engine.py: governed mutator in recording arg
            ("telemetry", 42),    # engine.py: pass-through telemetry write
            ("telemetry", 43),    # engine.py: augmented pass-through write
            ("determinism", 47),  # engine.py: time.* outside the clock module
        }

    def test_fixture_registrations_extracted(self, empty_tests_dir):
        context = analyze_paths(paths=[FIXTURES / "bad_telemetry"],
                                tests_dir=empty_tests_dir)
        assert "bad_telemetry.plane" in context.observe_only_packages
        assert "bad_telemetry.clock" in context.wall_clock_modules

    def test_clean_section_and_clock_module_silent(self, empty_tests_dir):
        diagnostics = self._diagnose_package(empty_tests_dir)
        # clean() in engine.py (literal bounds, module-constant bounds,
        # pure recording args, reads routed through the audited clock)
        # and the whole declared clock module stay silent.
        assert all(d.line < 50 for d in diagnostics)
        assert all(not d.path.endswith("clock.py") for d in diagnostics)

    def test_messages_name_the_contract(self, empty_tests_dir):
        by_line = {d.line: d.message
                   for d in self._diagnose_package(empty_tests_dir)}
        assert "observe-only package bad_telemetry.plane" in by_line[13]
        assert "literal number sequence" in by_line[34]
        assert "governed mutator refresh()" in by_line[38]
        assert "record through inc()/observe()/set()" in by_line[42]
        assert "wall-clock module" in by_line[47]


class TestCleanFixture:
    def test_correct_usage_is_silent(self, empty_tests_dir):
        assert _diagnose("clean", empty_tests_dir) == []


class TestLiveTree:
    def test_source_tree_lints_clean(self):
        context = analyze_paths()
        rendered = "\n".join(d.render() for d in context.diagnostics)
        assert context.diagnostics == [], rendered

    def test_live_registrations_present(self):
        context = analyze_paths()
        assert "DatabaseStatistics" in context.snapshots
        assert "QueryPlan" in context.snapshots
        hatch_names = {hatch.name for hatch in context.hatches}
        assert hatch_names == {
            "use_columnar", "use_incremental", "use_collection_costing",
        }
        assert "repro.tuning" in context.deterministic_packages
        assert "index.build" in context.sites
        assert "migration.commit" in context.sites
        assert "repro.telemetry" in context.observe_only_packages
        assert "repro.telemetry.clock" in context.wall_clock_modules

    def test_default_source_root_is_package(self):
        assert default_source_root().name == "repro"


class TestCli:
    def test_lint_exits_zero_on_live_tree(self, capsys):
        assert cli_main(["lint"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_lint_exits_nonzero_on_fixtures(self, capsys, empty_tests_dir):
        code = cli_main(["lint", "--path", str(FIXTURES),
                         "--tests-dir", str(empty_tests_dir)])
        assert code == 1
        out = capsys.readouterr().out
        for checker in ("snapshot-immutability", "cache-invalidation",
                        "escape-hatch", "determinism", "fault-coverage",
                        "telemetry"):
            assert checker in out

    def test_lint_json_format(self, capsys, empty_tests_dir):
        code = cli_main(["lint", "--format", "json",
                         "--path", str(FIXTURES / "bad_cache.py"),
                         "--tests-dir", str(empty_tests_dir)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == 3
        assert payload["files_checked"] == 1
        checkers = {d["checker"] for d in payload["diagnostics"]}
        assert checkers == {"cache-invalidation"}
