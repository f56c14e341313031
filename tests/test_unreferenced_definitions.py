"""Every ``def`` and ``class`` under ``src/`` is referenced from ``src/``.

An AST scan counts each ``Name``, ``Attribute`` and imported name in
``src/`` as a reference to every definition of that name -- except the
imports of a sub-package's ``__init__.py``: a re-export there is no
use, only the top-level ``repro/__init__.py`` makes the public API.  A reference
does not keep a definition alive from inside its own body (recursion),
nor from inside a definition that is itself unreferenced, so a chain of
helpers that only call each other is reported whole.  The scan goes by
name only: a dead method that shares its name with a live one stays
hidden, and nothing it reports is a false alarm unless it is called
through a string (``getattr``), which no code in ``src/`` does.

What nothing in ``src/`` calls must either go or be on :data:`KEEP`,
with the reason it stays: the public API (re-exported by
``repro/__init__.py`` or used by README, ``docs/`` or ``examples/``),
a pin of the benchmark in ``perf/``, an entry point of the figure
suite in ``benchmarks/``, or a hook the tests drive.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PUBLIC = "public API"
PERF = "perf/ pin"
HOOK = "test hook"
FIGURES = "figure suite (benchmarks/)"

#: Qualified name -> why it stays although nothing in ``src/`` uses it.
KEEP = {
    "repro.api.dataframe.DataFrame.explain":
        f"{PUBLIC}: README's EXPLAIN example; examples/quickstart.py",
    "repro.api.dataframe.DataFrame.show":
        f"{PUBLIC}: prints a result table, the DataFrame API's display",
    "repro.api.dataframe.DataFrame.skyline_of":
        f"{PUBLIC}: docs/sql.md's paired-list skyline form (Section 5.8)",
    "repro.api.dataframe.DataFrame.to_tuples":
        f"{PUBLIC}: examples/quickstart.py",
    "repro.api.session.QueryResult.pipeline":
        f"{PERF}: perf/rounds.py reads it",
    "repro.api.session.SkylineSession.create_dataframe":
        f"{PUBLIC}: a method of the re-exported SkylineSession",
    "repro.api.session.SkylineSession.read_csv":
        f"{PUBLIC}: a method of the re-exported SkylineSession",
    "repro.api.session.SkylineSession.table_stats":
        f"{PERF}: perf/rounds.py set-up until ROADMAP item 2",
    "repro.bench.harness.run_query":
        f"{FIGURES}: benchmarks/helpers.py times one query with it",
    "repro.bench.harness.dimensions_sweep":
        f"{FIGURES}: the dimension figures (3, 4, 11, 12, 16, 17)",
    "repro.bench.harness.executors_sweep":
        f"{FIGURES}: the executor figures (6-9, 14, 15, 18, 19)",
    "repro.bench.harness.tuples_sweep":
        f"{FIGURES}: the tuple-count figures (5, 10, 13)",
    "repro.bench.reporting.render_sweep":
        f"{FIGURES}: renders each figure's time table",
    "repro.bench.reporting.format_memory_table":
        f"{FIGURES}: renders each memory figure's table",
    "repro.core.algorithms.make_dimensions":
        f"{PUBLIC}: examples/algorithm_library.py",
    "repro.core.incomplete.gulzar_global_skyline":
        f"{PUBLIC}: Appendix A's counterexample, "
        "examples/algorithm_library.py",
    "repro.datasets.airbnb.airbnb_workload":
        f"{PERF}: perf/workloads.py; the airbnb figures, "
        "examples/airbnb_search.py",
    "repro.datasets.generators.anticorrelated_rows":
        f"{FIGURES}: benchmarks/test_ablation_algorithms.py",
    "repro.datasets.generators.correlated_rows":
        f"{FIGURES}: benchmarks/test_ablation_algorithms.py",
    "repro.datasets.generators.independent_rows":
        f"{FIGURES}: benchmarks/test_ablation_algorithms.py",
    "repro.datasets.musicbrainz.musicbrainz_workload":
        f"{PERF}: perf/workloads.py; the MusicBrainz figures, "
        "examples/complex_queries.py",
    "repro.datasets.store_sales.store_sales_workload":
        f"{PERF}: perf/workloads.py; the store_sales figures, "
        "examples/retail_analytics.py",
    "repro.engine.cluster.ExecutionContext.summary":
        f"{PUBLIC}: README and docs/architecture.md's result.context",
    "repro.engine.expressions.Expression.eq_value":
        f"{PUBLIC}: the Expression DSL (col('x').eq_value(1))",
    "repro.engine.expressions.Expression.is_null":
        f"{PUBLIC}: the Expression DSL",
    "repro.engine.expressions.Expression.is_not_null":
        f"{PUBLIC}: the Expression DSL",
    "repro.engine.faults.activate":
        f"{PUBLIC}: docs/robustness.md's fault injection",
    "repro.engine.faults.FaultPlan.from_env":
        f"{HOOK}: tests/engine/test_faults.py builds plans from REPRO_FAULTS",
    "repro.engine.io.write_csv":
        f"{PUBLIC}: the CSV writer beside read_csv",
    "repro.engine.shm._reset_probe":
        f"{HOOK}: tests/engine/test_shm.py re-probes /dev/shm",
    "repro.engine.shm.SharedColumnStore.segment_names":
        f"{HOOK}: tests/engine/test_shm.py checks segment lifetimes",
    "repro.engine.shm.leaked_segments":
        f"{PERF}: perf/run.py and perf/rounds.py report leaks",
    "repro.engine.types.DataType.accepts":
        "input check not wired into create_table/insert_into yet "
        "(see CHANGES.md)",
    "repro.engine.types.IntegerType.accepts":
        "override of DataType.accepts",
    "repro.engine.types.DoubleType.accepts":
        "override of DataType.accepts",
    "repro.serve.scheduler.AdmissionScheduler.inflight":
        f"{HOOK}: tests/serve/ read the admission state",
    "repro.serve.scheduler.AdmissionScheduler.tenant_count":
        f"{HOOK}: tests/serve/test_degradation.py",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(root: pathlib.Path) -> tuple[dict[str, str],
                                       dict[str, list[frozenset]]]:
    """``(definitions, references)`` of the package tree ``root``:
    qualified name -> bare name of every def/class, and bare name -> the
    qualified names of the definitions enclosing each reference to it."""
    definitions: dict[str, str] = {}
    references: dict[str, list[frozenset]] = {}

    def visit(node: ast.AST, scope: str, enclosing: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            names: list[str] = []
            if isinstance(child, _DEFS):
                qualified = f"{scope}.{child.name}"
                definitions[qualified] = child.name
                visit(child, qualified, enclosing + (qualified,))
                continue
            if isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1]
                         for alias in child.names]
            for name in names:
                references.setdefault(name, []).append(frozenset(enclosing))
            visit(child, scope, enclosing)

    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        tree = ast.parse(path.read_text())
        if parts[-1] == "__init__" and len(parts) > 2:
            # A sub-package's re-export is no use: only the top-level
            # package's names are the public API.
            tree.body = [node for node in tree.body if not isinstance(
                node, (ast.Import, ast.ImportFrom))]
        visit(tree, ".".join(parts).removesuffix(".__init__"), ())
    return definitions, references


def unreferenced(keep: "dict[str, str] | set[str]" = KEEP,
                 root: pathlib.Path = SRC) -> list[str]:
    """Qualified names of the definitions nothing live refers to."""
    definitions, references = _scan(root)
    dead: set[str] = set()
    changed = True
    while changed:
        changed = False
        for qualified, name in definitions.items():
            if qualified in dead or qualified in keep or \
                    (name.startswith("__") and name.endswith("__")):
                continue
            if not any(qualified not in enclosing and not enclosing & dead
                       for enclosing in references.get(name, ())):
                dead.add(qualified)
                changed = True
    return sorted(dead)


def test_every_definition_is_referenced_or_kept():
    assert unreferenced() == [], (
        "nothing in src/ refers to these: delete them, or add them to "
        "KEEP with the reason they stay")


def test_keep_names_only_unreferenced_definitions():
    definitions, _ = _scan(SRC)
    assert sorted(set(KEEP) - set(definitions)) == [], "stale KEEP entry"
    assert sorted(set(KEEP) - set(unreferenced(keep=set()))) == [], (
        "referenced from src/ now: drop it from KEEP")


def test_the_scan_sees_recursion_and_dead_chains(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import used\n")
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "def dead_caller():\n    return dead_callee()\n\n"
        "def dead_callee():\n    return used()\n\n"
        "class Holder:\n"
        "    def method(self):\n        return self.method\n"
        "    def __repr__(self):\n        return ''\n\n"
        "Holder()\n")
    assert unreferenced(keep=set(), root=tmp_path) == [
        "pkg.mod.Holder.method", "pkg.mod.dead_callee",
        "pkg.mod.dead_caller", "pkg.mod.recursive"]


def test_a_subpackage_reexport_is_no_use(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("from .sub.mod import public\n")
    (package / "sub" / "__init__.py").write_text(
        "from .mod import public, reexported\n")
    (package / "sub" / "mod.py").write_text(
        "def public():\n    return 1\n\n"
        "def reexported():\n    return 2\n")
    assert unreferenced(keep=set(), root=tmp_path) == [
        "pkg.sub.mod.reexported"]
