"""Tests for the cross-module analysis layer and the rules built on it.

Covers the symbol-table/call-graph builder (``repro.lint.graph``), the
reaching-definitions walk (``repro.lint.dataflow``), and the four
interprocedural rules: PAR001 (worker purity), PAR002 (pickle safety),
DET003 (seed provenance), and EXP002 (cells/synthesize pairing plus
scheme literals).  Each rule gets at least one seeded violation that
must be caught and one clean idiom that must not be.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.lint import Finding, run_lint
from repro.lint.dataflow import ReachingDefinitions, provenance_atoms
from repro.lint.engine import FileContext, ProjectContext, collect_files
from repro.lint.graph import CallGraph, ModuleTable, module_name_for


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def project_from(tmp_path: Path, files: dict[str, str]) -> ProjectContext:
    write_tree(tmp_path, files)
    contexts = []
    for path in collect_files([tmp_path]):
        source = path.read_text(encoding="utf-8")
        contexts.append(FileContext(path, path.as_posix(), source,
                                    ast.parse(source)))
    return ProjectContext(contexts)


def rules_hit(findings: list[Finding]) -> set[str]:
    return {finding.rule for finding in findings}


def messages_for(findings: list[Finding], rule: str) -> list[str]:
    return [f.message for f in findings if f.rule == rule]


# ---------------------------------------------------------------------------
# The call graph


class TestCallGraph:
    FIXTURE = {
        "pkg/__init__.py": "",
        "pkg/alpha.py": """
            from pkg.beta import helper

            def entry():
                return helper() + local()

            def local():
                return 1
        """,
        "pkg/beta.py": """
            def helper():
                return worker()

            def worker():
                return 2

            def unreachable():
                return 3
        """,
    }

    def test_module_naming_walks_init_files(self, tmp_path):
        project = project_from(tmp_path, self.FIXTURE)
        ctx = project.find("pkg/alpha.py")
        assert module_name_for(ctx) == "pkg.alpha"

    def test_edges_cross_modules_through_from_imports(self, tmp_path):
        graph = CallGraph.build(project_from(tmp_path, self.FIXTURE))
        assert "pkg.beta.helper" in graph.callees("pkg.alpha.entry")
        assert "pkg.alpha.local" in graph.callees("pkg.alpha.entry")
        assert "pkg.beta.worker" in graph.callees("pkg.beta.helper")

    def test_reachability_is_transitive_and_bounded(self, tmp_path):
        graph = CallGraph.build(project_from(tmp_path, self.FIXTURE))
        reachable = {fn.qualname
                     for fn in graph.reachable_from(["pkg.alpha.entry"])}
        assert "pkg.beta.worker" in reachable
        assert "pkg.beta.unreachable" not in reachable

    def test_method_edges_through_self_and_annotations(self, tmp_path):
        graph = CallGraph.build(project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/ctx.py": """
                class Context:
                    def run(self):
                        return self.step()

                    def step(self):
                        return 1
            """,
            "pkg/use.py": """
                from pkg.ctx import Context

                def drive(ctx: Context):
                    return ctx.run()
            """,
        }))
        assert "pkg.ctx.Context.step" in graph.callees("pkg.ctx.Context.run")
        reachable = {fn.qualname
                     for fn in graph.reachable_from(["pkg.use.drive"])}
        assert "pkg.ctx.Context.step" in reachable

    def test_function_reference_passed_as_argument_counts_as_call(
        self, tmp_path
    ):
        # submit(fn, ...) never syntactically calls fn, but the pool
        # will; treating the reference as an edge keeps PAR001 sound.
        graph = CallGraph.build(project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/jobs.py": """
                def task():
                    return 1

                def schedule(pool):
                    return pool.submit(task)
            """,
        }))
        assert "pkg.jobs.task" in graph.callees("pkg.jobs.schedule")

    def test_call_through_module_dispatch_table_reaches_every_entry(
        self, tmp_path
    ):
        # execute_cell dispatches on the cell kind through a table; the
        # worker-purity and cache-key proofs must still see every kind.
        graph = CallGraph.build(project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/kinds.py": """
                def simulate(cell):
                    return 1

                def profile(cell):
                    return 2

                KINDS = {"simulate": Kind(simulate), "profile": Kind(profile)}
                PLAIN = {"simulate": simulate}

                def execute(cell):
                    return KINDS[cell.kind].execute(cell)

                def execute_plain(cell):
                    return PLAIN[cell.kind](cell)
            """,
        }))
        assert {"pkg.kinds.simulate", "pkg.kinds.profile"} <= set(
            graph.callees("pkg.kinds.execute")
        )
        assert "pkg.kinds.simulate" in graph.callees("pkg.kinds.execute_plain")

    def test_path_suffix_resolution_for_fixture_trees(self, tmp_path):
        # ``from repro.runner.cells import Cell`` must resolve against a
        # fixture laid out as tmp/runner/cells.py: real source is linted
        # from many roots, so exact dotted matching alone is not enough.
        table = ModuleTable.build(project_from(tmp_path, {
            "runner/cells.py": "def execute_cell(ctx, cell):\n    return 1\n",
            "runner/engine.py": """
                from repro.runner.cells import execute_cell

                def run(cell):
                    return execute_cell(None, cell)
            """,
        }))
        importer = None
        for info in table.modules.values():
            if info.ctx.matches("runner/engine.py"):
                importer = info
        resolved = table.resolve_module("repro.runner.cells", importer)
        assert resolved is not None
        assert resolved.ctx.matches("runner/cells.py")


# ---------------------------------------------------------------------------
# Reaching definitions and provenance


class TestDataflow:
    def fn(self, source: str) -> ast.FunctionDef:
        tree = ast.parse(textwrap.dedent(source))
        return next(n for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef))

    def test_parameters_and_assignments_are_definitions(self):
        fn = self.fn("""
            def f(a, b=2):
                c = a + b
                c = c * 2
                return c
        """)
        defs = ReachingDefinitions(fn)
        assert defs.is_local("a") and defs.is_local("c")
        assert not defs.is_local("missing")
        assert [d.line for d in defs.definitions("c", before_line=4)] == [3]

    def test_nested_function_bindings_stay_out_of_scope(self):
        fn = self.fn("""
            def f():
                def g():
                    inner = 1
                    return inner
                return g()
        """)
        assert not ReachingDefinitions(fn).is_local("inner")

    def test_provenance_slices_through_locals_and_calls(self):
        fn = self.fn("""
            def f(ctx):
                import os
                raw = os.environ["SEED"]
                seed = int(raw)
                return seed
        """)
        defs = ReachingDefinitions(fn)
        ret = next(n for n in ast.walk(fn) if isinstance(n, ast.Return))
        atoms = list(provenance_atoms(ret.value, defs, use_line=ret.lineno))
        texts = {atom.text for atom in atoms}
        # The env read survives the int(...) wrapper and the local hop.
        assert any("os.environ" in text for text in texts)

    def test_literal_and_parameter_atoms(self):
        fn = self.fn("""
            def f(ctx):
                seed = ctx.seed if ctx.seed else 7
                return seed
        """)
        defs = ReachingDefinitions(fn)
        ret = next(n for n in ast.walk(fn) if isinstance(n, ast.Return))
        kinds = {atom.kind
                 for atom in provenance_atoms(ret.value, defs,
                                              use_line=ret.lineno)}
        assert "literal" in kinds
        assert "attribute" in kinds


# ---------------------------------------------------------------------------
# PAR001: worker purity


PAR001_BASE = {
    "runner/engine.py": """
        from repro.runner.cells import execute_cell

        _WORKER_GLOBALS = ("_WORKER_CTX",)

        _WORKER_CTX = None

        def _worker_init(ctx):
            global _WORKER_CTX
            _WORKER_CTX = ctx

        def _worker_run(cell):
            return execute_cell(_WORKER_CTX, cell)
    """,
    "runner/cells.py": """
        from repro.runner.stats import bump

        def execute_cell(ctx, cell):
            return bump(cell)
    """,
}


class TestPar001:
    def test_reachable_module_mutation_triggers(self, tmp_path):
        tree = write_tree(tmp_path, dict(PAR001_BASE, **{
            "runner/stats.py": """
                _COUNTER = {}

                def bump(cell):
                    _COUNTER[cell] = _COUNTER.get(cell, 0) + 1
                    return _COUNTER[cell]
            """,
        }))
        messages = messages_for(run_lint([tree]), "PAR001")
        assert len(messages) == 1
        assert "_COUNTER" in messages[0]
        assert "bump" in messages[0]

    def test_reachable_global_statement_triggers(self, tmp_path):
        tree = write_tree(tmp_path, dict(PAR001_BASE, **{
            "runner/stats.py": """
                _LAST = None

                def bump(cell):
                    global _LAST
                    _LAST = cell
                    return 1
            """,
        }))
        messages = messages_for(run_lint([tree]), "PAR001")
        assert len(messages) == 1
        assert "_LAST" in messages[0]

    def test_whitelisted_worker_globals_are_clean(self, tmp_path):
        tree = write_tree(tmp_path, dict(PAR001_BASE, **{
            "runner/stats.py": """
                def bump(cell):
                    return 1
            """,
        }))
        # _worker_init's ``global _WORKER_CTX`` is the declared exception.
        assert "PAR001" not in rules_hit(run_lint([tree]))

    def test_unreachable_global_writer_is_clean(self, tmp_path):
        tree = write_tree(tmp_path, dict(PAR001_BASE, **{
            "runner/stats.py": """
                _CACHE = None

                def bump(cell):
                    return 1

                def parent_only_setup():
                    global _CACHE
                    _CACHE = {}
            """,
        }))
        # Only *worker-reachable* functions are constrained; the parent
        # process may manage module state freely.
        assert "PAR001" not in rules_hit(run_lint([tree]))


# ---------------------------------------------------------------------------
# PAR002: pickle safety


class TestPar002:
    def snippet(self, tmp_path, body: str) -> list[Finding]:
        tree = write_tree(tmp_path, {"runner/cells.py": "class Cell:\n"
                                                        "    pass\n",
                                     "mod.py": body})
        return run_lint([tree])

    def test_lambda_in_cell_field_triggers(self, tmp_path):
        findings = self.snippet(tmp_path, """
            from repro.runner.cells import Cell

            def build():
                return Cell(program="gcc", on_done=lambda r: r)
        """)
        messages = messages_for(findings, "PAR002")
        assert len(messages) == 1
        assert "lambda" in messages[0] and "Cell field" in messages[0]

    def test_nested_function_in_cell_make_triggers(self, tmp_path):
        findings = self.snippet(tmp_path, """
            from repro.runner.cells import Cell

            def build():
                def hook(result):
                    return result
                return Cell.make("gcc", hook)
        """)
        messages = messages_for(findings, "PAR002")
        assert len(messages) == 1
        assert "'hook'" in messages[0]

    def test_local_class_instance_in_container_triggers(self, tmp_path):
        findings = self.snippet(tmp_path, """
            from repro.runner.cells import Cell

            def build():
                class Payload:
                    pass
                return Cell(extras=[Payload()])
        """)
        messages = messages_for(findings, "PAR002")
        assert len(messages) == 1
        assert "Payload" in messages[0]

    def test_pool_submit_lambda_triggers(self, tmp_path):
        findings = self.snippet(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(cells):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda c: c, cell) for cell in cells]
        """)
        messages = messages_for(findings, "PAR002")
        assert len(messages) == 1
        assert "pool submission" in messages[0]

    def test_pool_initializer_lambda_triggers(self, tmp_path):
        findings = self.snippet(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out():
                return ProcessPoolExecutor(initializer=lambda: None)
        """)
        messages = messages_for(findings, "PAR002")
        assert len(messages) == 1
        assert "pool initializer" in messages[0]

    def test_non_pool_map_with_lambda_is_clean(self, tmp_path):
        # Regression: hypothesis strategies (and plain iterables) use
        # ``.map(lambda ...)`` heavily; only receivers actually bound to
        # a pool constructor may be flagged.
        findings = self.snippet(tmp_path, """
            def strategies(st):
                return st.integers(min_value=0).map(lambda a: a * 4)
        """)
        assert "PAR002" not in rules_hit(findings)

    def test_module_level_function_is_clean(self, tmp_path):
        findings = self.snippet(tmp_path, """
            from concurrent.futures import ProcessPoolExecutor
            from repro.runner.cells import Cell

            def work(cell):
                return cell

            def fan_out(cells):
                cell = Cell(program="gcc", hook=work)
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(work, c) for c in cells]
        """)
        assert "PAR002" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# DET003: seed provenance


class TestDet003:
    def lint_one(self, tmp_path, body: str,
                 name: str = "mod.py") -> list[Finding]:
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body), encoding="utf-8")
        return run_lint([target])

    def test_environment_seed_triggers(self, tmp_path):
        findings = self.lint_one(tmp_path, """
            import os
            from repro.utils.rng import rng_from_seed

            def make():
                return rng_from_seed(int(os.environ["SEED"]))
        """)
        messages = messages_for(findings, "DET003")
        assert len(messages) == 1
        assert "os.environ" in messages[0]

    def test_environment_seed_through_a_local_triggers(self, tmp_path):
        findings = self.lint_one(tmp_path, """
            import os
            from repro.utils.rng import rng_from_seed

            def make():
                raw = os.getenv("SEED", "0")
                seed = int(raw)
                return rng_from_seed(seed)
        """)
        assert len(messages_for(findings, "DET003")) == 1

    def test_clock_seed_triggers(self, tmp_path):
        findings = self.lint_one(tmp_path, """
            import time
            from repro.utils.rng import rng_from_seed

            def make():
                return rng_from_seed(int(time.time()))
        """)
        # DET002 also fires on the clock read; DET003 must fire on the
        # seeding specifically.
        assert len(messages_for(findings, "DET003")) == 1

    def test_context_field_and_literal_seeds_are_clean(self, tmp_path):
        findings = self.lint_one(tmp_path, """
            from repro.utils.rng import rng_from_seed

            def make(ctx, cell):
                a = rng_from_seed(ctx.seed)
                b = rng_from_seed(cell.seed * 31 + 7)
                c = rng_from_seed(42)
                return a, b, c
        """)
        assert "DET003" not in rules_hit(findings)

    def test_rng_module_itself_is_exempt(self, tmp_path):
        findings = self.lint_one(tmp_path, """
            import os

            def rng_from_seed(seed):
                return seed

            def default():
                return rng_from_seed(int(os.environ.get("SEED", "0")))
        """, name="utils/rng.py")
        assert "DET003" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# EXP002: cells/synthesize pairing and scheme literals


EXP_ANCHOR = {"experiments/registry.py": "EXPERIMENT_IDS = ()\n"}

SCHEME_UNIVERSE = {
    "staticpred/selection.py": """
        SELECTION_SCHEMES = ("none", "static_95")
    """,
    "runner/cells.py": """
        STABLE_SCHEME = "static_95_stable"

        class Cell:
            pass
    """,
}


class TestExp002:
    def test_unpaired_cells_triggers(self, tmp_path):
        tree = write_tree(tmp_path, dict(EXP_ANCHOR, **{
            "experiments/figure9.py": """
                def cells(ctx):
                    return []
            """,
        }))
        messages = messages_for(run_lint([tree]), "EXP002")
        assert len(messages) == 1
        assert "synthesize()" in messages[0]

    def test_unpaired_variant_synthesizer_triggers(self, tmp_path):
        tree = write_tree(tmp_path, dict(EXP_ANCHOR, **{
            "experiments/figure9.py": """
                def cells(ctx):
                    return []

                def synthesize(ctx, results):
                    return None

                def synthesize_detail(ctx, results):
                    return None
            """,
        }))
        messages = messages_for(run_lint([tree]), "EXP002")
        assert len(messages) == 1
        assert "cells_detail" in messages[0]

    def test_paired_declarations_are_clean(self, tmp_path):
        tree = write_tree(tmp_path, dict(EXP_ANCHOR, **{
            "experiments/figure9.py": """
                def cells(ctx):
                    return []

                def synthesize(ctx, results):
                    return None

                def cells_detail(ctx):
                    return []

                def synthesize_detail(ctx, results):
                    return None
            """,
        }))
        assert "EXP002" not in rules_hit(run_lint([tree]))

    def test_unknown_scheme_literal_triggers(self, tmp_path):
        tree = write_tree(tmp_path, dict(EXP_ANCHOR, **SCHEME_UNIVERSE, **{
            "experiments/figure9.py": """
                from repro.runner.cells import Cell

                def cells(ctx):
                    return [Cell(scheme="static-95")]

                def synthesize(ctx, results):
                    return None
            """,
        }))
        messages = messages_for(run_lint([tree]), "EXP002")
        assert len(messages) == 1
        assert "'static-95'" in messages[0]

    def test_known_schemes_including_stable_are_clean(self, tmp_path):
        tree = write_tree(tmp_path, dict(EXP_ANCHOR, **SCHEME_UNIVERSE, **{
            "experiments/figure9.py": """
                from repro.runner.cells import Cell

                def cells(ctx):
                    return [Cell(scheme="static_95"),
                            Cell(scheme="static_95_stable")]

                def synthesize(ctx, results):
                    return None
            """,
        }))
        assert "EXP002" not in rules_hit(run_lint([tree]))

    def test_scheme_check_skips_without_a_universe(self, tmp_path):
        # A partial tree (no staticpred/selection.py) cannot know the
        # scheme set; guessing would flag every fixture.
        tree = write_tree(tmp_path, dict(EXP_ANCHOR, **{
            "experiments/figure9.py": """
                from repro.runner.cells import Cell

                def cells(ctx):
                    return [Cell(scheme="anything-goes")]

                def synthesize(ctx, results):
                    return None
            """,
        }))
        assert "EXP002" not in rules_hit(run_lint([tree]))
