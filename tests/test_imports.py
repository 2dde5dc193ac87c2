"""No module of the package imports a name it never uses, no module
defines a private (`_name`) function or class that nothing in it refers to,
no public module-level function or class goes unnamed in `src/` and
`tests/`, and no public method of a class goes unnamed as an attribute
there.

`cli` is a thin shell: it imports nothing from `equilibria`, no scenario
spec class and no private name of `harness`, so every experiment and label
rule it runs lives in the library. `scenario.parse_robustness` reads its
document only through `_fields`, as every other document parser does.
Only `dynamics` imports `coerce_all`, for `Configuration(...)` and
`replace`: the engine runs parsed values and never coerces them again.

Only `scenario` imports `json`, so every document is read by `load_json` and
every JSON output is written by `json_text`, which rejects NaN.

`knnopinion.__all__` is pinned as a literal list, so a change to the
public API is a visible test edit.

The project ships no linter, so these stdlib `ast` checks stand in for one.
`__init__.py` is exempt from the import rule: its imports are the public API.
A public name counts as used where code names it (a name or an attribute),
not where it is only imported or re-exported; perfbench is not scanned, so
its span list keeps no function alive.
"""

import ast
from pathlib import Path

import pytest

import knnopinion

PACKAGE = Path(knnopinion.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unreferenced_privates(source: str) -> list:
    tree = ast.parse(source)
    private = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(private - used)


def test_the_check_sees_unused_and_used_names():
    source = "import os, sys\nfrom a.b import c, d as e\nprint(sys.argv, e)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == []


def imported_modules(source: str) -> set:
    """Top-level names of the modules that `source` imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_import_check_sees_both_forms():
    source = "import json.decoder\nfrom os import path\nfrom .json import x\n"
    assert imported_modules(source) == {"json", "os"}


def test_only_scenario_imports_json():
    importers = [p.stem for p in sorted(PACKAGE.glob("*.py"))
                 if "json" in imported_modules(p.read_text())]
    assert importers == ["scenario"]


def test_the_private_check_sees_unreferenced_definitions():
    source = ("def _used(): pass\ndef _dead(): pass\nclass _Dead: pass\n"
              "def __dunder__(): pass\ndef public(): return _used()\n")
    assert unreferenced_privates(source) == ["_Dead", "_dead"]


@pytest.mark.parametrize("module", MODULES)
def test_module_refers_to_every_private_definition(module):
    assert unreferenced_privates((PACKAGE / f"{module}.py").read_text()) == []


def unnamed_publics(definitions: str, sources: list) -> list:
    """Public module-level functions and classes of `definitions` that no
    name or attribute in `sources` refers to."""
    public = {node.name for node in ast.parse(definitions).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    named = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(public - named)


def test_the_public_check_sees_unnamed_definitions():
    module = "def called(): pass\ndef dead(): pass\nclass Dead: pass\nclass Used: pass\n"
    callers = ["from m import called, dead, Dead\ncalled()\n", "import m\nm.Used()\n"]
    assert unnamed_publics(module, [module, *callers]) == ["Dead", "dead"]


@pytest.mark.parametrize("module", MODULES)
def test_module_public_definitions_are_named_somewhere(module):
    sources = [p.read_text() for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]]
    assert unnamed_publics((PACKAGE / f"{module}.py").read_text(), sources) == []


def unnamed_public_methods(definitions: str, sources: list) -> list:
    """`Class.method` for each public method of a class in `definitions`
    that no attribute in `sources` names."""
    methods = [(cls.name, node.name) for cls in ast.parse(definitions).body
               if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")]
    named = {node.attr for source in sources for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute)}
    return sorted(f"{cls}.{name}" for cls, name in methods if name not in named)


def test_the_method_check_sees_unnamed_methods():
    module = ("class C:\n    def called(self): pass\n    def dead(self): pass\n"
              "    def _private(self): pass\n    @property\n    def read(self): pass\n"
              "def dead(): pass\n")
    callers = ["C().called()\n", "print(C().read, dead)\n"]
    assert unnamed_public_methods(module, [module, *callers]) == ["C.dead"]


@pytest.mark.parametrize("module", MODULES)
def test_module_public_methods_are_named_somewhere(module):
    sources = [p.read_text() for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]]
    assert unnamed_public_methods((PACKAGE / f"{module}.py").read_text(), sources) == []


def imported_names(source: str, module: str) -> set:
    """Names that `source` imports from the sibling `module` (`from .module import ...`)."""
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for a in node.names}


def test_the_name_check_sees_relative_imports_only():
    source = "from .harness import a, _b\nfrom harness import c\nfrom . import harness\n"
    assert imported_names(source, "harness") == {"a", "_b"}


def test_cli_is_a_thin_shell():
    source = (PACKAGE / "cli.py").read_text()
    assert imported_names(source, "equilibria") == set()
    spec_classes = {"ScenarioSpec", "ModelSpec", "InitialSpec", "ScheduleSpec", "EventSpec"}
    assert imported_names(source, "scenario") & spec_classes == set()
    assert [n for n in imported_names(source, "harness") if n.startswith("_")] == []


def test_only_dynamics_coerces():
    importers = [p.stem for p in sorted(PACKAGE.glob("*.py"))
                 if "coerce_all" in imported_names(p.read_text(), "numerics")]
    assert importers == ["dynamics"]


def test_the_public_api_is_pinned():
    # a public name removed or renamed shows up here as a one-line diff
    assert sorted(knnopinion.__all__) == [
        "ClusterPartition", "Configuration", "EquilibriumReport", "ExtremalSelection",
        "MonteCarloStats", "ParameterError", "Scalar", "ScenarioError", "ScenarioSpec",
        "SeededRng", "TrajectoryRecord", "abc_update", "batch_sweep", "build_example1",
        "build_tie_counterexample", "check_z_le_y", "classify_configuration", "convergence",
        "diameter", "dynamics", "equilibria", "extremal_selection", "figure_runs",
        "format_scalar", "harness", "is_clustered", "is_equilibrium", "knn_neighbors",
        "knn_update", "load_scenario", "max_cluster_count", "monte_carlo_consensus",
        "numerics", "parse_scalar", "parse_scenario", "partition_clusters",
        "quantize_clusters", "rng", "robustness_addition", "robustness_removal",
        "run_shrink_schedule", "scenario", "shrink_schedule", "simulate",
        "verify_lemma2_monotonicity", "verify_lemma3_contraction", "verify_lemma_bigm",
    ]


def test_robustness_documents_are_read_by_rows():
    # parse_robustness reads no key of its document itself: every key is a
    # row of ROBUSTNESS_FIELDS, which _fields reads
    tree = ast.parse((PACKAGE / "scenario.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "parse_robustness")
    reads = [node for node in ast.walk(func)
             if isinstance(node, (ast.Attribute, ast.Subscript))
             and isinstance(node.value, ast.Name) and node.value.id == "raw"]
    assert reads == []
    assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fields"
               for node in ast.walk(func))
