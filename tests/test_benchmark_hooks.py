"""The traced benchmark run wraps package functions by name; check the names.

``perfbench/tracing.py`` lists the functions it wraps in ``SPANS`` and the
ones it counts in ``COUNTERS``, and reads the ``strategy`` argument of
``cosets.todd_coxeter``.  ``perfbench/child.py`` runs the rs-tietze
pipeline by calling package functions itself.  ``tools/request_times.py``
and the child program of ``tools/derive_series.py`` time phases by
wrapping package functions named in their tables.  A rename in the package
would only show when the benchmark or the tool fails, so resolve every
table entry, and every name the benchmark child reads, here, without
installing anything or importing the tools.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

from toricgroups import cosets

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
TOOLS = PERFBENCH.parent / "tools"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname: str, path: str):
    owner = importlib.import_module(f"toricgroups.{modname}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the tracer wraps a class attribute through the class's own __dict__
    assert attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr), (modname, path)
    return getattr(owner, attr)


def test_traced_functions_exist():
    tracing = _load_tracing()
    entries = [(modname, path) for modname, path in tracing.SPANS]
    entries += [(modname, path) for modname, path, _ in tracing.COUNTERS]
    assert entries
    for modname, path in entries:
        assert callable(_resolve(modname, path)), (modname, path)


def test_names_the_benchmark_child_reads_exist():
    # the modules the child imports from the package (cli, cosets,
    # presentations, schreier), and every attribute it reads on them, as in
    # `schreier.toric_column_order(...)`
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module == "toricgroups" for alias in node.names}
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert {modname for modname, _ in reads} == modules
    for modname, attr in sorted(reads):
        assert hasattr(importlib.import_module(f"toricgroups.{modname}"), attr), (modname, attr)


def test_todd_coxeter_keeps_its_strategy_parameter():
    assert "strategy" in inspect.signature(cosets.todd_coxeter).parameters


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    """The value of the module-level assignment to ``name``."""
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == [name])


def _phases(table: ast.expr) -> list[tuple[str, str]]:
    """The (owner, attribute) of each (owner, "attribute", "phase") triple in ``table``; the owner
    is a module or a ``module.Class``, as written."""
    return [(ast.unparse(node.elts[0]), node.elts[1].value) for node in ast.walk(table)
            if isinstance(node, ast.Tuple) and len(node.elts) == 3
            and isinstance(node.elts[0], (ast.Name, ast.Attribute))]


def test_phases_the_tools_time_exist():
    # read, not imported: request_times puts perfbench/ first on sys.path,
    # where its oracles module would shadow the tests' own
    request_times = ast.parse((TOOLS / "request_times.py").read_text())
    child = ast.parse(_assigned(ast.parse((TOOLS / "derive_series.py").read_text()), "CHILD").value)
    tables = {name: _phases(_assigned(request_times, name))
              for name in ("DERIVE_PHASES", "WORD_PROBLEM", "PHASES", "JSON_PHASE")}
    tables["derive_series CHILD"] = _phases(_assigned(child, "PHASES"))
    for table, entries in tables.items():
        assert entries, table
        for owner, attr in entries:
            modname, *classes = owner.split(".")
            obj = importlib.import_module(f"toricgroups.{modname}")
            for name in classes:
                obj = getattr(obj, name)
            assert hasattr(obj, attr), (table, owner, attr)
