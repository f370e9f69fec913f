"""The traced benchmark run wraps package functions by name; check the names.

``perfbench/tracing.py`` lists the functions it wraps in ``SPANS`` and the
ones it counts in ``COUNTERS``, and reads the ``strategy`` argument of
``cosets.todd_coxeter``.  ``perfbench/child.py`` runs the rs-tietze
pipeline by calling package functions itself.  A rename in the package
would only show when the benchmark fails, so resolve every entry and every
name the child reads here, without installing anything.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

from toricgroups import cosets

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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
