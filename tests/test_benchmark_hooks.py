"""The traced benchmark run wraps package functions by name; check the names.

``perfbench/tracing.py`` lists the functions it wraps in ``SPANS`` and the
ones it counts in ``COUNTERS``, and reads the ``strategy`` argument of
``cosets.todd_coxeter``.  A rename in the package would only show when the
traced run fails, so resolve every entry here, without installing anything.
"""

import importlib
import importlib.util
import inspect
import pathlib

from toricgroups import cosets

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_todd_coxeter_keeps_its_strategy_parameter():
    assert "strategy" in inspect.signature(cosets.todd_coxeter).parameters
