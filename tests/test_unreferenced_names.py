"""A public name that no package code reads must say why it stays.

``tools/line_counts.py`` lists the public functions, classes and methods
of ``src/toricgroups/`` that no ``Name`` or ``Attribute`` node of the
package reads.  Such a name stays only if ``perfbench/`` names it, an open
item will call it from a command, or it is a capability of the paper that
the tests pin; otherwise it gives way to the surviving API that answers the
same, or moves beside the tests that use it.  ROADMAP states the same rule.
``STAYS`` lists every such name with its reason, read here from the working
tree.
"""

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toricgroups"

STAYS = {
    "coxeter.maximal_finite_parabolics": "perfbench/tracing.py wraps it (SPANS)",
    "maps.check_hom": "an open item checks each map a verdict rests on when the CLI runs",
    "maps.parent_to_coxeter": "derive's infinite verdict rests on it; an open item checks it per row",
    "maps.centrality_witness": "an open item cites it for a decided central word on an infinite row",
    "garside.meridian_derivation": "an open item certifies the n <-> m swap with it",
    "maps.build_psi": "ROADMAP item 23's certificate of ker phi = <c> will call it; tests/test_maps.py checks it",
    "coxeter.center_check_plus": "Z(W+) of the paper's finite rows, pinned by tests/test_coxeter.py and demo 04",
    "schreier.closed_form_generator": "the paper's closed form, pinned by the acceptance suite; the oracle shares it",
    "cosets.reflection_class_count": "perfbench/tracing.py wraps it (SPANS), and demo 02 calls it",
    "maps.central_element": "the paper's full twist c; tier-1 checks |<c>| against classify's closed form with it",
}


def _line_counts():
    spec = importlib.util.spec_from_file_location("line_counts", ROOT / "tools" / "line_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules(extra: dict[str, str] | None = None) -> dict:
    """The package's modules from the working tree, parsed, with ``extra``
    source appended to the named modules."""
    extra = extra or {}
    return {path.stem: ast.parse(path.read_text() + extra.get(path.stem, "")) for path in PACKAGE.glob("*.py")}


def _check(modules: dict) -> None:
    assert _line_counts().unreferenced_names(modules) == set(STAYS)


def test_every_unreferenced_public_name_says_why_it_stays():
    _check(_modules())


def test_a_public_helper_no_package_code_reads_fails_the_check():
    modules = _modules({"maps": "\n\ndef scratch_helper(w):\n    return w\n"})
    assert "maps.scratch_helper" in _line_counts().unreferenced_names(modules)
    with pytest.raises(AssertionError):
        _check(modules)
