"""``tools/line_counts.py`` counts and names the API of parsed modules.

The tool reads both revisions with ``git``; ``api_items`` takes the parsed
modules, so these tests give it two small packages of their own and check
each count and the items that one revision adds and drops.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

BEFORE = {
    "cli": '''
def main(argv=None):
    parser.add_argument("--format", default="json")
    parser.add_argument("word")
    table = {"--max-cosets": int, "name": str}
''',
    "shapes": '''
from .cli import main
from .cli import main as entry


class Point:
    __slots__ = ("x", "y")

    def moved(self, dx, dy=0, *, scale=1, keep):
        def inner(z=2):
            return z
        return inner()

    def _hidden(self):
        pass


class _Private:
    __slots__ = "only"


def area(a, b=1, /, c=2):
    return a


def _helper(level=0):
    return level
''',
}

AFTER = {
    "cli": BEFORE["cli"].replace('"--max-cosets": int, ', ""),
    "shapes": '''
from .cli import main


class Point:
    __slots__ = ("x", "y", "z")

    def moved(self, dx, dy=0, *, scale=1, keep):
        return dx


def area(a, b=1, /, c=2, d=3):
    return a


def perimeter(a):
    return a
''',
}


def _line_counts():
    spec = importlib.util.spec_from_file_location("line_counts", ROOT / "tools" / "line_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _items(sources: dict[str, str]) -> dict[str, list[str]]:
    return _line_counts().api_items({name: ast.parse(text) for name, text in sources.items()})


def test_api_items_names_each_counted_item():
    items = _items(BEFORE)
    assert sorted(items["defaults"]) == [
        "cli.main(argv)", "shapes.Point.moved(dy)", "shapes.Point.moved(scale)", "shapes.Point.moved.inner(z)",
        "shapes._helper(level)", "shapes.area(b)", "shapes.area(c)"]
    assert sorted(items["options"]) == ["--format", "--max-cosets"]
    assert sorted(items["fields"]) == ["shapes.Point.x", "shapes.Point.y", "shapes._Private.only"]
    assert sorted(items["public"]) == ["cli.main", "shapes.Point", "shapes.Point.moved", "shapes.area"]
    assert items["imports"] == ["shapes -> .cli", "shapes -> .cli"]


def test_changed_names_what_one_revision_adds_and_drops():
    line_counts = _line_counts()
    before, after = _items(BEFORE), _items(AFTER)
    changes = {kind: line_counts.changed(before[kind], after[kind]) for kind in before}
    assert changes == {
        "defaults": (["shapes.area(d)"], ["shapes.Point.moved.inner(z)", "shapes._helper(level)"]),
        "options": ([], ["--max-cosets"]),
        "fields": (["shapes.Point.z"], ["shapes._Private.only"]),
        "public": (["shapes.perimeter"], []),
        "imports": ([], ["shapes -> .cli"]),
    }
