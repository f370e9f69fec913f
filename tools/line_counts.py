"""Count the lines of the Python files of two commits, file by file.

    python3 tools/line_counts.py [--parent HEAD~1] [--change HEAD]

Every ``*.py`` file under ``src/toricgroups/``, ``tests/`` and ``tools/`` is
listed with ``git ls-tree`` and read with ``git show`` at both revisions, so
nothing is checked out and the working tree is not read.  A line is a
newline, as ``wc -l`` counts them.  The script prints each file's lines at
``--parent`` and ``--change`` and the change (``-`` where the file does not
exist), then each directory's totals and net change, then five counts of
``src/toricgroups/`` at both revisions, each read with ``ast``: the
parameters with a default value in its functions and methods; the options
(the ``add_argument`` calls whose first name starts with ``-``) of
``cli.py``; the record fields, the ``__slots__`` entries of its classes;
its public names, the module-level functions and classes whose names do
not start with ``_``, plus the methods and properties of those classes
whose names do not; and its internal import edges, the ``from .x import``
statements, one per statement.  Last come the public names that no code in
``src/toricgroups/`` references, marked at each revision where that holds.
A reference is an ``ast.Name`` or ``ast.Attribute`` node whose name is the
public name's own (its last part, for a method), anywhere in the package
but outside the name's own definition, so a mention in a docstring or a
comment, or an import alone, is no caller.  Names are matched without their
module or class, so the list can miss an unreferenced name (a method
``end`` beside a variable ``end``) but never lists a referenced one.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from collections import Counter
from itertools import chain

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src/toricgroups", "tests", "tools")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def line_counts(rev: str, directory: str) -> dict[str, int]:
    """Lines of each Python file under ``directory`` at ``rev``, by path."""
    paths = git("ls-tree", "-r", "-z", "--name-only", rev, "--", directory + "/").decode().split("\0")
    return {path: git("show", f"{rev}:{path}").count(b"\n") for path in paths if path.endswith(".py")}


def _public(node: ast.AST) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The public names of a module, each with its definition: module-level
    functions and classes as ``name``, their methods as ``Class.name``."""
    found = []
    for node in tree.body:
        if _public(node):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{item.name}", item) for item in node.body
                          if _public(item) and not isinstance(item, ast.ClassDef)]
    return found


def _reads(node: ast.AST) -> list[str]:
    """The name of every ``Name`` and ``Attribute`` node under ``node``."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]


def unreferenced_names(rev: str) -> set[str]:
    """The public names in ``src/toricgroups/`` at ``rev``, as
    ``module.name``, that no ``Name`` or ``Attribute`` node of the package
    outside the name's own definition reads."""
    modules = {os.path.basename(path)[:-3]: ast.parse(git("show", f"{rev}:{path}"))
               for path in line_counts(rev, DIRS[0])}
    reads = Counter(chain.from_iterable(_reads(tree) for tree in modules.values()))
    unused = set()
    for module, tree in modules.items():
        for name, node in public_definitions(tree):
            last = name.rsplit(".", 1)[-1]
            if reads[last] == _reads(node).count(last):
                unused.add(f"{module}.{name}")
    return unused


def api_counts(rev: str) -> tuple[int, int, int, int, int]:
    """Parameters with defaults, CLI options, ``__slots__`` entries, public
    names and ``from .x import`` statements in ``src/toricgroups/`` at ``rev``."""
    defaults = options = fields = public = imports = 0
    for path in line_counts(rev, DIRS[0]):
        tree = ast.parse(git("show", f"{rev}:{path}"))
        public += len(public_definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.Assign)
                            and any(getattr(t, "id", None) == "__slots__" for t in item.targets)):
                        value = item.value
                        fields += len(value.elts) if isinstance(value, (ast.Tuple, ast.List)) else 1
            elif (path.endswith("/cli.py") and isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "add_argument" and node.args
                  and isinstance(node.args[0], ast.Constant) and str(node.args[0].value).startswith("-")):
                options += 1
            elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                imports += 1
    return defaults, options, fields, public, imports


def row(name: str, old: int | None, new: int | None) -> str:
    delta = "-" if old is None or new is None else f"{new - old:+d}"
    return f"{name:<44} {'-' if old is None else old:>7} {'-' if new is None else new:>7} {delta:>7}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    args = ap.parse_args(argv)
    print(f"{'file':<44} {args.parent:>7} {args.change:>7} {'change':>7}")
    totals = []
    for directory in DIRS:
        before, after = line_counts(args.parent, directory), line_counts(args.change, directory)
        for path in sorted(before.keys() | after.keys()):
            print(row(path, before.get(path), after.get(path)))
        totals.append((directory, sum(before.values()), sum(after.values())))
    print()
    for directory, old, new in totals:
        print(row(directory + "/", old, new))
    print()
    before, after = api_counts(args.parent), api_counts(args.change)
    names = ("parameters with defaults, src/toricgroups/", "options, src/toricgroups/cli.py",
             "record fields (__slots__), src/toricgroups/", "public names, src/toricgroups/",
             "import edges (from .x), src/toricgroups/")
    for name, old, new in zip(names, before, after):
        print(row(name, old, new))
    print()
    before, after = unreferenced_names(args.parent), unreferenced_names(args.change)
    print(f"{'public names no src code references':<44} {args.parent:>7} {args.change:>7}")
    for name in sorted(before | after):
        print(f"{name:<44} {'x' if name in before else '-':>7} {'x' if name in after else '-':>7}")
    print(row("unreferenced public names, src/toricgroups/", len(before), len(after)))
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: point it at /dev/null so
        # the flush at exit does not fail again, and stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
