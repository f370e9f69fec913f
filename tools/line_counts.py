"""Count the lines of the Python files of two commits, file by file, and
tell documentation from code.

    python3 tools/line_counts.py [--parent HEAD~1] [--change HEAD]

Every ``*.py`` file under ``src/toricgroups/``, ``tests/`` and ``tools/`` is
listed with ``git ls-tree`` and read with ``git show`` at both revisions, so
nothing is checked out and the working tree is not read.  A line is a
newline, as ``wc -l`` counts them.  The script prints each file's lines at
``--parent`` and ``--change`` and the change (``-`` where the file does not
exist), then each directory's totals and net change, the lines of
``README.md``, and the lines that the docstrings of ``src/toricgroups/``
span, and the rest of its lines, its code.  Then it names the modules of
``src/toricgroups/`` whose code differs: those whose ``ast.dump``, with every module, class and function
docstring removed, differs between the revisions, or that exist at one
only, so a change to docstrings or comments alone names no module.  Then
come five counts of ``src/toricgroups/`` at both revisions, each read with
``ast``: the parameters with a default value in its functions and methods;
the options of ``cli.py`` (the ``add_argument`` calls whose first name
starts with ``-``, and the keys of dict literals that start with ``--``,
one per entry of the command table); the record fields, the ``__slots__``
entries of its classes; its public names, the module-level functions and
classes whose names do not start with ``_``, plus the methods and
properties of those classes whose names do not; and its internal import
edges, the ``from .x import`` statements, one per statement.  Under each
count, ``+`` and ``-`` lines name the items that ``--change`` adds and
drops: ``module.function(parameter)``, the option, ``module.Class.field``,
``module.name`` or ``module -> .x``.  Last come
the public names that no code in ``src/toricgroups/`` references, marked
at each revision where that holds.
A reference is an ``ast.Name`` or ``ast.Attribute`` node whose name is the
public name's own (its last part, for a method), anywhere in the package
but outside the name's own definition, so a mention in a docstring or a
comment, or an import alone, is no caller.  Names are matched without their
module or class, so the list can miss an unreferenced name (a method
``end`` beside a variable ``end``) but never lists a referenced one.
``api_items`` and ``unreferenced_names`` take the parsed modules, so a
test can give them the working tree's or its own.
"""

from __future__ import annotations

import argparse
import ast
import copy
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


def _docstrings(tree: ast.Module) -> list[ast.Expr]:
    """The docstring statements of a module, its classes and its functions."""
    return [node.body[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)]


def docstring_lines(tree: ast.Module) -> int:
    """The lines that the docstrings of ``tree`` span."""
    return sum(doc.end_lineno - doc.lineno + 1 for doc in _docstrings(tree))


def code_dump(tree: ast.Module) -> str:
    """``ast.dump`` of ``tree`` with every docstring removed: equal for two
    sources that differ only in docstrings and comments."""
    tree = copy.deepcopy(tree)
    docs = set(map(id, _docstrings(tree)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            node.body = [item for item in node.body if id(item) not in docs] or [ast.Pass()]
    return ast.dump(tree)


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


def package_modules(rev: str) -> dict[str, ast.Module]:
    """The parsed modules of ``src/toricgroups/`` at ``rev``, by module name."""
    return {os.path.basename(path)[:-3]: ast.parse(git("show", f"{rev}:{path}"))
            for path in line_counts(rev, DIRS[0])}


def unreferenced_names(modules: dict[str, ast.Module]) -> set[str]:
    """The public names of the package whose parsed ``modules`` are given,
    as ``module.name``, that no ``Name`` or ``Attribute`` node of the
    package outside the name's own definition reads."""
    reads = Counter(chain.from_iterable(_reads(tree) for tree in modules.values()))
    unused = set()
    for module, tree in modules.items():
        for name, node in public_definitions(tree):
            last = name.rsplit(".", 1)[-1]
            if reads[last] == _reads(node).count(last):
                unused.add(f"{module}.{name}")
    return unused


def _qualified(tree: ast.Module, module: str) -> dict[ast.AST, str]:
    """Every function and class of ``tree``, at any depth, with its dotted
    name ``module.Outer.inner``."""
    names, stack = {}, [(tree, module)]
    while stack:
        node, name = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names[child] = f"{name}.{child.name}"
                stack.append((child, names[child]))
            else:
                stack.append((child, name))
    return names


def api_items(modules: dict[str, ast.Module]) -> dict[str, list[str]]:
    """The items behind the five counts of the package whose parsed
    ``modules`` are given, by module name, each item named: a parameter
    with a default as ``module.function(parameter)``, an option of the
    ``cli`` module as written, a record field as ``module.Class.field``, a
    public name as ``module.name`` and an import edge as ``module -> .x``."""
    items = {"defaults": [], "options": [], "fields": [], "public": [], "imports": []}
    for module, tree in modules.items():
        items["public"] += [f"{module}.{name}" for name, _ in public_definitions(tree)]
        for node, name in _qualified(tree, module).items():
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.Assign)
                            and any(getattr(t, "id", None) == "__slots__" for t in item.targets)):
                        value = item.value
                        slots = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
                        items["fields"] += [f"{name}.{getattr(slot, 'value', ast.unparse(slot))}" for slot in slots]
            else:
                args = node.args
                positional = (args.posonlyargs + args.args)[len(args.posonlyargs + args.args) - len(args.defaults):]
                keyword = [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                items["defaults"] += [f"{name}({a.arg})" for a in positional + keyword]
        for node in ast.walk(tree):
            if (module == "cli" and isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and str(node.args[0].value).startswith("-")):
                items["options"].append(str(node.args[0].value))
            elif module == "cli" and isinstance(node, ast.Dict):
                items["options"] += [k.value for k in node.keys
                                     if isinstance(k, ast.Constant) and str(k.value).startswith("--")]
            elif isinstance(node, ast.ImportFrom) and node.level and node.module:
                items["imports"].append(f"{module} -> .{node.module}")
    return items


def changed(before: list[str], after: list[str]) -> tuple[list[str], list[str]]:
    """The items that ``after`` adds to ``before`` and those it drops, each
    sorted and counted with its repeats."""
    old, new = Counter(before), Counter(after)
    return sorted((new - old).elements()), sorted((old - new).elements())


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
    print(row("README.md", *(git("show", f"{rev}:README.md").count(b"\n") for rev in (args.parent, args.change))))
    modules = package_modules(args.parent), package_modules(args.change)
    docs = [sum(map(docstring_lines, m.values())) for m in modules]
    print(row("docstring lines, src/toricgroups/", *docs))
    print(row("code lines (not docstring), src/toricgroups/", *(n - d for n, d in zip(totals[0][1:], docs))))
    print()
    differ = sorted(name for name in modules[0].keys() | modules[1].keys()
                    if name not in modules[0] or name not in modules[1]
                    or code_dump(modules[0][name]) != code_dump(modules[1][name]))
    print(f"modules of src/toricgroups/ whose code differs: {', '.join(differ) or 'none'}")
    print()
    before, after = map(api_items, modules)
    names = {"defaults": "parameters with defaults, src/toricgroups/", "options": "options, src/toricgroups/cli.py",
             "fields": "record fields (__slots__), src/toricgroups/", "public": "public names, src/toricgroups/",
             "imports": "import edges (from .x), src/toricgroups/"}
    for kind, name in names.items():
        print(row(name, len(before[kind]), len(after[kind])))
        added, dropped = changed(before[kind], after[kind])
        print("".join(f"  + {item}\n" for item in added) + "".join(f"  - {item}\n" for item in dropped), end="")
    print()
    before, after = map(unreferenced_names, modules)
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
