"""Count the lines of the Python files of two commits, file by file.

    python3 tools/line_counts.py [--parent HEAD~1] [--change HEAD]

Every ``*.py`` file under ``src/toricgroups/``, ``tests/`` and ``tools/`` is
listed with ``git ls-tree`` and read with ``git show`` at both revisions, so
nothing is checked out and the working tree is not read.  A line is a
newline, as ``wc -l`` counts them.  The script prints each file's lines at
``--parent`` and ``--change`` and the change (``-`` where the file does not
exist), then each directory's totals and net change, then two option
counts at both revisions: the parameters with a default value in the
functions and methods of ``src/toricgroups/``, and the options (the
``add_argument`` calls whose first name starts with ``-``) of
``src/toricgroups/cli.py``.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src/toricgroups", "tests", "tools")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def line_counts(rev: str, directory: str) -> dict[str, int]:
    """Lines of each Python file under ``directory`` at ``rev``, by path."""
    paths = git("ls-tree", "-r", "-z", "--name-only", rev, "--", directory + "/").decode().split("\0")
    return {path: git("show", f"{rev}:{path}").count(b"\n") for path in paths if path.endswith(".py")}


def knob_counts(rev: str) -> tuple[int, int]:
    """Parameters with defaults in ``src/toricgroups/``, and CLI options, at ``rev``."""
    defaults = options = 0
    for path in line_counts(rev, DIRS[0]):
        tree = ast.parse(git("show", f"{rev}:{path}"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif (path.endswith("/cli.py") and isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "add_argument" and node.args
                  and isinstance(node.args[0], ast.Constant) and str(node.args[0].value).startswith("-")):
                options += 1
    return defaults, options


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
    before, after = knob_counts(args.parent), knob_counts(args.change)
    print(row("parameters with defaults, src/toricgroups/", before[0], after[0]))
    print(row("options, src/toricgroups/cli.py", before[1], after[1]))
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
