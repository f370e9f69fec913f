"""List the lines of ``src/toricgroups/`` that the tier-1 tests never run.

    python3 tools/line_coverage.py [PYTEST_ARGS ...]

Runs pytest on ``tests/`` in this process (``-q --continue-on-collection-errors``
and any extra arguments) under a ``sys.settrace`` hook that line-traces only
frames whose code lives in ``src/toricgroups/``; every other frame runs
untraced.  The hook is set before pytest imports the package, so the
module-level lines count too.  A line is executable when some code object
compiled from the module's source names it in ``co_lines``.  The script
prints, per module, each executable line that never ran, with its text,
then the total; it exits with pytest's exit code.

Only this process is traced: the demos (``tests/test_demos.py``) and every
test that runs the CLI in a subprocess are not seen.  So a line that only a
demo or a subprocess runs is listed although it ran, such as the CLI's
broken-pipe branch and its ``__main__`` line.  No coverage package is
needed.  The trace makes the suite about six times slower than a plain run.
"""

from __future__ import annotations

import os
import sys
import threading
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "toricgroups")


def executable_lines(code: CodeType) -> set[int]:
    """The line numbers of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def main(argv: list[str]) -> int:
    import pytest

    ran: set[tuple[str, int]] = set()
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))  # the def line on a call
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *argv, os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        text = source.splitlines()
        missed = sorted(line for line in executable_lines(compile(source, path, "exec")) if (path, line) not in ran)
        if missed:
            print(f"\n{os.path.relpath(path, ROOT)}: {len(missed)} lines never ran")
            for line in missed:
                print(f"{line:6d}  {text[line - 1].strip()}")
        total += len(missed)
    print(f"\n{total} executable lines of src/toricgroups/ never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
