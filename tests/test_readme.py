"""README.md names code that exists, and its examples answer as it says.

Every backticked dotted name whose head is a module of the package
(``cosets.bfs_tree``) or a class that the package defines
(``CosetTable.trace``) must resolve by ``getattr``; other dotted names
(``str.replace``, ``h.apply``) are skipped.  Every backticked ``*.py`` path
must exist, from the repository root.  Each ``toricgroups ...`` line of
the "Command line" block runs through ``cli.main`` in process with
``--format json`` and must exit 0, and ``CLAIMS`` pins what the comments
of that block say.  The presentation that "Word and file syntax" prints
must be the command's own output.
"""

import importlib
import inspect
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import toricgroups
from toricgroups import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

MODULES = {info.name: importlib.import_module(f"toricgroups.{info.name}")
           for info in pkgutil.iter_modules(toricgroups.__path__)}
CLASSES = {name: value for module in MODULES.values() for name, value in vars(module).items()
           if inspect.isclass(value) and value.__module__ == module.__name__}


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def unresolved(text: str) -> list[str]:
    """The backticked package names of ``text`` that do not resolve, and its
    backticked ``*.py`` paths that do not exist."""
    missing = []
    for span in re.findall(r"`([^`\n]+)`", text):
        if re.fullmatch(r"[\w/.-]+\.py", span):
            if not (ROOT / span).is_file():
                missing.append(span)
        elif re.fullmatch(r"[A-Za-z_]\w*(\.\w+)+", span):
            head, *rest = span.split(".")
            if head not in MODULES and head not in CLASSES:
                continue
            value = MODULES.get(head, CLASSES.get(head))
            try:
                for part in rest:
                    value = getattr(value, part)
            except AttributeError:
                missing.append(span)
    return missing


def _check(text: str) -> None:
    assert unresolved(text) == []


def test_every_package_name_and_path_in_the_readme_exists():
    _check(README)


def test_a_name_or_path_that_is_gone_fails_the_check():
    tampered = README + "\n`cosets.bfs_trees`, `tests/test_gone.py`, `str.replace`, `h.apply`\n"
    assert unresolved(tampered) == ["cosets.bfs_trees", "tests/test_gone.py"]
    with pytest.raises(AssertionError):
        _check(tampered)


# the example lines of the "Command line" block, as argument lists, and
# whether each has a comment
EXAMPLES = [(shlex.split(line, comments=True)[1:], "#" in line)
            for line in _section("Command line").split("```\n")[1].splitlines() if line.startswith("toricgroups ")]

# what the comments claim: the status and one field of the result
CLAIMS = {
    "derive 2 3 4": ("ok", "order", 48),
    "derive 2 3 3": ("ok", "order", 16),
    "derive 6 2 3": ("ok", "order", None),
    "derive 6 2 4": ("ok", "order", None),
    "wp toric 6 2 3 x1 x2 x1 x2 x1 x2": ("unknown", "identity", None),
    "wp garside 2 3 x1 x2 x1": ("ok", "normal_form", "x"),
}


def test_every_commented_example_has_its_claim_pinned():
    assert {" ".join(argv) for argv, commented in EXAMPLES if commented} == set(CLAIMS)


@pytest.mark.parametrize("argv", [argv for argv, _ in EXAMPLES], ids=" ".join)
def test_every_readme_example_exits_0_with_its_claim(argv, capsys):
    assert cli.main(["--format", "json", *argv]) == 0
    out = json.loads(capsys.readouterr().out)
    if " ".join(argv) in CLAIMS:
        status, field, value = CLAIMS[" ".join(argv)]
        assert (out["status"], out["result"][field]) == (status, value)


def test_the_printed_presentation_is_the_commands_output(capsys):
    command, printed = re.search(r"`toricgroups ([^`]+)` prints\n\n```\n(.*?)```", _section("Word and file syntax"),
                                 re.S).groups()
    assert cli.main(command.split()) == 0
    assert capsys.readouterr().out == printed
