"""The command table's reader against the argparse parser it replaced.

Command lines are drawn from the grammar: every command, labels including
negative ones, words, the global flags before the command, right after the
command word or after the positionals, each flag spelled ``--flag value``
or ``--flag=value``.  On a well-formed line ``cli._parse`` must give the
reference's command, every dest and the same ``params``; a malformed line,
made by one fault from a well-formed one, must be refused by both.
"""

import argparse
import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_parser

from toricgroups import cli
from toricgroups.cli import main

LABELS = st.integers(-9, 12).map(str)
WORDS = st.sampled_from(["x1 x2", "r1 r2 r3 r1", "s^6", "x^2 y^-3", "s t u s", "x1^-1", ""])
FAMILIES = st.sampled_from(["toric", "j-parent", "alt-plus", "torus-standard", "coxeter-triangle"])

# command -> strategy of its positionals, and of each of its flags' values (None for a switch)
POSITIONALS = {
    "present": st.tuples(FAMILIES, st.lists(LABELS, min_size=1, max_size=4)).map(lambda t: [t[0], *t[1]]),
    "enumerate": st.tuples(FAMILIES, st.lists(LABELS, min_size=1, max_size=4)).map(lambda t: [t[0], *t[1]]),
    "classify": st.lists(LABELS, min_size=3, max_size=3),
    "sweep": st.just([]),
    "wp": st.tuples(st.sampled_from(["coxeter", "garside", "toric"]), st.lists(LABELS, min_size=1, max_size=4),
                    WORDS).map(lambda t: [t[0], *t[1], t[2]]),
    "derive": st.lists(LABELS, min_size=3, max_size=3),
    "rep": st.tuples(st.sampled_from(["check", "eval", "witness"]),
                     st.lists(LABELS | WORDS, max_size=5)).map(lambda t: [t[0], *t[1]]),
}
FLAGS = {
    "enumerate": {"--subgroup": st.sampled_from(["s", "x1; x2", "s t", ""]), "--normal-closure": None,
                  "--strategy": st.sampled_from(["hlt", "felsch"])},
    "present": {}, "classify": {}, "derive": {}, "wp": {},
    "sweep": {"--max-k": LABELS, "--max-m": LABELS},
    "rep": {"--qr": st.sampled_from(["unit", "zero", "x"])},
}
GLOBAL_FLAGS = {"--format": st.sampled_from(["text", "json"]), "--max-cosets": st.integers(-3, 10**6).map(str),
                "--budget": st.integers(-3, 10**5).map(str)}
# the least number of positionals each command takes
FEWEST = {"present": 2, "enumerate": 2, "classify": 3, "sweep": 0, "wp": 3, "derive": 3, "rep": 1}
FAULTS = ("unknown command", "unknown flag", "missing flag value", "flag before its value", "non-int label",
          "non-int flag value", "bad choice", "bad positional choice", "switch with a value", "missing positional",
          "extra positional", "empty")


def spelled(draw, flags: dict) -> list[str]:
    """Some of ``flags`` with drawn values, each ``--flag value`` or ``--flag=value``."""
    out = []
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3)) if flags else ():
        if flags[flag] is None:
            out.append(flag)
        elif draw(st.booleans()):
            out.append(f"{flag}={draw(flags[flag])}")
        else:
            out += [flag, draw(flags[flag])]
    return out


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(POSITIONALS)))
    before = spelled(draw, GLOBAL_FLAGS)
    mid = spelled(draw, {**GLOBAL_FLAGS, **FLAGS[command]})
    end = spelled(draw, {**GLOBAL_FLAGS, **FLAGS[command]})
    return [*before, command, *mid, *draw(POSITIONALS[command]), *end]


@st.composite
def malformed_lines(draw) -> list[str]:
    """A well-formed line with one fault that argparse refuses at parse time."""
    command = draw(st.sampled_from(sorted(POSITIONALS)))
    before = spelled(draw, GLOBAL_FLAGS)
    flags = spelled(draw, {**GLOBAL_FLAGS, **FLAGS[command]})
    positionals = draw(POSITIONALS[command])
    fault = draw(st.sampled_from(FAULTS))
    tail = []  # after the positionals, so a flag missing its value takes none of them
    if fault == "unknown command":
        command = draw(st.sampled_from(["frobnicate", "Classify", "-3", ""]))
    elif fault == "unknown flag":
        flags.insert(draw(st.integers(0, len(flags))), draw(st.sampled_from(["--frobnicate", "--frobnicate=1"])))
    elif fault == "missing flag value":
        tail.append(draw(st.sampled_from(["--format", "--max-cosets", "--budget"])))
    elif fault == "flag before its value":
        tail += [draw(st.sampled_from(["--max-cosets", "--subgroup", "--qr", "--max-k"])), "--format", "json"]
    elif fault == "non-int label" and command not in ("rep", "sweep"):  # rep reads its own rest
        labels = [i for i, word in enumerate(positionals) if word.lstrip("-").isdigit()]
        positionals[draw(st.sampled_from(labels))] = draw(st.sampled_from(["x", "3.5", "", "2,3"]))
    elif fault == "non-int flag value":
        tail += [draw(st.sampled_from(["--max-cosets", "--budget"])), draw(st.sampled_from(["x", "1e3", ""]))]
    elif fault == "bad choice":
        tail += draw(st.sampled_from([["--format", "xml"], ["--format=JSON"]]))
    elif fault == "bad positional choice" and command in ("wp", "rep"):
        positionals[0] = draw(st.sampled_from(["lisp", "Check", "-3"]))
    elif fault == "switch with a value" and command == "enumerate":
        tail.append(draw(st.sampled_from(["--normal-closure=", "--normal-closure=yes"])))
    elif fault == "extra positional" and command in ("classify", "derive", "sweep"):
        positionals.append(draw(LABELS))
    elif fault == "empty":
        return []
    else:  # "missing positional", and every fault the command cannot take
        positionals = positionals[:FEWEST[command] - 1] if FEWEST[command] else ["7"]
    return [*before, command, *flags, *positionals, *tail]


def reference(argv: list[str]) -> argparse.Namespace:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return reference_parser().parse_args(argv, argparse.Namespace(**cli._DEFAULTS))


def params(pick, args):
    try:
        return pick(args)
    except ValueError as e:
        return f"refused: {e}"


@settings(max_examples=400)
@given(command_lines())
def test_table_reads_every_command_line_as_argparse_did(argv):
    ref, got = reference(argv), cli._parse(argv)
    assert got.help is False
    assert ({k: v for k, v in vars(got).items() if k != "help"}
            == {k: v for k, v in vars(ref).items() if k not in ("params", "run")}), argv
    assert params(cli._COMMANDS[got.command][3], got) == params(ref.params, ref), argv


def refused(argv: list[str]) -> None:
    """``main`` refuses ``argv`` with one error line, and so did argparse."""
    with pytest.raises(SystemExit) as exit_:
        reference(argv)
    assert exit_.value.code == 2, argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (2, ""), argv
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())


@settings(max_examples=400)
@given(malformed_lines())
def test_malformed_command_lines_are_refused_as_argparse_refused_them(argv):
    refused(argv)


@pytest.mark.parametrize("argv, message", [
    ([], "error: no command given; expected one of present, enumerate, classify, sweep, wp, derive, rep"),
    (["frobnicate", "2"], "error: expected one of present, enumerate, classify, sweep, wp, derive, rep for the "
                          "command, got 'frobnicate'"),
    (["classify", "2", "3", "4", "--frobnicate"], "error: unknown flag --frobnicate"),
    (["--normal-closure", "enumerate", "toric", "2", "3", "4"], "error: unknown flag --normal-closure"),
    (["classify", "2", "3", "4", "--max-cosets"], "error: --max-cosets needs a value"),
    (["enumerate", "toric", "2", "3", "7", "--subgroup", "--normal-closure"], "error: --subgroup needs a value"),
    (["classify", "2", "x", "4"], "error: expected an integer for n, got 'x'"),
    (["--budget=ten", "derive", "2", "3", "4"], "error: expected an integer for --budget, got 'ten'"),
    (["--format", "xml", "classify", "2", "3", "4"], "error: expected one of text, json for --format, got 'xml'"),
    (["wp", "lisp", "2", "3", "7", "x1"], "error: expected one of coxeter, garside, toric for system, got 'lisp'"),
    (["enumerate", "toric", "2", "3", "4", "--normal-closure=yes"], "error: --normal-closure takes no value"),
    (["classify", "2", "3"], "error: classify takes k n m, got ['2', '3']"),
    (["derive", "2", "3", "4", "5"], "error: derive takes a b c, got ['2', '3', '4', '5']"),
    (["wp", "coxeter", "x1"], "error: wp takes {coxeter,garside,toric} labels ... word, got ['coxeter', 'x1']"),
    (["rep"], "error: rep takes {check,eval,witness} [rest ...], got []"),
])
def test_each_refusal_of_the_table_names_its_fault(capsys, argv, message):
    refused(argv)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", message + "\n")


def test_flags_are_spelled_in_full(capsys):
    # argparse took any unambiguous prefix of a flag; the table takes none
    assert main(["--max-c", "5", "classify", "2", "3", "4"]) == 2
    assert capsys.readouterr() == ("", "error: unknown flag --max-c\n")


def test_help_lists_the_commands_and_each_commands_arguments(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: toricgroups ")
    for command, (summary, *_) in cli._COMMANDS.items():
        assert f"  {command:<10} {summary}\n" in out
    assert main(["wp", "--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: toricgroups wp [flags] {coxeter,garside,toric} labels ... word\n")
    assert "--max-cosets MAX_COSETS" in out
    # -h stops the reading: what follows it is not checked
    assert main(["enumerate", "-h", "--frobnicate"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "--strategy {hlt,felsch}    default hlt\n" in out and "  --normal-closure\n" in out


def test_the_readme_names_every_flag_the_table_accepts_and_no_other():
    # the "Command line" section of the README; --help and the prefix example
    # --max-c are spelled there but are not entries of the table
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section)) - {"--help", "--max-c"}
    assert named == set(cli._GLOBAL_FLAGS).union(*(entry[2] for entry in cli._COMMANDS.values()))
