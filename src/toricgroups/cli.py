"""Command line front end.

Every subcommand is one library call that returns (result, status,
evidence).  The command line parses, prints either human-readable text or
a stable JSON object with the shape {command, params, bounds, result,
status, evidence}, and exits 0 for computed results (including "unknown"
and overflow verdicts), 2 for input errors, or 1, silently, when stdout
closes before the output is written (as under ``| head``).  Identical
inputs produce byte-identical JSON.  The command line writes that JSON
itself (``_json``), in the format of ``json.dumps(payload, sort_keys=True,
indent=2)``: keys sorted, two spaces per level, and every non-ASCII
character escaped as \\uXXXX, as the middle dot of a Garside form is.

The command line is read in one pass over ``_COMMANDS``, which also renders
the usage that ``-h``/``--help`` prints.  A malformed command line is an
input error like any other: one ``error:`` line on stderr and exit code 2.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import classify, coxeter, cosets, garside, presentations, reps
from .presentations import FamilyParams, ParameterError

# flag -> (dest, converter, default), where a converter is int, str, the
# tuple of words the flag accepts, or None for a switch that sets True; the
# global flags go before or after the command word
_GLOBAL_FLAGS = {
    "--format": ("format", ("text", "json"), "text"),
    "--max-cosets": ("max_cosets", int, cosets.MAX_COSETS),
    "--budget": ("budget", int, presentations.TIETZE_BUDGET),
}
# the global flags' values when they are not given
_DEFAULTS = {dest: default for dest, _, default in _GLOBAL_FLAGS.values()}


def _json(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it when ``pad`` is "\\n"; ``pad`` is
    a newline and the indent of the line ``value`` starts on.  It takes str, int, None, True, False and
    str-keyed dicts, lists and tuples of them, by exact type; another type raises ``TypeError``."""
    cls = type(value)
    if cls is str:
        return json.encoder.encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    inner = pad + "  "
    if cls is dict:  # a key that is not a str fails in the sort or the escaper
        brackets = "{}"
        items = [f"{json.encoder.encode_basestring_ascii(key)}: {_json(value[key], inner)}" for key in sorted(value)]
    elif cls is list or cls is tuple:
        brackets, items = "[]", [_json(item, inner) for item in value]
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{pad}{brackets[1]}" if items else brackets


def _emit_text(payload: dict) -> None:
    print(f"command: {payload['command']}")
    for key, value in sorted(payload["params"].items()):
        print(f"  {key}: {value}")
    for key, value in sorted(payload["result"].items()):
        if key == "presentation" and isinstance(value, str):
            print("presentation:")
            for line in value.rstrip("\n").splitlines():
                print("  " + line)
        else:
            print(f"{key}: {value}")
    print(f"status: {payload['status']}")
    for item in payload["evidence"]:
        print(f"  - {item}")


# --- argument checks the table cannot express ------------------------------------


def _family(args) -> FamilyParams:
    return FamilyParams(args.family, tuple(args.labels))


def _labels(args, count: int) -> tuple[int, ...]:
    if len(args.labels) != count:
        raise ParameterError(f"expected {count} labels, got {len(args.labels)}")
    return tuple(args.labels)


def _rep_params(args) -> dict:
    """``rep``'s params from its free arguments: none for witness, a b c for
    check, a b c word for eval."""
    rest = args.rest
    if args.action == "witness":
        if rest or args.qr is not None:
            raise ParameterError("rep witness takes no parameters and no --qr")
        return {"action": "witness"}
    if len(rest) < 3:
        raise ParameterError(f"rep {args.action} needs three parameters a b c")
    arity = 3 if args.action == "check" else 4
    if len(rest) > arity:
        raise ParameterError(f"rep {args.action} got extra arguments {rest[arity:]}")
    try:
        abc = [int(v) for v in rest[:3]]
    except ValueError:
        raise ParameterError(f"parameters must be integers, got {rest[:3]}") from None
    if args.action == "check":
        return {"action": "check", "abc": abc, "qr": args.qr}
    if len(rest) < 4:
        raise ParameterError("rep eval needs a word argument")
    return {"action": "eval", "abc": abc, "qr": args.qr, "word": rest[3]}


def _pick(*names: str):
    return lambda args: {name: getattr(args, name) for name in names}


# --- the library call of each subcommand ------------------------------------------

_WORD_PROBLEMS = {
    "coxeter": lambda args: coxeter.word_problem(*_labels(args, 3), args.word),
    "garside": lambda args: garside.word_problem(*_labels(args, 2), args.word),
    "toric": lambda args: classify.toric_word_problem(*_labels(args, 3), args.word, args.max_cosets),
}

_REP_RECORDS = {
    "check": lambda args, p: reps.check_record(*p["abc"], p["qr"]),
    "eval": lambda args, p: reps.eval_record(*p["abc"], p["qr"], p["word"]),
    "witness": lambda args, p: reps.witness_record(args.max_cosets),
}


# --- the command table and its reader ---------------------------------------------

# command -> (help, positionals, flags, params, run); a positional is (dest,
# converter, arity), its arity 1, "+" (one or more words) or "*" (any number),
# and the flags, read as _GLOBAL_FLAGS are, go after the command word
_COMMANDS = {
    "present": ("print a presentation from one of the families", (("family", str, 1), ("labels", int, "+")),
                {}, _pick("family", "labels"),
                lambda args, _: presentations.present_record(_family(args))),
    "enumerate": ("Todd-Coxeter enumeration; order or subgroup index", (("family", str, 1), ("labels", int, "+")),
                  {"--subgroup": ("subgroup", str, ""), "--normal-closure": ("normal_closure", None, False),
                   "--strategy": ("strategy", ("hlt", "felsch"), "hlt")},
                  _pick("family", "labels", "subgroup"),
                  lambda args, _: cosets.enumerate_record(_family(args), args.subgroup, args.normal_closure,
                                                          args.strategy, args.max_cosets)),
    "classify": ("classification report for W(k,n,m)", (("k", int, 1), ("n", int, 1), ("m", int, 1)), {},
                 _pick("k", "n", "m"),
                 lambda args, _: classify.classify_toric(args.k, args.n, args.m)),
    "sweep": ("batch classification over a parameter grid", (),
              {"--max-k": ("max_k", int, 6), "--max-m": ("max_m", int, 7)},
              _pick("max_k", "max_m"), lambda args, _: classify.sweep(args.max_k, args.max_m)),
    "wp": ("word problem: coxeter/garside normal form, toric verdict",
           (("system", tuple(_WORD_PROBLEMS), 1), ("labels", int, "+"), ("word", str, 1)), {},
           _pick("system", "labels", "word"), lambda args, _: _WORD_PROBLEMS[args.system](args)),
    "derive": ("subgroup presentation of the normal closure of s", (("a", int, 1), ("b", int, 1), ("c", int, 1)), {},
               _pick("a", "b", "c"),
               lambda args, _: classify.derive(args.a, args.b, args.c, args.max_cosets, args.budget)),
    "rep": ("rank-two pseudo-reflection representation", (("action", tuple(_REP_RECORDS), 1), ("rest", str, "*")),
            {"--qr": ("qr", str, None)}, _rep_params, lambda args, params: _REP_RECORDS[args.action](args, params)),
}


def _convert(name: str, converter, text: str):
    if isinstance(converter, tuple):
        if text not in converter:
            raise ParameterError(f"expected one of {', '.join(converter)} for {name}, got {text!r}")
        return text
    try:
        return converter(text)
    except ValueError:
        raise ParameterError(f"expected an integer for {name}, got {text!r}") from None


def _parse(argv: list[str]) -> SimpleNamespace:
    """One command line's namespace: the command, every dest of its table
    entry and of the global flags, and ``help``.  Only a word that starts with
    ``--`` is a flag, so a label may be negative; a variadic positional takes
    the words its single neighbours leave.  At -h or --help the words after it
    are not read."""
    values = {"help": False, "command": None, **_DEFAULTS}
    flags, words = _GLOBAL_FLAGS, []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return SimpleNamespace(help=True, command=values["command"])
        if not token.startswith("--"):
            if values["command"] is not None:
                words.append(token)
                continue
            values["command"] = _convert("the command", tuple(_COMMANDS), token)
            flags = {**_GLOBAL_FLAGS, **_COMMANDS[token][2]}
            values.update((dest, default) for dest, _, default in _COMMANDS[token][2].values())
            continue
        flag, given, value = token.partition("=")
        if flag not in flags:
            raise ParameterError(f"unknown flag {flag}")
        dest, converter, _ = flags[flag]
        if converter is None:
            if given:
                raise ParameterError(f"{flag} takes no value")
            values[dest] = True
            continue
        if not given:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ParameterError(f"{flag} needs a value")
        values[dest] = _convert(flag, converter, value)
    command = values["command"]
    if command is None:
        raise ParameterError(f"no command given; expected one of {', '.join(_COMMANDS)}")
    positionals = _COMMANDS[command][1]
    arities = [arity for _, _, arity in positionals]
    spare = len(words) - arities.count(1)  # the words a variadic positional takes
    if spare < arities.count("+") or (spare > 0 and arities.count(1) == len(arities)):
        shown = " ".join(_metavar(*p) for p in positionals) or "flags only"
        raise ParameterError(f"{command} takes {shown}, got {words}")
    for dest, converter, arity in positionals:
        count = 1 if arity == 1 else spare
        taken = [_convert(dest, converter, word) for word in words[:count]]
        values[dest] = taken[0] if arity == 1 else taken
        words = words[count:]
    return SimpleNamespace(**values)


def _metavar(name: str, converter, arity) -> str:
    shown = "{" + ",".join(converter) + "}" if isinstance(converter, tuple) else name
    return {1: shown, "+": f"{shown} ...", "*": f"[{shown} ...]"}[arity]


def _help(command: str | None) -> str:
    """The usage of one command, or of the program, rendered from the tables."""
    if command is None:
        lines = ["usage: toricgroups [flags] COMMAND ...", "",
                 "torus knot groups, J-groups, and toric reflection groups", "", "commands:"]
        lines += [f"  {name:<10} {entry[0]}" for name, entry in _COMMANDS.items()]
        flags = _GLOBAL_FLAGS
    else:
        summary, positionals, own = _COMMANDS[command][:3]
        usage = " ".join(["usage: toricgroups", command, "[flags]", *(_metavar(*p) for p in positionals)])
        lines = [usage, "", summary]
        flags = {**own, **_GLOBAL_FLAGS}
    lines += ["", "flags (-h, --help prints this):"]
    for flag, (dest, converter, default) in flags.items():
        spelled = flag if converter is None else f"{flag} {_metavar(dest.upper(), converter, 1)}"
        shown = converter is not None and default not in (None, "")
        lines.append(f"  {spelled:<26} default {default}" if shown else f"  {spelled}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.help:
            sys.stdout.write(_help(args.command))
            return 0
        if args.max_cosets < 1:
            raise ParameterError(f"--max-cosets must be >= 1, got {args.max_cosets}")
        if args.budget < 0:
            raise ParameterError(f"--budget must be >= 0, got {args.budget}")
        pick, run = _COMMANDS[args.command][3:]
        params = pick(args)
        result, status, evidence = run(args, params)
    except ValueError as e:  # ParameterError and WordSyntaxError among them
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large for memory", file=sys.stderr)
        return 2
    try:
        if args.format == "text" and args.command == "present":
            sys.stdout.write(result["presentation"])
        else:
            payload = {"command": args.command, "params": params,
                       "bounds": {"max_cosets": args.max_cosets, "budget": args.budget},
                       "result": result, "status": status, "evidence": evidence}
            if args.format == "json":
                print(_json(payload, "\n"))
            else:
                _emit_text(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: point it at /dev/null so
        # the flush at exit does not fail again, and stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
