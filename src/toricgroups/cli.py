"""Command line front end.

Every subcommand is one library call that returns (result, status,
evidence).  The command line parses, prints either human-readable text or
a stable JSON object with the shape {command, params, bounds, result,
status, evidence}, and exits 0 for computed results (including "unknown"
and overflow verdicts), 2 for input errors, or 1, silently, when stdout
closes before the output is written (as under ``| head``).  Identical
inputs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import classify, coxeter, cosets, garside, presentations, reps
from .presentations import FamilyParams, ParameterError

# the global flags' values when they are not given
_DEFAULTS = {"format": "text", "max_cosets": cosets.MAX_COSETS, "budget": presentations.TIETZE_BUDGET}


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


# --- argument checks the parser cannot express ----------------------------------


def _family(args) -> FamilyParams:
    return FamilyParams(args.family, tuple(args.labels), normalize=not args.no_normalize)


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
    "witness": lambda args, p: reps.witness_record(args.max_cosets),
    "check": lambda args, p: reps.check_record(*p["abc"], p["qr"]),
    "eval": lambda args, p: reps.eval_record(*p["abc"], p["qr"], p["word"]),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    # each global flag is declared once, here, and accepted before or after
    # the subcommand; SUPPRESS keeps a parser that did not see a flag from
    # setting it, so the values in _DEFAULTS stand unless a flag is given
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("text", "json"))
    common.add_argument("--max-cosets", type=int)
    common.add_argument("--budget", type=int)
    top = argparse.ArgumentParser(prog="toricgroups", parents=[common],
                                  description="torus knot groups, J-groups, and toric reflection groups")
    sub = top.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("present", help="print a presentation from one of the families")
    p.add_argument("family")
    p.add_argument("labels", type=int, nargs="+")
    p.add_argument("--no-normalize", action="store_true")
    p.set_defaults(params=_pick("family", "labels"),
                   run=lambda args, _: presentations.present_record(_family(args)))

    p = sub.add_parser("enumerate", help="Todd-Coxeter enumeration; order or subgroup index")
    p.add_argument("family")
    p.add_argument("labels", type=int, nargs="+")
    p.add_argument("--subgroup", default="", help="semicolon-separated subgroup generator words")
    p.add_argument("--normal-closure", action="store_true")
    p.add_argument("--strategy", choices=("hlt", "felsch"), default="hlt")
    p.add_argument("--no-normalize", action="store_true")
    p.set_defaults(params=_pick("family", "labels", "subgroup"),
                   run=lambda args, _: cosets.enumerate_record(_family(args), args.subgroup, args.normal_closure,
                                                               args.strategy, args.max_cosets))

    p = sub.add_parser("classify", help="classification report for W(k,n,m)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(params=_pick("k", "n", "m"),
                   run=lambda args, _: classify.classify_toric(args.k, args.n, args.m, args.max_cosets))

    p = sub.add_parser("sweep", help="batch classification over a parameter grid")
    p.add_argument("--max-k", type=int, default=6)
    p.add_argument("--max-m", type=int, default=7)
    p.set_defaults(params=_pick("max_k", "max_m"),
                   run=lambda args, _: classify.sweep(args.max_k, args.max_m, args.max_cosets))

    p = sub.add_parser("wp", help="word problem: coxeter/garside normal form, toric verdict")
    p.add_argument("system", choices=("coxeter", "garside", "toric"))
    p.add_argument("labels", type=int, nargs="+")
    p.add_argument("word")
    p.set_defaults(params=_pick("system", "labels", "word"),
                   run=lambda args, _: _WORD_PROBLEMS[args.system](args))

    p = sub.add_parser("derive", help="subgroup presentation of the normal closure of s")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(params=_pick("a", "b", "c"),
                   run=lambda args, _: classify.derive(args.a, args.b, args.c, args.max_cosets, args.budget))

    p = sub.add_parser("rep", help="rank-two pseudo-reflection representation")
    p.add_argument("action", choices=("check", "eval", "witness"))
    p.add_argument("rest", nargs="*", help="a b c [word]")
    p.add_argument("--qr", help="(q,r) preset name")
    p.set_defaults(params=_rep_params, run=lambda args, params: _REP_RECORDS[args.action](args, params))

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv, argparse.Namespace(**_DEFAULTS))
    try:
        if args.max_cosets < 1:
            raise ParameterError(f"--max-cosets must be >= 1, got {args.max_cosets}")
        if args.budget < 0:
            raise ParameterError(f"--budget must be >= 0, got {args.budget}")
        params = args.params(args)
        result, status, evidence = args.run(args, params)
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
                print(json.dumps(payload, sort_keys=True, indent=2))
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
