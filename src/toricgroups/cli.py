"""Command line front end.

Every subcommand prints either human-readable text or a stable JSON object
with the shape {command, params, bounds, result, status, evidence} and
exits 0 for computed results (including "unknown" and overflow verdicts)
or 2 for input errors.  Identical inputs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify, coxeter, garside, reps
from .cosets import normal_closure_table, todd_coxeter
from .presentations import FamilyParams, ParameterError, ParseError, build, serialize
from .words import Word, WordSyntaxError


def _emit(args, payload: dict) -> int:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _emit_text(payload)
    return 0


def _emit_text(payload: dict) -> None:
    print(f"command: {payload['command']}")
    for key, value in sorted(payload.get("params", {}).items()):
        print(f"  {key}: {value}")
    result = payload.get("result", {})
    if isinstance(result, dict):
        for key, value in sorted(result.items()):
            if key == "presentation" and isinstance(value, str):
                print("presentation:")
                for line in value.rstrip("\n").splitlines():
                    print("  " + line)
            else:
                print(f"{key}: {value}")
    else:
        print(result)
    print(f"status: {payload['status']}")
    for item in payload.get("evidence", []):
        print(f"  - {item}")


def _payload(args, command: str, params: dict, result: dict, status: str = "ok",
             evidence: list[str] | None = None) -> dict:
    return {
        "command": command,
        "params": params,
        "bounds": {"max_cosets": args.max_cosets, "budget": args.budget},
        "result": result,
        "status": status,
        "evidence": evidence or [],
    }


# --- subcommands --------------------------------------------------------------


def cmd_present(args) -> int:
    params = FamilyParams(args.family, tuple(args.labels), normalize=not args.no_normalize)
    pres = build(params)
    payload = _payload(
        args,
        "present",
        {"family": args.family, "labels": list(args.labels)},
        {"presentation": serialize(pres), "num_generators": len(pres.gens),
         "num_relators": len(pres.relators)},
    )
    if args.format == "text":
        sys.stdout.write(serialize(pres))
        return 0
    return _emit(args, payload)


def _parse_subgroup_words(pres, text: str) -> list[Word]:
    return [pres.alphabet.word(part) for part in text.split(";") if part.strip()]


def cmd_enumerate(args) -> int:
    params = FamilyParams(args.family, tuple(args.labels), normalize=not args.no_normalize)
    pres = build(params)
    subgens = _parse_subgroup_words(pres, args.subgroup) if args.subgroup else []
    evidence = [f"strategy {args.strategy}, bound {args.max_cosets}"]
    if args.normal_closure:
        table = normal_closure_table(pres, subgens, max_cosets=args.max_cosets, strategy=args.strategy)
        evidence.append(f"normal closure of {len(subgens)} seed(s)")
    else:
        table = todd_coxeter(pres, subgens, max_cosets=args.max_cosets, strategy=args.strategy)
    if table.complete:
        what = "index" if subgens else "order"
        result = {what: table.num_cosets, "cosets": table.num_cosets}
        status = "ok"
    else:
        result = {"order": None, "cosets": table.num_cosets}
        status = "unknown"
        evidence.append(f"overflow at bound {table.bound}")
    return _emit(args, _payload(args, "enumerate",
                                {"family": args.family, "labels": list(args.labels),
                                 "subgroup": args.subgroup or ""},
                                result, status, evidence))


def cmd_classify(args) -> int:
    result, evidence = classify.classify_toric(args.k, args.n, args.m, args.max_cosets)
    return _emit(args, _payload(args, "classify", {"k": args.k, "n": args.n, "m": args.m},
                                result, "ok", evidence))


def cmd_sweep(args) -> int:
    entries = classify.sweep(args.max_k, args.max_m, args.max_cosets)
    payload = _payload(args, "sweep", {"max_k": args.max_k, "max_m": args.max_m},
                       {"entries": entries, "count": len(entries)})
    return _emit(args, payload)


def _labels(args, count: int) -> tuple[int, ...]:
    if len(args.labels) != count:
        raise ParameterError(f"expected {count} labels, got {len(args.labels)}")
    return tuple(args.labels)


def cmd_wp(args) -> int:
    system = args.system
    if system == "coxeter":
        k, n, m = _labels(args, 3)
        cm = coxeter.CoxeterMatrix.triangle(k, n, m)
        table = coxeter.MinimalRootTable(cm)
        w = cm.alphabet().word(args.word)
        normal = table.nf(w)
        result = {"normal_form": str(normal), "identity": not normal.letters,
                  "length": len(normal.letters), "parity": coxeter.parity(normal)}
        return _emit(args, _payload(args, "wp", {"system": system, "labels": [k, n, m],
                                                 "word": args.word}, result))
    if system == "garside":
        n, m = _labels(args, 2)
        w = garside.standard_alphabet().word(args.word)
        normal = garside.gnf(n, m, w)
        result = {"normal_form": str(normal), "identity": normal.is_identity(),
                  "delta_power": normal.delta_power}
        return _emit(args, _payload(args, "wp", {"system": system, "labels": [n, m],
                                                 "word": args.word}, result))
    if system == "toric":
        k, n, m = _labels(args, 3)
        result, status, evidence = classify.toric_word_problem(k, n, m, args.word, args.max_cosets)
        return _emit(args, _payload(args, "wp", {"system": system, "labels": [k, n, m],
                                                 "word": args.word}, result, status, evidence))
    raise ParameterError(f"unknown word-problem system {system!r}")


def cmd_derive(args) -> int:
    result, status, evidence = classify.derive(args.a, args.b, args.c, args.max_cosets, args.budget)
    return _emit(args, _payload(args, "derive", {"a": args.a, "b": args.b, "c": args.c},
                                result, status, evidence))


def cmd_rep(args) -> int:
    rest = args.rest
    if args.action == "witness":
        if rest or args.qr is not None:
            raise ParameterError("rep witness takes no parameters and no --qr")
        w = reps.unfaithfulness_witness(max_cosets=args.max_cosets)
        result = {
            "parameters": [6, 2, 3],
            "cube_dies_per_preset": w.rho_of_cube_is_identity,
            "order_of_x1x2_in_k3_quotient": w.order_in_small_quotient,
            "rho_stu_order": w.rho_stu_order,
            "rho_stu_is_minus_identity": w.rho_stu_is_minus_identity,
            "zero_preset_commutes": w.zero_preset_commutes,
            "unit_preset_commutes": w.unit_preset_commutes,
            "unfaithful": w.unfaithful,
        }
        status, evidence = ("ok", []) if w.unfaithful is not None else (
            "unknown", [f"enumeration overflowed at {args.max_cosets}"])
        return _emit(args, _payload(args, "rep", {"action": "witness"}, result, status, evidence))
    if len(rest) < 3:
        raise ParameterError(f"rep {args.action} needs three parameters a b c")
    arity = 3 if args.action == "check" else 4
    if len(rest) > arity:
        raise ParameterError(f"rep {args.action} got extra arguments {rest[arity:]}")
    try:
        a, b, c = (int(v) for v in rest[:3])
    except ValueError:
        raise ParameterError(f"parameters must be integers, got {rest[:3]}") from None
    word = rest[3] if len(rest) > 3 else None
    if args.action == "eval" and word is None:
        raise ParameterError("rep eval needs a word argument")
    if args.action == "check":
        return _emit(args, _payload(args, "rep", {"action": "check", "abc": [a, b, c], "qr": args.qr},
                                    reps.check_record(a, b, c, args.qr)))
    if args.action == "eval":
        return _emit(args, _payload(args, "rep", {"action": "eval", "abc": [a, b, c], "qr": args.qr,
                                                  "word": word},
                                    reps.eval_record(a, b, c, args.qr, word)))
    raise ParameterError(f"unknown rep action {args.action!r}")


# --- argument plumbing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="toricgroups",
                                  description="torus knot groups, J-groups, and toric reflection groups")
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument("--max-cosets", type=int, default=10**6, dest="max_cosets")
    top.add_argument("--budget", type=int, default=10**5)
    # the same options are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    common.add_argument("--max-cosets", type=int, default=argparse.SUPPRESS, dest="max_cosets")
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("present", help="print a presentation from one of the families")
    p.add_argument("family")
    p.add_argument("labels", type=int, nargs="+")
    p.add_argument("--no-normalize", action="store_true")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("enumerate", help="Todd-Coxeter enumeration; order or subgroup index")
    p.add_argument("family")
    p.add_argument("labels", type=int, nargs="+")
    p.add_argument("--subgroup", help="semicolon-separated subgroup generator words")
    p.add_argument("--normal-closure", action="store_true")
    p.add_argument("--strategy", choices=("hlt", "felsch"), default="hlt")
    p.add_argument("--no-normalize", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classification report for W(k,n,m)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="batch classification over a parameter grid")
    p.add_argument("--max-k", type=int, default=6)
    p.add_argument("--max-m", type=int, default=7)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("wp", help="word problem: coxeter/garside normal form, toric verdict")
    p.add_argument("system", choices=("coxeter", "garside", "toric"))
    p.add_argument("labels", type=int, nargs="+")
    p.add_argument("word")
    p.set_defaults(func=cmd_wp)

    p = sub.add_parser("derive", help="subgroup presentation of the normal closure of s")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("rep", help="rank-two pseudo-reflection representation")
    p.add_argument("action", choices=("check", "eval", "witness"))
    p.add_argument("rest", nargs="*", help="a b c [word]")
    p.add_argument("--qr", help="(q,r) preset name")
    p.set_defaults(func=cmd_rep)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_cosets < 1:
            raise ParameterError(f"--max-cosets must be >= 1, got {args.max_cosets}")
        if args.budget < 0:
            raise ParameterError(f"--budget must be >= 0, got {args.budget}")
        return args.func(args)
    except (ParameterError, ParseError, WordSyntaxError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
