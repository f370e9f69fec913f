"""Judge each response against its expected answer from ``oracles``.

``judge`` returns ``("ok", "")``, ``("unknown", "")`` for an honest
"unknown" or overflow, ``("fail", reason)`` for an escaped exception or a
wrong exit code, and ``("wrong", reason)`` for an answer that disagrees
with the expectation.  Both of the last two count in ``fail_ratio``.
"""

from __future__ import annotations

import json

import oracles


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def judge(expect: dict, resp: dict) -> tuple[str, str]:
    if resp.get("exc"):
        return "fail", f"escaped exception {resp['exc']}"
    if resp.get("code") != 0:
        return "fail", f"exit code {resp.get('code')}"
    try:
        payload = json.loads(resp["out"])
        return CHECKS[expect["check"]](expect, payload)
    except (Mismatch, ValueError, KeyError, TypeError) as e:
        return "wrong", f"{type(e).__name__}: {e}"


def _status(payload: dict, unknown: bool) -> tuple[str, str]:
    if unknown:
        _expect(payload["status"] == "unknown", f"status {payload['status']!r}, expected 'unknown'")
        return "unknown", ""
    _expect(payload["status"] == "ok", f"status {payload['status']!r}, expected 'ok'")
    return "ok", ""


def check_classify(expect, payload):
    k, n, m = expect["kmn"]
    r = payload["result"]
    want = {"parameters": [k, n, m], "braid_group": f"G({n},{m})",
            "triangle_type": oracles.triangle_type(k, n, m), "reflection_classes": k - 1}
    fin = oracles.finite_toric(k, n, m)
    if fin:
        name, order, centre, quotient = fin
        want.update(finite=True, shephard_todd=name, order=order, center_order=centre,
                    center_quotient_order=order // centre, center_quotient=quotient,
                    reflection_classes_computed=k - 1)
    else:
        want.update(finite=False, shephard_todd=None, order=None, center_order=None,
                    maximal_finite_cyclic_orders=sorted([k, n, m]))
    for key, value in want.items():
        _expect(r.get(key) == value, f"{key} = {r.get(key)!r}, expected {value!r}")
    return _status(payload, False)


_COXETER_NAMES = {"r1": 1, "r2": 2, "r3": 3}


def check_wp_coxeter(expect, payload):
    tri, word = tuple(expect["tri"]), expect["word"]
    r = payload["result"]
    nf = oracles.parse_syllables(r["normal_form"], _COXETER_NAMES)
    _expect(all(a != b for a, b in zip(nf, nf[1:])), "normal form repeats a letter")
    _expect(r["length"] == len(nf), "length disagrees with the normal form")
    _expect(r["identity"] == (not nf), "identity flag disagrees with the normal form")
    _expect(r["parity"] == ("even" if len(word) % 2 == 0 else "odd"), "parity differs from the input's")
    if oracles.triangle_type(*tri) == "spherical":
        _expect(tuple(nf) == oracles.shortlex_nf(tri, word), "not the ShortLex normal form")
    else:
        if expect["length"] is not None:
            _expect(len(nf) == expect["length"], f"length {len(nf)}, expected {expect['length']}")
        _expect(oracles.same_direction(oracles.coxeter_element(tri, nf), oracles.coxeter_element(tri, word)),
                "normal form names another element")
    return _status(payload, False)


def check_wp_toric(expect, payload):
    k, n, m = expect["kmn"]
    r = payload["result"]
    if expect["power"] is None:
        _expect(r["central"] is False and r["identity"] is False, "random word judged central")
        nf = oracles.parse_syllables(r["coxeter_image_nf"], _COXETER_NAMES)
        _expect(oracles.same_direction(oracles.coxeter_element((k, n, m), nf),
                                       oracles.phi_element(k, n, m, expect["word"])),
                "coxeter_image_nf is not the image under phi")
        return _status(payload, False)
    _expect(r["central"] is True and r["coxeter_image_nf"] == "1", "twist word not judged central")
    fin = oracles.finite_toric(k, n, m)
    if fin is None:
        _expect(r["identity"] is None, "decided a central word of an infinite group")
        return _status(payload, True)
    _expect(r["identity"] == (expect["power"] % fin[2] == 0), "wrong identity verdict in the centre")
    return _status(payload, False)


def check_wp_garside(expect, payload):
    r = payload["result"]
    power, factors = oracles.parse_garside(r["normal_form"])
    _expect(power == expect["power"] == r["delta_power"], f"delta power {power}, expected {expect['power']}")
    _expect(factors == [tuple(f) for f in expect["factors"]], "factors differ from the constructed normal form")
    _expect(r["identity"] == (power == 0 and not factors), "identity flag disagrees")
    return _status(payload, False)


def check_rep_eval(expect, payload):
    abc = tuple(expect["abc"])
    letters = [("stu"[abs(x) - 1], x) for x in expect["word"]]
    want = oracles.rho_word(abc, letters)
    got = oracles.parse_matrix(payload["result"]["matrix"])
    _expect(oracles.close_complex(got, want), "matrix differs from the complex evaluation")
    _expect(payload["result"]["is_identity"] == oracles.close_complex(want, (1, 0, 0, 1)),
            "identity flag disagrees")
    return _status(payload, False)


def check_enumerate(expect, payload):
    r = payload["result"]
    if expect["key"] is None:  # an infinite group: no bound can complete it
        _expect(r.get("order") is None, "finite order reported for an infinite group")
        return _status(payload, True)
    _expect(r.get(expect["key"]) == expect["value"] == r.get("cosets"),
            f"{expect['key']} = {r.get(expect['key'])}, expected {expect['value']}")
    return _status(payload, False)


def _presentation_invariants(text: str) -> list[int]:
    lines = text.strip().splitlines()
    names = {g: i + 1 for i, g in enumerate(lines[0].split(":", 1)[1].split())}
    relators = [oracles.parse_syllables(line.split(":", 1)[1], names) for line in lines[1:]]
    return oracles.abelian_invariants(len(names), relators)


def check_derive(expect, payload):
    """ncl(s) in J(a,b,c) is W(a,b,c), whose abelianisation is Z/a."""
    a, b, c = expect["abc"]
    r = payload["result"]
    fin = oracles.finite_toric(a, b, c)
    if r.get("presentation") is not None:
        text = r["presentation"]
        _expect(_presentation_invariants(text) == [a], f"abelian invariants are not [{a}]")
        _expect(r["num_generators"] == len(text.splitlines()[0].split()) - 1, "generator count disagrees")
    if r.get("order") is not None:
        _expect(fin is not None and r["order"] == fin[1], f"order {r['order']} is wrong")
    if fin is not None and payload["status"] == "ok":
        _expect(r.get("order") == fin[1], "finite parent without its order")
    return _status(payload, payload["status"] == "unknown")


def check_rs_tietze(expect, payload):
    a, b, c = expect["abc"]
    _expect(payload["index"] == b * c, f"index {payload['index']}, expected {b * c}")
    rs = oracles.abelian_invariants(*payload["rs"])
    tz = oracles.abelian_invariants(*payload["tietze"])
    _expect(rs == tz == [a], f"abelian invariants RS {rs}, Tietze {tz}, expected [{a}]")
    return "ok", ""


CHECKS = {
    "classify": check_classify,
    "wp_coxeter": check_wp_coxeter,
    "wp_toric": check_wp_toric,
    "wp_garside": check_wp_garside,
    "rep_eval": check_rep_eval,
    "enumerate": check_enumerate,
    "derive": check_derive,
    "rs_tietze": check_rs_tietze,
}
