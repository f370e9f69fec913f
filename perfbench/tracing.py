"""Spans around the public functions of each toricgroups layer.

``Tracer.install`` wraps the functions in ``SPANS`` and rebinds every
module-level name in the package that refers to one of them, so names that
``cli``, ``coxeter``, ``schreier`` and the rest import directly are traced
too.  A span records its name, start, end, parent span and request id in
flat arrays; ``INFO`` readers add counts taken from arguments and return
values.  ``COUNTERS`` only count calls (cyclotomic products are too many
for a span each).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute path) -> span name is "module.attribute path"
SPANS = [
    ("cli", "main"),
    ("words", "parse_word"), ("words", "free_reduce"), ("words", "apply_map"), ("words", "check_derivation"),
    ("presentations", "tietze_simplify"),
    ("cosets", "todd_coxeter"), ("cosets", "normal_closure_table"),
    ("cosets", "CayleyTable.__init__"), ("cosets", "CayleyTable.order_of"), ("cosets", "CayleyTable.eval"),
    ("cosets", "reflection_class_count"),
    ("schreier", "schreier_transversal"), ("schreier", "rs_presentation"),
    ("coxeter", "MinimalRootTable.__init__"), ("coxeter", "MinimalRootTable.nf"),
    ("coxeter", "MinimalRootTable.reduce_word"), ("coxeter", "maximal_finite_parabolics"),
    ("cyclo", "sign_real"),
    ("maps", "build_phi"), ("maps", "Hom.apply"),
    ("garside", "gnf"),
    ("reps", "rho_eval"), ("reps", "build_rho_preset"),
]
COUNTERS = [("cyclo", "Cyc.__mul__", "cyclo.mul_calls"), ("cyclo", "Cyc.__rmul__", "cyclo.mul_calls"),
            ("cyclo", "Cyc.embed", "cyclo.embed_calls")]


def _todd_coxeter_info(fn):
    sig = inspect.signature(fn)

    def info(args, kwargs, table):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"strategy": bound.arguments["strategy"], "status": table.status, "rows": table.num_cosets}
    return info


INFO = {
    "presentations.tietze_simplify": lambda a, kw, p: {
        "eliminated": len(a[0].gens) - len(p.gens), "out_len": sum(len(r.letters) for r in p.relators)},
    "cosets.normal_closure_table": lambda a, kw, t: {"closure_gens": len(t.subgroup_gens)},
    "schreier.rs_presentation": lambda a, kw, rs: {
        "gens": len(rs.presentation.gens), "relators": len(rs.presentation.relators)},
    "coxeter.MinimalRootTable.__init__": lambda a, kw, _: {"roots": len(a[0].roots)},
    "coxeter.MinimalRootTable.nf": lambda a, kw, _: {"letters_in": len(a[1].letters)},
    "garside.gnf": lambda a, kw, _: {"letters_in": len(a[2].letters)},
    "reps.rho_eval": lambda a, kw, _: {"letters": len(a[1].letters)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.info: dict[int, dict] = {}
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.request_id = -1

    # -- installation ---------------------------------------------------------

    def install(self, package: str = "toricgroups") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for modname, path in SPANS:
            owner, attr, orig = _resolve(sys.modules[f"{package}.{modname}"], path)
            name = f"{modname}.{path}"
            info = _todd_coxeter_info(orig) if name == "cosets.todd_coxeter" else INFO.get(name)
            _rebind(modules, owner, attr, orig, self._span(name, orig, info))
        for modname, path, key in COUNTERS:
            owner, attr, orig = _resolve(sys.modules[f"{package}.{modname}"], path)
            setattr(owner, attr, self._counter(key, orig))

    def _span(self, name, fn, info):
        nid = len(self.names)
        self.names.append(name)
        name_ids, starts, ends, parents, requests = self.name, self.start, self.end, self.parent, self.request
        stack, infos = self.stack, self.info

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                ends[idx] = perf_counter()
                stack.pop()
                infos[idx] = {"error": type(e).__name__}
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if info is not None:
                infos[idx] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def request_layers(self, selfs: list[float], requests: int) -> list[dict[str, float]]:
        """Self time per request and layer (enumeration split by strategy, Tietze on its own)."""
        out = [Counter() for _ in range(requests)]
        for i, own in enumerate(selfs):
            name = self.names[self.name[i]]
            key = name.split(".", 1)[0]
            if name == "cosets.todd_coxeter":
                key = f"cosets.{self.info.get(i, {}).get('strategy', 'hlt')}"
            elif name == "presentations.tietze_simplify":
                key = "presentations.tietze"
            out[self.request[i]][key] += own
        return [dict(c) for c in out]

    def layer_metrics(self, selfs: list[float], wall_s: float) -> dict[str, float]:
        """Per-layer totals for one pass; see ``PER_LAYER`` in run.py for the list."""
        out: Counter = Counter()
        covered = 0.0
        for i, own in enumerate(selfs):
            name = self.names[self.name[i]]
            info = self.info.get(i, {})
            if self.parent[i] < 0:
                covered += self.end[i] - self.start[i]
            layer = name.split(".", 1)[0]
            if layer in ("cli", "words", "maps", "reps"):
                out[f"{layer}.self_s"] += own
            if layer == "words":
                out["words.calls"] += 1
            if name == "presentations.tietze_simplify":
                out["presentations.tietze_s"] += own
                out["presentations.tietze_eliminated"] += info.get("eliminated", 0)
                out["presentations.tietze_out_len"] += info.get("out_len", 0)
                out["presentations.tietze_budget_exceeded"] += info.get("error") == "TietzeBudgetExceeded"
            elif name == "cosets.todd_coxeter":
                out["cosets.enum_calls"] += 1
                out[f"cosets.{info.get('strategy', 'hlt')}_s"] += own
                if info.get("status") == "overflow":
                    out["cosets.overflow_s"] += own
                out["cosets.complete_ratio"] += info.get("status") == "complete"
                out["cosets.rows_out"] += info.get("rows", 0)
            elif name == "cosets.normal_closure_table":
                out["cosets.normal_closure_s"] += own
                out["cosets.closure_gens"] += info.get("closure_gens", 0)
            elif name.startswith(("cosets.CayleyTable", "cosets.reflection_class_count")):
                out["cosets.cayley_s"] += own
            elif name == "schreier.schreier_transversal":
                out["schreier.transversal_s"] += own
            elif name == "schreier.rs_presentation":
                out["schreier.rs_s"] += own
                out["schreier.rs_generators"] += info.get("gens", 0)
                out["schreier.rs_relators"] += info.get("relators", 0)
            elif name == "coxeter.MinimalRootTable.__init__":
                out["coxeter.root_table_s"] += own
                out["coxeter.minimal_roots"] += info.get("roots", 0)
            elif name == "coxeter.MinimalRootTable.nf":
                out["coxeter.nf_s"] += own
                out["coxeter.nf_letters_in"] += info.get("letters_in", 0)
            elif name == "coxeter.MinimalRootTable.reduce_word":
                out["coxeter.reduce_s"] += own
            elif name == "coxeter.maximal_finite_parabolics":
                out["coxeter.parabolics_s"] += own
            elif name == "cyclo.sign_real":
                out["cyclo.sign_real_s"] += own
                out["cyclo.sign_real_calls"] += 1
            elif name == "garside.gnf":
                out["garside.gnf_s"] += own
                out["garside.gnf_letters_in"] += info.get("letters_in", 0)
            elif name == "reps.rho_eval":
                out["reps.rho_eval_letters"] += info.get("letters", 0)
        if out["cosets.enum_calls"]:
            out["cosets.complete_ratio"] /= out["cosets.enum_calls"]
        out.update(self.counts)
        out["trace.uncovered_share"] = (wall_s - covered) / wall_s if wall_s > 0 else 0.0
        out["trace.spans"] = len(selfs)
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist(), "parent": self.parent.tolist(),
                       "request": self.request.tolist(), "info": self.info,
                       "counts": dict(self.counts)}, fh)


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _rebind(modules, owner, attr, orig, wrapper) -> None:
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
