"""Benchmark of the toricgroups CLI and library, end to end and per layer.

    python3 perfbench/run.py --workload grid|words|subgroups|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``
there.  Inputs come from ``--seed`` (see ``workloads.py``).  A run is a
series of passes over the workload's full request list, each pass in a
fresh child process that serves one request at a time on one thread
(a closed loop with one client).  ``--seconds`` fixes the number of passes
from the workload's nominal pass time, so every run of a workload does the
same work.  Every answer is checked against ``oracles.py``.

Times are calibrated by a speed probe that the child runs around and
during every request (``child.probe``): each latency is scaled to the
probe's nominal speed, so that the shared host's swings in speed cancel
out.  With ``--trace 0`` the last line reports the end-to-end metrics,
medians over the passes; with ``--trace 1`` traced and untraced passes
alternate and the last line reports the per-layer metrics from the traced
ones plus the tracing overhead.  The lines before it show every metric
with its unit, the input properties and any failed request.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# seconds per pass of each workload at the seed commit (2-CPU Xeon, Python 3.11)
NOMINAL_PASS_S = {"grid": 3.8, "words": 4.3, "subgroups": 11.8}
# past the first two passes, start no pass that might end the run later than
# this share of --seconds: on a slow host the run does fewer passes instead
# of overrunning the time the whole benchmark is allowed
STRETCH = 1.7
# and never start one that might end it past this (the run must end in 180 s)
RUN_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0
# nominal time of child.probe, about its median on the Xeon above: calibrated
# times read as if every probe had taken this long
PROBE_NOMINAL_S = 6e-5

END_TO_END = [("wall_s", "s"), ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("fail_ratio", "ratio"), ("unknown_ratio", "ratio")]
PER_LAYER = [
    ("cli.self_s", "s"), ("words.self_s", "s"), ("words.calls", "count"),
    ("presentations.tietze_s", "s"), ("presentations.tietze_eliminated", "count"),
    ("presentations.tietze_out_len", "count"), ("presentations.tietze_budget_exceeded", "count"),
    ("cosets.hlt_s", "s"), ("cosets.felsch_s", "s"), ("cosets.overflow_s", "s"), ("cosets.enum_calls", "count"),
    ("cosets.complete_ratio", "ratio"), ("cosets.rows_out", "count"),
    ("cosets.normal_closure_s", "s"), ("cosets.closure_gens", "count"), ("cosets.cayley_s", "s"),
    ("schreier.transversal_s", "s"), ("schreier.rs_s", "s"), ("schreier.rs_generators", "count"),
    ("schreier.rs_relators", "count"),
    ("coxeter.root_table_s", "s"), ("coxeter.minimal_roots", "count"), ("coxeter.nf_s", "s"),
    ("coxeter.reduce_s", "s"), ("coxeter.nf_letters_in", "count"), ("coxeter.parabolics_s", "s"),
    ("cyclo.sign_real_s", "s"), ("cyclo.sign_real_calls", "count"), ("cyclo.mul_calls", "count"),
    ("cyclo.embed_calls", "count"),
    ("maps.self_s", "s"), ("garside.gnf_s", "s"), ("garside.gnf_letters_in", "count"),
    ("reps.self_s", "s"), ("reps.rho_eval_letters", "count"),
    ("trace.overhead_s", "s"), ("trace.uncovered_share", "ratio"), ("trace.spans", "count"),
]


class BenchError(Exception):
    pass


def run_pass(requests: list[dict], trace: bool, spans_path: str | None = None) -> dict:
    """Run one pass in a child process; add ``setup_s`` to its report."""
    job = json.dumps({"root": ROOT, "requests": [r["input"] for r in requests], "trace": trace,
                      "spans_path": spans_path})
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")], input=job, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["first_request"] - spawned
    return report


def judge_pass(requests: list[dict], report: dict) -> list[tuple[str, str]]:
    return [checks.judge(r["expect"], resp) for r, resp in zip(requests, report["results"])]


def calibrated_ms(report: dict) -> list[float]:
    """Each request's latency at the probe's nominal speed: scaled by the probes around and during it."""
    return [res["ms"] * PROBE_NOMINAL_S / res["ref"] for res in report["results"]]


def calibrated_wall_s(report: dict) -> float:
    return sum(calibrated_ms(report)) / 1e3


def tail(latencies: list[float], planned: int) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: (value, percentile, samples).

    The percentile is fixed by the ``planned`` sample count, so a run cut
    short on a slow host reports the same percentile.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if planned <= 10:
        return ordered[-1], 100.0, n
    rank = -(-(planned - 10) * n // planned)  # ceil, in integers: n == planned gives n - 10
    return ordered[max(0, rank - 1)], 100.0 * (planned - 10) / planned, n


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    requests = workloads.generate(name, seed)
    props = workloads.input_properties(requests)
    passes = max(1, round(seconds / NOMINAL_PASS_S[name]))
    kinds = [False] * passes
    if trace:  # alternate so that both sides see the same machine conditions
        kinds = [bool(i % 2) for i in range(max(2, passes))]
    spans_dir = os.path.join(ROOT, ".perfbench", "spans")
    if trace:
        os.makedirs(spans_dir, exist_ok=True)
    plain, traced, verdicts = [], [], []
    start = time.monotonic()
    for i, is_traced in enumerate(kinds):
        longest = max((r["wall_s"] + r["setup_s"] for r in plain + traced), default=0.0)
        ends = time.monotonic() - start + longest
        if (i >= 2 and ends > STRETCH * seconds) or (i and ends > RUN_LIMIT_S):
            print(f"note: stopped after {i} of {len(kinds)} passes to stay within the time limit")
            break
        spans = os.path.join(spans_dir, f"{name}-seed{seed}-pass{i}.json") if is_traced else None
        report = run_pass(requests, is_traced, spans)
        (traced if is_traced else plain).append(report)
        verdicts.extend((requests[j]["props"]["kind"], v) for j, v in enumerate(judge_pass(requests, report)))

    attempted = len(verdicts)
    npasses = len(plain) + len(traced)
    failed = sum(v[0] in ("fail", "wrong") for _, v in verdicts)
    unknown = sum(v[0] == "unknown" for _, v in verdicts)
    wrong = sum(v[0] == "wrong" for _, v in verdicts)
    problems = sorted({f"{kind}: {v[0]} ({v[1]})" for kind, v in verdicts if v[0] in ("fail", "wrong")})

    scaled = [calibrated_ms(r) for r in plain]
    tail_ms, tail_pct, samples = tail([ms for run in scaled for ms in run], len(requests) * kinds.count(False))
    typical = [statistics.median(run[j] for run in scaled) for j in range(len(requests))]
    metrics = {
        "wall_s": sum(typical) / 1e3,
        "latency_p50_ms": statistics.median(typical),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in plain),
        "setup_s": statistics.median(r["setup_s"] * PROBE_NOMINAL_S / r["first_probe"] for r in plain),
        # add-one estimates per pass, so that they are never 0, one new failure
        # per pass on a clean workload doubles them, and a run cut short on a
        # slow host reads the same
        "fail_ratio": (failed / npasses + 1) / (len(requests) + 1),
        "unknown_ratio": (unknown / npasses + 1) / (len(requests) + 1),
    }
    measured = {
        "wall_s": statistics.median(sum(res["ms"] for res in r["results"]) / 1e3 for r in plain),
        "speed": statistics.median(PROBE_NOMINAL_S / res["ref"] for r in plain for res in r["results"]),
    }
    result = {"workload": name, "seed": seed, "passes": len(plain), "traced_passes": len(traced),
              "attempted": attempted, "failed": failed, "wrong": wrong, "unknown": unknown,
              "tail_percentile": tail_pct, "tail_samples": samples, "inputs": props, "problems": problems,
              "end_to_end": metrics, "measured": measured}
    if traced:
        layers = {}
        for key, _ in PER_LAYER:
            values = [r["layers"].get(key, 0.0) for r in traced]
            layers[key] = statistics.median(values)
        # calibrated pass walls, so that the host's speed does not pass for overhead
        layers["trace.overhead_s"] = statistics.median(map(calibrated_wall_s, traced)) - statistics.median(
            map(calibrated_wall_s, plain))
        result["per_layer"] = layers
        # which layers the requests beyond the tail spend their time in
        beyond = Counter()
        for run in scaled:
            for j, ms in enumerate(run):
                if ms > tail_ms:
                    for t in traced:
                        beyond.update({k: v / len(traced) for k, v in t["request_layers"][j].items()})
        result["tail_layers"] = dict(beyond.most_common())
    return result


def print_report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} seed {result['seed']}: {result['passes']} pass(es), {result['traced_passes']} traced; "
          f"{result['attempted']} requests, {result['failed']} failed ({result['wrong']} wrong), "
          f"{result['unknown']} unknown")
    print(f"inputs: {json.dumps(result['inputs'], sort_keys=True)}")
    print(f"measured: median pass {result['measured']['wall_s']:.3f} s at {result['measured']['speed']:.3f} "
          f"times the probe's nominal speed")
    for unit_list, key in ((END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")):
        for metric, unit in unit_list:
            if metric in result.get(key, {}):
                extra = ""
                if metric == "latency_tail_ms":
                    extra = f"  (p{result['tail_percentile']:.2f} of {result['tail_samples']} samples)"
                print(f"  {name:9s} {metric:38s} {result[key][metric]:14.6g} {unit}{extra}")
    if "tail_layers" in result:
        total = sum(result["tail_layers"].values()) or 1.0
        print("  self time of the requests beyond the tail, by layer: " + ", ".join(
            f"{k} {v:.3f} s ({v / total:.0%})" for k, v in result["tail_layers"].items()))
    for line in result["problems"]:
        print(f"  failed request kind {line}")


def summary_line(result: dict, trace: bool) -> dict:
    values = result["per_layer"] if trace else result["end_to_end"]
    units = dict(PER_LAYER if trace else END_TO_END)
    return {"correct": result["wrong"] == 0, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src", "toricgroups")
    if not os.path.isfile(os.path.join(src, "__init__.py")):
        print(f"error: no toricgroups package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # build: byte-compile once so no pass pays for compilation in its set-up
    compileall.compile_dir(src, quiet=2)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(results[name])
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({n: summary_line(r, bool(args.trace)) for n, r in results.items()}))
    else:
        print(json.dumps(summary_line(results[args.workload], bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
