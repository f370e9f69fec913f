"""One pass of a workload in a fresh process.

Reads a job from stdin (checkout root, requests, trace flag), imports
toricgroups from the checkout's ``src``, runs the requests one at a time on
this thread, and writes one JSON object to stdout: the monotonic time of
the first request (the parent turns it into ``setup_s``), the pass time
(the sum of the request latencies), ``ru_maxrss`` and, per request, its latency, exit code or escaped
exception and captured output.  A traced pass adds per-layer metrics and
writes its spans to the path in the job.

The child also times a speed probe: a fixed piece of plain Python work
that uses nothing from toricgroups.  It runs before the first request,
after each request, and every 30 ms on a second thread.  A request's
``ref`` is the mean of the probes taken from just before it to just after
it.  The parent divides the request's latency by ``ref``, so that the
host's speed, which swings by tens of percent, cancels out (see
README.md, Steadiness).
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import os
import resource
import sys
import threading
import time


def _load_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from toricgroups import cli, cosets, presentations, schreier

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"toricgroups imported from {cli.__file__}, not from {src}")
    return cli, cosets, presentations, schreier


def _probe_work() -> int:
    """A fixed mix of dict, list and integer work, like the package's own inner loops."""
    table: dict[int, int] = {}
    acc = []
    for i in range(250):
        k = (i * 7919) % 97
        table[k] = table.get(k, 0) + i
        acc.append(k * 16 + (i & 15))
    acc.sort()
    return len(table) + acc[-1]


def probe() -> float:
    """Seconds for the speed probe: the best of three runs of ``_probe_work``."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Speedometer:
    """Run the probe every ``interval`` seconds on a second thread, so it also samples long requests.

    The probe holds the GIL for about 0.2 ms each time.
    """

    def __init__(self, interval: float = 0.03):
        self.interval = interval
        self.times: list[float] = []
        self.probes: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            t = time.perf_counter()
            d = probe()
            self.times.append(t)  # a reader may see times one longer than probes
            self.probes.append(d)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def during(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self.times, t0)
        hi = min(bisect.bisect_right(self.times, t1), len(self.probes))
        return self.probes[lo:hi]


def main() -> None:
    job = json.load(sys.stdin)
    cli, cosets, presentations, schreier = _load_package(job["root"])
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def rs_tietze(a: int, b: int, c: int) -> str:
        """Normal closure of s by enumerating <X | R, s>, then RS and Tietze."""
        parent = presentations.j_parent(a, b, c)
        quotient = presentations.Presentation(parent.alphabet, parent.relators + (parent.alphabet.word("s"),))
        table = cosets.todd_coxeter(quotient)
        tr = schreier.schreier_transversal(table, schreier.toric_column_order(parent.alphabet))
        rs = schreier.rs_presentation(parent, table, tr).presentation
        simple = presentations.tietze_simplify(rs)
        return json.dumps({
            "index": table.num_cosets,
            "rs": [len(rs.gens), [list(r.letters) for r in rs.relators]],
            "tietze": [len(simple.gens), [list(r.letters) for r in simple.relators]],
        })

    results = []
    first_request = time.monotonic()
    probes = [probe()]
    meter = Speedometer()
    meter.start()
    for i, req in enumerate(job["requests"]):
        if tracer is not None:
            tracer.request_id = i
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if req["kind"] == "cli":
                    code = cli.main(req["argv"])
                else:
                    out.write(rs_tietze(*req["abc"]))
                    code = 0
        except SystemExit as e:  # argparse rejects its input this way
            code = e.code
        except Exception as e:  # an escaped exception is a result to count, not a crash
            exc = type(e).__name__
        t1 = time.perf_counter()
        ms = (t1 - t0) * 1e3
        probes.append(probe())
        refs = [probes[-2], probes[-1], *meter.during(t0, t1)]
        results.append({"ms": ms, "ref": sum(refs) / len(refs), "code": code, "exc": exc, "out": out.getvalue()})
    meter.stop()
    wall_s = sum(r["ms"] for r in results) / 1e3

    report = {
        "first_request": first_request,
        "first_probe": probes[0],
        "wall_s": wall_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if tracer is not None:
        selfs = tracer.self_times()
        report["layers"] = tracer.layer_metrics(selfs, wall_s)
        report["request_layers"] = tracer.request_layers(selfs, len(results))
        tracer.dump(job["spans_path"])
    sys.stdout.write(json.dumps(report))


if __name__ == "__main__":
    main()
