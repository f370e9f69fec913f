"""``tools/bench_pairs.py`` reports every ground a pair of runs is judged
on: each metric's median and bound, each side's incorrect runs, and its
share of failed operations."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(pair: int, side: str, wall: float, correct: bool, failed: int) -> dict:
    return {"workload": "grid", "seed": 1, "pair": pair, "side": side, "metrics": {"wall_s": wall},
            "correct": correct, "attempted": 100, "failed": failed}


def test_summary_reports_incorrect_runs_and_the_failed_share(tmp_path, capsys):
    runs = [_run(0, "parent", 1.0, True, 0), _run(0, "change", 1.0, False, 2),
            _run(1, "change", 1.1, True, 1), _run(1, "parent", 1.0, True, 1),
            _run(0, "parent", 9.0, False, 50) | {"workload": "words"}]
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps({"runs": runs}))
    spec = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25}}
    _bench_pairs().summarize(json.loads(path.read_text()), "grid", 1, spec)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "== grid seed 1: 2 pairs; median [quartiles], parent -> change",
        "  parent: 0 of 2 runs incorrect; failed 1 of 200 operations (0.005)",
        "  change: 1 of 2 runs incorrect; failed 3 of 200 operations (0.015)",
        "  larger failed share: YES",
    ]
    assert lines[4].split()[0] == "wall_s" and lines[4].endswith("past bound 0.25: no")


def test_an_equal_failed_share_is_not_larger(capsys):
    runs = [_run(0, "parent", 1.0, True, 1), _run(0, "change", 1.0, True, 1)]
    _bench_pairs().summarize({"runs": runs}, "grid", 1, {})
    assert "  larger failed share: no" in capsys.readouterr().out.splitlines()
