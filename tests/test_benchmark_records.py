"""The committed benchmark records: the trajectory and the CI gate.

``benchmarks/trajectory.jsonl`` holds one line per (PR, workload,
end-to-end metric) pair a change reported; ``benchmarks/bench_gate.py``
fails CI on an exact metric that moved against the merge base and is
not in ``.github/bench-exact-allow.txt``.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIELDS = {"pr", "workload", "metric", "parent", "change", "pairs", "wins", "seeds", "source"}


def _declaration():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_trajectory_line_names_a_declared_workload_and_metric():
    declaration = _declaration()
    workloads = {w["name"] for w in declaration["workloads"]}
    metrics = {m["name"] for m in declaration["end_to_end"]}
    lines = (ROOT / "benchmarks" / "trajectory.jsonl").read_text().splitlines()
    assert lines
    keys = set()
    for number, text in enumerate(lines, 1):
        line = json.loads(text)
        assert set(line) == FIELDS, number
        assert line["workload"] in workloads, number
        assert line["metric"] in metrics, number
        assert isinstance(line["pr"], int) and isinstance(line["pairs"], int), number
        assert line["wins"] is None or 0 <= line["wins"] <= line["pairs"], number
        assert all(isinstance(seed, int) for seed in line["seeds"]), number
        for side in ("parent", "change"):
            if line[side] is not None:
                assert set(line[side]) == {"median", "q1", "q3"}, number
        keys.add((line["pr"], line["workload"], line["metric"]))
    assert len(keys) == len(lines), "one line per (PR, workload, metric)"


def _gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", ROOT / "benchmarks" / "bench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_gate_fails_only_on_an_unlisted_exact_metric(tmp_path):
    gate = _gate()
    assert gate.allowed(str(ROOT / ".github" / "bench-exact-allow.txt")) == set()
    allow = tmp_path / "allow.txt"
    allow.write_text("# header\noneshot-prune calls_invoked  # pruned on purpose\n")
    pairs = gate.allowed(str(allow))
    assert pairs == {("oneshot-prune", "calls_invoked")}
    rows = [
        ("oneshot-prune", "calls_invoked", 553, 540, 0.98, "differs"),
        ("oneshot-rounds", "calls_invoked", 47, 48, 1.02, "differs"),
        ("oneshot-fanout", "eval_wall_s", 0.01, 0.02, 2.0, "worse"),
        ("serve-standing", "unit_wall_s", 0.1, 0.1, 1.0, "ok"),
    ]
    assert gate.failing(rows, pairs) == [rows[1]]
    assert gate.failing(rows[2:], set()) == []
